#!/usr/bin/env python3
"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/record_refs.py            # every workload with references

Runs each input slot of sweep-map, epr-rosette and cli-mix once in-process
and stores fingerprints (sweep-map, cli-mix) or the resonance table
(epr-rosette) under perfbench/refs/.  sweep-fit needs none: it is checked
against its seeded truth.  Re-record only when a change to the outputs is
intended and named.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import (N_SLOTS, REFS_DIR, fingerprint_dir, make_plan,  # noqa: E402
                       read_rosette)


def record(workload: str, scratch: Path) -> dict:
    from ybcawo4 import cli
    slots = {}
    for slot in range(N_SLOTS):
        plan = make_plan(workload, slot, scratch)
        outputs = []
        for k, (_, argv) in enumerate(plan.calls):
            out_dir = scratch / f"{slot}-{k}"
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(["--out", str(out_dir)] + argv) != 0:
                    raise SystemExit(f"{workload} slot {slot}: {argv} failed")
            outputs.append(out_dir)
        entry = {"argv": [argv for _, argv in plan.calls]}
        if workload == "epr-rosette":
            entry["rosette"] = read_rosette(outputs[0] / "rosette.csv")
        else:
            entry["outputs"] = [fingerprint_dir(d) for d in outputs]
        slots[str(slot)] = entry
        for d in outputs:
            shutil.rmtree(d)
    return {"workload": workload, "n_slots": N_SLOTS, "slots": slots}


def main() -> int:
    scratch = HERE.parent / ".perfbench_work" / "record_refs"
    scratch.mkdir(parents=True, exist_ok=True)
    REFS_DIR.mkdir(exist_ok=True)
    try:
        for workload in ("sweep-map", "epr-rosette", "cli-mix"):
            refs = record(workload, scratch)
            path = REFS_DIR / f"{workload}.json"
            path.write_text(json.dumps(refs, separators=(",", ":")) + "\n")
            print(f"{path.name}: {len(refs['slots'])} slots, "
                  f"{path.stat().st_size} bytes")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
