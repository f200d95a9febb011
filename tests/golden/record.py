#!/usr/bin/env python3
"""Record the golden CLI outputs that tests/test_golden.py compares against.

    PYTHONPATH=src python3 tests/golden/record.py

Runs every command of test_golden.COMMANDS once in-process and writes
tests/golden/outputs.json.  Re-record only when a change to the outputs is
intended, and name every entry that moved.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_golden import (COMMANDS, GOLDEN, key, run, workloads,  # noqa: E402
                         write_inputs)


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        inputs = Path(scratch) / "inputs"
        inputs.mkdir()
        write_inputs(inputs)
        commands = {key(argv): run(argv, inputs, Path(scratch) / str(k))
                    for k, argv in enumerate(COMMANDS)}
        record = {"inputs": workloads.fingerprint_dir(inputs),
                  "commands": commands}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    failed = [k for k, entry in commands.items() if entry["exit"] != 0]
    print(f"{GOLDEN.name}: {len(commands)} commands, {GOLDEN.stat().st_size} "
          f"bytes; non-zero exit: {failed or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
