#!/usr/bin/env python3
"""Self-test of the output checks: a corrupted output must count as failed.

    python3 perfbench/selftest.py

Runs every workload briefly with --corrupt-output, which scales the largest
numeric cell of the first operation's first CSV by 1.05 before the check,
and requires each run to report correct=false with failed >= 1.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "0", "--corrupt-output"],
            capture_output=True, text=True, timeout=180, cwd=HERE.parent)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        caught = bool(result) and not result["correct"] and result["failed"] >= 1
        rate = f"{result['failed']}/{result['attempted']}" if result else "no result"
        print(f"{workload}: error_rate {rate} -> {'caught' if caught else 'MISSED'}")
        status |= not caught
    return status


if __name__ == "__main__":
    sys.exit(main())
