"""One workload's process: a closed loop of in-process ybcawo4.cli.main calls.

Started by run.py with the plan on stdin's first line.  One operation is in
flight at a time.  After each operation the worker asks run.py, over its
stdin/stdout, to check the outputs, and waits for the verdict; the check and
the clean-up happen in run.py, so they neither count as timed wall time nor
add to this process's peak RSS.  Just before and just after each operation
it also times the host-speed kernel of hostspeed.py, off the clock, for half
of KERNEL_SHARE of the operation's time on each side, and gives each
operation time at reference speed.  The last stdout line is the result.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

perf_counter = time.perf_counter


def send(message: dict) -> None:
    sys.__stdout__.write(json.dumps(message) + "\n")
    sys.__stdout__.flush()


def main() -> int:
    request = json.loads(sys.stdin.readline())
    calls = request["calls"]
    seconds = request["seconds"]
    work = Path(request["work_dir"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from hostspeed import KERNEL_SHARE, Kernel, at_reference
    from ybcawo4 import cli

    tracer = None
    if request["trace"]:
        from tracer import Tracer
        tracer = Tracer()

    counter = itertools.count()
    state = {"failed": 0, "failures": [], "last_s": 0.0}
    kernel = Kernel()

    def operation(traced: bool) -> tuple[float, float, float, float]:
        """Run one operation between two timings of the host-speed kernel,
        then have it checked; (op seconds, kernel seconds before and after,
        seconds spent on the kernel and the check)."""
        op_id = next(counter)
        dirs = [work / f"op{op_id}-{k}" for k in range(len(calls))]
        off_clock = perf_counter()
        before = kernel.measure(KERNEL_SHARE / 2 * state["last_s"])
        if traced:
            tracer.begin_op(op_id)
        ok = True
        start = perf_counter()
        untimed = start - off_clock
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for out_dir, argv in zip(dirs, calls):
                    ok = cli.main(["--out", str(out_dir)] + argv) == 0 and ok
        except (Exception, SystemExit) as err:  # a failed operation, counted
            ok = False
            state["failures"].append(f"op {op_id}: {type(err).__name__}: {err}")
        elapsed = state["last_s"] = perf_counter() - start
        if traced:
            tracer.end_op()
        off_clock = perf_counter()
        after = kernel.measure(KERNEL_SHARE / 2 * elapsed)
        send({"type": "check", "dirs": [str(d) for d in dirs], "ran_ok": ok})
        verdict = json.loads(sys.stdin.readline())
        if not verdict["ok"]:
            state["failed"] += 1
            state["failures"].append(f"op {op_id}: {verdict['reason']}")
        return elapsed, before, after, untimed + perf_counter() - off_clock

    operation(False)                       # warm-up: imports, caches, first writes
    plain, traced, kernel_s = [], [], []   # operation and kernel wall times
    plain_ref, iteration_ref = [], []      # plain operation and loop times at
    loop_start = perf_counter()            #   reference speed
    excluded = 0.0
    while (perf_counter() - loop_start - excluded < seconds or not plain
           or (tracer is not None and not traced)):
        use_trace = tracer is not None and len(traced) < len(plain)
        started = perf_counter()
        elapsed, before, after, untimed = operation(use_trace)
        excluded += untimed
        kernel_s.append([before, after])
        if use_trace:
            traced.append(elapsed)
        else:
            plain.append(elapsed)
            plain_ref.append(at_reference(elapsed, before, after))
            iteration_ref.append(at_reference(perf_counter() - started - untimed,
                                              before, after))
    timed_wall = perf_counter() - loop_start - excluded

    result = {"type": "result", "failed": state["failed"], "failures": state["failures"][:20],
              "op_times": plain, "op_times_ref": plain_ref,
              "iteration_times_ref": iteration_ref, "kernel_times": kernel_s,
              "timed_wall_s": timed_wall,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.dump(request["spans_path"])
        layers = tracer.layer_metrics()
        layers["trace.overhead_frac"] = (statistics.median(traced)
                                         / statistics.median(plain) - 1.0)
        result.update(traced_op_times=traced, layers=layers)
    send(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
