#!/usr/bin/env python3
"""The ybcawo4 benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep-map --seed 0 --seconds 15 --trace 0

Run it from the root of a checkout; it uses the package under src/ and
writes only below .perfbench_work/ (scratch, removed at exit) and
.perfbench_out/ (a detail record per run, and the spans of a traced run).

With --trace 0 it measures the end-to-end metrics: a warm closed loop in a
fresh worker process (op_s, op_s_tail, ops_per_s, peak_rss_mb), with import
time (setup_s) and cold subprocess operations (cold_s) measured between its
operations.  Every time is reported at reference host speed: each sample is
scaled by the host-speed kernel of hostspeed.py timed just before and after
it, all on one pinned CPU; the raw wall times are in the detail record.
With --trace 1 the worker alternates plain and traced operations and
reports the per-layer metrics of tracer.py plus trace.overhead_frac.  Every
operation's outputs are checked; the last stdout line is the JSON result.
README.md lists the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from hostspeed import REF_S, Kernel, at_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
COLD_REPEATS = 5            # cold operations of one call; 3 of several calls,
                            # whose sum already spans several samples
KERNEL_PASSES = 3           # host-speed kernel passes around a subprocess sample
TAIL_BEYOND = 10            # op_s_tail: highest percentile with >= 10 samples beyond
WORKER_GRACE_S = 100.0      # worker deadline beyond --seconds
CHILD_TIMEOUT_S = 60.0      # deadline of one setup or cold subprocess
perf_counter = time.perf_counter


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)


def pin_to_one_cpu() -> int | None:
    """Run this process and every child on one CPU, the last it may use.
    The CPUs of a shared host drift in speed apart from each other, and the
    host-speed kernel speaks only for the CPU it ran on."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def cap_threads() -> None:
    """BLAS/OpenMP threads of this process and its children: at most nproc."""
    cap = nproc()
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cap:
            os.environ[var] = str(cap)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(command: list, env: dict, stdout=None) -> tuple[float, int]:
    """(wall seconds, exit code) of one subprocess.  It is awaited with a
    blocking waitpid and a watchdog: subprocess's own timeout polls in steps
    of up to 50 ms, which would round every time up to that step."""
    start = perf_counter()
    proc = subprocess.Popen(command, env=env, stdout=stdout)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    return perf_counter() - start, code


def machine_record(cpus: int, pinned: int | None) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "nproc": cpus, "pinned_cpu": pinned,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "blas_threads": {var: os.environ[var] for var in THREAD_VARS}}


def tail(times: list) -> tuple[float, float]:
    """(value, percentile): the highest nearest-rank percentile that has at
    least TAIL_BEYOND samples above it; the minimum when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[0], 0.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def corrupt(out_dir: Path) -> None:
    """Self-test: scale the largest numeric cell of the first CSV by 1.05."""
    path = sorted(Path(out_dir).glob("*.csv"))[0]
    lines = path.read_text().splitlines()
    best = None
    for i, line in enumerate(lines[1:], start=1):
        for j, cell in enumerate(line.split(",")):
            try:
                value = float(cell)
            except ValueError:
                continue
            if best is None or abs(value) > abs(best[2]):
                best = (i, j, value)
    i, j, value = best
    cells = lines[i].split(",")
    cells[j] = repr(value * 1.05 if value else 1.0)
    lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


class Run:
    def __init__(self, args, plan, refs, work: Path):
        self.args, self.plan, self.refs, self.work = args, plan, refs, work
        self.attempted = 0
        self.failures: list = []
        self.setup: list = []         # wall s
        self.cold: list = []          # wall s, [repeat][call]
        self.setup_ref: list = []     # at reference host speed
        self.cold_ref: list = []      # ... [repeat], summed over the calls
        self.env = child_env()
        self.kernel = Kernel()

    def kernel_time(self) -> float:
        """Host-speed kernel time next to a subprocess sample."""
        return self.kernel.measure(min_passes=KERNEL_PASSES)

    def check(self, dirs, ran_ok: bool) -> str | None:
        from workloads import check_op
        if self.args.corrupt_output and not self.attempted and ran_ok:
            corrupt(Path(dirs[0]))
        reason = check_op(self.plan, self.refs, dirs) if ran_ok \
            else "raised or exited nonzero"
        self.attempted += 1
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
        return reason

    def measure_setup(self) -> None:
        """Wall time of a fresh interpreter importing ybcawo4.cli."""
        before = self.kernel_time()
        elapsed, code = run_child([sys.executable, "-c", "import ybcawo4.cli"], self.env)
        if code:
            raise RuntimeError(f"import ybcawo4.cli exited with code {code}")
        self.setup.append(elapsed)
        self.setup_ref.append(at_reference(elapsed, before, self.kernel_time()))

    def measure_cold(self) -> None:
        """Wall time of one operation as fresh `python -m ybcawo4.cli`
        processes, one per call."""
        rep = len(self.cold)
        dirs = [self.work / f"cold{rep}-{k}" for k in range(len(self.plan.calls))]
        ok, elapsed, total_ref = True, [], 0.0
        before = self.kernel_time()
        for out_dir, (_, argv) in zip(dirs, self.plan.calls):
            wall, code = run_child(
                [sys.executable, "-m", "ybcawo4.cli", "--out", str(out_dir)] + argv,
                self.env, stdout=subprocess.DEVNULL)
            after = self.kernel_time()
            total_ref += at_reference(wall, before, after)
            before = after
            elapsed.append(wall)
            ok = ok and code == 0
        self.cold_ref.append(total_ref)
        reason = self.check(dirs, ok)
        if reason:
            self.failures.append(f"cold {rep}: {reason}")
        self.cold.append(elapsed)

    def worker(self) -> dict:
        """Run the worker's loop, checking each operation.  Untraced runs also
        measure setup and cold times between operations, spread evenly over
        the loop, so that every statistic covers the same stretch of time."""
        cold_repeats = COLD_REPEATS if len(self.plan.calls) == 1 else 3
        extras = [] if self.args.trace else sorted(
            [((k + 0.5) / SETUP_REPEATS, self.measure_setup) for k in range(SETUP_REPEATS)]
            + [((k + 0.5) / cold_repeats, self.measure_cold) for k in range(cold_repeats)],
            key=lambda extra: extra[0])
        request = {"calls": [argv for _, argv in self.plan.calls],
                   "seconds": self.args.seconds, "trace": self.args.trace,
                   "work_dir": str(self.work),
                   "spans_path": str(self.out_base.with_suffix(".spans.jsonl.gz"))}
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                env=self.env, cwd=ROOT, text=True)
        watchdog = threading.Timer(self.args.seconds + WORKER_GRACE_S, proc.kill)
        watchdog.start()
        result = None
        loop_start, in_extras = None, 0.0
        try:
            proc.stdin.write(json.dumps(request) + "\n")
            proc.stdin.flush()
            for line in proc.stdout:
                message = json.loads(line)
                if message["type"] == "check":
                    reason = self.check(message["dirs"], message["ran_ok"])
                    loop_start = loop_start or perf_counter()
                    while extras and (perf_counter() - loop_start - in_extras
                                      >= extras[0][0] * self.args.seconds):
                        started = perf_counter()
                        extras.pop(0)[1]()
                        in_extras += perf_counter() - started
                    proc.stdin.write(json.dumps({"ok": reason is None,
                                                 "reason": reason}) + "\n")
                    proc.stdin.flush()
                elif message["type"] == "result":
                    result = message
        finally:
            watchdog.cancel()
            proc.stdin.close()
            proc.wait()
        if proc.returncode != 0 or result is None:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        for _, measure in extras:
            measure()
        return result

    @property
    def out_base(self) -> Path:
        return (ROOT / ".perfbench_out"
                / f"{self.plan.workload}-seed{self.args.seed}-trace{self.args.trace}")


def layer_unit(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith("_frac"):
        return "frac"
    if metric.endswith("_per_root") or metric.endswith("_per_iter"):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-output", action="store_true",
                        help="self-test: corrupt the first operation's output")
    args = parser.parse_args()
    if not (SRC / "ybcawo4" / "cli.py").is_file():
        print(f"error: no ybcawo4 package under {SRC}", file=sys.stderr)
        return 2
    cpus = nproc()
    pinned = pin_to_one_cpu()
    cap_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, load_refs, make_plan
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        plan = make_plan(args.workload, args.seed, work)
        run = Run(args, plan, load_refs(args.workload), work)
        run.out_base.parent.mkdir(exist_ok=True)
        result = run.worker()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = run.attempted
    failures = run.failures + result["failures"]
    failed = len(run.failures) + result["failed"]
    times = result["op_times"]
    times_ref = result["op_times_ref"]
    tail_value, tail_pct = tail(times_ref)
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in result["layers"].items()}
    else:
        metrics = {
            "op_s": {"value": statistics.median(times_ref), "unit": "s"},
            "op_s_tail": {"value": tail_value, "unit": "s"},
            "ops_per_s": {"value": len(times_ref) / sum(result["iteration_times_ref"]),
                          "unit": "1/s"},
            "cold_s": {"value": statistics.median(run.cold_ref), "unit": "s"},
            "setup_s": {"value": statistics.median(run.setup_ref), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    record = {
        "workload": args.workload, "seed": args.seed, "slot": plan.slot,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_record(cpus, pinned),
        "calls": [argv for _, argv in plan.calls],
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "failures": failures[:20],
        "op_times_s": times, "op_times_ref_s": times_ref,
        "op_s_tail_percentile": tail_pct,
        "op_s_tail_samples": len(times), "timed_wall_s": result["timed_wall_s"],
        "raw_wall": None if args.trace else {
            "op_s": statistics.median(times),
            "ops_per_s": len(times) / result["timed_wall_s"],
            "cold_s": statistics.median(sum(c) for c in run.cold),
            "setup_s": statistics.median(run.setup)},
        "kernel_times_s": result["kernel_times"], "hostspeed_ref_s": REF_S,
        "cold_times_s": run.cold, "cold_times_ref_s": run.cold_ref,
        "setup_times_s": run.setup, "setup_times_ref_s": run.setup_ref,
        "traced_op_times_s": result.get("traced_op_times"),
        "metrics": metrics,
    }
    run.out_base.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"{args.workload} seed {args.seed}: {len(times)} ops, "
          f"error_rate {failed}/{attempted}, tail p{tail_pct:.1f} of {len(times)}"
          + "".join(f"\n  {f}" for f in failures[:5]), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
