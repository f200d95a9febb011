"""Host-speed calibration: a fixed kernel timed around every measured sample.

On a shared host the CPU speed one process gets drifts with the other
tenants' load: it switches between phases a few seconds long that differ by
up to 50%, and it moves every timing together.  So the benchmark times this
kernel, off the clock, just before and just after each sample (an operation,
an import, a cold subprocess) and reports the sample at reference speed:

    reported = wall × REF_S / mean(kernel time before, kernel time after)

where a kernel time is the median of a group of passes.  The ratio of a
sample to the kernel stays the same across phases; the medians of samples
and kernel times taken apart do not, when a run straddles two phases.  The
CPUs of such a host also drift apart, so run.py pins the benchmark's
processes to one CPU, and the kernel runs where the samples run.

The kernel mixes what the workloads spend their time on: float formatting
into CSV rows, batched small Hermitian eigensolves, vectorised exponentials
and interpreted dict arithmetic.  It does not touch ybcawo4 and its inputs
are fixed, so its cost never changes and a change to the program moves only
the wall times.  REF_S is its typical time inside a run on the host the
reference figures were taken on (2 vCPU x86-64, Python 3.11, numpy 2), so
reported times read as seconds on that host.  Each run's detail record keeps the raw wall times
and every kernel time.
"""

from __future__ import annotations

import csv
import io
import statistics
import time

import numpy as np

REF_S = 0.025              # kernel time at reference speed
KERNEL_SHARE = 0.1         # kernel passes around an operation: this share of it
perf_counter = time.perf_counter


class Kernel:
    """The calibration kernel and its fixed inputs."""

    def __init__(self):
        rng = np.random.default_rng(20060101)
        blocks = rng.standard_normal((48, 8, 8)) + 1j * rng.standard_normal((48, 8, 8))
        self.blocks = blocks + blocks.conj().transpose(0, 2, 1)
        self.values = rng.standard_normal(12000)
        self.centers = rng.uniform(-2.0, 2.0, 40)
        self.time()                  # first-call costs (LAPACK, csv) off the clock

    def run(self) -> float:
        """One pass of the kernel; returns a checksum so no work is skipped."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in self.values.reshape(-1, 6)[:1200]:
            writer.writerow([f"{v:.12g}" for v in row])
        total = float(len(buf.getvalue()))
        for _ in range(6):
            total += float(np.linalg.eigvalsh(self.blocks)[:, 0].sum())
        grid = self.values[:3000, None]
        for _ in range(8):
            total += float(np.exp(-(grid - self.centers) ** 2).sum())
        buckets: dict = {}
        for i in range(15000):
            buckets[i % 97] = buckets.get(i % 97, 0) + i
        return total + sum(buckets.values())

    def time(self) -> float:
        """Wall seconds of one pass."""
        start = perf_counter()
        self.run()
        return perf_counter() - start

    def measure(self, budget_s: float = 0.0, min_passes: int = 1) -> float:
        """Median wall seconds of passes, run until they add up to budget_s
        and number at least min_passes."""
        times = [self.time() for _ in range(min_passes)]
        while sum(times) < budget_s:
            times.append(self.time())
        return statistics.median(times)


def at_reference(wall_s: float, kernel_before_s: float, kernel_after_s: float) -> float:
    """A sample's wall time at reference host speed."""
    return wall_s * REF_S / (0.5 * (kernel_before_s + kernel_after_s))
