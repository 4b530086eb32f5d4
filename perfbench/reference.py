"""Machine-speed reference: a fixed kernel timed while the workload runs.

On shared virtual machines, like the 2-vCPU one this was tuned on, the
speed of edgesense's kind of code (a Python loop over small numpy arrays)
flips between a fast and a slow state, up to 1.8x apart, within seconds,
while a pure-Python loop barely moves. A kernel with the engine's mix, run from a
timer signal every INTERVAL_S during the measured passes, tracks those flips.
Each measured segment is reported as its host time minus the kernel time
spent inside it, times NOMINAL_S / (mean kernel time from shortly before to
shortly after the segment): seconds on a machine that runs the kernel in
NOMINAL_S. A mean, not a median, because a segment's time is itself a mean
over the states it ran through. Writes of small files are scaled the same
way by a file-system kernel timed right before and after them. The kernels
belong to the benchmark, so no change to edgesense changes them.
"""

from __future__ import annotations

import contextlib
import os
import signal
import statistics
import tempfile
import time
from dataclasses import dataclass

import numpy as np

# The kernel's typical time on the machine BENCH_seed.json was recorded on
# (2 vCPUs, Python 3.11.7, numpy 2.4.6). It sets only the scale of the
# reported times; changing it rescales every time metric.
NOMINAL_S = 0.016
KERNEL_ROUNDS = 600
INTERVAL_S = 0.25
# The same for the file-system kernel; small-file operations drift on their
# own, by up to 2x between processes, so file writes get their own reference.
FS_NOMINAL_S = 0.0006
FS_FILES = 5


def kernel() -> float:
    """Small-array numpy work inside a Python loop, like engine rounds."""
    a = np.random.default_rng(0).random((40, 6))
    zone = np.repeat(np.arange(4), 10)
    acc = np.zeros((4, 6))
    total = 0.0
    for _ in range(KERNEL_ROUNDS):
        b = np.where(a > 0.3, a, 0.0)
        s = np.zeros((4, 6))
        np.add.at(s, zone, b)
        acc += np.divide(s, s + 1.0, out=np.zeros_like(s), where=s > 0)
        total += float(b.sum()) + len([x for x in range(40) if x % 3])
    return total + float(acc.sum())


def fs_kernel(directory: str) -> None:
    """Small files written under a temporary name and renamed into place."""
    for i in range(FS_FILES):
        fd, tmp = tempfile.mkstemp(dir=directory)
        with os.fdopen(fd, "w") as fh:
            fh.write("x" * 2000)
        os.replace(tmp, os.path.join(directory, f"ref{i}"))


@dataclass(frozen=True)
class Segment:
    start: float    # perf_counter at start and end
    end: float
    seconds: float  # end - start minus the kernel time inside


class Reference:
    """Kernel samples (end time, duration) and the host time they took."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0
        self._busy = False
        self._last_fs = (-1.0, 0.0)  # end time and duration of the last file-kernel sample
        kernel()  # warm-up: a process's first run is slower

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))
        self.spent += t1 - t0

    def fs_measure(self, fn, directory: str) -> tuple[float, float, object]:
        """(host seconds of fn(), the same in FS_NOMINAL_S file-kernel seconds,
        fn's value), from one file-kernel sample on each side of it."""
        def fs_sample():
            spent, t0 = self.spent, time.perf_counter()
            fs_kernel(directory)
            t1 = time.perf_counter()
            dt = t1 - t0 - (self.spent - spent)  # a tick may land inside
            self.spent += dt
            self._last_fs = (t1, dt)
            return dt

        last_end, last = self._last_fs
        # a sample that just ended serves as this measurement's "before"
        before = last if time.perf_counter() - last_end < 0.005 else fs_sample()
        seg, value = self.measure(fn)
        after = fs_sample()
        return seg.seconds, seg.seconds * FS_NOMINAL_S / ((before + after) / 2), value

    def _tick(self, signum, frame) -> None:
        if not self._busy:  # a tick arriving during a sample is dropped
            self._busy = True
            try:
                self.sample()
            finally:
                self._busy = False

    @contextlib.contextmanager
    def running(self):
        """Sample every INTERVAL_S during the block, and once after it, so the
        block's last segment has a sample on each side."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.sample()

    def clock(self) -> float:
        """Host seconds that do not advance while the kernel runs."""
        return time.perf_counter() - self.spent

    def measure(self, fn):
        """(Segment, value) of fn()."""
        spent, start = self.spent, time.perf_counter()
        value = fn()
        end = time.perf_counter()
        return Segment(start, end, end - start - (self.spent - spent)), value

    def scaled(self, seg: Segment) -> float:
        """seg.seconds in NOMINAL_S-kernel seconds, from the samples that end
        within INTERVAL_S of the segment (the nearest one if none do)."""
        near = [d for t, d in self.samples if seg.start - INTERVAL_S <= t <= seg.end + INTERVAL_S + d]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - seg.end))[1]]
        return seg.seconds * NOMINAL_S / statistics.fmean(near)
