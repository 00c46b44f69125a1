"""The host's speed, sampled all through a run, so that timings can be given
in reference seconds.

On a shared host the same code runs up to 1.7 times slower for stretches
that last from a fraction of a second to minutes, as other tenants load the
physical cores. A `HostSpeed` sampler runs a fixed reference kernel (JSON
parse, small numpy arrays, Python float arithmetic, the mix gaitlab runs)
about every `INTERVAL_S` of wall time, in the benchmark's only thread. It
records each kernel's time and how long the samples took in total, so that
a timed interval can drop the time its samples took.

The runner calls `tick` between operations, which samples when one is due.
Short operations are sampled only there, because a kernel that interrupts
one runs in caches and a heap it has left behind and tracks the host less
well (over five 12 s score-stream runs, a quartile spread of 0.07 against
0.03 between operations). Inside a long operation, or during set-up, a
``SIGALRM`` handler takes the samples that are overdue.

A span of wall time ``t`` whose samples took ``k`` seconds per kernel on
average (a mean trimmed by `TRIM` at each end) is
``t * REFERENCE_KERNEL_S / k`` reference seconds: the time it would take on
a host that runs the kernel in `REFERENCE_KERNEL_S`. The
kernel is part of the benchmark, so a change to gaitlab moves only ``t``.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
# Median kernel time on the 2-vCPU Intel Xeon (2.1 GHz) VM this benchmark
# was written on; it only fixes the unit.
REFERENCE_KERNEL_S = 0.0016
MIN_SAMPLES = 5  # an interval with fewer is scaled by every sample so far
# Share of samples dropped at each end before averaging. A sample during
# which the process was descheduled can take 100 times the usual; one such
# in a set-up's 150 samples moved its scale by a third.
TRIM = 0.1

_FRAMES = json.dumps([
    {"t": i, "kp": {f"k{j}": [0.5 * j + 0.01 * i, 0.25 * i - 0.1 * j, 0.9] for j in range(14)}}
    for i in range(30)
])


def kernel() -> float:
    acc = 0.0
    for frame in json.loads(_FRAMES):
        pts = np.array([p[:2] for p in frame["kp"].values()])
        d = pts[:, None, :] - pts[None, :, :]
        acc += float(np.sqrt((d * d).sum(-1)).mean())
        for x, y, _ in frame["kp"].values():
            acc += (x * x + y * y) ** 0.5
    return acc


def trimmed_mean(values) -> float:
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut:len(values) - cut])


class HostSpeed:
    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0  # seconds spent sampling so far
        self.running = False
        self.last = 0.0  # when the last sample ended

    def _sample(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.last = time.perf_counter()
        self.stolen += self.last - t0

    def tick(self):
        """Sample now if one is due; call between operations."""
        if self.running and time.perf_counter() - self.last >= INTERVAL_S:
            self._sample()

    def _overdue(self, signum, frame):
        if time.perf_counter() - self.last >= 2 * INTERVAL_S:
            self._sample()

    def start(self):
        self.running = True
        self.last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._overdue)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.running = False

    def mark(self) -> tuple[float, float, int]:
        """A point in the run: wall clock, handler time so far, samples so far."""
        return time.perf_counter(), self.stolen, len(self.samples)

    def net_s(self, start, end) -> float:
        """Wall seconds between two marks, less the time the samples took."""
        return (end[0] - start[0]) - (end[1] - start[1])

    def scale(self, start, end) -> float:
        """Reference seconds per wall second over the samples between two marks:
        the host's speed relative to the reference, below 1 on a slower host."""
        window = self.samples[start[2]:end[2]]
        if len(window) < MIN_SAMPLES:
            window = self.samples[:end[2]]
        return REFERENCE_KERNEL_S / trimmed_mean(window) if window else 1.0

    def reference_s(self, start, end) -> float:
        return self.net_s(start, end) * self.scale(start, end)
