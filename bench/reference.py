"""Reference loops that put task latencies on a steady scale.

The machines this benchmark runs on are shared: for stretches of seconds to
minutes other tenants slow every core by up to about 2x, and CPU time slows
with wall time (it is contention, not stolen time), so neither clock alone
is steady from run to run. The run therefore times a fixed reference loop,
which belongs to the benchmark and never changes with the program, right
after every task, and scales each task's latency by the median reference
time of the samples taken around it:

    scaled latency = raw latency * REF_UNIT_S[kind] / local reference time

so it reads in seconds at the speed at which the reference loop takes
exactly REF_UNIT_S[kind]. There are two loops because contention slows the
two kinds of work differently: `python` is interpreter-bound like the
set-algebra, game and modal tasks; `numpy` writes a fresh 16 MB array like
the rainbow algebra's operations on its 10.9M-atom arrays.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# the scale: seconds at the speed at which one loop takes this long, about
# its median inside the workloads on a 2-vCPU Xeon host
REF_UNIT_S = {"python": 1.0e-3, "numpy": 4.0e-3}
WINDOW_S = 0.5   # reference samples this close to a task count ...
MIN_SAMPLES = 5  # ... and at least this many of the nearest

_PY_ITERS = 2500
_np_src = []


def python_loop() -> int:
    """Interpreter-bound: int bit operations, small tuples and a dict."""
    acc, table = 0, {}
    for i in range(_PY_ITERS):
        x = (i * 0x9E3779B1) & 0xFFFF
        acc ^= x | (acc >> 3)
        table[x & 63] = acc
        acc += len((x, acc))
    return acc


def numpy_loop() -> int:
    """Memory-bound: a pass over a 16 MB int64 array into a fresh one, which
    faults its pages in as the algebra's operations do."""
    if not _np_src:
        _np_src.append(np.arange(1 << 21, dtype=np.int64))
    out = np.bitwise_xor(_np_src[0], 0x5A5A)
    return int(out[::4096].sum())


LOOPS = {"python": python_loop, "numpy": numpy_loop}


class Sampler:
    """Reference samples on demand (`take`) and, inside `with`, on a timer
    every PERIOD_UNITS loop times, so that a task lasting seconds has samples
    from while it ran. The timer's samples interrupt the task (a SIGALRM
    handler runs between bytecodes of the one thread); `busy` gives the time
    they took inside a span, which is taken off the task's latency."""

    PERIOD_UNITS = 25

    def __init__(self, kind: str, clock=time.perf_counter):
        self.kind, self.clock = kind, clock
        self.samples = []
        self._previous = None

    def take(self, *_signal_args) -> None:
        # no timer sample may land inside another sample
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            t = self.clock()
            LOOPS[self.kind]()
            dt = self.clock() - t
            self.samples.append((t + dt / 2, dt))  # (midpoint, seconds taken)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def __enter__(self):
        period = self.PERIOD_UNITS * REF_UNIT_S[self.kind]
        self._previous = signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, period, period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy(self, start: float, end: float) -> float:
        return sum(dt for t, dt in self.samples if start <= t <= end)


def scale(kind: str, spans, samples) -> list:
    """Scale each (start, end, latency) span by the median reference time of
    the samples taken during it if there are MIN_SAMPLES, else of those
    within WINDOW_S of it, else of its MIN_SAMPLES nearest."""
    out = []
    for start, end, latency in spans:
        dist = sorted((max(start - t, t - end, 0.0), dt) for t, dt in samples)
        near = [dt for d, dt in dist if d == 0.0]
        if len(near) < MIN_SAMPLES:
            near = [dt for d, dt in dist if d <= WINDOW_S]
        if len(near) < MIN_SAMPLES:
            near = [dt for _, dt in dist[:MIN_SAMPLES]]
        out.append(latency * REF_UNIT_S[kind] / statistics.median(near))
    return out
