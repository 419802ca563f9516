"""Host-speed reference loop and the clock that rescales timings by it.

The host this benchmark was built on changes speed by up to 1.8x within
seconds, in spells that last from a second to minutes, with CPU time equal
to wall time; raw seconds of one run say as much about the host as about
the program.  A fixed loop of Python and numpy work, owned by the
benchmark and never changed by the program, samples the host's speed:
once right before and right after every timed operation, and every
SAMPLE_PERIOD_S during it from a SIGALRM handler, which runs between
bytecodes of the main thread.  An operation's seconds, less the sampling
time, are rescaled to the loop's nominal speed:

    rescaled = raw * REF_NOMINAL_S / mean(loop seconds sampled over the operation)

A program change cannot move the reference loop, so it moves only `raw`.
"""
import signal
import statistics
import time

import numpy as np

# One reference pass took 7-11 ms on the machine the bounds were set on
# (2-core x86_64, Python 3.11, numpy 2.4, OpenBLAS pinned to one thread).
# Rescaled times are seconds at a pass of REF_NOMINAL_S.
REF_NOMINAL_S = 0.0100
SAMPLE_PERIOD_S = 0.25
EDGE_PASSES = 3

_X = np.linspace(0.0, 1.0, 4096)
_M = np.cos(np.outer(np.arange(48.0), np.arange(48.0)) * 0.37)
_A = np.cos(np.outer(np.arange(320.0), np.arange(120.0)) * 0.013) + np.eye(320, 120)
_B = np.sin(np.arange(320.0))


def _reference_once():
    """One pass of the mix the program spends its time on.

    Interpreted loops over dicts and tuples (pairing, marching), many small
    numpy calls (per-cell geometry), vectorized transcendental and matrix
    work on a few thousand atoms (forms, quadrature, distances), and a dense
    least-squares solve (boundary data, density solves).  Interpreted code
    and LAPACK slow down by different factors when the host does; the mix
    keeps the rescaled time of every workload within a few percent.
    """
    acc = 0.0
    table = {}
    for i in range(1800):
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += abs(key[0] - key[1]) * 1e-3
    for i in range(360):
        p = _X[i:i + 3]
        acc += float(np.linalg.norm(p - np.round(p)))
    for i in range(36):
        y = np.cos(2.0 * np.pi * (i + 1) * _X) * np.exp(-_X)
        acc += float(y @ _X)
        acc += float(np.linalg.det(_M[:8, :8] + i))
    acc += float((_M @ _M).trace())
    acc += float(np.linalg.lstsq(_A, _B, rcond=None)[0][0])
    return acc + len(table)


class RescaledClock:
    """Times operations and samples the host's speed around and during them.

    `lap()` closes the current operation and starts the next one.
    `restart()` starts the next operation after untimed work.  `now()` is
    perf_counter less the time spent sampling, so sampling is never
    counted as program time.  Use as a context manager: the timer runs
    between enter and exit.
    """

    def __init__(self):
        self.samples = []
        self._sampling = False
        self._sampling_s = 0.0
        self._first = 0
        self._t0 = 0.0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self.restart()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_timer(self, signum, frame):
        if not self._sampling:     # a tick inside an edge sample is dropped
            self._sample(1)

    def _sample(self, passes):
        self._sampling = True
        t0 = time.perf_counter()
        for _ in range(passes):
            _reference_once()
        dt = time.perf_counter() - t0
        self._sampling = False
        self.samples.append(dt / passes)
        self._sampling_s += dt

    def now(self):
        return time.perf_counter() - self._sampling_s

    def probe(self, passes):
        """Sample now, with `passes` passes; for work timed outside a lap."""
        self._sample(passes)
        return REF_NOMINAL_S / self.samples[-1]

    def speed_factor(self, first=0):
        """REF_NOMINAL_S over the mean sampled pass time since samples[first]."""
        return REF_NOMINAL_S / statistics.fmean(self.samples[first:])

    def lap(self):
        """(raw, rescaled) seconds of the operation that just finished."""
        raw = self.now() - self._t0
        self._sample(EDGE_PASSES)
        factor = self.speed_factor(self._first)
        self._first = len(self.samples) - 1   # also the next one's first sample
        self._t0 = self.now()
        return raw, raw * factor

    def restart(self):
        self._sample(EDGE_PASSES)
        self._first = len(self.samples) - 1
        self._t0 = self.now()
