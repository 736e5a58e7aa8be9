"""A fixed kernel that measures how fast the machine runs right now.

On a shared host the same round of operations can take anywhere from 3.2 s
to 6.7 s, because the speed of the CPU follows the load of the host. The
kernel below does the same kind of work as the solver (a small QZ, a
condition number, a solve, a least-squares step, block assembly and short
vector arithmetic in Python), always on the same data. run.py times it
between operations and, from a timer signal, every half second during them,
and scales each operation's latency by NOMINAL_S over the mean kernel time of
the readings within a second of the operation, which reports times at a
fixed nominal speed.

The linear-algebra functions are bound here at import, before any tracing,
so the kernel never shows up in the traced run's spans. Changing the kernel
or NOMINAL_S changes every reported time.
"""

import signal
import time

import numpy as np
from numpy.linalg import cond as _cond
from numpy.linalg import lstsq as _lstsq
from numpy.linalg import solve as _solve
from scipy.linalg import eigvals as _eigvals

# median time of one kernel() call on a 2-core Intel Xeon (2.1 GHz nominal)
NOMINAL_S = 0.0113

_rng = np.random.default_rng(np.random.SeedSequence(20261018))
_A = _rng.uniform(size=(8, 6))
_D = np.diag(_rng.uniform(0.5, 1.5, size=14))
_J = _rng.standard_normal((30, 29))
_F = _rng.standard_normal(30)
_Z = _rng.standard_normal(14)


def kernel():
    """Run the fixed kernel once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    for _ in range(18):
        h = np.block([[np.zeros((6, 6)), _A.T], [_A, np.zeros((8, 8))]])
        _eigvals(h, _D, homogeneous_eigvals=True)
        m = h - 0.3 * _D
        _cond(m)
        w = _solve(m, _D @ _Z)
        _lstsq(_J, _F, rcond=None)
        x = w / np.linalg.norm(w)
        for _ in range(40):
            x = np.concatenate([x[:6] * 0.5, x[6:] + x[:8] * 0.25])
    return time.perf_counter() - t0


class Sampler:
    """Kernel readings over time, and a timer that adds one every `period`
    seconds while the sampler is active (entered as a context manager).

    Python runs the SIGALRM handler between bytecodes of the main thread, so
    the kernel never interrupts a LAPACK call. `readings` holds (time,
    kernel seconds) pairs, `spent` the seconds the handler took, which the
    caller subtracts from the operation it interrupted. A tick that arrives
    while the kernel runs, from `read()` or from an earlier tick, is skipped,
    so that no reading holds another.
    """

    def __init__(self, period=0.5):
        self.period = period
        self.readings = []
        self.spent = 0.0
        self._busy = False

    def _tick(self, _signum, _frame):
        if self._busy:
            return
        t0 = time.perf_counter()
        self.read()
        self.spent += time.perf_counter() - t0

    def read(self):
        """Run the kernel once and keep the reading."""
        self._busy = True
        try:
            t = time.perf_counter()
            self.readings.append((t, kernel()))
        finally:
            self._busy = False

    def speed(self, start, end, margin=1.0):
        """Mean kernel time over NOMINAL_S, from the readings taken between
        `margin` seconds before `start` and `margin` seconds after `end`."""
        near = [r for t, r in self.readings if start - margin <= t <= end + margin]
        return sum(near) / (len(near) * NOMINAL_S)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
