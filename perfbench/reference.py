"""A fixed reference computation that measures how fast the host runs now.

The benchmark's host shares its cores with other machines, and its speed
drifts by up to 1.5x over seconds to minutes.  The benchmark times this
kernel next to the work it measures and divides by it, which cancels most
of that drift: `iteration_rel` is an iteration's wall time in units of one
pass of this kernel, and `setup_s` is set-up time scaled to a host on which
a pass takes NOMINAL_S.

The kernel runs in two ways.  A whole pass (`timed`) runs between
iterations.  While ptobs runs, a `Sampler` also runs one slice of the kernel
(1/SLICES_PER_PASS of a pass) every SAMPLE_INTERVAL_S of wall time, from a
SIGALRM handler, so the host's speed is sampled all through a long command
and not only at its ends.  The caller subtracts the slices' time from the
command's.

The kernel mixes what ptobs spends its time on: small numpy products and
elementwise updates (as in an rk4 step on 3-vectors), interpreted Python
(float arithmetic, string formatting, dict stores, as in parsing and writing
traces) and Jacobi rotations on a 120x120 matrix through numpy row and
column gathers (as in a cyclic Jacobi eigenvalue sweep).  It never calls
ptobs, so no change to the program moves it.  Do not change it either: a
changed kernel changes every `iteration_rel` and `setup_s`.
"""

from __future__ import annotations

import signal
import time

import numpy as np

_A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -2.0, -3.0]])
_NUMPY_STEPS = 12_000
_PYTHON_STEPS = 150_000
_ROTATIONS = 8_000
_SYMMETRIC = np.random.default_rng(0).uniform(-1.0, 1.0, (120, 120))
_SYMMETRIC += _SYMMETRIC.T

SLICES_PER_PASS = 50
SAMPLE_INTERVAL_S = 0.1

# A pass's median wall time on the machine of baseline.json; setup_s is
# quoted at this speed.  Fixed, like the kernel itself.
NOMINAL_S = 0.5

# Values on any IEEE-754 double host; a mismatch means the kernel did other work.
_EXPECTED = (0.04007598415924717, 27386246.797696754, 7247.7659091955475)


def _numpy_part(steps: int) -> float:
    x = np.ones(3)
    h = 1e-3
    for _ in range(steps):
        k1 = _A @ x
        k2 = _A @ (x + 0.5 * h * k1)
        x = np.clip(x + 0.5 * h * (k1 + k2), -10.0, 10.0)
    return float(x[0])


def _python_part(steps: int) -> float:
    table: dict[int, str] = {}
    s = 0.0
    for i in range(steps):
        s += (i * 0.5) ** 0.5
        table[i & 255] = f"{s:.6g}"
    return s + len(table)


def _rotation_part(rotations: int) -> float:
    A = _SYMMETRIC.copy()
    n = A.shape[0]
    done = 0
    while True:
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) < 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta)) if theta else 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rot = np.array([[c, s], [-s, c]])
                A[[p, q], :] = rot.T @ A[[p, q], :]
                A[:, [p, q]] = A[:, [p, q]] @ rot
                A[p, q] = A[q, p] = 0.0
                done += 1
                if done == rotations:
                    return float(np.sum(np.diag(A) ** 2))


def timed() -> float:
    """Wall seconds of one pass of the kernel (0.4-0.8 s on the machine of baseline.json)."""
    start = time.perf_counter()
    values = (
        _numpy_part(_NUMPY_STEPS),
        _python_part(_PYTHON_STEPS),
        _rotation_part(_ROTATIONS),
    )
    seconds = time.perf_counter() - start
    if any(abs(v - e) > 1e-6 * abs(e) for v, e in zip(values, _EXPECTED)):
        raise RuntimeError(f"reference kernel computed {values}, expected {_EXPECTED}")
    return seconds


def _slice():
    _numpy_part(_NUMPY_STEPS // SLICES_PER_PASS)
    _python_part(_PYTHON_STEPS // SLICES_PER_PASS)
    _rotation_part(_ROTATIONS // SLICES_PER_PASS)


class Sampler:
    """Kernel slices run every SAMPLE_INTERVAL_S of wall time while on.

    `seconds` and `count` add up the slices run since the last `take()`.
    The first slice comes one interval after `start()`, and none runs after
    `stop()`, so every slice falls inside a span timed from just after
    `start()` to just after `stop()`.
    """

    def __init__(self):
        self.seconds = 0.0
        self.count = 0
        self._on = False
        self._busy = False
        signal.signal(signal.SIGALRM, self._run_slice)

    def _run_slice(self, signum, frame):
        if not self._on or self._busy:  # a late or nested signal runs nothing
            return
        self._busy = True
        start = time.perf_counter()
        _slice()
        self.seconds += time.perf_counter() - start
        self.count += 1
        self._busy = False

    def start(self):
        self._on = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        self._on = False
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def take(self) -> tuple[float, int]:
        """Seconds and number of slices since the last take(); resets both."""
        out = (self.seconds, self.count)
        self.seconds, self.count = 0.0, 0
        return out

    def close(self):
        self.stop()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
