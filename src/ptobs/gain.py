"""Time-varying gain scaling and the cascade stage schedule.

The scaling function over a window starting at t0 with duration T is

    varsigma(t) = (T / (t0 + T - t))^h   on [t0, t0 + T),
    varsigma(t) = 1                      otherwise,

with exponent h > 2.  Its rate ratio varsigma'/varsigma equals
h / (t0 + T - t) on the window and 0 outside, and is what the observer adds
on top of its constant gain.  The ratio is computed from that closed form
directly, never as a quotient of the two factors, so neither can overflow
first.  The denominator is clamped from below by a configurable guard, since
the theoretical gain diverges at the window end.

A cascade schedule assigns stage k (which estimates the k-th leader state) the
window [t_{n-k}, t_{n-k} + T_k) with t_{n-k} = t0 + sum of the durations of
stages k+1..n: the top stage n runs first, stage 1 finishes last at
t* = t0 + sum of all stage durations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class ScalingWindow:
    """One time-varying-gain window: [start, start + duration), exponent h > 2."""

    start: float
    duration: float
    exponent: float

    def __post_init__(self):
        # Written as "not ..." so a NaN setting fails the check too.
        if not 0.0 < self.duration < np.inf:
            raise DimensionMismatch(
                f"window duration must be finite and positive, got {self.duration}"
            )
        if not 2.0 < self.exponent < np.inf:
            raise DimensionMismatch(f"exponent must be finite and exceed 2, got {self.exponent}")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class CascadeSchedule:
    """Per-stage prescribed windows for an order-n cascade.

    stage_durations[k-1] is the window length of stage k; stage n opens at t0
    and stage 1 closes at t_star.  t0 must be finite; each stage's window
    checks its own duration and the exponent.
    """

    t0: float
    stage_durations: tuple[float, ...]
    exponent: float

    def __post_init__(self):
        durations = tuple(float(d) for d in self.stage_durations)
        if not durations:
            raise DimensionMismatch("at least one stage duration is required")
        if not -np.inf < self.t0 < np.inf:
            raise DimensionMismatch(f"t0 must be finite, got {self.t0}")
        object.__setattr__(self, "stage_durations", durations)
        # Starts accumulated once, in wall-clock order (stage n first), so a
        # window's end (start + duration) and the next window's start are one float.
        n = len(durations)
        starts = [float(self.t0)]
        for k in range(n, 1, -1):
            starts.append(starts[-1] + durations[k - 1])
        windows = tuple(
            ScalingWindow(start=starts[n - k], duration=durations[k - 1], exponent=self.exponent)
            for k in range(1, n + 1)
        )
        object.__setattr__(self, "_windows", windows)

    @property
    def order(self) -> int:
        return len(self.stage_durations)

    @property
    def t_star(self) -> float:
        """Instant by which every stage has closed its window."""
        return self._windows[0].end

    def window(self, stage_k: int) -> ScalingWindow:
        if not 1 <= stage_k <= self.order:
            raise DimensionMismatch(f"stage {stage_k} out of range [1, {self.order}]")
        return self._windows[stage_k - 1]

    def boundaries(self) -> list[float]:
        """All window boundaries t0 < ... < t_star, ascending."""
        return [w.start for w in reversed(self._windows)] + [self.t_star]


def varsigma(w: ScalingWindow, t: float | np.ndarray, guard: float = 0.0) -> float | np.ndarray:
    """Scaling function at t: (T / max(start+T-t, guard))^h on the window, else 1
    (guard 0 leaves it unclamped); t is a scalar or an array, and the result has
    its shape.  The power is libm's pow per in-window sample (numpy's SIMD pow
    differs in the last bit), inf where it overflows."""
    if not guard >= 0.0:
        raise DimensionMismatch(f"guard must be non-negative, got {guard}")

    def power(base: float) -> float:
        try:
            return base ** w.exponent
        except OverflowError:
            return math.inf

    t = np.asarray(t, dtype=float)
    inside = (w.start <= t) & (t < w.end)
    base = w.duration / np.maximum(w.end - t[inside], guard)
    v = np.ones(t.shape)
    v[inside] = [power(b) for b in base.tolist()]
    return v[()]


def rate_ratio(w: ScalingWindow, t: float | np.ndarray, guard: float) -> float | np.ndarray:
    """varsigma'/varsigma at t: h / max(start+T-t, guard) on the window, else 0;
    t is a scalar or an array, and the result has its shape."""
    if not guard > 0.0:
        raise DimensionMismatch(f"guard must be positive, got {guard}")
    t = np.asarray(t, dtype=float)
    inside = (w.start <= t) & (t < w.end)
    return np.where(inside, w.exponent / np.maximum(w.end - t, guard), 0.0)[()]


def stage_gain(sched: CascadeSchedule, stage_k: int, t: float | np.ndarray, guard: float) -> float | np.ndarray:
    """Rate ratio of stage k's window at t, a scalar or an array (the observer scales it by beta)."""
    return rate_ratio(sched.window(stage_k), t, guard)
