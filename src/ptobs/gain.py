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
        # Boundaries accumulated once, in wall-clock order (stage n first), so
        # a window's end and the next window's start are the same float.
        bounds = [float(self.t0)]
        for k in range(len(durations), 0, -1):
            bounds.append(bounds[-1] + durations[k - 1])
        object.__setattr__(self, "_bounds", tuple(bounds))
        n = len(durations)
        windows = tuple(
            ScalingWindow(start=bounds[n - k], duration=durations[k - 1], exponent=self.exponent)
            for k in range(1, n + 1)
        )
        object.__setattr__(self, "_windows", windows)

    @property
    def order(self) -> int:
        return len(self.stage_durations)

    @property
    def t_star(self) -> float:
        """Instant by which every stage has closed its window."""
        return self._bounds[-1]

    def stage_start(self, stage_k: int) -> float:
        """Window start t_{n-k} of stage k: later stages open earlier."""
        self._check_stage(stage_k)
        return self._bounds[self.order - stage_k]

    def window(self, stage_k: int) -> ScalingWindow:
        self._check_stage(stage_k)
        return self._windows[stage_k - 1]

    def boundaries(self) -> list[float]:
        """All window boundaries t0 < ... < t_star, ascending."""
        return list(self._bounds)

    def _check_stage(self, stage_k: int):
        if not 1 <= stage_k <= self.order:
            raise DimensionMismatch(f"stage {stage_k} out of range [1, {self.order}]")


def varsigma(w: ScalingWindow, t: float) -> float:
    """Scaling function value at t: (T/(start+T-t))^h on the window, else 1."""
    if w.start <= t < w.end:
        return (w.duration / (w.end - t)) ** w.exponent
    return 1.0


def varsigma_clamped(w: ScalingWindow, t: float, guard: float) -> float:
    """Scaling function with the denominator clamped at guard, as the dynamics use."""
    if w.start <= t < w.end:
        return (w.duration / max(w.end - t, guard)) ** w.exponent
    return 1.0


def rate_ratio(w: ScalingWindow, t: float, guard: float) -> float:
    """varsigma'/varsigma at t: h / max(start+T-t, guard) on the window, else 0."""
    if guard <= 0.0:
        raise DimensionMismatch(f"guard must be positive, got {guard}")
    if w.start <= t < w.end:
        return w.exponent / max(w.end - t, guard)
    return 0.0


def stage_gain(sched: CascadeSchedule, stage_k: int, t: float, guard: float) -> float:
    """Rate ratio of stage k's window at time t (the observer scales it by beta)."""
    return rate_ratio(sched.window(stage_k), t, guard)


def stage_rates(sched: CascadeSchedule, times: np.ndarray, guard: float) -> np.ndarray:
    """Rate ratios of all stages at each time, shape (len(times), n): entry
    [i, k-1] is the same float as stage_gain(sched, k, times[i], guard)."""
    if guard <= 0.0:
        raise DimensionMismatch(f"guard must be positive, got {guard}")
    t = np.asarray(times, dtype=float)[:, None]
    start, end, exponent = np.array([(w.start, w.end, w.exponent) for w in sched._windows]).T
    inside = (start <= t) & (t < end)
    return np.where(inside, exponent / np.maximum(end - t, guard), 0.0)
