"""Event-aligned fixed-step integration of the coupled leader/observer system.

Every stage-window boundary, topology switch and t_end lands exactly on a
step boundary (dt is shortened locally before each event), so no step
straddles a switch; a switch within the merge tolerance of another event
takes effect at that event.  One step plan, built before the loop as
whole-run arrays (O(steps) memory, about 17 bytes a step), holds the grid
points, the right-continuous topology at each and the record points; steps
and recorded diagnostics take their topology from it.  The loop steps one
stacked state in place in the observer kernel's work area, each block's
stage gains from one vector expression, and writes [x0; estimates] into one
preallocated snapshot array at record points, from which errors, psi, V and
the decay envelope follow.  Bit-identical to stepping leader_rhs, dpto_rhs.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, Diverged
from .gain import CascadeSchedule, stage_rates, varsigma_clamped
from .graph import GraphAnalysis, TopologySequence
from .observer import LeaderModel, ObserverGains, _stacked_kernel, _weighted_energy
from .observer import dpto_rhs, leader_rhs, local_errors  # noqa: F401  (public forms, wrapped by perfbench)

_EVENT_MERGE_TOL = 1e-12  # absolute part of the event-merge tolerance
_GAIN_BLOCK = 4096  # gain rows (steps x followers) one block computes; caps memory


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step integration settings.

    guard clamps the time-varying gain denominator and must cover at least
    one step (guard >= dt).  record_stride keeps every m-th accepted step;
    events are always recorded.
    """

    t0: float
    t_end: float
    dt: float
    method: str = "rk4"
    guard: float | None = None
    sign_smoothing: float | None = None
    record_stride: int = 10
    convergence_tolerance: float = 0.01
    divergence_threshold: float = 1e9

    def __post_init__(self):
        # Written as "not ..." so a NaN setting fails the check too.
        if not -np.inf < self.t0 < self.t_end < np.inf:
            raise DimensionMismatch(f"need finite t0 < t_end, got {self.t0}, {self.t_end}")
        if not 0.0 < self.dt < np.inf:
            raise DimensionMismatch(f"dt must be finite and positive, got {self.dt}")
        if self.method not in ("euler", "rk4"):
            raise DimensionMismatch(f"unknown method '{self.method}'")
        guard = 10.0 * self.dt if self.guard is None else float(self.guard)
        if not self.dt <= guard < np.inf:
            raise DimensionMismatch(
                f"guard ({guard:g}) must be finite and at least dt ({self.dt:g})"
            )
        object.__setattr__(self, "guard", guard)
        if self.sign_smoothing is not None and not 0.0 < self.sign_smoothing < np.inf:
            raise DimensionMismatch("sign smoothing must be finite and positive when given")
        if self.record_stride < 1:
            raise DimensionMismatch("record_stride must be a positive integer")
        if not 0.0 < self.convergence_tolerance < np.inf:
            raise DimensionMismatch("convergence tolerance must be finite and positive")
        if not self.divergence_threshold > 0.0:
            raise DimensionMismatch("divergence threshold must be positive (inf disables it)")


@dataclass(frozen=True)
class SimResult:
    """Recorded trajectory and diagnostics of one run.

    estimate_errors[s, i, k-1] is follower i's stage-k global error at
    times[s]; local_errors holds the matching psi vectors under the step
    plan's topology at that point (the one the next step runs under).
    decay_bound is the theoretical envelope of the currently active stage.
    convergence_times[k-1] is the earliest recorded time after which stage
    k's worst-follower error stays inside the tolerance band until t_end
    (None if that never happens).
    """

    times: np.ndarray
    leader_states: np.ndarray
    estimate_errors: np.ndarray
    local_errors: np.ndarray
    lyapunov: np.ndarray
    decay_bound: np.ndarray
    convergence_times: tuple[float | None, ...]
    event_log: tuple[tuple[float, str], ...]


def decay_budget(
    analysis: GraphAnalysis,
    gains: ObserverGains,
    sched: CascadeSchedule,
    stage_k: int,
    V_at_window_start: float,
    t: float,
    guard: float,
) -> float:
    """Theoretical Lyapunov envelope for stage k from its window start.

    varsigma(t)^-2 * exp(-c (t - window_start)) * V_at_window_start with
    c = 2 alpha lambda_min / max(weights), using the same guard-clamped
    scaling function as the dynamics.
    """
    w = sched.window(stage_k)
    c = 2.0 * gains.alpha * analysis.lambda_min / analysis.max_weight
    vs = varsigma_clamped(w, t, guard)
    return vs ** (-2.0) * np.exp(-c * (t - w.start)) * V_at_window_start


def detect_convergence(
    times: np.ndarray, estimate_errors: np.ndarray, tol: float
) -> list[float | None]:
    """Earliest recorded time per stage after which the error band holds to the end.

    For stage k that is the first tau with max_i |error[s, i, k-1]| <= tol for
    every recorded s in [tau, t_end]; None if even the final sample violates.
    """
    if tol <= 0.0:
        raise DimensionMismatch("tolerance must be positive")
    n = estimate_errors.shape[2]
    worst = np.max(np.abs(estimate_errors), axis=1)  # (S, n)
    out: list[float | None] = []
    for k in range(n):
        bad = np.flatnonzero(worst[:, k] > tol)
        if bad.size == 0:
            out.append(float(times[0]))
        elif bad[-1] == len(times) - 1:
            out.append(None)
        else:
            out.append(float(times[bad[-1] + 1]))
    return out


def _event_grid(cfg: SimConfig, sched: CascadeSchedule, topos: TopologySequence):
    # Sorted events in [t0, t_end] and the 0-based topology active from each.
    # A candidate within max(1e-12, 4 ulp(t)) of an accepted event is dropped
    # (past |t| ~ 2e3 one ulp of t exceeds 1e-12): boundaries go first so their
    # exact floats win, and a dropped switch takes effect at the nearest event
    # (the earlier on a tie).  Only the insertion point's neighbours can clash.
    events: list[float] = []

    def accept(t: float) -> float | None:  # the event t becomes or merges into
        if not cfg.t0 <= t <= cfg.t_end:
            return None
        i = bisect.bisect_left(events, t)
        tol = max(_EVENT_MERGE_TOL, 4.0 * math.ulp(t))
        near = [e for e in events[max(i - 1, 0) : i + 1] if abs(t - e) <= tol]
        if near:
            return min(near, key=lambda e: abs(t - e))
        events.insert(i, t)
        return t

    for t in (*sched.boundaries(), cfg.t0, cfg.t_end):
        accept(t)
    switched = {accept(t): j - 1 for t, j in topos.schedule}  # later switches win
    active = [topos.schedule[0][1] - 1]
    for e in events:
        active.append(switched.get(e, active[-1]))
    return events, active[1:]


def _segment_steps(e1: float, e2: float, dt: float) -> int:
    span = e2 - e1
    m = int(round(span / dt))
    if m >= 1 and abs(e1 + m * dt - e2) <= 1e-9 * dt:
        return m
    return int(np.floor(span / dt)) + 1


def _step_plan(cfg: SimConfig, sched: CascadeSchedule, topos: TopologySequence):
    """Grid points, the 0-based topology at each, and which are recorded.

    Step P runs grid[P] -> grid[P + 1] under topo[P]; segment s's points are
    events[s] + j * dt, j < _segment_steps.  Events and every record_stride-th
    point are recorded, unless their time is the one recorded just before."""
    events, active = _event_grid(cfg, sched, topos)
    try:
        steps = [_segment_steps(e1, e2, cfg.dt) for e1, e2 in zip(events[:-1], events[1:])]
        seg = np.repeat(np.arange(len(events)), [*steps, 1])  # the last event starts no step
    except OverflowError:  # a step count numpy cannot index
        raise DimensionMismatch(
            f"dt = {cfg.dt:g} needs about {(cfg.t_end - cfg.t0) / cfg.dt:.3g} steps, "
            f"too many for a step plan"
        ) from None
    P = np.arange(seg.size)
    offset = P - np.cumsum([0, *steps])[seg]
    grid = np.array(events)[seg] + offset * cfg.dt
    rec = (P % cfg.record_stride == 0) | (offset == 0)
    rec[rec] = np.diff(grid[rec], prepend=np.nan) != 0  # not a repeat of the time before
    return grid, np.array(active)[seg], rec


def run(
    topos: TopologySequence,
    leader: LeaderModel,
    gains: ObserverGains,
    sched: CascadeSchedule,
    initial_estimates: np.ndarray,
    cfg: SimConfig,
) -> SimResult:
    """Integrate the coupled leader and observer over [t0, t_end].

    Raises Diverged when any state magnitude exceeds the divergence threshold
    or turns non-finite, and propagates InputBoundViolated from the leader.
    The time Diverged reports is the step's start when a stage derivative was
    non-finite, else the step's end.
    Under switching (p > 1) the sequence must carry common_H so the Lyapunov
    weights are well defined across switches.
    """
    n = leader.order
    if sched.order != n:
        raise DimensionMismatch(f"schedule order {sched.order} does not match leader order {n}")
    if sched.t0 != cfg.t0 or topos.schedule[0][0] != cfg.t0:
        raise DimensionMismatch("cascade schedule and switching schedule must start at the sim t0")
    if topos.topology_count > 1 and topos.common_H is None:
        raise DimensionMismatch("switching over several topologies requires common_H weights")
    N = topos.topologies[0].follower_count
    E = np.array(initial_estimates, dtype=float)
    if E.shape != (N, n):
        raise DimensionMismatch(f"initial estimates must be ({N}, {n}), got {E.shape}")
    if not np.all(np.isfinite(E)):
        raise DimensionMismatch("initial estimates must be finite")

    analyses = topos.analyses()
    worst = min(analyses, key=lambda a: a.lambda_min)  # envelope uses the worst topology
    stage_starts = {k: sched.stage_start(k) for k in range(1, n + 1)}
    event_log = [
        (t, f"stage {k} window {what}")
        for k in range(1, n + 1)
        for t, what in ((stage_starts[k], "opens"), (sched.window(k).end, "closes"))
        if cfg.t0 <= t <= cfg.t_end
    ]
    event_log += [(t, f"switch to topology {j}") for t, j in topos.schedule[1:] if t <= cfg.t_end]
    event_log.sort(key=lambda item: item[0])  # stable: stage entries first at a shared time

    grid, topo, rec = _step_plan(cfg, sched, topos)
    L0s = [a.sub_laplacian for a in analyses]

    def gain_rows(times: np.ndarray) -> np.ndarray:
        # An (N, n) gain matrix per time makes the kernel's g * psi same-shape.
        g = gains.alpha + gains.beta * stage_rates(sched, times, cfg.guard)
        return np.repeat(g[:, None], N, axis=1)

    # rk4 evaluates k1..k4 into K[0], K[4], K[5], K[3] and writes 2 k2, 2 k3
    # into K[1], K[2], so one reduce over K[:4] sums ((k1 + 2 k2) + 2 k3) + k4.
    rk4 = cfg.method == "rk4"
    stage_rows = (0, 4, 5, 3) if rk4 else (0,)
    X, K, rhs = _stacked_kernel(N, n, gains.sigma, cfg.sign_smoothing, leader, stage_rows)
    Z, K0 = X[0], K[0]  # the state, N leader copies over the estimates; stage 1 reads it in place
    Z[:N], Z[N:] = leader.initial_state, E
    if rk4:
        X1, X2, X3 = X[1:]
        K1, K2, K_weighted, K_doubled, K_mid = K[4], K[5], K[:4], K[1:3], K[4:]
    T, A = np.empty_like(Z), np.empty_like(Z)  # step increment; |Z|
    # 0-d arrays: a ufunc converts a Python float argument on every call.
    half, full, sixth, two = np.empty(()), np.empty(()), np.empty(()), np.array(2.0)
    snaps = np.empty((np.count_nonzero(rec), N + 1, n))  # [x0; estimates] per recorded point
    snaps[0] = Z[N - 1 :]
    rows = iter(snaps[1:])  # the rows the loop fills, in order
    block = max(1, _GAIN_BLOCK // N)  # steps whose gain rows are computed at once
    for P0 in range(0, grid.size - 1, block):
        P = slice(P0, min(P0 + block, grid.size - 1) + 1)  # the block's steps and end point
        g_at = gain_rows(grid[P])
        if rk4:
            g_mid = gain_rows(grid[P][:-1] + 0.5 * np.diff(grid[P]))
        ts, keep = grid[P].tolist(), rec[P].tolist()
        for i, (t, tn, L0) in enumerate(zip(ts, ts[1:], [L0s[j] for j in topo[P].tolist()])):
            h = tn - t
            half[()], full[()], sixth[()] = 0.5 * h, h, h / 6.0
            rhs(L0, g_at[i], 0, t)
            if rk4:  # stage inputs Z + (h/2) k1, Z + (h/2) k2, Z + h k3
                np.multiply(K0, half, out=X1)
                np.add(Z, X1, out=X1)
                gm, tm = g_mid[i], t + 0.5 * h
                rhs(L0, gm, 1, tm)
                np.multiply(K1, half, out=X2)
                np.add(Z, X2, out=X2)
                rhs(L0, gm, 2, tm)
                np.multiply(K2, full, out=X3)
                np.add(Z, X3, out=X3)
                rhs(L0, g_at[i + 1], 3, tn)
                np.multiply(K_mid, two, out=K_doubled)
                np.add.reduce(K_weighted, axis=0, out=T)
                np.multiply(T, sixth, out=T)
            else:
                np.multiply(K0, full, out=T)
            np.add(Z, T, out=Z)
            # One check per step: a non-finite stage derivative shows up in Z.
            peak = np.maximum.reduce(np.abs(Z, out=A), axis=None)
            if not (math.isfinite(peak) and peak <= cfg.divergence_threshold):
                raise Diverged(tn if np.isfinite(K[stage_rows, N:]).all() else t)
            if keep[i + 1]:
                next(rows)[...] = Z[N - 1 :]

    # Diagnostics from the snapshots, under the plan's topology at each recorded point.
    times, active = grid[rec], topo[rec]
    errors = snaps[:, 1:] - snaps[:, :1]
    psi = np.empty_like(errors)
    for j, analysis in enumerate(analyses):
        psi[active == j] = np.matmul(analysis.sub_laplacian, errors[active == j])
    V = _weighted_energy(np.array([a.rho for a in analyses])[active], psi)
    # Each stage's envelope starts from V at the sample exactly at its window start.
    rec_t = times.tolist()
    baselines = {k: float(V[rec_t.index(t), k - 1]) for k, t in stage_starts.items() if t in rec_t}
    budget = np.full(times.shape, np.inf)
    for s, t in enumerate(rec_t):
        # stage 1 opens last, so the first opened window in 1..n is the active one
        k = next((k for k in range(1, n + 1) if stage_starts[k] <= t), n)
        if k in baselines:
            budget[s] = decay_budget(worst, gains, sched, k, baselines[k], t, cfg.guard)

    return SimResult(
        times=times,
        leader_states=snaps[:, 0],
        estimate_errors=errors,
        local_errors=psi,
        lyapunov=V,
        decay_bound=budget,
        convergence_times=tuple(detect_convergence(times, errors, cfg.convergence_tolerance)),
        event_log=tuple(event_log),
    )
