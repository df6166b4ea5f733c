"""Event-aligned fixed-step integration of the coupled leader/observer system.

Every stage-window boundary, topology switch time and t_end lands exactly on
a step boundary: dt is shortened locally before each event, so no step
straddles a switch, and a step uses the topology active at its start
(switching is right-continuous).  One step plan per run numbers the grid
points; the loop steps one stacked state in place in the observer kernel's
work area, allocated once per run, with each block's stage gains from one
vector expression and every per-step operation written through out=.  It
checks divergence once per step and copies [x0; estimates] only at record
points.  Errors, psi, V and the decay envelope come from those snapshots
after the loop.  Bit-identical to stepping leader_rhs and dpto_rhs.
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
    times[s]; local_errors holds the matching psi vectors under the topology
    active at the sample instant.  decay_bound is the theoretical envelope of
    the currently active stage.  convergence_times[k-1] is the earliest
    recorded time after which stage k's worst-follower error stays inside the
    tolerance band until t_end (None if that never happens).
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


def _event_grid(cfg: SimConfig, sched: CascadeSchedule, topos: TopologySequence) -> list[float]:
    # A candidate within max(1e-12, 4 ulp(t)) of an accepted event is dropped
    # (past |t| ~ 2e3 one ulp of t exceeds 1e-12); stage boundaries go first
    # so their exact floats win over near-duplicates.  Accepted events stay
    # sorted: only the insertion point's neighbours can clash.
    events: list[float] = []
    for t in (*sched.boundaries(), cfg.t0, cfg.t_end, *(s for s, _ in topos.schedule)):
        i = bisect.bisect_left(events, t)
        tol = max(_EVENT_MERGE_TOL, 4.0 * math.ulp(t))
        if cfg.t0 <= t <= cfg.t_end and all(
            abs(t - e) > tol for e in events[max(i - 1, 0) : i + 1]
        ):
            events.insert(i, t)
    return events


def _segment_steps(e1: float, e2: float, dt: float) -> int:
    span = e2 - e1
    m = int(round(span / dt))
    if m >= 1 and abs(e1 + m * dt - e2) <= 1e-9 * dt:
        return m
    return int(np.floor(span / dt)) + 1


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
        raise DimensionMismatch(
            f"schedule order {sched.order} does not match leader order {n}"
        )
    if sched.t0 != cfg.t0 or topos.schedule[0][0] != cfg.t0:
        raise DimensionMismatch(
            "cascade schedule and switching schedule must start at the sim t0"
        )
    if topos.topology_count > 1 and topos.common_H is None:
        raise DimensionMismatch(
            "switching over several topologies requires common_H weights"
        )
    N = topos.topologies[0].follower_count
    E = np.array(initial_estimates, dtype=float)
    if E.shape != (N, n):
        raise DimensionMismatch(f"initial estimates must be ({N}, {n}), got {E.shape}")
    if not np.all(np.isfinite(E)):
        raise DimensionMismatch("initial estimates must be finite")

    analyses = topos.analyses()
    worst = min(analyses, key=lambda a: a.lambda_min)  # envelope uses the worst topology
    stage_starts = {k: sched.stage_start(k) for k in range(1, n + 1)}
    stage_ends = {k: sched.window(k).end for k in range(1, n + 1)}

    event_log: list[tuple[float, str]] = []
    for k in range(1, n + 1):
        if cfg.t0 <= stage_starts[k] <= cfg.t_end:
            event_log.append((stage_starts[k], f"stage {k} window opens"))
        if cfg.t0 <= stage_ends[k] <= cfg.t_end:
            event_log.append((stage_ends[k], f"stage {k} window closes"))
    for t, j in topos.schedule:
        if cfg.t0 < t <= cfg.t_end:
            event_log.append((t, f"switch to topology {j}"))
    event_log.sort(key=lambda item: item[0])

    # Step plan: segment s runs events[s] -> events[s + 1] in steps[s] steps;
    # its grid points are events[s] + j * dt for j < steps[s], and its last
    # point is the next segment's first.  first[s] numbers segment s's first
    # point in the run; the run's last point, first[-1], starts no step.
    events = _event_grid(cfg, sched, topos)
    steps = [_segment_steps(e1, e2, cfg.dt) for e1, e2 in zip(events[:-1], events[1:])]
    first = np.cumsum([0, *steps])
    origin = np.array(events)
    seg_L0 = [analyses[topos.active_index(e1) - 1].sub_laplacian for e1 in events[:-1]]

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
        K1, K2, K3 = K[4], K[5], K[3]
        K_weighted, K_doubled, K_mid = K[:4], K[1:3], K[4:]
    T, A = np.empty_like(Z), np.empty_like(Z)  # step increment; |Z|
    # 0-d arrays: a ufunc converts a Python float argument on every call.
    half, full, sixth, two = np.empty(()), np.empty(()), np.empty(()), np.array(2.0)
    rec_t, rec_Z = [cfg.t0], [Z[N - 1 :].copy()]  # snapshots are [x0; estimates]
    block = max(1, _GAIN_BLOCK // N)
    for P0 in range(0, first[-1], block):
        P = np.arange(P0, min(P0 + block, first[-1]) + 1)
        seg = np.searchsorted(first, P, side="right") - 1
        offset = P - first[seg]
        grid = origin[seg] + offset * cfg.dt  # step P runs grid[P] -> grid[P + 1]
        g_at = gain_rows(grid)
        if rk4:
            g_mid = gain_rows(grid[:-1] + 0.5 * np.diff(grid))
        # L0 switches at segment starts; segment ends and every stride-th point record.
        opens = np.where(offset == 0, seg, -1).tolist()
        keep = ((P % cfg.record_stride == 0) | (offset == 0)).tolist()
        ts = grid.tolist()
        for i, (t, tn) in enumerate(zip(ts, ts[1:])):
            if opens[i] >= 0:
                L0 = seg_L0[opens[i]]
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
            if keep[i + 1] and rec_t[-1] != tn:
                rec_t.append(tn)
                rec_Z.append(Z[N - 1 :].copy())

    # Diagnostics from the stacked snapshots, under each sample's active topology.
    times = np.array(rec_t)
    snaps = np.array(rec_Z)
    errors = snaps[:, 1:] - snaps[:, :1]
    active = np.array([topos.active_index(t) - 1 for t in rec_t])
    psi = np.empty_like(errors)
    for j, analysis in enumerate(analyses):
        psi[active == j] = np.matmul(analysis.sub_laplacian, errors[active == j])
    V = _weighted_energy(np.array([a.rho for a in analyses])[active], psi)
    # Each stage's envelope starts from V at the sample exactly at its window start.
    baselines = {
        k: float(V[rec_t.index(start), k - 1])
        for k, start in stage_starts.items()
        if start in rec_t
    }
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
        convergence_times=tuple(
            detect_convergence(times, errors, cfg.convergence_tolerance)
        ),
        event_log=tuple(event_log),
    )
