"""Event-aligned fixed-step integration of the coupled leader/observer system.

Every stage-window boundary, topology switch and t_end lands exactly on a
step boundary (dt is shortened locally before each event), so no step
straddles a switch; a switch within the merge tolerance of another event
takes effect at that event.  One step plan, built before the loop as
whole-run arrays (O(steps) memory, about 17 bytes a step) from the switching
signal's arrays, holds the grid points, the right-continuous topology at each
and the record points; steps and recorded diagnostics take their topology
from it.  The loop steps one stacked state in place through the observer
kernel's stage functions (7 numpy calls each), with each block's extended
gain rows from one vector expression, and writes [x0; estimates] into one
snapshot array at record points, from which errors, psi and V follow as
arrays; one decay_budget call gives the envelope at every sample.  A numpy
call on these small arrays costs its dispatch, so every call passes out
positionally, rk4 sums its stages with three adds, and each step's
divergence check is one bound BLAS dot, Zf.dot(Zf), against threshold
squared; the exact max |Z| test runs only when that fails, so both stop a
run at the same step.  Bit-identical to stepping leader_rhs and dpto_rhs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, Diverged
from .gain import CascadeSchedule, stage_rates
from .graph import GraphAnalysis, TopologySequence
from .observer import LeaderModel, ObserverGains, _gain_row, _stacked_kernel, _weighted_energy
from .observer import dpto_rhs, leader_rhs, local_errors  # noqa: F401  (public forms, wrapped by perfbench)

_EVENT_MERGE_TOL = 1e-12  # absolute part of the event-merge tolerance
_GAIN_BLOCK = 4096  # gain rows (steps x followers) one block computes; caps memory


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step integration settings.

    dt must exceed 2 ulp(t), twice the float spacing at the larger of |t0|
    and |t_end|, so no step rounds to zero length.  guard clamps the time-varying gain denominator
    and must cover at least one step (guard >= dt).  record_stride keeps
    every m-th accepted step; events are always recorded.
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
        spacing = 2.0 * math.ulp(max(abs(self.t0), abs(self.t_end)))
        if not spacing < self.dt < np.inf:
            raise DimensionMismatch(
                f"dt must be finite and above 2 ulp(t) = {spacing:.3g}, got {self.dt:g}"
            )
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


@dataclass(frozen=True, eq=False)
class TraceData:
    """The recorded samples of one run: what a trace CSV holds.

    estimate_errors[s, i, k-1] is follower i's stage-k global error at
    times[s]; local_errors holds the matching psi vectors under the step
    plan's topology at that point (the one the next step runs under).
    decay_bound is the theoretical envelope of the currently active stage.
    """

    times: np.ndarray            # (S,)
    leader_states: np.ndarray    # (S, n)
    estimate_errors: np.ndarray  # (S, N, n)
    local_errors: np.ndarray     # (S, N, n)
    lyapunov: np.ndarray         # (S, n)
    decay_bound: np.ndarray      # (S,)

    @property
    def follower_count(self) -> int:
        return self.estimate_errors.shape[1]

    @property
    def order(self) -> int:
        return self.estimate_errors.shape[2]


@dataclass(frozen=True, eq=False)
class SimResult(TraceData):
    """Recorded trajectory and diagnostics of one run.

    convergence_times[k-1] is the earliest recorded time after which stage
    k's worst-follower error stays inside the tolerance band until t_end
    (None if that never happens).
    """

    convergence_times: tuple[float | None, ...]
    event_log: tuple[tuple[float, str], ...]


def decay_budget(
    analysis: GraphAnalysis,
    gains: ObserverGains,
    sched: CascadeSchedule,
    stage_k: int | np.ndarray,
    V_at_window_start: float | np.ndarray,
    t: float | np.ndarray,
    guard: float,
) -> float | np.ndarray:
    """Theoretical Lyapunov envelope for stage k from its window start:
    varsigma(t)^-2 exp(-c (t - window_start)) V_at_window_start, where
    c = 2 alpha lambda_min / max(weights) and varsigma is clamped at guard as
    in the dynamics.  Scalars, or arrays of one shape, in and out.  The two
    powers are libm's, per sample (numpy's SIMD pow differs in the last bit),
    saturating to 0 where varsigma overflows and to inf where it underflows
    to 0; a zero V_at_window_start gives 0.
    """
    def inverse_square_power(base: float, h: float) -> float:
        # (base ** h) ** -2.0 as libm's pow rounds it; where Python raises, the
        # result lies past the doubles: below them if base > 1, else above.
        try:
            return (base ** h) ** -2.0
        except (OverflowError, ZeroDivisionError):
            return 0.0 if base > 1.0 else math.inf

    shape = np.broadcast(stage_k, V_at_window_start, t).shape
    k, V0, t = (np.broadcast_to(a, shape).ravel() for a in (stage_k, V_at_window_start, t))
    for j in (k.min(initial=1), k.max(initial=1)):  # a stage out of range raises
        sched.window(int(j))
    table = [(w.start, w.end, w.duration) for w in map(sched.window, range(1, sched.order + 1))]
    start, end, duration = np.array(table).T[:, k - 1]
    inside = (start <= t) & (t < end)
    base = duration[inside] / np.maximum(end[inside] - t[inside], guard)
    vs2 = np.ones(t.shape)  # varsigma^-2
    vs2[inside] = [inverse_square_power(b, sched.exponent) for b in base.tolist()]
    c = 2.0 * gains.alpha * analysis.lambda_min / analysis.max_weight
    budget = np.multiply(vs2 * np.exp(-c * (t - start)), V0, out=np.zeros(t.shape), where=V0 != 0)
    return budget.reshape(shape)[()]


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
    # A candidate within max(1e-12, 4 ulp(t)) of an accepted event merges into
    # the nearest (the earlier on a tie; past |t| ~ 2e3 one ulp of t exceeds
    # 1e-12).  Boundaries go first, so their exact floats win; then switches in
    # time order, the later winning at a shared event.  Only a switch that
    # close to the one before it (a cluster) can merge into a switch event, so
    # only those are walked one by one.  Invariant: target[k], the event switch
    # k lands on, never decreases in k.  So the walk compares s[k] with
    # target[k - 1] alone (no event between them is nearer; a boundary past
    # s[k] takes s[k] too), and the switches that landed on or before an event
    # are a prefix, counted by one searchsorted.
    base: list[float] = []
    for t in (*sched.boundaries(), cfg.t0, cfg.t_end):
        if cfg.t0 <= t <= cfg.t_end and all(
            abs(t - e) > max(_EVENT_MERGE_TOL, 4.0 * math.ulp(t)) for e in base
        ):
            base.append(t)
    base.sort()
    times, indices = topos.switch_times, topos.indices
    in_range = slice(times.searchsorted(cfg.t0), times.searchsorted(cfg.t_end, side="right"))
    s, j = times[in_range], indices[in_range] - 1
    tol = np.maximum(_EVENT_MERGE_TOL, 4.0 * np.spacing(np.abs(s)))
    # The nearest boundary event, the earlier on a tie (inf pads the ends).
    padded = np.array([-np.inf, *base, np.inf])
    i = padded.searchsorted(s)
    left, right = s - padded[i - 1], padded[i] - s
    near = np.where(left <= right, padded[i - 1], padded[i])
    dist = np.minimum(left, right)
    target = np.where(dist <= tol, near, s)
    inserted = dist > tol
    cluster = np.flatnonzero(np.diff(s) <= tol[1:]) + 1
    for k in cluster.tolist():
        gap = s[k] - target[k - 1]  # < 0: k - 1 merged into the boundary ahead
        if gap <= dist[k]:
            near[k], dist[k] = target[k - 1], gap
        if dist[k] <= tol[k]:
            target[k], inserted[k] = near[k], False
    events = np.sort(np.concatenate((base, s[inserted])))
    # 1 + the latest switch that landed on or before each event (0: none).
    last = target.searchsorted(events, side="right")
    return events, np.concatenate(([indices[0] - 1], j))[last]


def _step_plan(cfg: SimConfig, sched: CascadeSchedule, topos: TopologySequence):
    """Grid points, the 0-based topology at each, and which are recorded.

    Step P runs grid[P] -> grid[P + 1] under topo[P]; segment s's points are
    events[s] + j * dt for j below its step count: round(span / dt) when
    that many dt land within 1e-9 dt of the next event, else one more than
    the whole dt that fit.  Events and every record_stride-th point are
    recorded; a stride of at least the point count records the events alone."""
    events, active = _event_grid(cfg, sched, topos)
    span = np.diff(events) / cfg.dt
    m = np.rint(span)  # round half to even, as round() does
    fits = (m >= 1) & (np.abs(events[:-1] + m * cfg.dt - events[1:]) <= 1e-9 * cfg.dt)
    steps = np.where(fits, m, np.floor(span) + 1).astype(np.int64)
    try:
        seg = np.repeat(np.arange(events.size), np.append(steps, 1))  # the last event starts no step
        P = np.arange(seg.size)
        offset = P - np.concatenate(([0], np.cumsum(steps)))[seg]
        grid = events[seg] + offset * cfg.dt
        rec = (P % min(cfg.record_stride, P.size) == 0) | (offset == 0)
        return grid, active[seg], rec
    except MemoryError:
        msg = f"dt = {cfg.dt:g} plans {steps.sum():g} steps, too many to hold in memory"
        raise DimensionMismatch(msg) from None


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
    """
    n = leader.order
    if sched.order != n:
        raise DimensionMismatch(f"schedule order {sched.order} does not match leader order {n}")
    if sched.t0 != cfg.t0 or topos.switch_times[0] != cfg.t0:
        raise DimensionMismatch("cascade schedule and switching schedule must start at the sim t0")
    N = topos.topologies[0].follower_count
    E = np.array(initial_estimates, dtype=float)
    if E.shape != (N, n):
        raise DimensionMismatch(f"initial estimates must be ({N}, {n}), got {E.shape}")
    if not np.all(np.isfinite(E)):
        raise DimensionMismatch("initial estimates must be finite")

    analyses = topos.analyses()
    worst = min(analyses, key=lambda a: a.lambda_min)  # envelope uses the worst topology
    windows = [sched.window(k) for k in range(1, n + 1)]
    event_log = [
        (t, f"stage {k} window {what}")
        for k, w in enumerate(windows, start=1)
        for t, what in ((w.start, "opens"), (w.end, "closes"))
        if cfg.t0 <= t <= cfg.t_end
    ]
    grid, topo, rec = _step_plan(cfg, sched, topos)
    # A switch is logged where the plan's topology changes, so a merged switch
    # is logged at the event it merged into and a cancelled one not at all.
    switched = np.flatnonzero(np.diff(topo, prepend=topos.indices[0] - 1))
    event_log += [
        (t, f"switch to topology {j}")
        for t, j in zip(grid[switched].tolist(), (topo[switched] + 1).tolist())
    ]
    event_log.sort(key=lambda item: item[0])  # stable: stage entries first at a shared time

    L0s = [a.sub_laplacian for a in analyses]

    def gain_rows(times: np.ndarray) -> np.ndarray:
        return _gain_row(gains.alpha + gains.beta * stage_rates(sched, times, cfg.guard), N, gains.sigma)

    # rk4 evaluates k1..k4 into K[0], K[4], K[5], K[3] and writes 2 k2, 2 k3
    # into K[1], K[2], so three adds sum ((k1 + 2 k2) + 2 k3) + k4.
    rk4 = cfg.method == "rk4"
    stage_rows = (0, 4, 5, 3) if rk4 else (0,)
    X, K, stages = _stacked_kernel(N, n, cfg.sign_smoothing, leader, stage_rows)
    Z, K0 = X[0], K[0]  # the state, N leader copies over the estimates; stage 1 reads it in place
    Z[:N], Z[N:] = leader.initial_state, E
    rhs0 = stages[0]
    if rk4:
        X1, X2, X3 = X[1:]
        K1, K2, K3, K_doubled, K_mid = K[4], K[5], K[3], K[1:3], K[4:]
        K1_doubled, K2_doubled = K_doubled
        _, rhs1, rhs2, rhs3 = stages
    T, A, Zf = np.empty_like(Z), np.empty_like(Z), Z.reshape(-1)  # step increment; |Z|; Z flat
    # Divergence pre-check z.z < thr^2 (BLAS ddot): rounding is monotone, so |z| > thr
    # gives fl(z^2) >= fl(thr^2) and a sum at least that; NaN and inf fail it too.
    thr2, sum_sq = cfg.divergence_threshold * cfg.divergence_threshold, Zf.dot
    # 0-d arrays (a ufunc converts a Python float argument on every call), set when h changes.
    half, full, sixth, two, h_set = np.empty(()), np.empty(()), np.empty(()), np.array(2.0), None
    multiply, add = np.multiply, np.add  # out goes positionally: see the module docstring
    snaps = np.empty((np.count_nonzero(rec), N + 1, n))  # [x0; estimates] per recorded point
    snaps[0] = Z[N - 1 :]
    rows = iter(snaps[1:])  # the rows the loop fills, in order
    block = max(1, _GAIN_BLOCK // N)  # steps whose gain rows are computed at once
    # Every overflow or NaN in a step leaves Z non-finite, and Diverged reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for P0 in range(0, grid.size - 1, block):
            P = slice(P0, min(P0 + block, grid.size - 1) + 1)  # the block's steps and end point
            g_at, ts = gain_rows(grid[P]), grid[P].tolist()
            t_mid = grid[P][:-1] + 0.5 * np.diff(grid[P])  # the same floats as t + 0.5 h
            g_mid = gain_rows(t_mid) if rk4 else g_at  # euler reads no midpoint
            step = zip(ts, ts[1:], t_mid.tolist(), [L0s[j] for j in topo[P].tolist()],
                       g_at, g_mid, g_at[1:], rec[P][1:].tolist())
            for t, tn, tm, L0, ga, gm, gn, keep in step:
                h = tn - t
                if h != h_set:
                    half[()], full[()], sixth[()], h_set = 0.5 * h, h, h / 6.0, h
                rhs0(L0, ga, t)
                if rk4:  # stage inputs Z + (h/2) k1, Z + (h/2) k2, Z + h k3
                    multiply(K0, half, X1)
                    add(Z, X1, X1)
                    rhs1(L0, gm, tm)
                    multiply(K1, half, X2)
                    add(Z, X2, X2)
                    rhs2(L0, gm, tm)
                    multiply(K2, full, X3)
                    add(Z, X3, X3)
                    rhs3(L0, gn, tn)
                    multiply(K_mid, two, K_doubled)
                    add(K0, K1_doubled, T)
                    add(T, K2_doubled, T)
                    add(T, K3, T)
                    multiply(T, sixth, T)
                else:
                    multiply(K0, full, T)
                add(Z, T, Z)
                # One check per step: a non-finite stage derivative shows up in Z.
                if not sum_sq(Zf) < thr2:  # exact max |Z| test only past the pre-check
                    peak = np.maximum.reduce(np.abs(Z, A), axis=None)
                    if not (math.isfinite(peak) and peak <= cfg.divergence_threshold):
                        raise Diverged(tn if np.isfinite(K[stage_rows, N:]).all() else t)
                if keep:
                    next(rows)[...] = Z[N - 1 :]

    # Diagnostics from the snapshots, under the plan's topology at each recorded point.
    times, active = grid[rec], topo[rec]
    errors = snaps[:, 1:] - snaps[:, :1]
    psi = np.empty_like(errors)
    for j, analysis in enumerate(analyses):
        psi[active == j] = np.matmul(analysis.sub_laplacian, errors[active == j])
    V = _weighted_energy(np.array([a.rho for a in analyses])[active], psi)
    # The envelope at every sample whose stage has a sample at its window start.
    start = np.array([w.start for w in windows])
    at = np.minimum(times.searchsorted(start), times.size - 1)  # the sample at each start
    has_v0 = times[at] == start
    v0 = V[at, np.arange(n)]
    # The active stage is the first opened window: stage 1 opens last, stage n at t0.
    stage = (start <= times[:, None]).argmax(axis=1)
    s = np.flatnonzero(has_v0[stage])
    budget = np.full(times.shape, np.inf)
    budget[s] = decay_budget(worst, gains, sched, stage[s] + 1, v0[stage[s]], times[s], cfg.guard)

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
