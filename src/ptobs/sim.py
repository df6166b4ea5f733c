"""Event-aligned fixed-step integration of the coupled leader/observer system.

run has three parts.  _plan builds the step plan before the loop: every
stage-window boundary, topology switch and t_end lands exactly on a step
boundary (dt is shortened locally before each event), so no step straddles
a switch, and a switch within the merge tolerance of another event takes
effect at that event.  The plan (O(steps) memory: 10 bytes a step, 16 while
it is built) holds the grid points, the right-continuous topology at each
(which steps and samples take) and the record points; the event log comes
with it.  Per gain block, _block_rows samples the block's times once, in
time order (rk4 puts each t + h/2 between t and t + h), into one array of
about _GAIN_BLOCK doubles of observer._gain_rows rows (one stage_gain call
per stage, one input call per time), and finds the first step that reads f0
past its bound, which raises.  The loop steps one stacked state in place
through the observer kernel's stage functions (6 numpy calls each) over
those rows, writing [x0; estimates] into one snapshot array at record
points.  Then the plan goes, the errors overwrite the estimates, and psi, V
and the envelope (one decay_budget call per stage) follow.  A numpy call on
these small arrays costs its dispatch, so every call passes out
positionally, rk4 sums its stages in one bound BLAS dot (a dgemv), and
each step's divergence check is one bound BLAS dot, Zf.dot(Zf), against
threshold squared; the exact max |Z| test runs only when that fails, so both
stop a run at the same step.  Bit-identical to stepping leader_rhs and
dpto_rhs with that dot as rk4's stage sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import DimensionMismatch, Diverged
from .gain import CascadeSchedule, varsigma
from .graph import GraphAnalysis, TopologySequence
from .observer import _BOUND_SLACK, LeaderModel, ObserverGains, _gain_rows, _leader_input, _stacked_kernel
from .observer import _weighted_energy
from .observer import dpto_rhs, leader_rhs, local_errors  # noqa: F401  (public forms, wrapped by perfbench)

_EVENT_MERGE_TOL = 1e-12  # absolute part of the event-merge tolerance
_GAIN_BLOCK = 32768  # doubles of gain rows per block, give or take a row; caps memory


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step integration settings.

    dt must exceed 2 ulp(t), twice the float spacing at the larger of |t0|
    and |t_end|, so no step rounds to zero length.  guard clamps the time-varying gain denominator
    and must cover at least one step (guard >= dt).  record_stride, a positive
    integer, keeps every m-th accepted step; events are always recorded.
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
        try:  # to Python floats once, so 10**400 fails here; "* 1.0" keeps a str a TypeError
            for name in "t0 t_end dt guard sign_smoothing convergence_tolerance divergence_threshold".split():
                value = getattr(self, name)
                object.__setattr__(self, name, value if value is None else float(value * 1.0))
        except OverflowError:
            raise DimensionMismatch(f"{name} lies outside the doubles") from None
        # Written as "not ..." so a NaN setting fails the check too.
        if not -np.inf < self.t0 < self.t_end < np.inf:
            raise DimensionMismatch(f"need finite t0 < t_end, got {self.t0}, {self.t_end}")
        if not self.t_end - self.t0 < np.inf:  # Python floats: no overflow warning
            raise DimensionMismatch("t_end - t0 must be finite")
        spacing = 2.0 * math.ulp(max(abs(self.t0), abs(self.t_end)))
        if not spacing < self.dt < np.inf:
            raise DimensionMismatch(
                f"dt must be finite and above 2 ulp(t) = {spacing:.3g}, got {self.dt:g}"
            )
        if self.method not in ("euler", "rk4"):
            raise DimensionMismatch(f"unknown method '{self.method}'")
        guard = 10.0 * self.dt if self.guard is None else self.guard
        if not self.dt <= guard < np.inf:
            raise DimensionMismatch(
                f"guard ({guard:g}) must be finite and at least dt ({self.dt:g})"
            )
        object.__setattr__(self, "guard", guard)
        if self.sign_smoothing is not None and not 0.0 < self.sign_smoothing < np.inf:
            raise DimensionMismatch("sign smoothing must be finite and positive when given")
        # A slice step: of a type with __index__ (int, np.int64), so not a float or NaN.
        if not (hasattr(self.record_stride, "__index__") and self.record_stride >= 1):
            raise DimensionMismatch("record_stride must be a positive integer")
        if not 0.0 < self.convergence_tolerance < np.inf:
            raise DimensionMismatch("convergence tolerance must be finite and positive")
        if not self.divergence_threshold > 0.0:
            raise DimensionMismatch("divergence threshold must be positive (inf disables it)")


@dataclass(frozen=True, eq=False)
class TraceData:
    """The recorded samples of one run: what a trace CSV holds.

    estimate_errors[s, i, k-1] is follower i's stage-k global error at
    times[s]; a run returns it and leader_states as views of one snapshot
    buffer.  local_errors holds psi under the step plan's topology at that
    point (the next step's); decay_bound is the active stage's envelope.
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
    stage_k: int,
    V_at_window_start: float,
    t: float | np.ndarray,
    guard: float,
) -> float | np.ndarray:
    """Theoretical Lyapunov envelope for stage k from its window start:
    varsigma(t, guard)^-2 exp(-c (t - window_start)) V_at_window_start, where
    c = 2 alpha lambda_min / max(weights).  One stage and a scalar
    V_at_window_start; t is a scalar or an array, and the result has its shape.
    varsigma^-2 is Python's pow per sample where varsigma is not 1: 0 where
    varsigma is inf, inf where it is 0.  A zero V_at_window_start gives 0.
    """
    def inverse_square(v: float) -> float:
        # Where Python raises, v ** -2.0 lies above the doubles (v is 0 or tiny).
        try:
            return v ** -2.0
        except (OverflowError, ZeroDivisionError):
            return math.inf

    w = sched.window(stage_k)  # a stage out of range raises
    t = np.asarray(t, dtype=float)
    vs2 = np.asarray(varsigma(w, t, guard))  # varsigma, squared and inverted in place
    scaled = vs2 != 1.0
    vs2[scaled] = [inverse_square(v) for v in vs2[scaled].tolist()]
    c = 2.0 * gains.alpha * analysis.lambda_min / analysis.max_weight
    V0 = V_at_window_start
    budget = np.multiply(vs2 * np.exp(-c * (t - w.start)), V0, out=np.zeros(t.shape), where=V0 != 0)
    return budget[()]


def detect_convergence(
    times: np.ndarray, estimate_errors: np.ndarray, tol: float
) -> list[float | None]:
    """Earliest recorded time per stage after which the error band holds to the end.

    For stage k that is the first tau with max_i |error[s, i, k-1]| <= tol for
    every recorded s in [tau, t_end]; None if even the final sample violates.
    A NaN error is outside every band.
    """
    if not tol > 0.0:
        raise DimensionMismatch("tolerance must be positive")
    n = estimate_errors.shape[2]
    worst = np.maximum(estimate_errors.max(axis=1), -estimate_errors.min(axis=1))  # (S, n)
    out: list[float | None] = []
    for k in range(n):
        bad = np.flatnonzero(~(worst[:, k] <= tol))
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
    # The least unsigned type holding the topology count: no arithmetic on it can wrap.
    small = np.min_scalar_type(len(topos.topologies))
    return events, np.concatenate(([indices[0] - 1], j))[last].astype(small)


def _plan(cfg: SimConfig, sched: CascadeSchedule, topos: TopologySequence):
    """The step plan (grid, topo, rec) over _event_grid's events, and the run's event log.

    Step P runs grid[P] -> grid[P + 1] under topo[P], 0-based; segment s's points are
    events[s] + j * dt for j below its step count: round(span / dt) when
    that many dt land within 1e-9 dt of the next event, else one more than
    the whole dt that fit.  Events and every record_stride-th point are
    recorded; a stride of at least the point count records the events alone.
    The log holds the window openings and closings in [t0, t_end] and the switches, in time order."""
    windows = map(sched.window, range(1, sched.order + 1))
    event_log = [(t, f"stage {k} window {what}") for k, w in enumerate(windows, start=1)
                 for t, what in ((w.start, "opens"), (w.end, "closes")) if cfg.t0 <= t <= cfg.t_end]
    events, active = _event_grid(cfg, sched, topos)
    # A switch is logged at each event where the active topology changes, so a
    # merged switch is logged at the event it merged into and a cancelled one
    # not at all; "+ 0.0" logs an event at -0.0 as the plan's point +0.0.
    switched = np.flatnonzero(np.concatenate(([active[0] != topos.indices[0] - 1], active[1:] != active[:-1])))
    labels = [f"switch to topology {j}" for j in range(1, len(topos.topologies) + 1)]  # one string each
    event_log += [(t, labels[j]) for t, j in zip((events[switched] + 0.0).tolist(), active[switched].tolist())]
    event_log.sort(key=lambda item: item[0])  # stable: stage entries first at a shared time
    span = np.diff(events) / cfg.dt
    m = np.rint(span)  # round half to even, as round() does
    fits = (m >= 1) & (np.abs(events[:-1] + m * cfg.dt - events[1:]) <= 1e-9 * cfg.dt)
    steps = np.where(fits, m, np.floor(span) + 1).astype(np.int64)
    try:
        counts = np.append(steps, 1)  # the last event starts no step
        starts = np.concatenate(([0], np.cumsum(steps)))  # each event's point
        # offset * dt + event, built in place (integer offsets are exact in float; + commutes).
        grid = np.arange(starts[-1] + 1, dtype=float)
        grid -= np.repeat(starts, counts)
        grid *= cfg.dt
        grid += np.repeat(events, counts)
        topo = np.repeat(active, counts)
        rec = np.zeros(grid.size, dtype=bool)
        rec[:: min(cfg.record_stride, grid.size)] = rec[starts] = True
        return grid, topo, rec, event_log
    except MemoryError:
        msg = f"dt = {cfg.dt:g} plans {steps.sum():g} steps, too many to hold in memory"
        raise DimensionMismatch(msg) from None


def _block_rows(leader: LeaderModel, gains: ObserverGains, sched: CascadeSchedule, guard: float,
                ts: np.ndarray, N: int, rk4: bool):
    """The gain rows of the steps over plan points ts, how many steps run, and the bad input read.

    The rows each step reads at t, t + h/2 and t + h (euler reads only the
    first) are views of one _gain_rows array, sampled once per time in time
    order: rk4 puts each t + h/2 between t and t + h.  The steps that run are
    those before the first that reads an f0 past its bound; that read's
    (time, f0), or None."""
    samples = np.insert(ts, np.arange(1, ts.size), ts[:-1] + 0.5 * np.diff(ts)) if rk4 else ts
    f0 = np.fromiter((float(leader.input_fn(t)) for t in samples.tolist()), float, samples.size)
    g = _gain_rows(gains, sched, guard, samples, f0[:, None], N)
    # The first f0 "not <=" its bound, else the sample count.
    bad = np.append(~(np.abs(f0) <= leader.input_bound + _BOUND_SLACK), True).argmax()
    stop = min(max(bad - 1, 0) // 2 if rk4 else bad, ts.size - 1)  # steps before the first that reads it
    read = (float(samples[bad]), float(f0[bad])) if stop < ts.size - 1 else None
    per = 2 if rk4 else 1  # step i reads rows per i (t), per i + 1 (rk4's t + h/2) and per i + per (t + h)
    return (g[::per], g[1::per], g[per::per]), stop, read


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
    grid, topo, rec, event_log = _plan(cfg, sched, topos)

    L0s = [a.sub_laplacian.dot for a in analyses]  # bound BLAS dots: no np.dot dispatch per stage

    rk4 = cfg.method == "rk4"
    X, K, stages = _stacked_kernel(N, n, cfg.sign_smoothing, 4 if rk4 else 1)
    Z, K0 = X[0], K[0]  # the state, N leader copies over the estimates; stage 1 reads it in place
    Z[:N], Z[N:] = leader.initial_state, E
    rhs0 = stages[0]
    if rk4:
        (X1, X2, X3), (K1, K2), (_, rhs1, rhs2, rhs3) = X[1:], K[1:3], stages
    T, A, Zf = np.empty_like(Z), np.empty_like(Z), Z.reshape(-1)  # step increment; |Z|; Z flat
    # Divergence pre-check z.z < thr^2 (BLAS ddot): rounding is monotone, so |z| > thr
    # gives fl(z^2) >= fl(thr^2) and a sum at least that; NaN and inf fail it too.
    thr2, sum_sq = cfg.divergence_threshold * cfg.divergence_threshold, Zf.dot
    # 0-d arrays (a ufunc converts a Python float argument on every call) and rk4's weights
    # (h/6, h/3, h/3, h/6), set when h changes.  stage_sum writes their dot with the
    # slopes k1..k4 in K[0..3] (kept: Diverged reads them) into T, one dgemv.
    half, full, wts, h_set = np.empty(()), np.empty(()), np.empty(4), None
    stage_sum, K_rows, Tf = wts.dot, K.reshape(len(K), -1), T.reshape(-1)
    multiply, add = np.multiply, np.add  # out goes positionally: see the module docstring
    snaps = np.empty((np.count_nonzero(rec), N + 1, n))  # [x0; estimates] per recorded point
    snaps[0] = Z[N - 1 :]
    rows = iter(snaps[1:])  # the rows the loop fills, in order
    block = max(1, _GAIN_BLOCK // ((2 if rk4 else 1) * N * (n + 2)))  # steps per block: rows of N (n + 2) doubles
    # Every overflow or NaN in a step leaves Z non-finite, and Diverged reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for P0 in range(0, grid.size - 1, block):
            P = slice(P0, min(P0 + block, grid.size - 1) + 1)  # the block's steps and end point
            g, stop, bad = _block_rows(leader, gains, sched, cfg.guard, grid[P], N, rk4)
            ts = grid[P].tolist()
            step = zip(ts, ts[1:], [L0s[j] for j in topo[P].tolist()], *g, rec[P][1:].tolist())
            for t, tn, L0, ga, gm, gn, keep in islice(step, stop):
                h = tn - t
                if h != h_set:
                    half[()], full[()], h_set = 0.5 * h, h, h
                    wts[:] = h / 6.0, h / 3.0, h / 3.0, h / 6.0
                rhs0(L0, ga)
                if rk4:  # stage inputs Z + (h/2) k1, Z + (h/2) k2, Z + h k3
                    multiply(K0, half, X1)
                    add(Z, X1, X1)
                    rhs1(L0, gm)
                    multiply(K1, half, X2)
                    add(Z, X2, X2)
                    rhs2(L0, gm)
                    multiply(K2, full, X3)
                    add(Z, X3, X3)
                    rhs3(L0, gn)
                    stage_sum(K_rows, Tf)
                else:
                    multiply(K0, full, T)
                add(Z, T, Z)
                # One check per step: a non-finite stage derivative shows up in Z.
                if not sum_sq(Zf) < thr2:  # exact max |Z| test only past the pre-check
                    peak = np.maximum.reduce(np.abs(Z, A), axis=None)
                    if not (math.isfinite(peak) and peak <= cfg.divergence_threshold):
                        raise Diverged(tn if np.isfinite(K[:, N:]).all() else t)
                if keep:
                    next(rows)[...] = Z[N - 1 :]
            if bad is not None:  # the step after the last that ran reads it first
                _leader_input(leader, *bad)
            # The rows ga, gm, gn are views: the block's gain array goes only with them.
            del g, ts, step, ga, gm, gn

    # Diagnostics under the plan's topology at each sample; snaps becomes [x0; errors].
    windows = [sched.window(k) for k in range(1, n + 1)]
    times, active = grid[rec], topo[rec]
    del grid, topo, rec
    errors = np.subtract(snaps[:, 1:], snaps[:, :1], out=snaps[:, 1:])
    psi = np.empty_like(errors)
    for j, analysis in enumerate(analyses):
        psi[active == j] = np.matmul(analysis.sub_laplacian, errors[active == j])
    # Several topologies share common_H, so every analysis carries one rho.
    V = _weighted_energy(analyses[0].rho, psi)
    # Stage k's samples run from its window start to stage k - 1's (stage 1's
    # to the end); its envelope needs a sample at that start, else it stays inf.
    at = times.searchsorted([w.start for w in windows])
    budget = np.full(times.shape, np.inf)
    for k, (w, a, b) in enumerate(zip(windows, at, [times.size, *at[:-1]]), start=1):
        if a < b and times[a] == w.start:
            budget[a:b] = decay_budget(worst, gains, sched, k, V[a, k - 1], times[a:b], cfg.guard)

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
