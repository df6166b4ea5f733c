import dataclasses

import numpy as np
import pytest

import ptobs
from ptobs.errors import DimensionMismatch, Diverged, InputBoundViolated
from ptobs.observer import dpto_rhs, leader_rhs, local_errors
from ptobs.observer import lyapunov_trace
from ptobs.sim import decay_budget, detect_convergence
from conftest import ETA, INITIAL_ESTIMATES


def _zero_leader(order, x0=None, bound=0.125):
    return ptobs.LeaderModel(
        order=order,
        input_fn=ptobs.input_by_name("zero"),
        input_bound=bound,
        initial_state=np.arange(order, dtype=float) if x0 is None else x0,
    )


def test_equilibrium_stays_exact(digraph1, cascade):
    leader = _zero_leader(3, x0=np.array([1.0, -0.5, 0.25]))
    gains = ptobs.ObserverGains(alpha=1.05, beta=5.692, sigma=0.125)
    cfg = ptobs.SimConfig(t0=0.0, t_end=1.0, dt=1e-3, guard=1e-2)
    estimates = np.tile(leader.initial_state, (3, 1))
    res = ptobs.run(
        ptobs.TopologySequence.static(digraph1, 0.0), leader, gains, cascade, estimates, cfg
    )
    assert np.max(np.abs(res.estimate_errors)) <= 1e-12


def test_single_follower_linear_decay_matches_exponential():
    topo = ptobs.DirectedTopology(adjacency=[[0.0]], pinning=[1.0])
    leader = _zero_leader(1, x0=np.array([0.0]), bound=0.0)
    sched = ptobs.CascadeSchedule(t0=0.0, stage_durations=(0.2,), exponent=2.01)
    gains = ptobs.ObserverGains(alpha=1.0, beta=0.0, sigma=0.0)
    cfg = ptobs.SimConfig(t0=0.0, t_end=1.0, dt=1e-4, guard=1e-3)
    res = ptobs.run(
        ptobs.TopologySequence.static(topo, 0.0), leader, gains, sched,
        np.array([[1.0]]), cfg,
    )
    assert res.times[-1] == 1.0
    assert abs(res.estimate_errors[-1, 0, 0] - np.exp(-1.0)) < 1e-9


def test_determinism_bit_identical(digraph1, digraph2, sine_leader, cascade):
    seq = ptobs.TopologySequence(
        topologies=(digraph1, digraph2),
        schedule=tuple((round(0.1 * i, 10), 1 + i % 2) for i in range(4)),
        common_H=ETA,
    )
    gains = ptobs.ObserverGains(alpha=1.05, beta=5.692, sigma=0.125)
    cfg = ptobs.SimConfig(t0=0.0, t_end=0.35, dt=1e-4, guard=1e-3)
    r1 = ptobs.run(seq, sine_leader, gains, cascade, INITIAL_ESTIMATES, cfg)
    r2 = ptobs.run(seq, sine_leader, gains, cascade, INITIAL_ESTIMATES, cfg)
    assert np.array_equal(r1.times, r2.times)
    assert np.array_equal(r1.leader_states, r2.leader_states)
    assert np.array_equal(r1.estimate_errors, r2.estimate_errors)
    assert np.array_equal(r1.local_errors, r2.local_errors)
    assert np.array_equal(r1.lyapunov, r2.lyapunov)
    assert np.array_equal(r1.decay_bound, r2.decay_bound)
    assert r1.convergence_times == r2.convergence_times
    assert r1.event_log == r2.event_log


def test_event_alignment(digraph1, digraph2, sine_leader, cascade):
    switch_times = tuple(round(0.1 * i, 10) for i in range(7))
    seq = ptobs.TopologySequence(
        topologies=(digraph1, digraph2),
        schedule=tuple((t, 1 + i % 2) for i, t in enumerate(switch_times)),
        common_H=ETA,
    )
    gains = ptobs.ObserverGains(alpha=1.05, beta=5.692, sigma=0.125)
    cfg = ptobs.SimConfig(t0=0.0, t_end=0.65, dt=1e-4, guard=1e-3, record_stride=10**9)
    res = ptobs.run(seq, sine_leader, gains, cascade, INITIAL_ESTIMATES, cfg)
    grid = np.sort(res.times)
    for b in cascade.boundaries():
        assert b in set(grid.tolist())  # stage boundaries hit with their exact float
    for t, _ in seq.schedule:
        # a switch that collides with a stage boundary within merge tolerance is
        # represented by the boundary's float; otherwise it appears exactly
        assert np.min(np.abs(grid - t)) <= 1e-12
    assert cfg.t_end in set(grid.tolist())
    assert np.all(np.diff(res.times) > 0)


@pytest.mark.parametrize("offset", [5e-13, -5e-13])
def test_switch_merged_into_boundary_takes_effect_there(digraph1, digraph2, cascade, offset):
    # A switch within the merge tolerance of the stage boundary 0.2 takes
    # effect at 0.2, for the steps and for the recorded psi and V alike.
    leader = _zero_leader(3, x0=np.array([1.0, 0.0, 0.0]))
    gains = ptobs.ObserverGains(alpha=1.05, beta=5.692, sigma=0.125)
    cfg = ptobs.SimConfig(t0=0.0, t_end=1.0, dt=1e-3, record_stride=1)

    def run(switch):
        seq = ptobs.TopologySequence(
            topologies=(digraph1, digraph2), schedule=((0.0, 1), (switch, 2)), common_H=ETA
        )
        return ptobs.run(seq, leader, gains, cascade, np.full((3, 3), 0.5), cfg)

    exact, near = run(0.2), run(0.2 + offset)
    for field in dataclasses.fields(exact):
        if field.name != "event_log":
            a, b = getattr(exact, field.name), getattr(near, field.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, field.name
    after = near.times >= 0.2  # psi from t = 0.2 on is digraph 2's
    L0 = ptobs.sub_laplacian(digraph2)
    assert np.array_equal(near.local_errors[after], np.matmul(L0, near.estimate_errors[after]))


def test_switching_degenerate_p1_bit_identical(digraph1, sine_leader, cascade):
    gains = ptobs.ObserverGains(alpha=1.05, beta=5.692, sigma=0.125)
    cfg = ptobs.SimConfig(t0=0.0, t_end=0.5, dt=1e-4, guard=1e-3)
    static = ptobs.TopologySequence.static(digraph1, 0.0)
    noop = ptobs.TopologySequence(
        topologies=(digraph1,),
        schedule=tuple((round(0.1 * i, 10), 1) for i in range(5)),
    )
    r1 = ptobs.run(static, sine_leader, gains, cascade, INITIAL_ESTIMATES, cfg)
    r2 = ptobs.run(noop, sine_leader, gains, cascade, INITIAL_ESTIMATES, cfg)
    assert np.array_equal(r1.times, r2.times)
    assert np.array_equal(r1.estimate_errors, r2.estimate_errors)
    assert np.array_equal(r1.lyapunov, r2.lyapunov)
    assert np.array_equal(r1.decay_bound, r2.decay_bound)


def test_detect_convergence_identically_zero():
    times = np.linspace(0.0, 1.0, 11)
    errors = np.zeros((11, 2, 1))
    assert detect_convergence(times, errors, 0.01) == [0.0]


def test_detect_convergence_piecewise_linear():
    # binary grid so the band-edge comparison has no decimal rounding: the
    # first in-band sample is t = 127/128 where the error equals tol exactly
    times = np.arange(0.0, 2.0 + 1e-12, 2.0**-8)
    err = np.maximum(0.0, 1.0 - times)
    errors = err[:, None, None] * np.ones((1, 3, 1))
    [tau] = detect_convergence(times, errors, tol=2.0**-7)
    assert tau == 127.0 / 128.0


def test_detect_convergence_decimal_band():
    times = np.linspace(0.0, 2.0, 2001)
    err = np.maximum(0.0, 1.0 - times)
    errors = err[:, None, None] * np.ones((1, 3, 1))
    [tau] = detect_convergence(times, errors, tol=0.0095)
    assert tau == pytest.approx(0.991)


def test_detect_convergence_never():
    times = np.linspace(0.0, 1.0, 11)
    errors = np.ones((11, 1, 1))
    assert detect_convergence(times, errors, 0.01) == [None]


def test_decay_budget_at_window_start(static_run):
    analysis, gains, cfg, res = static_run
    sched = ptobs.CascadeSchedule(t0=0.0, stage_durations=(0.2, 0.2, 0.2), exponent=2.01)
    assert decay_budget(analysis, gains, sched, 3, 0.7, 0.0, cfg.guard) == pytest.approx(0.7)
    assert decay_budget(analysis, gains, sched, 3, 0.0, 0.15, cfg.guard) == 0.0


def test_lyapunov_top_stage_nonincreasing(static_run):
    analysis, gains, cfg, res = static_run
    V3 = res.lyapunov[:, 2]
    in_window = res.times < 0.2
    slack = 1e-6 * V3[0] + 1e-12
    vals = V3[in_window]
    assert np.all(np.diff(vals) <= slack)


def test_lyapunov_top_stage_within_budget(static_run):
    # strictly inside the window minus the guard zone, at the default guard
    analysis, gains, cfg, res = static_run
    sched = ptobs.CascadeSchedule(t0=0.0, stage_durations=(0.2, 0.2, 0.2), exponent=2.01)
    V30 = res.lyapunov[0, 2]
    mask = res.times < 0.2 - cfg.guard
    for t, V in zip(res.times[mask], res.lyapunov[mask, 2]):
        assert V <= 1.05 * decay_budget(analysis, gains, sched, 3, V30, t, cfg.guard)


def test_recorded_budget_column_matches_active_stage(static_run):
    analysis, gains, cfg, res = static_run
    sched = ptobs.CascadeSchedule(t0=0.0, stage_durations=(0.2, 0.2, 0.2), exponent=2.01)
    i = int(np.searchsorted(res.times, 0.3))  # stage 2 active
    t = res.times[i]
    j0 = int(np.searchsorted(res.times, 0.2))
    V20 = res.lyapunov[j0, 1]
    assert res.decay_bound[i] == pytest.approx(
        decay_budget(analysis, gains, sched, 2, V20, t, cfg.guard)
    )


def test_recorded_energy_and_budget_equal_public_forms(digraph1, digraph2, sine_leader, cascade):
    # Switches every 0.0137 s and a stride of 7: segments are 137 steps (or a
    # remainder), so record points fall mid-segment, at segment ends and on
    # stage boundaries alike.
    seq = ptobs.TopologySequence(
        topologies=(digraph1, digraph2),
        schedule=tuple((0.0137 * i, 1 + i % 2) for i in range(50)),
        common_H=ETA,
    )
    gains = ptobs.ObserverGains(alpha=1.05, beta=5.692, sigma=0.125)
    cfg = ptobs.SimConfig(t0=0.0, t_end=0.65, dt=1e-4, guard=1e-3, record_stride=7)
    res = ptobs.run(seq, sine_leader, gains, cascade, INITIAL_ESTIMATES, cfg)
    analyses = seq.analyses()
    worst = min(analyses, key=lambda a: a.lambda_min)
    starts = {k: cascade.stage_start(k) for k in (1, 2, 3)}
    baseline_index = {k: np.flatnonzero(res.times == t)[0] for k, t in starts.items()}
    for s, t in enumerate(res.times.tolist()):
        active = analyses[seq.active_index(t) - 1]
        for k in (1, 2, 3):
            psi = res.local_errors[s, :, k - 1]
            assert res.lyapunov[s, k - 1] == lyapunov_trace(active, psi)
            # Row-by-row sum in Python floats: the old per-sample recorder's order.
            assert res.lyapunov[s, k - 1] == 0.5 * sum(
                w * p * p for w, p in zip(active.rho.tolist(), psi.tolist())
            )
        k = min(k for k in (1, 2, 3) if starts[k] <= t)
        V0 = res.lyapunov[baseline_index[k], k - 1]
        assert res.decay_bound[s] == decay_budget(worst, gains, cascade, k, V0, t, cfg.guard)


def test_cascade_order(static_run):
    # each stage is inside the band by the end of its own window
    analysis, gains, cfg, res = static_run
    tol = cfg.convergence_tolerance
    for k, t_close in ((3, 0.2), (2, 0.4), (1, 0.6)):
        i = int(np.searchsorted(res.times, t_close))
        assert np.max(np.abs(res.estimate_errors[i, :, k - 1])) <= tol
    taus = res.convergence_times
    assert taus[2] is not None and taus[2] <= 0.2
    assert taus[1] is not None and taus[1] <= 0.4
    assert taus[0] is not None and taus[0] <= 0.6


def test_step_size_convergence_trend(digraph1, sine_leader, cascade):
    # smoothed sliding term keeps the vector field differentiable, so each
    # halving of dt should shrink the terminal change by at least a factor 4
    gains = ptobs.ObserverGains(alpha=1.05, beta=5.42, sigma=0.125)
    seq = ptobs.TopologySequence.static(digraph1, 0.0)

    def terminal(dt):
        cfg = ptobs.SimConfig(
            t0=0.0, t_end=0.15, dt=dt, guard=8e-3, sign_smoothing=1e-1, record_stride=10**9
        )
        res = ptobs.run(seq, sine_leader, gains, cascade, INITIAL_ESTIMATES, cfg)
        assert res.times[-1] == 0.15
        return res.estimate_errors[-1]

    e1 = terminal(2e-3)
    e2 = terminal(1e-3)
    e3 = terminal(5e-4)
    d1 = np.max(np.abs(e1 - e2))
    d2 = np.max(np.abs(e2 - e3))
    assert d2 <= d1 / 4.0


def test_divergence_detected(digraph1, cascade):
    leader = _zero_leader(3, x0=np.array([0.0, 0.0, 0.0]), bound=0.0)
    gains = ptobs.ObserverGains(alpha=1e7, beta=0.0, sigma=0.0)
    cfg = ptobs.SimConfig(t0=0.0, t_end=0.2, dt=1e-3, method="euler", guard=1e-2)
    with pytest.raises(Diverged) as info:
        ptobs.run(
            ptobs.TopologySequence.static(digraph1, 0.0), leader, gains, cascade,
            INITIAL_ESTIMATES, cfg,
        )
    assert 0.0 < info.value.time <= 0.2


@pytest.mark.parametrize("method, when", [("euler", 0.071), ("rk4", 0.019)])
def test_divergence_by_overflow_reports_step_time(digraph1, cascade, method, when):
    # No threshold: the state overflows to inf and NaN, and the step whose
    # stage derivatives first turned non-finite is reported by its start time.
    leader = _zero_leader(3, x0=np.array([0.0, 0.0, 0.0]), bound=0.0)
    gains = ptobs.ObserverGains(alpha=1e7, beta=0.0, sigma=0.0)
    cfg = ptobs.SimConfig(
        t0=0.0, t_end=0.2, dt=1e-3, method=method, guard=1e-2, divergence_threshold=np.inf
    )
    with pytest.raises(Diverged) as info, np.errstate(over="ignore", invalid="ignore"):
        ptobs.run(
            ptobs.TopologySequence.static(digraph1, 0.0), leader, gains, cascade,
            INITIAL_ESTIMATES, cfg,
        )
    assert info.value.time == pytest.approx(when, abs=1e-12)


def _public_rhs_replay(res, seq, leader, gains, sched, estimates, cfg):
    """Step a plain loop over res.times with the public leader_rhs and dpto_rhs."""
    analyses = seq.analyses()
    x0 = leader.initial_state.copy()
    E = np.array(estimates, dtype=float)

    def f(t, x, e, a):
        return (
            leader_rhs(leader, x, t),
            dpto_rhs(a, gains, sched, cfg.guard, e, x, t, cfg.sign_smoothing),
        )

    for i in range(1, len(res.times)):
        t, tn = float(res.times[i - 1]), float(res.times[i])
        h = tn - t
        a = analyses[seq.active_index(t) - 1]
        if cfg.method == "rk4":
            k1 = f(t, x0, E, a)
            k2 = f(t + 0.5 * h, x0 + 0.5 * h * k1[0], E + 0.5 * h * k1[1], a)
            k3 = f(t + 0.5 * h, x0 + 0.5 * h * k2[0], E + 0.5 * h * k2[1], a)
            k4 = f(tn, x0 + h * k3[0], E + h * k3[1], a)
            x0 = x0 + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            E = E + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        else:
            k1 = f(t, x0, E, a)
            x0 = x0 + h * k1[0]
            E = E + h * k1[1]
        assert np.array_equal(res.leader_states[i], x0), f"leader differs at t={tn}"
        assert np.array_equal(res.estimate_errors[i], E - x0[None, :]), f"errors differ at t={tn}"
        psi = local_errors(analyses[seq.active_index(tn) - 1], E, x0)
        assert np.array_equal(res.local_errors[i], psi), f"psi differs at t={tn}"


def _random_static_case(N, n, seed):
    """Static digraph with a spanning tree from the leader, sine leader, random estimates."""
    rng = np.random.default_rng(seed)
    A = np.where(rng.random((N, N)) < 2.0 / N, rng.uniform(0.5, 1.5, (N, N)), 0.0)
    for i in range(1, N):  # follower i hears an earlier one, so every follower is reached
        A[i, rng.integers(0, i)] = rng.uniform(0.5, 1.5)
    np.fill_diagonal(A, 0.0)
    pinning = np.where(np.arange(N) == 0, 1.0, 0.0)
    seq = ptobs.TopologySequence.static(ptobs.DirectedTopology(adjacency=A, pinning=pinning), 0.0)
    leader = ptobs.LeaderModel(
        order=n, input_fn=ptobs.input_by_name("sine", 0.125, 0.5), input_bound=0.125,
        initial_state=rng.normal(size=n),
    )
    sched = ptobs.CascadeSchedule(t0=0.0, stage_durations=(0.1,) * n, exponent=2.01)
    return seq, leader, sched, rng.normal(size=(N, n)) * 3.0


# Static digraphs of other shapes: the flat shift and the top-column overwrite
# are what a single follower (N = 1) or a single stage (n = 1) could break.
_SWEEP = [
    f"{N}x{n}-{method}-{sign}"
    for N, n in ((1, 1), (1, 3), (4, 1), (5, 2), (40, 3))
    for method in ("rk4", "euler")
    for sign in ("hard", "smooth")
]


@pytest.mark.parametrize("case", ["static", "switching", "smoothing", "euler", *_SWEEP])
def test_integrator_matches_public_rhs_exactly(digraph1, digraph2, sine_leader, cascade, case):
    leader, sched, estimates = sine_leader, cascade, INITIAL_ESTIMATES
    gains = ptobs.ObserverGains(alpha=1.05, beta=5.692, sigma=0.125)
    method = "euler" if "euler" in case else "rk4"
    smoothing = 0.05 if "smooth" in case else None
    if case == "switching":
        seq = ptobs.TopologySequence(
            topologies=(digraph1, digraph2),
            schedule=tuple((round(0.05 * i, 10), 1 + i % 2) for i in range(7)),
            common_H=ETA,
        )
    elif case in _SWEEP:
        N, n = map(int, case.split("-")[0].split("x"))
        seq, leader, sched, estimates = _random_static_case(N, n, seed=N * 10 + n)
        gains = ptobs.ObserverGains(alpha=1.0, beta=0.5, sigma=0.125)
    else:
        seq = ptobs.TopologySequence.static(digraph1, 0.0)
    cfg = ptobs.SimConfig(
        t0=0.0, t_end=0.3, dt=1e-3, guard=1e-2, record_stride=1,
        method=method, sign_smoothing=smoothing,
    )
    res = ptobs.run(seq, leader, gains, sched, estimates, cfg)
    assert len(res.times) == 301
    _public_rhs_replay(res, seq, leader, gains, sched, estimates, cfg)


def test_input_bound_violation_propagates(digraph1, cascade):
    leader = ptobs.LeaderModel(
        order=3,
        input_fn=ptobs.input_by_name("sine", 1.0, 0.5),
        input_bound=0.1,
        initial_state=[1.0, 0.0, 0.0],
    )
    gains = ptobs.ObserverGains(alpha=1.05, beta=5.692, sigma=0.125)
    cfg = ptobs.SimConfig(t0=0.0, t_end=0.5, dt=1e-3, guard=1e-2)
    with pytest.raises(InputBoundViolated):
        ptobs.run(
            ptobs.TopologySequence.static(digraph1, 0.0), leader, gains, cascade,
            INITIAL_ESTIMATES, cfg,
        )


def test_sim_config_validation():
    with pytest.raises(DimensionMismatch):
        ptobs.SimConfig(t0=0.0, t_end=1.0, dt=1e-3, guard=1e-4)  # guard < dt
    with pytest.raises(DimensionMismatch):
        ptobs.SimConfig(t0=0.0, t_end=0.0, dt=1e-3)
    with pytest.raises(DimensionMismatch):
        ptobs.SimConfig(t0=0.0, t_end=1.0, dt=1e-3, method="rk45")


def test_switching_requires_common_H(digraph1, digraph2, sine_leader, cascade):
    seq = ptobs.TopologySequence(
        topologies=(digraph1, digraph2), schedule=((0.0, 1), (0.1, 2))
    )
    gains = ptobs.ObserverGains(alpha=1.05, beta=5.692, sigma=0.125)
    cfg = ptobs.SimConfig(t0=0.0, t_end=0.3, dt=1e-3, guard=1e-2)
    with pytest.raises(DimensionMismatch):
        ptobs.run(seq, sine_leader, gains, cascade, INITIAL_ESTIMATES, cfg)


def test_run_validates_estimates(digraph1, sine_leader, cascade):
    gains = ptobs.ObserverGains(alpha=1.0, beta=1.0, sigma=0.125)
    cfg = ptobs.SimConfig(t0=0.0, t_end=0.1, dt=1e-3, guard=1e-2)
    seq = ptobs.TopologySequence.static(digraph1, 0.0)
    with pytest.raises(DimensionMismatch):
        ptobs.run(seq, sine_leader, gains, cascade, np.zeros((2, 3)), cfg)
    bad = INITIAL_ESTIMATES.copy()
    bad[0, 0] = np.inf
    with pytest.raises(DimensionMismatch):
        ptobs.run(seq, sine_leader, gains, cascade, bad, cfg)


def test_nan_leader_input_violates_bound(digraph1, cascade):
    leader = ptobs.LeaderModel(
        order=3,
        input_fn=ptobs.input_by_name("constant", np.nan),
        input_bound=0.125,
        initial_state=[1.0, 0.0, 0.0],
    )
    with pytest.raises(InputBoundViolated):
        leader_rhs(leader, leader.initial_state, 0.0)
    gains = ptobs.ObserverGains(alpha=1.05, beta=5.692, sigma=0.125)
    cfg = ptobs.SimConfig(t0=0.0, t_end=0.1, dt=1e-3, guard=1e-2)
    with pytest.raises(InputBoundViolated):
        ptobs.run(
            ptobs.TopologySequence.static(digraph1, 0.0), leader, gains, cascade,
            INITIAL_ESTIMATES, cfg,
        )


@pytest.mark.parametrize(
    "field, value",
    [
        ("t0", np.nan), ("t_end", np.inf), ("t_end", np.nan), ("dt", np.nan), ("dt", np.inf),
        ("guard", np.inf), ("guard", np.nan), ("sign_smoothing", np.nan),
        ("sign_smoothing", 0.0), ("convergence_tolerance", np.nan),
        ("convergence_tolerance", np.inf), ("divergence_threshold", np.nan),
    ],
)
def test_sim_config_rejects_non_finite(field, value):
    settings = dict(t0=0.0, t_end=1.0, dt=1e-3, guard=1e-2)
    settings[field] = value
    with pytest.raises(DimensionMismatch):
        ptobs.SimConfig(**settings)


@pytest.mark.parametrize("bound, x0", [(np.nan, 0.0), (np.inf, 0.0), (0.1, np.nan), (0.1, np.inf)])
def test_leader_model_rejects_non_finite(bound, x0):
    with pytest.raises(DimensionMismatch):
        ptobs.LeaderModel(
            order=2, input_fn=ptobs.input_by_name("zero"), input_bound=bound,
            initial_state=[x0, 0.0],
        )
