import dataclasses
import functools
import re

import numpy as np
import pytest

import ptobs
from ptobs.errors import DimensionMismatch, Diverged, InputBoundViolated
from ptobs.observer import _gain_rows, dpto_rhs, leader_rhs, local_errors
from ptobs.config import load_experiment
from ptobs.gain import varsigma
from ptobs.sim import _GAIN_BLOCK, _block_rows, _plan, decay_budget, detect_convergence
from ptobs.trace import TraceData
from conftest import BUNDLED_CONFIG, ETA, INITIAL_ESTIMATES, perfbench_workloads, traced_peak
from oracles import reference_rk4


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
        switch_times=[round(0.1 * i, 10) for i in range(4)],
        indices=[1 + i % 2 for i in range(4)],
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
        switch_times=switch_times,
        indices=[1 + i % 2 for i in range(len(switch_times))],
        common_H=ETA,
    )
    gains = ptobs.ObserverGains(alpha=1.05, beta=5.692, sigma=0.125)
    cfg = ptobs.SimConfig(t0=0.0, t_end=0.65, dt=1e-4, guard=1e-3, record_stride=10**9)
    res = ptobs.run(seq, sine_leader, gains, cascade, INITIAL_ESTIMATES, cfg)
    grid = np.sort(res.times)
    for b in cascade.boundaries():
        assert b in set(grid.tolist())  # stage boundaries hit with their exact float
    for t in seq.switch_times.tolist():
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
            topologies=(digraph1, digraph2), switch_times=[0.0, switch], indices=[1, 2], common_H=ETA
        )
        return ptobs.run(seq, leader, gains, cascade, np.full((3, 3), 0.5), cfg)

    exact, near = run(0.2), run(0.2 + offset)
    for field in dataclasses.fields(exact):  # the event log too: the switch is logged at 0.2
        a, b = getattr(exact, field.name), getattr(near, field.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, field.name
    after = near.times >= 0.2  # psi from t = 0.2 on is digraph 2's
    L0 = ptobs.sub_laplacian(digraph2)
    assert np.array_equal(near.local_errors[after], np.matmul(L0, near.estimate_errors[after]))


def test_switch_cluster_that_cancels_out_logs_no_switch(digraph1, digraph2, cascade):
    # The switch back to topology 1 merges into the switch at 0.3 and wins, so
    # topology 1 runs throughout and the log names no switch.
    leader = _zero_leader(3, x0=np.array([1.0, 0.0, 0.0]))
    gains = ptobs.ObserverGains(alpha=1.05, beta=5.692, sigma=0.125)
    cfg = ptobs.SimConfig(t0=0.0, t_end=1.0, dt=1e-3, record_stride=1)
    seq = ptobs.TopologySequence(
        topologies=(digraph1, digraph2),
        switch_times=[0.0, 0.3, 0.3 + 4e-13], indices=[1, 2, 1],
        common_H=ETA,
    )
    res = ptobs.run(seq, leader, gains, cascade, np.full((3, 3), 0.5), cfg)
    assert not [label for _, label in res.event_log if label.startswith("switch")]
    L0 = ptobs.sub_laplacian(digraph1)
    assert np.array_equal(res.local_errors, np.matmul(L0, res.estimate_errors))


def test_switch_at_negative_zero_is_logged_at_the_plan_point():
    # The plan's point for an event at -0.0 is 0 * dt + (-0.0) = +0.0, and
    # the event log names that point: the switch times compare by their bits.
    overrides = ["cascade.t0=-1", "switching.schedule=-1:1 -0:2 0.5:1",
                 "sim.dt=1e-3", "sim.guard=1e-2", "sim.t_end=0.7"]
    exp = load_experiment(str(BUNDLED_CONFIG), overrides)
    assert exp.sequence.switch_times[1].hex() == "-0x0.0p+0"
    res = ptobs.run(exp.sequence, exp.leader, exp.gains, exp.sched, exp.initial_estimates, exp.sim)
    switches = [(t.hex(), label) for t, label in res.event_log if label.startswith("switch")]
    assert switches == [("0x0.0p+0", "switch to topology 2"), ("0x1.0000000000000p-1", "switch to topology 1")]
    assert [t.hex() for t in res.times.tolist() if t == 0.0] == ["0x0.0p+0"]


def test_switching_degenerate_p1_bit_identical(digraph1, sine_leader, cascade):
    gains = ptobs.ObserverGains(alpha=1.05, beta=5.692, sigma=0.125)
    cfg = ptobs.SimConfig(t0=0.0, t_end=0.5, dt=1e-4, guard=1e-3)
    static = ptobs.TopologySequence.static(digraph1, 0.0)
    noop = ptobs.TopologySequence(
        topologies=(digraph1,),
        switch_times=[round(0.1 * i, 10) for i in range(5)],
        indices=[1] * 5,
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


def test_detect_convergence_nan_is_outside_the_band():
    times = np.array([0.0, 1.0, 2.0])
    errors = np.zeros((3, 2, 1))
    errors[2, 1, 0] = np.nan
    assert detect_convergence(times, errors, 0.01) == [None]
    errors[2, 1, 0], errors[1, 0, 0] = 0.0, np.nan
    assert detect_convergence(times, errors, 0.01) == [2.0]
    with pytest.raises(DimensionMismatch, match="^tolerance must be positive$"):
        detect_convergence(times, np.zeros((3, 2, 1)), np.nan)


def test_decay_budget_at_window_start(static_run):
    analysis, gains, cfg, res = static_run
    sched = ptobs.CascadeSchedule(t0=0.0, stage_durations=(0.2, 0.2, 0.2), exponent=2.01)
    assert decay_budget(analysis, gains, sched, 3, 0.7, 0.0, cfg.guard) == pytest.approx(0.7)
    assert decay_budget(analysis, gains, sched, 3, 0.0, 0.15, cfg.guard) == 0.0


def test_decay_budget_saturates_where_varsigma_does(static_run):
    # The envelopes of `ptobs run` at gains.beta=0 with cascade.exponent=200,
    # and at sim.guard=1e300: varsigma overflows (budget 0) or underflows to 0
    # (budget inf, or 0 for a zero V at the window start).
    analysis, gains, cfg, res = static_run
    sched = ptobs.CascadeSchedule(t0=0.0, stage_durations=(0.2, 0.2, 0.2), exponent=2.01)
    steep = dataclasses.replace(sched, exponent=200.0)
    assert decay_budget(analysis, gains, steep, 3, 0.7, 0.1999, 1e-3) == 0.0
    assert decay_budget(analysis, gains, sched, 3, 0.7, 0.1, 1e300) == np.inf
    assert decay_budget(analysis, gains, sched, 3, 0.0, 0.1, 1e300) == 0.0
    # An array of t is the scalar form at each sample, in t's shape; the samples
    # cover both windows' edges, the overflow (exponent 200) and guard 1e300.
    t = np.array([[0.0, 0.1, 0.1999], [0.19999999, 0.2, 0.65]])
    for k in (1, 2, 3):
        for V0 in (0.7, 0.0):
            for schedule, guard in ((sched, cfg.guard), (steep, 1e-3), (sched, 1e300)):
                got = decay_budget(analysis, gains, schedule, k, V0, t, guard)
                assert got.shape == (2, 3)
                assert got.tolist() == [
                    [decay_budget(analysis, gains, schedule, k, V0, s, guard) for s in row]
                    for row in t.tolist()
                ]
    assert 0.0 in decay_budget(analysis, gains, steep, 3, 0.7, t, 1e-3)
    assert np.inf in decay_budget(analysis, gains, sched, 3, 0.7, t, 1e300)


def test_decay_budget_rejects_a_stage_out_of_range(static_run):
    analysis, gains, cfg, res = static_run
    sched = ptobs.CascadeSchedule(t0=0.0, stage_durations=(0.2, 0.2, 0.2), exponent=2.01)
    for stage in (0, 4):
        with pytest.raises(DimensionMismatch, match=rf"^stage {stage} out of range \[1, 3\]$"):
            decay_budget(analysis, gains, sched, stage, 1.0, 0.1, cfg.guard)


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
        switch_times=0.0137 * np.arange(50),
        indices=1 + np.arange(50) % 2,
        common_H=ETA,
    )
    gains = ptobs.ObserverGains(alpha=1.05, beta=5.692, sigma=0.125)
    cfg = ptobs.SimConfig(t0=0.0, t_end=0.65, dt=1e-4, guard=1e-3, record_stride=7)
    res = ptobs.run(seq, sine_leader, gains, cascade, INITIAL_ESTIMATES, cfg)
    analyses = seq.analyses()
    worst = min(analyses, key=lambda a: a.lambda_min)
    c = 2.0 * gains.alpha * worst.lambda_min / worst.max_weight
    windows = {k: cascade.window(k) for k in (1, 2, 3)}
    baseline_index = {k: np.flatnonzero(res.times == w.start)[0] for k, w in windows.items()}
    for s, t in enumerate(res.times.tolist()):
        active = analyses[seq.active_index(t) - 1]
        for k in (1, 2, 3):
            psi = res.local_errors[s, :, k - 1]
            # Row-by-row sum in Python floats: the old per-sample recorder's order.
            assert res.lyapunov[s, k - 1] == 0.5 * sum(
                w * p * p for w, p in zip(active.rho.tolist(), psi.tolist())
            )
        k = min(k for k in (1, 2, 3) if windows[k].start <= t)
        w, V0 = windows[k], res.lyapunov[baseline_index[k], k - 1]
        # The envelope written out: Python's pow for varsigma^-2, numpy's exp.
        budget = varsigma(w, t, cfg.guard) ** -2.0 * np.exp(-c * (t - w.start)) * V0
        assert res.decay_bound[s] == budget
        assert decay_budget(worst, gains, cascade, k, V0, t, cfg.guard) == budget


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
    with pytest.raises(Diverged) as info:  # and no numpy warning
        ptobs.run(
            ptobs.TopologySequence.static(digraph1, 0.0), leader, gains, cascade,
            INITIAL_ESTIMATES, cfg,
        )
    assert info.value.time == pytest.approx(when, abs=1e-12)


def test_divergence_from_finite_slopes_reports_step_end():
    # rk4 at h = 10 on e' = -e (one pinned follower, gain 1, zero leader) has
    # stage inputs -4, 21 and -209 times the state and a step that multiplies
    # it by 291.  From 7e305 every stage input and slope is finite (|k4| =
    # 1.46e308) but the weighted stage sum overflows, so the first step's state
    # turns non-finite from finite slopes and the run reports the step's end,
    # with no threshold to stop it first.
    topo = ptobs.DirectedTopology(adjacency=[[0.0]], pinning=[1.0])
    sched = ptobs.CascadeSchedule(t0=0.0, stage_durations=(20.0,), exponent=2.01)
    gains = ptobs.ObserverGains(alpha=1.0, beta=0.0, sigma=0.0)
    cfg = ptobs.SimConfig(t0=0.0, t_end=20.0, dt=10.0, method="rk4", divergence_threshold=np.inf)
    y = 7e305
    assert max(abs(c) * y for c in (-4.0, 21.0, -209.0)) < np.finfo(float).max < 291.0 * y
    with pytest.raises(Diverged) as info:  # and no numpy warning
        ptobs.run(
            ptobs.TopologySequence.static(topo, 0.0), _zero_leader(1, x0=np.zeros(1), bound=0.0),
            gains, sched, np.array([[y]]), cfg,
        )
    assert info.value.time == 10.0


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("scale", [1.0, 1e154, 1e-160, 1e-170])
def test_divergence_threshold_boundary_is_exact(digraph1, cascade, method, scale):
    # The loop pre-checks sum(z^2) < thr^2 and runs the exact max |Z| test only
    # when that fails, so a run must stop exactly where the exact test says.  A
    # zero leader without input keeps x0 = 0, so the recorded errors are the
    # estimates and each step's max |Z| is known exactly.  At the scales
    # 1e154, 1e-160 and 1e-170 the squares overflow, turn subnormal and
    # underflow to 0; so do the squares of the thresholds 1e200, 1e-160, 1e-170.
    leader = _zero_leader(3, x0=np.zeros(3), bound=0.0)
    gains = ptobs.ObserverGains(alpha=1.05, beta=5.692, sigma=0.0)
    seq = ptobs.TopologySequence.static(digraph1, 0.0)

    def run(threshold):
        cfg = ptobs.SimConfig(
            t0=0.0, t_end=0.3, dt=1e-3, method=method, guard=1e-2, record_stride=1,
            divergence_threshold=threshold,
        )
        with np.errstate(over="ignore"):  # at scale 1e154 the recorded V overflows
            return ptobs.run(seq, leader, gains, cascade, INITIAL_ESTIMATES * scale, cfg)

    ref = run(np.inf)
    assert not ref.leader_states.any()
    peaks = np.max(np.abs(ref.estimate_errors), axis=(1, 2))
    peak, first = peaks.max(), int(np.argmax(peaks))
    assert first > 0  # the initial state is not checked; the peak comes later

    assert np.array_equal(run(peak).estimate_errors, ref.estimate_errors)
    with pytest.raises(Diverged) as info:
        run(np.nextafter(peak, 0.0))
    assert info.value.time == ref.times[first]

    for threshold in (1e200, 1e-160, 1e-170):
        over = np.flatnonzero(peaks[1:] > threshold)  # the exact test, step by step
        if over.size == 0:
            assert np.array_equal(run(threshold).estimate_errors, ref.estimate_errors)
        else:
            with pytest.raises(Diverged) as info:
                run(threshold)
            assert info.value.time == ref.times[over[0] + 1]


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
            # The loop's stage sum: one dot of the weights with k1..k4, each
            # flattened as N leader copies stacked over the estimates.
            ks = np.array([np.vstack([np.tile(kx, (len(E), 1)), kE]).ravel() for kx, kE in (k1, k2, k3, k4)])
            T = np.array([h / 6.0, h / 3.0, h / 3.0, h / 6.0]).dot(ks).reshape(-1, len(x0))
            x0 = x0 + T[len(E) - 1]
            E = E + T[len(E):]
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


@pytest.mark.parametrize("case", ["static", "switching", "smoothing", "euler", *_SWEEP, "switch-every-0.0137"])
def test_integrator_matches_public_rhs_exactly(digraph1, digraph2, sine_leader, cascade, case):
    leader, sched, estimates = sine_leader, cascade, INITIAL_ESTIMATES
    gains = ptobs.ObserverGains(alpha=1.05, beta=5.692, sigma=0.125)
    method = "euler" if "euler" in case else "rk4"
    smoothing = 0.05 if "smooth" in case else None
    if case == "switching":
        seq = ptobs.TopologySequence(
            topologies=(digraph1, digraph2),
            switch_times=[round(0.05 * i, 10) for i in range(7)],
            indices=[1 + i % 2 for i in range(7)],
            common_H=ETA,
        )
    elif case == "switch-every-0.0137":
        # Off-grid switches shorten the step before each one, and those steps'
        # h differ in the last ulp: the loop's reused h/2, h, h/6 must follow.
        seq = ptobs.TopologySequence(
            topologies=(digraph1, digraph2),
            switch_times=0.0137 * np.arange(22),
            indices=1 + np.arange(22) % 2,
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
    if case == "switch-every-0.0137":
        h = np.diff(res.times)
        assert len(res.times) > 301 and len(set(h[h < 9e-4].tolist())) > 4
    else:
        assert len(res.times) == 301
    _public_rhs_replay(res, seq, leader, gains, sched, estimates, cfg)


@pytest.mark.parametrize("case", ["bundled-switch-every-0.005", "smoothing", "wide-7"])
def test_run_matches_the_reference_stepper(tmp_path, case):
    # The exact replay above shares _gain_rows with the loop; reference_rk4
    # shares no code with either, so it also checks which gain each stage reads.
    overrides = ["sim.t_end=0.02", "sim.record_stride=1"]
    if case == "wide-7":
        path = tmp_path / "wide.cfg"
        path.write_text(perfbench_workloads().wide_config(5, 0, 7)[2])
    else:
        path = BUNDLED_CONFIG
        overrides += ["switching.period=0.005"] + (["sim.sign_smoothing=0.05"] if case == "smoothing" else [])
    exp = load_experiment(str(path), overrides)
    seq, cfg = exp.sequence, exp.sim
    gains = exp.gains or ptobs.synthesize_gains(seq.analyses(), exp.leader.input_bound, exp.margins)
    res = ptobs.run(seq, exp.leader, gains, exp.sched, exp.initial_estimates, cfg)
    grid, topo, _ = _plan(cfg, exp.sched, seq)[:3]
    assert np.array_equal(res.times, grid) and grid.size == 201
    x0, E = reference_rk4(grid.tolist(), [seq.topologies[j] for j in topo[:-1].tolist()], exp.leader,
                          gains, exp.sched, cfg.guard, exp.initial_estimates, cfg.sign_smoothing)
    for got, want in ((res.leader_states, x0), (res.estimate_errors, E - x0[:, None, :])):
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


@functools.cache
def _smoothed_bundled_runs():
    # The bundled config with sign smoothing 0.05 and guard 1e-2 to t = 0.25
    # at dt 1e-4, 5e-5, 2.5e-5 and the reference 6.25e-6; a record stride
    # of 100 keeps t = 0.19 in each.
    return [
        ptobs.run(*_bundled_args("sim.sign_smoothing=0.05", "sim.guard=1e-2", "sim.t_end=0.25",
                                 f"sim.dt={dt}", "sim.record_stride=100"))
        for dt in (1e-4, 5e-5, 2.5e-5, 6.25e-6)
    ]


def _error_ratios_per_halving(t):
    # The largest estimate-error change from the reference run at time t, as
    # the ratio of each dt's to the next (half as long).
    *runs, ref = _smoothed_bundled_runs()

    def at(res):
        i = int(np.abs(res.times - t).argmin())
        assert abs(res.times[i] - t) <= 1e-12
        return res.estimate_errors[i]

    errors = [np.max(np.abs(at(res) - at(ref))) for res in runs]
    return [a / b for a, b in zip(errors, errors[1:])]


def test_rk4_order_before_any_window_end():
    # t = 0.19 lies before the first window end (0.2), so no step has crossed a
    # gain jump: 3.55e-12, 4.31e-13 and 5.08e-14, ratios 8.24 and 8.48.
    assert min(_error_ratios_per_halving(0.19)) >= 6.0


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 15: the step that ends on a window end reads the next segment's gain in its "
    "last stage, so rk4 is first order across it (ratios 2.14 and 2.33)"))
def test_rk4_order_across_a_window_end():
    assert min(_error_ratios_per_halving(0.25)) >= 6.0


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


def _input_from(t_bad, value=1.0):
    # A leader input of time alone (t is its last argument): value from t_bad on, else 0.
    return lambda *args: value if args[-1] >= t_bad else 0.0


def _bundled_args(*overrides):
    exp = load_experiment(str(BUNDLED_CONFIG), list(overrides))
    return [exp.sequence, exp.leader, exp.gains, exp.sched, exp.initial_estimates, exp.sim]


def _plan_grid(args):
    seq, _, _, sched, _, cfg = args
    return _plan(cfg, sched, seq)[0]


def _block_steps(method):
    # The steps of one bundled gain block: _GAIN_BLOCK doubles of rows of
    # N (n + 2) = 15, two rows a step for rk4 (t + h/2, t + h), one for euler.
    return _GAIN_BLOCK // ((2 if method == "rk4" else 1) * 15)


@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_input_past_its_bound_from_a_gain_block_end_raises_there(method):
    # rk4 reads the first gain block's last point as its last step's end,
    # euler as the next block's first step start.
    args = _bundled_args("sim.t_end=0.3", f"sim.method={method}")
    t_bad = _plan_grid(args)[_block_steps(method)]
    args[1] = dataclasses.replace(args[1], input_fn=_input_from(t_bad))
    message = f"|f0| = 1 exceeds declared bound 0.125 at t={t_bad:.6g}"
    with pytest.raises(InputBoundViolated, match=f"^{re.escape(message)}$"):
        ptobs.run(*args)


@pytest.mark.parametrize("block_ends_there", [False, True])
def test_input_past_its_bound_in_the_diverging_step_raises_first(monkeypatch, block_ends_there):
    # beta 600 at guard 1e-4 diverges at a step's end.  An input that leaves
    # its bound at that end is read by the step's stage 4, before its update;
    # one that leaves it later comes second.
    args = _bundled_args("gains.beta=600", "sim.guard=1e-4")
    with pytest.raises(Diverged) as diverged:
        ptobs.run(*args)
    t_end = diverged.value.time
    if block_ends_there:  # rk4 blocks of the steps up to t_end: 2 rows of 15 doubles each
        monkeypatch.setattr(ptobs.sim, "_GAIN_BLOCK", 2 * 15 * int(_plan_grid(args).searchsorted(t_end)))
    leader = args[1]
    args[1] = dataclasses.replace(leader, input_fn=_input_from(t_end))
    with pytest.raises(InputBoundViolated, match=re.escape(f"at t={t_end:.6g}")):
        ptobs.run(*args)
    args[1] = dataclasses.replace(leader, input_fn=_input_from(np.nextafter(t_end, np.inf)))
    with pytest.raises(Diverged) as diverged:
        ptobs.run(*args)
    assert diverged.value.time == t_end


@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_block_rows_are_the_gain_rows_at_each_read_time(method):
    # The bundled gain block that holds stage 3's window end, where the gain
    # jumps: step i reads rows[0][i], rows[1][i] and rows[2][i], which are
    # _gain_rows at its t, t + h/2 and t + h (euler reads only the first).
    args = _bundled_args("sim.t_end=0.3", f"sim.method={method}")
    _, leader, gains, sched, _, cfg = args
    grid, block, rk4 = _plan_grid(args), _block_steps(method), method == "rk4"
    P0 = grid.searchsorted(sched.window(3).end) // block * block
    ts = grid[P0 : P0 + block + 1]
    rows, stop, bad = _block_rows(leader, gains, sched, cfg.guard, ts, 3, rk4)
    assert (stop, bad) == (block, None)
    ts = ts.tolist()
    reads = list(zip(ts, [t + 0.5 * (tn - t) for t, tn in zip(ts, ts[1:])], ts[1:]))
    for j in range(3 if rk4 else 1):
        want = [_gain_rows(gains, sched, cfg.guard, t, np.array([float(leader.input_fn(t))]), 3)
                for t in (r[j] for r in reads)]
        assert len(rows[j]) >= block and np.array_equal(rows[j][:block], want)
    # An input past its bound from step 10's first read of it on: 10 steps run.
    t_bad = reads[10][1 if rk4 else 0]
    leader = dataclasses.replace(leader, input_fn=_input_from(t_bad))
    _, stop, bad = _block_rows(leader, gains, sched, cfg.guard, np.array(ts), 3, rk4)
    assert (stop, bad) == (10, (t_bad, 1.0))


def test_run_samples_the_input_once_per_plan_time():
    # rk4 reads f0 at each step's ends and midpoint, euler at each step's
    # start, and each gain block samples its last point again as the next
    # block's first.
    for method, reads_per_step, block_count in (("rk4", 2, 3), ("euler", 1, 2)):
        args = _bundled_args("sim.t_end=0.25", f"sim.method={method}")
        f0, times = args[1].input_fn, []
        args[1] = dataclasses.replace(args[1], input_fn=lambda *a: times.append(a[-1]) or f0(*a))
        ptobs.run(*args)
        steps = _plan_grid(args).size - 1
        blocks = -(-steps // _block_steps(method))
        assert (steps, blocks) == (2500, block_count)
        assert len(times) <= reads_per_step * steps + blocks, method


def test_sim_config_validation():
    with pytest.raises(DimensionMismatch):
        ptobs.SimConfig(t0=0.0, t_end=1.0, dt=1e-3, guard=1e-4)  # guard < dt
    with pytest.raises(DimensionMismatch):
        ptobs.SimConfig(t0=0.0, t_end=0.0, dt=1e-3)
    with pytest.raises(DimensionMismatch):
        ptobs.SimConfig(t0=0.0, t_end=1.0, dt=1e-3, method="rk45")


def test_switching_requires_common_H(digraph1, digraph2):
    with pytest.raises(DimensionMismatch, match="common_h is required"):
        ptobs.TopologySequence(topologies=(digraph1, digraph2), switch_times=[0.0, 0.1], indices=[1, 2])


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
        ("record_stride", 2.5), ("record_stride", np.nan),
        # t0 and t_end finite, t_end - t0 not (dt and guard fit that span).
        ("span", dict(t0=-1e308, t_end=1e308, dt=1e300, guard=1e300)),
    ],
)
def test_sim_config_rejects_non_finite(field, value):
    settings = dict(t0=0.0, t_end=1.0, dt=1e-3, guard=1e-2)
    settings.update(value if field == "span" else {field: value})
    with pytest.raises(DimensionMismatch):
        ptobs.SimConfig(**settings)


@pytest.mark.parametrize("field", ["t0", "dt", "guard", "divergence_threshold"])
def test_sim_config_rejects_a_number_as_a_string(field):
    # SimConfig converts its float settings with float(), which would parse "1e-3".
    settings = dict(t0=0.0, t_end=1.0, dt=1e-3, guard=1e-2)
    with pytest.raises(TypeError):
        ptobs.SimConfig(**{**settings, field: "1e-3"})


@pytest.mark.parametrize("bound, x0", [(np.nan, 0.0), (np.inf, 0.0), (0.1, np.nan), (0.1, np.inf)])
def test_leader_model_rejects_non_finite(bound, x0):
    with pytest.raises(DimensionMismatch):
        ptobs.LeaderModel(
            order=2, input_fn=ptobs.input_by_name("zero"), input_bound=bound,
            initial_state=[x0, 0.0],
        )


def test_run_result_is_the_trace_record():
    # sim.run returns the record read_trace reads and write_trace writes.
    exp = load_experiment(str(BUNDLED_CONFIG), ["sim.t_end=0.05"])
    res = ptobs.run(exp.sequence, exp.leader, exp.gains, exp.sched, exp.initial_estimates, exp.sim)
    assert isinstance(res, TraceData)
    assert (res.follower_count, res.order) == (3, 3)


def test_run_peak_memory_is_about_its_arrays():
    # On the dense-switching overrides (5 001 samples, 5 000 switches) the
    # diagnostics work in place and the plan is gone before they run.
    exp = load_experiment(str(BUNDLED_CONFIG), list(perfbench_workloads().DENSE_OVERRIDES))
    args = (exp.sequence, exp.leader, exp.gains, exp.sched, exp.initial_estimates, exp.sim)
    ptobs.run(*args)  # warm-up: first-call allocations are not the run's
    res, peak = traced_peak(lambda: ptobs.run(*args))
    arrays = sum(getattr(res, f.name).nbytes for f in dataclasses.fields(TraceData))
    assert peak <= 1.85 * arrays, (peak, arrays)
    assert arrays == 5001 * 26 * 8
    assert res.estimate_errors.base is res.leader_states.base  # views of one snapshot buffer


def test_run_peak_memory_on_bundled_is_about_its_arrays():
    # 20 000 steps, 2 001 samples: one gain block's arrays are alive at a time,
    # and each stage's envelope is computed over its own run of samples.
    exp = load_experiment(str(BUNDLED_CONFIG))
    args = (exp.sequence, exp.leader, exp.gains, exp.sched, exp.initial_estimates, exp.sim)
    ptobs.run(*args)  # warm-up: first-call allocations are not the run's
    res, peak = traced_peak(lambda: ptobs.run(*args))
    arrays = sum(getattr(res, f.name).nbytes for f in dataclasses.fields(TraceData))
    assert peak <= 2.5 * arrays, (peak, arrays)
    assert arrays == 2001 * 26 * 8


def test_step_plan_peak_memory_per_point():
    # 200 001 points: 10 bytes each are kept (grid, uint8 topology, record
    # flag), and no full-size integer temporary is built on the way.
    exp = load_experiment(str(BUNDLED_CONFIG), ["sim.t_end=20"])
    cfg = exp.sim
    plan, peak = traced_peak(lambda: _plan(cfg, exp.sched, exp.sequence)[:3])
    points = plan[0].size
    assert peak <= 20 * points, peak / points
    assert points == 200_001
    assert sum(a.nbytes for a in plan) == 10 * points
