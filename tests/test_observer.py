import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ptobs
from ptobs.errors import DimensionMismatch, InfeasibleTopology, InputBoundViolated
from conftest import ETA, INITIAL_ESTIMATES
from oracles import componentwise_dpto, componentwise_psi, random_spanning_topology


def _leader(order, name, *params, bound=1.0, x0=None):
    return ptobs.LeaderModel(
        order=order,
        input_fn=ptobs.input_by_name(name, *params),
        input_bound=bound,
        initial_state=np.zeros(order) if x0 is None else x0,
    )


def test_leader_rhs_zero_input():
    m = _leader(3, "zero", bound=0.0, x0=[1.0, 0.0, 0.0])
    assert ptobs.leader_rhs(m, np.array([1.0, 0.0, 0.0]), 0.0) == pytest.approx([0, 0, 0])


def test_leader_rhs_reference_case(sine_leader):
    assert ptobs.leader_rhs(sine_leader, np.array([1.0, 0.0, 0.0]), 0.0) == pytest.approx(
        [0.0, 0.0, 0.0]
    )
    dx = ptobs.leader_rhs(sine_leader, np.array([1.0, 2.0, 3.0]), np.pi)
    assert dx == pytest.approx([2.0, 3.0, 0.125 * np.sin(np.pi / 2)])


def test_leader_rhs_chain_structure():
    m = _leader(2, "constant", 0.7, bound=0.7, x0=[0.0, 0.0])
    assert ptobs.leader_rhs(m, np.array([3.0, -2.0]), 1.0) == pytest.approx([-2.0, 0.7])


def test_leader_rhs_bound_monitor():
    m = _leader(1, "constant", 0.5, bound=0.1)
    with pytest.raises(InputBoundViolated):
        ptobs.leader_rhs(m, np.array([0.0]), 0.0)


def test_input_by_name_unknown():
    with pytest.raises(DimensionMismatch):
        ptobs.input_by_name("ramp")


def test_local_errors_zero_at_exact_estimation(digraph1):
    a = ptobs.build_analysis(digraph1)
    x0 = np.array([1.0, -2.0, 0.5])
    estimates = np.tile(x0, (3, 1))
    assert np.max(np.abs(ptobs.local_errors(a, estimates, x0))) == 0.0


def test_local_errors_scalar_case():
    a = ptobs.build_analysis(ptobs.DirectedTopology(adjacency=[[0.0]], pinning=[1.0]))
    psi = ptobs.local_errors(a, np.array([[1.3]]), np.array([0.8]))
    assert np.allclose(psi, [[0.5]])


def test_local_errors_reference_initial_state(digraph1):
    # displacement stage at t = 0: errors (-0.6, -0.2, -0.4), psi_1 = L0 @ that
    a = ptobs.build_analysis(digraph1)
    psi = ptobs.local_errors(a, INITIAL_ESTIMATES, np.array([1.0, 0.0, 0.0]))
    assert psi[:, 0] == pytest.approx([-0.8, 0.4, -0.2])


def test_psi_matches_componentwise_definition():
    rng = np.random.default_rng(23)
    for _ in range(30):
        topo = random_spanning_topology(rng)
        a = ptobs.build_analysis(topo)
        N = topo.follower_count
        n = int(rng.integers(1, 4))
        estimates = rng.normal(size=(N, n))
        x0 = rng.normal(size=n)
        psi = ptobs.local_errors(a, estimates, x0)
        assert np.max(np.abs(psi - componentwise_psi(topo, estimates, x0))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2, 3, 5, 40, 120])
def test_kernel_dot_equals_matmul_bit_for_bit(N, n):
    # The integrator's kernel computes psi as L0.dot(D, psi), the dgemm of
    # np.dot, while local_errors and the recorded psi use L0 @ D.  The exact-replay test in
    # test_sim.py replays through the kernel too, so only this test sees the
    # two products disagree on the BLAS this runs on.
    rng = np.random.default_rng(100 * N + n)
    out = np.empty((N, n))
    for _ in range(20):
        A = np.where(rng.random((N, N)) < 0.5, rng.uniform(0.2, 2.0, (N, N)), 0.0)
        np.fill_diagonal(A, 0.0)
        L0 = np.diag(A.sum(axis=1) + rng.uniform(0.0, 2.0, N)) - A
        D = rng.normal(size=(N, n)) * 10.0 ** rng.integers(-6, 7, size=(N, n))
        L0.dot(D, out)
        assert np.array_equal(out, L0 @ D)
        assert np.array_equal(np.dot(L0, D), out)


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("N", [1, 3, 40, 120])
def test_stage_input_dots_equal_the_ufunc_pair(N, n):
    # sim.run forms rk4's stage inputs (h/2) k1 + Z, (h/2) k2 + Z and h k3 + Z
    # as one dot each of (c, 0, ..., 0, 1) with the rows of [K0..K3; Z] from
    # k1, k2 or k3 down to Z; it was multiply(K, c, X) then add(Z, X, X).  With
    # the product first every later term is an exact zero or the final + Z, so
    # the dgemv computes fl(fl(c k) + Z) on the BLAS this runs on; with Z first
    # OpenBLAS fuses c k + Z.  The zero weights meet finite slopes, as in the
    # loop.  Only the sign of a zero may differ: the dgemv starts from +0, so
    # -0.0 + -0.0 gives +0.0 where the ufunc pair gives -0.0.
    rng = np.random.default_rng(1000 * N + n)
    M = (N + 1) * n
    out = np.empty(M)
    signed_zeros = 0
    for with_zeros in (False, True):
        for _ in range(25):
            KZ = rng.choice([-1.0, 1.0], (5, M)) * 10.0 ** rng.uniform(-12.0, 12.0, (5, M))
            if with_zeros:
                KZ[rng.random((5, M)) < 0.4] = 0.0
                KZ[rng.random((5, M)) < 0.5] *= -1.0
            h = 10.0 ** rng.uniform(-6.0, -1.0)
            for first, c in ((0, 0.5 * h), (1, 0.5 * h), (2, h)):
                w = np.zeros(5 - first)
                w[0], w[-1] = c, 1.0
                w.dot(KZ[first:], out)
                want = np.add(KZ[4], np.multiply(KZ[first], c))
                if not with_zeros:
                    assert out.tobytes() == want.tobytes()
                    continue
                assert np.array_equal(out, want)
                differ = out.view(np.uint64) != want.view(np.uint64)
                assert not np.signbit(out[differ]).any() and np.signbit(want[differ]).all()
                assert np.all(want[differ] == 0.0) and np.signbit(KZ[4, differ]).all()
                signed_zeros += np.count_nonzero(differ)
    assert signed_zeros > 0  # the zero draws reach the one difference


@pytest.mark.parametrize("scale", [1.0, 1e154, 1e-160, 1e-170])
@pytest.mark.parametrize("N", [3, 40, 120])
def test_divergence_precheck_dot_equals_vdot_bit_for_bit(N, scale):
    # sim.run's divergence pre-check is Zf.dot(Zf) < thr^2 over the flat
    # state; it was np.vdot(Zf, Zf).  Both are BLAS ddot.  Scales 1e154 and
    # 1e-160 / 1e-170 put the squares past overflow and into the subnormals.
    rng = np.random.default_rng(N)
    thr2 = 1e9 * 1e9
    with np.errstate(over="ignore", invalid="ignore"):  # as around the loop
        for _ in range(20):
            x = rng.normal(size=(N + 1) * 3) * scale
            assert x.dot(x).tobytes() == np.vdot(x, x).tobytes()
            for bad in (np.inf, -np.inf, np.nan):
                y = x.copy()
                y[rng.integers(y.size)] = bad
                assert not y.dot(y) < thr2 and not np.vdot(y, y) < thr2


@pytest.mark.parametrize("smoothing", [None, 0.05])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("N", [1, 4, 40])
def test_dpto_rhs_matches_componentwise_formula(N, n, smoothing):
    # The kernel keeps psi and the top-stage sign in one buffer and multiplies
    # it by one extended gain row; the exact-replay tests in test_sim.py run
    # that kernel on both sides, so only an independent formula sees a layout
    # error such as -sigma in the wrong slot.
    rng = np.random.default_rng(1000 * N + 10 * n + (smoothing is not None))
    A = np.where(rng.random((N, N)) < 0.5, rng.uniform(0.2, 2.0, (N, N)), 0.0)
    np.fill_diagonal(A, 0.0)
    topo = ptobs.DirectedTopology(adjacency=A, pinning=rng.uniform(0.5, 1.5, N))
    a = ptobs.build_analysis(topo)
    sched = ptobs.CascadeSchedule(t0=0.0, stage_durations=(0.2,) * n, exponent=2.01)
    gains = ptobs.ObserverGains(alpha=1.05, beta=5.692, sigma=0.75)
    for t in (0.0, 0.13, 0.2 * n - 0.05, 0.2 * n + 1.0):
        g = [gains.alpha + gains.beta * ptobs.stage_gain(sched, k, t, 1e-3) for k in range(1, n + 1)]
        estimates, x0 = rng.normal(size=(N, n)), rng.normal(size=n)
        d = ptobs.dpto_rhs(a, gains, sched, 1e-3, estimates, x0, t, sign_smoothing=smoothing)
        ref = componentwise_dpto(topo, g, gains.sigma, estimates, x0, smoothing)
        assert np.max(np.abs(d - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=300, deadline=None)
@given(
    N=st.integers(1, 5), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
    leader_exp=st.floats(-3.0, 8.0), error_exp=st.floats(-12.0, 0.0),
    sigma=st.floats(0.0, 1.0), t=st.floats(0.0, 0.7), smoothing=st.sampled_from([None, 0.05]),
)
@example(N=5, n=3, seed=0, leader_exp=8.0, error_exp=-12.0, sigma=1.0, t=0.59, smoothing=None)
def test_dpto_rhs_precision_far_from_the_origin(N, n, seed, leader_exp, error_exp, sigma, t, smoothing):
    # The kernel's psi is one dot of [-L0 1 | L0] with [x0; estimates], so it
    # rounds at the scale of x0, ||L0|| max |x0| eps, where the per-component
    # formula subtracts first.  That is the precision at which the state
    # stores the estimates, so the derivative may differ by at most its slope
    # in psi (max g, plus sigma / smoothing for the smoothed sign) times that,
    # plus rounding at the result's own scale.  C = 8: over 26 000 random
    # draws of this kind the worst ratio was 2.24.  Where the formula's psi_n
    # lies within that noise of 0, the hard sign may read -1, 0 or 1.
    C, eps = 8.0, np.finfo(float).eps
    rng = np.random.default_rng(seed)
    A = np.where(rng.random((N, N)) < 0.5, rng.uniform(0.2, 2.0, (N, N)), 0.0)
    np.fill_diagonal(A, 0.0)
    topo = ptobs.DirectedTopology(adjacency=A, pinning=rng.uniform(0.5, 1.5, N))
    a = ptobs.build_analysis(topo)
    x0 = rng.uniform(-1.0, 1.0, n) * 10.0**leader_exp
    estimates = x0 + rng.normal(size=(N, n)) * 10.0**error_exp
    sched = ptobs.CascadeSchedule(t0=0.0, stage_durations=(0.2,) * n, exponent=2.01)
    gains = ptobs.ObserverGains(alpha=1.05, beta=5.692, sigma=sigma)
    g = [gains.alpha + gains.beta * ptobs.stage_gain(sched, k, t, 1e-3) for k in range(1, n + 1)]
    d = ptobs.dpto_rhs(a, gains, sched, 1e-3, estimates, x0, t, sign_smoothing=smoothing)
    ref = componentwise_dpto(topo, g, sigma, estimates, x0, smoothing)
    slope = max(g) + (0.0 if smoothing is None else sigma / smoothing)
    noise = np.abs(a.sub_laplacian).sum(axis=1).max() * np.abs(x0).max()  # ||L0||_inf max |x0|
    diff = np.abs(d - ref)
    if smoothing is None:
        psi_n = componentwise_psi(topo, estimates, x0)[:, -1]
        undecided = np.abs(psi_n) <= C * eps * noise
        either = ref[:, -1, None] + sigma * (np.sign(psi_n)[:, None] - np.array([-1.0, 0.0, 1.0]))
        diff[undecided, -1] = np.abs(d[:, -1, None] - either).min(axis=1)[undecided]
    assert diff.max() <= C * eps * (slope * noise + np.abs(ref).max())


def test_dpto_rhs_tracks_once_converged(digraph1, cascade):
    a = ptobs.build_analysis(digraph1)
    gains = ptobs.ObserverGains(alpha=1.05, beta=5.692, sigma=0.125)
    x0 = np.array([0.3, -1.2, 2.0])
    estimates = np.tile(x0, (3, 1))
    d = ptobs.dpto_rhs(a, gains, cascade, 1e-3, estimates, x0, 0.05)
    assert d[:, 0] == pytest.approx([x0[1]] * 3)
    assert d[:, 1] == pytest.approx([x0[2]] * 3)
    assert d[:, 2] == pytest.approx([0.0] * 3)  # sign(0) = 0 kills the sliding term


def test_dpto_rhs_single_follower_constant_gain_regime():
    topo = ptobs.DirectedTopology(adjacency=[[0.0]], pinning=[1.0])
    a = ptobs.build_analysis(topo)
    sched = ptobs.CascadeSchedule(t0=0.0, stage_durations=(0.2,), exponent=2.01)
    gains = ptobs.ObserverGains(alpha=1.0, beta=5.0, sigma=0.125)
    # t outside every window: only alpha and the sliding term act
    d = ptobs.dpto_rhs(a, gains, sched, 1e-3, np.array([[0.5]]), np.array([0.0]), 1.0)
    assert d[0, 0] == pytest.approx(-0.125 - 1.0 * 0.5)


def test_dpto_rhs_reference_at_start(digraph1, cascade):
    a = ptobs.mirror_with_H(digraph1, ETA)
    gains = ptobs.ObserverGains(alpha=1.05, beta=5.692, sigma=0.125)
    x0 = np.array([1.0, 0.0, 0.0])
    d = ptobs.dpto_rhs(a, gains, cascade, 1e-3, INITIAL_ESTIMATES, x0, 0.0)
    assert np.all(np.isfinite(d))
    psi = ptobs.local_errors(a, INITIAL_ESTIMATES, x0)
    ratio3 = 2.01 / 0.2  # stage 3 window just opened; stages 1, 2 still alpha-only
    assert d[:, 0] == pytest.approx(INITIAL_ESTIMATES[:, 1] - 1.05 * psi[:, 0])
    assert d[:, 1] == pytest.approx(INITIAL_ESTIMATES[:, 2] - 1.05 * psi[:, 1])
    assert d[:, 2] == pytest.approx(
        -0.125 * np.sign(psi[:, 2]) - (1.05 + 5.692 * ratio3) * psi[:, 2]
    )


def test_dpto_rhs_results_do_not_share_buffers(digraph1, cascade):
    # A work area reused across calls would let the second call overwrite the
    # first result.
    a = ptobs.build_analysis(digraph1)
    gains = ptobs.ObserverGains(alpha=1.05, beta=5.692, sigma=0.125)
    x0 = np.array([1.0, 0.0, 0.0])
    first = ptobs.dpto_rhs(a, gains, cascade, 1e-3, INITIAL_ESTIMATES, x0, 0.1)
    kept = first.copy()
    second = ptobs.dpto_rhs(a, gains, cascade, 1e-3, -2.0 * INITIAL_ESTIMATES, -x0, 0.5)
    assert np.array_equal(first, kept)
    assert not np.array_equal(first, second)
    assert not np.shares_memory(first, second)


def test_dpto_rhs_beta_monotonicity(digraph1, cascade):
    a = ptobs.build_analysis(digraph1)
    x0 = np.array([1.0, 0.0, 0.0])
    t = 0.1  # inside stage 3's window
    psi = ptobs.local_errors(a, INITIAL_ESTIMATES, x0)
    low = ptobs.dpto_rhs(
        a, ptobs.ObserverGains(alpha=1.0, beta=2.0, sigma=0.1), cascade, 1e-3,
        INITIAL_ESTIMATES, x0, t,
    )
    high = ptobs.dpto_rhs(
        a, ptobs.ObserverGains(alpha=1.0, beta=4.0, sigma=0.1), cascade, 1e-3,
        INITIAL_ESTIMATES, x0, t,
    )
    ratio3 = ptobs.stage_gain(cascade, 3, t, 1e-3)
    diff = high[:, 2] - low[:, 2]
    assert diff == pytest.approx(-2.0 * ratio3 * psi[:, 2])
    assert np.all(np.abs(diff[psi[:, 2] != 0]) > 0)


def test_sign_smoothing_changes_only_sliding_term(digraph1, cascade):
    a = ptobs.build_analysis(digraph1)
    gains = ptobs.ObserverGains(alpha=1.0, beta=2.0, sigma=0.5)
    x0 = np.array([1.0, 0.0, 0.0])
    hard = ptobs.dpto_rhs(a, gains, cascade, 1e-3, INITIAL_ESTIMATES, x0, 0.1)
    soft = ptobs.dpto_rhs(
        a, gains, cascade, 1e-3, INITIAL_ESTIMATES, x0, 0.1, sign_smoothing=1e-2
    )
    psi = ptobs.local_errors(a, INITIAL_ESTIMATES, x0)
    assert hard[:, :2] == pytest.approx(soft[:, :2])
    expected = 0.5 * (np.sign(psi[:, 2]) - psi[:, 2] / (np.abs(psi[:, 2]) + 1e-2))
    assert (soft[:, 2] - hard[:, 2]) == pytest.approx(expected)


def test_synthesize_scalar_pinned():
    a = ptobs.build_analysis(ptobs.DirectedTopology(adjacency=[[0.0]], pinning=[1.0]))
    g = ptobs.synthesize_gains([a], 0.125, ptobs.GainMargins(alpha=1.0))
    assert (g.alpha, g.beta, g.sigma) == (1.0, 1.0, 0.125)


def test_synthesize_unit_factors_equals_bound(digraph1, digraph2):
    analyses = [ptobs.mirror_with_H(digraph1, ETA), ptobs.mirror_with_H(digraph2, ETA)]
    g = ptobs.synthesize_gains(analyses, 0.125, ptobs.GainMargins(alpha=1.05))
    assert g.beta == ptobs.beta_lower_bound(analyses)
    assert g.sigma == 0.125


def test_synthesize_rejects_indefinite():
    fake = ptobs.GraphAnalysis(
        sub_laplacian=np.eye(2),
        rho=np.array([1.0, 1.0]),
        mirror=-np.eye(2),
        lambda_min=-1.0,
        weight_source="user_H",
    )
    with pytest.raises(InfeasibleTopology):
        ptobs.synthesize_gains([fake], 0.1, ptobs.GainMargins(alpha=1.0))


def test_gain_bound_rejects_nan_lambda_min(digraph1):
    # NaN behind a positive lambda_min: min() over Python floats would skip it.
    nan = dataclasses.replace(ptobs.build_analysis(digraph1), lambda_min=float("nan"))
    analyses = [ptobs.build_analysis(digraph1), nan]
    with pytest.raises(InfeasibleTopology, match="not positive"):
        ptobs.synthesize_gains(analyses, 0.1, ptobs.GainMargins(alpha=1.0))
    with pytest.raises(InfeasibleTopology, match="not positive"):
        ptobs.beta_lower_bound(analyses)


def test_margin_validation():
    with pytest.raises(DimensionMismatch):
        ptobs.GainMargins(alpha=0.0)
    with pytest.raises(DimensionMismatch):
        ptobs.GainMargins(alpha=1.0, beta_factor=0.5)


def test_gain_warnings_flag_low_beta_and_sigma(digraph1):
    analyses = [ptobs.build_analysis(digraph1)]
    bound = ptobs.beta_lower_bound(analyses)
    low = ptobs.ObserverGains(alpha=1.0, beta=0.5 * bound, sigma=0.01)
    msgs = ptobs.gain_condition_warnings(low, analyses, 0.125)
    assert len(msgs) == 2
    ok = ptobs.ObserverGains(alpha=1.0, beta=bound, sigma=0.125)
    assert ptobs.gain_condition_warnings(ok, analyses, 0.125) == []


def test_gains_validation():
    with pytest.raises(DimensionMismatch):
        ptobs.ObserverGains(alpha=0.0, beta=1.0, sigma=0.0)
    with pytest.raises(DimensionMismatch):
        ptobs.ObserverGains(alpha=1.0, beta=-1.0, sigma=0.0)
