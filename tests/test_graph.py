import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptobs
from ptobs.errors import (
    DimensionMismatch,
    InfeasibleTopology,
    NoSpanningTree,
    NotSymmetric,
    SingularLaplacian,
)
from conftest import ETA, perfbench_workloads, schedule_pairs
from oracles import (
    char_poly_min_eig,
    cofactor_inverse,
    leader_reaches_all,
    random_spanning_topology,
    svd_singular_verdict,
)


def test_scalar_pinned_chain():
    topo = ptobs.DirectedTopology(adjacency=[[0.0]], pinning=[1.0])
    a = ptobs.build_analysis(topo)
    assert np.allclose(a.sub_laplacian, [[1.0]])
    assert a.rho == pytest.approx([1.0])
    assert np.allclose(a.mirror, [[1.0]])
    assert a.lambda_min == pytest.approx(1.0)
    assert a.weight_source == "rho_from_L0"


def test_digraph1_sub_laplacian(digraph1):
    L0 = ptobs.sub_laplacian(digraph1)
    assert np.allclose(L0, [[2, 0, -1], [-1, 1, 0], [0, -1, 1]])


def test_digraph1_analysis_vs_oracles(digraph1):
    a = ptobs.build_analysis(digraph1)
    rho_oracle = cofactor_inverse(a.sub_laplacian.T) @ np.ones(3)
    assert np.max(np.abs(a.rho - rho_oracle)) < 1e-12
    assert a.rho == pytest.approx([3.0, 5.0, 4.0])
    assert np.max(np.abs(a.mirror - a.mirror.T)) <= 1e-12
    assert abs(a.lambda_min - char_poly_min_eig(a.mirror)) < 1e-9
    assert np.max(np.abs(a.sub_laplacian.T @ a.rho - 1.0)) <= 1e-10
    assert a.max_weight == pytest.approx(5.0)


def test_numerically_singular_laplacian_raises():
    # Reachable through a 1e-14 pinning link, so only the conditioning check
    # can tell that L0 = [[1 + 1e-14, -1], [-1, 1]] is singular to working precision.
    topo = ptobs.DirectedTopology(adjacency=[[0, 1], [1, 0]], pinning=[1e-14, 0])
    assert ptobs.has_spanning_tree(topo)
    with pytest.raises(SingularLaplacian) as info:
        ptobs.build_analysis(topo)
    assert str(info.value) == (
        "follower Laplacian is numerically singular although the reachability check "
        "passed (smallest singular value 5.084e-15 below tolerance 2.000e-12)"
    )


def test_exactly_singular_laplacian_fails_the_certificate_solve():
    # Reachable, as 1e-14 > EDGE_EPS, but 1e3 + 1e-14 == 1e3: L0 is exactly
    # singular, so the certificate's solve fails and proves nothing.
    topo = ptobs.DirectedTopology(adjacency=[[0, 1e3], [1e3, 0]], pinning=[1e-14, 0])
    assert ptobs.has_spanning_tree(topo)
    assert ptobs.graph._sigma_min_certificate(ptobs.graph.sub_laplacian(topo)) == (None, 0.0)
    with pytest.raises(SingularLaplacian):
        ptobs.build_analysis(topo)


def test_singular_tolerance_does_not_overflow():
    # L0's column sums overflow although L0 is finite and sigma_min = 5e299;
    # the tolerance is taken on L0 scaled by 2^-64, so the analysis is built.
    topo = ptobs.DirectedTopology(adjacency=[[0, 1e308], [1e308, 0]], pinning=[1e300, 0])
    a = ptobs.build_analysis(topo)
    # Exact residual of L0^T rho = 1, relative to |L0^T| |rho| row by row.
    L0T = [[Fraction(x) for x in row] for row in a.sub_laplacian.T.tolist()]
    rho = [Fraction(x) for x in a.rho.tolist()]
    for row in L0T:
        residual = sum(x * r for x, r in zip(row, rho)) - 1
        assert abs(residual) <= Fraction(1e-12) * sum(abs(x) * r for x, r in zip(row, rho))


def test_seeded_wide_graphs_skip_the_svd(monkeypatch):
    # The benchmark's 120-follower graphs are certified nonsingular by their
    # two M-matrix solves alone.
    wide_config = perfbench_workloads().wide_config
    topos = [ptobs.DirectedTopology(*wide_config(7, k, 120)[:2]) for k in range(4)]

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for topo in topos:
        assert np.all(ptobs.build_analysis(topo).rho > 0)


def test_non_finite_weights_rejected():
    for bad in (np.inf, np.nan):
        with pytest.raises(DimensionMismatch):
            ptobs.DirectedTopology(adjacency=[[0, 1], [1, 0]], pinning=[bad, 0])
        with pytest.raises(DimensionMismatch):
            ptobs.DirectedTopology(adjacency=[[0, bad], [1, 0]], pinning=[1, 0])


def test_disconnected_followers_raise():
    topo = ptobs.DirectedTopology(adjacency=np.zeros((2, 2)), pinning=[1.0, 0.0])
    with pytest.raises(NoSpanningTree):
        ptobs.build_analysis(topo)


def test_spanning_tree_chain():
    topo = ptobs.DirectedTopology(
        adjacency=[[0, 0, 0], [1, 0, 0], [0, 1, 0]], pinning=[1, 0, 0]
    )
    assert ptobs.has_spanning_tree(topo)


def test_spanning_tree_requires_pinning():
    topo = ptobs.DirectedTopology(
        adjacency=[[0, 1, 1], [1, 0, 1], [1, 1, 0]], pinning=[0, 0, 0]
    )
    assert not ptobs.has_spanning_tree(topo)


def test_spanning_tree_digraph2(digraph2):
    assert ptobs.has_spanning_tree(digraph2)


# Weights on both sides of the edge threshold, and one that would overflow a sum.
_EDGE_WEIGHTS = (0.0, ptobs.graph.EDGE_EPS, np.nextafter(ptobs.graph.EDGE_EPS, 1.0), 0.5, 1e300)


@st.composite
def _digraphs(draw):
    # A tree rooted at the leader, with up to two links below the threshold,
    # plus a few extra edges of any weight: both verdicts are common.
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    weight = st.sampled_from(_EDGE_WEIGHTS)
    heavy, dust = st.sampled_from(_EDGE_WEIGHTS[2:]), st.sampled_from(_EDGE_WEIGHTS[:2])
    adjacency, pinning = np.zeros((n, n)), np.zeros(n)
    order = draw(st.permutations(range(n)))
    cut = set(draw(st.lists(node, max_size=2)))
    for pos, i in enumerate(order):
        parent = draw(st.integers(-1, pos - 1))  # -1: the leader
        w = draw(dust if i in cut else heavy)
        if parent < 0:
            pinning[i] = w
        else:
            adjacency[i, order[parent]] = w
    for i, j, w in draw(st.lists(st.tuples(node, node, weight), max_size=n)):
        if i != j:
            adjacency[i, j] = w
    return adjacency, pinning


@settings(max_examples=200, deadline=None)
@given(_digraphs())
def test_spanning_tree_matches_transitive_closure(graph):
    adjacency, pinning = graph
    topo = ptobs.DirectedTopology(adjacency=adjacency, pinning=pinning)
    expected = leader_reaches_all(adjacency, pinning, ptobs.graph.EDGE_EPS)
    assert ptobs.has_spanning_tree(topo) is expected


@pytest.mark.parametrize("cut", [False, True])
def test_spanning_tree_matches_transitive_closure_on_120_followers(cut):
    # A random tree of weights above EDGE_EPS plus sparse extra edges of any
    # weight; `cut` lowers every link into one follower to EDGE_EPS.
    rng = np.random.default_rng(20240516)
    n = 120
    adjacency, pinning = np.zeros((n, n)), np.zeros(n)
    order = rng.permutation(n)
    pinning[order[0]] = 0.5
    for pos in range(1, n):
        adjacency[order[pos], order[rng.integers(pos)]] = rng.choice(_EDGE_WEIGHTS[2:])
    extra = rng.random((n, n)) < 1.5 / n
    np.fill_diagonal(extra, False)
    adjacency[extra] = rng.choice(_EDGE_WEIGHTS, size=int(extra.sum()))
    if cut:
        victim = order[n // 2]
        adjacency[victim][adjacency[victim] > 0.0] = ptobs.graph.EDGE_EPS
        pinning[victim] = 0.0
    topo = ptobs.DirectedTopology(adjacency=adjacency, pinning=pinning)
    expected = leader_reaches_all(adjacency, pinning, ptobs.graph.EDGE_EPS)
    assert expected is not cut
    assert ptobs.has_spanning_tree(topo) is expected


def test_mirror_with_H_matches_rho_case(digraph1):
    a = ptobs.build_analysis(digraph1)
    h = ptobs.mirror_with_H(digraph1, a.rho)
    assert np.array_equal(h.mirror, a.mirror)  # one builder: the same floats
    assert h.lambda_min == a.lambda_min
    assert h.weight_source == "user_H"


def test_mirror_with_H_requires_reachability():
    # An unpinned triangle's mirror has lambda_min ~ 1e-31 > 0, which alone
    # would pass as feasible; the reachability check rejects it first.
    triangle = ptobs.DirectedTopology(
        adjacency=[[0, 1, 1], [1, 0, 1], [1, 1, 0]], pinning=[0, 0, 0]
    )
    with pytest.raises(NoSpanningTree):
        ptobs.mirror_with_H(triangle, [1.0, 1.0, 1.0])


def test_overflowing_weights_raise_dimension_mismatch(digraph1):
    # Finite weights whose L0 row sum or mirror overflows, reported before
    # LAPACK sees an inf and without a numpy warning (warnings fail tests).
    huge = ptobs.DirectedTopology(adjacency=[[0, 1e308], [1e308, 0]], pinning=[1e308, 0])
    with pytest.raises(DimensionMismatch, match="overflows"):
        ptobs.build_analysis(huge)
    with pytest.raises(DimensionMismatch, match="overflows"):
        ptobs.mirror_with_H(digraph1, [1e308, 1e308, 1e308])


def test_underflowing_mirror_raises_and_tiny_weights_keep_the_bound(digraph1, digraph2):
    # The bound max(eta) / lambda_min is scale-invariant in H: the bundled
    # weights scaled by 2^-k keep it bit for bit while every mirror entry is
    # normal, and a subnormal entry is reported rather than computed with.
    for k in (0, 500, 1000, 1022):
        seq = ptobs.TopologySequence(
            topologies=(digraph1, digraph2), switch_times=[0.0, 0.1], indices=[1, 2], common_H=ETA * 2.0**-k
        )
        assert ptobs.beta_lower_bound(seq.analyses()) == 10.404782557797311
    with pytest.raises(DimensionMismatch, match="mirror matrix underflows"):
        ptobs.mirror_with_H(digraph1, [1e-320, 1e-320, 1e-320])


def test_svd_fallback_takes_rho_from_the_certificate(monkeypatch):
    # The weak edge 2 -> 3 (1e-10) keeps the certificate's bound short of its
    # margin, so the SVD decides; rho is then the certificate's own solve.
    topo = ptobs.DirectedTopology(adjacency=[[0, 0, 0], [1, 0, 0], [0, 1e-10, 0]], pinning=[1, 0, 0])
    solve, svd, calls = np.linalg.solve, np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append("solve") or solve(*a))
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append("svd") or svd(*a, **k))
    rho = ptobs.build_analysis(topo).rho
    assert calls == ["solve", "solve", "svd"]
    assert rho.tobytes() == solve(ptobs.sub_laplacian(topo).T, np.ones(3)).tobytes()


def test_subnormal_rho_proves_nothing_and_the_svd_decides(monkeypatch):
    # One follower pinned at 1e308: rho = 1e-308 is subnormal, so the
    # certificate proves nothing and the SVD decides, as the oracle does.
    topo = ptobs.DirectedTopology(adjacency=[[0.0]], pinning=[1e308])
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append("svd") or svd(*a, **k))
    a = ptobs.build_analysis(topo)
    assert calls == ["svd"]
    monkeypatch.undo()
    assert a.rho.tolist() == [1e-308]
    assert abs(a.lambda_min - 1.0) <= 4 * np.spacing(1.0)
    assert not svd_singular_verdict(a.sub_laplacian)[1]


def test_mirror_with_H_digraph1(digraph1):
    h = ptobs.mirror_with_H(digraph1, ETA)
    assert np.max(np.abs(h.mirror - h.mirror.T)) <= 1e-12
    assert h.lambda_min > 0
    assert abs(h.lambda_min - char_poly_min_eig(h.mirror)) < 1e-9


def test_mirror_with_H_rejects_zero_eta(digraph1):
    # Non-finite and non-positive entries alike, before any numpy warning.
    for bad in (0.0, -1.0, np.inf, np.nan):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatch, match="finite and positive"):
                ptobs.mirror_with_H(digraph1, [3.0, bad, 4.0])
    with pytest.raises(DimensionMismatch):
        ptobs.mirror_with_H(digraph1, [3.0, 5.0])


def test_min_eig_identity():
    assert ptobs.min_eig_symmetric(np.eye(3)) == pytest.approx(1.0)


def test_min_eig_one_by_one_is_the_entry():
    for x in (1.0, 0.1, -3.7, 1e-300, 1e300, 5e-324, 0.0):
        assert ptobs.min_eig_symmetric(np.array([[x]])) == x


def test_min_eig_diagonal():
    assert ptobs.min_eig_symmetric(np.diag([2.0, -1.0, 5.0])) == pytest.approx(-1.0)


@pytest.mark.filterwarnings("error")
def test_min_eig_near_the_largest_double_does_not_overflow():
    # M + M^T overflows here; the symmetric part is M itself, and eigh gives 1e308.
    assert ptobs.min_eig_symmetric(np.diag([1e308, 1.5e308])) == 1e308


def test_min_eig_digraph2_with_H_vs_cubic(digraph2):
    h = ptobs.mirror_with_H(digraph2, ETA)
    assert abs(h.lambda_min - char_poly_min_eig(h.mirror)) < 1e-9


def test_min_eig_bundled_mirrors_within_one_ulp(digraph1, digraph2):
    # Smallest eigenvalues of the two bundled mirror matrices (H = diag(3, 5, 4)),
    # computed with mpmath.eigsy at 50 significant digits.
    exact = (0.92239803214785522438, 0.48054824521565955912)
    for topo, ref in zip((digraph1, digraph2), exact):
        lam = ptobs.mirror_with_H(topo, ETA).lambda_min
        assert abs(lam - ref) <= np.spacing(ref)


def test_min_eig_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        ptobs.min_eig_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_min_eig_oracle_agreement_small():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        A = rng.normal(size=(n, n))
        S = A + A.T
        assert abs(ptobs.min_eig_symmetric(S) - char_poly_min_eig(S)) < 1e-8


def test_random_digraph_mirror_properties():
    rng = np.random.default_rng(3)
    for _ in range(50):
        topo = random_spanning_topology(rng)
        a = ptobs.build_analysis(topo)
        assert np.max(np.abs(a.mirror - a.mirror.T)) <= 1e-12
        assert a.lambda_min > 0
        assert np.all(a.rho > 0)
        assert np.max(np.abs(a.sub_laplacian.T @ a.rho - 1.0)) <= 1e-10


def test_L0_kills_no_nonzero_vector():
    rng = np.random.default_rng(11)
    for _ in range(50):
        topo = random_spanning_topology(rng)
        a = ptobs.build_analysis(topo)
        x = rng.normal(size=topo.follower_count)
        x *= max(1.0, 1e-6 / max(np.linalg.norm(x), 1e-300))
        assert np.linalg.norm(a.sub_laplacian @ x) > 0


def test_topology_validation():
    with pytest.raises(DimensionMismatch):
        ptobs.DirectedTopology(adjacency=[[1.0]], pinning=[1.0])  # self-loop
    with pytest.raises(DimensionMismatch):
        ptobs.DirectedTopology(adjacency=[[0, -1], [0, 0]], pinning=[1, 0])
    with pytest.raises(DimensionMismatch):
        ptobs.DirectedTopology(adjacency=np.zeros((2, 2)), pinning=[1, 0, 0])


def test_sequence_drops_noop_switches(digraph1):
    seq = ptobs.TopologySequence(
        topologies=(digraph1,), switch_times=[0.0, 0.1, 0.2], indices=[1, 1, 1]
    )
    assert schedule_pairs(seq) == ((0.0, 1),)


def test_sequence_stores_the_schedule_as_readonly_arrays(digraph1, digraph2):
    times, indices = np.array([0.0, 0.1, 0.2, 0.3]), np.array([1, 2, 2, 1])
    seq = ptobs.TopologySequence((digraph1, digraph2), times, indices, ETA)
    assert schedule_pairs(seq) == ((0.0, 1), (0.1, 2), (0.3, 1))
    assert seq.switch_times.dtype == float and seq.indices.dtype == int
    assert not seq.switch_times.flags.writeable and not seq.indices.flags.writeable
    # Copies even when no switch is dropped: the caller's arrays stay theirs.
    kept = ptobs.TopologySequence((digraph1, digraph2), times[:2], indices[:2], ETA)
    assert not np.shares_memory(kept.switch_times, times)
    assert not np.shares_memory(kept.indices, indices)
    assert times.flags.writeable and indices.flags.writeable


def test_sequence_active_index(digraph1, digraph2):
    seq = ptobs.TopologySequence(
        topologies=(digraph1, digraph2),
        switch_times=[0.0, 0.1, 0.2], indices=[1, 2, 1],
        common_H=ETA,
    )
    assert seq.active_index(0.0) == 1
    assert seq.active_index(0.0999) == 1
    assert seq.active_index(0.1) == 2  # right-continuous
    assert seq.active_index(0.31) == 1


def test_sequence_validation(digraph1, digraph2):
    with pytest.raises(DimensionMismatch):
        ptobs.TopologySequence(topologies=(digraph1,), switch_times=[0.0], indices=[2])
    with pytest.raises(DimensionMismatch):
        ptobs.TopologySequence(
            topologies=(digraph1,), switch_times=[0.1, 0.1], indices=[1, 1]
        )
    for bad in (np.nan, np.inf):
        with pytest.raises(DimensionMismatch, match="finite"):
            ptobs.TopologySequence(topologies=(digraph1,), switch_times=[0.0, bad], indices=[1, 1])
        with pytest.raises(DimensionMismatch, match="finite"):
            ptobs.TopologySequence(
                topologies=(digraph1,), switch_times=[0.0], indices=[1], common_H=[1.0, bad, 1.0]
            )
    # an H that makes digraph 2's mirror indefinite must be rejected up front
    with pytest.raises(InfeasibleTopology):
        ptobs.TopologySequence(
            topologies=(digraph1, digraph2),
            switch_times=[0.0, 0.1], indices=[1, 2],
            common_H=[1.0, 100.0, 1.0],
        )


def test_sequence_analyses_weight_source(digraph1, digraph2):
    seq = ptobs.TopologySequence(
        topologies=(digraph1, digraph2), switch_times=[0.0, 0.1], indices=[1, 2], common_H=ETA
    )
    analyses = seq.analyses()
    assert all(a.weight_source == "user_H" for a in analyses)
    assert all(np.allclose(a.rho, ETA) for a in analyses)
    static = ptobs.TopologySequence.static(digraph1, 0.0)
    assert static.analyses()[0].weight_source == "rho_from_L0"


def test_sequence_analyses_computed_once(digraph1, digraph2, monkeypatch):
    calls = []
    for name in ("build_analysis", "mirror_with_H"):
        original = getattr(ptobs.graph, name)
        monkeypatch.setattr(
            ptobs.graph, name, lambda *a, _f=original: calls.append(a[0]) or _f(*a)
        )
    seq = ptobs.TopologySequence(
        topologies=(digraph1, digraph2), switch_times=[0.0, 0.1], indices=[1, 2], common_H=ETA
    )
    assert len(calls) == 2  # the construction-time verdict
    assert seq.analyses() is seq.analyses()
    assert len(calls) == 2
    static = ptobs.TopologySequence.static(digraph1, 0.0)
    assert len(calls) == 3  # without common_H too, the verdict is reached at construction
    assert static.analyses() is static.analyses()
    assert len(calls) == 3
    assert not static.analyses()[0].rho.flags.writeable


def test_sequence_of_several_topologies_requires_common_H(digraph1, digraph2, monkeypatch):
    # Without one shared H the per-topology rho weightings certify nothing
    # together, so construction refuses before analysing any topology.
    monkeypatch.setattr(ptobs.graph, "build_analysis", lambda topo: pytest.fail("analysed"))
    with pytest.raises(DimensionMismatch, match="^common_h is required when switching"):
        ptobs.TopologySequence(topologies=(digraph1, digraph2), switch_times=[0.0], indices=[1])


def test_unreachable_static_sequence_raises_on_every_analyses_call():
    topo = ptobs.DirectedTopology(adjacency=np.zeros((2, 2)), pinning=[1.0, 0.0])
    for _ in range(2):  # construction analyses, so every build raises
        with pytest.raises(NoSpanningTree, match="topology 1"):
            ptobs.TopologySequence.static(topo, 0.0)


def test_sequence_verdict_names_the_topology(digraph1, monkeypatch):
    triangle = ptobs.DirectedTopology(
        adjacency=[[0, 1, 1], [1, 0, 1], [1, 1, 0]], pinning=[0, 0, 0]
    )
    with pytest.raises(NoSpanningTree, match="topology 2"):
        ptobs.TopologySequence(
            topologies=(digraph1, triangle), switch_times=[0.0, 0.1], indices=[1, 2], common_H=ETA
        )
    # A NaN lambda_min is not positive: the check fails it too.
    monkeypatch.setattr(ptobs.graph, "min_eig_symmetric", lambda M: float("nan"))
    with pytest.raises(InfeasibleTopology, match="topology 1.*nan"):
        ptobs.TopologySequence(topologies=(digraph1,), switch_times=[0.0], indices=[1], common_H=ETA)
    with pytest.raises(InfeasibleTopology, match="topology 1"):
        ptobs.TopologySequence.static(digraph1, 0.0).analyses()
