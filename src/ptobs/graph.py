"""Directed interaction graphs and the spectral quantities the gain bounds need.

A topology is one leader plus N followers.  Edge weight a[i, j] > 0 means
information flows from follower j to follower i; pinning weight b[i] > 0 means
follower i receives the leader state directly.  The follower block of the
graph Laplacian, with pinning weights added on the diagonal, is

    L0[i, i] = b[i] + sum_j a[i, j],    L0[i, j] = -a[i, j]  (i != j),

so each row of L0 sums to b[i].  When every follower is reachable from the
leader, L0 is invertible, the weight vector rho solving L0^T rho = 1 is
positive, and the symmetrized weighted form

    M = (diag(rho) L0 + L0^T diag(rho)) / 2

is positive definite.  Those facts are what the observer gain bounds consume,
and they are validated (not assumed) here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InfeasibleTopology,
    NoSpanningTree,
    NotSymmetric,
    SingularLaplacian,
)

# Weights at or below this are treated as absent edges, so float dust cannot
# create phantom reachability.
EDGE_EPS = 1e-15

_SYMMETRY_TOL = 1e-10
_EPS = np.finfo(float).eps
# L0 counts as singular when its smallest singular value is at most this
# times ||L0^T||_inf, the matrix the rho solve factors.
_SINGULAR_RTOL = 1e-12
# The M-matrix certificate (see _sigma_min_certificate) stands in for the SVD
# only when its lower bound on sigma_min(L0) exceeds the singularity tolerance
# tol by this factor, so that the SVD could not have reported sigma_min <= tol:
# - The SVD's absolute error is about N eps ||L0||_2 <= N eps sqrt(2) ||L0||_1
#   (a row of L0 sums to at most twice its diagonal), that is N * 3.1e-4 tol:
#   under tol for N <= 3000 and under 1000 tol for N < 3e6.
# - Each solve is backward stable, with relative error about 3 N eps times the
#   LU growth factor, which is at most 2 on diagonally dominant matrices
#   (Higham 2002, section 9.5): L0 is by rows, L0^T by columns.  The rounded
#   diagonal fl(b + sum a) changes L0 by N eps relative, the same size.  A
#   certified L0 has kappa_2 = ||L0||_2 / sigma_min < sqrt(2) 1e12 / 2^10, so
#   max(rho) and max(u) are at most sqrt(N) kappa_2 6 N eps too small: 2.4e-3
#   at N = 120, 0.3 at N = 3000, where the bound is at most 1.43 times too large.
# A certified sigma_min is thus above 2^10 / 1.43 = 716 tol for N <= 3000, far
# above the 1.94 tol the SVD needs; the seeded 120-follower graphs clear tol by
# at least 1.2e8.
_CERTIFICATE_MARGIN = 2.0**10


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class DirectedTopology:
    """Weighted digraph of one leader and N followers.

    adjacency: (N, N) nonnegative weights, a[i, j] = weight of edge j -> i,
        zero diagonal.
    pinning: length-N nonnegative weights of the leader -> follower links.
    """

    adjacency: np.ndarray
    pinning: np.ndarray

    def __post_init__(self):
        a = _as_readonly(np.atleast_2d(self.adjacency))
        b = _as_readonly(np.atleast_1d(self.pinning))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"adjacency must be square, got {a.shape}")
        if a.size == 0:
            raise DimensionMismatch("a topology needs at least one follower")
        if b.shape != (a.shape[0],):
            raise DimensionMismatch(
                f"pinning length {b.shape[0]} does not match {a.shape[0]} followers"
            )
        if np.any(np.diag(a) != 0.0):
            raise DimensionMismatch("adjacency diagonal must be zero (no self-loops)")
        weights = np.concatenate((a.ravel(), b))
        # Written as "not ..." so NaN weights fail the check too.
        if not np.all((0.0 <= weights) & (weights < np.inf)):
            raise DimensionMismatch("edge and pinning weights must be finite and nonnegative")
        object.__setattr__(self, "adjacency", a)
        object.__setattr__(self, "pinning", b)

    @property
    def follower_count(self) -> int:
        return self.adjacency.shape[0]


@dataclass(frozen=True, eq=False)
class GraphAnalysis:
    """Follower Laplacian L0 with its weight vector, mirror matrix and lambda_min.

    weight_source is "rho_from_L0" when rho solves L0^T rho = 1, or "user_H"
    when rho carries user-supplied diagonal weights eta.
    """

    sub_laplacian: np.ndarray
    rho: np.ndarray
    mirror: np.ndarray
    lambda_min: float
    weight_source: str
    max_weight: float = field(init=False)  # max(rho), set from rho

    def __post_init__(self):
        object.__setattr__(self, "sub_laplacian", _as_readonly(self.sub_laplacian))
        object.__setattr__(self, "rho", _as_readonly(self.rho))
        object.__setattr__(self, "mirror", _as_readonly(self.mirror))
        object.__setattr__(self, "max_weight", float(np.max(self.rho)))

    @property
    def follower_count(self) -> int:
        return self.sub_laplacian.shape[0]


def sub_laplacian(topo: DirectedTopology) -> np.ndarray:
    """Follower block of the Laplacian with pinning weights on the diagonal."""
    a = topo.adjacency
    L0 = -a.copy()
    np.fill_diagonal(L0, topo.pinning + a.sum(axis=1))
    return L0


def has_spanning_tree(topo: DirectedTopology) -> bool:
    """True iff every follower is reachable from the leader.

    Depth-first search over the directed edges leader -> i (pinning) and
    j -> i (adjacency), counting weights above EDGE_EPS as edges.  Successor
    lists are built once from the edges np.nonzero finds, so the search takes
    O(N + E) Python steps for N followers and E edges.
    """
    seen = (topo.pinning > EDGE_EPS).tolist()
    successors = [[] for _ in seen]
    tails, heads = np.nonzero(topo.adjacency.T > EDGE_EPS)  # edges tails[k] -> heads[k]
    for j, i in zip(tails.tolist(), heads.tolist()):
        successors[j].append(i)
    stack = [i for i, pinned in enumerate(seen) if pinned]
    while stack:
        for i in successors[stack.pop()]:
            if not seen[i]:
                seen[i] = True
                stack.append(i)
    return all(seen)


def min_eig_symmetric(M: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix.

    LAPACK's eigvalsh gives lam, off by up to a few ulp of ||A||.  One step of
    inverse iteration shifted to lam, x solving (A - lam I) x = 1 with the
    matrix scaled by a power of two to a largest entry in [1/2, 1), gives its
    eigenvector, and one Rayleigh-quotient correction, lam + x.(A x - lam x)
    / (x.x) with the residual in np.longdouble, brings lam within about half
    an ulp where longdouble is wider than double (as on x86-64 Linux).  eigh's
    pair is corrected instead when A - lam I is exactly singular (1 x 1 or
    diagonal A) or x overflows, or when the correction exceeds LAPACK's bound
    n eps ||A||: then x missed the eigenvector, as 1 does for [[a, b], [b, a]]
    with b > 0.  Deterministic for fixed input.

    Raises NotSymmetric unless max|M - M^T| <= 1e-10, so for NaN or inf
    entries and an overflowing asymmetry too, and DimensionMismatch for a
    non-square or empty M.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {M.shape}")
    if M.size == 0:
        raise DimensionMismatch("expected a non-empty matrix, got (0, 0)")
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: reported below
        D = M.T - M
    asymmetry = np.max(np.abs(D))
    if not asymmetry <= _SYMMETRY_TOL:  # "not" so NaN fails too
        raise NotSymmetric(f"asymmetry {asymmetry:.3e} exceeds {_SYMMETRY_TOL:.0e}")
    A = M + 0.5 * D  # the symmetric part; M itself, bit for bit, when M is symmetric
    n, lam = len(A), np.linalg.eigvalsh(A)[0]
    S = 0.5 * A  # (A - lam I) / 2: halved, so that the shift cannot overflow
    S.flat[:: n + 1] -= 0.5 * lam
    s = np.abs(S).max()
    try:
        x = np.linalg.solve(np.ldexp(S, -math.frexp(s)[1]), np.ones(n))
        with np.errstate(invalid="ignore"):  # an overflowed x gives NaN, rejected below
            value = _rayleigh(A, lam, x)
    except np.linalg.LinAlgError:
        value = np.nan
    if not abs(value - lam) <= n * _EPS * abs(lam) + 2 * n * n * _EPS * s:  # ||A|| <= |lam| + 2 n s
        w, V = np.linalg.eigh(A)
        value = _rayleigh(A, w[0], V[:, 0])
    return float(value)


def _rayleigh(A: np.ndarray, lam: float, v: np.ndarray) -> np.longdouble:
    v = v.astype(np.longdouble)
    return lam + (v @ (A.astype(np.longdouble) @ v - lam * v)) / (v @ v)


def _sigma_min_certificate(L0: np.ndarray) -> tuple[np.ndarray | None, float]:
    """rho solving L0^T rho = 1, and a lower bound on sigma_min(L0).

    With every follower reachable, L0 is a nonsingular M-matrix, so L0^-1 >= 0
    (Berman and Plemmons 1994) and its 1- and inf-norms are max(rho) and
    max(u), u = L0^-1 1.  As ||A||_2 <= sqrt(||A||_1 ||A||_inf) (Higham 2002,
    section 6.3), sigma_min(L0) >= 1 / sqrt(max(rho) max(u)).  The bound is
    0.0 when it proves nothing: some entry of rho or u is not a positive
    normal float; rho is None when a solve fails.
    """
    ones = np.ones(L0.shape[0])
    try:
        rho = np.linalg.solve(L0.T, ones)
        u = np.linalg.solve(L0, ones)
    except np.linalg.LinAlgError:
        return None, 0.0
    tiny = np.finfo(float).tiny
    if not (np.all((tiny <= rho) & (rho < np.inf)) and np.all((tiny <= u) & (u < np.inf))):
        return rho, 0.0
    return rho, float(1.0 / (np.sqrt(rho.max()) * np.sqrt(u.max())))


def _rho(L0: np.ndarray) -> np.ndarray:
    # rho = L0^-T 1 once L0 is shown not numerically singular: sigma_min(L0)
    # above tol = 1e-12 ||L0^T||_inf, by the certificate when it clears tol by
    # _CERTIFICATE_MARGIN, else by the SVD; either way rho is the certificate's
    # own solve when it has one.
    tol = _SINGULAR_RTOL * np.linalg.norm(L0.T, np.inf)
    if tol == np.inf:  # finite entries whose column sums overflow: scale by 2^-64
        tol = _SINGULAR_RTOL * np.linalg.norm(np.ldexp(L0.T, -64), np.inf) * 2.0**64
    rho, bound = _sigma_min_certificate(L0)
    if bound > _CERTIFICATE_MARGIN * tol:
        return rho
    sigma_min = np.linalg.svd(L0, compute_uv=False)[-1]
    if sigma_min <= tol:
        raise SingularLaplacian(
            f"follower Laplacian is numerically singular although the "
            f"reachability check passed (smallest singular value {sigma_min:.3e} "
            f"below tolerance {tol:.3e})"
        )
    return np.linalg.solve(L0.T, np.ones(L0.shape[0])) if rho is None else rho


def _analysis(topo: DirectedTopology, eta: np.ndarray | None) -> GraphAnalysis:
    # Reachability, L0, the weights (rho when eta is None), the mirror and its
    # lambda_min.  R = diag(w) L0 by row scaling is exactly the transpose of
    # L0^T diag(w), so the mirror needs no symmetrization pass; "+ 0.0" turns
    # R's -0.0 entries (L0 = -a) into the +0.0 of the product diag(w) @ L0.
    if not has_spanning_tree(topo):
        raise NoSpanningTree("no leader-rooted spanning tree: some follower is unreachable")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported, not warned
        L0 = sub_laplacian(topo)
        if not np.isfinite(L0).all():
            raise DimensionMismatch("follower Laplacian overflows: the edge weights are too large")
        weights = _rho(L0) if eta is None else eta
        R = weights[:, None] * L0
        mirror = 0.5 * (R + R.T) + 0.0
    if not np.isfinite(mirror).all():
        raise DimensionMismatch("mirror matrix overflows: the weights are too large")
    if np.any((mirror != 0.0) & (np.abs(mirror) < np.finfo(float).tiny)):  # subnormal
        raise DimensionMismatch("mirror matrix underflows: the weights are too small")
    source = "rho_from_L0" if eta is None else "user_H"
    return GraphAnalysis(L0, weights, mirror, min_eig_symmetric(mirror), source)


def build_analysis(topo: DirectedTopology) -> GraphAnalysis:
    """Laplacian partition, rho weights, mirror matrix and its lambda_min.

    rho solves L0^T rho = 1_N.  Raises NoSpanningTree when some follower is
    unreachable from the leader; SingularLaplacian when L0 is numerically
    singular (smallest singular value at most 1e-12 ||L0^T||_inf) even though
    reachability passed (both facts are reported); DimensionMismatch when L0
    overflows or the mirror over- or underflows.  The rho solve and a second
    solve, L0 u = 1, bound the smallest singular value from below; an SVD
    runs only when that bound does not clear the tolerance by a wide margin.
    TopologySequence judges lambda_min.
    """
    return _analysis(topo, None)


def mirror_with_H(topo: DirectedTopology, eta: np.ndarray) -> GraphAnalysis:
    """Mirror matrix for user-chosen diagonal weights H = diag(eta).

    The rho field of the result carries eta and weight_source is "user_H".
    Raises DimensionMismatch when eta is not N finite positive entries or the
    mirror over- or underflows, and NoSpanningTree as build_analysis does.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if eta.shape != (topo.follower_count,):
        raise DimensionMismatch(
            f"eta length {eta.shape[0]} does not match {topo.follower_count} followers"
        )
    if not np.all((0.0 < eta) & (eta < np.inf)):  # "not" so NaN fails too
        raise DimensionMismatch("all entries of eta must be finite and positive")
    return _analysis(topo, eta)


@dataclass(frozen=True, eq=False)
class TopologySequence:
    """Piecewise-constant, right-continuous switching signal over p topologies.

    Topology indices[i] (1-based, an integer) is active from switch_times[i]
    on; the times are finite and strictly increasing.  Both are stored as
    read-only copies without the entries that do not change the active
    index, so a p = 1 sequence behaves exactly like a static topology.
    common_H supplies the diagonal weights eta shared by every topology and
    is required when p > 1.  Construction reaches the feasibility verdict
    (see analyses): NoSpanningTree or InfeasibleTopology (lambda_min not
    positive) names the first topology that fails.
    """

    topologies: tuple[DirectedTopology, ...]
    switch_times: np.ndarray
    indices: np.ndarray
    common_H: np.ndarray | None = None

    def __post_init__(self):
        topos = tuple(self.topologies)
        if not topos:
            raise DimensionMismatch("at least one topology is required")
        counts = {t.follower_count for t in topos}
        if len(counts) != 1:
            raise DimensionMismatch(f"follower counts differ across topologies: {counts}")
        if self.common_H is None and len(topos) > 1:
            raise DimensionMismatch("common_h is required when switching over several topologies")
        times, idx = np.asarray(self.switch_times, dtype=float), np.asarray(self.indices)
        if times.ndim != 1 or times.shape != idx.shape:
            shapes = f"got shapes {times.shape} and {idx.shape}"
            raise DimensionMismatch(f"switch times and indices must be 1-D and of one length, {shapes}")
        if times.size == 0:
            raise DimensionMismatch("schedule must contain at least one entry")
        if not np.isfinite(times).all():
            raise DimensionMismatch("switch times must be finite")
        if not (times[1:] > times[:-1]).all():
            raise DimensionMismatch("switch times must be strictly increasing")
        bad = (idx < 1) | (idx > len(topos))
        if idx.dtype.kind == "f":  # checked in the dtype it came in; NaN is no integer
            bad |= idx != np.floor(idx)
        if bad.any():
            j = idx[bad.argmax(), ...].item()  # a Python int or float, from any dtype
            raise DimensionMismatch(
                f"topology index must be an integer in [1, {len(topos)}], "
                f"got {int(j) if isinstance(j, float) and j.is_integer() else j}"
            )
        keep = np.concatenate(([True], idx[1:] != idx[:-1]))
        times, idx = times[keep], idx[keep].astype(int, copy=False)  # the one copy
        times.flags.writeable = idx.flags.writeable = False
        H = None if self.common_H is None else _as_readonly(np.atleast_1d(self.common_H))
        object.__setattr__(self, "topologies", topos)
        object.__setattr__(self, "common_H", H)
        object.__setattr__(self, "switch_times", times)
        object.__setattr__(self, "indices", idx)
        analyses = []
        for j, topo in enumerate(topos, start=1):
            try:
                a = build_analysis(topo) if H is None else mirror_with_H(topo, H)
            except NoSpanningTree as exc:
                raise NoSpanningTree(f"topology {j}: {exc}") from None
            if not a.lambda_min > 0.0:  # "not" so NaN fails too
                raise InfeasibleTopology(
                    f"topology {j}: mirror matrix is not positive definite "
                    f"(lambda_min = {a.lambda_min:.6g})"
                )
            analyses.append(a)
        object.__setattr__(self, "_analyses", tuple(analyses))

    @classmethod
    def static(cls, topo: DirectedTopology, t0: float) -> "TopologySequence":
        return cls((topo,), [t0], [1])

    @property
    def topology_count(self) -> int:
        return len(self.topologies)

    def active_index(self, t: float) -> int:
        """1-based index of the topology active at time t (right-continuous)."""
        i = int(self.switch_times.searchsorted(t, side="right"))
        return int(self.indices[max(i - 1, 0)])

    def analyses(self) -> tuple[GraphAnalysis, ...]:
        """One GraphAnalysis per topology, computed at construction:
        mirror_with_H with common_H, else build_analysis."""
        return self._analyses
