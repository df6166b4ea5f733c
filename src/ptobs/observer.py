"""Leader dynamics, the cascade observer right-hand side, and gain synthesis.

The leader is an order-n integrator chain driven by a bounded scalar input at
the top:

    x0_1' = x0_2,  ...,  x0_{n-1}' = x0_n,  x0_n' = f0(t),  |f0| <= f0_bar.

Each follower i keeps an estimate row (xhat_i1, ..., xhat_in) and measures only
the local disagreement

    psi_k[i] = b_i (xhat_ik - x0_k) + sum_j a_ij (xhat_ik - xhat_jk),

which equals row i of L0 (xhat_k - x0_k 1).  The estimate dynamics are

    xhat_ik' = xhat_i,k+1 - (alpha + beta r_k(t)) psi_k[i],       k < n,
    xhat_in' = -sigma sign(psi_n[i]) - (alpha + beta r_n(t)) psi_n[i],

where r_k is the stage-k rate ratio from the cascade schedule.  The constant
gain alpha acts from the start; the time-varying part switches on only inside
each stage's window.  Sufficient gains: alpha > 0, sigma at least the leader
input bound, and beta at least max(weights) / min(lambda_min) over the
topologies in play (the single-topology case reduces to the same formula with
the rho weights).

One kernel evaluates this right-hand side for the integrator and for dpto_rhs,
over preallocated buffers: the integrator allocates them once per run,
dpto_rhs afresh per call.  One gain-row sampler, _gain_rows, gives both their
stage gains, at one time or at an array of times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InfeasibleTopology,
    InputBoundViolated,
    NonFinite,
)
from .gain import CascadeSchedule, stage_gain
from .graph import GraphAnalysis

InputFn = Callable[[float], float]  # the leader's top-stage input f0(t), a function of time alone

_BOUND_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class LeaderModel:
    """Order-n integrator-chain leader with a bounded top-stage input f0(t)."""

    order: int
    input_fn: InputFn
    input_bound: float
    initial_state: np.ndarray

    def __post_init__(self):
        if self.order < 1:
            raise DimensionMismatch(f"leader order must be >= 1, got {self.order}")
        if not 0.0 <= self.input_bound < np.inf:
            raise DimensionMismatch(f"input bound must be finite and >= 0, got {self.input_bound}")
        x0 = np.atleast_1d(np.asarray(self.initial_state, dtype=float))
        if x0.shape != (self.order,):
            raise DimensionMismatch(
                f"initial state length {x0.shape[0]} does not match order {self.order}"
            )
        if not np.all(np.isfinite(x0)):
            raise DimensionMismatch("initial state must be finite")
        x0.flags.writeable = False
        object.__setattr__(self, "initial_state", x0)


@dataclass(frozen=True)
class ObserverGains:
    """Constant gain alpha, time-varying weight beta, sliding gain sigma."""

    alpha: float
    beta: float
    sigma: float

    def __post_init__(self):
        if not 0.0 < self.alpha < np.inf:
            raise DimensionMismatch(f"alpha must be finite and positive, got {self.alpha}")
        if not (0.0 <= self.beta < np.inf and 0.0 <= self.sigma < np.inf):
            raise DimensionMismatch("beta and sigma must be finite and nonnegative")


@dataclass(frozen=True)
class GainMargins:
    """Multipliers applied on top of the theoretical bounds during synthesis."""

    alpha: float
    beta_factor: float = 1.0
    sigma_factor: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < np.inf:
            raise DimensionMismatch("alpha margin must be finite and positive")
        if not (1.0 <= self.beta_factor < np.inf and 1.0 <= self.sigma_factor < np.inf):
            raise DimensionMismatch("beta_factor and sigma_factor must be finite and >= 1")


# ---------------------------------------------------------------------------
# Leader inputs selectable by name (see also the experiment config format).
# Each factory returns a function of t alone; register more by adding one here.

def _make_zero() -> InputFn:
    return lambda t: 0.0


def _make_constant(c: float) -> InputFn:
    return lambda t: c


def _make_sine(amplitude: float, angular_frequency: float) -> InputFn:
    return lambda t: amplitude * math.sin(angular_frequency * t)


LEADER_INPUTS: dict[str, Callable[..., InputFn]] = {
    "zero": _make_zero,
    "constant": _make_constant,
    "sine": _make_sine,
}


def input_by_name(name: str, *params: float) -> InputFn:
    """Look up a leader input factory by name and instantiate it."""
    try:
        factory = LEADER_INPUTS[name]
    except KeyError:
        raise DimensionMismatch(
            f"unknown leader input '{name}' (known: {sorted(LEADER_INPUTS)})"
        ) from None
    try:
        return factory(*params)
    except TypeError as exc:
        raise DimensionMismatch(f"bad parameters for leader input '{name}': {exc}") from None


# ---------------------------------------------------------------------------


def _leader_input(model: LeaderModel, t: float, f0: float | None = None) -> float:
    # f0(t), or the value already sampled there; "not <=" so a NaN input fails the bound check too.
    f0 = float(model.input_fn(t)) if f0 is None else f0
    if not abs(f0) <= model.input_bound + _BOUND_SLACK:
        raise InputBoundViolated(
            f"|f0| = {abs(f0):.6g} exceeds declared bound {model.input_bound:.6g} at t={t:.6g}"
        )
    return f0


def leader_rhs(model: LeaderModel, x0: np.ndarray, t: float) -> np.ndarray:
    """Integrator-chain derivative of the leader state.

    Monitors the input bound at every evaluation and raises
    InputBoundViolated when |f0| exceeds it beyond slack or is NaN.
    """
    return np.append(x0[1:], _leader_input(model, t))


def local_errors(analysis: GraphAnalysis, estimates: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Per-stage local disagreement vectors as an (N, n) matrix.

    Column k-1 holds psi_k = L0 (estimates[:, k-1] - x0[k-1]).
    """
    estimates = np.asarray(estimates, dtype=float)
    N = analysis.follower_count
    if estimates.ndim != 2 or estimates.shape[0] != N:
        raise DimensionMismatch(
            f"estimates must be ({N}, n), got {estimates.shape}"
        )
    if estimates.shape[1] != np.atleast_1d(x0).shape[0]:
        raise DimensionMismatch("estimate columns do not match leader order")
    return analysis.sub_laplacian @ (estimates - np.asarray(x0, dtype=float)[None, :])


def _gain_rows(gains: ObserverGains, sched: CascadeSchedule, guard: float, t, f0: np.ndarray, N: int,
               out: np.ndarray | None = None):
    # [alpha + beta r_k(t) per follower | f0 once | -sigma per follower], N (n + 1) + 1 doubles, at t,
    # a time or an array of times, into out if given; the caller samples f0(t) as (1,) or (times, 1).
    rates = np.array([stage_gain(sched, k, t, guard) for k in range(1, sched.order + 1)]).T
    g = np.add(gains.alpha, gains.beta * rates, rates)
    return np.concatenate([g] * N + [f0] + [np.full_like(f0, -gains.sigma)] * N, axis=-1, out=out)


def _extended_laplacian(analysis: GraphAnalysis) -> np.ndarray:
    # [-L0 1 | L0], (N, N + 1): times [x0; estimates] it gives psi = L0 (estimates - 1 x0^T).
    return np.hstack((-analysis.sub_laplacian.sum(axis=1, keepdims=True), analysis.sub_laplacian))


def _stacked_kernel(N: int, n: int, smoothing: float | None, stage_count: int = 1):
    """Work area KZ = [K0; ...; Z], stage inputs X and one stage function per stage.

    A stage input, (N + 1, n), stacks the leader state's row above the N
    estimates.  Stage 0 reads the state Z = KZ[-1] in place, stage s > 0 reads
    X[s - 1], and stages[s](L0e_dot, g), bound once to its views, writes the
    derivative into KZ[s] in 5 numpy calls (hard sign); Z below the slopes
    makes each later input c k + Z one dot over KZ's rows.  L0e_dot is the
    active topology's bound BLAS dot (a dgemm) of _extended_laplacian's
    [-L0 1 | L0], so it reads the leader once, through its pinning column; g
    is a _gain_rows row of the stage gains alpha + beta r_k(t) and the input
    f0(t), both sampled by the caller, so one multiply of [psi | 1 | sign(psi_n)]
    by g gives g * psi, f0 and -sigma sign(psi_n).  It allocates nothing,
    checks no shapes and calls no input.  Calls pass out positionally and
    scalars as 0-d arrays.
    """
    KZ, X = np.zeros((stage_count + 1, N + 1, n)), np.zeros((stage_count - 1, N + 1, n))
    Nn, PS, G = N * n, np.ones(N * n + N + 1), np.zeros(N * n + n + N + 1)
    psi, sign = PS[:Nn].reshape(N, n), PS[Nn + 1 :]  # PS = [psi.flat | 1 | sign(psi_n)]
    # G = [zero leader row | g * psi | f0 | -sigma sign]: K.flat[:-1] = X.flat[1:]
    # - G[:Nn + n - 1] is then every shift term, exactly x0[1:] in the leader row, and
    # K[:, -1] = [f0 | -sigma sign] - [0 | g_n psi_n] every top column (f0 - 0.0 is f0).
    GP, gp_flat, gp_top, tops = G[n:], G[: Nn + n - 1], G[n - 1 : Nn + n : n], G[Nn + n :]
    psi_top, subtract, multiply, sign_of = psi[:, -1], np.subtract, np.multiply, np.sign
    eps, absolute, add, divide = np.array(smoothing or 0.0, dtype=float), np.abs, np.add, np.divide

    def stage(Xs: np.ndarray, Ks: np.ndarray):  # the stage's input, flat shift, flat slopes, tops
        X_shift, K_flat, K_top = Xs.reshape(-1)[1:], Ks.reshape(-1)[:-1], Ks[:, -1]

        def rhs(L0e_dot, g: np.ndarray):
            L0e_dot(Xs, psi)
            # Top column -sigma sign(psi_n) - g_n psi_n: hard sign (sign(0) =
            # 0) or the boundary layer psi / (|psi| + eps) for chattering studies.
            if smoothing is None:
                sign_of(psi_top, sign)
            else:  # |psi| + eps into sign, then psi divided by it
                divide(psi_top, add(absolute(psi_top, sign), eps, sign), sign)
            multiply(PS, g, GP)
            subtract(X_shift, gp_flat, K_flat)
            subtract(tops, gp_top, K_top)

        return rhs

    return KZ, X, [stage(Xs, Ks) for Xs, Ks in zip([KZ[-1], *X], KZ)]


def dpto_rhs(
    analysis_at_t: GraphAnalysis,
    gains: ObserverGains,
    sched: CascadeSchedule,
    guard: float,
    estimates: np.ndarray,
    x0: np.ndarray,
    t: float,
    sign_smoothing: float | None = None,
) -> np.ndarray:
    """Estimate derivative matrix (N, n) of the cascade observer.

    analysis_at_t must belong to the topology active at time t; under
    switching the caller swaps it at switch instants.
    """
    n, N = sched.order, analysis_at_t.follower_count
    estimates, x0 = np.asarray(estimates, dtype=float), np.asarray(x0, dtype=float)
    if estimates.shape != (N, n) or x0.shape != (n,):
        raise DimensionMismatch(f"need estimates ({N}, {n}) and x0 ({n},)")
    # out is the estimate rows alone; the leader row reads a zero input.
    g = _gain_rows(gains, sched, guard, t, np.zeros(1), N)
    KZ, _, (rhs,) = _stacked_kernel(N, n, sign_smoothing)  # fresh: out owns KZ, [K0; Z]
    KZ[1, 0], KZ[1, 1:] = x0, estimates
    rhs(_extended_laplacian(analysis_at_t).dot, g)
    out = KZ[0, 1:]
    if not np.all(np.isfinite(out)):
        raise NonFinite(f"observer derivative is non-finite at t={t:.6g}")
    return out


def synthesize_gains(
    analyses: Sequence[GraphAnalysis],
    f0_bound: float,
    margins: GainMargins,
) -> ObserverGains:
    """Gains satisfying the sufficient conditions over all given topologies.

    alpha = margins.alpha,
    beta  = beta_factor * max(weights over analyses) / min(lambda_min over analyses),
    sigma = sigma_factor * f0_bound.

    A single analysis reduces the beta formula to the time-invariant bound.
    Raises InfeasibleTopology when some lambda_min is not positive.
    """
    if f0_bound < 0.0:
        raise DimensionMismatch("f0 bound must be nonnegative")
    max_weight, lam_min = _bound_terms(analyses)
    return ObserverGains(
        alpha=margins.alpha,
        beta=margins.beta_factor * max_weight / lam_min,
        sigma=margins.sigma_factor * f0_bound,
    )


def _bound_terms(analyses: Sequence[GraphAnalysis]) -> tuple[float, float]:
    # (max weight, min lambda_min) over the analyses: the beta bound's terms.
    if not analyses:
        raise DimensionMismatch("at least one graph analysis is required")
    lam_min = float(np.min([a.lambda_min for a in analyses]))  # NaN if any is NaN
    if not lam_min > 0.0:  # "not" so NaN fails too
        raise InfeasibleTopology(f"no beta bound: min lambda_min = {lam_min:.6g} is not positive")
    return max(a.max_weight for a in analyses), lam_min


def beta_lower_bound(analyses: Sequence[GraphAnalysis]) -> float:
    """The topology-dependent lower bound on beta (unit-factor synthesis)."""
    max_weight, lam_min = _bound_terms(analyses)
    return max_weight / lam_min


def gain_condition_warnings(
    gains: ObserverGains,
    analyses: Sequence[GraphAnalysis],
    f0_bound: float,
) -> list[str]:
    """Human-readable violations of the sufficient gain conditions.

    Empty when the gains satisfy them.  Violations do not forbid running a
    simulation (the conditions are sufficient, not necessary), so callers
    treat these as warnings.
    """
    warnings = []
    bound = beta_lower_bound(analyses)
    if gains.beta < bound:
        warnings.append(
            f"beta = {gains.beta:.6g} is below the topology bound {bound:.6g}; "
            f"prescribed-time convergence is not guaranteed"
        )
    if gains.sigma < f0_bound:
        warnings.append(
            f"sigma = {gains.sigma:.6g} is below the leader input bound {f0_bound:.6g}; "
            f"the sliding term cannot dominate the input"
        )
    return warnings


def _weighted_energy(weights: np.ndarray, psi: np.ndarray) -> np.ndarray:
    # 0.5 * sum_i w_i psi[..., i, k]^2 for weights (..., N) and psi (..., N, n).
    # numpy sums a stack of samples as it sums one sample of the same n.
    t = weights[..., :, None] * psi
    t *= psi  # (w psi) psi in one temporary, and its sum halved in place
    v = t.sum(axis=-2)
    return np.multiply(v, 0.5, out=v)
