"""Prescribed-time cascade consensus observers on directed graphs.

A follower network estimates the full state of an integrator-chain leader.
Each estimate stage runs a time-varying gain window; the windows are chained
so the top state converges first and the bottom state is exact by a
user-chosen instant, independent of the initial estimates.  The package
provides the graph-spectral analysis behind the gain bounds, gain synthesis,
an event-aligned fixed-step simulator, and a small CLI for config-driven
experiments.
"""

from .errors import (
    ConfigError,
    DimensionMismatch,
    Diverged,
    InfeasibleTopology,
    InputBoundViolated,
    MalformedTrace,
    NonFinite,
    NoSpanningTree,
    NotSymmetric,
    SingularLaplacian,
    ToolkitError,
)
from .gain import CascadeSchedule, ScalingWindow, rate_ratio, stage_gain, varsigma
from .graph import (
    DirectedTopology,
    GraphAnalysis,
    TopologySequence,
    build_analysis,
    has_spanning_tree,
    min_eig_symmetric,
    mirror_with_H,
    sub_laplacian,
)
from .observer import (
    GainMargins,
    LeaderModel,
    ObserverGains,
    beta_lower_bound,
    dpto_rhs,
    gain_condition_warnings,
    input_by_name,
    leader_rhs,
    local_errors,
    synthesize_gains,
)
from .sim import SimConfig, SimResult, decay_budget, detect_convergence, run

__all__ = [
    "CascadeSchedule",
    "ConfigError",
    "DimensionMismatch",
    "DirectedTopology",
    "Diverged",
    "GainMargins",
    "GraphAnalysis",
    "InfeasibleTopology",
    "InputBoundViolated",
    "LeaderModel",
    "MalformedTrace",
    "NonFinite",
    "NoSpanningTree",
    "NotSymmetric",
    "ObserverGains",
    "ScalingWindow",
    "SimConfig",
    "SimResult",
    "SingularLaplacian",
    "ToolkitError",
    "TopologySequence",
    "beta_lower_bound",
    "build_analysis",
    "decay_budget",
    "detect_convergence",
    "dpto_rhs",
    "gain_condition_warnings",
    "has_spanning_tree",
    "input_by_name",
    "leader_rhs",
    "local_errors",
    "min_eig_symmetric",
    "mirror_with_H",
    "rate_ratio",
    "run",
    "stage_gain",
    "sub_laplacian",
    "synthesize_gains",
    "varsigma",
]

__version__ = "0.1.0"
