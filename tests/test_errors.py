"""Error branches, table-driven: each case names the exception type and its
exact message (config errors with their path:line or --set prefix)."""

import re

import numpy as np
import pytest

import ptobs
from ptobs.config import apply_overrides, build_experiment, parse_config
from ptobs.errors import ConfigError, DimensionMismatch, MalformedTrace, NonFinite, NotSymmetric
from ptobs.gain import rate_ratio, varsigma
from ptobs.observer import dpto_rhs, local_errors
from ptobs.sim import detect_convergence
from ptobs.trace import header_columns, read_trace
from conftest import BUNDLED_CONFIG, INITIAL_ESTIMATES

BUNDLED = BUNDLED_CONFIG.read_text()


def _line(text: str, line: str) -> int:
    return text.splitlines().index(line) + 1


def _drop_section(text: str, name: str) -> str:
    # The section header and its keys, up to the blank line that ends it.
    return re.sub(rf"^\[{re.escape(name)}\]\n(?:.+\n)*\n?", "", text, flags=re.M)


_FOLLOWERS_2 = BUNDLED.replace(
    "followers = 3\nadjacency_row_1 = 0 0 0\nadjacency_row_2 = 1 0 0\nadjacency_row_3 = 1 0 0\n"
    "pinning = 1 0 0",
    "followers = 2\nadjacency_row_1 = 0 0\nadjacency_row_2 = 1 0\npinning = 1 0",
)

# (id, config text or None for the bundled one, overrides, the whole message)
_CONFIG_CASES = [
    ("missing-section", _drop_section(BUNDLED, "initial_estimates"), (),
     "exp.cfg: missing section [initial_estimates]"),
    *[(f"absent-{name}", _drop_section(BUNDLED, name), (), f"exp.cfg: missing section [{name}]")
      for name in ("leader", "cascade", "sim", "gains")],
    ("missing-vector-key", BUNDLED.replace("pinning = 1 0 0\n", "", 1), (),
     "exp.cfg: missing key 'pinning' in section [topology.1]"),
    ("missing-scalar-key", BUNDLED.replace("dt = 1e-4\n", ""), (),
     "exp.cfg: missing key 'dt' in section [sim]"),
    ("duplicate-section", BUNDLED + "[sim]\n", (),
     f"exp.cfg:{len(BUNDLED.splitlines()) + 1}: duplicate section [sim]"),
    ("line-without-equals", BUNDLED + "dt 1e-4\n", (),
     f"exp.cfg:{len(BUNDLED.splitlines()) + 1}: expected 'key = value' or '[section]'"),
    ("bad-key-name", BUNDLED + "time step = 1e-4\n", (),
     f"exp.cfg:{len(BUNDLED.splitlines()) + 1}: invalid key name 'time step'"),
    ("bad-input-spec", BUNDLED.replace("sine(0.125, 0.5)", "sine 0.125"), (),
     f"exp.cfg:{_line(BUNDLED, 'input = sine(0.125, 0.5)')}: "
     "[leader] input: cannot parse input spec 'sine 0.125'"),
    ("bad-input-parameter", BUNDLED.replace("sine(0.125, 0.5)", "sine(0.125, w)"), (),
     f"exp.cfg:{_line(BUNDLED, 'input = sine(0.125, 0.5)')}: "
     "[leader] input: bad parameter 'w' in 'sine(0.125, w)'"),
    ("bad-topology-index", BUNDLED.replace("[topology.2]", "[topology.b]"), (),
     "exp.cfg: bad topology index in [topology.b]"),
    ("no-topology", _drop_section(_drop_section(BUNDLED, "topology.1"), "topology.2"), (),
     "exp.cfg: no [topology.<j>] section found"),
    ("topology-numbering-gap", BUNDLED.replace("[topology.2]", "[topology.3]"), (),
     "exp.cfg: topology sections must be numbered 1..p without gaps, got [1, 3]"),
    ("no-followers", BUNDLED.replace("followers = 3", "followers = 0", 1), (),
     f"exp.cfg:{_line(BUNDLED, 'followers = 3')}: [topology.1] followers: must be a positive integer"),
    ("bad-schedule-token", None, ("switching.schedule=0.0:1 0.5-2",),
     "--set switching.schedule: [switching] schedule: expected t:index pairs, got '0.5-2'"),
    ("no-schedule-form", BUNDLED.replace("cycle = 1 2\n", ""), (),
     "exp.cfg: [switching] needs either 'schedule' or both 'period' and 'cycle'"),
    ("empty-cycle", BUNDLED.replace("cycle = 1 2", "cycle ="), (),
     f"exp.cfg:{_line(BUNDLED, 'cycle = 1 2')}: [switching] cycle: must list at least one topology index"),
    ("order-below-1", BUNDLED.replace("order = 3", "order = 0"), (),
     f"exp.cfg:{_line(BUNDLED, 'order = 3')}: [leader] order: must be >= 1"),
    ("follower-count-mismatch", _FOLLOWERS_2, (),
     "exp.cfg: [topology.2]: follower count 2 differs from 3"),
    ("schedule-after-t0", None, ("switching.schedule=0.1:1 0.5:2",),
     "exp.cfg: [switching]: schedule must start at the cascade t0"),
]


@pytest.mark.parametrize(
    "text, overrides, message", [case[1:] for case in _CONFIG_CASES], ids=[c[0] for c in _CONFIG_CASES]
)
def test_config_error_names_its_place(text, overrides, message):
    with pytest.raises(ConfigError) as info:
        doc = parse_config(BUNDLED if text is None else text, "exp.cfg")
        apply_overrides(doc, list(overrides))
        build_experiment(doc)
    assert str(info.value) == message


def test_unknown_key_in_file_is_reported_at_its_line():
    # The first unknown key in file order wins: [leader] comes before [sim].
    text = BUNDLED.replace("order = 3", "order = 3\ninput_bund = 1").replace(
        "tolerance = 0.01", "tolerence = 0.01"
    )
    with pytest.raises(ConfigError) as info:
        build_experiment(parse_config(text, "exp.cfg"))
    assert str(info.value) == f"exp.cfg:{_line(text, 'input_bund = 1')}: [leader] input_bund: unknown key"


def _trace_file(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty file"),
        ("t,a,b\n0,1,2\n", "unrecognized header: t,a,b"),
        (",".join(header_columns(2, 1)[::-1]) + "\n", "header does not match the expected column layout"),
    ],
    ids=["empty", "unrecognized-header", "wrong-layout"],
)
def test_trace_error_messages(tmp_path, text, message):
    with pytest.raises(MalformedTrace) as info:
        read_trace(_trace_file(tmp_path, text))
    assert str(info.value) == message


def test_unreadable_trace(tmp_path):
    with pytest.raises(MalformedTrace, match=r"^cannot read trace: "):
        read_trace(str(tmp_path))  # a directory


_TOPO1 = ptobs.DirectedTopology(adjacency=[[0.0]], pinning=[1.0])
_TOPO3 = ptobs.DirectedTopology(adjacency=[[0, 0, 1], [1, 0, 0], [0, 1, 0]], pinning=[1, 0, 0])
_SCHED = ptobs.CascadeSchedule(t0=0.0, stage_durations=(0.2, 0.2, 0.2), exponent=2.01)
_GAINS = ptobs.ObserverGains(alpha=1.0, beta=0.0, sigma=0.0)
_ZERO3 = np.zeros(3)


def _leader(order):
    return ptobs.LeaderModel(order, ptobs.input_by_name("zero"), 0.0, np.zeros(order))


def _run(sched=_SCHED, t0=0.0):
    cfg = ptobs.SimConfig(t0=t0, t_end=t0 + 0.1, dt=1e-3)
    return ptobs.run(ptobs.TopologySequence.static(_TOPO3, t0), _leader(3), _GAINS, sched,
                     INITIAL_ESTIMATES, cfg)


# (id, call, exception type, exact message)
_LIBRARY_CASES = [
    ("stage-out-of-range", lambda: _SCHED.window(0), DimensionMismatch, "stage 0 out of range [1, 3]"),
    ("rate-ratio-guard", lambda: rate_ratio(_SCHED.window(1), 0.0, 0.0), DimensionMismatch,
     "guard must be positive, got 0.0"),
    ("rate-ratio-nan-guard", lambda: rate_ratio(_SCHED.window(3), 0.1, np.nan), DimensionMismatch,
     "guard must be positive, got nan"),
    ("varsigma-nan-guard", lambda: varsigma(_SCHED.window(3), 0.1, np.nan), DimensionMismatch,
     "guard must be non-negative, got nan"),
    ("adjacency-not-square", lambda: ptobs.DirectedTopology(adjacency=np.zeros((2, 3)), pinning=[1, 0]),
     DimensionMismatch, "adjacency must be square, got (2, 3)"),
    ("no-followers", lambda: ptobs.DirectedTopology(adjacency=np.zeros((0, 0)), pinning=np.zeros(0)),
     DimensionMismatch, "a topology needs at least one follower"),
    ("min-eig-not-square", lambda: ptobs.min_eig_symmetric(np.zeros((2, 3))), DimensionMismatch,
     "expected a square matrix, got (2, 3)"),
    ("min-eig-empty", lambda: ptobs.min_eig_symmetric(np.zeros((0, 0))), DimensionMismatch,
     "expected a non-empty matrix, got (0, 0)"),
    ("min-eig-nan", lambda: ptobs.min_eig_symmetric(np.array([[1.0, np.nan], [np.nan, 1.0]])),
     NotSymmetric, "asymmetry nan exceeds 1e-10"),
    ("min-eig-inf", lambda: ptobs.min_eig_symmetric(np.diag([np.inf, 1.0])), NotSymmetric,
     "asymmetry nan exceeds 1e-10"),
    ("min-eig-asymmetry-overflows",
     lambda: ptobs.min_eig_symmetric(np.array([[0.0, 1e308], [-1e308, 0.0]])), NotSymmetric,
     "asymmetry inf exceeds 1e-10"),
    ("no-topologies", lambda: ptobs.TopologySequence(topologies=(), switch_times=[0.0], indices=[1]),
     DimensionMismatch, "at least one topology is required"),
    ("follower-counts-differ",
     lambda: ptobs.TopologySequence(topologies=(_TOPO1, _TOPO3), switch_times=[0.0], indices=[1]),
     DimensionMismatch, "follower counts differ across topologies: {1, 3}"),
    ("empty-schedule", lambda: ptobs.TopologySequence(topologies=(_TOPO1,), switch_times=[], indices=[]),
     DimensionMismatch, "schedule must contain at least one entry"),
    ("fractional-topology-index",
     lambda: ptobs.TopologySequence(topologies=(_TOPO1,) * 3, switch_times=[0.0, 0.1], indices=[1, 2.9],
                                    common_H=[1.0]),
     DimensionMismatch, "topology index must be an integer in [1, 3], got 2.9"),
    ("nan-topology-index",
     lambda: ptobs.TopologySequence(topologies=(_TOPO1,), switch_times=[0.0, 0.1], indices=[1, np.nan]),
     DimensionMismatch, "topology index must be an integer in [1, 1], got nan"),
    ("topology-index-out-of-range",
     lambda: ptobs.TopologySequence(topologies=(_TOPO1,), switch_times=[0.0], indices=[2]),
     DimensionMismatch, "topology index must be an integer in [1, 1], got 2"),
    ("integer-topology-index-past-float",
     lambda: ptobs.TopologySequence(topologies=(_TOPO1,), switch_times=[0.0], indices=[2**53 + 1]),
     DimensionMismatch, "topology index must be an integer in [1, 1], got 9007199254740993"),
    ("switch-lengths-differ",
     lambda: ptobs.TopologySequence(topologies=(_TOPO1,), switch_times=[0.0, 0.1], indices=[1]),
     DimensionMismatch, "switch times and indices must be 1-D and of one length, got shapes (2,) and (1,)"),
    ("leader-order", lambda: _leader(0), DimensionMismatch, "leader order must be >= 1, got 0"),
    ("leader-state-length",
     lambda: ptobs.LeaderModel(3, ptobs.input_by_name("zero"), 0.0, [1.0, 0.0]),
     DimensionMismatch, "initial state length 2 does not match order 3"),
    ("input-parameters", lambda: ptobs.input_by_name("constant"), DimensionMismatch,
     "bad parameters for leader input 'constant': _make_constant() missing 1 required "
     "positional argument: 'c'"),
    ("local-errors-rows", lambda: local_errors(ptobs.build_analysis(_TOPO3), np.zeros((2, 3)), _ZERO3),
     DimensionMismatch, "estimates must be (3, n), got (2, 3)"),
    ("local-errors-columns",
     lambda: local_errors(ptobs.build_analysis(_TOPO3), np.zeros((3, 2)), _ZERO3),
     DimensionMismatch, "estimate columns do not match leader order"),
    ("dpto-rhs-shapes",
     lambda: dpto_rhs(ptobs.build_analysis(_TOPO3), _GAINS, _SCHED, 1e-3, np.zeros((3, 2)), _ZERO3, 0.0),
     DimensionMismatch, "need estimates (3, 3) and x0 (3,)"),
    ("dpto-rhs-non-finite",
     lambda: dpto_rhs(ptobs.build_analysis(_TOPO1), _GAINS,
                      ptobs.CascadeSchedule(t0=0.0, stage_durations=(0.2,), exponent=2.01),
                      1e-3, np.array([[np.inf]]), np.zeros(1), 0.0),
     NonFinite, "observer derivative is non-finite at t=0"),
    ("negative-input-bound",
     lambda: ptobs.synthesize_gains([ptobs.build_analysis(_TOPO1)], -1.0, ptobs.GainMargins(alpha=1.0)),
     DimensionMismatch, "f0 bound must be nonnegative"),
    ("no-analyses", lambda: ptobs.synthesize_gains([], 0.0, ptobs.GainMargins(alpha=1.0)),
     DimensionMismatch, "at least one graph analysis is required"),
    ("record-stride", lambda: ptobs.SimConfig(t0=0.0, t_end=1.0, dt=1e-3, record_stride=0),
     DimensionMismatch, "record_stride must be a positive integer"),
    # An int past the doubles, in each place float() would overflow on it.
    ("t-end-past-the-doubles", lambda: ptobs.SimConfig(t0=0.0, t_end=10**400, dt=1e-3),
     DimensionMismatch, "t_end lies outside the doubles"),
    ("dt-past-the-doubles", lambda: ptobs.SimConfig(t0=0, t_end=1, dt=10**400),
     DimensionMismatch, "dt lies outside the doubles"),
    ("t0-past-the-doubles", lambda: ptobs.SimConfig(t0=-10**400, t_end=1, dt=1e-3),
     DimensionMismatch, "t0 lies outside the doubles"),
    ("guard-past-the-doubles", lambda: ptobs.SimConfig(t0=0.0, t_end=1.0, dt=1e-3, guard=10**400),
     DimensionMismatch, "guard lies outside the doubles"),
    ("smoothing-past-the-doubles",
     lambda: ptobs.SimConfig(t0=0.0, t_end=1.0, dt=1e-3, sign_smoothing=10**400),
     DimensionMismatch, "sign_smoothing lies outside the doubles"),
    ("tolerance-past-the-doubles",
     lambda: ptobs.SimConfig(t0=0.0, t_end=1.0, dt=1e-3, convergence_tolerance=10**400),
     DimensionMismatch, "convergence_tolerance lies outside the doubles"),
    ("threshold-past-the-doubles",
     lambda: ptobs.SimConfig(t0=0.0, t_end=1.0, dt=1e-3, divergence_threshold=10**400),
     DimensionMismatch, "divergence_threshold lies outside the doubles"),
    ("convergence-tolerance", lambda: detect_convergence(np.zeros(1), np.zeros((1, 1, 1)), 0.0),
     DimensionMismatch, "tolerance must be positive"),
    ("schedule-order",
     lambda: _run(sched=ptobs.CascadeSchedule(t0=0.0, stage_durations=(0.2, 0.2), exponent=2.01)),
     DimensionMismatch, "schedule order 2 does not match leader order 3"),
    ("schedule-start", lambda: _run(t0=0.5), DimensionMismatch,
     "cascade schedule and switching schedule must start at the sim t0"),
]


@pytest.mark.parametrize(
    "call, kind, message", [case[1:] for case in _LIBRARY_CASES], ids=[c[0] for c in _LIBRARY_CASES]
)
def test_library_error_messages(call, kind, message):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message
