import numpy as np
import pytest

import ptobs
from ptobs.config import (
    apply_overrides,
    build_experiment,
    load_experiment,
    parse_config,
    serialize_config,
)
from ptobs.errors import ConfigError, InfeasibleTopology
from conftest import BUNDLED_CONFIG

MINIMAL = """\
[leader]
order = 1
input = zero
input_bound = 0.0
initial_state = 0

[topology.1]
followers = 1
adjacency_row_1 = 0
pinning = 1

[cascade]
t0 = 0.0
stage_durations = 0.2
exponent = 2.01

[gains]
mode = explicit
alpha = 1.0
beta = 0.0
sigma = 0.0

[initial_estimates]
row_1 = 1.0

[sim]
dt = 1e-3
t_end = 1.0
guard = 1e-2
"""


def test_bundled_config_loads():
    exp = load_experiment(str(BUNDLED_CONFIG))
    assert exp.leader.order == 3
    assert exp.leader.input_bound == 0.125
    assert exp.gains_mode == "explicit"
    assert (exp.gains.alpha, exp.gains.beta, exp.gains.sigma) == (1.05, 5.692, 0.125)
    assert exp.sequence.topology_count == 2
    assert np.allclose(exp.sequence.common_H, [3, 5, 4])
    assert exp.sequence.schedule[0] == (0.0, 1)
    assert len(exp.sequence.schedule) == 20  # every 0.1 s up to t_end = 2 s
    assert [j for _, j in exp.sequence.schedule[:4]] == [1, 2, 1, 2]
    assert exp.sched.stage_durations == (0.2, 0.2, 0.2)
    assert exp.sim.dt == 1e-4 and exp.sim.guard == 1e-3
    assert exp.initial_estimates.shape == (3, 3)
    assert exp.output.write_csv


def test_roundtrip_parse_serialize_parse_fixed_point():
    doc1 = parse_config(MINIMAL, "m.cfg")
    text = serialize_config(doc1)
    doc2 = parse_config(text, "m.cfg")
    strip = lambda doc: {s: {k: v for k, (v, _) in kv.items()} for s, kv in doc.sections.items()}
    assert strip(doc1) == strip(doc2)
    assert serialize_config(doc2) == text


def test_minimal_experiment_builds():
    exp = build_experiment(parse_config(MINIMAL, "m.cfg"))
    assert exp.leader.order == 1
    assert exp.sequence.schedule == ((0.0, 1),)
    assert exp.sim.method == "rk4"  # default


def test_malformed_adjacency_row_points_at_line():
    bad = MINIMAL.replace("adjacency_row_1 = 0", "adjacency_row_1 = zero")
    lineno = bad.splitlines().index("adjacency_row_1 = zero") + 1
    with pytest.raises(ConfigError) as info:
        build_experiment(parse_config(bad, "exp.cfg"))
    assert info.value.line == lineno
    assert "exp.cfg" in str(info.value)


@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_bad_period_reports_line(value):
    text = BUNDLED_CONFIG.read_text().replace("period = 0.1", f"period = {value}")
    with pytest.raises(ConfigError, match="finite and positive") as info:
        build_experiment(parse_config(text, "exp.cfg"))
    assert info.value.line == text.splitlines().index(f"period = {value}") + 1


@pytest.mark.parametrize("key", ["alpha_margin", "beta_factor", "sigma_factor"])
def test_non_finite_margin_rejected(key):
    text = MINIMAL.replace(
        "mode = explicit\nalpha = 1.0\nbeta = 0.0\nsigma = 0.0",
        "mode = synthesize\nalpha_margin = 1.0",
    )
    doc = parse_config(text, "m.cfg")
    apply_overrides(doc, [f"gains.{key}=nan"])
    with pytest.raises(ConfigError, match=r"\[gains\].*finite"):
        build_experiment(doc)


def test_wrong_vector_length_reports_line():
    bad = MINIMAL.replace("initial_state = 0", "initial_state = 0 1")
    with pytest.raises(ConfigError) as info:
        build_experiment(parse_config(bad, "exp.cfg"))
    assert info.value.line is not None


def test_missing_section():
    bad = MINIMAL.replace("[gains]", "[gainz]")
    with pytest.raises(ConfigError):
        build_experiment(parse_config(bad, "exp.cfg"))


def test_duplicate_key_rejected():
    bad = MINIMAL + "\n[output]\ncsv = on\ncsv = off\n"
    with pytest.raises(ConfigError) as info:
        parse_config(bad, "exp.cfg")
    assert "duplicate" in str(info.value)


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config("dt = 1\n[sim]\n", "exp.cfg")
    assert info.value.line == 1


def test_override_applies_before_validation():
    doc = parse_config(MINIMAL, "m.cfg")
    apply_overrides(doc, ["sim.dt=1e-4", "gains.alpha=2.0"])
    exp = build_experiment(doc)
    assert exp.sim.dt == 1e-4
    assert exp.gains.alpha == 2.0


def test_override_guard_below_dt_fails_validation():
    doc = parse_config(MINIMAL, "m.cfg")
    apply_overrides(doc, ["sim.dt=1e-1"])  # guard = 1e-2 < dt now
    with pytest.raises(ConfigError):
        build_experiment(doc)


def test_bad_override_shape():
    doc = parse_config(MINIMAL, "m.cfg")
    with pytest.raises(ConfigError):
        apply_overrides(doc, ["nodotkey=3"])
    with pytest.raises(ConfigError):
        apply_overrides(doc, ["sim.dt"])


def test_switching_requires_common_h():
    text = MINIMAL.replace(
        "[cascade]",
        "[topology.2]\nfollowers = 1\nadjacency_row_1 = 0\npinning = 1\n\n"
        "[switching]\nschedule = 0.0:1 0.5:2\n\n[cascade]",
    )
    with pytest.raises(ConfigError) as info:
        build_experiment(parse_config(text, "exp.cfg"))
    assert "common_h" in str(info.value)


def test_switching_infeasible_H_raises_infeasible():
    doc = parse_config(BUNDLED_CONFIG.read_text(), str(BUNDLED_CONFIG))
    apply_overrides(doc, ["switching.common_h=1 100 1"])
    with pytest.raises(InfeasibleTopology):
        build_experiment(doc)


def test_synthesize_mode_config_carries_margins():
    text = MINIMAL.replace(
        "mode = explicit\nalpha = 1.0\nbeta = 0.0\nsigma = 0.0",
        "mode = synthesize\nalpha_margin = 1.5\nbeta_factor = 2.0",
    )
    exp = build_experiment(parse_config(text, "m.cfg"))
    assert exp.gains_mode == "synthesize"
    assert exp.gains is None
    assert exp.margins.alpha == 1.5
    assert exp.margins.beta_factor == 2.0
    assert exp.margins.sigma_factor == 1.0


def test_two_topologies_without_switching_section():
    text = MINIMAL.replace(
        "[cascade]",
        "[topology.2]\nfollowers = 1\nadjacency_row_1 = 0\npinning = 1\n\n[cascade]",
    )
    with pytest.raises(ConfigError):
        build_experiment(parse_config(text, "exp.cfg"))


def test_explicit_schedule_form():
    text = MINIMAL.replace(
        "[cascade]",
        "[switching]\nschedule = 0.0:1 0.5:1\n\n[cascade]",
    )
    exp = build_experiment(parse_config(text, "exp.cfg"))
    assert exp.sequence.schedule == ((0.0, 1),)  # no-op switch dropped


def test_leader_input_parsing():
    exp = load_experiment(str(BUNDLED_CONFIG))
    fn = exp.leader.input_fn
    assert fn(None, 0.0) == 0.0
    assert fn(None, np.pi) == pytest.approx(0.125 * np.sin(np.pi / 2))


def test_unreadable_file():
    with pytest.raises(ConfigError):
        load_experiment("/nonexistent/path.cfg")
