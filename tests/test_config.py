import copy
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptobs
from ptobs.config import (
    ConfigDocument,
    apply_overrides,
    build_experiment,
    load_experiment,
    parse_config,
    serialize_config,
)
from ptobs.errors import ConfigError, InfeasibleTopology
from ptobs.trace import read_trace, write_trace
from conftest import BUNDLED_CONFIG, perfbench_workloads, schedule_pairs, traced_peak
from oracles import dedup_schedule, periodic_schedule

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
    pairs = schedule_pairs(exp.sequence)
    assert pairs[0] == (0.0, 1)
    assert len(pairs) == 20  # every 0.1 s up to t_end = 2 s
    assert [j for _, j in pairs[:4]] == [1, 2, 1, 2]
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
    assert schedule_pairs(exp.sequence) == ((0.0, 1),)
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
    assert exp.gains == ptobs.ObserverGains(alpha=1.5, beta=2.0, sigma=0.0)  # lambda_min = max weight = 1
    assert exp.margins.alpha == 1.5
    assert exp.margins.beta_factor == 2.0
    assert exp.margins.sigma_factor == 1.0


def test_synthesize_mode_gains_are_resolved_on_load():
    # The loaded experiment carries the gains synthesize_gains gives for its
    # topologies and leader bound, so it runs as it stands in either mode.
    exp = load_experiment(str(BUNDLED_CONFIG), [
        "gains.mode=synthesize", "gains.alpha_margin=1.05", "gains.beta_factor=1.5", "sim.t_end=0.01",
    ])
    assert exp.gains_mode == "synthesize"
    want = ptobs.synthesize_gains(exp.sequence.analyses(), exp.leader.input_bound, exp.margins)
    assert isinstance(exp.gains, ptobs.ObserverGains) and exp.gains == want
    result = ptobs.run(exp.sequence, exp.leader, exp.gains, exp.sched, exp.initial_estimates, exp.sim)
    assert result.times[-1] == exp.sim.t_end


def test_unbounded_synthesized_gain_is_a_gains_error():
    # beta = beta_factor * 10.4 overflows; the load reports it under [gains].
    doc = parse_config(BUNDLED_CONFIG.read_text(), "exp.cfg")
    apply_overrides(doc, ["gains.mode=synthesize", "gains.alpha_margin=1", "gains.beta_factor=1e308"])
    with pytest.raises(ConfigError, match=r"^exp.cfg, --set gains.mode, .*\[gains\]: beta and sigma must be finite"):
        build_experiment(doc)


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
    assert schedule_pairs(exp.sequence) == ((0.0, 1),)  # no-op switch dropped


@settings(max_examples=60, deadline=None)
@given(
    t0=st.sampled_from([0.0, -0.3, 1e5 + 0.3]),
    period=st.one_of(st.sampled_from([0.1, 0.0137, 0.3, 0.7, 1 / 3]), st.floats(1e-4, 0.5)),
    multiple=st.integers(1, 40),
    nudge=st.integers(-2, 2),
    cycle=st.lists(st.integers(1, 2), min_size=1, max_size=3),
)
def test_periodic_schedule_equals_one_entry_at_a_time(t0, period, multiple, nudge, cycle):
    # t_end on, just below or just above (by ulps) the loop's own multiple of
    # the period; the periods are not binary fractions, and dt = 1e-4.
    t_end = t0 + multiple * period
    for _ in range(abs(nudge)):
        t_end = float(np.nextafter(t_end, np.inf if nudge > 0 else -np.inf))
    overrides = [
        f"cascade.t0={t0!r}", f"sim.t_end={t_end!r}", f"switching.period={period!r}",
        "switching.cycle=" + " ".join(map(str, cycle)),
    ]
    exp = load_experiment(str(BUNDLED_CONFIG), overrides)
    expected = dedup_schedule(periodic_schedule(t0, t_end, period, cycle))
    assert schedule_pairs(exp.sequence) == tuple(expected)


@pytest.mark.parametrize("cycle, bound", [("1 2", 36), ("1 2 2 1", 28)])
def test_periodic_schedule_load_peak_per_switch(cycle, bound):
    # 500 001 switches: the times and the tiled cycle pass as two arrays to
    # TopologySequence, which keeps one copy of the switches that change the
    # topology, 16 bytes each; no (S, 2) array is built on the way.
    overrides = ["sim.dt=1e-7", "switching.period=1e-7", "sim.t_end=0.05", f"switching.cycle={cycle}"]
    load_experiment(str(BUNDLED_CONFIG), overrides)  # warm-up: first-call allocations are not the load's
    seq, peak = traced_peak(lambda: load_experiment(str(BUNDLED_CONFIG), overrides).sequence)
    switches = 500_001
    assert seq.switch_times.size == (switches if cycle == "1 2" else (switches + 1) // 2)
    assert seq.switch_times.nbytes + seq.indices.nbytes == 16 * seq.switch_times.size
    assert peak <= bound * switches, peak / switches


def test_leader_input_parsing():
    exp = load_experiment(str(BUNDLED_CONFIG))
    fn = exp.leader.input_fn
    assert fn(0.0) == 0.0
    assert fn(np.pi) == pytest.approx(0.125 * np.sin(np.pi / 2))


def test_unreadable_file():
    with pytest.raises(ConfigError):
        load_experiment("/nonexistent/path.cfg")


# Matrix-block tokens: what float() reads (random doubles, subnormals,
# overflow, signed nan and inf), what only float() reads (1_0, Arabic-Indic
# one), and what neither reads.  Separators: two of Unicode's whitespace too.
_GOOD_TOKENS = st.one_of(
    st.floats().map(repr), st.sampled_from(["5e-324", "1e400", "nan", "-nan", "inf", "-inf"])
)
_ANY_TOKENS = st.one_of(_GOOD_TOKENS, st.sampled_from(["1_0", "\u0661", "0x10", "#", ","]))
_SEPARATORS = st.sampled_from([" ", "\t", "\xa0", "\u2003"])


@st.composite
def _matrix_blocks(draw):
    """(config text, --set overrides, keys, length) of one [block] section.

    A clean block has every row in full, from the file or an override; any
    other row may be missing, blank, ragged or hold tokens float() refuses.
    """
    rows, length = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    clean = draw(st.booleans())
    counts = st.sampled_from([length] if clean else [length, length, 0, length - 1, length + 1])
    token = _GOOD_TOKENS if clean else _ANY_TOKENS
    places = ["file", "override", "both"] + ([] if clean else ["missing"])
    lines, overrides, keys = ["[block]"], [], []
    for i in range(1, rows + 1):
        key = f"row_{i}"
        keys.append(key)
        count = draw(counts)
        tokens = draw(st.lists(token, min_size=count, max_size=count))
        seps = draw(st.lists(_SEPARATORS, min_size=count + 1, max_size=count + 1))
        value = seps[0] + "".join(tok + sep for tok, sep in zip(tokens, seps[1:]))
        where = draw(st.sampled_from(places))
        if where in ("file", "both"):
            lines.append(f"{key} = {value if where == 'file' else '0'}")
        if where in ("override", "both"):
            overrides.append(f"block.{key}={value}")
    return "\n".join(lines) + "\n", overrides, keys, length


def _outcome(read):
    try:
        block = read()
    except ConfigError as exc:
        return "error", str(exc), exc.line
    return "ok", block.shape, block.tobytes()


@settings(max_examples=300, deadline=None)
@given(_matrix_blocks())
def test_matrix_equals_rows_read_one_by_one(block):
    # doc.matrix either gives the per-key vstack byte for byte or raises the
    # same ConfigError at the same line or --set override; no warning.
    text, overrides, keys, length = block
    doc = parse_config(text, "m.cfg")
    apply_overrides(doc, overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(lambda: doc.matrix("block", keys, length))
        want = _outcome(lambda: np.vstack([doc.vector("block", key, length) for key in keys]))
    assert got == want


def test_matrix_blocks_are_parsed_in_one_call(monkeypatch, tmp_path):
    # A silent fallback to row-by-row parsing would keep every result and
    # only cost time: any adjacency or estimate row read by `vector` fails.
    workloads = perfbench_workloads()
    vector = ConfigDocument.vector

    def rows_only_in_blocks(doc, section, key, length):
        assert not key.startswith(("adjacency_row_", "row_")), f"[{section}] {key} read alone"
        return vector(doc, section, key, length)

    monkeypatch.setattr(ConfigDocument, "vector", rows_only_in_blocks)
    wide = tmp_path / "wide.cfg"
    wide.write_text(workloads.wide_config(3, 0, 40)[2])
    for path, overrides in [
        (BUNDLED_CONFIG, []),
        (BUNDLED_CONFIG, list(workloads.DENSE_OVERRIDES)),
        (wide, []),
    ]:
        exp = load_experiment(str(path), overrides)
        assert exp.initial_estimates.shape == (exp.sequence.topologies[0].follower_count, 3)


def test_array_holding_dataclasses_compare_and_hash_by_identity(tmp_path):
    # Their fields hold arrays, so field-wise == would raise (ambiguous truth
    # value) and the generated hash would hash an array.
    exp = load_experiment(str(BUNDLED_CONFIG), ["sim.t_end=0.01"])
    seq = exp.sequence
    result = ptobs.run(seq, exp.leader, exp.gains, exp.sched, exp.initial_estimates, exp.sim)
    write_trace(result, str(tmp_path / "trace.csv"))
    trace = read_trace(str(tmp_path / "trace.csv"))
    objects = [exp, seq, seq.topologies[0], seq.analyses()[0], exp.leader, result, trace]
    for obj in objects:
        twin = copy.deepcopy(obj)
        assert obj == obj and obj != twin
        assert obj in (twin, obj) and twin not in (obj,)
        assert {obj: 1}[obj] == 1 and hash(obj) != hash(twin)
