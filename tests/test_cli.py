import dataclasses
import re
import warnings

import numpy as np
import pytest

import ptobs
from ptobs.cli import main
from ptobs.errors import MalformedTrace
from ptobs.svgplot import render_error_plot
from ptobs.trace import header_columns, read_trace, write_trace
from conftest import BUNDLED_CONFIG, INITIAL_ESTIMATES

CFG = str(BUNDLED_CONFIG)

NO_PINNING = """\
[leader]
order = 1
input = zero
input_bound = 0.0
initial_state = 0

[topology.1]
followers = 2
adjacency_row_1 = 0 1
adjacency_row_2 = 1 0
pinning = 0 0

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
row_2 = 1.0

[sim]
dt = 1e-3
t_end = 1.0
guard = 1e-2
"""


def test_analyze_reports_bounds(capsys):
    assert main(["analyze", "--config", CFG]) == 0
    out = capsys.readouterr().out
    assert "lambda_min(M): 0.922398032" in out
    assert "lambda_min(M): 0.480548245" in out
    assert "combined beta lower bound: 10.4047826" in out
    assert "sigma lower bound" in out and "0.125" in out


def test_analyze_no_pinning_exits_2(tmp_path, capsys):
    cfg = tmp_path / "nopin.cfg"
    cfg.write_text(NO_PINNING)
    assert main(["analyze", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "leader-rooted spanning tree: NO" in captured.out
    assert "no leader-rooted spanning tree" in captured.err


def test_analyze_checks_reachability_once_per_topology(tmp_path, monkeypatch, capsys):
    original = ptobs.graph.has_spanning_tree
    calls = []

    def counting(topo):
        calls.append(topo)
        return original(topo)

    monkeypatch.setattr(ptobs.graph, "has_spanning_tree", counting)
    monkeypatch.setattr(ptobs.cli, "has_spanning_tree", counting)
    cfg = tmp_path / "pinned.cfg"
    cfg.write_text(NO_PINNING.replace("pinning = 0 0", "pinning = 1 0"))
    assert main(["analyze", "--config", str(cfg)]) == 0
    assert "leader-rooted spanning tree: yes" in capsys.readouterr().out
    assert len(calls) == 1


@pytest.mark.parametrize(
    "command", [["run", "--set", "sim.t_end=0.05"], ["analyze"], ["synthesize"]],
    ids=["run", "analyze", "synthesize"],
)
def test_commands_compute_each_mirror_once(tmp_path, monkeypatch, command):
    # Two topologies with common_H: the construction-time verdict computes
    # both analyses, and every later use reuses them.
    original = ptobs.graph.mirror_with_H
    calls = []

    def counting(topo, eta):
        calls.append(topo)
        return original(topo, eta)

    monkeypatch.setattr(ptobs.graph, "mirror_with_H", counting)
    monkeypatch.setattr(ptobs.cli, "mirror_with_H", counting)
    argv = [command[0], "--config", CFG, "--quiet", "--out", str(tmp_path), *command[1:]]
    assert main(argv) == 0
    assert len(calls) == 2


def _unreachable_topology_2(tmp_path):
    # The bundled config with topology 2 an unpinned triangle and H = I: its
    # mirror's lambda_min is ~1e-31 > 0, but no follower is reachable.
    text = BUNDLED_CONFIG.read_text()
    tree = "adjacency_row_1 = 0 0 0\nadjacency_row_2 = 1 0 0\nadjacency_row_3 = 1 0 0\npinning = 1 0 0"
    triangle = "adjacency_row_1 = 0 1 1\nadjacency_row_2 = 1 0 1\nadjacency_row_3 = 1 1 0\npinning = 0 0 0"
    assert tree in text and "common_h = 3 5 4" in text
    cfg = tmp_path / "unreachable.cfg"
    cfg.write_text(text.replace(tree, triangle).replace("common_h = 3 5 4", "common_h = 1 1 1"))
    return str(cfg)


@pytest.mark.parametrize("command", ["analyze", "synthesize", "run"])
def test_unreachable_topology_exits_2_in_every_command(tmp_path, capsys, command):
    argv = [command, "--config", _unreachable_topology_2(tmp_path), "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "error: topology 2: no leader-rooted spanning tree" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("command", ["analyze", "synthesize", "run"])
def test_overflowing_common_h_exits_1_in_every_command(tmp_path, capsys, command):
    # The mirror overflows to inf; no numpy warning (warnings fail tests).
    argv = [command, "--config", CFG, "--out", str(tmp_path),
            "--set", "switching.common_h=1e308 1e308 1e308"]
    assert main(argv) == 1
    assert "[switching]: mirror matrix overflows" in capsys.readouterr().err


def _bundled_keys():
    # (key, 0-based line) of every key in the bundled config, read without
    # the library's parser; the id is section.key.
    params, section = [], None
    for index, line in enumerate(BUNDLED_CONFIG.read_text().splitlines()):
        if line.startswith("["):
            section = line.strip("[]")
        elif "=" in line and not line.startswith("#"):
            key = line.split("=")[0].strip()
            if f"{section}.{key}" != "output.directory":
                params.append(pytest.param(key, index, id=f"{section}.{key}"))
    return params


@pytest.mark.parametrize("key, index", _bundled_keys())
def test_malformed_adjacency_exits_1(tmp_path, capsys, key, index):
    # A junk value for any key is reported at that key's line.
    lines = BUNDLED_CONFIG.read_text().splitlines()
    lines[index] = f"{key} = zz"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    assert main(["analyze", "--config", str(cfg)]) == 1
    assert f"bad.cfg:{index + 1}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, message",
    [
        ("switching.period=-1", "[switching] period: must be finite and positive"),
        ("sim.dt=abc", "[sim] dt: expected a number, got 'abc'"),
    ],
)
def test_bad_override_names_the_override(capsys, override, message):
    # A value from --set has no file line: the error names the override.
    assert main(["analyze", "--config", CFG, "--set", override]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --set {override.split('=')[0]}: {message}\n"
    assert ":0" not in err


def test_missing_config_exits_1(capsys):
    assert main(["analyze", "--config", "/no/such/file.cfg"]) == 1


def test_synthesize_reference_topologies(capsys):
    assert main(["synthesize", "--config", CFG]) == 0
    out = capsys.readouterr().out
    # 5 / lambda_min(topology 2) = 10.40478255779731165... (50-digit mpmath
    # reference, see tests/test_graph.py); this is the nearest double.
    assert "beta  = 10.404782557797311" in out
    assert "sigma = 0.125" in out
    assert "lambda_min(M) = 0.922398032" in out
    assert "lambda_min(M) = 0.480548245" in out


def test_synthesize_scalar_case(tmp_path, capsys):
    cfg = tmp_path / "scalar.cfg"
    cfg.write_text(NO_PINNING.replace("pinning = 0 0", "pinning = 1 0").replace(
        "input_bound = 0.0", "input_bound = 0.125"
    ))
    assert main(["synthesize", "--config", str(cfg), "--alpha-margin", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "alpha = 1" in out
    assert "sigma = 0.125" in out


def test_synthesize_infeasible_H_exits_2(capsys):
    code = main(["synthesize", "--config", CFG, "--set", "switching.common_h=1 100 1"])
    assert code == 2


def test_synthesize_emit_config(tmp_path, capsys):
    emitted = tmp_path / "explicit.cfg"
    assert main([
        "synthesize", "--config", CFG, "--emit-config", str(emitted), "--quiet",
    ]) == 0
    from ptobs.config import load_experiment

    exp = load_experiment(str(emitted))
    assert exp.gains_mode == "explicit"
    assert exp.gains.beta == pytest.approx(10.404782557797308)
    assert exp.gains.sigma == 0.125


def test_run_and_trace_roundtrip(tmp_path, capsys):
    code = main([
        "run", "--config", CFG, "--out", str(tmp_path),
        "--set", "sim.t_end=0.3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "convergence times" in out
    trace = tmp_path / "trace.csv"
    assert trace.exists()

    data = read_trace(str(trace))
    assert data.order == 3 and data.follower_count == 3
    assert data.times[0] == 0.0
    header = trace.read_text().splitlines()[0]
    assert header.split(",") == header_columns(3, 3)
    n, N = 3, 3
    assert len(header.split(",")) == 1 + n + 2 * N * n + n + 1


def test_trace_write_read_exact(tmp_path, digraph1, sine_leader, cascade):
    gains = ptobs.ObserverGains(alpha=1.05, beta=5.692, sigma=0.125)
    cfg = ptobs.SimConfig(t0=0.0, t_end=0.25, dt=1e-4, guard=1e-3)
    res = ptobs.run(
        ptobs.TopologySequence.static(digraph1, 0.0), sine_leader, gains, cascade,
        INITIAL_ESTIMATES, cfg,
    )
    path = tmp_path / "t.csv"
    write_trace(res, str(path))
    data = read_trace(str(path))
    assert np.array_equal(data.times, res.times)
    assert np.array_equal(data.leader_states, res.leader_states)
    assert np.array_equal(data.estimate_errors, res.estimate_errors)
    assert np.array_equal(data.local_errors, res.local_errors)
    assert np.array_equal(data.lyapunov, res.lyapunov)
    assert np.array_equal(data.decay_bound, res.decay_bound)


def _write_trace_per_value(result, path):
    # The row-at-a-time writer write_trace replaced: one f"{x:.17g}" per value.
    S, N, n = result.estimate_errors.shape
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header_columns(N, n)) + "\n")
        for s in range(S):
            row = [result.times[s], *result.leader_states[s]]
            row += list(result.estimate_errors[s].reshape(-1))
            row += list(result.local_errors[s].reshape(-1))
            row += [*result.lyapunov[s], result.decay_bound[s]]
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def test_write_trace_equals_per_value_writer(tmp_path, static_run):
    res = static_run[3]  # 701 rows: several chunks and a partial last one
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1])
    odd = dataclasses.replace(
        res,
        times=np.resize(special, res.times.shape),
        estimate_errors=np.resize(special[::-1], res.estimate_errors.shape),
        decay_bound=np.resize(special[2:], res.decay_bound.shape),
    )
    fields = [f.name for f in dataclasses.fields(res) if isinstance(getattr(res, f.name), np.ndarray)]
    results = [res, odd]
    results += [dataclasses.replace(res, **{f: getattr(res, f)[:m] for f in fields}) for m in (1, 256, 257)]
    for i, result in enumerate(results):
        write_trace(result, str(tmp_path / f"new{i}.csv"))
        _write_trace_per_value(result, str(tmp_path / f"old{i}.csv"))
        assert (tmp_path / f"new{i}.csv").read_bytes() == (tmp_path / f"old{i}.csv").read_bytes()


def _read_trace_per_field(path):
    # The reader read_trace replaced: float() per field, file lines counted from 1.
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    n = sum(1 for c in header if c.startswith("x0_"))
    N = sum(1 for c in header if c.startswith("xt_")) // n
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != len(header):
            raise MalformedTrace(f"line {lineno}: expected {len(header)} fields, got {len(fields)}")
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            raise MalformedTrace(f"line {lineno}: non-numeric field") from None
    if not rows:
        raise MalformedTrace("trace has a header but no data rows")
    data = np.array(rows)
    S = data.shape[0]
    cut = np.cumsum([1, n, N * n, N * n, n])
    return ptobs.trace.TraceData(
        times=data[:, 0],
        leader_states=data[:, cut[0] : cut[1]],
        estimate_errors=data[:, cut[1] : cut[2]].reshape(S, N, n),
        local_errors=data[:, cut[2] : cut[3]].reshape(S, N, n),
        lyapunov=data[:, cut[3] : cut[4]],
        decay_bound=data[:, cut[4]],
    )


def _read_outcome(reader, path):
    try:
        data = reader(path)
    except MalformedTrace as exc:
        return str(exc)
    return [(f.name, getattr(data, f.name).shape, getattr(data, f.name).tobytes())
            for f in dataclasses.fields(data)]


def test_read_trace_equals_per_field_reader(tmp_path, static_run):
    res = static_run[3]
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1])
    odd = dataclasses.replace(
        res,
        times=np.resize(special, res.times.shape),
        leader_states=np.resize(-special, res.leader_states.shape),
        local_errors=np.resize(special[::-1], res.local_errors.shape),
        decay_bound=np.resize(special[2:], res.decay_bound.shape),
    )
    one_row = dataclasses.replace(odd, **{
        f.name: getattr(odd, f.name)[:1]
        for f in dataclasses.fields(odd) if isinstance(getattr(odd, f.name), np.ndarray)
    })
    for i, result in enumerate([res, odd, one_row]):
        path = str(tmp_path / f"t{i}.csv")
        write_trace(result, path)
        assert _read_outcome(read_trace, path) == _read_outcome(_read_trace_per_field, path)
    # Bad files fail alike, and name the file line, blank lines counted.
    header = ",".join(header_columns(2, 1))
    good = ",".join(["0.5"] * len(header_columns(2, 1)))
    bodies = [
        [good, "", good, "1,2"],                      # short row after a blank line
        [good, good + ",3"],                          # long row
        [good, "", "", good.replace("0.5", "x", 1)],  # non-numeric field
        [good, good[:-3]],                            # empty last field
        [good, "  "],                                 # whitespace-only line
        ["1,2", "1,2"],                               # every row equally short
        [],                                           # header only
        ["", ""],                                     # blank lines only
        [good.replace("0.5", "1_0", 1)],              # float() reads it, numpy does not
    ]
    path = str(tmp_path / "bad.csv")
    for body in bodies:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join([header, *body]) + "\n")
        assert _read_outcome(read_trace, path) == _read_outcome(_read_trace_per_field, path), body


def _polyline_points_per_point(times, errors):
    # Per-point mapping render_error_plot used before it mapped a stage at once.
    x_lo, x_hi = float(times[0]), float(times[-1])
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    y_lo, y_hi = float(np.min(errors)), float(np.max(errors))
    if y_hi <= y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return 70 + (x - x_lo) / (x_hi - x_lo) * 630

    def py(y):
        return 40 + (y_hi - y) / (y_hi - y_lo) * 345

    return [
        " ".join(f"{px(float(t)):.2f},{py(float(e)):.2f}" for t, e in zip(times, errors[:, i]))
        for i in range(errors.shape[1])
    ]


def test_error_plot_points_equal_per_point_mapping(static_run):
    res = static_run[3]
    rng = np.random.default_rng(3)
    cases = [(res.times, res.estimate_errors[:, :, k]) for k in range(3)]
    cases.append((res.times[:50], rng.normal(size=(50, 4)) * 10.0 ** rng.integers(-9, 9, (50, 4))))
    cases.append((np.array([0.0, 1e-9, 2e-9]), np.full((3, 2), 0.25)))
    cases.append((res.times[:1], res.estimate_errors[:1, :, 0]))  # one sample: circles
    for times, errors in cases:
        svg = render_error_plot(times, errors, 1, (0.0, 0.2), "t")
        points = re.findall(r'<polyline points="([^"]*)"', svg)
        points += [f"{x},{y}" for x, y in re.findall(r'<circle cx="([^"]*)" cy="([^"]*)"', svg)]
        assert points == _polyline_points_per_point(times, errors)


def test_run_with_synthesize_mode_gains(tmp_path, capsys):
    code = main([
        "run", "--config", CFG, "--out", str(tmp_path),
        "--set", "gains.mode=synthesize", "--set", "gains.alpha_margin=1.05",
        "--set", "sim.t_end=0.3",
    ])
    assert code == 0
    # the synthesized beta satisfies the bound, so no warning is emitted
    captured = capsys.readouterr()
    assert "below the topology bound" not in captured.err
    assert (tmp_path / "trace.csv").exists()


def test_run_divergence_exits_3(capsys):
    code = main([
        "run", "--config", CFG, "--quiet",
        "--set", "gains.alpha=1e8", "--set", "sim.method=euler",
        "--set", "sim.dt=1e-3", "--set", "sim.guard=1e-2",
        "--set", "sim.t_end=0.05", "--set", "output.csv=off",
    ])
    assert code == 3
    assert "diverged at t" in capsys.readouterr().err


def test_run_nan_leader_input_exits_1(tmp_path, capsys):
    code = main([
        "run", "--config", CFG, "--quiet", "--out", str(tmp_path),
        "--set", "leader.input=constant(nan)",
    ])
    assert code == 1
    assert "exceeds declared bound" in capsys.readouterr().err


def test_run_unbuildable_step_plan_exits_1(tmp_path, capsys):
    # 2e300 steps: numpy cannot index the plan, so nothing is allocated.
    code = main(["run", "--config", CFG, "--quiet", "--out", str(tmp_path), "--set", "sim.dt=1e-300"])
    assert code == 1
    assert "error: dt = 1e-300 needs about 2e+300 steps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, section",
    [
        ("leader.input_bound=nan", "[leader]"),
        ("leader.input_bound=inf", "[leader]"),
        ("leader.initial_state=1 nan 0", "[leader]"),
        ("sim.dt=nan", "[sim]"),
        ("sim.t_end=inf", "[sim]"),
        ("sim.guard=inf", "[sim]"),
        ("sim.tolerance=nan", "[sim]"),
        ("sim.sign_smoothing=nan", "[sim]"),
        ("gains.beta=nan", "[gains]"),
        ("gains.alpha=inf", "[gains]"),
        ("cascade.exponent=inf", "[cascade]"),
        ("cascade.stage_durations=0.2 inf 0.2", "[cascade]"),
        ("switching.schedule=0.0:1 nan:2 0.5:1", "[switching]"),
        ("switching.period=nan", "[switching]"),
        ("switching.period=inf", "[switching]"),
        ("switching.common_h=1 inf 1", "[switching]"),
    ],
)
def test_run_non_finite_setting_exits_1(tmp_path, capsys, override, section):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", "--config", CFG, "--quiet", "--out", str(tmp_path), "--set", override])
    assert code == 1
    err = capsys.readouterr().err
    assert section in err and "finite" in err
    assert [str(w.message) for w in caught] == []
    assert not (tmp_path / "trace.csv").exists()


def test_report_generates_deterministic_svgs(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main([
        "run", "--config", CFG, "--out", str(out1), "--quiet", "--set", "sim.t_end=0.3",
    ]) == 0
    trace = out1 / "trace.csv"
    assert main(["report", "--config", CFG, "--out", str(out1), str(trace), "--quiet"]) == 0
    assert main(["report", "--config", CFG, "--out", str(out2), str(trace), "--quiet"]) == 0
    for k in (1, 2, 3):
        f1 = (out1 / f"stage_{k}_error.svg").read_bytes()
        f2 = (out2 / f"stage_{k}_error.svg").read_bytes()
        assert f1 == f2
        assert b"<svg" in f1 and b"time [s]" in f1


def test_report_header_only_trace_exits_1(tmp_path, capsys):
    trace = tmp_path / "empty.csv"
    trace.write_text(",".join(header_columns(3, 3)) + "\n")
    assert main(["report", "--config", CFG, "--out", str(tmp_path), str(trace)]) == 1
    assert "malformed trace" in capsys.readouterr().err


def test_report_single_sample_trace(tmp_path):
    trace = tmp_path / "one.csv"
    cols = header_columns(3, 3)
    row = ["0"] * len(cols)
    trace.write_text(",".join(cols) + "\n" + ",".join(row) + "\n")
    assert main(["report", "--config", CFG, "--out", str(tmp_path), str(trace), "--quiet"]) == 0
    svg = (tmp_path / "stage_1_error.svg").read_text()
    assert "<circle" in svg


def test_read_trace_rejects_bad_rows(tmp_path):
    cols = header_columns(1, 1)
    path = tmp_path / "bad.csv"
    path.write_text(",".join(cols) + "\n1,2\n")
    with pytest.raises(MalformedTrace):
        read_trace(str(path))
    path.write_text(",".join(cols) + "\n" + ",".join(["x"] * len(cols)) + "\n")
    with pytest.raises(MalformedTrace):
        read_trace(str(path))


def test_quiet_suppresses_info(capsys):
    assert main(["analyze", "--config", CFG, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_output_dir_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OUTPUT_DIR", str(tmp_path / "envout"))
    code = main([
        "run", "--config", CFG, "--quiet",
        "--set", "sim.t_end=0.05", "--set", "sim.record_stride=100",
    ])
    assert code == 0
    assert (tmp_path / "envout" / "trace.csv").exists()
