import dataclasses
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ptobs
import ptobs.sim
from ptobs.cli import main
from ptobs import svgplot
from ptobs.config import load_config, load_experiment
from ptobs.errors import DimensionMismatch, MalformedTrace
from ptobs.svgplot import render_error_plot
from ptobs.trace import header_columns, read_trace, write_trace
from conftest import BUNDLED_CONFIG, INITIAL_ESTIMATES, REPO, perfbench_workloads, traced_peak
from oracles import read_trace_per_line, read_trace_whole_file

CFG = str(BUNDLED_CONFIG)
# Overrides under which an euler step overflows: `run` ends in Diverged (exit 3).
DIVERGING = [arg for pair in ("gains.alpha=1e8", "sim.method=euler", "sim.dt=1e-3", "sim.guard=1e-2",
                              "sim.t_end=0.05", "output.csv=off") for arg in ("--set", pair)]

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
    assert "no leader-rooted spanning tree" in captured.err


def _static_trace(tmp_path):
    # A trace of NO_PINNING with follower 1 pinned, to report with broken configs.
    cfg = tmp_path / "pinned.cfg"
    cfg.write_text(NO_PINNING.replace("pinning = 0 0", "pinning = 1 0"))
    assert main(["run", "--config", str(cfg), "--quiet", "--out", str(tmp_path / "run")]) == 0
    return str(tmp_path / "run" / "trace.csv")


def test_report_unreachable_static_config_exits_2(tmp_path, capsys):
    trace = _static_trace(tmp_path)
    cfg = tmp_path / "nopin.cfg"
    cfg.write_text(NO_PINNING)
    capsys.readouterr()
    assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "plots"), trace]) == 2
    assert capsys.readouterr().err == (
        "error: topology 1: no leader-rooted spanning tree: some follower is unreachable\n"
    )
    assert not list((tmp_path / "plots").glob("*.svg"))


@pytest.mark.parametrize("command", ["analyze", "synthesize", "run", "report"])
def test_overflowing_static_laplacian_is_located_at_its_topology(tmp_path, capsys, command):
    trace = _static_trace(tmp_path)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(NO_PINNING.replace("adjacency_row_1 = 0 1\nadjacency_row_2 = 1 0\npinning = 0 0",
                                      "adjacency_row_1 = 0 1e308\nadjacency_row_2 = 1e308 0\n"
                                      "pinning = 1e308 0"))
    capsys.readouterr()
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "plots")]
    assert main(argv + [trace] * (command == "report")) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: [topology.1]: follower Laplacian overflows: the edge weights are too large\n"
    )
    assert not list((tmp_path / "plots").glob("*"))


def test_missing_common_h_lists_switching_overrides(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(BUNDLED_CONFIG.read_text().replace("common_h = 3 5 4\n", ""))
    assert main(["analyze", "--config", str(cfg), "--set", "switching.period=0.2"]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}, --set switching.period: "
        "[switching]: common_h is required when switching over several topologies\n"
    )


def test_switching_period_below_dt_exits_1(capsys):
    # Below dt a period would only add grid points (and its schedule can fill
    # memory); dt = 1e-4 in the bundled config.
    argv = ["analyze", "--config", CFG, "--quiet"]
    assert main(argv + ["--set", "switching.period=5e-5"]) == 1
    assert capsys.readouterr().err == (
        "error: --set switching.period: [switching] period: "
        "must be at least sim.dt = 0.0001, got 5e-05\n"
    )
    assert main(argv + ["--set", "switching.period=1e-4"]) == 0


def test_periodic_schedule_too_large_for_memory_exits_1(capsys):
    # 2e12 switches: the schedule's TiB-sized arrays fail to allocate at once,
    # and the error names the period, as the step plan's names dt.
    argv = ["analyze", "--config", CFG, "--set", "sim.dt=1e-12", "--set", "switching.period=1e-12"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: --set switching.period: [switching] period: "
        "plans 2e+12 switches, too many to hold in memory\n"
    )


def _python(args, cwd):
    """A child `python *args` with src/ on its path and one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_exits_with_mains_code(tmp_path):
    # python -m ptobs.cli ends in sys.exit(main()): main's code is the exit status.
    proc = _python(["-m", "ptobs.cli", "analyze"], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: <args>: no --config given\n")
    proc = _python(["-m", "ptobs.cli", "run", "--config", CFG, "--quiet", *DIVERGING], tmp_path)
    assert proc.returncode == 3
    assert proc.stderr.splitlines()[-1].startswith("error: simulation diverged at t = ")


def test_huge_follower_count_is_not_expanded(tmp_path):
    # 1e11 followers and three adjacency rows: the first bad row is reported,
    # as for followers = 100000, without listing 1e11 row keys first.  The
    # address-space limit (2 GiB, the child's own) makes an expansion fail
    # fast instead of filling the host's memory.
    code = ("import resource, runpy\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "runpy.run_module('ptobs.cli', run_name='__main__')")
    proc = _python(["-c", code, "analyze", "--config", CFG, "--set", "topology.1.followers=99999999999"],
                   tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", f"error: {CFG}:14: [topology.1] adjacency_row_1: expected 99999999999 values, got 3\n"
    )


def test_huge_period_keeps_the_first_switch_alone(capsys):
    # t0 + i * period overflows for i >= 2; those entries lie past t_end and
    # are dropped with no overflow warning, leaving the switch at t0.
    argv = ["analyze", "--config", CFG, "--quiet", "--set", "switching.period=1e308"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    exp = load_experiment(CFG, ["switching.period=1e308"])
    assert exp.sequence.switch_times.tolist() == [exp.sched.t0]


def test_diverging_run_prints_no_numpy_warning(tmp_path, capsys):
    argv = ["run", "--config", CFG, "--out", str(tmp_path), "--set", "gains.alpha=1e300"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == (
        "warning: beta = 5.692 is below the topology bound 10.4048; "
        "prescribed-time convergence is not guaranteed\n"
        "error: simulation diverged at t = 0 s\n"
    )


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


@pytest.mark.parametrize("command", ["analyze", "synthesize", "run"])
def test_underflowing_common_h_exits_1_in_every_command(tmp_path, capsys, command):
    # Subnormal mirror entries keep a few significant bits: no bound is given.
    argv = [command, "--config", CFG, "--out", str(tmp_path),
            "--set", "switching.common_h=1e-320 1e-320 1e-320"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert "[switching]: mirror matrix underflows: the weights are too small" in capsys.readouterr().err
    assert [str(w.message) for w in caught] == []


def test_blank_adjacency_row_override_is_one_error_line(capsys):
    # A blank row never reaches the block parser, which would warn on it.
    argv = ["analyze", "--config", CFG, "--set", "topology.1.adjacency_row_2="]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == (
        "error: --set topology.1.adjacency_row_2: "
        "[topology.1] adjacency_row_2: expected 3 values, got 0\n"
    )


@pytest.mark.parametrize("command", ["analyze", "synthesize", "run"])
@pytest.mark.parametrize(
    "override",
    [
        "sim.tolerence=0.5",
        "gains.beta_facter=3",
        "topology.1.adjacency_row_4=9 9 9",
        "initial_estimates.row_4=1 2 3",
        "output.svg=on",
    ],
)
def test_unknown_key_exits_1_in_every_command(tmp_path, capsys, command, override):
    key = override.split("=")[0]
    section, _, name = key.rpartition(".")
    argv = [command, "--config", CFG, "--out", str(tmp_path), "--set", override]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: --set {key}: [{section}] {name}: unknown key\n"
    assert not (tmp_path / "trace.csv").exists()


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


@pytest.mark.parametrize("argv", [["analyze"], ["synthesize"], ["run"], ["report", "t.csv"]])
def test_no_config_flag_exits_1(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: <args>: no --config given\n")


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
    assert main([
        "synthesize", "--config", str(cfg),
        "--set", "gains.mode=synthesize", "--set", "gains.alpha_margin=1.0",
    ]) == 0
    out = capsys.readouterr().out
    assert "alpha = 1" in out
    assert "sigma = 0.125" in out


def test_synthesize_margins_from_set_gains(tmp_path, capsys):
    # Literals from the former flag form, --alpha-margin 1.05 --beta-factor 1.5.
    emitted = tmp_path / "explicit.cfg"
    assert main([
        "synthesize", "--config", CFG, "--emit-config", str(emitted),
        "--set", "gains.mode=synthesize", "--set", "gains.alpha_margin=1.05",
        "--set", "gains.beta_factor=1.5",
    ]) == 0
    assert capsys.readouterr().out == f"""\
topology 1: lambda_min(M) = 0.922398032, max weight = 5
topology 2: lambda_min(M) = 0.480548245, max weight = 5
alpha = 1.05
beta  = 15.607173836695967  (bound 10.404782557797311 x factor 1.5)
sigma = 0.125  (bound 0.125 x factor 1)
explicit-gain config written to {emitted}
"""
    text = emitted.read_text()
    assert "\n[gains]\nmode = explicit\nalpha = 1.05\nbeta = 15.607173836695967\nsigma = 0.125\n\n" in text
    bundled, written = load_config(CFG).sections, load_config(str(emitted)).sections
    assert list(written) == list(bundled)
    for section in bundled.keys() - {"gains"}:
        assert {k: v for k, (v, _) in written[section].items()} == {
            k: v for k, (v, _) in bundled[section].items()
        }


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


def test_synthesize_emit_config_reads_a_read_once_config(tmp_path):
    # A pipe yields its text once: the emitted copy is the document the
    # experiment was built from, with every section and the --set overrides.
    emitted = tmp_path / "explicit.cfg"
    r, w = os.pipe()
    try:
        os.write(w, BUNDLED_CONFIG.read_bytes())
        os.close(w)
        assert main([
            "synthesize", "--config", f"/dev/fd/{r}", "--emit-config", str(emitted), "--quiet",
            "--set", "sim.t_end=1.5",
        ]) == 0
    finally:
        os.close(r)
    bundled, written = load_config(CFG).sections, load_config(str(emitted)).sections
    assert list(written) == list(bundled)
    assert written["sim"]["t_end"][0] == "1.5"
    assert written["gains"]["mode"][0] == "explicit"
    for section in bundled.keys() - {"gains", "sim"}:
        assert {k: v for k, (v, _) in written[section].items()} == {
            k: v for k, (v, _) in bundled[section].items()
        }


def test_synthesize_emit_config_into_missing_directory_exits_1(tmp_path, capsys):
    emitted = tmp_path / "missing" / "explicit.cfg"
    assert main(["synthesize", "--config", CFG, "--emit-config", str(emitted), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and "Traceback" not in err
    assert err.count("\n") == 1
    assert not emitted.parent.exists()


def test_back_to_back_calls_do_not_share_options(capsys):
    # The parser is built once per process: a second call must see none of
    # the first call's --set values or flags.
    assert main(["analyze", "--config", CFG]) == 0
    alone = capsys.readouterr().out
    assert main(["analyze", "--config", CFG, "--quiet", "--set", "gains.alpha=2"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["analyze", "--config", CFG]) == 0
    assert capsys.readouterr().out == alone
    assert main(["synthesize", "--config", CFG, "--set", "gains.mode=synthesize",
                 "--set", "gains.alpha_margin=3"]) == 0
    assert "alpha = 3\n" in capsys.readouterr().out
    assert main(["synthesize", "--config", CFG]) == 0
    assert "alpha = 1\n" in capsys.readouterr().out


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
    # The arrays a reader returns, or its message.  It must not warn.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            data = reader(path)
        except MalformedTrace as exc:
            data = str(exc)
    assert [str(w.message) for w in caught] == []
    if isinstance(data, str):
        return data
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
    ]
    texts = [f"{header}\n" + "".join(f"{line}\n" for line in body) for body in bodies]
    texts += [
        f"{header}\n{good}\x0c\n{good}\n",           # \f before a line end: whitespace to both
        f"{header}\r{good}\r{good}\r",               # CR newlines
        f"{header}\r\n{good}\r\n{good}",              # CRLF newlines, no final newline
        f"{header}\n{good}\n{good}",                  # no final newline
        f"{header}",                                  # header only, no final newline
        f"{header}\n\n\n\r\n",                        # only blank lines
        f"{header}\n \n\n",                          # only blank or whitespace lines
    ]
    path = tmp_path / "bad.csv"
    for text in texts:
        path.write_bytes(text.encode("ascii"))
        outcome = _read_outcome(read_trace, str(path))
        assert outcome == _read_outcome(_read_trace_per_field, str(path)), text
        assert outcome == _read_outcome(read_trace_whole_file, str(path)), text


_SMALL_HEADER = ",".join(header_columns(1, 1)) + "\n"
_SMALL_ROWS = "0,1.5,-2e-3,0.25,1,nan\n0.001,1.5,-1e-3,0.125,0.5,inf\n0.002,-0,1E-300,+7,5e-324,0\n"
_SMALL_TRACE = _SMALL_HEADER + _SMALL_ROWS
# What the edits start from: that trace, its header alone, and its header over
# rows each one field short (a rectangular parse of the wrong width).
_BASE_TRACES = [_SMALL_TRACE, _SMALL_HEADER, _SMALL_HEADER + re.sub(r",[^,\n]*\n", "\n", _SMALL_ROWS)]
# Characters write_trace can put in a file, and the line ends of other platforms.
_WRITER_TOKENS = [*"0123456789,.-+eE", "nan", "inf", " ", "\r", "\r\n", "\n"]
# Those, and characters no writer produces: underscores, whitespace that
# str.splitlines takes for a line end, a non-ASCII byte.
_TRACE_TOKENS = [*_WRITER_TOKENS, "_", "\t", "\x1f", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\xe9"]


@st.composite
def _mutated_traces(draw, tokens):
    # One to four edits of a small trace: a span of up to 3 characters
    # replaced by up to 3 tokens.
    text = draw(st.sampled_from(_BASE_TRACES))
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.integers(0, len(text)))
        b = draw(st.integers(a, min(len(text), a + 3)))
        text = text[:a] + "".join(draw(st.lists(st.sampled_from(tokens), max_size=3))) + text[b:]
    return text


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_mutated_traces(_WRITER_TOKENS))
def test_read_trace_equals_whole_file_reader(tmp_path, text):
    # On the writer's alphabet the reader keeps the whole-file reader's outcome.
    path = tmp_path / "mutated.csv"
    path.write_bytes(text.encode("ascii"))
    assert _read_outcome(read_trace, str(path)) == _read_outcome(read_trace_whole_file, str(path))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_mutated_traces(_TRACE_TOKENS))
def test_read_trace_equals_per_line_reference(tmp_path, text):
    path = tmp_path / "mutated.csv"
    path.write_bytes(text.encode("latin-1"))
    assert _read_outcome(read_trace, str(path)) == _read_outcome(read_trace_per_line, str(path))


def test_read_trace_outcome_on_forms_no_writer_produces(tmp_path):
    # Inputs whose outcome changed when read_trace became one loadtxt parse
    # over universal-newline lines: str.splitlines line ends (\v \x1c \x1d
    # \x1e \f) are in-line whitespace, and a field float() reads but numpy
    # does not (1_0) is non-numeric.
    header = ",".join(header_columns(2, 1))
    good = ",".join(["0.5"] * len(header_columns(2, 1)))
    accepted = tmp_path / "good.csv"
    accepted.write_text(f"{header}\n{good}\n")
    cases = [
        (f"{header}\n{good.replace('0.5', '1_0', 1)}\n", "line 2: non-numeric field"),
        (f"{header}\n{good}\x0b{good}\n", "line 2: expected 8 fields, got 15"),
        (f"{header}\n{good}\x1d{good}\n", "line 2: expected 8 fields, got 15"),
        (f"{header}\n{good}\x1e{good}\n", "line 2: expected 8 fields, got 15"),
        (f"{header}\n{good[:4]}\x1c{good[4:]}\n", _read_outcome(read_trace, str(accepted))),
        (f"{header}\x0b{good}\n", "header does not match the expected column layout"),
        (f"{header}\n\n\x0b\x0c\n\r\n", "line 3: expected 8 fields, got 1"),
        (f"{header}\n\x1c\x1d\x1e\n", "line 2: expected 8 fields, got 1"),
        (f"{header}\n1,2\n\xe9\n", "line 2: expected 8 fields, got 2"),
        (_SMALL_TRACE.replace("\n0.001", "\x0b\x1f0.001"), "line 2: expected 6 fields, got 11"),
        (_SMALL_TRACE.replace("1.5", "1_5", 1), "line 2: non-numeric field"),
    ]
    path = tmp_path / "odd.csv"
    for text, outcome in cases:
        path.write_bytes(text.encode("latin-1"))
        assert _read_outcome(read_trace, str(path)) == outcome, text
        assert _read_outcome(read_trace_per_line, str(path)) == outcome, text


def test_read_trace_peak_memory_is_bounded_by_its_arrays(tmp_path):
    S, N, n = 20_001, 3, 3
    rng = np.random.default_rng(21)
    result = ptobs.sim.TraceData(
        times=np.linspace(0.0, 10.0, S),
        leader_states=rng.normal(size=(S, n)),
        estimate_errors=rng.normal(size=(S, N, n)),
        local_errors=rng.normal(size=(S, N, n)),
        lyapunov=rng.random((S, n)),
        decay_bound=rng.random(S),
    )
    path = str(tmp_path / "trace.csv")
    write_trace(result, path)
    del result
    data, peak = traced_peak(lambda: read_trace(path))
    arrays = sum(getattr(data, f.name).nbytes for f in dataclasses.fields(data))
    assert arrays == S * len(header_columns(N, n)) * 8
    assert peak <= 1.5 * arrays, (peak, arrays)


def test_report_peak_memory_is_about_its_trace(tmp_path):
    # A dense-switching trace (5 001 rows): the report keeps only the times and
    # errors it plots, so the rest of the trace's block goes before rendering.
    dense = [a for pair in perfbench_workloads().DENSE_OVERRIDES for a in ("--set", pair)]
    assert main(["run", "--config", CFG, "--out", str(tmp_path), "--quiet", *dense]) == 0
    trace = str(tmp_path / "trace.csv")
    arrays = len(read_trace(trace).times) * len(header_columns(3, 3)) * 8
    argv = ["report", "--config", CFG, "--out", str(tmp_path), "--quiet", *dense, trace]
    code, peak = traced_peak(lambda: main(argv))
    assert code == 0
    assert arrays == 5001 * 26 * 8
    assert peak <= 2.0 * arrays, (peak, arrays)


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


def test_run_golden_output(tmp_path, capsys):
    # t_end = 0.8 passes t* = 0.6, so every block of the summary is printed.
    assert main(["run", "--config", CFG, "--out", str(tmp_path), "--set", "sim.t_end=0.8"]) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "warning: beta = 5.692 is below the topology bound 10.4048; "
        "prescribed-time convergence is not guaranteed\n"
    )
    assert captured.out == f"""\
trace written to {tmp_path / "trace.csv"}
convergence times (tolerance 0.01):
  stage 1: 0.518 s
  stage 2: 0.325 s
  stage 3: 0.124 s
max |error| for t >= t* = 0.6 s:
  stage 1: 7.64845e-07
  stage 2: 4.89171e-06
  stage 3: 3.29734e-05
peak Lyapunov V_k:
  stage 1: 1.44
  stage 2: 1.005
  stage 3: 0.495
"""


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
    code = main(["run", "--config", CFG, "--quiet", *DIVERGING])
    assert code == 3
    assert "diverged at t" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, saturated",
    [
        (("gains.beta=0", "cascade.exponent=200", "sim.t_end=0.7"), 0.0),  # varsigma overflows
        (("sim.guard=1e300", "sim.t_end=0.7"), np.inf),  # varsigma underflows to 0
    ],
)
def test_run_with_saturating_envelope_exits_0(tmp_path, capsys, overrides, saturated):
    sets = [arg for o in overrides for arg in ("--set", o)]
    assert main(["run", "--config", CFG, "--quiet", "--out", str(tmp_path), *sets]) == 0
    err = capsys.readouterr().err.splitlines()
    assert all(line.startswith(("warning: beta", "warning: guard")) for line in err)
    assert saturated in read_trace(str(tmp_path / "trace.csv")).decay_bound


@pytest.mark.parametrize("overrides, warned", [((), False), (("sim.guard=0.2",), True)])
def test_run_warns_when_the_guard_covers_a_stage_window(tmp_path, capsys, overrides, warned):
    # The bundled windows are 0.2 s: a guard that long keeps varsigma at most 1.
    sets = [arg for o in ("sim.t_end=0.3", "output.csv=off", *overrides) for arg in ("--set", o)]
    assert main(["run", "--config", CFG, "--quiet", "--out", str(tmp_path), *sets]) == 0
    err = [line for line in capsys.readouterr().err.splitlines() if "guard" in line]
    expected = ("warning: guard 0.2 s is not below the shortest stage window (0.2 s): "
                "its time-varying gain never grows")
    assert err == ([expected] if warned else [])


def test_run_stride_past_the_plan_records_the_events(tmp_path, capsys):
    # A stride no int64 holds: the events alone (t0, switches every 0.1 s,
    # window boundaries, t_end) are recorded.
    assert main([
        "run", "--config", CFG, "--quiet", "--out", str(tmp_path),
        "--set", "sim.record_stride=99999999999999999999", "--set", "sim.t_end=0.7",
    ]) == 0
    times = read_trace(str(tmp_path / "trace.csv")).times
    assert times.tolist() == pytest.approx([0.1 * i for i in range(8)], abs=1e-12)


def test_run_nan_leader_input_exits_1(tmp_path, capsys):
    code = main([
        "run", "--config", CFG, "--quiet", "--out", str(tmp_path),
        "--set", "leader.input=constant(nan)",
    ])
    assert code == 1
    assert "exceeds declared bound" in capsys.readouterr().err


_SINE_PAST_BOUND = ("leader.input=sine(1.0, 0.5)", "leader.input_bound=0.1")


@pytest.mark.parametrize(
    "overrides, code, tail",
    [
        # The first time past the bound is a midpoint t + h/2.
        ((*_SINE_PAST_BOUND, "sim.dt=1e-3", "sim.guard=1e-2"), 1,
         "|f0| = 0.100082 exceeds declared bound 0.1 at t=0.2005\n"),
        # The same time, now a step end t + h.
        ((*_SINE_PAST_BOUND, "sim.dt=5e-4", "sim.guard=1e-2"), 1,
         "|f0| = 0.100082 exceeds declared bound 0.1 at t=0.2005\n"),
        ((*_SINE_PAST_BOUND, "sim.dt=7e-4", "sim.guard=1e-2"), 1,
         "|f0| = 0.100008 exceeds declared bound 0.1 at t=0.20035\n"),
        # euler reads the input at step starts alone.
        ((*_SINE_PAST_BOUND, "sim.method=euler", "sim.dt=1e-3", "sim.guard=1e-2"), 1,
         "|f0| = 0.100331 exceeds declared bound 0.1 at t=0.201\n"),
        (("leader.input=constant(0.2)",), 1, "|f0| = 0.2 exceeds declared bound 0.125 at t=0\n"),
        # The run diverges before its input leaves the bound.
        ((*_SINE_PAST_BOUND, "gains.beta=600", "sim.guard=1e-4"), 3,
         "error: simulation diverged at t = 0.1633 s\n"),
    ],
    ids=["midpoint", "step-end", "dt-7e-4", "euler", "constant", "diverges-first"],
)
def test_run_stops_at_the_first_time_the_input_leaves_its_bound(tmp_path, capsys, overrides, code, tail):
    args = ["run", "--config", CFG, "--quiet", "--out", str(tmp_path)]
    assert main(args + [a for o in overrides for a in ("--set", o)]) == code
    assert capsys.readouterr().err.endswith(tail)


def test_run_unbuildable_step_plan_exits_1(tmp_path, capsys):
    # 2e300 steps, each rounding to zero length: rejected before any plan is built.
    code = main(["run", "--config", CFG, "--quiet", "--out", str(tmp_path), "--set", "sim.dt=1e-300"])
    assert code == 1
    assert capsys.readouterr().err.endswith(
        "[sim]: dt must be finite and above 2 ulp(t) = 8.88e-16, got 1e-300\n"
    )


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
        ("initial_estimates.row_1=nan 0 0", "[initial_estimates]"),
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


@pytest.mark.parametrize("command", ["analyze", "run"])
@pytest.mark.parametrize("override", ["switching.period=1e300", "switching.schedule=-1e308:1"])
def test_time_span_past_the_doubles_exits_1(tmp_path, capsys, command, override):
    # t0 and t_end are finite, but t_end - t0 = 2e308 is not: the period's
    # switch count and the plan's event spans would overflow.
    settings = ["cascade.t0=-1e308", "sim.t_end=1e308", "sim.dt=1e300", "sim.guard=1e300", override]
    argv = [command, "--config", CFG, "--quiet", "--out", str(tmp_path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + [a for s in settings for a in ("--set", s)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert err[0].endswith("[sim]: t_end - t0 must be finite")
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


@pytest.mark.parametrize("command", ["run", "report"])
def test_unwritable_output_exits_1(tmp_path, capsys, command):
    # An --out that names a file, and an output path taken by a directory,
    # exit 1 naming the path, with no traceback.
    src = tmp_path / "src"
    assert main(["run", "--config", CFG, "--out", str(src), "--quiet", "--set", "sim.t_end=0.3"]) == 0
    argv = [command, "--config", CFG, "--quiet", "--set", "sim.t_end=0.3"]
    argv += [str(src / "trace.csv")] if command == "report" else []
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main([*argv, "--out", str(taken)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: cannot write {taken}: File exists"
    blocked = tmp_path / "out" / ("trace.csv" if command == "run" else "stage_1_error.svg")
    blocked.mkdir(parents=True)
    assert main([*argv, "--out", str(blocked.parent)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: cannot write {blocked}: Is a directory"
    assert [p.name for p in blocked.parent.iterdir()] == [blocked.name]


def test_report_header_only_trace_exits_1(tmp_path, capsys):
    trace = tmp_path / "empty.csv"
    trace.write_text(",".join(header_columns(3, 3)) + "\n")
    assert main(["report", "--config", CFG, "--out", str(tmp_path), str(trace)]) == 1
    assert "malformed trace" in capsys.readouterr().err


def test_report_non_ascii_trace_exits_1(tmp_path, capsys):
    assert main(["run", "--config", CFG, "--out", str(tmp_path), "--quiet", "--set", "sim.t_end=0.3"]) == 0
    capsys.readouterr()
    valid = (tmp_path / "trace.csv").read_bytes()
    header = ",".join(header_columns(3, 3)).encode("ascii")
    last = valid.count(b"\n") + 1
    cases = [
        (header + "\né\n".encode("utf-8"), "line 2: non-ASCII byte 0xc3"),
        (valid + b"\xff", f"line {last}: non-ASCII byte 0xff"),
        (b"\xff" + valid, "line 1: non-ASCII byte 0xff"),
    ]
    trace = tmp_path / "bad.csv"
    for data, message in cases:
        trace.write_bytes(data)
        assert main(["report", "--config", CFG, "--out", str(tmp_path), str(trace)]) == 1
        assert capsys.readouterr().err == f"error: malformed trace: {message}\n"  # no traceback
    assert not list(tmp_path.glob("*.svg"))


def test_report_trace_of_other_dimensions_exits_1(tmp_path, capsys):
    trace = tmp_path / "n2.csv"
    cols = header_columns(2, 3)
    trace.write_text(",".join(cols) + "\n" + ",".join(["0"] * len(cols)) + "\n")
    assert main(["report", "--config", CFG, "--out", str(tmp_path), str(trace)]) == 1
    assert capsys.readouterr().err == (
        "error: malformed trace: trace dimensions (N=2, n=3) do not match the config\n"
    )
    assert not list(tmp_path.glob("*.svg"))


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


@pytest.mark.parametrize("command", ["analyze", "synthesize", "run"])
def test_model_error_from_override_names_it(tmp_path, capsys, command):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(BUNDLED_CONFIG.read_text())
    argv = [command, "--config", str(cfg), "--out", str(tmp_path),
            "--set", "switching.common_h=1e-320 1e-320 1e-320"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}, --set switching.common_h: "
        "[switching]: mirror matrix underflows: the weights are too small\n"
    )


def test_model_error_lists_every_override_of_its_section(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(BUNDLED_CONFIG.read_text())
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path),
            "--set", "gains.sigma=0.2", "--set", "sim.dt=1e-4", "--set", "gains.alpha=0"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}, --set gains.alpha, --set gains.sigma: "
        "[gains]: alpha must be finite and positive, got 0.0\n"
    )


@pytest.mark.parametrize("bad_row", ["nan-row", "inf-time", "inf-stage-3-error"])
def test_report_non_finite_trace_exits_1(tmp_path, capsys, bad_row):
    # The plot rejects the trace; stages 1 and 2 of the last case render, but
    # no stage is written before every stage has rendered.
    cols = header_columns(3, 3)
    row = ["0"] * len(cols)
    bad = {
        "nan-row": ["nan"] * len(cols),
        "inf-time": ["inf"] + ["0"] * (len(cols) - 1),
        "inf-stage-3-error": ["1" if c == "time" else "inf" if c == "xt_3_3" else "0" for c in cols],
    }[bad_row]
    trace = tmp_path / "t.csv"
    trace.write_text("\n".join(",".join(r) for r in (cols, row, bad)) + "\n")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["report", "--config", CFG, "--out", str(out), str(trace)]) == 1
    assert capsys.readouterr().err == (
        "error: times and errors must be finite, over ranges that ticks can resolve\n"
    )
    assert [str(w.message) for w in caught] == []
    assert not list(tmp_path.rglob("*.svg"))


def test_report_trace_too_wide_to_plot_exits_1(tmp_path, capsys):
    # Finite errors of -1e308 and 1e308: the padded plot range overflows.
    cols = header_columns(3, 3)
    rows = [cols] + [[str(t)] + [v] * (len(cols) - 1) for t, v in ((0, "-1e308"), (1, "1e308"))]
    trace = tmp_path / "t.csv"
    trace.write_text("\n".join(",".join(r) for r in rows) + "\n")
    assert main(["report", "--config", CFG, "--out", str(tmp_path / "out"), str(trace)]) == 1
    assert capsys.readouterr().err == (
        "error: times and errors must be finite, over ranges that ticks can resolve\n"
    )
    assert not list(tmp_path.rglob("*.svg"))


@pytest.mark.parametrize(
    "times, errors",
    [([0.0, 1.0], [[0.0], [np.nan]]), ([0.0, np.inf], [[0.0], [1.0]]),
     ([-1e308, 1e308], [[0.0], [1.0]]), ([0.0, 1.0], [[-1e308], [1e308]])],
    ids=["nan-error", "inf-time", "huge-times", "huge-errors"],
)
def test_error_plot_rejects_what_it_cannot_plot(times, errors):
    with pytest.raises(DimensionMismatch, match="must be finite, over ranges that ticks can resolve"):
        render_error_plot(np.array(times), np.array(errors), 1, (0.0, 1.0), "t")


@pytest.mark.parametrize(
    "times, errors, shapes",
    [([], np.zeros((0, 1)), "(0, 1) and (0,)"), ([0.0, 1.0], np.zeros((3, 1)), "(3, 1) and (2,)"),
     ([0.0, 1.0], np.zeros(2), "(2,) and (2,)"), ([0.0, 1.0], np.zeros((2, 0)), "(2, 0) and (2,)")],
    ids=["no-samples", "length-mismatch", "1d-errors", "no-followers"],
)
def test_error_plot_rejects_mismatched_shapes(times, errors, shapes):
    message = f"errors must be (S, N) and times (S,) with S, N >= 1, got {shapes}"
    with pytest.raises(DimensionMismatch, match=re.escape(message) + "$"):
        render_error_plot(np.array(times), errors, 1, (0.0, 1.0), "t")


def test_error_plot_takes_lists_as_arrays():
    times, errors = [0.0, 0.5, 1.0], [[0.0, 1.0], [0.25, -0.5], [1.0, 2.0]]
    svg = render_error_plot(times, errors, 1, (0.0, 1.0), "t")
    assert svg == render_error_plot(np.array(times), np.array(errors), 1, (0.0, 1.0), "t")
    assert render_error_plot([0.0, 1.0], [[0.0], [1.0]], 1, (0, 1), "t").count("<polyline") == 1


def test_error_plot_widens_unresolvable_ranges():
    u = np.nextafter(1.0, 2.0)
    # One ulp: the tick loop's `v += step` never moved v and ran without end.
    assert not svgplot._resolved(1.0, u)
    for times, errors in (([1.0, u], [[0.0], [1.0]]), ([0.0, 1.0], [[1.0], [u]]),
                          ([0.0, 1.0], [[0.0], [5e-324]])):  # a fifth of the span underflows
        svg = render_error_plot(np.array(times), np.array(errors), 1, (0.0, 1.0), "t")
        assert "nan" not in svg and "inf" not in svg and svg.count("<polyline") == 1


@pytest.mark.parametrize("times, errors", [([0.0, 1.0], [[1e17], [1e17]]),
                                           ([1e17, 1e17], [[0.0], [1.0]]),
                                           ([-1.7e308, -1.7e308], [[1.7e308], [1.7e308]])],
                         ids=["flat-errors", "flat-times", "flat-both-near-max"])
def test_error_plot_widens_flat_ranges_past_2_53(times, errors):
    # Past 2**53 adding 1 does not move a float: a flat range widens relative
    # to its magnitude there, so constant errors or times of 1e17 still plot.
    svg = render_error_plot(np.array(times), np.array(errors), 1, (0.0, 1.0), "t")
    assert "nan" not in svg and "inf" not in svg
    [points] = re.findall(r'<polyline points="([^"]*)"', svg)
    for x, y in (map(float, p.split(",")) for p in points.split()):
        assert 70.0 <= x <= 700.0 and 40.0 <= y <= 385.0  # inside the frame


def test_error_plot_widens_small_flat_ranges_by_one():
    # Below magnitude 1e9 the widening stays 1, so existing plots keep their bytes.
    svg = render_error_plot(np.array([0.0, 1.0]), np.full((2, 1), 0.5), 1, (0.0, 1.0), "t")
    labels = re.findall(r'text-anchor="end">([^<]*)</text>', svg)
    assert labels[:5] == ["-0.5", "0", "0.5", "1", "1.5"]


def test_run_step_plan_too_large_for_memory_exits_1(tmp_path, capsys):
    # 2e12 planned steps: the plan's TiB-sized arrays fail to allocate at once.
    argv = ["run", "--config", CFG, "--out", str(tmp_path), "--set", "sim.dt=1e-12"]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: dt = 1e-12 plans 2e+12 steps, too many to hold in memory"
    )
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("source", ["bundled-run", "one-row"])
def test_trace_file_to_record_to_file_is_byte_identical(tmp_path, source):
    # read_trace then write_trace reproduces the file it read, byte for byte.
    p = tmp_path / "trace.csv"
    if source == "bundled-run":
        argv = ["run", "--config", CFG, "--out", str(tmp_path), "--quiet", "--set", "sim.t_end=0.8"]
        assert main(argv) == 0
    else:
        cols = header_columns(3, 3)
        special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1]
        values = np.random.default_rng(3).normal(size=len(cols))
        values[: len(special)] = special
        p.write_text(",".join(cols) + "\n" + ",".join(map("{:.17g}".format, values)) + "\n")
    q = tmp_path / "copy.csv"
    write_trace(read_trace(str(p)), str(q))
    assert q.read_bytes() == p.read_bytes()
