"""Benchmark workloads: their inputs, one closed-loop iteration, output checks.

Every workload drives the public entry point `ptobs.cli.main([...])`
in-process.  An iteration runs the workload's commands back to back and
checks each command's output before the next iteration starts.
"""

from __future__ import annotations

import contextlib
import io
import re
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ptobs.cli import main as ptobs_main
from ptobs.config import Experiment, load_experiment
from ptobs.observer import gain_condition_warnings, synthesize_gains
from ptobs.trace import read_trace

BUNDLED_CONFIG = Path("configs") / "triple_integrator_switching.cfg"

# Same rk4 stiffness as the bundled config (dt/guard unchanged), but a switch
# every two steps: 10 000 steps, 5 000 switches, 5 001 recorded rows.
DENSE_OVERRIDES = (
    "switching.period=0.002",
    "sim.dt=1e-3",
    "sim.guard=1e-2",
    "cascade.stage_durations=1 1 1",
    "sim.t_end=10",
)

WIDE_FOLLOWERS = 120
# Graphs per wide-analyze iteration.  Jacobi needs 8 sweeps on some graphs
# and 9 on others, so one graph per seed would make the work differ by 12 %
# between seeds; four graphs per seed average most of that out.
WIDE_GRAPHS = 4


class CheckFailed(Exception):
    """A command ran but its output is wrong."""


@dataclass(frozen=True)
class AnalysisReference:
    """numpy/LAPACK values `ptobs analyze` must reproduce for the wide digraph."""

    rho: np.ndarray
    lambda_min: float


@dataclass(frozen=True)
class Case:
    """One config an iteration runs every command on."""

    config: Path
    reference: AnalysisReference | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]
    overrides: tuple[str, ...]
    commands: tuple[str, ...]

    def argv(self, command: str, case: Case, out: Path) -> list[str]:
        argv = [command, "--config", str(case.config), "--out", str(out)]
        for pair in self.overrides:
            argv += ["--set", pair]
        if command == "report":
            argv.append(str(out / "trace.csv"))
        return argv

    def setup(self) -> tuple[Experiment, ...]:
        """The set-up every run pays, per case: load, graph analyses, gain resolution."""
        experiments = []
        for case in self.cases:
            exp = load_experiment(str(case.config), list(self.overrides))
            analyses = exp.sequence.analyses()
            if exp.gains_mode == "explicit":
                gains = exp.gains
            else:
                gains = synthesize_gains(analyses, exp.leader.input_bound, exp.margins)
            gain_condition_warnings(gains, analyses, exp.leader.input_bound)
            experiments.append(exp)
        return tuple(experiments)


def prepare(name: str, seed: int, root: Path, work: Path) -> Workload:
    """Build a workload's inputs; only wide-analyze depends on the seed."""
    if name == "bundled":
        return Workload(name, (Case(root / BUNDLED_CONFIG),), (), ("run", "report"))
    if name == "dense-switching":
        return Workload(name, (Case(root / BUNDLED_CONFIG),), DENSE_OVERRIDES, ("run", "report"))
    if name == "wide-analyze":
        cases = []
        for k in range(WIDE_GRAPHS):
            adjacency, pinning, text = wide_config(seed, k, WIDE_FOLLOWERS)
            path = work / f"wide_seed{seed}_{k}.cfg"
            path.write_text(text, encoding="utf-8")
            cases.append(Case(path, analysis_reference(adjacency, pinning)))
        return Workload(name, tuple(cases), (), ("analyze",))
    raise ValueError(f"unknown workload {name!r}")


def wide_config(seed: int, k: int, n: int) -> tuple[np.ndarray, np.ndarray, str]:
    """Graph k of a seed: a static digraph with n followers, all reachable from the leader.

    A random spanning tree rooted at the leader comes first; extra edges follow
    with probability 2/n, and a few more followers are pinned.  Weights are
    U(0.5, 1.5).  Returns the adjacency, the pinning and the config text.
    """
    rng = np.random.default_rng((seed % 2**64, k))
    adjacency = np.zeros((n, n))
    pinning = np.zeros(n)
    order = rng.permutation(n)
    pinning[order[0]] = rng.uniform(0.5, 1.5)
    for pos in range(1, n):
        parent = order[rng.integers(pos)]
        adjacency[order[pos], parent] = rng.uniform(0.5, 1.5)
    extra = (rng.random((n, n)) < 2.0 / n) & (adjacency == 0.0)
    np.fill_diagonal(extra, False)
    adjacency[extra] = rng.uniform(0.5, 1.5, size=int(extra.sum()))
    pins = (rng.random(n) < 2.0 / n) & (pinning == 0.0)
    pinning[pins] = rng.uniform(0.5, 1.5, size=int(pins.sum()))
    estimates = rng.uniform(-1.0, 1.0, size=(n, 3))

    def vec(values) -> str:
        return " ".join("0" if v == 0.0 else repr(float(v)) for v in values)

    lines = [
        f"# Seeded wide digraph for the benchmark (seed {seed}, graph {k}, {n} followers).",
        "[leader]",
        "order = 3",
        "input = sine(0.125, 0.5)",
        "input_bound = 0.125",
        "initial_state = 1 0 0",
        "",
        "[topology.1]",
        f"followers = {n}",
    ]
    lines += [f"adjacency_row_{i} = {vec(row)}" for i, row in enumerate(adjacency, start=1)]
    lines += [
        f"pinning = {vec(pinning)}",
        "",
        "[cascade]",
        "t0 = 0.0",
        "stage_durations = 0.2 0.2 0.2",
        "exponent = 2.01",
        "",
        "[gains]",
        "mode = synthesize",
        "alpha_margin = 1.05",
        "",
        "[initial_estimates]",
    ]
    lines += [f"row_{i} = {vec(row)}" for i, row in enumerate(estimates, start=1)]
    lines += [
        "",
        "[sim]",
        "dt = 1e-4",
        "t_end = 2.0",
        "method = rk4",
        "guard = 1e-3",
        "",
        "[output]",
        "directory = out",
        "",
    ]
    return adjacency, pinning, "\n".join(lines)


def analysis_reference(adjacency: np.ndarray, pinning: np.ndarray) -> AnalysisReference:
    """rho from L0^T rho = 1 and lambda_min of the mirror, via LAPACK."""
    L0 = np.diag(pinning + adjacency.sum(axis=1)) - adjacency
    rho = np.linalg.solve(L0.T, np.ones(len(pinning)))
    P = np.diag(rho)
    lam = np.linalg.eigvalsh(0.5 * (P @ L0 + L0.T @ P))[0]
    return AnalysisReference(rho=rho, lambda_min=float(lam))


def clear_outputs(command: str, out: Path):
    """Remove what an earlier iteration left, so every check sees fresh output."""
    pattern = {"run": "trace.csv", "report": "stage_*_error.svg"}.get(command)
    if pattern:
        for path in out.glob(pattern):
            path.unlink()


def call_cli(argv: list[str], sampler=None) -> tuple[int, str, float]:
    """One `ptobs.cli.main` call: exit code, captured stdout, wall seconds.

    With a `reference.Sampler`, reference slices run during the call; the
    seconds include them, and the sampler counts them.
    """
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        if sampler:
            sampler.start()
        start = time.perf_counter()
        try:
            code = ptobs_main(argv)
        finally:
            if sampler:
                sampler.stop()
        seconds = time.perf_counter() - start
    return code, stdout.getvalue(), seconds


def check(case: Case, exp: Experiment, command: str, code: int, stdout: str, out: Path) -> dict:
    """Raise CheckFailed unless the command's output is right; return what it measured."""
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    if command == "run":
        return _check_run(exp, stdout, out / "trace.csv")
    if command == "report":
        return _check_report(exp, out)
    return _check_analyze(case.reference, stdout)


def _check_run(exp: Experiment, stdout: str, trace_path: Path) -> dict:
    data = read_trace(str(trace_path))
    N = exp.sequence.topologies[0].follower_count
    n = exp.sched.order
    if (data.follower_count, data.order) != (N, n):
        raise CheckFailed(f"trace is N={data.follower_count}, n={data.order}; expected {N}, {n}")
    tol = exp.sim.convergence_tolerance
    t_star = exp.sched.t_star
    times = data.times
    worst = np.max(np.abs(data.estimate_errors), axis=1)  # (S, n)
    taus = []
    for k in range(n):
        bad = np.flatnonzero(worst[:, k] > tol)
        if bad.size and bad[-1] == times.size - 1:
            raise CheckFailed(f"stage {k + 1} never converges")
        tau = float(times[0] if bad.size == 0 else times[bad[-1] + 1])
        if tau > t_star:
            raise CheckFailed(f"stage {k + 1} converges at {tau:g} s, after t* = {t_star:g} s")
        taus.append(tau)
    after = times >= t_star
    if not after.any():
        raise CheckFailed("trace ends before t*")
    post_err = float(np.max(worst[after]))
    if post_err > tol:
        raise CheckFailed(f"error {post_err:g} after t* exceeds tolerance {tol:g}")
    printed = dict(re.findall(r"^\s+stage (\d+): (\S+) s$", stdout, flags=re.M))
    expected = {str(k): f"{tau:.6g}" for k, tau in enumerate(taus, start=1)}
    if printed != expected:
        raise CheckFailed(f"printed convergence times {printed} differ from the trace {expected}")
    return {
        "sim.samples": int(times.size),
        "sim.post_deadline_err": post_err,
        "sim.deadline_slack_s": t_star - max(taus),
        "trace.bytes": trace_path.stat().st_size,
    }


def _check_report(exp: Experiment, out: Path) -> dict:
    n = exp.sched.order
    found = sorted(p.name for p in out.glob("stage_*_error.svg"))
    wanted = sorted(f"stage_{k}_error.svg" for k in range(1, n + 1))
    if found != wanted:
        raise CheckFailed(f"expected {wanted}, found {found}")
    total = 0
    for name in wanted:
        text = (out / name).read_text(encoding="ascii")
        if not text.startswith("<svg"):
            raise CheckFailed(f"{name} does not start with <svg")
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise CheckFailed(f"{name} is not well-formed: {exc}") from None
        if root.tag.rpartition("}")[2] != "svg":
            raise CheckFailed(f"{name} has root element {root.tag}")
        total += len(text)
    return {"svgplot.bytes": total}


def _printed(pattern: str, stdout: str) -> str:
    m = re.search(pattern, stdout, flags=re.M)
    if not m:
        raise CheckFailed(f"no line matching {pattern!r}")
    return m.group(1)


def _agree(label: str, printed: float, ref: float, rel: float):
    if not abs(printed - ref) <= rel * abs(ref):
        raise CheckFailed(f"{label}: printed {printed!r}, reference {ref!r}")


def _check_analyze(ref: AnalysisReference, stdout: str) -> dict:
    if _printed(r"leader-rooted spanning tree: (\S+)", stdout) != "yes":
        raise CheckFailed("spanning tree not found")
    lam = ref.lambda_min
    wmax = float(np.max(ref.rho))
    _agree("lambda_min", float(_printed(r"lambda_min\(M\): (\S+)", stdout)), lam, 1e-8)
    _agree("max weight", float(_printed(r"max weight: (\S+)", stdout)), wmax, 1e-8)
    _agree("beta bound", float(_printed(r"alone\): (\S+)", stdout)), wmax / lam, 1e-8)
    _agree("combined beta bound", float(_printed(r"combined beta lower bound: (\S+)", stdout)),
           wmax / lam, 1e-8)
    weights = [float(v) for v in _printed(r"weights \(rho\): (.*)$", stdout).split()]
    if len(weights) != ref.rho.size:
        raise CheckFailed(f"{len(weights)} weights printed, {ref.rho.size} expected")
    for i, (w, r) in enumerate(zip(weights, ref.rho), start=1):
        # Weights are printed to 6 significant digits: allow that rounding.
        _agree(f"weight {i}", w, float(r), 5e-6 + 1e-8)
    return {}
