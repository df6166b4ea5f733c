"""Command-line front end: analyze, synthesize, run, report.

Exit codes are a stable contract: 0 success, 1 config or input error,
2 infeasible topology, 3 divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from pathlib import Path

import numpy as np

from .config import ConfigDocument, Experiment, load_experiment, serialize_config
from .errors import (
    ConfigError,
    Diverged,
    InfeasibleTopology,
    MalformedTrace,
    NoSpanningTree,
    ToolkitError,
)
from .graph import build_analysis, has_spanning_tree, mirror_with_H  # noqa: F401  (only perfbench wraps them)
from .observer import (
    GainMargins,
    beta_lower_bound,
    gain_condition_warnings,
    synthesize_gains,
)
from .sim import run as run_sim
from .svgplot import render_error_plot
from .trace import read_trace, write_trace


@contextlib.contextmanager
def _writing(path):  # an OSError in the block exits 1, naming path and reason
    try:
        yield
    except OSError as exc:
        raise ToolkitError(f"cannot write {path}: {exc.strerror or exc}") from None


def _out_dir(args, experiment: Experiment) -> Path:
    path = Path(args.out or os.environ.get("OUTPUT_DIR") or experiment.output.directory)
    with _writing(path):
        path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_analyze(args, exp: Experiment, info) -> int:
    analyses = exp.sequence.analyses()
    for j, analysis in enumerate(analyses, start=1):
        info(f"topology {j}:")
        info("  leader-rooted spanning tree: yes")
        label = "rho" if analysis.weight_source == "rho_from_L0" else "eta"
        info(f"  weights ({label}): " + " ".join(f"{x:.6g}" for x in analysis.rho))
        info(f"  lambda_min(M): {analysis.lambda_min:.9g}")
        info(f"  max weight: {analysis.max_weight:.9g}")
        info(f"  beta bound (this topology alone): {beta_lower_bound([analysis]):.9g}")
    info(f"combined beta lower bound: {beta_lower_bound(analyses):.9g}")
    info(f"sigma lower bound (leader input bound): {exp.leader.input_bound:.9g}")
    return 0


def cmd_synthesize(args, exp: Experiment, info) -> int:
    margins = exp.margins or GainMargins(alpha=1.0)
    analyses = exp.sequence.analyses()
    gains = synthesize_gains(analyses, exp.leader.input_bound, margins)
    for j, a in enumerate(analyses, start=1):
        info(f"topology {j}: lambda_min(M) = {a.lambda_min:.9g}, max weight = {a.max_weight:.9g}")
    bound = beta_lower_bound(analyses)
    info(f"alpha = {gains.alpha:.17g}")
    info(f"beta  = {gains.beta:.17g}  (bound {bound:.17g} x factor {margins.beta_factor:g})")
    info(
        f"sigma = {gains.sigma:.17g}  (bound {exp.leader.input_bound:.17g} "
        f"x factor {margins.sigma_factor:g})"
    )
    if args.emit_config:
        doc = ConfigDocument(exp.document.path, {**exp.document.sections, "gains": {}})
        doc.set("gains", "mode", "explicit")
        for key in ("alpha", "beta", "sigma"):
            doc.set("gains", key, f"{getattr(gains, key):.17g}")
        with _writing(args.emit_config):
            Path(args.emit_config).write_text(serialize_config(doc), encoding="utf-8")
        info(f"explicit-gain config written to {args.emit_config}")
    return 0


def cmd_run(args, exp: Experiment, info) -> int:
    analyses = exp.sequence.analyses()
    for msg in gain_condition_warnings(exp.gains, analyses, exp.leader.input_bound):
        print(f"warning: {msg}", file=sys.stderr)
    shortest = min(exp.sched.stage_durations)
    if exp.sim.guard >= shortest:  # base T / max(T - t, guard) <= 1 in that window
        print(f"warning: guard {exp.sim.guard:g} s is not below the shortest stage window "
              f"({shortest:g} s): its time-varying gain never grows", file=sys.stderr)
    result = run_sim(
        exp.sequence, exp.leader, exp.gains, exp.sched, exp.initial_estimates, exp.sim
    )
    out = _out_dir(args, exp)
    if exp.output.write_csv:
        trace_path = out / "trace.csv"
        with _writing(trace_path):
            write_trace(result, str(trace_path))
        info(f"trace written to {trace_path}")
    t_star = exp.sched.t_star
    after = result.times >= t_star
    info(f"convergence times (tolerance {exp.sim.convergence_tolerance:g}):")
    for k in range(1, exp.sched.order + 1):
        tau = result.convergence_times[k - 1]
        info(f"  stage {k}: {'never' if tau is None else f'{tau:.6g} s'}")
    if np.any(after):
        info(f"max |error| for t >= t* = {t_star:g} s:")
        for k in range(1, exp.sched.order + 1):
            worst = float(np.max(np.abs(result.estimate_errors[after, :, k - 1])))
            info(f"  stage {k}: {worst:.6g}")
    info("peak Lyapunov V_k:")
    for k in range(1, exp.sched.order + 1):
        info(f"  stage {k}: {float(np.max(result.lyapunov[:, k - 1])):.6g}")
    return 0


def cmd_report(args, exp: Experiment, info) -> int:
    data = read_trace(args.trace)
    if data.order != exp.sched.order or data.follower_count != exp.sequence.topologies[0].follower_count:
        raise MalformedTrace(
            f"trace dimensions (N={data.follower_count}, n={data.order}) do not match the config"
        )
    times, errors = data.times.copy(), data.estimate_errors.copy()  # all the plots read
    del data  # and the rest of the trace's block goes
    svgs = []  # every stage renders before any file is written
    for k in range(1, exp.sched.order + 1):
        w = exp.sched.window(k)
        svgs.append(render_error_plot(
            times,
            errors[:, :, k - 1],
            stage_k=k,
            window=(w.start, w.end),
            title=f"Follower estimation error, stage {k}",
        ))
    out = _out_dir(args, exp)
    for k, svg in enumerate(svgs, start=1):
        path = out / f"stage_{k}_error.svg"
        with _writing(path):
            path.write_text(svg, encoding="ascii")
        info(f"wrote {path}")
    return 0


@functools.cache  # parse_args copies --set lists, so one parser serves every call
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="experiment config file")
    common.add_argument("--out", help="output directory (overrides config and OUTPUT_DIR)")
    common.add_argument(
        "--set",
        action="append",
        metavar="SECTION.KEY=VALUE",
        help="override a config entry (repeatable)",
    )
    common.add_argument("--quiet", action="store_true", help="suppress informational output")

    parser = argparse.ArgumentParser(
        prog="ptobs",
        description="Prescribed-time cascade consensus observer toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", parents=[common], help="validate topologies and report spectral bounds")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("synthesize", parents=[common], help="compute gains from the topology bounds")
    sp.add_argument("--emit-config", metavar="PATH", help="write a config copy with explicit gains")
    sp.set_defaults(func=cmd_synthesize)

    sp = sub.add_parser("run", parents=[common], help="simulate and write a trace CSV")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("report", parents=[common], help="render per-stage SVG plots from a trace")
    sp.add_argument("trace", help="trace CSV produced by run")
    sp.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    """Load the experiment once, then run cmd_<name>(args, exp, info); map errors to exit codes."""
    args = _build_parser().parse_args(argv)
    info = (lambda msg: None) if args.quiet else print
    try:
        if not args.config:
            raise ConfigError("no --config given", "<args>")
        return args.func(args, load_experiment(args.config, args.set or []), info)
    except (NoSpanningTree, InfeasibleTopology) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Diverged as exc:
        print(f"error: simulation diverged at t = {exc.time:.6g} s", file=sys.stderr)
        return 3
    except ToolkitError as exc:
        kind = "malformed trace: " if isinstance(exc, MalformedTrace) else ""
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
