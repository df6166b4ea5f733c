"""Command-line front end: analyze, synthesize, run, report.

Exit codes are a stable contract: 0 success, 1 config or input error,
2 infeasible topology, 3 divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from .config import (
    Experiment,
    apply_overrides,
    build_experiment,
    load_config,
    load_experiment,
    serialize_config,
)
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


def _vec(v: np.ndarray) -> str:
    return " ".join(f"{x:.6g}" for x in v)


class _Printer:
    def __init__(self, quiet: bool):
        self.quiet = quiet

    def info(self, msg: str = ""):
        if not self.quiet:
            print(msg)

    @staticmethod
    def warn(msg: str):
        print(f"warning: {msg}", file=sys.stderr)


def _out_dir(args, experiment: Experiment) -> Path:
    path = Path(args.out or os.environ.get("OUTPUT_DIR") or experiment.output.directory)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _require_config(args) -> str:
    if not args.config:
        raise ConfigError("no --config given", "<args>")
    return args.config


def _resolve_gains(exp: Experiment):
    if exp.gains_mode == "explicit":
        return exp.gains
    return synthesize_gains(exp.sequence.analyses(), exp.leader.input_bound, exp.margins)


def cmd_analyze(args) -> int:
    exp = load_experiment(_require_config(args), args.set or [])
    p = _Printer(args.quiet)
    try:
        analyses = exp.sequence.analyses()
    except NoSpanningTree:
        # Only a sequence without common_H gets this far, and a config gives
        # such a sequence one topology.
        p.info("topology 1:")
        p.info("  leader-rooted spanning tree: NO")
        raise
    for j, analysis in enumerate(analyses, start=1):
        p.info(f"topology {j}:")
        p.info("  leader-rooted spanning tree: yes")
        label = "rho" if analysis.weight_source == "rho_from_L0" else "eta"
        p.info(f"  weights ({label}): {_vec(analysis.rho)}")
        p.info(f"  lambda_min(M): {analysis.lambda_min:.9g}")
        p.info(f"  max weight: {analysis.max_weight:.9g}")
        p.info(
            f"  beta bound (this topology alone): "
            f"{analysis.max_weight / analysis.lambda_min:.9g}"
        )
    p.info(f"combined beta lower bound: {beta_lower_bound(analyses):.9g}")
    p.info(f"sigma lower bound (leader input bound): {exp.leader.input_bound:.9g}")
    return 0


def cmd_synthesize(args) -> int:
    doc = load_config(_require_config(args))
    apply_overrides(doc, args.set or [])
    exp = build_experiment(doc)
    p = _Printer(args.quiet)
    flags = {
        "alpha": args.alpha_margin, "beta_factor": args.beta_factor, "sigma_factor": args.sigma_factor
    }
    margins = dataclasses.replace(
        exp.margins if exp.gains_mode == "synthesize" else GainMargins(alpha=1.0),
        **{name: value for name, value in flags.items() if value is not None},
    )
    analyses = exp.sequence.analyses()
    gains = synthesize_gains(analyses, exp.leader.input_bound, margins)
    for j, a in enumerate(analyses, start=1):
        p.info(f"topology {j}: lambda_min(M) = {a.lambda_min:.9g}, max weight = {a.max_weight:.9g}")
    bound = beta_lower_bound(analyses)
    p.info(f"alpha = {gains.alpha:.17g}")
    p.info(f"beta  = {gains.beta:.17g}  (bound {bound:.17g} x factor {margins.beta_factor:g})")
    p.info(
        f"sigma = {gains.sigma:.17g}  (bound {exp.leader.input_bound:.17g} "
        f"x factor {margins.sigma_factor:g})"
    )
    if args.emit_config:
        doc.sections["gains"] = {}
        doc.set("gains", "mode", "explicit")
        doc.set("gains", "alpha", f"{gains.alpha:.17g}")
        doc.set("gains", "beta", f"{gains.beta:.17g}")
        doc.set("gains", "sigma", f"{gains.sigma:.17g}")
        Path(args.emit_config).write_text(serialize_config(doc), encoding="utf-8")
        p.info(f"explicit-gain config written to {args.emit_config}")
    return 0


def cmd_run(args) -> int:
    exp = load_experiment(_require_config(args), args.set or [])
    p = _Printer(args.quiet)
    gains = _resolve_gains(exp)
    for msg in gain_condition_warnings(gains, exp.sequence.analyses(), exp.leader.input_bound):
        p.warn(msg)
    result = run_sim(
        exp.sequence, exp.leader, gains, exp.sched, exp.initial_estimates, exp.sim
    )
    out = _out_dir(args, exp)
    if exp.output.write_csv:
        trace_path = out / "trace.csv"
        write_trace(result, str(trace_path))
        p.info(f"trace written to {trace_path}")
    t_star = exp.sched.t_star
    after = result.times >= t_star
    p.info(f"convergence times (tolerance {exp.sim.convergence_tolerance:g}):")
    for k in range(1, exp.sched.order + 1):
        tau = result.convergence_times[k - 1]
        p.info(f"  stage {k}: {'never' if tau is None else f'{tau:.6g} s'}")
    if np.any(after):
        p.info(f"max |error| for t >= t* = {t_star:g} s:")
        for k in range(1, exp.sched.order + 1):
            worst = float(np.max(np.abs(result.estimate_errors[after, :, k - 1])))
            p.info(f"  stage {k}: {worst:.6g}")
    p.info("peak Lyapunov V_k:")
    for k in range(1, exp.sched.order + 1):
        p.info(f"  stage {k}: {float(np.max(result.lyapunov[:, k - 1])):.6g}")
    return 0


def cmd_report(args) -> int:
    exp = load_experiment(_require_config(args), args.set or [])
    p = _Printer(args.quiet)
    data = read_trace(args.trace)
    if data.order != exp.sched.order or data.follower_count != exp.sequence.topologies[0].follower_count:
        raise MalformedTrace(
            f"trace dimensions (N={data.follower_count}, n={data.order}) do not match the config"
        )
    out = _out_dir(args, exp)
    for k in range(1, data.order + 1):
        w = exp.sched.window(k)
        svg = render_error_plot(
            data.times,
            data.estimate_errors[:, :, k - 1],
            stage_k=k,
            window=(w.start, w.end),
            title=f"Follower estimation error, stage {k}",
        )
        path = out / f"stage_{k}_error.svg"
        path.write_text(svg, encoding="ascii")
        p.info(f"wrote {path}")
    return 0


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
    sp.add_argument("--alpha-margin", type=float, help="constant gain alpha (> 0)")
    sp.add_argument("--beta-factor", type=float, help="multiplier >= 1 on the beta bound")
    sp.add_argument("--sigma-factor", type=float, help="multiplier >= 1 on the sigma bound")
    sp.add_argument("--emit-config", metavar="PATH", help="write a config copy with explicit gains")
    sp.set_defaults(func=cmd_synthesize)

    sp = sub.add_parser("run", parents=[common], help="simulate and write a trace CSV")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("report", parents=[common], help="render per-stage SVG plots from a trace")
    sp.add_argument("trace", help="trace CSV produced by run")
    sp.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
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
