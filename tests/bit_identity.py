"""Bit-identity corpus: short `ptobs run` + `report` invocations on the bundled
config whose every output is pinned by a SHA-256 digest.

Per invocation the corpus holds the digest of every SimResult array, of
convergence_times and event_log, of trace.csv, of each stage SVG, and of the
run and report stdout and stderr (the output directory written as "<out>").
It also keeps the convergence times and the worst post-deadline error per
stage, which tests/test_bit_identity.py compares within 1e-9 relative on a
host whose fingerprint (numpy version, BLAS, machine and CPU) differs from
the one that wrote the file, since BLAS kernels may round differently there.

Per kernel case it holds the digest of dpto_rhs outputs at seeded inputs,
and their sum of magnitudes for the same fallback.  An integrator step at a
fine dt can absorb a last-bit change in the observer stage (the smoothed
sign's division, say) into the estimate it is added to; the raw derivative
cannot.

Regenerate from the repository root, only when a change alters results on
purpose:

    PYTHONPATH=src python tests/bit_identity.py

It prints each invocation and kernel case whose digests changed, the
invocations with their stored and new convergence times and worst
post-deadline errors, and how many invocations are unchanged: the size of
the change, for its commit message.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from ptobs import cli
from ptobs.config import load_experiment
from ptobs.observer import dpto_rhs

REPO = Path(__file__).resolve().parent.parent
BUNDLED_CONFIG = REPO / "configs" / "triple_integrator_switching.cfg"
CORPUS = Path(__file__).resolve().parent / "data" / "bit_identity.json"

_SHORT = ("cascade.stage_durations=0.1 0.1 0.1",)  # t* = t0 + 0.3
# Overrides on the bundled config, with short horizons.  Each has samples past
# t*, so the post-deadline errors exist.
INVOCATIONS: dict[str, tuple[str, ...]] = {
    "bundled": ("sim.t_end=0.62",),
    # perfbench's dense-switching overrides (a switch every two steps), t_end cut.
    "dense-switching": (
        "switching.period=0.002", "sim.dt=1e-3", "sim.guard=1e-2",
        "cascade.stage_durations=1 1 1", "sim.t_end=3.05",
    ),
    "euler": (*_SHORT, "sim.method=euler", "sim.t_end=0.33"),
    "sign-smoothing": (*_SHORT, "sim.sign_smoothing=0.05", "sim.t_end=0.33"),
    "record-stride-1": (
        "cascade.stage_durations=0.05 0.05 0.05", "sim.record_stride=1", "sim.t_end=0.16",
    ),
    "record-stride-7-period-0.0137": (
        *_SHORT, "sim.record_stride=7", "switching.period=0.0137", "sim.t_end=0.33",
    ),
    "cascade-t0-0.31": (*_SHORT, "cascade.t0=0.31", "sim.t_end=0.64"),
    "t0-1000.3": (*_SHORT, "cascade.t0=1000.3", "sim.t_end=1000.63"),
    # Switches within the merge tolerance of a boundary and of each other.
    "clustered-switches": (
        *_SHORT,
        "switching.schedule=0:1 0.05:2 0.0999999999996:1 0.1000000000005:2"
        " 0.15:1 0.1500000000002:2 0.1500000000004:1 0.2:2 0.25:1",
        "sim.t_end=0.33",
    ),
}

# dpto_rhs cases: the sign smoothing each evaluates under (None: hard sign).
KERNEL_CASES: dict[str, float | None] = {
    "kernel-hard-sign": None,
    "kernel-sign-smoothing-0.05": 0.05,
}
_KERNEL_SAMPLES = 200


def fingerprint() -> dict[str, str]:
    """What decides the last bit of a BLAS product here: numpy, its BLAS and the CPU."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "cpu": cpu,
    }


def _sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _cli(argv: list[str], out: Path) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--config", str(BUNDLED_CONFIG), "--out", str(out)])
    return code, stdout.getvalue().replace(str(out), "<out>"), stderr.getvalue()


def run_invocation(overrides: tuple[str, ...], out: Path) -> dict:
    """Run `ptobs run` then `report` with the overrides; digests and summary numbers."""
    sets = [arg for o in overrides for arg in ("--set", o)]
    captured, real_run = [], cli.run_sim

    def run_sim(*args):  # keeps the schedule (for t*) and the SimResult
        captured.append((args[3], real_run(*args)))
        return captured[-1][1]

    with mock.patch.object(cli, "run_sim", run_sim):
        code, run_out, run_err = _cli(["run", *sets], out)
    code_report, report_out, report_err = _cli(["report", str(out / "trace.csv"), *sets], out)
    (sched, result), = captured
    digests = {}
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        if isinstance(value, np.ndarray):
            digests[field.name] = _sha(f"{value.dtype}{value.shape}".encode() + value.tobytes())
        else:
            digests[field.name] = _sha(repr(value))
    digests["trace.csv"] = _sha((out / "trace.csv").read_bytes())
    for k in range(1, result.order + 1):
        digests[f"stage_{k}_error.svg"] = _sha((out / f"stage_{k}_error.svg").read_bytes())
    digests.update({
        "run.stdout": _sha(run_out), "run.stderr": _sha(run_err),
        "report.stdout": _sha(report_out), "report.stderr": _sha(report_err),
    })
    after = result.estimate_errors[result.times >= sched.t_star]
    return {
        "overrides": list(overrides),
        "exit_codes": [code, code_report],
        "convergence_times": list(result.convergence_times),
        "post_deadline_errors": np.abs(after).max(axis=(0, 1)).tolist() if after.size else [],
        "digests": digests,
    }


def kernel_case(smoothing: float | None) -> dict:
    """dpto_rhs on the bundled topologies, gains and schedule at seeded times,
    estimates and leader states small enough that the smoothed sign stays
    off its saturation."""
    exp = load_experiment(str(BUNDLED_CONFIG))
    analyses, sched = exp.sequence.analyses(), exp.sched
    rng = np.random.default_rng(17)
    out = np.stack([
        dpto_rhs(analyses[rng.integers(len(analyses))], exp.gains, sched, exp.sim.guard,
                 rng.normal(scale=0.05, size=(3, sched.order)),
                 rng.normal(scale=0.05, size=sched.order),
                 rng.uniform(sched.t0, sched.t_star), smoothing)
        for _ in range(_KERNEL_SAMPLES)
    ])
    return {
        "sign_smoothing": smoothing,
        "abs_sum": float(np.abs(out).sum()),
        "digest": _sha(f"{out.dtype}{out.shape}".encode() + out.tobytes()),
    }


def run_kernel_cases() -> dict[str, dict]:
    return {name: kernel_case(smoothing) for name, smoothing in KERNEL_CASES.items()}


def run_corpus(root: Path) -> dict[str, dict]:
    """Every invocation, each writing into its own directory under root."""
    return {name: run_invocation(o, root / name) for name, o in INVOCATIONS.items()}


def report_changes(stored: dict, corpus: dict) -> None:
    """Print what differs between the stored corpus and a fresh one."""
    unchanged = 0
    for name, run in corpus["invocations"].items():
        was = stored.get("invocations", {}).get(name)
        if was is None:
            print(f"{name}: new")
            continue
        changed = [key for key in run["digests"] if run["digests"][key] != was["digests"].get(key)]
        if not changed:
            unchanged += 1
            continue
        print(f"{name}: {', '.join(changed)} changed")
        for key in ("convergence_times", "post_deadline_errors"):
            print(f"  {key}: {was[key]} -> {run[key]}")
    for name, case in corpus["kernel"].items():
        if case["digest"] != stored.get("kernel", {}).get(name, {}).get("digest"):
            print(f"{name}: dpto_rhs outputs changed")
    print(f"{unchanged} of {len(corpus['invocations'])} invocations unchanged")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        corpus = {
            "fingerprint": fingerprint(),
            "invocations": run_corpus(Path(tmp)),
            "kernel": run_kernel_cases(),
        }
    if CORPUS.is_file():
        report_changes(json.loads(CORPUS.read_text(encoding="utf-8")), corpus)
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(INVOCATIONS)} invocations and {len(KERNEL_CASES)} kernel cases to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
