"""ptobs benchmark: closed-loop CLI workloads with output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is bundled, dense-switching, wide-analyze, or all (each workload in its
own process, one after the other).  One client in one single-threaded
process runs an iteration, checks its outputs, then starts the next, until
S seconds of iterations have passed.  Imports, a first set-up and a first
call of each command are warm-up and not timed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, with times
divided by a reference kernel timed next to them (see reference.py); --trace 1
alternates untraced and traced iterations and reports the per-layer metrics,
taking spans from wrappers around ptobs functions (see tracing.py) and
writing them to perfbench/.work/spans-NAME.npz.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere: BLAS threads would share the two cores
# with the measured process and add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
WORKLOADS = ("bundled", "dense-switching", "wide-analyze")


def run_one(args, spec: dict) -> int:
    if not (ROOT / "src" / "ptobs" / "__init__.py").is_file():
        print(f"error: no ptobs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    import workloads

    WORK.mkdir(parents=True, exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    ledger = measure.Ledger()
    try:
        wl = workloads.prepare(args.workload, args.seed, ROOT, out)
        exps = wl.setup()
        if args.trace:
            wanted = spec["per_layer"]
            metrics = measure.traced(wl, exps, out, args.seconds, ledger, wanted,
                                     WORK / f"spans-{args.workload}.npz")
        else:
            wanted = spec["end_to_end"]
            metrics = measure.untraced(wl, exps, out, args.seconds, ledger)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, entry in result.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"  fail_ratio = {ledger.failed / ledger.attempted:.6g} "
          f"({ledger.failed} of {ledger.attempted} operations failed)")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": result,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS belongs to one workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        child = json.loads(lines[-1])
        combined["correct"] &= child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        for metric, entry in child["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
