"""Closed-loop measurement of one workload, untraced or traced.

Imported only once ptobs is importable; run.py owns the command line.
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
import tracing
import workloads

# setup_s is the median of all set-ups in a run: a first block of at least
# SETUP_MIN_REPS (more while they take under SETUP_MIN_S in total), then,
# after each iteration, a block of at least one set-up (more while under
# SETUP_STEP_S) as long as set-ups have taken under SETUP_SHARE of the time
# iterations took.  The median then spans the same stretch of time as the
# iterations, without set-up crowding them out where it is slow.
SETUP_MIN_REPS = 1
SETUP_MIN_S = 0.5
SETUP_STEP_S = 0.1
SETUP_SHARE = 0.25
SETUP_MAX_REPS = 50


class Ledger:
    """Attempted and failed operations of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, error: str | None):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"FAILED {label}: {error}", file=sys.stderr)


@dataclass
class Timed:
    """Wall times of some measured work, net of the reference slices run inside it."""

    seconds: dict[str, float] = field(default_factory=dict)  # per command, or per set-up
    slice_s: float = 0.0
    slices: int = 0

    def add(self, key, wall: float, sampler: reference.Sampler | None):
        own = wall
        if sampler:
            slice_s, slices = sampler.take()
            own -= slice_s
            self.slice_s += slice_s
            self.slices += slices
        self.seconds[key] = self.seconds.get(key, 0.0) + own

    def speed(self, before: float, after: float) -> float:
        """Seconds per reference pass: the slices and the passes around the work, pooled."""
        return (self.slice_s + before + after) / (self.slices / reference.SLICES_PER_PASS + 2)


def iterate(wl, exps, out: Path, ledger: Ledger, tracer: tracing.Tracer | None = None,
            cases=None, sampler: reference.Sampler | None = None):
    """One closed-loop iteration: each command on each case, then its check.

    Returns the wall seconds per command (summed over cases), the values the
    checks measured, and whether every command ran and passed its check.
    """
    timed = Timed()
    observed: dict[str, float] = {}
    complete = True
    for case, exp in zip(cases or wl.cases, exps):
        for command in wl.commands:
            workloads.clear_outputs(command, out)
            call = tracer.wrap(f"cli.{command}", workloads.call_cli) if tracer else workloads.call_cli
            error = None
            try:
                code, stdout, secs = call(wl.argv(command, case, out), sampler)
                timed.add(command, secs, sampler)
                observed.update(workloads.check(case, exp, command, code, stdout, out))
            except workloads.CheckFailed as exc:
                error = str(exc)
            except Exception:  # a crash counts as a failed operation; keep measuring
                error = traceback.format_exc()
            complete &= error is None
            ledger.record(f"{wl.name} {command} {case.config.name}", error)
    return timed, observed, complete


def measure_setup(wl, ledger: Ledger, min_reps: int, min_s: float,
                  sampler: reference.Sampler | None = None) -> Timed:
    """Timed set-ups; the caller's first, untimed set-up is the warm-up."""
    timed = Timed()
    while len(timed.seconds) < min_reps or (
        sum(timed.seconds.values()) < min_s and len(timed.seconds) < SETUP_MAX_REPS
    ):
        if sampler:
            sampler.start()
        start = time.perf_counter()
        wl.setup()
        if sampler:
            sampler.stop()
        timed.add(len(timed.seconds), time.perf_counter() - start, sampler)
        ledger.record(f"{wl.name} setup", None)
    return timed


def peak_rss_mb() -> float:
    """High-water resident set of this process image (Linux VmHWM), in MiB.

    Unlike ru_maxrss, VmHWM starts afresh at exec, so it excludes the parent.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def warm_up(wl, exps, out: Path, ledger: Ledger):
    """Every command once on the first case: imports and caches, untimed."""
    iterate(wl, exps[:1], out, ledger, cases=wl.cases[:1])


def untraced(wl, exps, out: Path, seconds: float, ledger: Ledger) -> dict[str, float]:
    """End-to-end metrics: iteration and set-up time at reference speed, peak memory.

    A whole reference pass runs between iterations, and reference slices run
    inside every command and set-up.  Each iteration, and each block of
    set-ups, is divided by the reference speed pooled from the slices inside
    it and the passes on either side (`Timed.speed`): an iteration's wall time
    over that speed is its `iteration_rel`, and a set-up's, times
    `reference.NOMINAL_S`, is its time on a host whose pass takes that long.
    """
    warm_up(wl, exps, out, ledger)
    reference.timed()  # warm-up
    sampler = reference.Sampler()
    try:
        before = reference.timed()
        pending = measure_setup(wl, ledger, SETUP_MIN_REPS, SETUP_MIN_S, sampler)
        setup_wall: list[float] = list(pending.seconds.values())
        setup_rel: list[float] = []
        per_command: dict[str, list[float]] = {c: [] for c in wl.commands}
        totals: list[float] = []
        passes: list[float] = [before]
        ratios: list[float] = []
        observed: dict[str, float] = {}
        deadline = time.perf_counter() + seconds
        while not ratios or time.perf_counter() < deadline:
            timed, observed, complete = iterate(wl, exps, out, ledger, sampler=sampler)
            after = reference.timed()
            passes.append(after)
            if pending:
                speed = pending.speed(before, after)
                setup_rel += [t / speed for t in pending.seconds.values()]
                pending = None
            for command, value in timed.seconds.items():
                per_command[command].append(value)
            if complete:
                totals.append(sum(timed.seconds.values()))
                ratios.append(totals[-1] / timed.speed(before, after))
            elif time.perf_counter() >= deadline:
                break
            if sum(setup_wall) < SETUP_SHARE * sum(totals) and time.perf_counter() < deadline:
                pending = measure_setup(wl, ledger, 1, SETUP_STEP_S, sampler)
                setup_wall += pending.seconds.values()
            before = after
        if pending:
            speed = pending.speed(before, before)
            setup_rel += [t / speed for t in pending.seconds.values()]
    finally:
        sampler.close()
    print(f"{wl.name}: {len(totals)} timed iterations, {len(setup_wall)} set-ups, "
          f"{len(passes)} reference passes")
    for command, values in per_command.items():
        if values:
            print(f"  {command}_s = {statistics.median(values):.6g} s (median of {len(values)})")
    if totals:
        print(f"  wall medians without slices: iteration {statistics.median(totals):.6g} s, "
              f"set-up {statistics.median(setup_wall):.6g} s, "
              f"reference pass {statistics.median(passes):.6g} s")
    for name, value in observed.items():
        print(f"  {name} = {value:.6g}")
    return {
        "iteration_rel": statistics.median(ratios) if ratios else float("nan"),
        "setup_s": statistics.median(setup_rel) * reference.NOMINAL_S,
        "peak_rss_mb": peak_rss_mb(),
    }


def traced(wl, exps, out: Path, seconds: float, ledger: Ledger, per_layer: list[dict],
           spans_path: Path) -> dict[str, float]:
    """Per-layer metrics from traced iterations, interleaved with untraced ones."""
    tracer = tracing.Tracer()
    warm_up(wl, exps, out, ledger)
    plain: dict[str, list[float]] = {c: [] for c in wl.commands}
    plain_totals: list[float] = []
    traced_totals: list[float] = []
    rows: list[dict[str, float]] = []
    kept: list[dict[str, np.ndarray]] = []
    deadline = time.perf_counter() + seconds
    while not rows or time.perf_counter() < deadline:
        plain_run, _, _ = iterate(wl, exps, out, ledger)
        for command, value in plain_run.seconds.items():
            plain[command].append(value)
        plain_totals.append(sum(plain_run.seconds.values()))
        tracer.clear()
        with tracing.patched(tracer):
            traced_run, observed, _ = iterate(wl, exps, out, ledger, tracer)
        traced_totals.append(sum(traced_run.seconds.values()))
        spans = tracer.snapshot()
        kept.append(spans)
        rows.append({**tracing.summarize(spans, tracer.names), **observed})

    metrics: dict[str, float] = {}
    for command in ("run", "report", "analyze"):
        values = plain.get(command)
        metrics[f"{command}_s"] = statistics.median(values) if values else 0.0
    metrics["trace_overhead"] = (
        statistics.median(traced_totals) / statistics.median(plain_totals) - 1.0
    )
    for spec in per_layer:
        name = spec["name"]
        if name in metrics:
            continue
        values = [row.get(name, 0) for row in rows]
        if spec["unit"] == "s":
            metrics[name] = statistics.median(values)
            continue
        # Counts, sizes and errors are deterministic: a difference is a defect.
        if len(set(values)) != 1:
            ledger.record(f"{wl.name} {name}", f"differs between traced iterations: {values}")
        metrics[name] = values[0]

    np.savez(
        spans_path,
        names=np.array(tracer.names),
        iteration=np.concatenate(
            [np.full(s["name"].size, i, dtype=np.int32) for i, s in enumerate(kept)]
        ),
        **{key: np.concatenate([s[key] for s in kept]) for key in ("name", "parent", "start", "end")},
    )
    print(f"{wl.name}: {len(rows)} traced and {len(plain_totals)} untraced iterations; "
          f"spans written to {spans_path} (parent indices count within an iteration)")
    return metrics
