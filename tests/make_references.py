"""Fine-step reference numbers for the bundled run: tests/data/references.json.

Each case runs the library at a small dt with every step recorded, so its
recording step is dt.  Per stage it keeps the convergence time, the error
at the stage's window end (the largest |error| over the followers at that
sample) and the largest error after t*.  The file also keeps the command
each case stands for, dt and the host that wrote it.
tests/test_acceptance.py checks the default bundled run's convergence
times against these, within one of its recorded steps (1e-3 s).

Not collected by pytest.  Regenerate from the repository root (the bundled
case takes a few seconds):

    PYTHONPATH=src python tests/make_references.py
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import numpy as np

import ptobs
from bit_identity import fingerprint
from ptobs.config import load_experiment

REPO = Path(__file__).resolve().parent.parent
BUNDLED_CONFIG = REPO / "configs" / "triple_integrator_switching.cfg"
REFERENCES = Path(__file__).resolve().parent / "data" / "references.json"

# Overrides on the bundled config per case.  Wide-graph cases wait for the
# tests that read them.
CASES: dict[str, tuple[str, ...]] = {
    "bundled": ("sim.dt=1e-5", "sim.record_stride=1"),
}


def reference_case(overrides: tuple[str, ...]) -> dict:
    """One case's numbers, from a run with every step recorded."""
    exp = load_experiment(str(BUNDLED_CONFIG), list(overrides))
    res = ptobs.run(exp.sequence, exp.leader, exp.gains, exp.sched, exp.initial_estimates, exp.sim)
    worst = np.abs(res.estimate_errors).max(axis=1)  # (S, n): the worst follower per stage
    at_end = []
    for k in range(1, exp.sched.order + 1):
        i = res.times.searchsorted(exp.sched.window(k).end)
        assert res.times[i] == exp.sched.window(k).end  # window ends are plan events, always recorded
        at_end.append(float(worst[i, k - 1]))
    path = BUNDLED_CONFIG.relative_to(REPO)
    return {
        "command": " ".join(["ptobs run --config", str(path), *(f"--set {o}" for o in overrides)]),
        "dt": exp.sim.dt,
        "record_step": exp.sim.dt,
        "convergence_times": list(res.convergence_times),
        "window_end_errors": at_end,
        "post_deadline_errors": worst[res.times >= exp.sched.t_star].max(axis=0).tolist(),
    }


def main() -> int:
    references = {
        "host": {**fingerprint(), "python": platform.python_version()},
        "cases": {name: reference_case(overrides) for name, overrides in CASES.items()},
    }
    REFERENCES.parent.mkdir(exist_ok=True)
    REFERENCES.write_text(json.dumps(references, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(CASES)} reference cases to {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
