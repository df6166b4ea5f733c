"""Reference numbers the tests check the library against.

tests/data/references.json: fine-step reference numbers for the bundled run.

Each case runs the library at a small dt with every step recorded, so its
recording step is dt.  Per stage it keeps the convergence time, the error
at the stage's window end (the largest |error| over the followers at that
sample) and the largest error after t*.  The file also keeps the command
each case stands for, dt and the host that wrote it.
tests/test_acceptance.py checks the default bundled run's convergence
times against these, within one of its recorded steps (1e-3 s).

tests/data/lambda_min.json: the smallest eigenvalue of a few 120-follower
mirror matrices (perfbench's wide_config graphs under their rho weights) to
50 significant digits.  The file keeps the weights too: the last bits of rho
depend on the BLAS build and its thread count, and with the weights
mirror_with_H rebuilds the same matrix anywhere.  Rayleigh-quotient
iteration in mpmath on the double matrix, started from eigh's pair, runs
until a step moves the eigenvalue by less than 1e-55; the residual norm of
the unit vector bounds the distance to an eigenvalue, and it must stay below
half the gap to the next one.  tests/test_graph.py checks min_eig_symmetric
against these, within one ulp.  mpmath, not a dependency of ptobs, is
needed for this file only.

Not collected by pytest.  Regenerate both from the repository root (the
bundled case takes a few seconds, each mirror 5-15 s):

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
from conftest import perfbench_workloads
from ptobs.config import load_experiment

REPO = Path(__file__).resolve().parent.parent
BUNDLED_CONFIG = REPO / "configs" / "triple_integrator_switching.cfg"
REFERENCES = Path(__file__).resolve().parent / "data" / "references.json"
LAMBDA_MIN = Path(__file__).resolve().parent / "data" / "lambda_min.json"

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


# (seed, graph) of wide_config(seed, graph, 120).  Under the stored weights
# (rho from OpenBLAS with two threads), 1/3 and 93/0 are half-ulp ties: eigh
# plus the Rayleigh correction read -0.502 and -0.496 ulp, eigvalsh plus one
# shifted solve +0.498 and +0.504 (-0.496 with one BLAS thread).
MIRRORS = ((1, 3), (7, 0), (53, 2), (93, 0))
MIRROR_FOLLOWERS = 120
DIGITS = 50


def lambda_min_reference(seed: int, graph: int) -> dict:
    """lambda_min of one wide mirror to DIGITS significant digits."""
    import mpmath

    adjacency, pinning, _ = perfbench_workloads().wide_config(seed, graph, MIRROR_FOLLOWERS)
    analysis = ptobs.build_analysis(ptobs.DirectedTopology(adjacency, pinning))
    w, V = np.linalg.eigh(analysis.mirror)
    with mpmath.workdps(DIGITS + 10):
        A, eye = mpmath.matrix(analysis.mirror.tolist()), mpmath.eye(MIRROR_FOLLOWERS)  # every double exactly
        x, lam = mpmath.matrix(V[:, 0].tolist()), mpmath.mpf(float(w[0]))
        for _ in range(5):
            y = mpmath.lu_solve(A - lam * eye, x)
            x = y / mpmath.norm(y)
            previous, lam = lam, mpmath.fdot(x, A * x)
            if abs(lam - previous) < mpmath.mpf(10) ** -(DIGITS + 5):
                break
        else:
            raise RuntimeError(f"seed {seed} graph {graph}: no convergence")
        residual = mpmath.norm(A * x - lam * x)
    if not residual < (w[1] - w[0]) / 2:
        raise RuntimeError(f"seed {seed} graph {graph}: residual {residual} does not isolate lambda_min")
    return {
        "seed": seed,
        "graph": graph,
        "followers": MIRROR_FOLLOWERS,
        "lambda_min": mpmath.nstr(lam, DIGITS, strip_zeros=False),
        "residual": mpmath.nstr(residual, 3),
        "weights": analysis.rho.tolist(),
    }


def write(path: Path, body: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"host": {**fingerprint(), "python": platform.python_version()}, **body},
                               indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main() -> int:
    write(REFERENCES, {"cases": {name: reference_case(overrides) for name, overrides in CASES.items()}})
    write(LAMBDA_MIN, {"digits": DIGITS, "mirrors": [lambda_min_reference(*m) for m in MIRRORS]})
    return 0


if __name__ == "__main__":
    sys.exit(main())
