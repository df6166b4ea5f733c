"""The committed bit-identity corpus (tests/bit_identity.py) against this tree.

The exact-replay tests in test_sim.py step dpto_rhs, which runs the same
kernel as the integrator, so a change to the kernel or the rk4 loop moves
both sides together.  This corpus pins the outputs themselves.
"""

import json
import math

import pytest

import bit_identity
from ptobs.config import load_experiment

STORED = json.loads(bit_identity.CORPUS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return bit_identity.run_corpus(tmp_path_factory.mktemp("corpus"))


def _close(a, b, rel=1e-9):
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def _error_floor(overrides):
    # With the hard sign, the post-deadline errors are the O(sigma * dt)
    # chattering of the sliding term -sigma * sign(.) (up to about 3 sigma dt
    # in the corpus), and a last-bit change can shift it by a sizeable part
    # of sigma * dt: a 1e-17 change to rk4's stage sum moved clustered-switches'
    # stage 3 from 1.87e-5 to 1.36e-5, with sigma * dt = 1.25e-5.  So they
    # compare within sigma * dt absolute.  A smoothed sign has no chattering:
    # None, compared relative like the convergence times.
    exp = load_experiment(str(bit_identity.BUNDLED_CONFIG), list(overrides))
    return None if exp.sim.sign_smoothing is not None else exp.gains.sigma * exp.sim.dt


def _summary_mismatches(stored, fresh):
    # The numbers a host with other BLAS rounding should still reproduce.
    bad = []
    for name, want in stored["invocations"].items():
        got, floor = fresh[name], _error_floor(want["overrides"])
        errors_close = _close if floor is None else lambda a, b: abs(a - b) <= floor
        for key, close in (("convergence_times", _close), ("post_deadline_errors", errors_close)):
            if len(got[key]) != len(want[key]) or not all(map(close, got[key], want[key])):
                bad.append(f"{name}: {key} {got[key]} != {want[key]}")
    return bad


def test_corpus_lists_the_current_invocations():
    stored = {name: tuple(v["overrides"]) for name, v in STORED["invocations"].items()}
    assert stored == bit_identity.INVOCATIONS, "regenerate with tests/bit_identity.py"
    kernel = {name: v["sign_smoothing"] for name, v in STORED["kernel"].items()}
    assert kernel == bit_identity.KERNEL_CASES, "regenerate with tests/bit_identity.py"


def test_kernel_outputs_match_the_corpus():
    fresh = bit_identity.run_kernel_cases()
    if STORED["fingerprint"] != bit_identity.fingerprint():  # see test_outputs_match_the_corpus
        bad = [name for name, want in STORED["kernel"].items()
               if not _close(fresh[name]["abs_sum"], want["abs_sum"])]
    else:
        bad = [name for name, want in STORED["kernel"].items()
               if fresh[name]["digest"] != want["digest"]]
    assert bad == [], "dpto_rhs outputs differ from the corpus"


def test_outputs_match_the_corpus(fresh, capsys):
    for name, got in fresh.items():
        assert got["exit_codes"] == [0, 0], name
    if STORED["fingerprint"] != bit_identity.fingerprint():
        with capsys.disabled():
            print(
                f"\nbit-identity corpus: written on {STORED['fingerprint']}, this host is "
                f"{bit_identity.fingerprint()}; digests not compared, only convergence times "
                "within 1e-9 relative and post-deadline errors within sigma * dt (hard sign) "
                "or 1e-9 relative (smoothed sign)"
            )
        assert _summary_mismatches(STORED, fresh) == []
        return
    bad = [
        f"{name}: {key}"
        for name, want in STORED["invocations"].items()
        for key in sorted(want["digests"].keys() | fresh[name]["digests"].keys())
        if fresh[name]["digests"].get(key) != want["digests"].get(key)
    ]
    assert bad == [], "outputs differ from the corpus"


def test_summary_fallback_accepts_the_same_outputs(fresh):
    # The comparison another host falls back to, exercised on this one.
    assert _summary_mismatches(STORED, fresh) == []
    assert _summary_mismatches(STORED, {**fresh, "bundled": {
        **fresh["bundled"], "convergence_times": [0.519, *fresh["bundled"]["convergence_times"][1:]],
    }}) != []
    # clustered-switches' errors before that stage-sum change: working code.
    before = [2.8801488083374238e-08, 1.0845150303765197e-06, 1.866586764540188e-05]
    tenfold = [10 * e for e in fresh["clustered-switches"]["post_deadline_errors"]]
    for errors, mismatches in ((before, 0), (tenfold, 1)):
        other = {**fresh, "clustered-switches": {**fresh["clustered-switches"], "post_deadline_errors": errors}}
        assert len(_summary_mismatches(STORED, other)) == mismatches
