"""The committed bit-identity corpus (tests/bit_identity.py) against this tree.

The exact-replay tests in test_sim.py step dpto_rhs, which runs the same
kernel as the integrator, so a change to the kernel or the rk4 loop moves
both sides together.  This corpus pins the outputs themselves.
"""

import json
import math

import pytest

import bit_identity

STORED = json.loads(bit_identity.CORPUS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return bit_identity.run_corpus(tmp_path_factory.mktemp("corpus"))


def _close(a, b, rel=1e-9):
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def _summary_mismatches(stored, fresh):
    # The numbers a host with other BLAS rounding should still reproduce.
    bad = []
    for name, want in stored["invocations"].items():
        got = fresh[name]
        for key in ("convergence_times", "post_deadline_errors"):
            if len(got[key]) != len(want[key]) or not all(map(_close, got[key], want[key])):
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
                "and post-deadline errors within 1e-9 relative"
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
