import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptobs
from ptobs.errors import DimensionMismatch
from ptobs.gain import ScalingWindow, rate_ratio, stage_gain, varsigma


@pytest.fixture
def window():
    return ScalingWindow(start=1.0, duration=0.2, exponent=2.01)


def test_varsigma_at_window_start(window):
    assert varsigma(window, 1.0) == pytest.approx(1.0)


def test_varsigma_midwindow(window):
    # halfway: (T / (T/2))^h = 2^2.01
    assert varsigma(window, 1.1) == pytest.approx(2.0**2.01, rel=1e-12)


def test_varsigma_outside_window(window):
    assert varsigma(window, 1.0 + 2 * 0.2) == 1.0
    assert varsigma(window, 0.5) == 1.0  # before the window also yields 1


def test_varsigma_at_least_one_and_nondecreasing(window):
    ts = np.linspace(window.start, window.end - 1e-6, 500)
    vals = [varsigma(window, t) for t in ts]
    assert all(v >= 1.0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert varsigma(window, window.end) == 1.0


def test_rate_ratio_at_window_start(window):
    assert rate_ratio(window, 1.0, guard=1e-6) == pytest.approx(2.01 / 0.2)


def test_rate_ratio_outside_window(window):
    assert rate_ratio(window, window.end, guard=1e-6) == 0.0
    assert rate_ratio(window, 0.0, guard=1e-6) == 0.0


def test_rate_ratio_guard_clamp(window):
    t = window.end - 1e-12
    assert rate_ratio(window, t, guard=1e-6) == pytest.approx(2.01e6)


def test_rate_ratio_nonnegative_increasing_then_clamped(window):
    guard = 1e-4
    ts = np.linspace(window.start, window.end - 2 * guard, 300)
    vals = [rate_ratio(window, t, guard) for t in ts]
    assert all(v >= 0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    clamped = rate_ratio(window, window.end - guard / 2, guard)
    assert clamped == pytest.approx(window.exponent / guard)


def test_rate_ratio_left_limit_binary_exact():
    # binary-exact window and offsets: equality must be exact, not approximate
    w = ScalingWindow(start=0.0, duration=0.25, exponent=2.01)
    for eps in (0.25 / 1024, 0.25 / 8192, 0.25 / 65536):
        assert rate_ratio(w, w.end - eps, guard=1e-9) == 2.01 / eps


def test_rate_ratio_left_limit_decimal_offsets(window):
    for frac in (1e-3, 1e-4, 1e-5):
        eps = frac * window.duration
        got = rate_ratio(window, window.end - eps, guard=1e-9)
        assert got == pytest.approx(window.exponent / eps, rel=1e-10)


def test_varsigma_clamped_matches_inside_and_saturates(window):
    guard = 1e-3
    t_in = window.end - 5 * guard
    assert varsigma(window, t_in, guard) == varsigma(window, t_in)
    sat = varsigma(window, window.end - guard / 10, guard)
    assert sat == pytest.approx((window.duration / guard) ** window.exponent)


def test_varsigma_saturates_instead_of_raising():
    # (T / guard)^h past the largest double is inf; below the least, 0.
    w = ScalingWindow(start=0.0, duration=0.2, exponent=200.0)
    assert varsigma(w, 0.1999, guard=1e-3) == np.inf
    assert varsigma(ScalingWindow(0.0, 0.2, 2.01), 0.1, guard=1e300) == 0.0


def test_window_validation():
    with pytest.raises(DimensionMismatch):
        ScalingWindow(start=0.0, duration=0.0, exponent=2.01)
    with pytest.raises(DimensionMismatch):
        ScalingWindow(start=0.0, duration=1.0, exponent=2.0)


def test_cascade_stage_windows(cascade):
    # order 3, 0.2 s each: stage 3 = [0, 0.2), stage 2 = [0.2, 0.4), stage 1 = [0.4, 0.6)
    assert cascade.window(3).start == 0.0
    assert cascade.window(2).start == pytest.approx(0.2)
    assert cascade.window(1).start == pytest.approx(0.4)
    assert cascade.t_star == pytest.approx(0.6)


def test_cascade_boundaries_bitwise_consistent(cascade):
    # a window's end is the next window's start, as the same float
    for k in range(cascade.order, 1, -1):
        assert cascade.window(k).end == cascade.window(k - 1).start
    assert cascade.window(1).end == cascade.t_star
    assert cascade.boundaries()[0] == cascade.t0


def test_stage_windows_partition(cascade):
    rng = np.random.default_rng(5)
    for t in rng.uniform(cascade.t0, cascade.t_star, 200):
        owners = [
            k
            for k in range(1, cascade.order + 1)
            if cascade.window(k).start <= t < cascade.window(k).end
        ]
        assert len(owners) == 1


def test_stage_gain_before_window_is_zero(cascade):
    assert stage_gain(cascade, 1, 0.1, guard=1e-6) == 0.0


def test_stage_gain_inside_window(cascade):
    assert stage_gain(cascade, 3, 0.1, guard=1e-6) == pytest.approx(2.01 / 0.1)
    assert stage_gain(cascade, 3, 0.0, guard=1e-6) == pytest.approx(2.01 / 0.2)


def test_cascade_validation():
    with pytest.raises(DimensionMismatch):
        ptobs.CascadeSchedule(t0=0.0, stage_durations=(0.2, -0.1), exponent=2.01)
    with pytest.raises(DimensionMismatch):
        ptobs.CascadeSchedule(t0=0.0, stage_durations=(0.2,), exponent=1.5)
    with pytest.raises(DimensionMismatch):
        ptobs.CascadeSchedule(t0=0.0, stage_durations=(), exponent=2.01)
    for bad in (np.nan, np.inf):
        with pytest.raises(DimensionMismatch, match="finite"):
            ptobs.CascadeSchedule(t0=bad, stage_durations=(0.2,), exponent=2.01)
        with pytest.raises(DimensionMismatch, match="finite"):
            ptobs.CascadeSchedule(t0=0.0, stage_durations=(0.2, bad), exponent=2.01)
        with pytest.raises(DimensionMismatch, match="finite"):
            ptobs.CascadeSchedule(t0=0.0, stage_durations=(0.2,), exponent=bad)


def _varsigma_closed_form(w, t, guard=0.0):
    # The law in Python floats; guard 0 leaves it unclamped, as varsigma's default.
    if w.start <= t < w.end:
        try:
            return (w.duration / max(w.end - t, guard)) ** w.exponent
        except OverflowError:
            return np.inf
    return 1.0


def _rate_ratio_closed_form(w, t, guard):
    if w.start <= t < w.end:
        return w.exponent / max(w.end - t, guard)
    return 0.0


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-10.0, 10.0), st.floats(1e-3, 10.0), st.floats(2.01, 10.0), st.floats(-1.0, 2.0)
)
def test_varsigma_equals_closed_form_bitwise(start, duration, exponent, u):
    w = ScalingWindow(start=start, duration=duration, exponent=exponent)
    t = start + u * duration
    assert varsigma(w, t).hex() == _varsigma_closed_form(w, t).hex()


def _edge_time(w, guard, pick):
    # A time relative to w: a window fraction, or a named edge of the law.
    if isinstance(pick, float):
        return w.start + pick * w.duration
    return {"start": w.start, "end": w.end, "below-end": np.nextafter(w.end, -np.inf),
            "clamp": w.end - guard / 2, "nan": np.nan}[pick]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([ScalingWindow(0.0, 0.2, 2.01), ScalingWindow(-1.0, 0.25, 200.0),
                     ScalingWindow(1e3, 0.1, 3.5)]),
    st.sampled_from([0.0, 1e-9, 1e-3, 0.05, 1e300]),
    st.lists(st.one_of(st.floats(-0.5, 1.5), st.sampled_from(["start", "end", "below-end", "clamp", "nan"])),
             min_size=1, max_size=12),
)
def test_gain_law_on_an_array_is_the_scalar_law_per_element(w, guard, picks):
    # Window edges, the guard clamp, overflow (exponent 200), guard 1e300
    # (varsigma underflows to 0) and NaN t: each element is the scalar call,
    # and each scalar call the law in Python floats, bit for bit.
    t = np.array([_edge_time(w, guard, p) for p in picks])
    laws = [(varsigma, _varsigma_closed_form)]
    if guard > 0.0:
        laws.append((rate_ratio, _rate_ratio_closed_form))
    for law, closed_form in laws:
        scalars = [law(w, s, guard) for s in t.tolist()]
        assert [x.hex() for x in scalars] == [closed_form(w, s, guard).hex() for s in t.tolist()]
        for shape in (t.shape, (1, t.size)):
            got = law(w, t.reshape(shape), guard)
            assert got.shape == shape
            assert [x.hex() for x in got.ravel().tolist()] == [x.hex() for x in scalars]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([0.0, 1.0, -0.3, 1e5]),
    st.lists(st.one_of(st.just(1e-12), st.floats(1e-3, 10.0)), min_size=1, max_size=5),
)
def test_cascade_window_table_bitwise(t0, durations):
    sched = ptobs.CascadeSchedule(t0=t0, stage_durations=tuple(durations), exponent=2.01)
    sums = [t0]  # left to right: t0, t0 + d_n, (t0 + d_n) + d_{n-1}, ...
    for d in reversed(durations):
        sums.append(sums[-1] + d)
    bounds = sched.boundaries()
    assert [b.hex() for b in bounds] == [s.hex() for s in sums]
    assert sched.t_star.hex() == bounds[-1].hex()
    for k in range(1, len(durations) + 1):
        if k > 1:
            assert sched.window(k).end.hex() == sched.window(k - 1).start.hex()
