"""Property tests: the event grid and the switch lookup against their plain scans,
the event grid far from t = 0, the step plan's topologies and record points,
sim.run's step grid against a per-segment one, and the exact symmetry of the
mirror matrix."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ptobs
import ptobs.sim
from ptobs.errors import DimensionMismatch, SingularLaplacian
from ptobs.sim import _EVENT_MERGE_TOL, _event_grid, _step_plan
from conftest import schedule_pairs
from oracles import segment_steps

_TOPO = ptobs.DirectedTopology(adjacency=[[0.0]], pinning=[1.0])

# Offsets that land a switch on, just inside, or just outside the merge
# tolerance of a stage boundary or of another switch.
_NEAR = st.sampled_from([0.0, 5e-13, -5e-13, 1e-12, -1e-12, 1.5e-12, -1.5e-12, 3e-12])


def _scan_event_grid(cfg, sched, topos):
    # The quadratic scan the sorted merge replaced: each candidate is compared
    # against every event accepted so far.  Also returns the schedule with
    # each in-range switch moved to the event it became or merged into: the
    # nearest accepted event within the tolerance, the earlier one on a tie.
    events, moved = [], []

    def add(t):
        if not cfg.t0 <= t <= cfg.t_end:
            return None
        near = [e for e in events if abs(t - e) <= _EVENT_MERGE_TOL]
        if near:
            return min(near, key=lambda e: (abs(t - e), e))
        events.append(t)
        return t

    for b in sched.boundaries():
        add(b)
    add(cfg.t0)
    add(cfg.t_end)
    for t, j in schedule_pairs(topos):
        e = add(t)
        if e is not None:
            moved.append((e, j))
    return sorted(events), moved


def _switching(t0, times):
    # Topology 1 from t0, then 2, 1, 2, ... at the sorted switch times.
    schedule = [(t0, 1)] + [(t, 1 + i % 2) for i, t in enumerate(times, start=1)]
    return ptobs.TopologySequence(topologies=(_TOPO, _TOPO), schedule=tuple(schedule), common_H=[1.0])


def _cluster_case(times):
    sched = ptobs.CascadeSchedule(t0=0.0, stage_durations=(0.1,), exponent=2.01)
    return ptobs.SimConfig(t0=0.0, t_end=1.0, dt=1e-3), sched, _switching(0.0, times)


def _scan_active_index(schedule, t):
    idx = schedule[0][1]
    for time, j in schedule:
        if time <= t:
            idx = j
        else:
            break
    return idx


@st.composite
def _schedules(draw):
    t0 = draw(st.sampled_from([0.0, 1.0, -0.3]))
    durations = draw(
        st.lists(
            st.one_of(st.floats(1e-3, 1.0), st.sampled_from([0.1, 0.2, 1e-12, 4e-13])),
            min_size=1,
            max_size=4,
        )
    )
    sched = ptobs.CascadeSchedule(t0=t0, stage_durations=tuple(durations), exponent=2.01)
    anchors = sched.boundaries()
    near_anchor = st.builds(lambda a, d: a + d, st.sampled_from(anchors), _NEAR)
    t_end = draw(st.one_of(near_anchor, st.floats(t0 + 1e-3, t0 + 4.0)))
    if not t_end > t0:
        t_end = sched.t_star + 1.0
    raw = draw(
        st.lists(st.one_of(near_anchor, st.floats(t0, t0 + 5.0)), max_size=25)
    )
    # Clusters: some switches get a neighbour within the tolerance.
    extra = [t + d for t, d in zip(raw, draw(st.lists(_NEAR, max_size=len(raw))))]
    times = sorted({t for t in raw + extra if t > t0})
    seq = _switching(t0, times)
    cfg = ptobs.SimConfig(t0=t0, t_end=t_end, dt=1e-3)
    return cfg, sched, seq


@st.composite
def _long_schedules(draw):
    # 100-300 periodic switches as the config builds them (t0 + i * period),
    # some moved within 1.5e-12 of a stage boundary, some with a neighbour
    # within the merge tolerance (clusters); a coarser dt keeps the scans short.
    t0 = draw(st.sampled_from([0.0, 1.0, -0.3]))
    count = draw(st.integers(100, 300))
    period = draw(st.sampled_from([0.005, 0.01, 0.0137, 0.02]))
    durations = draw(
        st.lists(
            st.one_of(st.floats(1e-2, 1.0), st.sampled_from([0.1, 0.2, 0.37, 1e-12])),
            min_size=1,
            max_size=4,
        )
    )
    sched = ptobs.CascadeSchedule(t0=t0, stage_durations=tuple(durations), exponent=2.01)
    periodic = [t0 + i * period for i in range(1, count + 1)]
    near_anchor = st.builds(lambda a, d: a + d, st.sampled_from(sched.boundaries()), _NEAR)
    moved = draw(st.lists(near_anchor, max_size=10))
    picks = draw(st.lists(st.tuples(st.integers(0, count - 1), _NEAR), max_size=30))
    clustered = [periodic[i] + d for i, d in picks]
    times = sorted({t for t in periodic + moved + clustered if t > t0})
    seq = _switching(t0, times)
    span = count * period * draw(st.sampled_from([0.5, 1.0, 1.1]))
    t_end = draw(st.one_of(near_anchor, st.just(t0 + span)))
    if not t_end > t0:
        t_end = t0 + span
    cfg = ptobs.SimConfig(t0=t0, t_end=t_end, dt=1e-2)
    return cfg, sched, seq


@settings(max_examples=300, deadline=None)
@given(st.one_of(_schedules(), _long_schedules()))
# Clusters at the stage boundary 0.1 (1e-12 is the merge tolerance): switch
# k - 1 merges forward into the boundary, which lies past s[k] ...
@example(_cluster_case([0.1 - 1e-12, 0.1 - 0.7e-12, 0.3]))
# ... the second of three merges into the first, the third into its event ...
@example(_cluster_case([0.5, 0.5 + 0.4e-12, 0.5 + 0.9e-12, 0.7]))
# ... and s[k] is 2**-40 from both the previous switch's event and the
# boundary (exact differences): the earlier event wins.
@example(_cluster_case([0.1 - 2 * 2**-40, 0.1 - 2**-40, 0.3]))
def test_event_grid_equals_quadratic_scan(case):
    cfg, sched, seq = case
    events, active = _event_grid(cfg, sched, seq)
    expected, moved = _scan_event_grid(cfg, sched, seq)
    assert events.tolist() == expected
    assert [j + 1 for j in active.tolist()] == [_scan_active_index(moved, e) for e in expected]


@settings(max_examples=300, deadline=None)
@given(st.one_of(_schedules(), _long_schedules()))
def test_step_plan_topology_and_records(case):
    cfg, sched, seq = case
    grid, topo, rec = _step_plan(cfg, sched, seq)
    events, moved = _scan_event_grid(cfg, sched, seq)
    # Every point (so every step's start and every sample) runs under the
    # schedule's topology once each switch is moved to the event it merged into.
    for t, j in zip(grid.tolist(), topo.tolist()):
        assert j + 1 == _scan_active_index(moved, t)
    times = grid[rec]
    assert np.all(np.diff(times) > 0.0)
    assert set(events) <= set(times.tolist())


@settings(max_examples=200, deadline=None)
@given(_schedules(), st.lists(st.floats(-1.0, 7.0), max_size=20))
def test_active_index_equals_linear_scan(case, probes):
    _, _, seq = case
    switch_times = seq.switch_times.tolist()
    # Probe each switch time exactly and at its float neighbours as well.
    probes = probes + switch_times
    probes += [float(np.nextafter(t, -np.inf)) for t in switch_times]
    probes += [float(np.nextafter(t, np.inf)) for t in switch_times]
    for t in probes:
        assert seq.active_index(t) == _scan_active_index(schedule_pairs(seq), t)


@st.composite
def _far_schedules(draw):
    # Around t = 1e5 one ulp of t is 1.5e-11, above the 1e-12 absolute merge
    # tolerance, so near-duplicate events are a few ulps apart, not 1e-12.
    t0 = 1e5 + draw(st.sampled_from([0.0, 0.3, -0.7]))
    ulp = math.ulp(t0)
    durations = draw(
        st.lists(
            st.one_of(st.sampled_from([0.1, 0.2, 0.3]), st.floats(1e-3, 1.0)),
            min_size=1,
            max_size=4,
        )
    )
    sched = ptobs.CascadeSchedule(t0=t0, stage_durations=tuple(durations), exponent=2.01)
    near_anchor = st.builds(
        lambda a, k: a + k * ulp, st.sampled_from(sched.boundaries()), st.integers(-6, 6)
    )
    t_end = draw(st.one_of(near_anchor, st.floats(t0 + 1e-2, t0 + 4.0)))
    if not t_end > t0:
        t_end = sched.t_star + 1.0
    # Periodic switching as the config builds it (t0 + i * period), plus
    # switches a few ulps from the stage boundaries and anywhere in between.
    period = draw(st.sampled_from([0.05, 0.1, 0.2]))
    periodic = [t0 + i * period for i in range(1, draw(st.integers(0, 40)))]
    raw = draw(st.lists(st.one_of(near_anchor, st.floats(t0, t0 + 5.0)), max_size=15))
    times = sorted({t for t in periodic + raw if t > t0})
    seq = _switching(t0, times)
    cfg = ptobs.SimConfig(t0=t0, t_end=t_end, dt=draw(st.sampled_from([1e-3, 1e-2])))
    return cfg, sched, seq


def _halving_case():
    # Below t = -2048 the merge tolerance is 4 ulp = 1.8e-12, above it 1e-12.
    # The first switch merges forward into the boundary b; the second, between
    # them but more than its own tolerance from b, joins b too rather than
    # become an event 1.1e-12 before it.
    sched = ptobs.CascadeSchedule(t0=-2050.0, stage_durations=(2.0 + 1.4e-12,), exponent=2.01)
    b = sched.t_star
    cfg = ptobs.SimConfig(t0=-2050.0, t_end=-2046.0, dt=1e-3)
    return cfg, sched, _switching(-2050.0, [b - 1.7e-12, b - 1.1e-12])


@settings(max_examples=300, deadline=None)
@given(_far_schedules())
@example(_halving_case())
def test_event_grid_far_from_zero(case):
    cfg, sched, seq = case
    events = _event_grid(cfg, sched, seq)[0].tolist()
    tol = 4 * math.ulp(cfg.t0)
    # Every stage boundary in range is hit exactly; every switch is merged
    # into an event at most 4 ulps away.
    assert all(b in events for b in sched.boundaries() if cfg.t0 <= b <= cfg.t_end)
    for t in seq.switch_times.tolist():
        if cfg.t0 <= t <= cfg.t_end:
            assert min(abs(t - e) for e in events) <= tol
    # Events are more than the merge tolerance apart, and the steps the
    # integrator takes between them (sim.run's grid) all have positive length.
    for e1, e2 in zip(events, events[1:]):
        assert e2 - e1 > tol
        grid = e1 + np.arange(segment_steps(e1, e2, cfg.dt) + 1) * cfg.dt
        grid[-1] = e2
        assert np.all(np.diff(grid) > 0.0)
    # The whole step plan strictly increases and records every event.
    grid, _, rec = _step_plan(cfg, sched, seq)
    assert np.all(np.diff(grid) > 0.0)
    assert np.all(np.diff(grid[rec]) > 0.0)
    assert set(events) <= set(grid[rec].tolist())


def test_sim_config_rejects_dt_within_the_float_spacing_of_t():
    # At t = 1e5 one ulp is 1.5e-11: a dt of 1e-12 would plan zero-length
    # steps, so it is rejected, as is any dt up to twice that spacing.
    t0 = 1e5
    bound = 2.0 * math.ulp(t0 + 1e-10)
    for dt in (1e-12, math.ulp(t0), bound):
        with pytest.raises(DimensionMismatch, match=r"above 2 ulp\(t\)"):
            ptobs.SimConfig(t0=t0, t_end=t0 + 1e-10, dt=dt)
    ptobs.SimConfig(t0=t0, t_end=t0 + 1e-10, dt=float(np.nextafter(bound, np.inf)))
    # The spacing is taken at the larger |t|, so a negative t0 counts too.
    with pytest.raises(DimensionMismatch):
        ptobs.SimConfig(t0=-1e5, t_end=0.0, dt=1e-12)


@st.composite
def _off_grid_runs(draw):
    # Switch times sit strictly between multiples of dt (5-95 % of a step past
    # one), so every segment ends with a shortened step.
    t0 = draw(st.sampled_from([0.0, 0.3]))
    dt = draw(st.sampled_from([1e-2, 4e-3]))
    steps = draw(st.integers(20, 120))
    ticks = draw(st.lists(st.integers(0, steps - 2), min_size=1, max_size=12, unique=True))
    fracs = draw(st.lists(st.floats(0.05, 0.95), min_size=len(ticks), max_size=len(ticks)))
    times = sorted(t0 + (i + f) * dt for i, f in zip(ticks, fracs))
    schedule = [(t0, 1)] + [(t, 1 + i % 2) for i, t in enumerate(times, start=1)]
    topos = ptobs.TopologySequence(
        topologies=(_TOPO, ptobs.DirectedTopology(adjacency=[[0.0]], pinning=[2.0])),
        schedule=tuple(schedule),
        common_H=[1.0],
    )
    durations = tuple(draw(st.lists(st.floats(0.05, 0.4), min_size=1, max_size=3)))
    sched = ptobs.CascadeSchedule(t0=t0, stage_durations=durations, exponent=2.01)
    n = sched.order
    leader = ptobs.LeaderModel(
        order=n, input_fn=ptobs.input_by_name("zero"), input_bound=0.0,
        initial_state=[1.0] * n,
    )
    cfg = ptobs.SimConfig(
        t0=t0, t_end=t0 + steps * dt + draw(st.sampled_from([0.0, 0.3 * dt])), dt=dt,
        record_stride=1, method=draw(st.sampled_from(["rk4", "euler"])),
    )
    gains = ptobs.ObserverGains(alpha=1.0, beta=0.5, sigma=0.0)
    block = draw(st.sampled_from([1, 2, 7, 64]))
    return topos, leader, gains, sched, np.zeros((1, n)), cfg, block


@settings(max_examples=100, deadline=None)
@given(_off_grid_runs())
def test_step_grid_equals_per_segment_grid(case):
    *args, block = case
    topos, _, _, sched, _, cfg = args
    res = ptobs.run(*args)
    # The grid the per-segment loop built: e1 + arange(m + 1) * dt, last point e2.
    events = _event_grid(cfg, sched, topos)[0].tolist()
    expected = [events[0]]
    for e1, e2 in zip(events[:-1], events[1:]):
        grid = e1 + np.arange(segment_steps(e1, e2, cfg.dt) + 1) * cfg.dt
        grid[-1] = e2
        expected += grid[1:].tolist()
    assert np.array_equal(res.times, expected)
    # Gain blocks that span segment boundaries change nothing.
    with mock.patch.object(ptobs.sim, "_GAIN_BLOCK", block):
        small = ptobs.run(*args)
    for field in dataclasses.fields(res):
        a, b = getattr(res, field.name), getattr(small, field.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


_WEIGHT = st.floats(1e-2, 1e2)


@st.composite
def _reachable_digraphs(draw):
    # A random tree rooted at the leader (follower i hangs off the leader or
    # an earlier follower), extra edges, then a random follower order.
    n = draw(st.integers(1, 12))
    adjacency, pinning = np.zeros((n, n)), np.zeros(n)
    for i in range(n):
        parent = draw(st.integers(-1, i - 1))  # -1 = leader
        if parent < 0:
            pinning[i] = draw(_WEIGHT)
        else:
            adjacency[i, parent] = draw(_WEIGHT)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _WEIGHT)
    for i, j, w in draw(st.lists(pair, max_size=2 * n)):
        if i != j:
            adjacency[i, j] = w
    order = draw(st.permutations(range(n)))
    topo = ptobs.DirectedTopology(adjacency=adjacency[np.ix_(order, order)], pinning=pinning[order])
    eta = np.array(draw(st.lists(_WEIGHT, min_size=n, max_size=n)))
    return topo, eta


@settings(max_examples=200, deadline=None)
@given(_reachable_digraphs())
def test_mirror_is_exactly_symmetric(case):
    # diag(w) L0 and L0^T diag(w) are exact transposes, so no symmetrization
    # pass is needed: M equals its transpose bit for bit, for rho and for eta.
    topo, eta = case
    analyses = [ptobs.mirror_with_H(topo, eta)]
    try:
        analyses.append(ptobs.build_analysis(topo))
    except SingularLaplacian:  # a badly conditioned draw has no rho to test
        pass
    for a in analyses:
        assert np.array_equal(a.mirror, a.mirror.T)
