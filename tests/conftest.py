import importlib.util
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for oracles.py

import ptobs

# hypothesis imports libcst to write a failing example's patch, and that import
# raises a DeprecationWarning (mypy_extensions.TypedDict); under an "error"
# warnings filter it turns a reported failure into an INTERNALERROR.  Importing
# it here once, with the warning silenced, makes the later import a no-op.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import libcst  # noqa: F401
except ImportError:
    pass

REPO = Path(__file__).resolve().parent.parent
BUNDLED_CONFIG = REPO / "configs" / "triple_integrator_switching.cfg"


def perfbench_workloads():
    """perfbench/workloads.py (its config generators and overrides), imported
    from its file: perfbench is a directory of scripts, not a package."""
    name = "perfbench_workloads"
    if name not in sys.modules:  # registered first: its dataclasses look it up
        spec = importlib.util.spec_from_file_location(name, REPO / "perfbench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def traced_peak(fn):
    """fn() and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def schedule_pairs(seq):
    """A TopologySequence's stored switching signal as (time, index) pairs."""
    return tuple(zip(seq.switch_times.tolist(), seq.indices.tolist()))


# Reference experiment pieces (three followers, triple-integrator leader).
ETA = np.array([3.0, 5.0, 4.0])
INITIAL_ESTIMATES = np.array(
    [[0.4, 0.6, 0.3], [0.8, 0.5, 0.7], [0.6, 0.4, 0.5]]
)


@pytest.fixture(scope="session")
def digraph1():
    return ptobs.DirectedTopology(
        adjacency=[[0, 0, 1], [1, 0, 0], [0, 1, 0]], pinning=[1, 0, 0]
    )


@pytest.fixture(scope="session")
def digraph2():
    return ptobs.DirectedTopology(
        adjacency=[[0, 0, 0], [1, 0, 0], [1, 0, 0]], pinning=[1, 0, 0]
    )


@pytest.fixture(scope="session")
def sine_leader():
    return ptobs.LeaderModel(
        order=3,
        input_fn=ptobs.input_by_name("sine", 0.125, 0.5),
        input_bound=0.125,
        initial_state=[1.0, 0.0, 0.0],
    )


@pytest.fixture(scope="session")
def cascade():
    return ptobs.CascadeSchedule(t0=0.0, stage_durations=(0.2, 0.2, 0.2), exponent=2.01)


@pytest.fixture(scope="session")
def static_run(digraph1, sine_leader, cascade):
    """Time-invariant reference run: digraph 1 alone, synthesized gains."""
    analysis = ptobs.build_analysis(digraph1)
    gains = ptobs.synthesize_gains([analysis], 0.125, ptobs.GainMargins(alpha=1.05))
    cfg = ptobs.SimConfig(t0=0.0, t_end=0.7, dt=1e-4, guard=1e-3)
    result = ptobs.run(
        ptobs.TopologySequence.static(digraph1, 0.0),
        sine_leader,
        gains,
        cascade,
        INITIAL_ESTIMATES,
        cfg,
    )
    return analysis, gains, cfg, result
