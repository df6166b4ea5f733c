"""In-memory spans recorded from outside ptobs, for the traced benchmark run.

`patched()` swaps selected ptobs module attributes for wrappers that record
one span per call and puts the originals back on exit.  ptobs modules use
`from .x import y`, so each wrapper goes on the name the caller looks up,
not on the defining module.  A span holds its name, start, end and parent
span; self time is a span's duration minus the time its direct children
cover.  Spans stay in compact arrays while the benchmark runs and are
written out once, at the end.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

import ptobs.cli
import ptobs.graph
import ptobs.observer
import ptobs.sim
from ptobs.graph import TopologySequence

# (owner, attribute, span name).  Callers listed by the module whose global
# they read at call time; several entry points may share one span name.
TARGETS = (
    (ptobs.observer, "stage_gain", "gain.stage_gain"),
    (ptobs.observer, "local_errors", "observer.local_errors"),
    (ptobs.sim, "dpto_rhs", "observer.dpto_rhs"),
    (ptobs.sim, "leader_rhs", "observer.leader_rhs"),
    (ptobs.sim, "local_errors", "observer.local_errors"),
    (ptobs.sim, "decay_budget", "sim.decay_budget"),
    (ptobs.sim, "detect_convergence", "sim.detect_convergence"),
    (ptobs.cli, "run_sim", "sim.run"),
    (ptobs.cli, "build_analysis", "graph.analysis"),
    (ptobs.cli, "mirror_with_H", "graph.analysis"),
    (ptobs.cli, "has_spanning_tree", "graph.has_spanning_tree"),
    (ptobs.cli, "write_trace", "trace.write_trace"),
    (ptobs.cli, "read_trace", "trace.read_trace"),
    (ptobs.cli, "render_error_plot", "svgplot.render_error_plot"),
    (ptobs.cli, "load_experiment", "config.load_experiment"),
    (ptobs.graph, "build_analysis", "graph.analysis"),
    (ptobs.graph, "mirror_with_H", "graph.analysis"),
    (ptobs.graph, "min_eig_symmetric", "graph.min_eig_symmetric"),
    (ptobs.graph, "has_spanning_tree", "graph.has_spanning_tree"),
    (TopologySequence, "active_index", "graph.active_index"),
    (TopologySequence, "analyses", "graph.analyses"),
)


class Tracer:
    """Span store shared by every wrapper it hands out."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def clear(self):
        # Cleared in place: the wrappers hold these arrays.
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]
        self._stack[:] = [-1]

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        names, parents, starts, ends, stack = (
            self._name, self._parent, self._start, self._end, self._stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copy of the spans recorded since the last clear()."""
        return {
            "name": np.array(self._name, dtype=np.int32),
            "parent": np.array(self._parent, dtype=np.int32),
            "start": np.array(self._start, dtype=float),
            "end": np.array(self._end, dtype=float),
        }


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install a wrapper on every TARGETS entry; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name in TARGETS:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def summarize(spans: dict[str, np.ndarray], names: list[str]) -> dict[str, float]:
    """Per span name: `<name>.calls`, `<name>.s` (total) and `<name>.self_s`."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    self_time = dur - child_time
    k = len(names)
    calls = np.bincount(spans["name"], minlength=k)
    total = np.bincount(spans["name"], weights=dur, minlength=k)
    own = np.bincount(spans["name"], weights=self_time, minlength=k)
    out: dict[str, float] = {}
    for nid, name in enumerate(names):
        out[f"{name}.calls"] = int(calls[nid])
        out[f"{name}.s"] = float(total[nid])
        out[f"{name}.self_s"] = float(own[nid])
    return out
