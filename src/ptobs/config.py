"""Experiment config files: a flat, sectioned key-value text format.

Grammar (one construct per line):

    # comment                blank lines and lines starting with # are skipped
    [section]                section header; dots allowed, e.g. [topology.2]
    key = value              value is everything after the first '=', trimmed

Vector values are whitespace-separated numbers, each read as Python's float()
reads it; matrix rows are one key each (adjacency_row_1, adjacency_row_2, ...),
and a matrix is parsed as one block (ConfigDocument.matrix).  Parsing records
the line number of every key so validation errors can point at the exact line,
a bad matrix row's included.  Serializing a parsed document and parsing it
again yields an equal document (comments are not kept).

Sections and keys:

    [leader]            order, input (zero | constant(c) | sine(a, w)),
                        input_bound, initial_state
    [topology.<j>]      followers, adjacency_row_<i> (i = 1..N), pinning
    [switching]         optional; common_h, and either
                        schedule = t:j t:j ...  or  period = <s> (>= dt) + cycle = j j ...
    [cascade]           t0, stage_durations, exponent
    [gains]             mode = explicit (alpha, beta, sigma), or mode = synthesize
                        (alpha_margin, beta_factor, sigma_factor: gains synthesized on load)
    [initial_estimates] row_<i> = n values (follower i's initial estimate)
    [sim]               dt, t_end, method, guard, tolerance, record_stride,
                        optional sign_smoothing
    [output]            directory, csv = on|off

A value that does not convert, a key its section does not hold, and a few
range checks no model can place (order, followers, period, non-finite
initial estimates), name the key's line.  Every other
check belongs to the model a section builds, and is reported under that
section: non-finite or out-of-range values for the leader, the cascade (t0,
stage durations, exponent), the switching signal (switch times, common_h),
the gains and the sim settings all fail the load.  Absent optional keys take
the model's own defaults.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InfeasibleTopology, NoSpanningTree
from .gain import CascadeSchedule
from .graph import DirectedTopology, TopologySequence
from .observer import GainMargins, LeaderModel, ObserverGains, input_by_name, synthesize_gains
from .sim import SimConfig

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_.]+)\]$")
_KEY_RE = re.compile(r"^[A-Za-z0-9_]+$")
_INPUT_RE = re.compile(r"^([a-z_]+)\s*(?:\(\s*([^)]*)\s*\))?$")

# The keys each section may hold, <i> running over the followers 1..N.  Keys of
# both gain modes and both schedule forms are allowed, so an override can switch.
_KEYS = {
    "leader": ("order", "input", "input_bound", "initial_state"),
    "topology.<j>": ("followers", "pinning", "adjacency_row_<i>"),
    "switching": ("common_h", "schedule", "period", "cycle"),
    "cascade": ("t0", "stage_durations", "exponent"),
    "gains": ("mode", "alpha", "beta", "sigma", "alpha_margin", "beta_factor", "sigma_factor"),
    "initial_estimates": ("row_<i>",),
    "sim": ("dt", "t_end", "method", "guard", "tolerance", "record_stride", "sign_smoothing"),
    "output": ("directory", "csv"),
}
_REQUIRED = object()  # default of a typed accessor whose key must be present


@dataclass
class ConfigDocument:
    """Parsed config text: ordered sections of key -> (value, line).

    The typed accessors (scalar, integer, choice, vector, matrix) report a
    value that does not convert at its line, or as the --set override it came
    from (line None); _section_errors reports what a model rejects under the
    section it was read from.
    """

    path: str = "<config>"
    sections: dict[str, dict[str, tuple[str, int | None]]] = field(default_factory=dict)

    def get(self, section: str, key: str, default: str | None = None) -> str | None:
        entry = self.sections.get(section, {}).get(key)
        return entry[0] if entry is not None else default

    def set(self, section: str, key: str, value: str, line: int | None = None):
        self.sections.setdefault(section, {})[key] = (value, line)

    def _fail(self, section: str, key: str, message: str):
        line = self.sections[section][key][1]
        where = self.path if line is not None else f"--set {section}.{key}"
        raise ConfigError(f"[{section}] {key}: {message}", where, line)

    def _convert(self, section: str, key: str, convert, expected: str, default=_REQUIRED):
        raw = self.get(section, key)
        if raw is None and default is not _REQUIRED:
            return default
        if raw is None:
            what = f"key '{key}' in section" if section in self.sections else "section"
            raise ConfigError(f"missing {what} [{section}]", self.path)
        try:
            return convert(raw)
        except ValueError:
            self._fail(section, key, f"expected {expected}, got '{raw}'")

    def scalar(self, section: str, key: str, default=_REQUIRED) -> float:
        return self._convert(section, key, float, "a number", default)

    def integer(self, section: str, key: str, default=_REQUIRED) -> int:
        return self._convert(section, key, int, "an integer", default)

    def choice(self, section: str, key: str, options: tuple[str, ...], default=_REQUIRED) -> str:
        def member(raw: str) -> str:
            if raw not in options:
                raise ValueError(raw)
            return raw

        return self._convert(section, key, member, f"one of {options}", default)

    def vector(self, section: str, key: str, length: int) -> np.ndarray:
        vals = self._convert(
            section, key, lambda raw: np.array([float(tok) for tok in raw.split()]),
            "whitespace-separated numbers",
        )
        if vals.shape != (length,):
            self._fail(section, key, f"expected {length} values, got {vals.shape[0]}")
        return vals

    def matrix(self, section: str, keys: list[str], length: int) -> np.ndarray:
        """The rows `keys` of `section` as a (len(keys), length) array.

        One np.loadtxt call reads the whole block.  Its C reader converts each
        token with CPython's own string-to-double routine and accepts a subset
        of what float() accepts, so a block it reads holds the values `vector`
        would give.  Any block it cannot read whole (a missing or blank row,
        a token only float() takes, a row of the wrong length) is read again
        row by row by `vector`, which accepts or reports each row as it
        always has, at its own line or --set override.
        """
        raws = [self.get(section, key) for key in keys]
        if all(raw is not None and raw.strip() for raw in raws):  # loadtxt warns on blank input
            try:
                block = np.loadtxt(raws, comments=None, ndmin=2)
            except ValueError:
                pass
            else:
                if block.shape == (len(keys), length):
                    return block
        return np.vstack([self.vector(section, key, length) for key in keys])

    @contextmanager
    def _section_errors(self, section: str):
        """Report a model's validation error as a config error of `section`,
        located at the file and every --set override of that section.  The
        feasibility verdict (InfeasibleTopology, NoSpanningTree) passes as is."""
        try:
            yield
        except (ConfigError, InfeasibleTopology, NoSpanningTree):
            raise
        except Exception as exc:
            entries = self.sections.get(section, {})
            overrides = [f"--set {section}.{key}" for key, (_, line) in entries.items() if line is None]
            raise ConfigError(f"[{section}]: {exc}", ", ".join([self.path, *overrides])) from None


def parse_config(text: str, path: str = "<config>") -> ConfigDocument:
    doc = ConfigDocument(path=path)
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.match(line)
        if m:
            current = m.group(1)
            if current in doc.sections:
                raise ConfigError(f"duplicate section [{current}]", path, lineno)
            doc.sections[current] = {}
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value' or '[section]'", path, lineno)
        if current is None:
            raise ConfigError("key outside any section", path, lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"invalid key name '{key}'", path, lineno)
        if key in doc.sections[current]:
            raise ConfigError(f"duplicate key '{key}' in [{current}]", path, lineno)
        doc.sections[current][key] = (value.strip(), lineno)
    return doc


def load_config(path: str) -> ConfigDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path)) from None
    return parse_config(text, str(path))


def serialize_config(doc: ConfigDocument) -> str:
    lines = []
    for section, entries in doc.sections.items():
        lines.append(f"[{section}]")
        for key, (value, _) in entries.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def apply_overrides(doc: ConfigDocument, pairs: list[str]):
    """Apply --set overrides of the form section.key=value (last dot splits the key)."""
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override '{pair}' must look like section.key=value", doc.path)
        target, _, value = pair.partition("=")
        section, dot, key = target.strip().rpartition(".")
        if not dot or not section or not key:
            raise ConfigError(f"override '{pair}' must name a section.key path", doc.path)
        doc.set(section, key.strip(), value.strip())


def _parse_leader_input(doc: ConfigDocument):
    raw = doc._convert("leader", "input", str, "text")
    m = _INPUT_RE.match(raw)
    if not m:
        doc._fail("leader", "input", f"cannot parse input spec '{raw}'")
    params = []
    for tok in m.group(2).split(",") if m.group(2) else ():
        try:
            params.append(float(tok))
        except ValueError:
            doc._fail("leader", "input", f"bad parameter '{tok.strip()}' in '{raw}'")
    try:
        return input_by_name(m.group(1), *params)
    except Exception as exc:
        doc._fail("leader", "input", str(exc))


@dataclass(frozen=True)
class OutputOptions:
    directory: str
    write_csv: bool


@dataclass(frozen=True, eq=False)
class Experiment:
    """Everything a run needs, assembled and cross-validated from a config, gains resolved."""

    leader: LeaderModel
    sequence: TopologySequence
    sched: CascadeSchedule
    gains: ObserverGains  # as written, or synthesized from margins when the config loads
    margins: GainMargins | None  # None: explicit gains
    initial_estimates: np.ndarray
    sim: SimConfig
    output: OutputOptions
    document: ConfigDocument  # what it was built from, overrides applied

    @property
    def gains_mode(self) -> str:
        return "synthesize" if self.margins is not None else "explicit"


def _topology_indices(doc: ConfigDocument) -> list[int]:
    out = []
    for section in doc.sections:
        if section.startswith("topology."):
            suffix = section.split(".", 1)[1]
            if not suffix.isdigit() or int(suffix) < 1:
                raise ConfigError(f"bad topology index in [{section}]", doc.path)
            out.append(int(suffix))
        elif section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]", doc.path)
    if not out:
        raise ConfigError("no [topology.<j>] section found", doc.path)
    if sorted(out) != list(range(1, len(out) + 1)):
        raise ConfigError(
            f"topology sections must be numbered 1..p without gaps, got {sorted(out)}",
            doc.path,
        )
    return sorted(out)


def _check_keys(doc: ConfigDocument, N: int):
    """Reject the first key, in file order, that its section does not hold."""
    rows = [str(i) for i in range(1, N + 1)]
    for section, entries in doc.sections.items():
        keys = _KEYS["topology.<j>" if section.startswith("topology.") else section]
        known = {k.replace("<i>", i) for k in keys if "<i>" in k for i in rows}.union(keys)
        for key in entries:
            if key not in known:
                doc._fail(section, key, "unknown key")


def _read_topology(doc: ConfigDocument, section: str) -> DirectedTopology:
    count = doc.integer(section, "followers")
    if count < 1:
        doc._fail(section, "followers", "must be a positive integer")
    rows = min(count, len(doc.sections[section]) + 1)  # a larger count leaves one of these missing
    adjacency = doc.matrix(section, [f"adjacency_row_{i}" for i in range(1, rows + 1)], count)
    pinning = doc.vector(section, "pinning", count)
    with doc._section_errors(section):
        return DirectedTopology(adjacency=adjacency, pinning=pinning)


def _read_schedule(doc: ConfigDocument, sim: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """The [switching] schedule as switch times and integer topology indices:
    the t:index pairs as written, or t0 + i * period with cycle[i % len(cycle)]."""
    raw = doc.get("switching", "schedule")
    if raw is not None:
        times, indices = [], []
        for tok in raw.split():
            time_s, _, idx_s = tok.partition(":")
            try:
                times.append(float(time_s))
                indices.append(int(idx_s))
            except ValueError:
                doc._fail("switching", "schedule", f"expected t:index pairs, got '{tok}'")
        return np.array(times), np.array(indices)
    cycle = doc.get("switching", "cycle")
    if doc.get("switching", "period") is None or cycle is None:
        raise ConfigError(
            "[switching] needs either 'schedule' or both 'period' and 'cycle'", doc.path
        )
    period = doc.scalar("switching", "period")
    if not 0.0 < period < np.inf:
        doc._fail("switching", "period", "must be finite and positive")
    if period < sim.dt:  # it would only add grid points, and its schedule can fill memory
        doc._fail("switching", "period", f"must be at least sim.dt = {sim.dt:g}, got {period:g}")
    try:
        indices = np.array([int(tok) for tok in cycle.split()])
    except ValueError:
        doc._fail("switching", "cycle", f"expected integer indices, got '{cycle}'")
    if not indices.size:
        doc._fail("switching", "cycle", "must list at least one topology index")
    # t0 + i * period rounds monotonically in i, so the entries below t_end are
    # a prefix; with period > 2 ulp(t) (SimConfig's dt bound) none lies past
    # index span / period + 3.
    count = int((sim.t_end - sim.t0) / period) + 4
    try:
        with np.errstate(over="ignore"):  # an entry that overflows lies past t_end
            times = sim.t0 + np.arange(count, dtype=float) * period
    except MemoryError:
        doc._fail("switching", "period", f"plans {count:g} switches, too many to hold in memory")
    times = times[: times.searchsorted(sim.t_end)]
    # np.tile repeats whole cycles in one copy (np.resize concatenates one array per cycle).
    return times, np.tile(indices, -(-times.size // indices.size))[: times.size]


def build_experiment(doc: ConfigDocument) -> Experiment:
    """Assemble and validate the experiment described by a parsed config."""
    order = doc.integer("leader", "order")
    if order < 1:
        doc._fail("leader", "order", "must be >= 1")
    with doc._section_errors("leader"):
        leader = LeaderModel(
            order=order,
            input_fn=_parse_leader_input(doc),
            input_bound=doc.scalar("leader", "input_bound"),
            initial_state=doc.vector("leader", "initial_state", order),
        )

    indices = _topology_indices(doc)
    topologies = tuple(_read_topology(doc, f"topology.{j}") for j in indices)
    N = topologies[0].follower_count
    for j, topo in zip(indices, topologies):
        if topo.follower_count != N:
            raise ConfigError(
                f"[topology.{j}]: follower count {topo.follower_count} differs from {N}",
                doc.path,
            )
    _check_keys(doc, N)

    t0 = doc.scalar("cascade", "t0")
    with doc._section_errors("cascade"):
        sched = CascadeSchedule(
            t0=t0,
            stage_durations=tuple(doc.vector("cascade", "stage_durations", order)),
            exponent=doc.scalar("cascade", "exponent", 2.01),
        )

    with doc._section_errors("sim"):
        sim_cfg = SimConfig(
            t0=t0,
            dt=doc.scalar("sim", "dt"),
            t_end=doc.scalar("sim", "t_end"),
            method=doc.choice("sim", "method", ("euler", "rk4"), SimConfig.method),
            guard=doc.scalar("sim", "guard", SimConfig.guard),
            convergence_tolerance=doc.scalar("sim", "tolerance", SimConfig.convergence_tolerance),
            record_stride=doc.integer("sim", "record_stride", SimConfig.record_stride),
            sign_smoothing=doc.scalar("sim", "sign_smoothing", None),
        )

    common_H = None
    times, indices = [t0], [1]
    if "switching" in doc.sections:
        if doc.get("switching", "common_h") is not None:
            common_H = doc.vector("switching", "common_h", N)
        times, indices = _read_schedule(doc, sim_cfg)
        if len(times) == 0 or times[0] != t0:
            raise ConfigError("[switching]: schedule must start at the cascade t0", doc.path)
    elif len(topologies) > 1:
        raise ConfigError("several topologies defined but no [switching] section", doc.path)
    with doc._section_errors("switching" if "switching" in doc.sections else "topology.1"):
        sequence = TopologySequence(topologies, times, indices, common_H)

    mode = doc.choice("gains", "mode", ("explicit", "synthesize"))
    margins = None
    with doc._section_errors("gains"):
        if mode == "explicit":
            gains = ObserverGains(
                alpha=doc.scalar("gains", "alpha"),
                beta=doc.scalar("gains", "beta"),
                sigma=doc.scalar("gains", "sigma"),
            )
        else:
            margins = GainMargins(
                alpha=doc.scalar("gains", "alpha_margin"),
                beta_factor=doc.scalar("gains", "beta_factor", GainMargins.beta_factor),
                sigma_factor=doc.scalar("gains", "sigma_factor", GainMargins.sigma_factor),
            )
            gains = synthesize_gains(sequence.analyses(), leader.input_bound, margins)

    estimates = doc.matrix("initial_estimates", [f"row_{i}" for i in range(1, N + 1)], order)
    finite = np.isfinite(estimates).all(axis=1)
    if not finite.all():
        doc._fail("initial_estimates", f"row_{np.argmin(finite) + 1}", "values must be finite")
    output = OutputOptions(
        directory=doc.get("output", "directory", "out"),
        write_csv=doc.choice("output", "csv", ("on", "off"), "on") == "on",
    )

    return Experiment(
        leader=leader,
        sequence=sequence,
        sched=sched,
        gains=gains,
        margins=margins,
        initial_estimates=estimates,
        sim=sim_cfg,
        output=output,
        document=doc,
    )


def load_experiment(path: str, overrides: list[str] | None = None) -> Experiment:
    doc = load_config(path)
    if overrides:
        apply_overrides(doc, overrides)
    return build_experiment(doc)
