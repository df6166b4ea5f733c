"""Experiment config files: a flat, sectioned key-value text format.

Grammar (one construct per line):

    # comment                blank lines and lines starting with # are skipped
    [section]                section header; dots allowed, e.g. [topology.2]
    key = value              value is everything after the first '=', trimmed

Vector values are whitespace-separated numbers; matrix rows are one key each
(adjacency_row_1, adjacency_row_2, ...).  Parsing records the line number of
every key so validation errors can point at the exact line.  Serializing a
parsed document and parsing it again yields an equal document (comments are
not kept).

Sections and keys:

    [leader]            order, input (zero | constant(c) | sine(a, w)),
                        input_bound, initial_state
    [topology.<j>]      followers, adjacency_row_<i> (i = 1..N), pinning
    [switching]         optional; common_h, and either
                        schedule = t:j t:j ...  or  period = <s> + cycle = j j ...
    [cascade]           t0, stage_durations, exponent
    [gains]             mode = explicit (alpha, beta, sigma)
                        or mode = synthesize (alpha_margin, beta_factor, sigma_factor)
    [initial_estimates] row_<i> = n values (follower i's initial estimate)
    [sim]               dt, t_end, method, guard, tolerance, record_stride,
                        optional sign_smoothing
    [output]            directory, csv = on|off
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InfeasibleTopology
from .gain import CascadeSchedule
from .graph import DirectedTopology, TopologySequence
from .observer import GainMargins, LeaderModel, ObserverGains, input_by_name
from .sim import SimConfig

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_.]+)\]$")
_KEY_RE = re.compile(r"^[A-Za-z0-9_]+$")

_KNOWN_SECTIONS = {"leader", "switching", "cascade", "gains", "initial_estimates", "sim", "output"}


@dataclass
class ConfigDocument:
    """Parsed config text: ordered sections of key -> (value, line)."""

    path: str = "<config>"
    sections: dict[str, dict[str, tuple[str, int]]] = field(default_factory=dict)

    def get(self, section: str, key: str, default: str | None = None) -> str | None:
        entry = self.sections.get(section, {}).get(key)
        return entry[0] if entry is not None else default

    def line_of(self, section: str, key: str) -> int | None:
        entry = self.sections.get(section, {}).get(key)
        return entry[1] if entry is not None else None

    def require(self, section: str, key: str) -> str:
        if section not in self.sections:
            raise ConfigError(f"missing section [{section}]", self.path)
        value = self.get(section, key)
        if value is None:
            raise ConfigError(f"missing key '{key}' in section [{section}]", self.path)
        return value

    def set(self, section: str, key: str, value: str, line: int = 0):
        self.sections.setdefault(section, {})[key] = (value, line)


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
        doc.set(section, key.strip(), value.strip(), line=0)


# ---------------------------------------------------------------------------
# Typed accessors: every conversion failure points at the config line.


class _Reader:
    def __init__(self, doc: ConfigDocument):
        self.doc = doc

    def _fail(self, section: str, key: str, message: str):
        raise ConfigError(
            f"[{section}] {key}: {message}", self.doc.path, self.doc.line_of(section, key)
        )

    def scalar(self, section: str, key: str, default: float | None = None) -> float:
        raw = self.doc.get(section, key)
        if raw is None:
            if default is not None:
                return default
            raise ConfigError(f"missing key '{key}' in section [{section}]", self.doc.path)
        try:
            return float(raw)
        except ValueError:
            self._fail(section, key, f"expected a number, got '{raw}'")

    def integer(self, section: str, key: str, default: int | None = None) -> int:
        raw = self.doc.get(section, key)
        if raw is None:
            if default is not None:
                return default
            raise ConfigError(f"missing key '{key}' in section [{section}]", self.doc.path)
        try:
            return int(raw)
        except ValueError:
            self._fail(section, key, f"expected an integer, got '{raw}'")

    def vector(self, section: str, key: str, length: int | None = None) -> np.ndarray:
        raw = self.doc.require(section, key)
        try:
            vals = np.array([float(tok) for tok in raw.split()])
        except ValueError:
            self._fail(section, key, f"expected whitespace-separated numbers, got '{raw}'")
        if length is not None and vals.shape != (length,):
            self._fail(section, key, f"expected {length} values, got {vals.shape[0]}")
        return vals

    def choice(self, section: str, key: str, options: tuple[str, ...], default: str | None = None) -> str:
        raw = self.doc.get(section, key, default)
        if raw is None:
            raise ConfigError(f"missing key '{key}' in section [{section}]", self.doc.path)
        if raw not in options:
            self._fail(section, key, f"expected one of {options}, got '{raw}'")
        return raw

    def flag(self, section: str, key: str, default: bool) -> bool:
        raw = self.doc.get(section, key)
        if raw is None:
            return default
        if raw not in ("on", "off"):
            self._fail(section, key, f"expected on or off, got '{raw}'")
        return raw == "on"


_INPUT_RE = re.compile(r"^([a-z_]+)\s*(?:\(\s*([^)]*)\s*\))?$")


def _parse_leader_input(reader: _Reader):
    raw = reader.doc.require("leader", "input")
    m = _INPUT_RE.match(raw)
    if not m:
        reader._fail("leader", "input", f"cannot parse input spec '{raw}'")
    name = m.group(1)
    params = []
    if m.group(2):
        for tok in m.group(2).split(","):
            try:
                params.append(float(tok))
            except ValueError:
                reader._fail("leader", "input", f"bad parameter '{tok.strip()}' in '{raw}'")
    try:
        fn = input_by_name(name, *params)
    except Exception as exc:
        reader._fail("leader", "input", str(exc))
    return fn


@dataclass(frozen=True)
class OutputOptions:
    directory: str
    write_csv: bool


@dataclass(frozen=True)
class Experiment:
    """Everything a run needs, assembled and cross-validated from a config."""

    leader: LeaderModel
    sequence: TopologySequence
    sched: CascadeSchedule
    gains_mode: str  # "explicit" | "synthesize"
    gains: ObserverGains | None
    margins: GainMargins | None
    initial_estimates: np.ndarray
    sim: SimConfig
    output: OutputOptions


def _topology_indices(doc: ConfigDocument) -> list[int]:
    out = []
    for section in doc.sections:
        if section.startswith("topology."):
            suffix = section.split(".", 1)[1]
            if not suffix.isdigit() or int(suffix) < 1:
                raise ConfigError(f"bad topology index in [{section}]", doc.path)
            out.append(int(suffix))
        elif section not in _KNOWN_SECTIONS:
            raise ConfigError(f"unknown section [{section}]", doc.path)
    if not out:
        raise ConfigError("no [topology.<j>] section found", doc.path)
    if sorted(out) != list(range(1, len(out) + 1)):
        raise ConfigError(
            f"topology sections must be numbered 1..p without gaps, got {sorted(out)}",
            doc.path,
        )
    return sorted(out)


def _read_topology(reader: _Reader, section: str) -> DirectedTopology:
    doc = reader.doc
    count = reader.integer(section, "followers")
    if count < 1:
        reader._fail(section, "followers", "must be a positive integer")
    rows = []
    for i in range(1, count + 1):
        key = f"adjacency_row_{i}"
        if doc.get(section, key) is None:
            raise ConfigError(f"missing key '{key}' in section [{section}]", doc.path)
        rows.append(reader.vector(section, key, count))
    pinning = reader.vector(section, "pinning", count)
    try:
        return DirectedTopology(adjacency=np.vstack(rows), pinning=pinning)
    except Exception as exc:
        raise ConfigError(f"[{section}]: {exc}", doc.path) from None


def _read_schedule(reader: _Reader, t0: float, t_end: float) -> list[tuple[float, int]]:
    doc = reader.doc
    raw = doc.get("switching", "schedule")
    if raw is not None:
        pairs = []
        for tok in raw.split():
            time_s, colon, idx_s = tok.partition(":")
            try:
                pairs.append((float(time_s), int(idx_s)))
            except ValueError:
                colon = ""
            if not colon:
                reader._fail("switching", "schedule", f"expected t:index pairs, got '{tok}'")
        return pairs
    period = doc.get("switching", "period")
    cycle = doc.get("switching", "cycle")
    if period is None or cycle is None:
        raise ConfigError(
            "[switching] needs either 'schedule' or both 'period' and 'cycle'", doc.path
        )
    period_s = reader.scalar("switching", "period")
    if period_s <= 0:
        reader._fail("switching", "period", "must be positive")
    try:
        indices = [int(tok) for tok in cycle.split()]
    except ValueError:
        reader._fail("switching", "cycle", f"expected integer indices, got '{cycle}'")
    if not indices:
        reader._fail("switching", "cycle", "must list at least one topology index")
    pairs = []
    i = 0
    t = t0
    while t < t_end:
        pairs.append((t, indices[i % len(indices)]))
        i += 1
        t = t0 + i * period_s
    return pairs


def build_experiment(doc: ConfigDocument) -> Experiment:
    """Assemble and validate the experiment described by a parsed config."""
    reader = _Reader(doc)

    order = reader.integer("leader", "order")
    if order < 1:
        reader._fail("leader", "order", "must be >= 1")
    input_fn = _parse_leader_input(reader)
    input_bound = reader.scalar("leader", "input_bound")
    initial_state = reader.vector("leader", "initial_state", order)
    try:
        leader = LeaderModel(
            order=order, input_fn=input_fn, input_bound=input_bound, initial_state=initial_state
        )
    except Exception as exc:
        raise ConfigError(f"[leader]: {exc}", doc.path) from None

    indices = _topology_indices(doc)
    topologies = tuple(_read_topology(reader, f"topology.{j}") for j in indices)
    N = topologies[0].follower_count
    for j, topo in zip(indices, topologies):
        if topo.follower_count != N:
            raise ConfigError(
                f"[topology.{j}]: follower count {topo.follower_count} differs from {N}",
                doc.path,
            )

    t0 = reader.scalar("cascade", "t0")
    durations = reader.vector("cascade", "stage_durations", order)
    exponent = reader.scalar("cascade", "exponent", default=2.01)
    try:
        sched = CascadeSchedule(t0=t0, stage_durations=tuple(durations), exponent=exponent)
    except Exception as exc:
        raise ConfigError(f"[cascade]: {exc}", doc.path) from None

    dt = reader.scalar("sim", "dt")
    t_end = reader.scalar("sim", "t_end")
    method = reader.choice("sim", "method", ("euler", "rk4"), default="rk4")
    guard = reader.scalar("sim", "guard", default=10.0 * dt)
    tolerance = reader.scalar("sim", "tolerance", default=0.01)
    stride = reader.integer("sim", "record_stride", default=10)
    smoothing = None
    if doc.get("sim", "sign_smoothing") is not None:
        smoothing = reader.scalar("sim", "sign_smoothing")
        if not smoothing > 0:
            reader._fail("sim", "sign_smoothing", "must be positive when given")
    try:
        sim_cfg = SimConfig(
            t0=t0,
            t_end=t_end,
            dt=dt,
            method=method,
            guard=guard,
            sign_smoothing=smoothing,
            record_stride=stride,
            convergence_tolerance=tolerance,
        )
    except Exception as exc:
        raise ConfigError(f"[sim]: {exc}", doc.path) from None

    common_H = None
    if "switching" in doc.sections:
        if doc.get("switching", "common_h") is not None:
            common_H = reader.vector("switching", "common_h", N)
        schedule = _read_schedule(reader, t0, t_end)
        if not schedule or schedule[0][0] != t0:
            raise ConfigError("[switching]: schedule must start at the cascade t0", doc.path)
    else:
        if len(topologies) > 1:
            raise ConfigError(
                "several topologies defined but no [switching] section", doc.path
            )
        schedule = [(t0, 1)]
    if len(topologies) > 1 and common_H is None:
        raise ConfigError(
            "[switching]: common_h is required when switching over several topologies",
            doc.path,
        )
    try:
        sequence = TopologySequence(
            topologies=topologies, schedule=tuple(schedule), common_H=common_H
        )
    except InfeasibleTopology:
        raise
    except Exception as exc:
        raise ConfigError(f"[switching]: {exc}", doc.path) from None

    mode = reader.choice("gains", "mode", ("explicit", "synthesize"))
    gains = None
    margins = None
    if mode == "explicit":
        try:
            gains = ObserverGains(
                alpha=reader.scalar("gains", "alpha"),
                beta=reader.scalar("gains", "beta"),
                sigma=reader.scalar("gains", "sigma"),
                provenance="user",
            )
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"[gains]: {exc}", doc.path) from None
    else:
        try:
            margins = GainMargins(
                alpha=reader.scalar("gains", "alpha_margin"),
                beta_factor=reader.scalar("gains", "beta_factor", default=1.0),
                sigma_factor=reader.scalar("gains", "sigma_factor", default=1.0),
            )
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"[gains]: {exc}", doc.path) from None

    rows = []
    for i in range(1, N + 1):
        key = f"row_{i}"
        if doc.get("initial_estimates", key) is None:
            raise ConfigError(
                f"missing key '{key}' in section [initial_estimates]", doc.path
            )
        rows.append(reader.vector("initial_estimates", key, order))
    estimates = np.vstack(rows)

    output = OutputOptions(
        directory=doc.get("output", "directory", "out"),
        write_csv=reader.flag("output", "csv", True),
    )

    return Experiment(
        leader=leader,
        sequence=sequence,
        sched=sched,
        gains_mode=mode,
        gains=gains,
        margins=margins,
        initial_estimates=estimates,
        sim=sim_cfg,
        output=output,
    )


def load_experiment(path: str, overrides: list[str] | None = None) -> Experiment:
    doc = load_config(path)
    if overrides:
        apply_overrides(doc, overrides)
    return build_experiment(doc)
