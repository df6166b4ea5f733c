"""Trace CSV files: one row per recorded sample.

Columns: time, x0_1..x0_n, xt_i_k (global error of follower i on stage k,
row-major in i then k), psi_i_k (same layout), V_1..V_n, budget_active.
Numbers carry 17 significant digits so a binary64 value round-trips exactly;
separator is a comma, newline is LF, no locale formatting.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MalformedTrace
from .sim import TraceData


# Rows formatted per write: bounds the copy of the result the writer holds.
_CHUNK_ROWS = 256


def header_columns(N: int, n: int) -> list[str]:
    cols = ["time"]
    cols += [f"x0_{k}" for k in range(1, n + 1)]
    cols += [f"xt_{i}_{k}" for i in range(1, N + 1) for k in range(1, n + 1)]
    cols += [f"psi_{i}_{k}" for i in range(1, N + 1) for k in range(1, n + 1)]
    cols += [f"V_{k}" for k in range(1, n + 1)]
    cols.append("budget_active")
    return cols


def write_trace(result: TraceData, path: str):
    S, N, n = result.estimate_errors.shape
    cols = header_columns(N, n)
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        arrays = (result.times, result.leader_states, result.estimate_errors,
                  result.local_errors, result.lyapunov, result.decay_bound)
        for a in range(0, S, _CHUNK_ROWS):
            m = min(_CHUNK_ROWS, S - a)
            block = np.hstack([x[a : a + m].reshape(m, -1) for x in arrays])
            fh.write("".join(row % tuple(values) for values in block.tolist()))


def read_trace(path: str) -> TraceData:
    """Parse a trace CSV, recovering N and n from the header.

    Raises MalformedTrace for an unreadable file, an unexpected header, a row
    of the wrong width, non-numeric fields, or a file with no data rows.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise MalformedTrace(f"cannot read trace: {exc}") from None
    if not lines:
        raise MalformedTrace("empty file")
    header = lines[0].split(",")
    n = sum(1 for c in header if c.startswith("x0_"))
    nxt = sum(1 for c in header if c.startswith("xt_"))
    if n < 1 or nxt < 1 or nxt % n != 0:
        raise MalformedTrace(f"unrecognized header: {lines[0][:80]}")
    N = nxt // n
    if header != header_columns(N, n):
        raise MalformedTrace("header does not match the expected column layout")
    if not any(lines[1:]):
        raise MalformedTrace("trace has a header but no data rows")
    # One C-level parse.  numpy's row numbers are not file lines, so a file it
    # rejects is parsed per field again, which names the first bad line.
    try:
        data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        data = None
    if data is None or data.shape[1] != len(header):
        rows = []
        for lineno, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != len(header):
                raise MalformedTrace(
                    f"line {lineno}: expected {len(header)} fields, got {len(fields)}"
                )
            try:
                rows.append([float(f) for f in fields])
            except ValueError:
                raise MalformedTrace(f"line {lineno}: non-numeric field") from None
        data = np.array(rows)
    shapes = [(), (n,), (N, n), (N, n), (n,), ()]  # per sample, in TraceData field order
    parts = np.split(data, np.cumsum([math.prod(s) for s in shapes[:-1]]), axis=1)
    return TraceData(*(p.reshape(len(data), *s) for p, s in zip(parts, shapes)))
