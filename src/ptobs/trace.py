"""Trace CSV files: one row per recorded sample.

Columns: time, x0_1..x0_n, xt_i_k (global error of follower i on stage k,
row-major in i then k), psi_i_k (same layout), V_1..V_n, budget_active.
Numbers carry 17 significant digits so a binary64 value round-trips exactly;
separator is a comma, newline is LF, no locale formatting.

read_trace reads ASCII text with universal newlines (LF, CRLF or CR): the
header line, then rows of header-width comma-separated numbers, which may
hold blank lines and whitespace around a number.  One np.loadtxt call
streams the rows from the open file, so its memory is bounded by the arrays
it returns.  A file that parse does not accept whole is scanned line by
line, and the MalformedTrace message names its first bad line: a non-ASCII
byte, a wrong header, a row of the wrong width, or a non-numeric field.
"""

from __future__ import annotations

import math
import warnings
from typing import NoReturn

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

    Raises MalformedTrace for an unreadable or non-ASCII file, an unexpected
    header, a row of the wrong width, non-numeric fields, or a file with no
    data rows; the message names the first bad line.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            N, n = _layout(fh.readline().removesuffix("\n"))
            data = _parse(fh)
    except (OSError, ValueError, Warning, MalformedTrace):
        _first_bad_line(path)
    if data.shape[1] != len(header_columns(N, n)):
        _first_bad_line(path)
    return _trace_data(data, N, n)


def _parse(lines) -> np.ndarray:
    # The one parse of trace rows: an iterable of lines to an (S, width)
    # array; loadtxt's warning on no rows is an error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


def _layout(line: str) -> tuple[int, int]:
    # (N, n) of a header line, which must equal header_columns(N, n).
    header = line.split(",")
    n = sum(1 for c in header if c.startswith("x0_"))
    nxt = sum(1 for c in header if c.startswith("xt_"))
    if n < 1 or nxt < 1 or nxt % n != 0:
        raise MalformedTrace(f"unrecognized header: {line[:80]}")
    N = nxt // n
    if header != header_columns(N, n):
        raise MalformedTrace("header does not match the expected column layout")
    return N, n


def _first_bad_line(path: str) -> NoReturn:
    # Raises MalformedTrace naming the first line read_trace's parse rejects.
    # latin-1 decodes every byte to the character of the same number, so a
    # non-ASCII byte is found on its own line, not in the decoder's block.
    lineno = 0
    try:
        with open(path, "r", encoding="latin-1") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.removesuffix("\n")
                if not line.isascii():
                    byte = next(c for c in line if not c.isascii())
                    raise MalformedTrace(f"line {lineno}: non-ASCII byte 0x{ord(byte):02x}")
                if lineno == 1:
                    width = len(header_columns(*_layout(line)))
                elif line and line.count(",") + 1 != width:
                    raise MalformedTrace(
                        f"line {lineno}: expected {width} fields, got {line.count(',') + 1}")
                elif line:
                    try:
                        _parse([line])
                    except (ValueError, Warning):
                        raise MalformedTrace(f"line {lineno}: non-numeric field") from None
    except OSError as exc:
        raise MalformedTrace(f"cannot read trace: {exc}") from None
    raise MalformedTrace("trace has a header but no data rows" if lineno else "empty file")


def _trace_data(data: np.ndarray, N: int, n: int) -> TraceData:
    # Views of data's columns, one per TraceData field.
    shapes = [(), (n,), (N, n), (N, n), (n,), ()]  # per sample, in TraceData field order
    parts = np.split(data, np.cumsum([math.prod(s) for s in shapes[:-1]]), axis=1)
    return TraceData(*(p.reshape(len(data), *s) for p, s in zip(parts, shapes)))
