"""Trace CSV files: one row per recorded sample.

Columns: time, x0_1..x0_n, xt_i_k (global error of follower i on stage k,
row-major in i then k), psi_i_k (same layout), V_1..V_n, budget_active.
Numbers carry 17 significant digits so a binary64 value round-trips exactly;
separator is a comma, newline is LF, no locale formatting.

read_trace checks the header line, then streams the rows from the open file
into one np.loadtxt call, so its memory is bounded by the arrays it returns
plus one block of text.  A file that parse does not accept whole is read
again line by line, which names the bad line in the MalformedTrace message:
a row of the wrong width, a non-numeric field, or a non-ASCII byte.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator

import numpy as np

from .errors import MalformedTrace
from .sim import TraceData


# Rows formatted per write: bounds the copy of the result the writer holds.
_CHUNK_ROWS = 256
# Characters read per block: bounds the text the reader holds.
_BLOCK_CHARS = 1 << 14


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
    data rows.
    """
    # Rows stream from the open file into one C-level parse, so memory is the
    # result plus a block.  A file it does not accept whole (an error, a
    # warning, a wrong width) is read again by _read_lines, the reader that
    # names the bad line, so both give the same outcome on every file.
    try:
        with open(path, "r", encoding="ascii") as fh:
            N, n = _layout(fh.readline().removesuffix("\n"))
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # loadtxt warns on no rows
                data = np.loadtxt(_lines(fh), delimiter=",", comments=None, ndmin=2)
    except (OSError, ValueError, Warning, MalformedTrace):
        return _read_lines(path)
    if data.shape[1] != len(header_columns(N, n)):
        return _read_lines(path)
    return _trace_data(data, N, n)


def _lines(fh) -> Iterator[str]:
    # The rest of fh, line by line, read in blocks.  str.splitlines, which
    # numbers the lines _read_lines reports, also ends a line at these
    # characters, and loadtxt would strip them as whitespace: a block holding
    # one ends the stream with ValueError.
    tail = ""
    while block := fh.read(_BLOCK_CHARS):
        if any(c in block for c in "\x0b\x0c\x1c\x1d\x1e"):
            raise ValueError("line separator other than a newline")
        *lines, tail = (tail + block).split("\n")
        yield from lines
    yield tail


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


def _read_lines(path: str) -> TraceData:
    # The whole file as str.splitlines() lines: one np.loadtxt over them, and
    # a file that parse rejects is parsed per field again, which names the
    # first bad line.  Both parses decide some outcomes: loadtxt strips a \x1f
    # around a number and float() does not, float() reads "1_0" and loadtxt
    # does not.
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise MalformedTrace(f"cannot read trace: {exc}") from None
    try:
        lines = raw.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        lineno = len((raw[: exc.start].decode("ascii") + "x").splitlines())
        raise MalformedTrace(f"line {lineno}: non-ASCII byte 0x{raw[exc.start]:02x}") from None
    if not lines:
        raise MalformedTrace("empty file")
    N, n = _layout(lines[0])
    width = len(header_columns(N, n))
    if not any(lines[1:]):
        raise MalformedTrace("trace has a header but no data rows")
    try:
        data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        data = None
    if data is None or data.shape[1] != width:
        rows = []
        for lineno, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != width:
                raise MalformedTrace(f"line {lineno}: expected {width} fields, got {len(fields)}")
            try:
                rows.append([float(f) for f in fields])
            except ValueError:
                raise MalformedTrace(f"line {lineno}: non-numeric field") from None
        data = np.array(rows)
    return _trace_data(data, N, n)


def _trace_data(data: np.ndarray, N: int, n: int) -> TraceData:
    # Views of data's columns, one per TraceData field.
    shapes = [(), (n,), (N, n), (N, n), (n,), ()]  # per sample, in TraceData field order
    parts = np.split(data, np.cumsum([math.prod(s) for s in shapes[:-1]]), axis=1)
    return TraceData(*(p.reshape(len(data), *s) for p, s in zip(parts, shapes)))
