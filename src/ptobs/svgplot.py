"""Minimal deterministic SVG line plots for trace reports.

Generates the SVG text directly (no plotting library) so that identical
input bytes always produce identical output bytes.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

_WIDTH, _HEIGHT = 720, 440
_ML, _MR, _MT, _MB = 70, 20, 40, 55
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
# A range too narrow to tick widens by max(1, _WIDEN * magnitude): by 1 below
# magnitude 1e9, by enough to resolve where adding 1 would not (past 2**53).
_WIDEN = 1e-9


def _resolved(lo: float, hi: float) -> bool:
    # Finite, and a fifth of it (the least tick step) moves its larger end, so _ticks ends.
    big = max(abs(lo), abs(hi))
    return bool(np.isfinite(hi - lo)) and big + (hi - lo) / 5 > big


def _ticks(lo: float, hi: float) -> list[float]:
    span = hi - lo
    raw = span / 5
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = np.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(v) < 1e-15 * span else float(v))
        v += step
    return ticks


def render_error_plot(
    times: np.ndarray,
    errors: np.ndarray,
    stage_k: int,
    window: tuple[float, float],
    title: str,
) -> str:
    """SVG of every follower's stage-k error vs time, window shaded.

    errors has shape (S, N) and times shape (S,), with S, N >= 1; window is
    the (start, end) of the stage's time-varying-gain interval.  Raises
    DimensionMismatch on other shapes, on non-finite input, and on padded
    ranges that are not finite or too narrow for their magnitude.
    """
    errors = np.asarray(errors, dtype=float)
    if errors.ndim != 2 or errors.size == 0 or np.shape(times) != errors.shape[:1]:
        raise DimensionMismatch(f"errors must be (S, N) and times (S,) with S, N >= 1, "
                                f"got {errors.shape} and {np.shape(times)}")
    S, N = errors.shape
    x_lo, x_hi = float(times[0]), float(times[-1])
    if not _resolved(x_lo, x_hi):  # max: a span that overflowed stays unresolved
        x_hi = max(x_hi, x_lo + max(1.0, _WIDEN * abs(x_lo)))
    y_lo, y_hi = float(errors.min()), float(errors.max())
    if not _resolved(y_lo, y_hi):
        w = max(1.0, _WIDEN * max(abs(y_lo), abs(y_hi)))
        y_lo, y_hi = y_lo - w, y_hi + w
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    if not (np.isfinite(times).all() and _resolved(x_lo, x_hi) and _resolved(y_lo, y_hi)):
        raise DimensionMismatch("times and errors must be finite, over ranges that ticks can resolve")

    pw = _WIDTH - _ML - _MR
    ph = _HEIGHT - _MT - _MB

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return _MT + (y_hi - y) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]

    def text(x, y, s, anchor="middle", size=13, rotate=False):
        transform = f' transform="rotate(-90 {x:.1f} {y:.1f})"' if rotate else ""
        parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" font-family="sans-serif" '
            f'text-anchor="{anchor}"{transform}>{s}</text>'
        )

    w0 = min(max(window[0], x_lo), x_hi)
    w1 = min(max(window[1], x_lo), x_hi)
    if w1 > w0:
        parts.append(
            f'<rect x="{px(w0):.2f}" y="{_MT}" width="{px(w1) - px(w0):.2f}" '
            f'height="{ph}" fill="#d0d0d0" fill-opacity="0.6"/>'
        )

    for xv in _ticks(x_lo, x_hi):
        xp = px(xv)
        parts.append(
            f'<line x1="{xp:.2f}" y1="{_MT + ph}" x2="{xp:.2f}" y2="{_MT + ph + 5}" '
            f'stroke="black" stroke-width="1"/>'
        )
        text(xp, _MT + ph + 20, f"{xv:.6g}")
    for yv in _ticks(y_lo, y_hi):
        yp = py(yv)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{yp:.2f}" x2="{_ML}" y2="{yp:.2f}" '
            f'stroke="black" stroke-width="1"/>'
        )
        text(_ML - 9, yp + 4, f"{yv:.6g}", anchor="end", size=12)
        parts.append(
            f'<line x1="{_ML}" y1="{yp:.2f}" x2="{_ML + pw}" y2="{yp:.2f}" '
            f'stroke="#eeeeee" stroke-width="1"/>'
        )

    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="black" stroke-width="1"/>'
    )

    ys = py(errors)
    xy = np.empty(2 * S)  # x0, y0, x1, y1, ...: one follower's points
    xy[0::2] = px(np.asarray(times, dtype=float))
    points = " ".join(["%.2f,%.2f"] * S)
    for i in range(N):
        color = _PALETTE[i % len(_PALETTE)]
        xy[1::2] = ys[:, i]
        if S == 1:
            parts.append(f'<circle cx="{xy[0]:.2f}" cy="{xy[1]:.2f}" r="3" fill="{color}"/>')
        else:
            pts = points % tuple(xy.tolist())
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        text(_ML + pw - 8, _MT + 18 + 16 * i, f"follower {i + 1}", anchor="end", size=12)
        parts.append(
            f'<line x1="{_ML + pw - 70}" y1="{_MT + 14 + 16 * i}" x2="{_ML + pw - 50}" '
            f'y2="{_MT + 14 + 16 * i}" stroke="{color}" stroke-width="2"/>'
        )

    text(_ML + pw / 2, _MT - 14, title, size=15)
    text(_ML + pw / 2, _HEIGHT - 14, "time [s]")
    text(18, _MT + ph / 2, f"stage {stage_k} estimation error [state units]", rotate=True)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
