"""CSV/JSON serialization of every CLI table and payload, and a
dependency-free SVG plotter.

A sweep table's columns are EntropyPoint's fields: the CSV header, the
JSON keys and the types parse_table converts to all come from them.
Output is deterministic: fixed column order, fixed float formatting
(12 significant digits, `inf` for infinite beta), LF line endings, and a
fixed color cycle in plots — identical inputs give identical bytes.
"""

from __future__ import annotations

import json
import math
import typing
from html import escape

import numpy as np

from .entropy import EntropyPoint
from .errors import EmptySeries, InvalidParameter, IoError
from .lattice import (
    LatticeSpec, _is_integer, validate_beta, validate_finite_array, validate_nonnegative
)
from .thermal import SweepTable

_COLUMN_TYPES = typing.get_type_hints(EntropyPoint)
_COLUMNS = list(_COLUMN_TYPES)
CSV_HEADER = ",".join(_COLUMNS)


def _fmt(value):
    # EntropyPoint.of keeps the integer columns Python ints
    return str(value) if isinstance(value, int) else f"{float(value):.12g}"


def emit_csv(header, rows):
    """CSV bytes: the header line, then one line per row of values."""
    lines = [header] + [",".join(_fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def emit_json(payload):
    """JSON bytes of a list or dict, one-space indented."""
    return (json.dumps(payload, indent=1) + "\n").encode()


def _json_value(value, column_type):
    """An int column as a Python int (a hand-built EntropyPoint may hold a
    numpy integer); a float rounded to 12 digits, inf as "inf"."""
    if column_type is int:
        return int(value)
    return "inf" if value == math.inf else float(f"{value:.12g}")


def emit_table(table: SweepTable, fmt="csv"):
    """Serialize a sweep table to CSV or JSON bytes."""
    if fmt == "csv":
        return emit_csv(
            CSV_HEADER, ([getattr(r, c) for c in _COLUMNS] for r in table.rows)
        )
    if fmt == "json":
        return emit_json(
            [
                {c: _json_value(getattr(r, c), t) for c, t in _COLUMN_TYPES.items()}
                for r in table.rows
            ]
        )
    raise IoError(f"unknown table format: {fmt!r}")


def _row(values):
    """An EntropyPoint from its column values, in CSV_HEADER order, if it is
    a point of the model: z, n, epsilon and mass make a LatticeSpec, beta
    passes validate_beta, N_A is an integer in [1, n] and the entropy is
    finite and >= 0.  A text value holding "_" or surrounding whitespace,
    which int() and float() would take (1_0 as 10), raises too."""
    bad = [v for v in values if isinstance(v, str) and (v != v.strip() or "_" in v)]
    if bad:
        raise ValueError(f"bad field: {bad[0]!r}")
    point = EntropyPoint(*(t(v) for t, v in zip(_COLUMN_TYPES.values(), values)))
    spec = LatticeSpec(point.n, point.z, point.mass, point.epsilon)
    if not 1 <= point.na <= point.n:
        raise ValueError(f"na must lie in [1, n = {point.n}], got {point.na}")
    entropy = validate_nonnegative("entropy", point.entropy)
    return EntropyPoint.of(spec, validate_beta(point.beta), point.na, entropy)


def parse_table(data):
    """Inverse of emit_table; auto-detects CSV vs JSON.  Malformed text, or
    a row that is not a point of the model (see _row), raises IoError."""
    text = data.decode() if isinstance(data, (bytes, bytearray)) else str(data)
    stripped = text.lstrip()
    try:
        if stripped.startswith("["):
            objs = json.loads(stripped)
            ints = [obj[c] for obj in objs for c, t in _COLUMN_TYPES.items() if t is int]
            bad = [v for v in ints if not _is_integer(v)]
            if bad:  # a bool or 10.7 would pass int() as 1 or 10
                raise ValueError(f"z, n and na must be integers, got {bad[0]!r}")
            rows = [_row([obj[c] for c in _COLUMNS]) for obj in objs]
            return SweepTable(rows=tuple(rows)).sorted()
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != CSV_HEADER:
            raise ValueError(f"bad CSV header: {lines[0] if lines else '<empty>'!r}")
        rows = []
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != len(_COLUMNS):
                raise ValueError(f"bad CSV row: {ln!r}")
            rows.append(_row(parts))
        return SweepTable(rows=tuple(rows)).sorted()
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise IoError(f"cannot parse table: {exc}") from exc


# ---------------------------------------------------------------- plotting

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 24, 34, 52


def _scaler(lo, hi, out_lo, out_hi, log):
    lo, hi = float(lo), float(hi)  # a range that overflows reads inf, with no warning
    if log:
        if lo <= 0:
            raise InvalidParameter("log axis requires positive data")
        lo, hi = math.log10(lo), math.log10(hi)
    if hi == lo:
        hi = lo + 1.0
    if hi == lo:  # lo + 1 rounded to lo (|lo| >= 2**53): widen toward 0
        lo, hi = sorted((lo, lo * (1 - 2**-10)))
    if not 0 < (hi - lo) * abs(out_hi - out_lo) < math.inf:
        raise InvalidParameter(f"cannot scale the data range [{lo!r}, {hi!r}] to pixels")

    def to_px(v):
        t = (math.log10(v) if log else v)
        return out_lo + (t - lo) * (out_hi - out_lo) / (hi - lo)

    return to_px, lo, hi


def _ticks(lo, hi, log):
    """Tick values in data units for an axis spanning [lo, hi] in scaler
    units (log10 of the data on a log axis): the decades when a log axis
    holds two or more, else five evenly spaced marks."""
    if log:
        decades = [10.0**d for d in range(math.ceil(lo), math.floor(hi) + 1)]
        if len(decades) >= 2:
            return decades
    marks = [lo + (hi - lo) * i / 4.0 for i in range(5)]
    return [10.0**t for t in marks] if log else marks


def _text(attributes, body):
    """A <text> element with its body XML-escaped, so any label reads back
    (by html.escape: xml.sax.saxutils imports urllib.request, about 6 MB)."""
    return f"<text {attributes}>{escape(str(body), quote=False)}</text>"


def emit_plot(series, axes=None):
    """Render line series to self-contained SVG bytes.

    series: list of (x_values, y_values, label); each needs >= 2 points.
    axes:   optional dict with keys xlabel, ylabel, title,
            xscale ('linear' | 'log'), hlines (list of (y, label)
            drawn as dashed reference lines).  Every label and tick is
            written XML-escaped.
    Values that are not finite real numbers, x <= 0 on a log axis, or a
    range too wide to scale to pixels raise InvalidParameter.
    """
    axes = dict(axes or {})
    if not series:
        raise EmptySeries("no series to plot")
    cleaned = []
    for x, y, label in series:
        x = validate_finite_array(f"series {label!r}", x)
        y = validate_finite_array(f"series {label!r}", y)
        if x.size < 2 or x.size != y.size:
            raise EmptySeries(f"series {label!r} needs >= 2 points")
        cleaned.append((x, y, str(label)))

    xlog = axes.get("xscale", "linear") == "log"
    hlines = list(axes.get("hlines", ()))
    all_x = np.concatenate([s[0] for s in cleaned])
    all_y = np.concatenate(
        [s[1] for s in cleaned] + [validate_finite_array("hlines", [h for h, _ in hlines])]
    )
    x_px, xlo, xhi = _scaler(all_x.min(), all_x.max(), _ML, _W - _MR, xlog)
    y_px, ylo, yhi = _scaler(all_y.min(), all_y.max(), _H - _MB, _MT, log=False)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}" '
        f'font-family="monospace" font-size="11">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>',
    ]
    if axes.get("title"):
        parts.append(_text(f'x="{_W / 2:.1f}" y="20" text-anchor="middle"', axes["title"]))

    for tv in _ticks(xlo, xhi, xlog):
        px = x_px(tv)
        parts.append(
            f'<line x1="{px:.2f}" y1="{_H - _MB}" x2="{px:.2f}" '
            f'y2="{_H - _MB + 5}" stroke="black"/>'
        )
        parts.append(_text(f'x="{px:.2f}" y="{_H - _MB + 18}" text-anchor="middle"', f"{tv:.4g}"))
    for tv in _ticks(ylo, yhi, log=False):
        py = y_px(tv)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" y2="{py:.2f}" '
            f'stroke="black"/>'
        )
        parts.append(_text(f'x="{_ML - 8}" y="{py + 4:.2f}" text-anchor="end"', f"{tv:.4g}"))
    if axes.get("xlabel"):
        xl = f'x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 14}" text-anchor="middle"'
        parts.append(_text(xl, axes["xlabel"]))
    if axes.get("ylabel"):
        cx, cy = 16, (_MT + _H - _MB) / 2
        yl = f'x="{cx}" y="{cy:.1f}" text-anchor="middle" transform="rotate(-90 {cx} {cy:.1f})"'
        parts.append(_text(yl, axes["ylabel"]))

    for y_ref, label in hlines:
        py = y_px(y_ref)
        parts.append(
            f'<line x1="{_ML}" y1="{py:.2f}" x2="{_W - _MR}" y2="{py:.2f}" '
            f'stroke="gray" stroke-dasharray="6,4"/>'
        )
        if label:
            parts.append(
                _text(f'x="{_W - _MR - 4}" y="{py - 4:.2f}" text-anchor="end" fill="gray"', label)
            )

    for idx, (x, y, label) in enumerate(cleaned):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{x_px(xv):.2f},{y_px(yv):.2f}" for xv, yv in zip(x, y))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = _MT + 16 + 14 * idx
        parts.append(
            f'<line x1="{_W - _MR - 120}" y1="{ly - 4}" x2="{_W - _MR - 100}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(_text(f'x="{_W - _MR - 94}" y="{ly}"', label))

    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()
