"""SVG charts of reports, loaded only by a command given ``--svg``.

:func:`emit_plot` is public as ``bestofn.io_formats.emit_plot``. A chart is
drawn from the rows of its payload kind's codec (``io_formats._CODECS``), the
rows that its CSV sidecar holds, and written as text, without xml.
"""
from __future__ import annotations

import itertools
from pathlib import Path

from .io_formats import ReportEnvelope, _codec, report_csv_text

_SVG_W, _SVG_H = 720, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 28, 46
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_FONT = {"font-family": "sans-serif", "font-size": "11", "fill": "#333333"}


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _element(tag: str, attrs: dict, body: str = "") -> str:
    """One SVG element as ElementTree writes it: attributes in the order given,
    ``<tag ... />`` when the body is empty. The values are numbers and fixed
    words, never text that needs escaping."""
    head = "<" + tag + "".join(f' {name}="{value}"' for name, value in attrs.items())
    return f"{head}>{body}</{tag}>" if body else head + " />"


def _text(attrs: dict, text: str) -> str:
    """A text element, with ``&``, ``<`` and ``>`` escaped as ElementTree escapes them."""
    return _element("text", attrs, text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def _line(x1, y1, x2, y2, style: dict | None = None) -> str:
    return _element("line", {"x1": x1, "y1": y1, "x2": x2, "y2": y2, **(style or {})})


def emit_plot(envelope: ReportEnvelope, path) -> None:
    """Write a self-contained SVG chart plus a sidecar CSV.

    The sidecar is the report's own CSV, the text ``--format csv`` writes
    (:func:`report_csv_text`); it lands next to the SVG with a ``.csv`` suffix.
    The chart is drawn from the same rows: a series is a run of rows with one
    name, x is their ``n`` column and y the codec's y columns, the first solid
    and any others dashed (true curves). A series whose rows all fill
    ``ci_lo`` and ``ci_hi`` gets a translucent confidence band. Two adjacent
    curves of one estimator kind, or two adjacent models with one name, are
    therefore one series; only a hand-built payload holds them. Probe and
    coverage charts get a horizontal reference line (0.5 and the nominal
    level respectively).
    """
    codec = _codec(envelope.payload_kind)
    if codec.chart is None:
        raise ValueError(f"payload kind {envelope.payload_kind!r} has no chart form")
    columns, y_label, name, reference, y_bounds = codec.chart(envelope.payload)
    series = []  # (label, xs, ys, dashed, band or None)
    for label, rows in itertools.groupby(codec.rows(envelope.payload), lambda row: name or row[0]):
        cells = dict(zip(codec.header, zip(*rows)))
        band = None
        if "ci_lo" in cells and None not in cells["ci_lo"] + cells["ci_hi"]:
            band = (cells["ci_lo"], cells["ci_hi"])
        series.append((label, cells["n"], cells[columns[0]], False, band))
        series.extend((f"{label} ({c})", cells["n"], cells[c], True, None) for c in columns[1:])
    xs_all = [x for _, xs, *_ in series for x in xs]
    ys_all = [y for _, _, ys, _, band in series for values in (ys, *(band or ())) for y in values]
    x_lo, x_hi = min(xs_all), max(xs_all)
    if y_bounds is not None:
        y_lo, y_hi = y_bounds
    else:
        y_lo, y_hi = min(ys_all), max(ys_all)
        pad = 0.05 * (y_hi - y_lo) or 1.0
        y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    px_w = _SVG_W - _MARGIN_L - _MARGIN_R
    px_h = _SVG_H - _MARGIN_T - _MARGIN_B
    bottom = _SVG_H - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * px_w

    def sy(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * px_h

    def points(pairs) -> str:
        return " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pairs)

    axes = [_line(_MARGIN_L, bottom, _SVG_W - _MARGIN_R, bottom),
            _line(_MARGIN_L, _MARGIN_T, _MARGIN_L, bottom)]
    labels = []
    for tx in _ticks(x_lo, x_hi):
        px = f"{sx(tx):.2f}"
        axes.append(_line(px, bottom, px, bottom + 4))
        labels.append(_text({"x": px, "y": bottom + 16, "text-anchor": "middle"}, f"{tx:.6g}"))
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        axes.append(_line(_MARGIN_L - 4, f"{py:.2f}", _MARGIN_L, f"{py:.2f}"))
        labels.append(_text({"x": _MARGIN_L - 7, "y": f"{py + 3.5:.2f}", "text-anchor": "end"}, f"{ty:.6g}"))
    mid_y = f"{_MARGIN_T + px_h / 2:.2f}"
    labels.append(_text({"x": f"{_MARGIN_L + px_w / 2:.2f}", "y": _SVG_H - 10, "text-anchor": "middle"},
                        "budget n"))
    labels.append(_text({"x": "14", "y": mid_y, "text-anchor": "middle",
                         "transform": f"rotate(-90 14 {mid_y})"}, y_label))

    data, legend = [], []
    for i, (label, xs, ys, dashed, band) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        stroke = {"stroke": color, "stroke-width": "1.6"}
        if dashed:
            stroke["stroke-dasharray"] = "6,4"
        if band is not None:
            outline = [*zip(xs, band[0]), *zip(reversed(xs), reversed(band[1]))]
            data.append(_element("polygon", {"points": points(outline), "fill": color,
                                             "fill-opacity": "0.18", "stroke": "none"}))
        data.append(_element("polyline", {"points": points(zip(xs, ys)), "fill": "none", **stroke}))
        ly = _MARGIN_T + 6 + 15 * i
        legend.append(_line(_MARGIN_L + 10, ly, _MARGIN_L + 34, ly, stroke))
        legend.append(_text({"x": _MARGIN_L + 39, "y": ly + 3.5}, label))
    if reference is not None:
        ry = f"{sy(reference):.2f}"
        data.append(_line(_MARGIN_L, ry, _SVG_W - _MARGIN_R, ry,
                          {"stroke": "#888888", "stroke-width": "1", "stroke-dasharray": "4,3"}))

    svg = _element("svg", {"xmlns": "http://www.w3.org/2000/svg", "width": _SVG_W, "height": _SVG_H,
                           "viewBox": f"0 0 {_SVG_W} {_SVG_H}"}, "".join([
        _element("rect", {"x": "0", "y": "0", "width": _SVG_W, "height": _SVG_H, "fill": "white"}),
        _element("g", {"stroke": "#333333", "stroke-width": "1"}, "".join(axes)),
        _element("g", _FONT, "".join(labels)),
        _element("g", {}, "".join(data)),
        _element("g", _FONT, "".join(legend)),
    ]))
    out = Path(path)
    out.write_text('<?xml version="1.0" encoding="UTF-8"?>\n' + svg + "\n", encoding="utf-8")
    out.with_suffix(".csv").write_text(report_csv_text(envelope), encoding="utf-8")
