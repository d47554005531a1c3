"""File formats: runs CSV ingestion, report envelopes, and SVG chart emission.

Each payload kind has one codec in ``_CODECS``: its payload dataclass, CSV
header and rows, and chart. JSON is written once for all kinds, by json
itself a bounded piece at a time (:func:`report_pieces`); ``_json_form``
gives it the three kinds of value it cannot write: an
:class:`~bestofn.estimators.Interval` is ``[lo, hi]``, an enum its value and
any other dataclass an object keyed by field name. ``_from_json`` reads them
back, reads an integer in a float field as a float, and refuses a NaN or
infinite float, or an integer too large for one, naming its path.

Report JSON is canonical: keys sorted, no whitespace, floats in shortest
round-trip decimal form, one trailing newline. Two runs with the same seed
and config therefore produce byte-identical files except for the ``created``
timestamp. CSV output uses comma separators, ``\\n`` line endings and UTF-8,
and quotes a text cell, such as a model name, only when it holds a comma, a
double quote, CR or LF, so Python's ``csv`` module reads every row back as
wide as its header.

CSV column orders, by payload kind:

- ``curve``:        estimator,n,estimate,ci_lo,ci_hi (ci cells empty when absent)
- ``probe``:        n,underestimates,samples,proportion,ci_lo,ci_hi
- ``coverage``:     n,hits,samples,ecp,ci_lo,ci_hi
- ``curves``:       model,n,estimate,true,stderr
- ``failure_scan``: n,true_leader,estimated_leader
- ``ks_bound``:     n,bound
"""
from __future__ import annotations

import dataclasses
import enum
import functools
import json
import math
import sys
import types
import typing
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .distributions import RNG_LAYOUT_ID
from .estimators import CurveSet, Interval, KsBoundReport, ScoreSample
from .experiments import CoverageReport, CurveReport, FailureScanReport, ProbeReport

SCHEMA_VERSION = "1"
"""Incremented on any breaking change to the envelope or payload layout;
readers reject schema versions they do not know."""


class RunsFileError(ValueError):
    """A runs CSV file that cannot be read: not UTF-8, a row that does not parse
    as ``score[,run_id]``, a score that is NaN or infinite, or no data rows."""


def read_runs(path) -> ScoreSample:
    """Read a runs CSV into a ScoreSample; file order becomes ingestion order.

    The file holds one score per row, optionally followed by a run id cell,
    which is ignored. A header row is auto-detected: if the first cell of
    row 1 does not parse as a number, row 1 is treated as a header. Blank
    lines are skipped, and so is a leading UTF-8 byte-order mark.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as err:
        raise RunsFileError(f"{path}: {err}") from None
    scores: list[float] = []
    first_data_row = True
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) > 2:
            raise RunsFileError(f"{path}: line {lineno}: expected 1 or 2 cells, got {len(cells)}")
        if first_data_row:
            first_data_row = False
            try:
                float(cells[0])
            except ValueError:
                continue  # header row
        try:
            value = float(cells[0])
        except ValueError:
            raise RunsFileError(f"{path}: line {lineno}: score cell {cells[0]!r} is not a number") from None
        if not math.isfinite(value):
            raise RunsFileError(f"{path}: line {lineno}: score {cells[0]!r} is not finite")
        scores.append(value)
    if not scores:
        raise RunsFileError(f"{path}: no data rows")
    try:
        return ScoreSample(scores)
    except ValueError as err:
        raise RunsFileError(f"{path}: {err}") from None


def write_runs(sample: ScoreSample, path) -> None:
    """Write a sample as a runs CSV (header + one score per row, ingestion order)."""
    lines = ["score"]
    lines.extend(repr(v) for v in sample.ingested_values.tolist())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Provenance:
    """The python and numpy versions and RNG layout (:data:`~bestofn.distributions.RNG_LAYOUT_ID`)
    that made a payload: numpy does not promise the same ``Generator`` streams across
    versions. Nothing in it depends on the time or the run. Reports written while
    the block also named a ``scipy`` version still read: that key is ignored."""

    python: str
    numpy: str
    rng_layout: str


@dataclass(frozen=True)
class ReportEnvelope:
    """A report payload wrapped with everything needed to reproduce it.

    ``config`` echoes every parameter and seed that went into the payload;
    re-running the tool with that config, at the same ``provenance``,
    reproduces the payload bit for bit. A report without provenance was
    made by RNG layout 1 and reads back with ``provenance=None``.
    """

    schema_version: str
    tool_version: str
    created: str
    config: dict
    payload_kind: str
    payload: object
    provenance: Provenance | None = None


def make_envelope(payload_kind: str, payload, config: dict) -> ReportEnvelope:
    from . import __version__

    _codec(payload_kind)  # an unknown kind could be written but never read back
    return ReportEnvelope(
        schema_version=SCHEMA_VERSION,
        tool_version=__version__,
        created=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        config=config,
        payload_kind=payload_kind,
        payload=payload,
        provenance=Provenance(sys.version.split()[0], np.__version__, RNG_LAYOUT_ID),
    )


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, object], ...]:
    """(name, type hint) for each field of a dataclass; the name is its JSON key."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


_JSON_TYPES = {int: (int,), float: (int, float), str: (str,), dict: (dict,)}


def _field(obj, key: str, where: str) -> tuple[object, str]:
    """``obj[key]`` and its path in the report."""
    path = f"{where}.{key}" if where else key
    if not isinstance(obj, dict):
        raise ValueError(f"{where or 'report'} must be an object")
    if key not in obj:
        raise ValueError(f"missing field {path}")
    return obj[key], path


def _build(cls: type, where: str, *args, **kwargs):
    """``cls(*args, **kwargs)``, its rejection of a decoded value reported under ``where``."""
    try:
        return cls(*args, **kwargs)
    except ValueError as err:
        raise ValueError(f"{where or 'report'}: {err}") from None


def _from_json(hint, value, where: str):
    """Rebuild a value of type ``hint`` from its JSON form.

    ``where`` is the value's path in the report, such as
    ``payload.models[0].true``; a missing or ill-typed field, or a value
    its type rejects, is reported under its path.
    """
    if hint is Interval:
        return _build(Interval, where, *_from_json(tuple[float, float], value, where))
    if dataclasses.is_dataclass(hint):
        fields = {name: _from_json(h, *_field(value, name, where)) for name, h in _fields(hint)}
        return _build(hint, where, **fields)
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):  # X | None
        return None if value is None else _from_json(args[0], value, where)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ValueError(f"{where} must be a list of {len(args)} values")
        return tuple(_from_json(a, v, f"{where}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    if isinstance(hint, enum.EnumMeta):
        return _build(hint, where, _from_json(str, value, where))
    if hint is not object and (isinstance(value, bool) or not isinstance(value, _JSON_TYPES[hint])):
        raise ValueError(f"{where} must be of type {hint.__name__}, got {type(value).__name__}")
    if hint is float and isinstance(value, int):
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(f"{where} must be finite, got an integer too large for a float") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{where} must be finite, got {value}")
    return value


@functools.cache
def _form(cls: type) -> Callable[[object], object]:
    """How json writes an instance of ``cls``, a type it cannot write itself: an
    Interval becomes ``[lo, hi]``, an enum its value, any other dataclass a dict
    of its fields. Looked up once per class."""
    if issubclass(cls, Interval):
        return lambda interval: [interval.lo, interval.hi]
    if issubclass(cls, enum.Enum):
        return lambda member: member.value
    if dataclasses.is_dataclass(cls):
        names = tuple(name for name, _ in _fields(cls))
        return lambda obj: {name: getattr(obj, name) for name in names}
    raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


def _json_form(obj):
    """json's hook for a value it cannot write itself (see :func:`_form`)."""
    return _form(type(obj))(obj)


_dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"), allow_nan=False,
                           default=_json_form)  # canonical_json's settings, without the newline

# json keeps every piece of a call's output alive until it returns, about
# 450 bytes an item of a report row, so a tuple is written this many items a
# call: about 0.2 MiB at a time, whatever the report's length.
_SLICE_ITEMS = 512


def _walked(obj) -> dict:
    """The fields of a dataclass that json writes as a non-empty object, else {}."""
    form = _json_form(obj) if dataclasses.is_dataclass(obj) else {}
    return form if isinstance(form, dict) else {}


def _json_pieces(obj) -> Iterator[str]:
    """``canonical_json(obj, _json_form)`` without its newline, in pieces: dataclasses
    are walked field by field, and tuples whose items hold tuples item by item;
    json writes any other value, a tuple ``_SLICE_ITEMS`` items a call."""
    fields = _walked(obj)
    if fields:
        for i, key in enumerate(sorted(fields)):
            yield ("," if i else "{") + _dumps(key) + ":"
            yield from _json_pieces(fields[key])
        yield "}"
    elif isinstance(obj, tuple) and obj and any(isinstance(v, tuple) for v in _walked(obj[0]).values()):
        for i, item in enumerate(obj):
            yield "," if i else "["
            yield from _json_pieces(item)
        yield "]"
    elif not isinstance(obj, tuple) or len(obj) <= _SLICE_ITEMS:
        yield _dumps(obj)
    else:
        for start in range(0, len(obj), _SLICE_ITEMS):
            yield ("," if start else "[") + _dumps(obj[start:start + _SLICE_ITEMS])[1:-1]
        yield "]"


# ---------------------------------------------------------------------------
# One codec per payload kind
# ---------------------------------------------------------------------------


class _Series(NamedTuple):
    label: str
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    dashed: bool = False
    band: tuple[tuple[float, ...], tuple[float, ...]] | None = None  # (los, his)


def _curve_chart(report: CurveSet):
    series = []
    for c in report.curves:
        band = None
        if all(p.ci is not None for p in c.points):
            band = (tuple(p.ci.lo for p in c.points), tuple(p.ci.hi for p in c.points))
        xs = tuple(float(p.n) for p in c.points)
        series.append(_Series(str(c.estimator), xs, tuple(p.estimate for p in c.points), band=band))
    return series, "expected max score", None, None


def _rate_chart(report, rate: str, y_label: str, reference: float):
    """The proportion field ``rate`` of each row, with its Clopper-Pearson band."""
    rows = report.rows
    xs, ys = tuple(float(r.n) for r in rows), tuple(getattr(r, rate) for r in rows)
    band = (tuple(r.ci.lo for r in rows), tuple(r.ci.hi for r in rows))
    series = _Series(str(report.estimator), xs, ys, band=band)
    return [series], y_label, reference, (0.0, 1.0)


def _models_chart(report: CurveReport):
    series = []
    for m in report.models:
        xs = tuple(float(n) for n in m.budgets)
        series.append(_Series(m.name, xs, m.averaged))
        series.append(_Series(f"{m.name} (true)", xs, m.true, dashed=True))
    return series, "expected max score", None, None


def _ks_chart(report: KsBoundReport):
    xs = tuple(float(r.n) for r in report.rows)
    ys = tuple(r.bound for r in report.rows)
    return [_Series("KS lower bound", xs, ys)], "KS distance", None, (0.0, 1.0)


class _Codec(NamedTuple):
    """How one payload kind is decoded, flattened to CSV and charted.

    JSON encoding and decoding follow the payload dataclass ``payload_type``
    and need nothing per kind. ``chart`` returns (series, y label, y of a
    dashed reference line or None, y bounds or None to fit the data).
    """

    payload_type: type
    header: tuple[str, ...]
    rows: Callable[[object], Iterable[list]]
    chart: Callable[[object], tuple] | None


_CODECS = {
    "curve": _Codec(
        CurveSet,
        ("estimator", "n", "estimate", "ci_lo", "ci_hi"),
        lambda rep: (
            [str(c.estimator), p.n, p.estimate, *((p.ci.lo, p.ci.hi) if p.ci else (None, None))]
            for c in rep.curves
            for p in c.points
        ),
        _curve_chart,
    ),
    "probe": _Codec(
        ProbeReport,
        ("n", "underestimates", "samples", "proportion", "ci_lo", "ci_hi"),
        lambda rep: (
            [r.n, r.underestimates, r.samples, r.proportion, r.ci.lo, r.ci.hi] for r in rep.rows
        ),
        lambda rep: _rate_chart(rep, "proportion", "underestimate proportion", 0.5),
    ),
    "coverage": _Codec(
        CoverageReport,
        ("n", "hits", "samples", "ecp", "ci_lo", "ci_hi"),
        lambda rep: ([r.n, r.hits, r.samples, r.ecp, r.ci.lo, r.ci.hi] for r in rep.rows),
        lambda rep: _rate_chart(rep, "ecp", "empirical coverage", rep.nominal),
    ),
    "curves": _Codec(
        CurveReport,
        ("model", "n", "estimate", "true", "stderr"),
        lambda rep: (
            [m.name, *cells]
            for m in rep.models
            for cells in zip(m.budgets, m.averaged, m.true, m.stderr)
        ),
        _models_chart,
    ),
    "failure_scan": _Codec(
        FailureScanReport,
        ("n", "true_leader", "estimated_leader"),
        lambda rep: ([i.n, i.true_leader, i.estimated_leader] for i in rep.inversions),
        None,
    ),
    "ks_bound": _Codec(
        KsBoundReport,
        ("n", "bound"),
        lambda rep: ([r.n, r.bound] for r in rep.rows),
        _ks_chart,
    ),
}


def _codec(kind: str) -> _Codec:
    if kind not in _CODECS:
        raise ValueError(f"unknown payload kind {kind!r}")
    return _CODECS[kind]


def report_json_text(envelope: ReportEnvelope) -> str:
    return "".join(report_pieces(envelope))


def _cell(x) -> str:
    """A CSV cell: text holding a comma, double quote, CR or LF goes in double quotes with each
    quote doubled, so ``csv.reader`` reads it back as one cell; anything else is bare."""
    if isinstance(x, str) and any(c in x for c in ',"\r\n'):
        return '"' + x.replace('"', '""') + '"'
    return "" if x is None else str(x)


def report_csv_text(envelope: ReportEnvelope) -> str:
    """Flatten the payload's per-n rows to CSV (header + data rows only)."""
    codec = _codec(envelope.payload_kind)
    lines = [",".join(codec.header)]
    lines.extend(",".join(_cell(x) for x in row) for row in codec.rows(envelope.payload))
    return "\n".join(lines) + "\n"


def report_pieces(envelope: ReportEnvelope, format: str = "json") -> list[str]:
    """The report as canonical JSON or flattened CSV, in pieces that no json call
    holds all of at once."""
    if format == "json":
        return [*_json_pieces(envelope), "\n"]
    if format == "csv":
        return [report_csv_text(envelope)]
    raise ValueError(f"unknown report format {format!r}; expected json or csv")


def write_report(envelope: ReportEnvelope, path, format: str = "json") -> None:
    """Write the envelope as canonical JSON or flattened CSV. The whole text is
    made before the file is opened, so a failed encode leaves no file behind."""
    pieces = report_pieces(envelope, format)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)


def read_report(path) -> ReportEnvelope:
    """Read a JSON report back into an envelope with a typed payload."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        version = obj.get("schema_version") if isinstance(obj, dict) else None
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema version {version!r} "
                             f"(this build reads {SCHEMA_VERSION!r})")
        obj.setdefault("provenance", None)  # made by RNG layout 1
        envelope = _from_json(ReportEnvelope, obj, "")
        payload = _from_json(_codec(envelope.payload_kind).payload_type, envelope.payload, "payload")
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    return dataclasses.replace(envelope, payload=payload)


# ---------------------------------------------------------------------------
# SVG emission
# ---------------------------------------------------------------------------

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

    Solid polylines are estimates, dashed polylines are true curves,
    translucent polygons are confidence bands; probe and coverage charts get
    a horizontal reference line (0.5 and the nominal level respectively).
    The sidecar is the report's own CSV, the text ``--format csv`` writes
    (:func:`report_csv_text`); it lands next to the SVG with a ``.csv`` suffix.
    """
    chart = _codec(envelope.payload_kind).chart
    if chart is None:
        raise ValueError(f"payload kind {envelope.payload_kind!r} has no chart form")
    series, y_label, reference, y_bounds = chart(envelope.payload)
    xs_all = [x for s in series for x in s.xs]
    ys_all = [y for s in series for ys in (s.ys, *(s.band or ())) for y in ys]  # bands included
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
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        stroke = {"stroke": color, "stroke-width": "1.6"}
        if s.dashed:
            stroke["stroke-dasharray"] = "6,4"
        if s.band is not None:
            outline = [*zip(s.xs, s.band[0]), *zip(reversed(s.xs), reversed(s.band[1]))]
            data.append(_element("polygon", {"points": points(outline), "fill": color,
                                             "fill-opacity": "0.18", "stroke": "none"}))
        data.append(_element("polyline", {"points": points(zip(s.xs, s.ys)), "fill": "none", **stroke}))
        ly = _MARGIN_T + 6 + 15 * i
        legend.append(_line(_MARGIN_L + 10, ly, _MARGIN_L + 34, ly, stroke))
        legend.append(_text({"x": _MARGIN_L + 39, "y": ly + 3.5}, s.label))
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
