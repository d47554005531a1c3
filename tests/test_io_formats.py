"""Tests for runs ingestion, report envelopes, CSV flattening, and SVG charts."""

import json
import platform
import tracemalloc
from dataclasses import replace
from pathlib import Path
from xml.etree import ElementTree as ET

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bestofn import (
    EstimatorKind,
    Interval,
    ScoreSample,
    emit_plot,
    expected_max_curve,
    make_envelope,
    read_report,
    read_runs,
    write_report,
    write_runs,
)
from bestofn.distributions import canonical_json
from bestofn.estimators import CurvePoint, CurveSet, ExpectedMaxCurve, KsBoundReport, KsBoundRow
from bestofn.experiments import (
    CoverageReport,
    CoverageRow,
    CurveReport,
    FailureScanReport,
    Inversion,
    ModelCurves,
    ProbeReport,
    ProbeRow,
)
from bestofn.io_formats import (
    Provenance,
    ReportEnvelope,
    RunsFileError,
    _CODECS,
    _SLICE_ITEMS,
    _json_form,
    report_csv_text,
    report_json_text,
    report_pieces,
)


# ---------------------------------------------------------------------------
# Runs ingestion
# ---------------------------------------------------------------------------


def runs_file(tmp_path, text, name="runs.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_read_runs_with_header(tmp_path):
    sample = read_runs(runs_file(tmp_path, "score\n0.81\n0.79\n"))
    assert sample.size == 2
    assert np.array_equal(sample.ingested_values, [0.81, 0.79])


def test_read_runs_headerless(tmp_path):
    sample = read_runs(runs_file(tmp_path, "0.5\n0.7\n0.6\n"))
    assert np.array_equal(sample.ingested_values, [0.5, 0.7, 0.6])


def test_read_runs_keeps_the_first_score_after_a_byte_order_mark(tmp_path):
    # Spreadsheet "CSV UTF-8" exports start with a BOM; it must not turn row 1 into a header.
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf0.5\n0.7\n0.9\n")
    assert read_runs(path).ingested_values.tolist() == [0.5, 0.7, 0.9]
    path.write_bytes(b"\xef\xbb\xbfscore,run_id\n0.5,a\n0.7,b\n")
    assert read_runs(path).ingested_values.tolist() == [0.5, 0.7]


def test_read_runs_skips_blank_lines(tmp_path):
    sample = read_runs(runs_file(tmp_path, "score\n0.5\n\n0.7\n\n"))
    assert sample.size == 2


def test_read_runs_ignores_a_run_id_cell(tmp_path):
    sample = read_runs(runs_file(tmp_path, "score,run_id\n0.5,trial-a\n0.7,trial-b\n"))
    assert np.array_equal(sample.ingested_values, [0.5, 0.7])


def test_read_runs_realistic_row_count(tmp_path):
    scores = np.random.default_rng(71).uniform(0.7, 0.8, size=145)
    text = "score\n" + "\n".join(repr(float(s)) for s in scores) + "\n"
    sample = read_runs(runs_file(tmp_path, text))
    assert sample.size == 145


def test_read_runs_nan_names_line_two(tmp_path):
    with pytest.raises(RunsFileError, match="line 2"):
        read_runs(runs_file(tmp_path, "0.5\nNaN\n0.7\n"))


def test_read_runs_infinity_rejected(tmp_path):
    with pytest.raises(RunsFileError, match="line 3"):
        read_runs(runs_file(tmp_path, "score\n0.5\ninf\n"))


def test_read_runs_malformed_row(tmp_path):
    with pytest.raises(RunsFileError, match="line 2"):
        read_runs(runs_file(tmp_path, "score\n0.5,x,y\n"))
    with pytest.raises(RunsFileError, match="line 3"):
        read_runs(runs_file(tmp_path, "score\n0.5\nabc\n"))


def test_read_runs_empty_file(tmp_path):
    with pytest.raises(RunsFileError):
        read_runs(runs_file(tmp_path, "score\n"))
    with pytest.raises(RunsFileError):
        read_runs(runs_file(tmp_path, "\n\n"))


def test_runs_errors_share_a_base(tmp_path):
    for text in ("0.5\nNaN\n", "a,b,c,d\n", "score\n"):
        with pytest.raises(RunsFileError):
            read_runs(runs_file(tmp_path, text))


def test_write_then_read_runs_round_trip(tmp_path):
    rng = np.random.default_rng(72)
    sample = ScoreSample(rng.normal(size=20))
    path = tmp_path / "out.csv"
    write_runs(sample, path)
    back = read_runs(path)
    assert np.array_equal(back.ingested_values, sample.ingested_values)


# ---------------------------------------------------------------------------
# Envelope round trips
# ---------------------------------------------------------------------------


def random_interval(rng):
    lo = float(rng.uniform())
    return Interval(lo, lo + float(rng.uniform()))


def random_payloads(rng):
    """One randomized payload per kind, as (kind, payload) pairs."""
    curve = CurveSet(tuple(
        ExpectedMaxCurve(
            points=tuple(
                CurvePoint(
                    n=n,
                    estimate=float(rng.normal()),
                    ci=None if n % 2 else Interval(float(rng.uniform()), 2.0),
                )
                for n in range(1, 5)
            ),
            estimator=kind,
            sample_size=8,
        )
        for kind in (EstimatorKind.MEANMAX_V, EstimatorKind.UNBIASED_U)
    ))
    probe = ProbeReport(
        rows=tuple(
            ProbeRow(n=n, underestimates=int(rng.integers(0, 50)), samples=50,
                     proportion=float(rng.uniform()), ci=random_interval(rng))
            for n in range(1, 6)
        ),
        B=20, estimator=EstimatorKind.MEANMAX_V, dist_id="fixture", seed=7, stream=3,
    )
    cov = CoverageReport(
        rows=tuple(
            CoverageRow(n=n, hits=int(rng.integers(0, 40)), samples=40,
                        ecp=float(rng.uniform()), ci=random_interval(rng))
            for n in range(1, 4)
        ),
        B=12, resamples=100, nominal=0.95, estimator=EstimatorKind.UNBIASED_U,
        dist_id="fixture", seed=8, stream=1,
    )
    curves_rep = CurveReport(
        models=tuple(
            ModelCurves(
                name=name,
                budgets=(1, 2, 3),
                averaged=tuple(float(rng.normal()) for _ in range(3)),
                true=tuple(float(rng.normal()) for _ in range(3)),
                stderr=tuple(float(rng.uniform()) for _ in range(3)),
            )
            for name in ("alpha", "beta")
        ),
        B=10, num_samples=60, estimator=EstimatorKind.MEANMAX_V, seed=9, stream=0,
    )
    scan = FailureScanReport(
        model_a="alpha", model_b="beta", B=10, estimator=EstimatorKind.MEANMAX_V,
        inversions=(Inversion(n=4, true_leader="beta", estimated_leader="alpha"),),
    )
    ks = KsBoundReport(cdf_at_max=0.9, B=50,
                       rows=tuple(KsBoundRow(n=n, bound=1.0 - 0.9**n) for n in range(1, 6)))
    return [
        ("curve", curve), ("probe", probe), ("coverage", cov),
        ("curves", curves_rep), ("failure_scan", scan), ("ks_bound", ks),
    ]


def test_json_round_trip_every_payload_kind(tmp_path):
    rng = np.random.default_rng(73)
    for kind, payload in random_payloads(rng):
        env = make_envelope(payload, {"seed": 7, "B": 20})
        path = tmp_path / f"{kind}.json"
        write_report(env, path, format="json")
        back = read_report(path)
        assert back.payload_kind == kind
        assert back.payload == payload
        assert back.config == {"seed": 7, "B": 20}
        assert back.schema_version == env.schema_version
        assert back.provenance == env.provenance


@pytest.mark.parametrize("kind", sorted(_CODECS))
def test_make_envelope_names_the_kind_from_its_payload(kind):
    payload = dict(random_payloads(np.random.default_rng(84)))[kind]
    assert make_envelope(payload, {}).payload_kind == kind


def test_make_envelope_refuses_a_value_that_is_no_payload():
    curve = expected_max_curve(ScoreSample([0.1, 0.4]), EstimatorKind.MEANMAX_V, 2)
    with pytest.raises(ValueError, match="^ExpectedMaxCurve is not a report payload$"):
        make_envelope(curve, {})


def test_envelope_carries_versions_and_timestamp():
    env = make_envelope(KsBoundReport(cdf_at_max=1.0, B=1, rows=()), {})
    assert env.schema_version == "1"
    assert env.tool_version
    assert env.created.endswith("Z")


def test_envelope_provenance_names_the_versions_and_rng_layout(tmp_path):
    env = make_envelope(KsBoundReport(cdf_at_max=1.0, B=1, rows=()), {})
    assert env.provenance == Provenance(
        python=platform.python_version(), numpy=np.__version__, rng_layout="philox4x64-splitmix64/2",
    )
    path = tmp_path / "r.json"
    write_report(env, path)
    assert json.loads(path.read_text())["provenance"]["rng_layout"] == "philox4x64-splitmix64/2"
    assert read_report(path) == env


def test_read_report_accepts_a_report_without_provenance(tmp_path):
    # Reports of RNG layout 1 predate the block; they still read, with None.
    env = make_envelope(KsBoundReport(cdf_at_max=0.5, B=2, rows=()), {"seed": 1})
    obj = json.loads(report_json_text(env))
    del obj["provenance"]
    path = tmp_path / "old.json"
    path.write_text(canonical_json(obj))
    assert read_report(path) == replace(env, provenance=None)


def test_read_report_accepts_a_provenance_that_names_scipy(tmp_path):
    # Reports written while provenance also named the scipy version still read;
    # written again, they carry the three-key block and the same payload bytes.
    env = make_envelope(KsBoundReport(cdf_at_max=0.5, B=2, rows=()), {"seed": 1})
    obj = json.loads(report_json_text(env))
    obj["provenance"]["scipy"] = "1.13.0"
    path = tmp_path / "old.json"
    path.write_text(canonical_json(obj))
    back = read_report(path)
    assert back == env
    again = tmp_path / "again.json"
    write_report(back, again)
    rewritten = json.loads(again.read_text())
    assert set(rewritten["provenance"]) == {"python", "numpy", "rng_layout"}
    del obj["provenance"]["scipy"]
    assert again.read_text() == canonical_json(obj)


def test_canonical_json_is_sorted_compact_and_newline_terminated():
    text = canonical_json({"b": 1, "a": [1.5, 2], "c": {"z": None, "y": 0.1}})
    assert text == '{"a":[1.5,2],"b":1,"c":{"y":0.1,"z":null}}\n'


def test_canonical_json_preserves_doubles_exactly():
    rng = np.random.default_rng(74)
    values = [float(v) for v in rng.normal(size=50)]
    decoded = json.loads(canonical_json({"values": values}))
    assert decoded["values"] == values


def test_same_config_reports_differ_only_in_timestamp():
    payload = KsBoundReport(cdf_at_max=0.9, B=3, rows=(KsBoundRow(n=1, bound=0.1),))
    a = make_envelope(payload, {"seed": 1})
    b = make_envelope(payload, {"seed": 1})
    dict_a = json.loads(report_json_text(a))
    dict_b = json.loads(report_json_text(b))
    dict_a.pop("created")
    dict_b.pop("created")
    assert canonical_json(dict_a) == canonical_json(dict_b)


def test_read_report_reads_an_integer_in_a_float_field_as_a_float(tmp_path):
    env = make_envelope(KsBoundReport(cdf_at_max=1.0, B=2, rows=(KsBoundRow(1, 0.0),)),
                        {"seed": 1})
    obj = json.loads(report_json_text(env))
    obj["payload"]["cdf_at_max"] = 1
    obj["payload"]["rows"][0]["bound"] = 0
    path = tmp_path / "ints.json"
    path.write_text(canonical_json(obj))
    back = read_report(path)
    assert back == env
    assert type(back.payload.cdf_at_max) is float and type(back.payload.rows[0].bound) is float
    assert report_json_text(back) == report_json_text(env)


def test_read_report_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": "99", "payload_kind": "probe"}))
    with pytest.raises(ValueError, match="schema version"):
        read_report(path)


def test_write_report_rejects_unknown_format(tmp_path):
    env = make_envelope(KsBoundReport(cdf_at_max=1.0, B=1, rows=()), {})
    with pytest.raises(ValueError, match="format"):
        write_report(env, tmp_path / "x.yaml", format="yaml")


# One small payload per kind. Together they hold an Interval, a None ci, every
# enum, nested tuples and a float that needs 17 significant digits.
GOLDEN_PAYLOADS = {
    "curve": CurveSet((
        ExpectedMaxCurve(
            points=(CurvePoint(1, 0.5, Interval(0.25, 0.75)), CurvePoint(2, 0.1 + 0.2)),
            estimator=EstimatorKind.MEANMAX_PREFIX,
            sample_size=2,
        ),
    )),
    "probe": ProbeReport(
        rows=(ProbeRow(n=1, underestimates=3, samples=4, proportion=0.75, ci=Interval(0.25, 1.0)),),
        B=4, estimator=EstimatorKind.UNBIASED_U, dist_id="coin", seed=7, stream=1,
    ),
    "coverage": CoverageReport(
        rows=(CoverageRow(n=1, hits=9, samples=10, ecp=0.9, ci=Interval(0.5, 1.0)),),
        B=4, resamples=100, nominal=0.95, estimator=EstimatorKind.MEANMAX_V,
        dist_id="coin", seed=7, stream=2,
    ),
    "curves": CurveReport(
        models=(ModelCurves(name="steady", budgets=(1, 2), averaged=(0.5, 0.6),
                            true=(0.5, 0.625), stderr=(0.0, 0.01)),),
        B=4, num_samples=10, estimator=EstimatorKind.MEANMAX_V, seed=7, stream=0,
    ),
    "failure_scan": FailureScanReport(
        model_a="steady", model_b="volatile", B=4, estimator=EstimatorKind.MEANMAX_V,
        inversions=(Inversion(n=2, true_leader="volatile", estimated_leader="steady"),),
    ),
    "ks_bound": KsBoundReport(cdf_at_max=0.9, B=4,
                              rows=(KsBoundRow(n=1, bound=0.1), KsBoundRow(n=2, bound=1 - 0.9**2))),
}

# The payload text of each kind, pinned: a change in how reports are encoded
# must not change a byte of them.
GOLDEN_PAYLOAD_TEXT = {
    "curve": '{"curves":[{"estimator":"meanmax-prefix","points":[{"ci":[0.25,0.75],"estimate":0.5,'
             '"n":1},{"ci":null,"estimate":0.30000000000000004,"n":2}],"sample_size":2}]}',
    "probe": '{"B":4,"dist_id":"coin","estimator":"unbiased","rows":[{"ci":[0.25,1.0],"n":1,'
             '"proportion":0.75,"samples":4,"underestimates":3}],"seed":7,"stream":1}',
    "coverage": '{"B":4,"dist_id":"coin","estimator":"meanmax","nominal":0.95,"resamples":100,'
                '"rows":[{"ci":[0.5,1.0],"ecp":0.9,"hits":9,"n":1,"samples":10}],"seed":7,"stream":2}',
    "curves": '{"B":4,"estimator":"meanmax","models":[{"averaged":[0.5,0.6],"budgets":[1,2],'
              '"name":"steady","stderr":[0.0,0.01],"true":[0.5,0.625]}],"num_samples":10,"seed":7,'
              '"stream":0}',
    "failure_scan": '{"B":4,"estimator":"meanmax","inversions":[{"estimated_leader":"steady","n":2,'
                    '"true_leader":"volatile"}],"model_a":"steady","model_b":"volatile"}',
    "ks_bound": '{"B":4,"cdf_at_max":0.9,"rows":[{"bound":0.1,"n":1},'
                '{"bound":0.18999999999999995,"n":2}]}',
}


def golden_envelope(kind: str) -> ReportEnvelope:
    return ReportEnvelope(
        schema_version="1", tool_version="0.1.0", created="2020-04-28T00:00:00Z",
        config={"command": "golden", "seed": 7, "confidence": 0.95, "ci": True, "svg": None,
                "estimator": ["meanmax", "unbiased"]},
        payload_kind=kind, payload=GOLDEN_PAYLOADS[kind],
        provenance=Provenance(python="3.11.7", numpy="2.4.6", rng_layout="philox4x64-splitmix64/2"),
    )


@pytest.mark.parametrize("kind", sorted(GOLDEN_PAYLOADS))
def test_report_json_bytes_are_unchanged(kind):
    assert report_json_text(golden_envelope(kind)) == (
        '{"config":{"ci":true,"command":"golden","confidence":0.95,"estimator":["meanmax","unbiased"],'
        '"seed":7,"svg":null},"created":"2020-04-28T00:00:00Z","payload":'
        + GOLDEN_PAYLOAD_TEXT[kind]
        + f',"payload_kind":"{kind}","provenance":{{"numpy":"2.4.6","python":"3.11.7",'
        '"rng_layout":"philox4x64-splitmix64/2"},"schema_version":"1","tool_version":"0.1.0"}\n'
    )


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_FILES = sorted(GOLDEN_DIR.glob("*.json"))


def one_call_json(envelope: ReportEnvelope) -> str:
    """The report as one json call writes it, the reference for the pieces."""
    return canonical_json(envelope, _json_form)


def golden_file_envelope(path: Path, tmp_path) -> ReportEnvelope:
    """A committed golden report, with the fields it leaves out put back."""
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["created"] = "2020-04-28T00:00:00Z"
    obj["provenance"].update(python="3.11.7", numpy="2.4.6")
    (tmp_path / path.name).write_text(json.dumps(obj), encoding="utf-8")
    return read_report(tmp_path / path.name)


@pytest.mark.parametrize("source", [*sorted(GOLDEN_PAYLOADS), *(p.stem for p in GOLDEN_FILES)])
def test_report_pieces_are_the_one_call_encoding(source, tmp_path):
    if source in GOLDEN_PAYLOADS:
        envelope = golden_envelope(source)
    else:
        envelope = golden_file_envelope(GOLDEN_DIR / f"{source}.json", tmp_path)
    assert "".join(report_pieces(envelope)) == one_call_json(envelope)


def edge_payloads(size: int):
    """One payload per kind with ``size`` items in each long tuple."""
    ns = range(1, size + 1)
    cis = [None, Interval(0.25, 0.75)]
    points = tuple(CurvePoint(n, n / 3, cis[n % 2]) for n in ns)
    floats = tuple(n / 7 for n in ns)
    return [
        ("curve", CurveSet((ExpectedMaxCurve(points, EstimatorKind.UNBIASED_U, size),
                            ExpectedMaxCurve(points[:1], EstimatorKind.MEANMAX_V, 1)))),
        ("probe", ProbeReport(tuple(ProbeRow(n, 1, 3, 1 / 3, Interval(0.0, 0.9)) for n in ns),
                              B=4, estimator=EstimatorKind.MEANMAX_V, dist_id="d", seed=1, stream=0)),
        ("curves", CurveReport((ModelCurves("a", tuple(ns), floats, floats, floats),
                                ModelCurves("b", (), (), (), ())),
                               B=4, num_samples=2, estimator=EstimatorKind.MEANMAX_V, seed=1, stream=0)),
        ("failure_scan", FailureScanReport("a", "b", 4, EstimatorKind.MEANMAX_V,
                                           tuple(Inversion(n, "a", "b") for n in ns))),
        ("ks_bound", KsBoundReport(0.5, 4, tuple(KsBoundRow(n, 1 / n) for n in ns))),
    ]


@pytest.mark.parametrize("size", [0, 1, 1023, 1024, 1025, 2049])
def test_report_pieces_match_one_call_across_slice_edges(size):
    # Empty and one-item tuples, and sizes on either side of multiples of _SLICE_ITEMS.
    config = {"estimator": ["meanmax"], "nested": {"b": [1, {"z": None, "a": 0.1}], "a": True}}
    for kind, payload in edge_payloads(size):
        envelope = make_envelope(payload, config)
        pieces = report_pieces(envelope)
        assert "".join(pieces) == one_call_json(envelope)
        # No item here encodes to 100 characters, so no piece holds more than a slice.
        assert max(map(len, pieces)) < 100 * _SLICE_ITEMS


def test_report_encoding_does_not_copy_the_report(tmp_path):
    # json walks the report's own dataclasses, a slice of a tuple at a time; a
    # dict-and-list copy, or every piece of one json call, would cost several
    # times the text it encodes to.
    rng = np.random.default_rng(76)
    path = tmp_path / "curve.json"
    for size in (8000, 100_000):
        points = tuple(CurvePoint(n, float(v)) for n, v in enumerate(rng.uniform(size=size), 1))
        env = make_envelope(CurveSet((ExpectedMaxCurve(points, EstimatorKind.MEANMAX_V, 50),)),
                            {})
        peaks = []
        for encode in (lambda: write_report(env, path), lambda: report_json_text(env)):
            tracemalloc.start()
            try:
                encode()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # Writing never joins the pieces; the text is the pieces plus their join.
        assert peaks[0] <= 2 * path.stat().st_size, size
        assert peaks[1] <= 3 * path.stat().st_size, size


def test_a_report_that_fails_to_encode_writes_no_file(tmp_path):
    # The refused value sits in the last slice, after every other piece is made.
    rows = (*(KsBoundRow(n, 0.5) for n in range(1, 1100)), KsBoundRow(1100, 1j))
    envelope = make_envelope(KsBoundReport(0.5, 4, rows), {})
    message = "Object of type complex is not JSON serializable"
    with pytest.raises(TypeError, match=message):
        one_call_json(envelope)
    with pytest.raises(TypeError, match=message):
        write_report(envelope, tmp_path / "new.json")
    assert not (tmp_path / "new.json").exists()
    existing = tmp_path / "existing.json"
    existing.write_bytes(b"an earlier report\n")
    with pytest.raises(TypeError, match=message):
        write_report(envelope, existing)
    assert existing.read_bytes() == b"an earlier report\n"


@pytest.mark.parametrize("kind, field, literal, message", [
    ("probe", ("rows", 0, "proportion"), "NaN", "payload.rows[0].proportion must be finite, got nan"),
    ("ks_bound", ("cdf_at_max",), "Infinity", "payload.cdf_at_max must be finite, got inf"),
    ("coverage", ("rows", 0, "ecp"), "1e999", "payload.rows[0].ecp must be finite, got inf"),
    ("coverage", ("rows", 0, "ecp"), "1" + "0" * 400,
     "payload.rows[0].ecp must be finite, got an integer too large for a float"),
], ids=["probe-NaN", "ks_bound-Infinity", "coverage-1e999", "coverage-huge-integer"])
def test_read_report_refuses_a_float_that_no_report_can_hold(tmp_path, kind, field, literal,
                                                             message):
    # json reads NaN, Infinity and an overflowing literal, but none can be written back.
    obj = json.loads(report_json_text(golden_envelope(kind)))
    parent = obj["payload"]
    for key in field[:-1]:
        parent = parent[key]
    parent[field[-1]] = "@@"
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(obj).replace('"@@"', literal), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_report(path)
    assert str(err.value) == f"{path}: {message}"


# ---------------------------------------------------------------------------
# CSV flattening
# ---------------------------------------------------------------------------


def test_probe_csv_has_header_plus_row_per_n():
    rng = np.random.default_rng(75)
    probe = ProbeReport(
        rows=tuple(
            ProbeRow(n=n, underestimates=n, samples=10, proportion=n / 10,
                     ci=random_interval(rng))
            for n in range(1, 4)
        ),
        B=5, estimator=EstimatorKind.MEANMAX_V, dist_id="d", seed=1, stream=0,
    )
    text = report_csv_text(make_envelope(probe, {}))
    lines = text.strip().split("\n")
    assert lines[0] == "n,underestimates,samples,proportion,ci_lo,ci_hi"
    assert len(lines) == 4
    assert lines[1].startswith("1,1,10,0.1,")


def test_curve_csv_blank_ci_cells():
    curve = CurveSet((
        ExpectedMaxCurve(
            points=(CurvePoint(1, 0.5, None), CurvePoint(2, 0.75, Interval(0.6, 0.9))),
            estimator=EstimatorKind.UNBIASED_U,
            sample_size=4,
        ),
    ))
    text = report_csv_text(make_envelope(curve, {}))
    lines = text.strip().split("\n")
    assert lines[0] == "estimator,n,estimate,ci_lo,ci_hi"
    assert lines[1] == "unbiased,1,0.5,,"
    assert lines[2] == "unbiased,2,0.75,0.6,0.9"


def test_csv_headers_for_remaining_kinds():
    rng = np.random.default_rng(76)
    headers = {
        "coverage": "n,hits,samples,ecp,ci_lo,ci_hi",
        "curves": "model,n,estimate,true,stderr",
        "failure_scan": "n,true_leader,estimated_leader",
        "ks_bound": "n,bound",
    }
    for kind, payload in random_payloads(rng):
        if kind in headers:
            text = report_csv_text(make_envelope(payload, {}))
            assert text.split("\n", 1)[0] == headers[kind]
            assert text.endswith("\n")


def test_csv_round_trips_float_cells_exactly():
    value = 0.1234567890123456789
    probe = ProbeReport(
        rows=(ProbeRow(n=1, underestimates=3, samples=7, proportion=value,
                       ci=Interval(value / 2, value)),),
        B=2, estimator=EstimatorKind.MEANMAX_V, dist_id="", seed=0, stream=0,
    )
    text = report_csv_text(make_envelope(probe, {}))
    cell = text.strip().split("\n")[1].split(",")[3]
    assert float(cell) == value


# ---------------------------------------------------------------------------
# SVG charts
# ---------------------------------------------------------------------------


def local_name(tag):
    return tag.rsplit("}", 1)[-1]


def svg_elements(path):
    tree = ET.parse(path)  # raises if not well-formed XML
    return list(tree.getroot().iter())


def test_curves_chart_has_four_polylines(tmp_path):
    rng = np.random.default_rng(77)
    payload = [p for k, p in random_payloads(rng) if k == "curves"][0]
    env = make_envelope(payload, {})
    path = tmp_path / "curves.svg"
    emit_plot(env, path)
    elements = svg_elements(path)
    polylines = [e for e in elements if local_name(e.tag) == "polyline"]
    assert len(polylines) == 4
    dashed = [e for e in polylines if "stroke-dasharray" in e.attrib]
    assert len(dashed) == 2  # the two true curves


def test_svg_element_whitelist(tmp_path):
    rng = np.random.default_rng(78)
    allowed = {"svg", "rect", "line", "polyline", "polygon", "text", "g"}
    for kind, payload in random_payloads(rng):
        if kind == "failure_scan":
            continue
        path = tmp_path / f"{kind}.svg"
        emit_plot(make_envelope(payload, {}), path)
        assert {local_name(e.tag) for e in svg_elements(path)} <= allowed


def test_probe_chart_reference_line(tmp_path):
    rng = np.random.default_rng(79)
    payload = [p for k, p in random_payloads(rng) if k == "probe"][0]
    path = tmp_path / "probe.svg"
    emit_plot(make_envelope(payload, {}), path)
    dashed_lines = [
        e for e in svg_elements(path)
        if local_name(e.tag) == "line" and e.get("stroke-dasharray") == "4,3"
    ]
    assert len(dashed_lines) == 1


def test_chart_band_polygons_follow_cis(tmp_path):
    rng = np.random.default_rng(80)
    payload = [p for k, p in random_payloads(rng) if k == "coverage"][0]
    path = tmp_path / "coverage.svg"
    emit_plot(make_envelope(payload, {}), path)
    polygons = [e for e in svg_elements(path) if local_name(e.tag) == "polygon"]
    assert len(polygons) == 1

    # A curve payload whose points carry no CIs must not produce bands.
    bare = CurveSet((
        ExpectedMaxCurve(
            points=(CurvePoint(1, 0.5, None), CurvePoint(2, 0.7, None)),
            estimator=EstimatorKind.MEANMAX_V,
            sample_size=4,
        ),
    ))
    bare_path = tmp_path / "bare.svg"
    emit_plot(make_envelope(bare, {}), bare_path)
    assert [e for e in svg_elements(bare_path) if local_name(e.tag) == "polygon"] == []


def test_chart_writes_sidecar_csv(tmp_path):
    rng = np.random.default_rng(81)
    payload = [p for k, p in random_payloads(rng) if k == "curves"][0]
    env = make_envelope(payload, {})
    path = tmp_path / "chart.svg"
    emit_plot(env, path)
    sidecar = tmp_path / "chart.csv"
    assert sidecar.read_text(encoding="utf-8") == report_csv_text(env)


def test_failure_scan_has_no_chart_form(tmp_path):
    rng = np.random.default_rng(82)
    payload = [p for k, p in random_payloads(rng) if k == "failure_scan"][0]
    with pytest.raises(ValueError, match="chart"):
        emit_plot(make_envelope(payload, {}), tmp_path / "scan.svg")


def test_charts_from_real_curve(tmp_path):
    sample = ScoreSample(np.random.default_rng(83).normal(size=12))
    curve = expected_max_curve(sample, EstimatorKind.UNBIASED_U, 12)
    env = make_envelope(CurveSet((curve,)), {"B": 12})
    path = tmp_path / "real.svg"
    emit_plot(env, path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith("<?xml")
    assert "polyline" in text
