"""End-to-end CLI tests driving ``bestofn.cli.main`` in process."""

import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bestofn import (
    KDE_PRESETS,
    DiscreteDistribution,
    EstimatorKind,
    KdeSpec,
    RngStream,
    cli,
    fit_kde,
    percentile,
    save_distribution,
)
from bestofn.cli import DEFAULT_SEED, THREADS_ENV, main
from bestofn.estimators import curve_rows
from bestofn.io_formats import read_report, read_runs, report_json_text


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def write_runs(tmp_path, values, name="runs.csv"):
    path = tmp_path / name
    path.write_text("score\n" + "\n".join(repr(float(v)) for v in values) + "\n")
    return str(path)


def write_dist(tmp_path, support, mass, name):
    path = tmp_path / name
    save_distribution(DiscreteDistribution(support, mass), path)
    return str(path)


def load_payload(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["payload"]


def child_env():
    """Environment for a child interpreter that imports the bestofn under test,
    whether or not it is installed."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


@pytest.fixture
def ten_runs(tmp_path):
    rng = np.random.default_rng(90)
    return write_runs(tmp_path, rng.uniform(0.6, 0.9, size=10))


@pytest.fixture
def coin_dist(tmp_path):
    return write_dist(tmp_path, [0.0, 1.0], [0.5, 0.5], "coin.json")


@pytest.fixture
def point_mass_dist(tmp_path):
    return write_dist(tmp_path, [7.0], [1.0], "pm.json")


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------


def test_curve_writes_report(tmp_path, ten_runs):
    out = tmp_path / "out.json"
    code = main(["curve", "--runs", ten_runs, "--estimator", "unbiased",
                 "--n-max", "10", "-o", str(out)])
    assert code == 0
    payload = load_payload(out)
    assert len(payload["curves"]) == 1
    curve = payload["curves"][0]
    assert curve["estimator"] == "unbiased"
    assert [p["n"] for p in curve["points"]] == list(range(1, 11))


def test_curve_defaults_to_unbiased_full_budget(tmp_path, ten_runs, capsys):
    assert main(["curve", "--runs", ten_runs]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["curves"][0]["estimator"] == "unbiased"
    assert len(payload["curves"][0]["points"]) == 10


def test_curve_n_max_above_b_is_usage_error(tmp_path, capsys):
    runs = write_runs(tmp_path, np.random.default_rng(91).uniform(size=50))
    code = main(["curve", "--runs", runs, "--estimator", "unbiased", "--n-max", "200"])
    assert code == 2
    err = capsys.readouterr().err
    assert "--n-max 200" in err
    assert "50" in err


def test_curve_meanmax_extrapolates_with_warning(tmp_path, ten_runs, capsys):
    out = tmp_path / "out.json"
    code = main(["curve", "--runs", ten_runs, "--estimator", "meanmax",
                 "--n-max", "25", "-o", str(out)])
    assert code == 0
    assert "warning" in capsys.readouterr().err
    payload = load_payload(out)
    assert len(payload["curves"][0]["points"]) == 25


def test_curve_dominance_end_to_end(tmp_path, ten_runs):
    out_v = tmp_path / "v.json"
    out_u = tmp_path / "u.json"
    assert main(["curve", "--runs", ten_runs, "--estimator", "meanmax", "-o", str(out_v)]) == 0
    assert main(["curve", "--runs", ten_runs, "--estimator", "unbiased", "-o", str(out_u)]) == 0
    final_v = load_payload(out_v)["curves"][0]["points"][-1]["estimate"]
    final_u = load_payload(out_u)["curves"][0]["points"][-1]["estimate"]
    with open(ten_runs) as fh:
        scores = [float(line) for line in fh.read().splitlines()[1:]]
    assert final_u == max(scores)
    assert final_v < final_u


def test_curve_repeatable_estimator_flag(tmp_path, ten_runs):
    out = tmp_path / "both.json"
    code = main(["curve", "--runs", ten_runs, "--estimator", "meanmax",
                 "--estimator", "unbiased", "--estimator", "meanmax", "-o", str(out)])
    assert code == 0
    names = [c["estimator"] for c in load_payload(out)["curves"]]
    assert names == ["meanmax", "unbiased"]


def test_curve_ci_flag_attaches_intervals(tmp_path, ten_runs):
    out = tmp_path / "ci.json"
    code = main(["curve", "--runs", ten_runs, "--ci", "--resamples", "200",
                 "-o", str(out)])
    assert code == 0
    for point in load_payload(out)["curves"][0]["points"]:
        lo, hi = point["ci"]
        assert lo <= hi


def test_curve_ci_does_not_depend_on_estimator_order(tmp_path):
    runs = write_runs(tmp_path, [0.1, 0.5, 0.9, 0.3, 0.88, 0.44])
    kinds = ["unbiased", "meanmax", "meanmax-prefix"]
    curves = []
    for order in (kinds, kinds[::-1]):
        out = tmp_path / "ci.json"
        flags = [f for kind in order for f in ("--estimator", kind)]
        assert main(["curve", "--runs", runs, *flags, "--n-max", "3", "--ci",
                     "--resamples", "100", "-o", str(out)]) == 0
        curves.append({c["estimator"]: c for c in load_payload(out)["curves"]})
    forward, backward = curves
    for kind in kinds:
        assert forward[kind] == backward[kind]


@pytest.mark.parametrize("kind, n_max", [("unbiased", 12), ("meanmax-prefix", 12), ("meanmax", 30)])
def test_curve_ci_reads_every_budget_off_one_resample_matrix(tmp_path, kind, n_max):
    scores = np.random.default_rng(91).normal(size=12)
    runs = write_runs(tmp_path, scores)
    out = tmp_path / "ci.json"
    assert main(["curve", "--runs", runs, "--estimator", kind, "--n-max", str(n_max), "--ci",
                 "--resamples", "150", "--confidence", "0.9", "--seed", "77", "-o", str(out)]) == 0
    stream = {"unbiased": 0, "meanmax": 1, "meanmax-prefix": 2}[kind]
    gen = RngStream(77, 1).child(stream).generator()
    estimates = curve_rows(
        np.sort(scores)[gen.integers(0, 12, size=(150, 12))], EstimatorKind.parse(kind), n_max
    )
    alpha = 1.0 - 0.9
    want = [
        [percentile(column, alpha / 2.0), percentile(column, 1.0 - alpha / 2.0)]
        for column in estimates.T
    ]
    assert [p["ci"] for p in load_payload(out)["curves"][0]["points"]] == want


def test_curve_csv_to_stdout(tmp_path, ten_runs, capsys):
    assert main(["curve", "--runs", ten_runs, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("estimator,n,estimate,ci_lo,ci_hi\n")
    assert len(out.strip().split("\n")) == 11


def test_curve_missing_runs_file_is_data_error(tmp_path, capsys):
    code = main(["curve", "--runs", str(tmp_path / "nope.csv")])
    assert code == 1
    assert "bestofn: error:" in capsys.readouterr().err


def test_curve_nan_runs_file_names_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("0.5\nNaN\n")
    assert main(["curve", "--runs", str(path)]) == 1
    assert "line 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_preset_gives_511_bins(tmp_path):
    runs = write_runs(tmp_path, np.random.default_rng(92).uniform(0.74, 0.80, size=40))
    out = tmp_path / "mlp.json"
    assert main(["fit", "--runs", runs, "--preset", "mlp", "-o", str(out)]) == 0
    with open(out) as fh:
        dist = json.load(fh)
    assert len(dist["support"]) == 511
    assert 0.72 <= dist["support"][0] <= dist["support"][-1] <= 0.82


def test_fit_explicit_flags_override_preset(tmp_path):
    runs = write_runs(tmp_path, np.random.default_rng(93).uniform(0.74, 0.80, size=40))
    out = tmp_path / "small.json"
    assert main(["fit", "--runs", runs, "--preset", "mlp", "--bins", "64", "-o", str(out)]) == 0
    with open(out) as fh:
        assert len(json.load(fh)["support"]) == 64


def test_fit_streams_canonical_json(tmp_path, ten_runs, capsys):
    assert main(["fit", "--runs", ten_runs, "--bandwidth", "0.05", "--bins", "16"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    dist = json.loads(out)
    assert len(dist["support"]) == 16


def test_fit_zero_bandwidth_is_usage_error(tmp_path, ten_runs, capsys):
    assert main(["fit", "--runs", ten_runs, "--bandwidth", "0"]) == 2
    assert "--bandwidth" in capsys.readouterr().err


def test_fit_junk_bandwidth_is_usage_error(tmp_path, ten_runs):
    assert main(["fit", "--runs", ten_runs, "--bandwidth", "wide"]) == 2


def test_fit_scott_on_constant_scores_is_data_error(tmp_path, capsys):
    runs = write_runs(tmp_path, [0.5, 0.5, 0.5, 0.5])
    assert main(["fit", "--runs", runs]) == 1
    assert "--bandwidth" in capsys.readouterr().err


def test_fit_inverted_support_is_usage_error(tmp_path, ten_runs):
    assert main(["fit", "--runs", ten_runs, "--support-lo", "1.0",
                 "--support-hi", "0.0"]) == 2


FIT_FLAG_SETS = [
    ([], {}),
    (["--preset", "glove"], {}),
    (["--preset", "mlp", "--bins", "64"], {"bins": 64}),
    (["--bandwidth", "0.05", "--bins", "16"], {"bandwidth": 0.05, "bins": 16}),
    (["--bandwidth", "0.05", "--support-lo", "-0.2"], {"bandwidth": 0.05, "support_lo": -0.2}),
    (["--support-hi", "1.5"], {"support_hi": 1.5}),
    (["--preset", "elmo", "--bandwidth", "scott"], {"bandwidth": "scott"}),
    (["--preset", "lstm", "--support-lo", "0.1"], {"support_lo": 0.1}),
]


@pytest.mark.parametrize("flags, given", FIT_FLAG_SETS,
                         ids=[" ".join(f) or "none" for f, _ in FIT_FLAG_SETS])
def test_fit_passes_on_only_the_flags_given(tmp_path, ten_runs, flags, given):
    out = tmp_path / "cli.json"
    assert main(["fit", "--runs", ten_runs, *flags, "-o", str(out)]) == 0
    preset = KDE_PRESETS[flags[1]] if flags[:1] == ["--preset"] else None
    expected = tmp_path / "library.json"
    save_distribution(fit_kde(read_runs(ten_runs), replace(preset or KdeSpec(), **given)), expected)
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("size", [1, 10, 1000])
def test_fit_huge_bandwidth_gives_a_flat_mass(tmp_path, size):
    runs = write_runs(tmp_path, np.random.default_rng(94).uniform(0.6, 0.9, size=size))
    out = tmp_path / "flat.json"
    args = ["fit", "--runs", runs, "--bandwidth", "1e308", "--support-lo", "0", "--support-hi", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*args, "--bins", "16", "-o", str(out)]) == 0
    mass = np.array(json.loads(out.read_text())["mass"])
    assert mass.size == 16
    assert np.array_equal(mass, np.full(16, mass[0]))
    assert mass.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("values, flags, detail", [
    ([0.5, 0.5, 0.5, 0.5], [], "--bandwidth"),
    ([0.6, 0.7, 0.8], ["--support-lo", "100", "--support-hi", "101", "--bandwidth", "0.001"],
     "mass vanishes"),
], ids=["constant scores", "vanishing mass"])
def test_fit_data_errors_name_the_runs_file(tmp_path, values, flags, detail, capsys):
    runs = write_runs(tmp_path, values, name="scores-42.csv")
    assert main(["fit", "--runs", runs, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bestofn: error: {runs}: ")
    assert detail in err


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------


def test_probe_payload_is_deterministic(tmp_path, coin_dist):
    args = ["probe", "--dist", coin_dist, "--B", "12", "--n-max", "4",
            "--samples", "60", "--seed", "7"]
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["-o", str(out_a)]) == 0
    assert main(args + ["-o", str(out_b)]) == 0
    with open(out_a) as fa, open(out_b) as fb:
        a, b = json.load(fa), json.load(fb)
    a.pop("created"), b.pop("created")
    assert a == b


def test_probe_thread_flag_never_changes_payload(tmp_path, coin_dist):
    base = ["probe", "--dist", coin_dist, "--B", "10", "--n-max", "5",
            "--samples", "50"]
    out_1, out_3 = tmp_path / "t1.json", tmp_path / "t3.json"
    assert main(base + ["--threads", "1", "-o", str(out_1)]) == 0
    assert main(base + ["--threads", "3", "-o", str(out_3)]) == 0
    assert load_payload(out_1) == load_payload(out_3)


def test_probe_threads_env_var(tmp_path, coin_dist, monkeypatch):
    base = ["probe", "--dist", coin_dist, "--B", "8", "--n-max", "3",
            "--samples", "40"]
    out_env, out_flag = tmp_path / "env.json", tmp_path / "flag.json"
    monkeypatch.setenv(THREADS_ENV, "2")
    assert main(base + ["-o", str(out_env)]) == 0
    monkeypatch.delenv(THREADS_ENV)
    assert main(base + ["--threads", "2", "-o", str(out_flag)]) == 0
    assert load_payload(out_env) == load_payload(out_flag)


def test_probe_invalid_threads_env_is_usage_error(tmp_path, coin_dist, monkeypatch, capsys):
    monkeypatch.setenv(THREADS_ENV, "many")
    code = main(["probe", "--dist", coin_dist, "--B", "4", "--samples", "10"])
    assert code == 2
    assert THREADS_ENV in capsys.readouterr().err


def test_probe_dist_id_from_name_equals_path(tmp_path, coin_dist):
    out = tmp_path / "named.json"
    assert main(["probe", "--dist", f"flipper={coin_dist}", "--B", "6",
                 "--n-max", "2", "--samples", "20", "-o", str(out)]) == 0
    assert load_payload(out)["dist_id"] == "flipper"


def test_probe_dist_id_defaults_to_stem(tmp_path, coin_dist):
    out = tmp_path / "stem.json"
    assert main(["probe", "--dist", coin_dist, "--B", "6", "--n-max", "2",
                 "--samples", "20", "-o", str(out)]) == 0
    assert load_payload(out)["dist_id"] == "coin"


def test_probe_bounded_estimator_rejects_nmax_above_b(coin_dist, capsys):
    code = main(["probe", "--dist", coin_dist, "--B", "10", "--n-max", "11",
                 "--samples", "10", "--estimator", "unbiased"])
    assert code == 2
    assert "--n-max 11" in capsys.readouterr().err


def test_probe_progress_goes_to_stderr(tmp_path, coin_dist, capsys):
    out = tmp_path / "p.json"
    assert main(["probe", "--dist", coin_dist, "--B", "4", "--n-max", "2",
                 "--samples", "10", "-o", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "probe: 10/10 samples\n"  # one chunk of samples serves both budgets


def test_probe_svg_flag_writes_chart_and_sidecar(tmp_path, coin_dist):
    out = tmp_path / "p.json"
    svg = tmp_path / "p.svg"
    assert main(["probe", "--dist", coin_dist, "--B", "6", "--n-max", "3",
                 "--samples", "20", "-o", str(out), "--svg", str(svg)]) == 0
    assert svg.read_text().startswith("<?xml")
    assert (tmp_path / "p.csv").exists()


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------


def test_coverage_point_mass_all_hits(tmp_path, point_mass_dist):
    out = tmp_path / "cov.json"
    code = main(["coverage", "--dist", point_mass_dist, "--B", "6", "--n-max", "3",
                 "--M", "20", "--resamples", "50", "-o", str(out)])
    assert code == 0
    payload = load_payload(out)
    assert [row["ecp"] for row in payload["rows"]] == [1.0, 1.0, 1.0]


def test_coverage_nmax_defaults_to_twenty_capped(tmp_path, point_mass_dist):
    out = tmp_path / "cov.json"
    code = main(["coverage", "--dist", point_mass_dist, "--B", "5",
                 "--M", "5", "--resamples", "20", "-o", str(out)])
    assert code == 0
    assert [row["n"] for row in load_payload(out)["rows"]] == [1, 2, 3, 4, 5]


def test_coverage_rejects_bad_confidence(point_mass_dist, capsys):
    code = main(["coverage", "--dist", point_mass_dist, "--confidence", "1.5"])
    assert code == 2
    assert "--confidence" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# curves-sim and failure-scan
# ---------------------------------------------------------------------------


@pytest.fixture
def crossing_pair(tmp_path):
    steady = write_dist(tmp_path, [0.8], [1.0], "steady.json")
    volatile = write_dist(tmp_path, [0.5, 1.0], [0.9, 0.1], "volatile.json")
    return steady, volatile


def test_curves_sim_then_failure_scan(tmp_path, crossing_pair):
    steady, volatile = crossing_pair
    report = tmp_path / "curves.json"
    code = main(["curves-sim", "--dist", f"steady={steady}",
                 "--dist", f"volatile={volatile}", "--B", "15",
                 "--samples", "1500", "--estimator", "meanmax", "-o", str(report)])
    assert code == 0
    scan = tmp_path / "scan.json"
    assert main(["failure-scan", "--report", str(report), "-o", str(scan)]) == 0
    payload = load_payload(scan)
    assert payload["model_a"] == "steady"
    assert payload["model_b"] == "volatile"
    assert payload["estimator"] == "meanmax"
    assert len(payload["inversions"]) > 0
    for inv in payload["inversions"]:
        assert {"n", "true_leader", "estimated_leader"} <= set(inv)


def test_failure_scan_clean_for_unbiased(tmp_path, crossing_pair):
    steady, volatile = crossing_pair
    report = tmp_path / "curves_u.json"
    assert main(["curves-sim", "--dist", f"steady={steady}",
                 "--dist", f"volatile={volatile}", "--B", "15",
                 "--samples", "1500", "--estimator", "unbiased",
                 "-o", str(report)]) == 0
    scan = tmp_path / "scan_u.json"
    assert main(["failure-scan", "--report", str(report), "-o", str(scan)]) == 0
    assert load_payload(scan)["inversions"] == []


def test_curves_sim_duplicate_name_is_usage_error(crossing_pair, capsys):
    steady, _ = crossing_pair
    code = main(["curves-sim", "--dist", steady, "--dist", f"steady={steady}",
                 "--B", "4", "--samples", "5"])
    assert code == 2
    assert "steady" in capsys.readouterr().err


def test_failure_scan_unknown_model_is_usage_error(tmp_path, crossing_pair, capsys):
    steady, volatile = crossing_pair
    report = tmp_path / "r.json"
    assert main(["curves-sim", "--dist", steady, "--dist", volatile,
                 "--B", "4", "--samples", "10", "-o", str(report)]) == 0
    code = main(["failure-scan", "--report", str(report),
                 "--model-a", "steady", "--model-b", "zzz"])
    assert code == 2
    assert "zzz" in capsys.readouterr().err


def test_failure_scan_rejects_non_curves_report(tmp_path, coin_dist, capsys):
    probe_report = tmp_path / "probe.json"
    assert main(["probe", "--dist", coin_dist, "--B", "4", "--n-max", "2",
                 "--samples", "10", "-o", str(probe_report)]) == 0
    assert main(["failure-scan", "--report", str(probe_report)]) == 2
    assert "curves-sim" in capsys.readouterr().err


@pytest.mark.parametrize("point", [
    '{"n": 1, "estimate": 0.5, "ci": [0.9, 0.1]}',
    '{"n": 1, "estimate": 0.5, "ci": [NaN, 0.9]}',
    '{"n": 1, "estimate": NaN, "ci": null}',
])
def test_impossible_curve_point_is_data_error_naming_the_report(tmp_path, ten_runs, point, capsys):
    report = tmp_path / "curve.json"
    assert main(["curve", "--runs", ten_runs, "--n-max", "1", "-o", str(report)]) == 0
    good = report.read_text(encoding="utf-8")
    start = good.index('"points":[') + len('"points":[')
    report.write_text(good[:start] + point + good[good.index("}", start) + 1:], encoding="utf-8")
    assert main(["failure-scan", "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert str(report) in err
    assert "curve point n=1" in err


@pytest.mark.parametrize("edit, message", [
    (lambda m: m.update(true=m["true"][:3]), "true"),
    (lambda m: m["averaged"].__setitem__(2, float("nan")), "averaged"),
], ids=["true-cut-short", "averaged-nan"])
def test_impossible_curves_model_is_data_error_naming_the_report(
    tmp_path, crossing_pair, edit, message, capsys
):
    steady, volatile = crossing_pair
    report = tmp_path / "r.json"
    assert main(["curves-sim", "--dist", steady, "--dist", volatile,
                 "--B", "4", "--samples", "10", "-o", str(report)]) == 0
    broken = json.loads(report.read_text(encoding="utf-8"))
    edit(broken["payload"]["models"][1])
    report.write_text(json.dumps(broken), encoding="utf-8")
    assert main(["failure-scan", "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert str(report) in err
    assert f"model 'volatile': {message} must hold one finite value per budget" in err


@pytest.mark.parametrize("command, content", [
    (["probe", "--dist"], b'{"mass": [1.0]}'),
    (["probe", "--dist"], b"[0.0, 1.0]"),
    (["probe", "--dist"], b'{"support": [0.0, 1.0], "mass": [0.5,'),
    (["probe", "--dist"], b'{"support": ["low", 1.0], "mass": [0.5, 0.5]}'),
    (["probe", "--dist"], b'{"support": [1.0, 0.0], "mass": [0.5, 0.5]}'),
    (["curves-sim", "--dist"], b'{"support": [1.0, 0.0], "mass": [0.5, 0.5]}'),
    (["curve", "--runs"], b"score\n0.5\n\xff\xfe\n"),
    (["failure-scan", "--report"], b'{"schema_version": "1", \xff}'),
    (["failure-scan", "--report"], b'{"schema_version": "1",'),
], ids=["dist-without-support", "dist-top-level-list", "dist-malformed-json", "dist-string-support",
        "dist-decreasing-support", "curves-sim-dist-decreasing-support", "runs-not-utf8",
        "report-not-utf8", "report-malformed-json"])
def test_bad_input_file_is_data_error_naming_the_file(tmp_path, command, content, capsys):
    path = tmp_path / "input.bad"
    path.write_bytes(content)
    assert main([*command, str(path)]) == 1
    assert str(path) in capsys.readouterr().err


def test_failure_scan_names_missing_payload_fields(tmp_path, crossing_pair, capsys):
    steady, volatile = crossing_pair
    report = tmp_path / "r.json"
    assert main(["curves-sim", "--dist", steady, "--dist", volatile,
                 "--B", "4", "--samples", "10", "-o", str(report)]) == 0
    good = json.loads(report.read_text(encoding="utf-8"))
    for field, delete in (
        ("payload.models", lambda p: p.pop("models")),
        ("payload.models[1].true", lambda p: p["models"][1].pop("true")),
    ):
        broken = json.loads(json.dumps(good))
        delete(broken["payload"])
        report.write_text(json.dumps(broken), encoding="utf-8")
        assert main(["failure-scan", "--report", str(report)]) == 1
        err = capsys.readouterr().err
        assert str(report) in err
        assert f"missing field {field}" in err


def test_failure_scan_names_ill_typed_payload_fields(tmp_path, crossing_pair, capsys):
    steady, volatile = crossing_pair
    report = tmp_path / "r.json"
    assert main(["curves-sim", "--dist", steady, "--dist", volatile,
                 "--B", "4", "--samples", "10", "-o", str(report)]) == 0
    broken = json.loads(report.read_text(encoding="utf-8"))
    broken["payload"]["models"][0]["budgets"][2] = "three"
    report.write_text(json.dumps(broken), encoding="utf-8")
    assert main(["failure-scan", "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert str(report) in err
    assert "payload.models[0].budgets[2] must be of type int" in err


# ---------------------------------------------------------------------------
# Report bytes round trip
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def real_reports(tmp_path_factory):
    """One report written by the CLI for each payload kind, by name."""
    tmp = tmp_path_factory.mktemp("reports")
    runs = write_runs(tmp, np.random.default_rng(94).uniform(0.6, 0.9, size=12))
    coin = write_dist(tmp, [0.0, 1.0], [0.5, 0.5], "coin.json")
    steady = write_dist(tmp, [0.8], [1.0], "steady.json")
    volatile = write_dist(tmp, [0.5, 1.0], [0.9, 0.1], "volatile.json")
    commands = {
        "curve": ["curve", "--runs", runs, "--estimator", "unbiased", "--estimator", "meanmax"],
        "curve-ci": ["curve", "--runs", runs, "--n-max", "5", "--ci", "--resamples", "50"],
        "probe": ["probe", "--dist", coin, "--B", "6", "--n-max", "4", "--samples", "30"],
        "coverage": ["coverage", "--dist", coin, "--B", "6", "--n-max", "3", "--M", "10",
                     "--resamples", "30"],
        "curves-sim": ["curves-sim", "--dist", steady, "--dist", volatile, "--B", "10",
                       "--samples", "200"],
        "failure-scan": ["failure-scan", "--report", str(tmp / "curves-sim.json")],
        "ks-bound": ["ks-bound", "--runs", runs, "--cdf-at-max", "0.95"],
    }
    for name, args in commands.items():  # curves-sim runs before failure-scan
        assert main([*args, "-o", str(tmp / f"{name}.json")]) == 0
    return {name: tmp / f"{name}.json" for name in commands}


@pytest.mark.parametrize("name", ["curve", "curve-ci", "probe", "coverage", "curves-sim",
                                  "failure-scan", "ks-bound"])
def test_report_bytes_survive_read_and_rewrite(real_reports, name):
    path = real_reports[name]
    assert report_json_text(read_report(path)).encode("utf-8") == path.read_bytes()


# ---------------------------------------------------------------------------
# ks-bound
# ---------------------------------------------------------------------------


def test_ks_bound_rows(tmp_path, ten_runs):
    out = tmp_path / "ks.json"
    code = main(["ks-bound", "--runs", ten_runs, "--cdf-at-max", "0.9",
                 "--n-max", "10", "-o", str(out)])
    assert code == 0
    payload = load_payload(out)
    assert payload["cdf_at_max"] == 0.9
    assert payload["B"] == 10
    assert [r["n"] for r in payload["rows"]] == list(range(1, 11))
    bounds = [r["bound"] for r in payload["rows"]]
    assert abs(bounds[-1] - 0.6513215599) < 1e-9
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_ks_bound_rejects_cdf_outside_unit_interval(ten_runs, capsys):
    assert main(["ks-bound", "--runs", ten_runs, "--cdf-at-max", "1.2"]) == 2
    assert "--cdf-at-max" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Usage errors name their flag
# ---------------------------------------------------------------------------


BAD_FLAGS = [
    (["curve", "--runs", "RUNS", "--n-max", "0"], "--n-max"),
    (["probe", "--dist", "DIST", "--n-max", "0"], "--n-max"),
    (["coverage", "--dist", "DIST", "--n-max", "0"], "--n-max"),
    (["ks-bound", "--runs", "RUNS", "--cdf-at-max", "0.5", "--n-max", "0"], "--n-max"),
    (["probe", "--dist", "DIST", "--B", "0"], "--B"),
    (["probe", "--dist", "DIST", "--samples", "0"], "--samples"),
    (["curves-sim", "--dist", "DIST", "--B", "0"], "--B"),
    (["coverage", "--dist", "DIST", "--M", "0"], "--M"),
    (["curve", "--runs", "RUNS", "--resamples", "0"], "--resamples"),
    (["coverage", "--dist", "DIST", "--resamples", "0"], "--resamples"),
    (["curve", "--runs", "RUNS", "--confidence", "1.5"], "--confidence"),
    (["fit", "--runs", "RUNS", "--bins", "1"], "--bins"),
    (["fit", "--runs", "RUNS", "--bandwidth", "inf"], "--bandwidth"),
    (["fit", "--runs", "RUNS", "--bandwidth", "wide"], "--bandwidth"),
    (["fit", "--runs", "RUNS", "--bandwidth", "1e308"], "--bandwidth"),
    (["fit", "--runs", "RUNS", "--support-lo=-inf"], "--support-lo"),
    (["fit", "--runs", "RUNS", "--support-hi=inf"], "--support-hi"),
    (["fit", "--runs", "RUNS", "--bandwidth", "1e308", "--support-lo", "0"], "--bandwidth"),
    (["fit", "--runs", "RUNS", "--bandwidth", "-1"], "--bandwidth"),
    (["fit", "--runs", "RUNS", "--bandwidth", "nan"], "--bandwidth"),
    (["fit", "--runs", "RUNS", "--support-lo", "5"], "--support-lo"),
    (["fit", "--runs", "RUNS", "--preset", "mlp", "--support-lo", "0.9"], "--support-lo"),
    (["probe", "--dist", "DIST", "--threads", "0"], "--threads"),
]


@pytest.mark.parametrize("argv, flag", BAD_FLAGS,
                         ids=[" ".join(argv[:1] + argv[3:]) for argv, _ in BAD_FLAGS])
def test_bad_flag_is_usage_error_naming_it(ten_runs, coin_dist, argv, flag, capsys):
    argv = [{"RUNS": ten_runs, "DIST": coin_dist}.get(a, a) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"bestofn: error: {flag} ")


def test_zero_threads_env_is_usage_error(coin_dist, monkeypatch, capsys):
    monkeypatch.setenv(THREADS_ENV, "0")
    assert main(["probe", "--dist", coin_dist, "--B", "4", "--samples", "10"]) == 2
    assert THREADS_ENV in capsys.readouterr().err


def test_curve_checks_every_budget_before_computing_any(ten_runs, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "expected_max_curve", lambda *args: calls.append(args))
    code = main(["curve", "--runs", ten_runs, "--estimator", "meanmax",
                 "--estimator", "unbiased", "--n-max", "1000000000"])
    assert code == 2
    assert calls == []
    assert "--n-max 1000000000" in capsys.readouterr().err


def test_missing_input_is_reported_before_bad_flags(tmp_path, capsys):
    assert main(["probe", "--dist", str(tmp_path / "nope.json"), "--B", "0"]) == 1
    assert "nope.json" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Parser-level behavior
# ---------------------------------------------------------------------------


HELP_EXPECTATIONS = {
    "curve": ["--runs", "--estimator", "--n-max", "--ci", "--resamples",
              "--confidence", "--seed", "(default: unbiased)",
              f"(default: {DEFAULT_SEED})", "(default: 1000)", "(default: 0.95)",
              "(default: json)"],
    "fit": ["--preset", "--bandwidth", "--support-lo", "--support-hi", "--bins",
            "(default: scott)", "(default: 511)"],
    "probe": ["--dist", "--B", "--n-max", "--samples", "--estimator", "--threads",
              "(default: 50)", "(default: 1000)", "(default: meanmax)",
              f"(default: {DEFAULT_SEED})"],
    "coverage": ["--M", "--resamples", "--confidence", "(default: 300)",
                 "(default: 1000)", "(default: 20, capped at B)"],
    "curves-sim": ["--dist", "--samples", "(default: 50)", "(default: 1000)"],
    "failure-scan": ["--report", "--model-a", "--model-b", "two-model report"],
    "ks-bound": ["--cdf-at-max", "--n-max", "(default: 10)"],
}


@pytest.mark.parametrize("command", sorted(HELP_EXPECTATIONS))
def test_help_lists_flags_with_defaults(command, capsys):
    assert main([command, "--help"]) == 0
    text = capsys.readouterr().out
    for expected in HELP_EXPECTATIONS[command]:
        assert expected in text, f"{command} --help is missing {expected!r}"


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_cli_import_leaves_scipy_stats_unloaded():
    code = (
        "import sys, bestofn.cli; print('scipy.stats' in sys.modules or 'concurrent.futures' in sys.modules); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert result.returncode == 0, result.stderr
    stats_loaded, scipy_modules = result.stdout.split("\n")[:2]
    assert stats_loaded == "False"
    # Only the batteries' Clopper-Pearson intervals need scipy, imported on use.
    assert scipy_modules == "[]"


def test_curve_report_names_its_provenance_without_loading_scipy_submodules(tmp_path):
    runs, out = tmp_path / "runs.csv", tmp_path / "curve.json"
    runs.write_text("score\n0.1\n0.5\n0.9\n")
    code = (
        "import sys, bestofn.cli; "
        f"code = bestofn.cli.main(['curve', '--runs', {str(runs)!r}, '-o', {str(out)!r}]); "
        "print(code, 'scipy.special' in sys.modules or 'scipy.stats' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "False"]
    provenance = json.loads(out.read_text())["provenance"]
    assert provenance["rng_layout"] == "philox4x64-splitmix64/2"
    assert set(provenance) == {"python", "numpy", "scipy", "rng_layout"}


def test_cli_import_leaves_numpy_random_unloaded():
    code = "import sys, bestofn.cli; print('numpy.random' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "bestofn", "--help"],
        capture_output=True, text=True, env=child_env(),
    )
    assert result.returncode == 0
    assert "curves-sim" in result.stdout
