"""End-to-end CLI tests driving ``bestofn.cli.main`` in process."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bestofn import (
    KDE_PRESETS,
    ArgumentError,
    DiscreteDistribution,
    EstimatorKind,
    Interval,
    KdeSpec,
    RngStream,
    ScoreSample,
    cli,
    fit_kde,
    resampling,
    save_distribution,
)
from bestofn.cli import DEFAULT_SEED, main
from bestofn.distributions import canonical_json
from bestofn.estimators import _REPORT_ROW_BYTES, curve_rows
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


def refuse_arrays(monkeypatch, refused):
    # np.empty refuses each shape that `refused` picks as numpy refuses an
    # array it cannot allocate, so a test never asks for the memory.
    empty = np.empty

    def refusing(shape, *args, **kwargs):
        if refused(tuple(np.atleast_1d(shape))):
            raise MemoryError(f"Unable to allocate an array of shape {shape}")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refusing)


def test_interval_ends_too_many_to_hold_are_usage_errors(tmp_path, capsys, monkeypatch):
    # The report fits, but the (2, n_max) table of bootstrap interval ends does not:
    # library callers and the CLI both get an error naming n_max.
    refuse_arrays(monkeypatch, lambda shape: shape == (2, 3000))
    sample = ScoreSample(np.random.default_rng(92).uniform(size=50))
    config = resampling.BootstrapConfig(RngStream(DEFAULT_SEED, 1), resamples=10)
    with pytest.raises(ArgumentError) as refused:
        resampling.percentile_bootstrap_curve(sample, EstimatorKind.MEANMAX_V, 3000, config)
    assert (refused.value.name, refused.value.detail) == (
        "n_max", "3000: the table of interval ends does not fit in memory")
    runs = write_runs(tmp_path, sample.ingested_values)
    assert main(["curve", "--runs", runs, "--estimator", "meanmax", "--ci", "--resamples", "10",
                 "--n-max", "3000"]) == 2
    assert capsys.readouterr().err.endswith(
        "bestofn: error: --n-max 3000: the table of interval ends does not fit in memory\n")


def refuse_gaps(monkeypatch):
    # The walker's subtraction of the (1000, 16) resample matrix's gaps runs out of memory
    # as numpy does when it cannot allocate the buffer of the overlapping subtraction.
    subtract = np.subtract

    def refusing(a, b, *args, out=None, **kwargs):
        if np.shape(out) == (1000, 15):
            raise MemoryError(f"Unable to allocate an array of shape {np.shape(out)}")
        return subtract(a, b, *args, out=out, **kwargs)

    monkeypatch.setattr(np, "subtract", refusing)


@pytest.mark.parametrize("many, refused", [
    # Past numpy's largest array numpy itself refuses the shape, as a ValueError.
    (10**18, None),
    # The resample matrix is refused before any resample is drawn.
    (10**14, lambda shape: math.prod(shape) >= 10**8),
    # The (1000, 16) resample matrix fits, but the walk's gaps over it do not.
    (1000, refuse_gaps),
], ids=["past-numpy", "matrix", "fill"])
def test_resamples_too_many_to_hold_are_usage_errors(many, refused, tmp_path, capsys, monkeypatch,
                                                     coin_dist):
    runs = write_runs(tmp_path, np.random.default_rng(93).uniform(size=16))
    if refused is refuse_gaps:
        refuse_gaps(monkeypatch)
    elif refused:
        refuse_arrays(monkeypatch, refused)
    commands = (["curve", "--runs", runs, "--ci"],
                ["coverage", "--dist", coin_dist, "--B", "16", "--M", "3"])
    for command in commands:
        assert main([*command, "--resamples", str(many)]) == 2
        assert capsys.readouterr().err.endswith(
            f"bestofn: error: --resamples {many}: the resample matrix does not fit in memory\n")


def test_resamples_too_many_to_sort_are_usage_errors(tmp_path, capsys, monkeypatch, coin_dist):
    # The prefix estimator's (1000, 16) resample matrix fits, but its estimates sort
    # (1000, n) prefixes of it, and those sorts are refused.
    sort = np.sort

    def refusing(a, *args, **kwargs):
        if np.ndim(a) == 2 and len(a) == 1000:
            raise MemoryError(f"Unable to allocate an array of shape {np.shape(a)}")
        return sort(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", refusing)
    runs = write_runs(tmp_path, np.random.default_rng(94).uniform(size=16))
    commands = (["curve", "--runs", runs, "--ci"],
                ["coverage", "--dist", coin_dist, "--B", "16", "--M", "3"])
    for command in commands:
        assert main([*command, "--estimator", "meanmax-prefix", "--resamples", "1000"]) == 2
        assert capsys.readouterr().err.endswith(
            "bestofn: error: --resamples 1000: the resample matrix does not fit in memory\n")


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
        np.sort(scores)[gen.integers(0, 12, size=(150, 12))], EstimatorKind(kind), n_max
    )
    alpha = 1.0 - 0.9
    want = [
        [float(np.quantile(column, alpha / 2.0)), float(np.quantile(column, 1.0 - alpha / 2.0))]
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


@pytest.mark.parametrize("bins, refused", [
    # Past numpy's largest array numpy itself refuses the shape, as a ValueError.
    (10**22, None),
    (10**11, lambda shape: math.prod(shape) >= 10**8),
], ids=["past-numpy", "array"])
def test_fit_bins_too_many_to_hold_are_usage_errors(bins, refused, ten_runs, capsys, monkeypatch):
    if refused:
        refuse_arrays(monkeypatch, refused)
    assert main(["fit", "--runs", ten_runs, "--bins", str(bins)]) == 2
    assert capsys.readouterr().err.endswith(
        f"bestofn: error: --bins {bins}: the distribution does not fit in memory\n")


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


def test_seeds_2_to_the_64_apart_draw_the_same_rows(tmp_path, coin_dist):
    # Seeds are taken mod 2^64 (documented, not refused); the report echoes the seed as given.
    payloads = {}
    for seed in (1, 2**64 + 1, 2):
        out = tmp_path / f"{seed}.json"
        assert main(["probe", "--dist", coin_dist, "--B", "12", "--n-max", "4", "--samples", "60",
                     "--seed", str(seed), "-o", str(out)]) == 0
        payloads[seed] = load_payload(out)
    assert payloads[2**64 + 1]["rows"] == payloads[1]["rows"] != payloads[2]["rows"]
    assert [payloads[seed]["seed"] for seed in (1, 2**64 + 1)] == [1, 2**64 + 1]


def test_probe_thread_flag_never_changes_payload(tmp_path, coin_dist):
    base = ["probe", "--dist", coin_dist, "--B", "10", "--n-max", "5",
            "--samples", "50"]
    out_1, out_3 = tmp_path / "t1.json", tmp_path / "t3.json"
    assert main(base + ["--threads", "1", "-o", str(out_1)]) == 0
    assert main(base + ["--threads", "3", "-o", str(out_3)]) == 0
    assert load_payload(out_1) == load_payload(out_3)


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


@pytest.mark.parametrize("report, chart", [("out.csv", "out.svg"), ("same.svg", "same.svg")])
def test_svg_that_would_overwrite_the_report_is_usage_error(
    tmp_path, ten_runs, monkeypatch, report, chart, capsys
):
    monkeypatch.chdir(tmp_path)  # a relative -o and an absolute --svg name the same file
    assert main(["curve", "--runs", ten_runs, "-o", report, "--svg", str(tmp_path / chart)]) == 2
    assert capsys.readouterr().err.startswith("bestofn: error: --svg ")
    assert not (tmp_path / report).exists()
    assert not (tmp_path / chart).exists()


@pytest.mark.parametrize("argv, flag, other", [
    (["curve", "--runs", "scores.csv", "--svg", "scores.svg", "-o", "r.json"], "--svg", "--runs"),
    (["curve", "--runs", "scores.csv", "-o", "{tmp}/scores.csv"], "--output", "--runs"),
    (["fit", "--runs", "scores.csv", "-o", "scores.csv"], "--output", "--runs"),
    (["ks-bound", "--runs", "{tmp}/scores.csv", "--cdf-at-max", "0.9", "--svg", "scores.svg"],
     "--svg", "--runs"),
    (["probe", "--dist", "coin=coin.json", "-o", "{tmp}/coin.json"], "--output", "--dist"),
    (["coverage", "--dist", "coin.json", "--svg", "{tmp}/coin.json"], "--svg", "--dist"),
    (["curves-sim", "--dist", "coin.json", "--dist", "sim.json", "-o", "sim.json"], "--output", "--dist"),
    (["failure-scan", "--report", "sim.json", "-o", "sim.json"], "--output", "--report"),
    (["curve", "--runs", "scores.csv", "--svg", "chart.csv"], "--svg", "--svg"),
], ids=["curve-sidecar-runs", "curve-output-runs", "fit-output-runs", "ks-bound-sidecar-runs",
        "probe-output-dist", "coverage-svg-dist", "curves-sim-output-dist",
        "failure-scan-output-report", "curve-sidecar-chart"])
def test_output_that_would_overwrite_an_input_or_output_is_usage_error(
    tmp_path, monkeypatch, argv, flag, other, capsys
):
    # Relative and absolute spellings of one file are the same file.
    monkeypatch.chdir(tmp_path)
    write_runs(tmp_path, np.random.default_rng(95).uniform(0.6, 0.9, size=8), "scores.csv")
    write_dist(tmp_path, [0.0, 1.0], [0.5, 0.5], "coin.json")
    assert main(["curves-sim", "--dist", "coin.json", "--B", "3", "--samples", "5", "-o", "sim.json"]) == 0
    capsys.readouterr()
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bestofn: error: {flag} ") and f"would overwrite {other} " in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("name", ["curve", "curve-ci", "probe", "coverage", "curves-sim",
                                  "failure-scan", "ks-bound"])
def test_payload_json_keys_are_the_dataclass_field_names(real_reports, name):
    def check(obj, value, where):
        if isinstance(value, Interval):
            assert obj == [value.lo, value.hi], where
        elif dataclasses.is_dataclass(value):
            names = [f.name for f in dataclasses.fields(value)]
            assert sorted(obj) == sorted(names), where
            for key in names:
                check(obj[key], getattr(value, key), f"{where}.{key}")
        elif isinstance(value, tuple):
            assert len(obj) == len(value), where
            for i, (o, v) in enumerate(zip(obj, value)):
                check(o, v, f"{where}[{i}]")

    payload = read_report(real_reports[name]).payload
    assert dataclasses.is_dataclass(payload)
    check(json.loads(real_reports[name].read_text())["payload"], payload, "payload")


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


def test_model_names_with_commas_and_quotes_stay_one_csv_cell(tmp_path, crossing_pair, capsys):
    # Model names are user text: every CSV row, the chart's sidecar's too, reads back through
    # csv.reader exactly as wide as its header, with each name whole.
    steady, volatile = crossing_pair
    names = ["steady, v1", 'volatile "b"']
    report, chart = tmp_path / "curves.json", tmp_path / "chart.svg"
    command = ["curves-sim", "--dist", f"{names[0]}={steady}", "--dist", f"{names[1]}={volatile}",
               "--B", "15", "--samples", "300", "--estimator", "meanmax"]
    assert main([*command, "-o", str(report), "--svg", str(chart)]) == 0
    assert main([*command, "--format", "csv"]) == 0
    texts = [chart.with_suffix(".csv").read_text(encoding="utf-8"), capsys.readouterr().out]
    assert main(["failure-scan", "--report", str(report), "--format", "csv"]) == 0
    texts.append(capsys.readouterr().out)
    tables = [list(csv.reader(io.StringIO(text))) for text in texts]
    for table in tables:
        assert len(table) > 1 and {len(row) for row in table} == {len(table[0])}
    assert texts[0] == texts[1]
    assert sorted({row[0] for row in tables[0][1:]}) == names
    assert {*tables[2][1][1:]} == set(names)


@pytest.mark.parametrize("samples, refused", [
    # Past numpy's largest array numpy itself refuses the shape, as a ValueError.
    (10**20, None),
    (10**12, lambda shape: math.prod(shape) >= 10**8),
], ids=["past-numpy", "array"])
def test_curves_sim_samples_too_many_to_hold_are_usage_errors(samples, refused, crossing_pair, capsys,
                                                              monkeypatch):
    if refused:
        refuse_arrays(monkeypatch, refused)
    steady, volatile = crossing_pair
    assert main(["curves-sim", "--dist", f"steady={steady}", "--dist", f"volatile={volatile}",
                 "--B", "25", "--samples", str(samples)]) == 2
    assert capsys.readouterr().err.endswith(
        f"bestofn: error: --samples {samples}: the matrix of sample curves does not fit in memory\n")


# Runs the entry point under a 2 GiB address-space cap.
CAPPED_SCRIPT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2_000_000 * 1024,) * 2)
from bestofn.__main__ import main
sys.exit(main(sys.argv[1:]))
"""


def test_curves_sim_b_whose_report_cannot_be_held_is_usage_error(crossing_pair):
    # One sample of 10^8 values fits under the cap; the report's curves, 10^8
    # Python numbers each, do not. The command names --B before it builds a
    # curve or draws a sample, so the child never fills a large block.
    steady, volatile = crossing_pair
    result = subprocess.run(
        [sys.executable, "-c", CAPPED_SCRIPT, "curves-sim", "--dist", f"steady={steady}",
         "--dist", f"volatile={volatile}", "--B", str(10**8), "--samples", "1"],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr == (
        "bestofn: error: --B 100000000: the report does not fit in memory\n")


# Reports past the cap at 1 KiB a row. Without the reservation the last four
# spend 20-78 s on truth, rows, tally or encoding before a MemoryError traceback.
CAPPED_REPORTS = [
    ["curve", "--runs", "RUNS", "--estimator", "meanmax", "--n-max", str(10**9)],
    ["ks-bound", "--runs", "RUNS", "--cdf-at-max", "0.5", "--n-max", str(10**7)],
    ["ks-bound", "--runs", "RUNS", "--cdf-at-max", "0.5", "--n-max", str(10**8)],
    ["probe", "--dist", "DIST", "--B", "50", "--samples", "1", "--n-max", str(10**8),
     "--estimator", "meanmax"],
    ["coverage", "--dist", "DIST", "--B", "50", "--M", "1", "--resamples", "10",
     "--n-max", str(10**8)],
]


@pytest.mark.parametrize("argv", CAPPED_REPORTS,
                         ids=[" ".join(argv[:1] + argv[3:]) for argv in CAPPED_REPORTS])
def test_report_past_an_address_space_cap_is_usage_error(ten_runs, coin_dist, argv):
    # The command reserves its report before any truth, draw, bootstrap or kernel, so
    # the child exits at once, and the cap refuses it whatever the overcommit policy.
    argv = [{"RUNS": ten_runs, "DIST": coin_dist}.get(a, a) for a in argv]
    n_max = argv[argv.index("--n-max") + 1]
    result = subprocess.run([sys.executable, "-c", CAPPED_SCRIPT, *argv],
                            capture_output=True, text=True, env=child_env(), timeout=30)
    assert result.returncode == 2, result.stderr
    assert result.stderr == f"bestofn: error: --n-max {n_max}: the report does not fit in memory\n"


# Each report kind in its heaviest form, a JSON report and an SVG chart, at a
# given number of rows; the curve carries bootstrap intervals.
REPORT_ROWS = {
    "curve": lambda rows: ["curve", "--runs", "RUNS", "--estimator", "meanmax", "--ci",
                           "--resamples", "20", "--n-max", str(rows)],
    "probe": lambda rows: ["probe", "--dist", "DIST", "--B", "50", "--samples", "1",
                           "--n-max", str(rows)],
    "coverage": lambda rows: ["coverage", "--dist", "DIST", "--B", "50", "--M", "1",
                              "--resamples", "20", "--n-max", str(rows)],
    "curves-sim": lambda rows: ["curves-sim", "--dist", "DIST", "--B", str(rows), "--samples", "2"],
    "ks-bound": lambda rows: ["ks-bound", "--runs", "RUNS", "--cdf-at-max", "0.5",
                              "--n-max", str(rows)],
}


@pytest.mark.parametrize("kind", REPORT_ROWS)
def test_report_peak_per_row_stays_within_its_reservation(kind, ten_runs, coin_dist, tmp_path):
    # tracemalloc's peak over the whole command at 8000 rows, past the point where
    # the kernels' fixed blocks and the encoder's buffers dominate it, is within the
    # report's reservation. Fixed costs included, this also bounds the peak's growth
    # per row, about 180-800 B between 8000 and 20,000 rows.
    def peak(rows):
        argv = [{"RUNS": ten_runs, "DIST": coin_dist}.get(a, a) for a in REPORT_ROWS[kind](rows)]
        tracemalloc.start()
        try:
            assert main([*argv, "-o", str(tmp_path / "r.json"), "--svg", str(tmp_path / "r.svg")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # modules a command imports on first use are not a row's cost
    assert peak(8000) <= 8000 * _REPORT_ROW_BYTES


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


@pytest.mark.parametrize("point, message", [
    ('{"n": 1, "estimate": 0.5, "ci": [0.9, 0.1]}',
     "payload.curves[0].points[0].ci: interval lo (0.9) exceeds hi (0.1)"),
    ('{"n": 1, "estimate": 0.5, "ci": [NaN, 0.9]}',
     "payload.curves[0].points[0].ci[0] must be finite, got nan"),
    ('{"n": 1, "estimate": NaN, "ci": null}',
     "payload.curves[0].points[0].estimate must be finite, got nan"),
], ids=['{"n": 1, "estimate": 0.5, "ci": [0.9, 0.1]}', '{"n": 1, "estimate": 0.5, "ci": [NaN, 0.9]}',
        '{"n": 1, "estimate": NaN, "ci": null}'])
def test_impossible_curve_point_is_data_error_naming_the_report(tmp_path, ten_runs, point, message,
                                                                capsys):
    report = tmp_path / "curve.json"
    assert main(["curve", "--runs", ten_runs, "--n-max", "1", "-o", str(report)]) == 0
    good = report.read_text(encoding="utf-8")
    start = good.index('"points":[') + len('"points":[')
    report.write_text(good[:start] + point + good[good.index("}", start) + 1:], encoding="utf-8")
    assert main(["failure-scan", "--report", str(report)]) == 1
    assert capsys.readouterr().err == f"bestofn: error: {report}: {message}\n"


@pytest.mark.parametrize("edit, message", [
    (lambda m: m.update(true=m["true"][:3]),
     "model 'volatile': true must hold one finite value per budget"),
    (lambda m: m["averaged"].__setitem__(2, float("nan")),
     "payload.models[1].averaged[2] must be finite, got nan"),
    (lambda m: m["averaged"].__setitem__(2, 10**400),
     "payload.models[1].averaged[2] must be finite, got an integer too large for a float"),
], ids=["true-cut-short", "averaged-nan", "averaged-huge-integer"])
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
    assert message in err


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
    # -1e308 to 1e308 spans more than the largest float: no gap or truth may overflow.
    (["probe", "--dist"], b'{"support": [-1e308, 1e308], "mass": [0.5, 0.5]}'),
    (["curves-sim", "--dist"], b'{"support": [-1e308, 1e308], "mass": [0.5, 0.5]}'),
    (["curve", "--runs"], b"score\n-1e308\n1e308\n"),
    (["curve", "--ci", "--runs"], b"score\n-1e308\n1e308\n0.5\n"),
], ids=["dist-without-support", "dist-top-level-list", "dist-malformed-json", "dist-string-support",
        "dist-decreasing-support", "curves-sim-dist-decreasing-support", "runs-not-utf8",
        "report-not-utf8", "report-malformed-json", "dist-range-overflows",
        "curves-sim-dist-range-overflows", "runs-range-overflows", "runs-range-overflows-ci"])
def test_bad_input_file_is_data_error_naming_the_file(tmp_path, command, content, capsys):
    path = tmp_path / "input.bad"
    path.write_bytes(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused as the file is read, before any numpy warning
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
                     "--resamples", "30", "--threads", "2"],
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


def replay_argv(config):
    """The command line a report's config replays as: ``--key value`` per key,
    with _ spelled -, a list repeating its flag, true a bare flag, and null and
    false left out."""
    argv = [config["command"]]
    for key, value in config.items():
        if key == "command" or value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            for item in value if isinstance(value, list) else [value]:
                argv += [flag, str(item)]
    return argv


@pytest.mark.parametrize("name", ["curve", "curve-ci", "probe", "coverage", "curves-sim",
                                  "failure-scan", "ks-bound"])
def test_report_replays_from_its_config_alone(real_reports, tmp_path, name):
    first = json.loads(real_reports[name].read_text())
    out = tmp_path / "replay.json"
    assert main([*replay_argv(first["config"]), "-o", str(out)]) == 0
    again = json.loads(out.read_text())
    assert canonical_json(again["payload"]) == canonical_json(first["payload"])
    assert again["config"] == first["config"]


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
    (["fit", "--runs", "RUNS", "--support-lo", "0", "--support-hi", "1e-320"], "--support-hi"),
    (["probe", "--dist", "DIST", "--threads", "0"], "--threads"),
    (["coverage", "--dist", "DIST", "--threads", "0"], "--threads"),
    (["curves-sim", "--dist", "DIST", "--threads", "0"], "--threads"),
    # Sizes no memory can hold: the system refuses a sample's or the report's
    # reservation, and the command exits before any per-budget work or draw.
    (["curves-sim", "--dist", "DIST", "--B", str(10**12), "--samples", "1"], "--B"),
    (["ks-bound", "--runs", "RUNS", "--cdf-at-max", "0.5", "--n-max", str(10**12)], "--n-max"),
    # 1 KiB a row of 10^18 rows overflows the size mmap takes.
    (["ks-bound", "--runs", "RUNS", "--cdf-at-max", "0.5", "--n-max", str(10**18)], "--n-max"),
    (["probe", "--dist", "DIST", "--B", str(10**12), "--n-max", "50", "--samples", "1"], "--B"),
    (["probe", "--dist", "DIST", "--B", str(10**12)], "--B"),
    (["probe", "--dist", "DIST", "--n-max", str(10**12)], "--n-max"),
    (["coverage", "--dist", "DIST", "--B", str(10**12), "--resamples", "10", "--M", "1"], "--B"),
]


@pytest.mark.parametrize("argv, flag", BAD_FLAGS,
                         ids=[" ".join(argv[:1] + argv[3:]) for argv, _ in BAD_FLAGS])
def test_bad_flag_is_usage_error_naming_it(ten_runs, coin_dist, argv, flag, capsys):
    argv = [{"RUNS": ten_runs, "DIST": coin_dist}.get(a, a) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"bestofn: error: {flag} ")


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


@pytest.mark.parametrize("command", ["probe", "coverage", "curves-sim"])
def test_missing_input_is_reported_before_a_bad_thread_count(tmp_path, command, capsys):
    assert main([command, "--dist", str(tmp_path / "nope.json"), "--threads", "0"]) == 1
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
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
        "import bestofn.fixtures; print('scipy.stats' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert result.returncode == 0, result.stderr
    stats_loaded, scipy_modules, fixtures_load_stats = result.stdout.split("\n")[:3]
    assert stats_loaded == "False"
    # Importing the CLI loads no scipy module.
    assert scipy_modules == "[]"
    # Nor does importing the fixtures module: the recipes that use scipy live under tests/.
    assert fixtures_load_stats == "False"


def test_probe_and_coverage_runs_import_no_scipy_submodule(tmp_path):
    # scipy is blocked outright: any import of it raises ImportError and turns a
    # run's exit code non-zero. Every command runs, the batteries on the shipped
    # fixtures, and loading a fixture needs no scipy either.
    from bestofn.fixtures import fixture_path

    skewed, steady, volatile = (
        str(fixture_path(name)) for name in ("probe-skewed", "crossing-steady", "crossing-volatile")
    )
    (tmp_path / "runs.csv").write_text(
        "score\n" + "".join(f"{v!r}\n" for v in np.linspace(0.1, 0.9, 12).tolist())
    )
    argvs = [
        ["fit", "--runs", "runs.csv", "-o", "fit.json"],
        ["curve", "--runs", "runs.csv", "--estimator", "unbiased", "--estimator", "meanmax",
         "--estimator", "meanmax-prefix", "--ci", "--resamples", "100", "--svg", "curve.svg",
         "-o", "curve.json"],
        ["curve", "--runs", "runs.csv", "--format", "csv", "-o", "curve.csv"],
        ["probe", "--dist", skewed, "--B", "12", "--n-max", "6", "--samples", "120",
         "-o", "probe.json"],
        ["coverage", "--dist", skewed, "--B", "12", "--n-max", "5", "--M", "40",
         "--resamples", "200", "-o", "coverage.json"],
        ["curves-sim", "--dist", f"steady={steady}", "--dist", f"volatile={volatile}",
         "--B", "10", "--samples", "50", "-o", "curves.json"],
        ["failure-scan", "--report", "curves.json", "-o", "scan.json"],
        ["ks-bound", "--runs", "runs.csv", "--cdf-at-max", "0.9", "-o", "ks.json"],
    ]
    code = (
        "import sys; sys.modules['scipy'] = None; import bestofn.cli, bestofn.fixtures; "
        f"print([bestofn.cli.main(argv) for argv in {argvs!r}], "
        "bestofn.fixtures.load_fixture('probe-skewed').support.size > 0)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == f"{[0] * len(argvs)} True", result.stderr
    for name in ("probe", "coverage"):
        rows = json.loads((tmp_path / f"{name}.json").read_text())["payload"]["rows"]
        assert all(0.0 <= row["ci"][0] <= row["ci"][1] <= 1.0 for row in rows)
    assert (tmp_path / "curve.svg").read_text().endswith("</svg>\n")
    assert (tmp_path / "curve.csv").read_text().startswith("estimator,n,estimate,ci_lo,ci_hi\n")


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
    assert set(provenance) == {"python", "numpy", "rng_layout"}


# Prints the bits of sums long enough that OpenBLAS would split them across its
# threads (it does above 10,000 terms), then runs the CLI on its arguments.
THREAD_COUNT_SCRIPT = """
import sys
import numpy as np
from bestofn import (BootstrapConfig, DiscreteDistribution, EstimatorKind, RngStream,
                     ScoreSample, estimate, percentile_bootstrap_ci, true_curve)
from bestofn.cli import main
sample = ScoreSample(np.random.default_rng(11).normal(size=12_000))
values = [estimate(sample, kind, n) for kind in (EstimatorKind.UNBIASED_U, EstimatorKind.MEANMAX_V)
          for n in (1, 2, 3, 5, 8)]
values.append(estimate(sample, EstimatorKind.MEANMAX_PREFIX, 10_005))
config = BootstrapConfig(RngStream(12), resamples=5)
ci = percentile_bootstrap_ci(sample, EstimatorKind.UNBIASED_U, 2, config)
dist = DiscreteDistribution(np.linspace(0.0, 1.0, 12_001), np.random.default_rng(13).random(12_001))
print(*map(float.hex, values + [ci.lo, ci.hi] + true_curve(dist, 8).tolist()))
sys.exit(main(sys.argv[1:]))
"""


def test_results_do_not_depend_on_the_blas_thread_count(tmp_path, ten_runs):
    dist = tmp_path / "fit.json"
    assert main(["fit", "--runs", ten_runs, "--bins", "20000", "-o", str(dist)]) == 0
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"curves{threads}.json"
        env = {**child_env(), "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        argv = ["curves-sim", "--dist", f"fit={dist}", "--B", "5", "--samples", "3", "-o", str(out)]
        result = subprocess.run([sys.executable, "-c", THREAD_COUNT_SCRIPT, *argv],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        report = json.loads(out.read_text())
        report.pop("created")
        outputs.append((result.stdout, canonical_json(report)))
    assert outputs[0] == outputs[1]


NUMPY_RANDOM_SCRIPT = """
import sys
from bestofn.cli import main
from bestofn.fixtures import fixture_path
steady, volatile = fixture_path("crossing-steady"), fixture_path("crossing-volatile")
loaded = ["numpy.random" in sys.modules]
main(["probe", "--dist", str(steady), "--B", "8", "--n-max", "8", "--samples", "20", "-o", sys.argv[1]])
main(["curves-sim", "--dist", f"a={steady}", "--dist", f"b={volatile}", "--B", "5", "--samples", "9",
      "-o", sys.argv[2]])
loaded.append("numpy.random" in sys.modules)
print(loaded)
"""


def test_cli_import_leaves_numpy_random_unloaded(tmp_path):
    # Neither the import nor a probe or curves-sim run loads numpy.random
    # (about 6 MiB): the batteries compute their Philox draws themselves.
    outputs = [str(tmp_path / "probe.json"), str(tmp_path / "curves.json")]
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_RANDOM_SCRIPT, *outputs], capture_output=True, text=True,
        env=child_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[False, False]"


NUMPY_MA_SCRIPT = """
import sys
from bestofn.cli import main
runs, dist, curve, coverage = sys.argv[1:]
assert main(["curve", "--runs", runs, "--estimator", "meanmax", "--estimator", "unbiased",
             "--estimator", "meanmax-prefix", "--ci", "--resamples", "50", "-o", curve]) == 0
assert main(["coverage", "--dist", dist, "--B", "10", "--n-max", "3", "--M", "3",
             "--resamples", "50", "-o", coverage]) == 0
print("numpy.ma" in sys.modules)
"""


def test_bootstrap_runs_leave_numpy_ma_unloaded(tmp_path, ten_runs, coin_dist):
    # np.quantile would import numpy.ma (about 10 ms and 1.3 MiB) through np.unique;
    # the bootstrap reads its percentiles off one np.partition of its own.
    outputs = [str(tmp_path / "curve.json"), str(tmp_path / "coverage.json")]
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_SCRIPT, ten_runs, coin_dist, *outputs],
        capture_output=True, text=True, env=child_env(),
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
