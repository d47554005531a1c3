"""Tests of the benchmark itself: its output checks, references and tracer.

    PYTHONPATH=src python -m pytest perfbench
"""
from __future__ import annotations

import copy
import itertools
import json
import math
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracer
import workloads
from bestofn.cli import main as cli_main
from bestofn.fixtures import fixture_path


def _report(tmp_path: Path, *args: str) -> dict:
    out = tmp_path / "report.json"
    assert cli_main([*args, "-o", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture
def scores_file(tmp_path):
    path = tmp_path / "runs.csv"
    workloads.write_runs(path, workloads.left_skewed_scores(np.random.default_rng(5), 60))
    return path


def _curve_report(tmp_path, runs, n_max, *extra):
    return _report(tmp_path, "curve", "--runs", str(runs), "--estimator", "unbiased",
                   "--estimator", "meanmax", "--n-max", str(n_max), *extra)


def _points(envelope, kind):
    return next(c for c in envelope["payload"]["curves"] if c["estimator"] == kind)["points"]


def test_curve_check_accepts_a_real_report(tmp_path, scores_file):
    scores = checks.read_scores(scores_file)
    env = _curve_report(tmp_path, scores_file, 60)
    assert checks.check_curve(env, scores, 60, ci=False, exact_ns=(1, 2, 10, 60)) == []
    env = _curve_report(tmp_path, scores_file, 10, "--ci", "--resamples", "50")
    assert checks.check_curve(env, scores, 10, ci=True) == []


def test_curve_check_rejects_meanmax_above_unbiased_at_one_n(tmp_path, scores_file):
    scores = checks.read_scores(scores_file)
    env = _curve_report(tmp_path, scores_file, 20)
    top = _points(env, "unbiased")[-1]["estimate"]
    _points(env, "meanmax")[-1]["estimate"] = math.nextafter(top, math.inf)
    assert checks.check_curve(env, scores, 20, ci=False) == ["meanmax above unbiased at n=20"]


def test_curve_check_rejects_a_dropped_row(tmp_path, scores_file):
    scores = checks.read_scores(scores_file)
    env = _curve_report(tmp_path, scores_file, 20)
    del _points(env, "meanmax")[7]
    assert checks.check_curve(env, scores, 20, ci=False) == ["meanmax: budgets are not exactly 1..20"]


def test_curve_check_rejects_estimates_off_the_exact_reference(tmp_path, scores_file):
    scores = checks.read_scores(scores_file)
    env = _curve_report(tmp_path, scores_file, 60)
    _points(env, "unbiased")[9]["estimate"] += 1e-7
    problems = checks.check_curve(env, scores, 60, ci=False, exact_ns=(10,))
    assert len(problems) == 1 and problems[0].startswith("unbiased: estimate")


def test_curve_check_rejects_an_inverted_ci(tmp_path, scores_file):
    scores = checks.read_scores(scores_file)
    env = _curve_report(tmp_path, scores_file, 5, "--ci", "--resamples", "50")
    point = _points(env, "meanmax")[2]
    point["ci"] = point["ci"][::-1] if point["ci"][0] < point["ci"][1] else [1.0, 0.0]
    problems = checks.check_curve(env, scores, 5, ci=True)
    assert len(problems) == 1 and "CI" in problems[0]


def test_payload_comparison_ignores_only_the_created_time(tmp_path, scores_file):
    out = tmp_path / "a.json"
    assert cli_main(["curve", "--runs", str(scores_file), "--n-max", "5", "-o", str(out)]) == 0
    first = out.read_bytes()
    rerun = re.sub(rb'"created":"[^"]*"', b'"created":"1999-01-01T00:00:00Z"', first)
    assert rerun != first and checks.same_payload(first, rerun, "rerun") == []
    changed = first.replace(b'"sample_size":60', b'"sample_size":61')
    assert changed != first
    assert checks.same_payload(first, changed, "rerun") == ["rerun: report bytes differ from the first run"]


def test_thread_variant_mismatch_is_rejected(tmp_path):
    dists = {name: str(fixture_path(name)) for name in ("crossing-steady", "crossing-volatile")}
    base = ["curves-sim", *(f for n, p in dists.items() for f in ("--dist", f"{n}={p}")),
            "--B", "6", "--samples", "40", "--seed", "3"]
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    assert cli_main([*base, "--threads", "1", "-o", str(one)]) == 0
    assert cli_main([*base, "--threads", "2", "-o", str(two)]) == 0
    assert checks.same_payload(one.read_bytes(), two.read_bytes(), "thread variant") == []
    env = json.loads(two.read_bytes())
    assert checks.check_curves(env, {n: json.loads(Path(p).read_text()) for n, p in dists.items()}, 6) == []
    env["payload"]["models"][1]["averaged"][3] = math.nextafter(env["payload"]["models"][1]["averaged"][3], 2.0)
    bad = json.dumps(env, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    assert checks.same_payload(one.read_bytes(), bad, "thread variant") == [
        "thread variant: report bytes differ from the first run"]


def test_curves_check_rejects_a_wrong_true_curve(tmp_path):
    path = str(fixture_path("crossing-steady"))
    env = _report(tmp_path, "curves-sim", "--dist", f"s={path}", "--B", "5", "--samples", "10")
    dist = json.loads(Path(path).read_text())
    assert checks.check_curves(env, {"s": dist}, 5) == []
    env["payload"]["models"][0]["true"][2] += 1e-6
    problems = checks.check_curves(env, {"s": dist}, 5)
    assert len(problems) == 1 and "true curve" in problems[0]


def test_probe_check_rejects_wrong_proportion_and_interval(tmp_path):
    env = _report(tmp_path, "probe", "--dist", str(fixture_path("probe-skewed")),
                  "--B", "10", "--samples", "40")
    assert checks.check_probe(env, 10, 40) == []
    assert set(checks.findings(env)) == {"probe.proportion_n10"}
    bad = copy.deepcopy(env)
    bad["payload"]["rows"][4]["proportion"] += 1e-12
    assert len(checks.check_probe(bad, 10, 40)) == 1
    bad = copy.deepcopy(env)
    bad["payload"]["rows"][6]["ci"][1] -= 1e-6
    assert len(checks.check_probe(bad, 10, 40)) == 1
    assert checks.check_probe(env, 9, 40) == ["probe rows are not exactly n=1..9"]


def test_exact_reference_matches_subset_enumeration():
    scores = [0.3, 0.9, 0.1, 0.75, 0.5, 0.62, 0.2]
    size = len(scores)
    for n in range(1, size + 1):
        subsets = list(itertools.combinations(scores, n))
        want = sum(Fraction(max(s)) for s in subsets) / len(subsets)
        assert checks.exact_sample_curve(scores, "unbiased", n) == float(want)
        ranked = sorted(scores)
        plug_in = sum(Fraction(j**n - (j - 1) ** n, size**n) * Fraction(v) for j, v in enumerate(ranked, 1))
        assert checks.exact_sample_curve(scores, "meanmax", n) == float(plug_in)


def test_true_curve_reference_matches_the_package():
    from bestofn.distributions import load_distribution, true_curve

    path = fixture_path("crossing-volatile")
    dist = json.loads(Path(path).read_text())
    want = true_curve(load_distribution(path), 25)
    assert np.allclose(checks.true_curve(dist["support"], dist["mass"], 25), want, rtol=0, atol=1e-12)


def _span_tree(tracer_: tracer.Tracer):
    def inner():
        time.sleep(0.004)

    def outer():
        time.sleep(0.002)
        tracer_.call("estimators.estimate", inner)
        time.sleep(0.002)

    return lambda _item: tracer_.call("distributions.draw_sample", outer)


def test_self_times_are_per_thread_and_never_negative():
    t = tracer.Tracer()
    work = _span_tree(t)

    def battery():
        with ThreadPoolExecutor(max_workers=3) as pool:
            list(pool.map(work, range(12)))

    t.call("cli.main", battery)
    summary = tracer.summarize(t.spans, threading.main_thread().ident)
    assert summary["min_self_s"] >= 0
    assert summary["thread_mismatch_s"] < 1e-9
    assert summary["functions"]["distributions.draw_sample"]["calls"] == 12
    assert summary["functions"]["estimators.estimate"]["self_s"] >= 12 * 0.004
    main = [s for s in t.spans if s[2] == "cli.main"][0]
    assert summary["main_self_s"] == pytest.approx(main[5] - main[4], abs=1e-9)


def test_self_time_subtracts_direct_children_only():
    spans = [(1, 0, "cli.main", 7, 0.0, 10.0, False),
             (2, 1, "experiments.battery", 7, 1.0, 9.0, False),
             (3, 2, "estimators.estimate", 7, 2.0, 5.0, True)]
    assert tracer.self_times(spans) == {1: 2.0, 2: 5.0, 3: 3.0}
    summary = tracer.summarize(spans, 7)
    assert summary["layers"]["experiments"] == 5.0
    assert summary["functions"]["estimators.estimate"]["errors"] == 1
    assert summary["main_self_s"] == 10.0


def test_install_skips_missing_names_and_wraps_where_imported():
    import bestofn.experiments

    original = bestofn.experiments.draw_sample
    t = tracer.Tracer()
    try:
        t.install(wraps=(("bestofn.experiments", "draw_sample", "distributions.draw_sample"),
                         ("bestofn.experiments", "no_such_function", "experiments.battery")),
                  runner=("bestofn.experiments", "no_such_runner"))
        assert bestofn.experiments.draw_sample is not original
        assert t.unwrapped == ["bestofn.experiments.no_such_function", "bestofn.experiments.no_such_runner"]
    finally:
        bestofn.experiments.draw_sample = original


@pytest.mark.parametrize("args", [
    ["curve", "--estimator", "unbiased", "--estimator", "meanmax", "--n-max", "40"],
    ["curves-sim", "--B", "8", "--samples", "60", "--threads", "2"],
])
def test_traced_run_accounts_for_its_wall_time(tmp_path, scores_file, args):
    if args[0] == "curve":
        args = [*args, "--runs", str(scores_file)]
    else:
        args = [*args, *(f for name in ("crossing-steady", "crossing-volatile")
                         for f in ("--dist", f"{name}={fixture_path(name)}"))]
    bench = run.Bench(tmp_path)
    child, out, summary_path = bench.traced(args)
    assert child.code == 0, child.stderr
    summary = json.loads(summary_path.read_text())
    metrics = run.trace_metrics(summary, child)
    assert run.trace_problems(summary, metrics) == []
    assert summary["unwrapped"] == [] and summary["extract_errors"] == []
    assert all(metrics[f"{name}.self_s"] >= 0 for name in tracer.SPAN_NAMES)
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    if args[0] == "curve":  # one thread: the layers are the main thread's split
        assert layers == pytest.approx(summary["main_self_s"], abs=1e-6)
    assert out.is_file()


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core._multiarray_umath",
        "import time:       250 |        350 |   numpy",
        "import time:        40 |         40 |     scipy._lib",
        "import time:        60 |        100 |   scipy.special",
        "import time:       900 |       1350 |   bestofn",
        "import time:        50 |       1400 | bestofn.cli",
    ])
    assert run.parse_importtime(text) == pytest.approx(
        {"import.bestofn_cli_s": 0.0014, "import.numpy_s": 0.00035, "import.scipy_s": 0.0001})


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
