"""Golden reports and charts: the CLI's payload bytes at fixed seeds, and
``emit_plot``'s SVG and sidecar bytes, pinned in ``tests/golden/``.

Each case runs one command through ``bestofn.cli.main`` at a small size and
compares its JSON report with the committed file, leaving out only the
``created`` time and the python and numpy versions in ``provenance``. Inputs are
relative paths inside a scratch directory, so the reports' ``config`` does not
depend on where the tests run. Goldens are compared byte for byte, never to a
tolerance.

Each chart case writes ``emit_plot``'s chart of a small payload built here, in
plain Python float arithmetic that no SIMD dispatch moves, and compares it with
``chart-NAME.svg`` and its sidecar with ``chart-NAME.csv``, byte for byte.

Run ``python tests/test_golden.py [NAME ...]`` to write the named cases' files
again after a change that moves their bytes on purpose; with no name it writes
every case, so name the cases you mean to re-pin.
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

from bestofn.cli import main
from bestofn.fixtures import write_fixture_files
from bestofn.distributions import canonical_json
from bestofn.estimators import (CurvePoint, CurveSet, EstimatorKind, ExpectedMaxCurve, Interval,
                                KsBoundReport, KsBoundRow)
from bestofn.experiments import (CoverageReport, CoverageRow, CurveReport, ModelCurves,
                                 ProbeReport, ProbeRow)
from bestofn.io_formats import emit_plot, make_envelope

GOLDEN = Path(__file__).resolve().parent / "golden"

# 16 scores with a tie, in no sorted order: the prefix kind reads draw order.
SCORES = (0.731, 0.654, 0.802, 0.69, 0.775, 0.654, 0.812, 0.701,
          0.748, 0.623, 0.769, 0.719, 0.795, 0.688, 0.742, 0.667)


def many_scores() -> list[float]:
    """1100 dyadic scores with a maximum of 0 in three clusters of very different
    spread, jittered by a plain-Python linear congruential generator mod 2^16, so
    that no RNG kernel or SIMD dispatch moves them. Sorted, their 1099 gaps make
    three tail blocks of 512 from the top: gaps j = 588..1099 lie in the top
    cluster (about 2^-45 each), j = 76..587 in the middle one (about 2^-21) and
    j = 1..75 in the low one. The lower two blocks die after budgets 70 and 16
    (64 / log2(1100 / j) at their top gaps j = 587 and 75). The estimates sit
    close to 0, so a dead block summed, or a live one dropped, shows in their
    last bits."""
    state, scores = 1, [0.0]
    for count, top, step in ((75, -0.5, 2**-13), (512, -(2**-10), 2**-24), (512, 0.0, 2**-48)):
        for _ in range(count):
            state = (25173 * state + 13849) % 65536
            scores.append(top - (state >> 4) * step)
    return scores


CASES = {
    "curve-unbiased-meanmax-ci": ["curve", "--runs", "runs.csv", "--estimator", "unbiased",
                                  "--estimator", "meanmax", "--ci", "--resamples", "300"],
    "curve-meanmax-past-b": ["curve", "--runs", "runs.csv", "--estimator", "meanmax",
                             "--n-max", "40", "--ci", "--resamples", "100", "--seed", "7"],
    "curve-prefix-ci": ["curve", "--runs", "runs.csv", "--estimator", "meanmax-prefix", "--ci",
                        "--resamples", "300"],
    "probe": ["probe", "--dist", "probe_skewed.json", "--B", "20", "--n-max", "12",
              "--samples", "400"],
    "coverage-meanmax": ["coverage", "--dist", "probe_skewed.json", "--B", "20", "--n-max", "8",
                         "--M", "30", "--resamples", "200"],
    "coverage-prefix": ["coverage", "--dist", "probe_skewed.json", "--B", "20", "--n-max", "8",
                        "--M", "30", "--resamples", "200", "--estimator", "meanmax-prefix"],
    "curves-sim": ["curves-sim", "--dist", "steady=crossing_steady.json", "--dist",
                   "volatile=crossing_volatile.json", "--B", "10", "--samples", "100"],
    "failure-scan": ["failure-scan", "--report", "curves.json"],
    "ks-bound": ["ks-bound", "--runs", "runs.csv", "--cdf-at-max", "0.9", "--n-max", "12"],
    "curve-multi-block": ["curve", "--runs", "many_runs.csv", "--estimator", "unbiased",
                          "--estimator", "meanmax", "--n-max", "100"],
}

# failure-scan reads this committed curves report, not a fresh curves-sim run, so
# its golden pins the scan alone and does not move with the curves-sim case.
# It was written by ``bestofn curves-sim --dist steady=crossing_steady.json
# --dist volatile=crossing_volatile.json --B 10 --samples 100`` (three inversions),
# before the true curves took the plug-in walker: 6 of its 20 ``true`` values
# differ from the curves-sim golden's, by at most 2.2e-16.
CURVES_INPUT = GOLDEN / "curves-input.json"


def run_case(name: str, directory: Path) -> str:
    """The case's report as canonical JSON text, without ``created`` and the
    python and numpy versions; inputs are written to ``directory``, the working
    directory during the call."""
    (directory / "runs.csv").write_text("score\n" + "\n".join(map(repr, SCORES)) + "\n")
    (directory / "many_runs.csv").write_text("score\n" + "\n".join(map(repr, many_scores())) + "\n")
    write_fixture_files(directory)  # probe_skewed.json, crossing_steady.json, crossing_volatile.json
    shutil.copyfile(CURVES_INPUT, directory / "curves.json")
    assert main([*CASES[name], "-o", "report.json"]) == 0
    report = json.loads((directory / "report.json").read_text(encoding="utf-8"))
    del report["created"], report["provenance"]["python"], report["provenance"]["numpy"]
    return canonical_json(report)


def chart_curve(kind: EstimatorKind, shift: float, ci_budgets=range(1, 7)) -> ExpectedMaxCurve:
    """Six points, n = 1..6, with a confidence interval at each budget in ``ci_budgets``."""
    points = []
    for n in range(1, 7):
        estimate = 0.62 + shift + 0.19 * (1 - 0.7**n)
        band = Interval(estimate - 0.03 / n, estimate + 0.041 / n) if n in ci_budgets else None
        points.append(CurvePoint(n, estimate, band))
    return ExpectedMaxCurve(tuple(points), kind, 16)


def chart_model(name: str, shift: float) -> ModelCurves:
    budgets = tuple(range(1, 6))
    averaged = tuple(0.5 + shift + 0.3 * (1 - 0.6**n) for n in budgets)
    true = tuple(0.51 + shift + 0.29 * (1 - 0.65**n) for n in budgets)
    return ModelCurves(name, budgets, averaged, true, tuple(0.01 / n for n in budgets))


def chart_ks(rows: int) -> KsBoundReport:
    return KsBoundReport(0.9, 16, tuple(KsBoundRow(n, 1.0 - 0.9**n) for n in range(1, rows + 1)))


def around(p: float, below: float, above: float) -> Interval:
    return Interval(max(0.0, p - below), min(1.0, p + above))


# Each chart kind from a small payload: curve with its three kinds banded, one
# kind bare, and the three mixed in one chart; curves with eight series, so the
# palette wraps, and a model name that text must escape; ks-bound with one row,
# so its budget axis has no width. In the mixed chart only the first kind gets a
# band: the prefix kind has intervals at n = 1..3 alone, and the lowest of them
# sits below every other value, so drawing or fitting it would move the bytes.
CHARTS = {
    "chart-curve-ci": lambda: ("curve", CurveSet(tuple(
        chart_curve(kind, 0.013 * i) for i, kind in enumerate(EstimatorKind)))),
    "chart-curve-bare": lambda: ("curve", CurveSet((chart_curve(EstimatorKind.UNBIASED_U, 0.0, ()),))),
    "chart-curve-mixed": lambda: ("curve", CurveSet((
        chart_curve(EstimatorKind.UNBIASED_U, 0.013),
        chart_curve(EstimatorKind.MEANMAX_V, 0.026, ()),
        chart_curve(EstimatorKind.MEANMAX_PREFIX, 0.0, range(1, 4))))),
    "chart-probe": lambda: ("probe", ProbeReport(
        tuple(ProbeRow(n, 19 + 2 * n, 40, (19 + 2 * n) / 40, around((19 + 2 * n) / 40, 0.16, 0.13))
              for n in range(1, 9)),
        20, EstimatorKind.MEANMAX_V, "chart", 0, 0)),
    "chart-coverage": lambda: ("coverage", CoverageReport(
        tuple(CoverageRow(n, 50 - n, 50, (50 - n) / 50, around((50 - n) / 50, 0.09, 0.04))
              for n in range(1, 6)),
        20, 200, 0.95, EstimatorKind.MEANMAX_PREFIX, "chart", 0, 0)),
    "chart-curves": lambda: ("curves", CurveReport(
        tuple(chart_model(name, 0.02 * i) for i, name in enumerate(("a<&>b", "steady", "volatile", "wide"))),
        5, 100, EstimatorKind.MEANMAX_V, 0, 0)),
    "chart-ks-bound-1": lambda: ("ks_bound", chart_ks(1)),
    "chart-ks-bound-10": lambda: ("ks_bound", chart_ks(10)),
}


def write_chart(name: str, directory: Path) -> tuple[bytes, bytes]:
    """The case's chart and sidecar bytes, written to ``directory`` as NAME.svg and NAME.csv."""
    _, payload = CHARTS[name]()
    emit_plot(make_envelope(payload, {}), directory / f"{name}.svg")
    return (directory / f"{name}.svg").read_bytes(), (directory / f"{name}.csv").read_bytes()


def first_difference(want, got, path="report"):
    """The path of the first field, in key order, where ``got`` differs from ``want``."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(want.keys() | got.keys()):
            if key not in want or key not in got:
                return f"{path}.{key}"
            found = first_difference(want[key], got[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        for i, (a, b) in enumerate(zip(want, got)):
            found = first_difference(a, b, f"{path}[{i}]")
            if found:
                return found
        return None if len(want) == len(got) else f"{path}[{min(len(want), len(got))}]"
    return None if json.dumps(want) == json.dumps(got) else path


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_its_golden_bytes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = run_case(name, tmp_path)
    want = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    if got != want:
        field = first_difference(json.loads(want), json.loads(got))
        pytest.fail(f"{name}: {field} moved from its golden value")


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_chart_matches_its_golden_bytes(name, tmp_path):
    svg, sidecar = write_chart(name, tmp_path)
    assert svg == (GOLDEN / f"{name}.svg").read_bytes()
    assert sidecar == (GOLDEN / f"{name}.csv").read_bytes()


def test_first_difference_names_the_first_field_that_moved():
    want = {"a": 1, "b": [{"x": 0.5}, {"x": 0.25}], "c": 2}
    assert first_difference(want, want) is None
    assert first_difference(want, {**want, "b": [{"x": 0.5}, {"x": 0.2500000001}]}) == "report.b[1].x"
    assert first_difference(want, {**want, "b": [{"x": 0.5}]}) == "report.b[1]"
    assert first_difference(want, {"a": 1, "c": 2}) == "report.b"
    assert first_difference({"z": -0.0}, {"z": 0.0}) == "report.z"


if __name__ == "__main__":
    import os
    import tempfile

    names = sys.argv[1:] or [*sorted(CASES), *sorted(CHARTS)]
    unknown = sorted(set(names) - CASES.keys() - CHARTS.keys())
    if unknown:
        sys.exit(f"unknown case {', '.join(unknown)}; the cases are "
                 f"{', '.join([*sorted(CASES), *sorted(CHARTS)])}")
    here = os.getcwd()
    for case in names:
        if case in CHARTS:
            write_chart(case, GOLDEN)
            print(f"wrote {GOLDEN / case}.svg and .csv", file=sys.stderr)
            continue
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            text = run_case(case, Path(scratch))
            os.chdir(here)
        (GOLDEN / f"{case}.json").write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / case}.json", file=sys.stderr)
