"""Golden reports: the CLI's payload bytes at fixed seeds, pinned in ``tests/golden/``.

Each case runs one command through ``bestofn.cli.main`` at a small size and
compares its JSON report with the committed file, leaving out only the
``created`` time and the python and numpy versions in ``provenance``. Inputs are
relative paths inside a scratch directory, so the reports' ``config`` does not
depend on where the tests run. Goldens are compared byte for byte, never to a
tolerance. Run ``python tests/test_golden.py`` to write the files again after a
change that moves payload bytes on purpose.
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

from bestofn.cli import main
from bestofn.fixtures import fixture_path
from bestofn.io_formats import canonical_json

GOLDEN = Path(__file__).resolve().parent / "golden"

# 16 scores with a tie, in no sorted order: the prefix kind reads draw order.
SCORES = (0.731, 0.654, 0.802, 0.69, 0.775, 0.654, 0.812, 0.701,
          0.748, 0.623, 0.769, 0.719, 0.795, 0.688, 0.742, 0.667)

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
    "failure-scan": ["failure-scan", "--report", "curves.json"],
    "ks-bound": ["ks-bound", "--runs", "runs.csv", "--cdf-at-max", "0.9", "--n-max", "12"],
}

# failure-scan reads this committed curves report, not a fresh curves-sim run,
# whose exact true curves move in their last bits with numpy's SIMD dispatch.
# It was written by ``bestofn curves-sim --dist steady=crossing_steady.json
# --dist volatile=crossing_volatile.json --B 10 --samples 100`` (three inversions).
CURVES_INPUT = GOLDEN / "curves-input.json"


def run_case(name: str, directory: Path) -> str:
    """The case's report as canonical JSON text, without ``created`` and the
    python and numpy versions; inputs are written to ``directory``, the working
    directory during the call."""
    (directory / "runs.csv").write_text("score\n" + "\n".join(map(repr, SCORES)) + "\n")
    shutil.copyfile(fixture_path("probe-skewed"), directory / "probe_skewed.json")
    shutil.copyfile(CURVES_INPUT, directory / "curves.json")
    assert main([*CASES[name], "-o", "report.json"]) == 0
    report = json.loads((directory / "report.json").read_text(encoding="utf-8"))
    del report["created"], report["provenance"]["python"], report["provenance"]["numpy"]
    return canonical_json(report)


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

    here = os.getcwd()
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            text = run_case(case, Path(scratch))
            os.chdir(here)
        (GOLDEN / f"{case}.json").write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / case}.json", file=sys.stderr)
