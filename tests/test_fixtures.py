"""Tests for the shipped fixture distributions.

The shipped JSON files and the synthetic-run recipes that generated them
must never drift apart: the simulation tests and their pinned margins
depend on these exact distributions.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bestofn
from bestofn import exact_expected_max
from bestofn.fixtures import (
    CROSSING_STEADY,
    CROSSING_VOLATILE,
    FIXTURE_NAMES,
    PROBE_SKEWED,
    build_fixture,
    fixture_path,
    load_fixture,
    write_fixture_files,
)


def canonical_text(dist):
    return json.dumps(dist.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def test_names_cover_all_files():
    assert set(FIXTURE_NAMES) == {PROBE_SKEWED, CROSSING_STEADY, CROSSING_VOLATILE}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_shipped_json_matches_recipe(name):
    shipped = fixture_path(name).read_text(encoding="utf-8")
    assert canonical_text(build_fixture(name)) == shipped


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_load_fixture_round_trips(name):
    dist = load_fixture(name)
    assert canonical_text(dist) == fixture_path(name).read_text(encoding="utf-8")
    assert len(dist.support) == 511
    assert np.all(np.diff(dist.support) > 0)


def test_loading_a_fixture_loads_no_scipy():
    # Only the recipes need scipy.special's normal quantile, and they import it when they run.
    code = (
        "import sys; from bestofn.fixtures import FIXTURE_NAMES, fixture_path, load_fixture; "
        "[(fixture_path(name), load_fixture(name)) for name in FIXTURE_NAMES]; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(bestofn.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_unknown_name_rejected():
    for fn in (load_fixture, fixture_path, build_fixture):
        with pytest.raises(KeyError, match="probe-skewed"):
            fn("probe_skewed")


def test_write_fixture_files_creates_directory(tmp_path):
    target = tmp_path / "not" / "yet" / "there"
    written = write_fixture_files(target)
    assert sorted(p.parent for p in written) == [target] * len(FIXTURE_NAMES)
    by_stem = {p.stem.replace("_", "-"): p for p in written}
    for name in FIXTURE_NAMES:
        assert by_stem[name].read_text(encoding="utf-8") == \
            fixture_path(name).read_text(encoding="utf-8")


def test_crossing_pair_true_curves_cross():
    steady = load_fixture(CROSSING_STEADY)
    volatile = load_fixture(CROSSING_VOLATILE)
    gaps = [exact_expected_max(volatile, n) - exact_expected_max(steady, n)
            for n in range(1, 26)]
    assert gaps[0] < 0
    assert gaps[-1] > 0
    sign_changes = sum(1 for a, b in zip(gaps, gaps[1:]) if (a < 0) != (b < 0))
    assert sign_changes == 1
