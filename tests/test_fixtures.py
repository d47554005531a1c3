"""Tests for the shipped fixture distributions.

The simulation tests and their pinned margins depend on these exact
distributions; ``test_fixture_recipes.py`` checks them against the recipes
that built them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bestofn
from bestofn import exact_expected_max, fixtures
from bestofn.fixtures import (
    CROSSING_STEADY,
    CROSSING_VOLATILE,
    FIXTURE_NAMES,
    PROBE_SKEWED,
    fixture_path,
    load_fixture,
    write_fixture_files,
)


def canonical_text(dist):
    return json.dumps(dist.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def test_names_cover_all_files():
    assert set(FIXTURE_NAMES) == {PROBE_SKEWED, CROSSING_STEADY, CROSSING_VOLATILE}


def test_module_only_finds_loads_and_copies_the_shipped_files():
    defined = {name for name, obj in vars(fixtures).items()
               if getattr(obj, "__module__", None) == fixtures.__name__}
    assert defined == {"fixture_path", "load_fixture", "write_fixture_files"}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_load_fixture_round_trips(name):
    dist = load_fixture(name)
    assert canonical_text(dist) == fixture_path(name).read_text(encoding="utf-8")
    assert len(dist.support) == 511
    assert np.all(np.diff(dist.support) > 0)


def test_loading_a_fixture_loads_no_scipy(tmp_path):
    # scipy is blocked outright, so any import of it fails the child. Finding,
    # loading and copying the shipped files needs none of it; only the recipes
    # under tests/ use scipy.special's normal quantile.
    code = (
        "import sys; sys.modules['scipy'] = None; "
        "from bestofn.fixtures import FIXTURE_NAMES, fixture_path, load_fixture, write_fixture_files; "
        "[(fixture_path(name), load_fixture(name)) for name in FIXTURE_NAMES]; "
        "print([path.name for path in write_fixture_files(sys.argv[1])])"
    )
    src = str(Path(bestofn.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True,
                            env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == repr([fixture_path(name).name for name in FIXTURE_NAMES])
    for name in FIXTURE_NAMES:
        assert (tmp_path / fixture_path(name).name).read_bytes() == fixture_path(name).read_bytes()


def test_unknown_name_rejected():
    for fn in (load_fixture, fixture_path):
        with pytest.raises(KeyError, match="probe-skewed"):
            fn("probe_skewed")


def test_write_fixture_files_creates_directory(tmp_path):
    target = tmp_path / "not" / "yet" / "there"
    written = write_fixture_files(target)
    assert sorted(p.parent for p in written) == [target] * len(FIXTURE_NAMES)
    by_stem = {p.stem.replace("_", "-"): p for p in written}
    for name in FIXTURE_NAMES:
        assert by_stem[name].read_bytes() == fixture_path(name).read_bytes()


def test_crossing_pair_true_curves_cross():
    steady = load_fixture(CROSSING_STEADY)
    volatile = load_fixture(CROSSING_VOLATILE)
    gaps = [exact_expected_max(volatile, n) - exact_expected_max(steady, n)
            for n in range(1, 26)]
    assert gaps[0] < 0
    assert gaps[-1] > 0
    sign_changes = sum(1 for a, b in zip(gaps, gaps[1:]) if (a < 0) != (b < 0))
    assert sign_changes == 1
