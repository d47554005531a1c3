"""Bundled ground-truth distributions for simulations and tests.

Two fixture families ship with the package as JSON files under
``bestofn/data/``:

* ``probe-skewed``: a single right-skewed score distribution whose
  shape makes the plug-in estimator's bias visible at desk scale. It
  mimics a tuning study with many weak runs, a dense cluster of good
  configurations, a sparse band of stragglers, a tight top cluster,
  and a handful of rare upside outliers.
* ``crossing-steady`` / ``crossing-volatile``: a model pair whose true
  budget-quality curves cross near n=8 at B=25. The steady model wins
  at small budgets, the volatile one at large budgets, and the gap
  near the crossing is small enough that the plug-in estimator's bias
  flips the apparent leader while the unbiased estimator does not.

Every fixture is the output of :func:`bestofn.distributions.fit_kde`
applied to a deterministic synthetic run set. The recipes that rebuild
them live with the tests (``tests/fixture_recipes.py``), which check that
they still give the shipped bytes. This module only finds, loads and
copies the shipped files, so nothing here needs scipy, and
:func:`write_fixture_files` writes the same bytes on every machine.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .distributions import DiscreteDistribution, load_distribution

PROBE_SKEWED = "probe-skewed"
CROSSING_STEADY = "crossing-steady"
CROSSING_VOLATILE = "crossing-volatile"

FIXTURE_NAMES = (PROBE_SKEWED, CROSSING_STEADY, CROSSING_VOLATILE)

_FILES = {
    PROBE_SKEWED: "probe_skewed.json",
    CROSSING_STEADY: "crossing_steady.json",
    CROSSING_VOLATILE: "crossing_volatile.json",
}


def fixture_path(name: str) -> Path:
    """Filesystem path of a shipped fixture JSON.

    The path points into the installed package, so it can be handed
    directly to ``--dist`` on the command line.
    """
    if name not in _FILES:
        raise KeyError(f"unknown fixture {name!r}; expected one of {', '.join(FIXTURE_NAMES)}")
    return Path(str(resources.files("bestofn").joinpath("data", _FILES[name])))


def load_fixture(name: str) -> DiscreteDistribution:
    """Load a shipped fixture distribution by name."""
    return load_distribution(fixture_path(name))


def write_fixture_files(directory: str | Path) -> list[Path]:
    """Copy the shipped fixture JSONs, byte for byte, into `directory`,
    creating it if needed; returns the written paths in FIXTURE_NAMES order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name in FIXTURE_NAMES:
        path = directory / _FILES[name]
        path.write_bytes(fixture_path(name).read_bytes())
        written.append(path)
    return written
