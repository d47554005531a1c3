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
applied to a deterministic synthetic run set, so the shipped files can
be regenerated bit-for-bit with :func:`build_fixture`. The recipes import
``scipy.special.ndtri`` when they run, so rebuilding a fixture
(:func:`build_fixture`, :func:`write_fixture_files`) needs the ``test``
extra, and loading a shipped one (:func:`fixture_path`,
:func:`load_fixture`) needs only numpy.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

import numpy as np

from .distributions import DiscreteDistribution, KdeSpec, fit_kde, load_distribution, save_distribution
from .estimators import ScoreSample

PROBE_SKEWED = "probe-skewed"
CROSSING_STEADY = "crossing-steady"
CROSSING_VOLATILE = "crossing-volatile"

FIXTURE_NAMES = (PROBE_SKEWED, CROSSING_STEADY, CROSSING_VOLATILE)

_FILES = {
    PROBE_SKEWED: "probe_skewed.json",
    CROSSING_STEADY: "crossing_steady.json",
    CROSSING_VOLATILE: "crossing_volatile.json",
}


def _grid(count: int) -> np.ndarray:
    """Midpoint quantile grid (k+0.5)/count, the deterministic stand-in
    for `count` i.i.d. draws."""
    return (np.arange(count) + 0.5) / count


def gaussian_quantile_runs(weights: list[float], means: list[float], sds: list[float], count: int) -> np.ndarray:
    """Deterministic synthetic scores from a Gaussian mixture.

    Each component contributes round(weight * count) scores placed at
    the midpoint quantiles of its own Gaussian, so the run set is a
    noiseless sketch of the mixture rather than a random draw from it.

    Parameters
    ----------
    weights, means, sds:
        Parallel component descriptions. Weights should sum to 1.
    count:
        Total number of synthetic runs to target.

    Returns
    -------
    numpy.ndarray
        Concatenated component scores, unsorted.
    """
    from scipy.special import ndtri

    parts = []
    for weight, mean, sd in zip(weights, means, sds):
        k = max(1, round(weight * count))
        parts.append(ndtri(_grid(k)) * sd + mean)
    return np.concatenate(parts)


def probe_runs() -> np.ndarray:
    """Synthetic run scores behind the ``probe-skewed`` fixture."""
    from scipy.special import ndtri

    return np.concatenate([
        ndtri(_grid(110)) * 0.10 + 0.35,
        ndtri(_grid(282)) * 0.030 + 0.62,
        0.64 + _grid(50) * (0.795 - 0.64),
        ndtri(_grid(50)) * 0.004 + 0.80,
        0.806 + 0.02 * np.exp(1.5 * ndtri(_grid(8))),
    ])


def crossing_steady_runs() -> np.ndarray:
    """Synthetic run scores behind ``crossing-steady``: one tight mode."""
    return gaussian_quantile_runs([1.0], [0.831], [0.004], 120)


def crossing_volatile_runs() -> np.ndarray:
    """Synthetic run scores behind ``crossing-volatile``: a low bulk
    plus two upper modes that reward large tuning budgets."""
    return gaussian_quantile_runs(
        [0.90, 0.06, 0.04],
        [0.745, 0.855, 0.95],
        [0.010, 0.005, 0.010],
        200,
    )


_BUILDERS = {
    PROBE_SKEWED: lambda: fit_kde(ScoreSample(probe_runs()), KdeSpec(bandwidth=0.006)),
    CROSSING_STEADY: lambda: fit_kde(
        ScoreSample(crossing_steady_runs()),
        KdeSpec(bandwidth=0.0025, support_lo=0.801, support_hi=0.861),
    ),
    CROSSING_VOLATILE: lambda: fit_kde(
        ScoreSample(crossing_volatile_runs()),
        KdeSpec(bandwidth=0.004, support_lo=0.70, support_hi=1.00),
    ),
}


def build_fixture(name: str) -> DiscreteDistribution:
    """Rebuild a fixture distribution from its synthetic runs.

    The result is bit-identical to the shipped JSON; a regression test
    holds the two together.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; expected one of {', '.join(FIXTURE_NAMES)}") from None
    return builder()


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
    """Write all fixture JSONs into `directory` (used to regenerate the
    shipped package data)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name in FIXTURE_NAMES:
        path = directory / _FILES[name]
        save_distribution(build_fixture(name), path)
        written.append(path)
    return written
