"""Recipes that rebuild the shipped fixture distributions.

Each fixture under ``bestofn/data/`` is :func:`bestofn.distributions.fit_kde`
applied to a deterministic synthetic run set built on scipy's normal quantile
``ndtri``. The package ships the resulting JSON and never calls these
recipes; ``test_fixture_recipes.py`` checks that they still give its bytes.
"""

import numpy as np
from scipy.special import ndtri

from bestofn.distributions import DiscreteDistribution, KdeSpec, fit_kde
from bestofn.estimators import ScoreSample
from bestofn.fixtures import CROSSING_STEADY, CROSSING_VOLATILE, FIXTURE_NAMES, PROBE_SKEWED


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
    parts = []
    for weight, mean, sd in zip(weights, means, sds):
        k = max(1, round(weight * count))
        parts.append(ndtri(_grid(k)) * sd + mean)
    return np.concatenate(parts)


def probe_runs() -> np.ndarray:
    """Synthetic run scores behind the ``probe-skewed`` fixture."""
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

    Under AVX-512 dispatch the result is bit-identical to the shipped JSON;
    ``test_shipped_json_matches_recipe`` holds the two together.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; expected one of {', '.join(FIXTURE_NAMES)}") from None
    return builder()
