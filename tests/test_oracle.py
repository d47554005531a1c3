"""Exact population oracle for the paper's claims and for the batteries.

Every size-B sample from a small discrete distribution is one of a few
multinomial count vectors, each with an exact probability, so the paper's
claims about expectations and error signs are checked by enumeration, with
no seed at all: the unbiased estimator has no bias, and the plug-in estimator
sits below the truth for n >= 2. The permutation-invariant estimators see one
sorted row per count vector. The prefix estimator at budget n is the plug-in
estimate of its first n draws, which are i.i.d. themselves, so it enumerates
the count vectors of n draws.

The batteries are then checked against the oracle at one pinned seed, chosen
once and never re-chosen: every probe row must hold the exact underestimate
probability inside its Clopper-Pearson interval at a Bonferroni level, and
every curves-sim average must lie within 4 standard errors of the exact
expectation of its estimator (the truth, for the unbiased one).
"""

import itertools
import math

import numpy as np
import pytest

from bestofn import (
    DiscreteDistribution,
    EstimatorKind,
    RngStream,
    clopper_pearson,
    curves,
    exact_expected_max,
    probe,
    true_curve,
)
from bestofn.estimators import curve_rows, estimate_rows

# Criterion 10's "alpha" distribution.
ALPHA = DiscreteDistribution([0.0, 0.5, 1.0], [0.2, 0.5, 0.3])
B = 12
SEED = 1729
SAMPLES = 2000
PREFIX = EstimatorKind.MEANMAX_PREFIX


def count_vectors(dist: DiscreteDistribution, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(sorted rows, probabilities) of every count vector of ``size`` draws
    from ``dist``: C(size + k - 1, k - 1) rows for a k-point support."""
    k = dist.size
    rows, probs = [], []
    for bars in itertools.combinations(range(size + k - 1), k - 1):
        counts = np.diff((-1, *bars, size + k - 1)) - 1
        ways = math.factorial(size) // math.prod(math.factorial(c) for c in counts)
        rows.append(np.repeat(dist.support, counts))
        probs.append(ways * math.prod(float(m) ** int(c) for m, c in zip(dist.mass, counts)))
    return np.array(rows), np.array(probs)


def estimates(kind: EstimatorKind, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(budget-n estimates, probabilities) over the whole population."""
    rows, probs = count_vectors(ALPHA, n if kind is PREFIX else B)
    return estimate_rows(rows, kind, n), probs


def expectation(kind: EstimatorKind, n: int) -> float:
    values, probs = estimates(kind, n)
    return math.fsum(values * probs)


def underestimate_probabilities(kind: EstimatorKind) -> list[float]:
    """Exact P(estimate < truth) at n = 1..B, each estimate evaluated by the
    kernel the probe battery uses, so a near-tie rounds the same way."""
    truth = true_curve(ALPHA, B)
    if kind is PREFIX:
        below = [estimates(kind, n) for n in range(1, B + 1)]
        return [math.fsum(p[v < t]) for (v, p), t in zip(below, truth)]
    rows, probs = count_vectors(ALPHA, B)
    below = curve_rows(rows, kind, B) < truth
    return [math.fsum(probs[hit]) for hit in below.T]


def test_count_vectors_cover_the_population():
    rows, probs = count_vectors(ALPHA, B)
    assert rows.shape == (91, B)
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-15)


def test_unbiased_estimator_has_no_bias_at_any_budget():
    for n in range(1, B + 1):
        assert abs(expectation(EstimatorKind.UNBIASED_U, n) - exact_expected_max(ALPHA, n)) <= 1e-15


@pytest.mark.parametrize("kind", [EstimatorKind.MEANMAX_V, PREFIX])
def test_plug_in_estimators_are_low_for_every_budget_past_one(kind):
    assert abs(expectation(kind, 1) - exact_expected_max(ALPHA, 1)) <= 1e-15
    for n in range(2, B + 1):
        assert expectation(kind, n) - exact_expected_max(ALPHA, n) < 0


def test_probe_rows_hold_the_exact_underestimate_probability():
    confidence = 1.0 - 0.001 / (len(EstimatorKind) * B)
    for kind in EstimatorKind:
        report = probe(ALPHA, B, B, SAMPLES, kind, RngStream(SEED))
        for row, exact in zip(report.rows, underestimate_probabilities(kind), strict=True):
            assert clopper_pearson(row.underestimates, row.samples, confidence).contains(exact), (kind, row.n)


def test_curves_averages_sit_within_four_standard_errors_of_the_expectation():
    for kind in EstimatorKind:
        model = curves({"alpha": ALPHA}, B, SAMPLES, kind, RngStream(SEED)).model("alpha")
        for n, average, stderr in zip(model.budgets, model.averaged, model.stderr, strict=True):
            assert abs(average - expectation(kind, n)) <= 4.0 * stderr, (kind, n)
