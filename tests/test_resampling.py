"""Tests for percentile-bootstrap and Clopper-Pearson intervals.

Clopper-Pearson bounds are checked against closed forms, scipy's beta
quantiles and exact binomial coverage, and the full bootstrap pipeline
against a literal reimplementation that draws the same index matrix and
feeds each resample through the scalar estimator API one row at a time.
"""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import betaincinv
from scipy.stats import binom

from bestofn import (
    BootstrapConfig,
    EstimatorKind,
    Interval,
    RngStream,
    ScoreSample,
    clopper_pearson,
    percentile,
    percentile_bootstrap_ci,
    percentile_bootstrap_curve,
)


# ---------------------------------------------------------------------------
# Interval
# ---------------------------------------------------------------------------


def test_interval_contains_and_width():
    iv = Interval(0.25, 0.75)
    assert iv.contains(0.25) and iv.contains(0.75) and iv.contains(0.5)
    assert not iv.contains(0.24)
    assert iv.width == 0.5


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(0.7, 0.3)
    with pytest.raises(ValueError):
        Interval(float("nan"), 0.5)


# ---------------------------------------------------------------------------
# percentile
# ---------------------------------------------------------------------------


def test_percentile_point_values():
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert percentile([10.0, 20.0], 0.25) == 12.5


def test_percentile_extremes_are_min_and_max():
    rng = np.random.default_rng(31)
    for _ in range(10):
        values = rng.normal(size=int(rng.integers(1, 25)))
        assert percentile(values, 0.0) == values.min()
        assert percentile(values, 1.0) == values.max()


def test_percentile_matches_closest_rank_interpolation():
    # Hand-rolled linear interpolation between closest ranks.
    rng = np.random.default_rng(32)
    for _ in range(20):
        values = rng.normal(size=int(rng.integers(2, 30)))
        q = float(rng.uniform())
        y = np.sort(values)
        p = q * (len(y) - 1)
        k = int(math.floor(p))
        frac = p - k
        expected = y[k] if k + 1 == len(y) else y[k] + frac * (y[k + 1] - y[k])
        assert_allclose(percentile(values, q), expected, rtol=1e-12)


def test_percentile_monotone_and_permutation_invariant():
    rng = np.random.default_rng(33)
    values = rng.normal(size=17)
    qs = np.linspace(0.0, 1.0, 21)
    results = [percentile(values, q) for q in qs]
    assert np.all(np.diff(results) >= 0.0)
    shuffled = rng.permutation(values)
    assert all(percentile(values, q) == percentile(shuffled, q) for q in qs)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


# ---------------------------------------------------------------------------
# Clopper-Pearson
# ---------------------------------------------------------------------------


def test_clopper_pearson_zero_successes():
    iv = clopper_pearson(0, 20, 0.95)
    assert iv.lo == 0.0
    assert_allclose(iv.hi, 1.0 - 0.025 ** (1.0 / 20.0), atol=1e-9)


def test_clopper_pearson_all_successes():
    iv = clopper_pearson(20, 20, 0.95)
    assert iv.hi == 1.0
    assert_allclose(iv.lo, 0.025 ** (1.0 / 20.0), atol=1e-9)


def test_clopper_pearson_single_trial_success():
    iv = clopper_pearson(1, 1, 0.95)
    assert_allclose(iv.lo, 0.025, atol=1e-9)
    assert iv.hi == 1.0


def test_clopper_pearson_matches_beta_quantiles():
    rng = np.random.default_rng(37)
    for _ in range(40):
        m = int(rng.integers(1, 200))
        k = int(rng.integers(0, m + 1))
        iv = clopper_pearson(k, m, 0.95)
        expected_lo = 0.0 if k == 0 else betaincinv(k, m - k + 1, 0.025)
        expected_hi = 1.0 if k == m else betaincinv(k + 1, m - k, 0.975)
        assert_allclose(iv.lo, expected_lo, atol=1e-12)
        assert_allclose(iv.hi, expected_hi, atol=1e-12)


def test_clopper_pearson_contains_the_point_estimate():
    rng = np.random.default_rng(38)
    for _ in range(40):
        m = int(rng.integers(1, 100))
        k = int(rng.integers(0, m + 1))
        iv = clopper_pearson(k, m, 0.95)
        assert iv.contains(k / m)


def test_clopper_pearson_reflection_equivariance():
    rng = np.random.default_rng(39)
    for _ in range(30):
        m = int(rng.integers(1, 80))
        k = int(rng.integers(0, m + 1))
        iv = clopper_pearson(k, m, 0.9)
        mirrored = clopper_pearson(m - k, m, 0.9)
        assert_allclose(iv.lo, 1.0 - mirrored.hi, atol=2e-10)
        assert_allclose(iv.hi, 1.0 - mirrored.lo, atol=2e-10)


def test_clopper_pearson_exhaustive_coverage():
    # Exact coverage computation: sum binomial mass over the k whose interval
    # contains p. The exact interval is conservative, so coverage >= nominal.
    m = 30
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        covered = 0.0
        for k in range(m + 1):
            if clopper_pearson(k, m, 0.95).contains(p):
                covered += binom.pmf(k, m, p)
        assert covered >= 0.95


def test_clopper_pearson_rejects_bad_input():
    with pytest.raises(ValueError):
        clopper_pearson(5, 4, 0.95)
    with pytest.raises(ValueError):
        clopper_pearson(-1, 4, 0.95)
    with pytest.raises(ValueError):
        clopper_pearson(1, 0, 0.95)
    with pytest.raises(ValueError):
        clopper_pearson(1, 4, 1.0)


# ---------------------------------------------------------------------------
# Percentile bootstrap
# ---------------------------------------------------------------------------


def mirror_bootstrap(sample, kind, n, config):
    """Reimplementation: same index draws, scalar estimator per resample."""
    from bestofn import estimate

    gen = config.rng.generator()
    idx = gen.integers(0, sample.size, size=(config.resamples, sample.size))
    stats = np.empty(config.resamples)
    for i, row in enumerate(sample.sorted_values[idx]):
        if kind is EstimatorKind.MEANMAX_PREFIX:
            stats[i] = estimate(ScoreSample(row[:n]), kind, n)
        else:
            stats[i] = estimate(ScoreSample(row), kind, n)
    alpha = 1.0 - config.confidence
    return Interval(
        float(np.quantile(stats, alpha / 2.0)),
        float(np.quantile(stats, 1.0 - alpha / 2.0)),
    )


def test_bootstrap_constant_sample_degenerates():
    sample = ScoreSample([5.0, 5.0, 5.0, 5.0])
    for kind in EstimatorKind:
        for n in (1, 2, 4):
            iv = percentile_bootstrap_ci(
                sample, kind, n, BootstrapConfig(RngStream(1), resamples=200)
            )
            assert iv.lo == iv.hi == 5.0


def test_bootstrap_bounded_by_sample_range():
    sample = ScoreSample([1.0, 2.0, 3.0])
    iv = percentile_bootstrap_ci(
        sample, EstimatorKind.MEANMAX_V, 1, BootstrapConfig(RngStream(2), resamples=4000)
    )
    assert iv.lo >= 1.0
    assert iv.hi <= 3.0


def test_bootstrap_contains_point_estimate():
    from bestofn import draw_sample, unbiased_u
    from bestofn.distributions import DiscreteDistribution

    ten = DiscreteDistribution(np.arange(1.0, 11.0), np.full(10, 0.1))
    sample = draw_sample(ten, 50, RngStream(40, 0))
    iv = percentile_bootstrap_ci(
        sample, EstimatorKind.UNBIASED_U, 5, BootstrapConfig(RngStream(40, 1), resamples=3000)
    )
    assert iv.contains(unbiased_u(sample, 5))


def test_bootstrap_determinism():
    rng = np.random.default_rng(41)
    sample = ScoreSample(rng.normal(size=30))
    config = BootstrapConfig(RngStream(99, 7), resamples=500)
    a = percentile_bootstrap_ci(sample, EstimatorKind.UNBIASED_U, 4, config)
    b = percentile_bootstrap_ci(sample, EstimatorKind.UNBIASED_U, 4, config)
    assert (a.lo, a.hi) == (b.lo, b.hi)


def test_bootstrap_permutation_invariance():
    rng = np.random.default_rng(42)
    values = rng.normal(size=25)
    config = BootstrapConfig(RngStream(5, 5), resamples=400)
    for kind in (EstimatorKind.MEANMAX_V, EstimatorKind.UNBIASED_U):
        a = percentile_bootstrap_ci(ScoreSample(values), kind, 3, config)
        b = percentile_bootstrap_ci(ScoreSample(rng.permutation(values)), kind, 3, config)
        assert (a.lo, a.hi) == (b.lo, b.hi)


def test_bootstrap_matches_scalar_reimplementation():
    rng = np.random.default_rng(43)
    values = rng.uniform(0.0, 1.0, size=20)
    sample = ScoreSample(values)
    for kind in EstimatorKind:
        for n in (1, 3, 8):
            config = BootstrapConfig(RngStream(1000 + n, 2), resamples=300)
            fast = percentile_bootstrap_ci(sample, kind, n, config)
            slow = mirror_bootstrap(sample, kind, n, config)
            assert_allclose([fast.lo, fast.hi], [slow.lo, slow.hi], rtol=1e-12)


def test_bootstrap_propagates_estimator_errors():
    from bestofn import BudgetTooLargeError

    sample = ScoreSample([1.0, 2.0, 3.0])
    with pytest.raises(BudgetTooLargeError):
        percentile_bootstrap_ci(
            sample, EstimatorKind.UNBIASED_U, 4, BootstrapConfig(RngStream(1))
        )


@pytest.mark.parametrize("kind", list(EstimatorKind))
def test_bootstrap_curve_columns_match_single_budget_intervals(kind):
    # Same resamples, and curve_blocks agrees with estimate_rows to rounding.
    sample = ScoreSample(np.random.default_rng(44).normal(size=15))
    config = BootstrapConfig(RngStream(45, 2), resamples=300, confidence=0.8)
    lo, hi = percentile_bootstrap_curve(sample, kind, 15, config)
    for n in range(1, 16):
        iv = percentile_bootstrap_ci(sample, kind, n, config)
        assert_allclose([lo[n - 1], hi[n - 1]], [iv.lo, iv.hi], rtol=1e-12)
    assert (lo <= hi).all()


def test_bootstrap_curve_memory_does_not_scale_with_resamples_times_n_max():
    # 200 resamples x 20000 budgets of estimates would alone take 30.5 MiB.
    sample = ScoreSample(np.random.default_rng(46).normal(size=50))
    config = BootstrapConfig(RngStream(47, 1), resamples=200)
    tracemalloc.start()
    try:
        percentile_bootstrap_curve(sample, EstimatorKind.MEANMAX_V, 20000, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_bootstrap_config_validation():
    with pytest.raises(ValueError):
        BootstrapConfig(RngStream(1), resamples=0)
    with pytest.raises(ValueError):
        BootstrapConfig(RngStream(1), confidence=1.0)
