"""Tests for percentile-bootstrap and Clopper-Pearson intervals.

Clopper-Pearson bounds are checked against closed forms, scipy's beta
quantiles and exact binomial coverage, and the full bootstrap pipeline
against a literal reimplementation that draws the same index matrix and
feeds each resample through the scalar estimator API one row at a time.
"""

import time
import tracemalloc
import warnings

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
    percentile_bootstrap_ci,
    percentile_bootstrap_curve,
)
from bestofn import resampling
from bestofn.estimators import curve_rows


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
    with pytest.raises(ValueError):
        Interval(0.1, float("inf"))


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


def beta_quantile_ends(k, m, confidence):
    alpha = 1.0 - confidence
    return (0.0 if k == 0 else betaincinv(k, m - k + 1, alpha / 2.0),
            1.0 if k == m else betaincinv(k + 1, m - k, 1.0 - alpha / 2.0))


@pytest.mark.parametrize("confidence", [0.95, 0.99, 1.0 - 0.001 / 36])
def test_clopper_pearson_tail_roots_match_beta_quantiles_on_a_grid(confidence):
    # Every k at m <= 30, and ends, quartiles and random k at larger m.
    rng = np.random.default_rng(41)
    grid = [(k, m) for m in range(1, 31) for k in range(m + 1)]
    for m in (300, 1000, 5000):
        ks = {0, 1, 2, m // 4, m // 2, 3 * m // 4, m - 2, m - 1, m, *rng.integers(0, m + 1, 12).tolist()}
        grid += [(k, m) for k in sorted(ks)]
    for k, m in grid:
        iv = clopper_pearson(k, m, confidence)
        assert type(iv.lo) is float and type(iv.hi) is float
        assert_allclose((iv.lo, iv.hi), beta_quantile_ends(k, m, confidence), rtol=0, atol=1e-12,
                        err_msg=f"k={k}, m={m}")


def test_clopper_pearson_at_a_hundred_thousand_trials_is_accurate_and_quick():
    k, m = 31_337, 10**5
    start = time.perf_counter()
    iv = clopper_pearson(k, m, 0.95)
    elapsed = time.perf_counter() - start
    assert_allclose((iv.lo, iv.hi), beta_quantile_ends(k, m, 0.95), rtol=0, atol=1e-11)
    assert elapsed < 1.0


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


def test_the_widest_finite_range_keeps_curves_and_bootstraps_inside_it():
    # A resample's range never exceeds its sample's, so refusing a sample whose range
    # overflows a float covers every estimator and every bootstrap.
    sample = ScoreSample([-8e307, 8e307, 0.5, 7e307, -1e300])
    config = BootstrapConfig(RngStream(3), resamples=300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in EstimatorKind:
            curve = curve_rows(sample.ingested_values, kind, sample.size)
            lo, hi = percentile_bootstrap_curve(sample, kind, sample.size, config)
            for values in (curve, lo, hi):
                assert np.all((sample.min <= values) & (values <= sample.max)), kind
            assert np.all(lo <= hi), kind


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
    # Same resamples, and curve_blocks agrees with estimate_rows to rounding,
    # exactly at n = 1, where both sum the same gaps times the same weights.
    sample = ScoreSample(np.random.default_rng(44).normal(size=15))
    config = BootstrapConfig(RngStream(45, 2), resamples=300, confidence=0.8)
    lo, hi = percentile_bootstrap_curve(sample, kind, 15, config)
    iv = percentile_bootstrap_ci(sample, kind, 1, config)
    assert (lo[0], hi[0]) == (iv.lo, iv.hi)
    for n in range(2, 16):
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


@pytest.mark.parametrize("kind", list(EstimatorKind))
def test_bootstrap_curve_ends_are_the_quantiles_of_the_resampled_curves(kind):
    # One np.quantile per block of budgets gives each column's own quantiles.
    sample = ScoreSample(np.random.default_rng(50).normal(size=40))
    config = BootstrapConfig(RngStream(51, 3), resamples=700, confidence=0.9)
    draws = np.concatenate([rows for _, rows in resampling._resamples(sample, config)])
    n_max = 90 if kind is EstimatorKind.MEANMAX_V else 40
    q = (1.0 - config.confidence) / 2.0
    want = np.quantile(curve_rows(draws, kind, n_max), (q, 1.0 - q), axis=0)
    lo, hi = percentile_bootstrap_curve(sample, kind, n_max, config)
    assert lo.tobytes() == want[0].tobytes()
    assert hi.tobytes() == want[1].tobytes()


@pytest.mark.parametrize("kind", [EstimatorKind.MEANMAX_V, EstimatorKind.UNBIASED_U])
def test_bootstrap_curve_of_many_resamples_holds_no_sorted_copy(kind):
    # 1000 resamples of 500 scores sort straight into their gaps, 3.8 MiB; the
    # resamples themselves, a sorted copy, a list of resample chunks or one
    # product array per budget over the whole stack would each add about 3.8 MiB.
    sample = ScoreSample(np.random.default_rng(52).normal(size=500))
    config = BootstrapConfig(RngStream(53, 1), resamples=1000)
    tracemalloc.start()
    try:
        percentile_bootstrap_curve(sample, kind, 50, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


@pytest.mark.parametrize("kind", [EstimatorKind.MEANMAX_V, EstimatorKind.UNBIASED_U])
def test_bootstrap_curve_takes_one_quantile_per_block_of_budgets(kind, monkeypatch):
    # 1000 resamples of 500 scores at n_max = 50: one block holds every budget, so
    # one percentile_ends call reduces the whole curve, not one call per budget.
    sample = ScoreSample(np.random.default_rng(54).normal(size=500))
    config = BootstrapConfig(RngStream(55, 1), resamples=1000)
    percentile_ends, calls = resampling.percentile_ends, []

    def counting(*args, **kwargs):
        calls.append(1)
        return percentile_ends(*args, **kwargs)

    monkeypatch.setattr(resampling, "percentile_ends", counting)
    percentile_bootstrap_curve(sample, kind, 50, config)
    assert len(calls) == 1


def test_bootstrap_curve_refuses_arrays_of_another_shape():
    # Rows left over in a taller matrix would join the percentiles.
    sample = ScoreSample(np.arange(6.0))
    config = BootstrapConfig(RngStream(56, 1), resamples=40)
    for kind in EstimatorKind:
        for resamples, size in ((41, 6), (40, 5)):
            matrix = resampling.bootstrap_matrix(resamples, size)
            with pytest.raises(ValueError, match="matrix must be"):
                percentile_bootstrap_curve(sample, kind, 3, config, matrix)
        matrix = resampling.bootstrap_matrix(40, 6)
        want = percentile_bootstrap_curve(sample, kind, 3, config)
        assert np.array_equal(percentile_bootstrap_curve(sample, kind, 3, config, matrix), want)


def percentile_columns(rows):
    rng = np.random.default_rng(rows)
    signed_zeros = rng.choice([0.0, -0.0], size=(rows, 2))
    return np.column_stack([
        rng.normal(size=rows),
        np.full(rows, 0.25),  # constant
        rng.integers(0, 3, size=rows) / 4.0,  # tied
        signed_zeros,
        np.where(rng.random(rows) < 0.5, signed_zeros[:, 0], rng.choice([-1.0, 1.0], size=rows)),
    ])


@pytest.mark.parametrize("rows", [1, 2, 3, 7, 999, 1000, 1001])
@pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.999])
def test_percentile_ends_are_numpy_quantiles_bit_for_bit(rows, confidence):
    values = percentile_columns(rows)
    q = (1.0 - confidence) / 2.0
    want = np.quantile(values, (q, 1.0 - q), axis=0)
    assert resampling.percentile_ends(values, confidence).tobytes() == want.tobytes()
    assert resampling.percentile_ends(values[:, 0], confidence).tobytes() == want[:, 0].tobytes()


def test_bootstrap_config_validation():
    with pytest.raises(ValueError):
        BootstrapConfig(RngStream(1), resamples=0)
    with pytest.raises(ValueError):
        BootstrapConfig(RngStream(1), confidence=1.0)
