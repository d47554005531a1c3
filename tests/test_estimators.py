"""Tests for the expected-maximum estimators.

The two non-trivial estimators are checked against independent brute-force
oracles:

* ``unbiased_u`` against an average of subset maxima enumerated with
  ``itertools.combinations``;
* ``meanmax_v`` against an average over all B**n ordered draws with
  replacement, built by iterating ``np.maximum.outer``.

Both oracles are written from the definition of the statistic, not from the
weight formulas the library uses, so agreement is meaningful. At sizes too
large to enumerate, both estimators are checked against their weighted
order-statistic sums in exact rational arithmetic.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bestofn import (
    BudgetTooLargeError,
    BudgetTooSmallError,
    DiscreteDistribution,
    EmptySampleError,
    EstimatorKind,
    Interval,
    ScoreSample,
    ecdf_pow,
    estimate,
    expected_max_curve,
    ks_distance,
    ks_lower_bound,
    meanmax_prefix,
    meanmax_v,
    true_curve,
    unbiased_u,
)
from bestofn import estimators
from bestofn.estimators import CurvePoint, cumweights, curve_rows, estimate_rows

MEANMAX = EstimatorKind.MEANMAX_V
UNBIASED = EstimatorKind.UNBIASED_U


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


def subset_mean_max(values, n):
    """Average of max over all size-n subsets (without replacement)."""
    return float(np.mean([max(c) for c in itertools.combinations(values, n)]))


def ordered_draw_mean_max(values, n):
    """Average of max over all B**n ordered draws with replacement."""
    values = np.asarray(values, dtype=float)
    acc = values
    for _ in range(n - 1):
        acc = np.maximum.outer(acc, values).ravel()
    return float(acc.mean())


def exact_estimate(values, kind, n):
    """The estimate as an exact rational, correctly rounded at the end.

    The j-th smallest of B values is the maximum of C(j-1, n-1) of the
    C(B, n) size-n subsets, and of j**n - (j-1)**n of the B**n ordered draws.
    """
    ordered = [Fraction(v) for v in sorted(values)]
    size = len(ordered)
    if kind is UNBIASED:
        total = sum(math.comb(j - 1, n - 1) * v for j, v in enumerate(ordered, start=1))
        return float(total / math.comb(size, n))
    total = sum((j**n - (j - 1) ** n) * v for j, v in enumerate(ordered, start=1))
    return float(total / size**n)


# ---------------------------------------------------------------------------
# Point values
# ---------------------------------------------------------------------------


def test_meanmax_v_three_values():
    # All 9 ordered pairs from {1,2,3}: maxima sum to 22.
    sample = ScoreSample([1.0, 2.0, 3.0])
    assert_allclose(meanmax_v(sample, 2), 22.0 / 9.0, rtol=1e-15)


def test_unbiased_u_three_values():
    # Subsets of size 2 from {1,2,3} have maxima {2,3,3}.
    sample = ScoreSample([1.0, 2.0, 3.0])
    assert_allclose(unbiased_u(sample, 2), 8.0 / 3.0, rtol=1e-15)


def test_plugin_below_unbiased_on_three_values():
    sample = ScoreSample([1.0, 2.0, 3.0])
    assert meanmax_v(sample, 2) < unbiased_u(sample, 2)


def test_n_equals_one_is_the_mean():
    rng = np.random.default_rng(11)
    for _ in range(20):
        values = rng.normal(size=rng.integers(1, 30))
        sample = ScoreSample(values)
        mean = float(np.mean(values))
        assert_allclose(meanmax_v(sample, 1), mean, rtol=1e-12)
        assert_allclose(unbiased_u(sample, 1), mean, rtol=1e-12)
        # The prefix variant at n=1 sees only the first ingested value.
        assert meanmax_prefix(sample, 1) == values[0]
        # n=1 is not merely close: the two main estimators agree exactly.
        assert meanmax_v(sample, 1) == unbiased_u(sample, 1)


def test_unbiased_u_at_full_budget_is_the_max():
    rng = np.random.default_rng(12)
    for _ in range(20):
        values = rng.normal(size=rng.integers(1, 30))
        sample = ScoreSample(values)
        assert unbiased_u(sample, sample.size) == sample.max


def test_constant_sample_any_budget():
    sample = ScoreSample([5.0, 5.0, 5.0])
    for n in (1, 2, 3, 7):
        assert meanmax_v(sample, n) == 5.0
    for n in (1, 2, 3):
        assert unbiased_u(sample, n) == 5.0
        assert meanmax_prefix(sample, n) == 5.0


def test_meanmax_prefix_examples():
    sample = ScoreSample([3.0, 1.0, 2.0])
    # Prefix of length 1 is just the first value.
    assert meanmax_prefix(sample, 1) == 3.0
    # Prefix of length 3 is the whole (order-independent) plug-in.
    assert_allclose(meanmax_prefix(sample, 3), 72.0 / 27.0, rtol=1e-15)
    assert_allclose(meanmax_prefix(sample, 3), meanmax_v(sample, 3), rtol=1e-15)
    # Prefix of length 2 sees only the first two ingested values.
    ordered = ScoreSample([1.0, 2.0, 3.0])
    assert_allclose(meanmax_prefix(ordered, 2), 7.0 / 4.0, rtol=1e-15)
    assert_allclose(
        meanmax_prefix(ordered, 2), meanmax_v(ScoreSample([1.0, 2.0]), 2), rtol=1e-15
    )
    # At budget n the prefix estimator weighs its n scores as the plug-in does.
    assert np.array_equal(
        cumweights(EstimatorKind.MEANMAX_PREFIX, 3, 2), cumweights(MEANMAX, 2, 2)
    )


def test_meanmax_prefix_depends_on_ingestion_order():
    a = meanmax_prefix(ScoreSample([1.0, 2.0, 3.0]), 2)
    b = meanmax_prefix(ScoreSample([3.0, 2.0, 1.0]), 2)
    assert a != b


def test_extrapolation_past_sample_size():
    # Only the plug-in form is defined for n > B; it climbs toward the max.
    sample = ScoreSample([1.0, 2.0, 3.0])
    previous = meanmax_v(sample, 3)
    for n in (5, 10, 50):
        value = meanmax_v(sample, n)
        assert previous <= value <= 3.0
        previous = value
    assert meanmax_v(sample, 400) == pytest.approx(3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------


def test_expected_max_curve_unbiased():
    sample = ScoreSample([1.0, 2.0, 3.0])
    curve = expected_max_curve(sample, EstimatorKind.UNBIASED_U, 3)
    budgets = [p.n for p in curve.points]
    values = [p.estimate for p in curve.points]
    assert budgets == [1, 2, 3]
    assert_allclose(values, [2.0, 8.0 / 3.0, 3.0], rtol=1e-15)
    assert all(p.ci is None for p in curve.points)


def test_expected_max_curve_meanmax():
    sample = ScoreSample([1.0, 2.0, 3.0])
    curve = expected_max_curve(sample, EstimatorKind.MEANMAX_V, 2)
    assert [p.n for p in curve.points] == [1, 2]
    assert_allclose([p.estimate for p in curve.points], [2.0, 22.0 / 9.0], rtol=1e-15)


def test_expected_max_curve_single_point_is_mean():
    rng = np.random.default_rng(13)
    values = rng.normal(size=9)
    sample = ScoreSample(values)
    for kind in (EstimatorKind.MEANMAX_V, EstimatorKind.UNBIASED_U):
        curve = expected_max_curve(sample, kind, 1)
        assert len(curve.points) == 1
        assert_allclose(curve.points[0].estimate, float(np.mean(values)), rtol=1e-12)
    prefix_curve = expected_max_curve(sample, EstimatorKind.MEANMAX_PREFIX, 1)
    assert prefix_curve.points[0].estimate == values[0]


def test_curves_are_non_decreasing():
    # Holds exactly for the two fixed-sample estimators: raising n moves
    # weight toward larger order statistics of the same sorted values.
    rng = np.random.default_rng(14)
    for _ in range(25):
        values = rng.normal(size=int(rng.integers(2, 40)))
        sample = ScoreSample(values)
        for kind in (EstimatorKind.MEANMAX_V, EstimatorKind.UNBIASED_U):
            curve = expected_max_curve(sample, kind, sample.size)
            estimates = np.array([p.estimate for p in curve.points])
            assert np.all(np.diff(estimates) >= -1e-12)


def test_prefix_curve_may_decrease():
    # The prefix variant re-fits on a growing sub-sample, so a large early
    # value can pull the curve down; it is monotone only in expectation.
    curve = expected_max_curve(ScoreSample([3.0, 1.0, 2.0]), EstimatorKind.MEANMAX_PREFIX, 3)
    estimates = [p.estimate for p in curve.points]
    assert_allclose(estimates, [3.0, 2.5, 72.0 / 27.0], rtol=1e-15)
    assert estimates[1] < estimates[0]


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


def per_position_weights(cum):
    """Weights w_1..w_B from partial sums c_1..c_{B-1} (c_0 = 0, c_B = 1)."""
    return np.diff(np.concatenate(([0.0], cum, [1.0])))


def test_weights_sum_to_one():
    for size in range(1, 65):
        for n in range(1, size + 1):
            for kind in (MEANMAX, UNBIASED):
                assert abs(per_position_weights(cumweights(kind, size, n)).sum() - 1.0) < 1e-12


def test_weights_are_non_negative():
    for size in (1, 2, 5, 17, 64):
        for n in range(1, size + 1):
            for kind in (MEANMAX, UNBIASED):
                assert np.all(per_position_weights(cumweights(kind, size, n)) >= 0.0)


def test_cumulative_weight_dominance():
    # Partial sums of the unbiased weights sit strictly below the plug-in's
    # at every interior index, for every n >= 2.
    for size in (2, 3, 5, 10, 27, 64):
        for n in range(2, size + 1):
            cum_v = cumweights(MEANMAX, size, n)
            cum_u = cumweights(UNBIASED, size, n)
            assert cum_u.shape == cum_v.shape == (size - 1,)
            assert np.all(cum_u < cum_v)


def test_cumweights_match_weight_prefix_sums():
    # Per-position weights from their definitions: (j/B)^n - ((j-1)/B)^n and
    # C(j-1, n-1) / C(B, n), the latter exact in integers.
    for size in (3, 8, 21):
        j = np.arange(1, size + 1)
        for n in range(1, size + 1):
            w_v = (j / size) ** n - ((j - 1) / size) ** n
            w_u = np.array([math.comb(k - 1, n - 1) / math.comb(size, n) for k in j])
            assert_allclose(cumweights(MEANMAX, size, n), np.cumsum(w_v)[:-1], atol=1e-12)
            assert_allclose(cumweights(UNBIASED, size, n), np.cumsum(w_u)[:-1], atol=1e-12)
            # The unbiased partial sums vanish exactly where no subset can
            # have its maximum at or below position j.
            assert np.all(cumweights(UNBIASED, size, n)[: n - 1] == 0.0)


def test_shared_cumweights_at_n_one():
    # Both estimators reduce to the mean at n=1 through the same weight
    # vector, so the n=1 equality is exact in floating point.
    for size in (1, 4, 33):
        assert np.array_equal(cumweights(MEANMAX, size, 1), cumweights(UNBIASED, size, 1))


def test_large_sample_weights_stay_finite():
    # Direct binomials would overflow here; the ratio products must not.
    for kind in (MEANMAX, UNBIASED):
        w = per_position_weights(cumweights(kind, 2000, 50))
        assert np.all(np.isfinite(w))
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) < 1e-9


# A tail block this short cuts the gaps of samples of a few dozen scores.
SHORT_TAIL = 8


def test_estimates_match_exact_rationals():
    rng = np.random.default_rng(107)
    values = rng.normal(size=300)
    sample = ScoreSample(values)
    scale = sample.max - sample.min
    for tail in (estimators._TAIL_VALUES, SHORT_TAIL):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimators, "_TAIL_VALUES", tail)
            for kind in (MEANMAX, UNBIASED):
                curve = expected_max_curve(sample, kind, sample.size).estimates
                for n in (1, 2, 10, 150, 300):
                    want = exact_estimate(values, kind, n)
                    assert abs(estimate(sample, kind, n) - want) <= 1e-12 * scale
                    assert abs(curve[n - 1] - want) <= 1e-12 * scale


def test_curve_memory_does_not_grow_with_budget_count():
    # One weight row per budget would take n_max * B * 8 bytes (153 MiB).
    sample = ScoreSample(np.random.default_rng(108).normal(size=100_000))
    for kind in (MEANMAX, UNBIASED):
        tracemalloc.start()
        try:
            expected_max_curve(sample, kind, 200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


def test_full_curve_at_large_sample_size_stays_small_and_exact():
    # n_max = B = 20,000: the tail window sums about B * _TAIL_VALUES products
    # rather than B**2, in O(B) memory.
    values = np.random.default_rng(109).normal(size=20_000)
    scale = np.ptp(values)
    for kind in (MEANMAX, UNBIASED):
        tracemalloc.start()
        try:
            curve = curve_rows(values, kind, values.size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        for n in (1, 2, 64):
            assert abs(curve[n - 1] - exact_estimate(values, kind, n)) <= 1e-12 * scale


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.integers(-1000, 1000).map(lambda k: k / 64), min_size=1, max_size=80))
def test_estimator_invariants_hold_exactly(values):
    # Once with one tail block (B - 1 <= _TAIL_VALUES) and once with the
    # gaps cut into short blocks, most of them dead at large n.
    for tail in (estimators._TAIL_VALUES, SHORT_TAIL):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimators, "_TAIL_VALUES", tail)
            check_estimator_invariants(values)


def check_estimator_invariants(values):
    # Dyadic scores keep every gap exact and the last rounding at the sample
    # maximum far below the tolerance, so the bound below is about the
    # weights alone.
    sample = ScoreSample(values)
    lo, hi = sample.min, sample.max
    tol = 1e-12 * (hi - lo)
    curves = {
        kind: expected_max_curve(sample, kind, sample.size).estimates
        for kind in (MEANMAX, UNBIASED)
    }
    assert np.all(curves[MEANMAX] <= curves[UNBIASED])
    assert curves[MEANMAX][0] == curves[UNBIASED][0]
    for curve in curves.values():
        assert np.all(np.diff(curve) >= 0.0)
        assert np.all((lo <= curve) & (curve <= hi))
    assert meanmax_v(sample, 1) == unbiased_u(sample, 1)
    for n in range(1, sample.size + 1):
        v, u = meanmax_v(sample, n), unbiased_u(sample, n)
        assert lo <= v <= u <= hi
        assert abs(v - curves[MEANMAX][n - 1]) <= tol
        assert abs(u - curves[UNBIASED][n - 1]) <= tol


# ---------------------------------------------------------------------------
# Stacked kernels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", list(EstimatorKind))
def test_estimate_rows_match_single_estimates(kind):
    # Each row is its own reduction, so a stack of any height gives the
    # single-sample bits.
    rows = np.random.default_rng(31).normal(size=(7, 23))
    for n in (1, 2, 9, 23):
        stacked = estimate_rows(rows, kind, n)
        single = [estimate(ScoreSample(row), kind, n) for row in rows]
        assert stacked.shape == (7,)
        assert np.array_equal(stacked, single)
    # A single budget sums its gaps as a curve does, so at n = 1 it is the
    # curve's first column bit for bit, within one tail block and across several.
    rng = np.random.default_rng(33)
    for size in (2, 5, 9, 17, 50, 500, 1025, 1026, 2000, 20_000):
        for values in (rng.normal(size=size), rng.standard_cauchy(size=size)):
            assert estimate(ScoreSample(values), kind, 1) == curve_rows(values, kind, 1)[0], size


@pytest.mark.parametrize("kind", [MEANMAX, UNBIASED])
def test_curve_rows_stack_matches_single_curves_exactly(kind):
    rows = np.random.default_rng(32).normal(size=(2, 3, 17))
    stacked = curve_rows(rows, kind, 17)
    assert stacked.shape == (2, 3, 17)
    for index in np.ndindex(2, 3):
        single = expected_max_curve(ScoreSample(rows[index]), kind, 17).estimates
        assert np.array_equal(stacked[index], single)


def test_curves_leave_their_inputs_unchanged():
    # curve_blocks sorts the matrix it is handed into gaps in place, so each caller hands
    # it a copy; a writeable input would show a missing copy as changed scores.
    rows = np.random.default_rng(35).normal(size=(2, 3, 40))
    before = rows.copy()
    sample = ScoreSample(rows[0, 0])
    dist = DiscreteDistribution(np.sort(rows[1, 0]), np.full(40, 0.025))
    support, cumulative = dist.support.copy(), dist.cumulative.copy()
    for kind in EstimatorKind:
        curve_rows(rows, kind, 40)
        curve_rows(rows[1, 2], kind, 40)
        expected_max_curve(sample, kind, 40)
    true_curve(dist, 60)
    assert np.array_equal(rows, before)
    assert np.array_equal(sample.ingested_values, before[0, 0])
    assert np.array_equal(sample.sorted_values, np.sort(before[0, 0]))
    assert np.array_equal(dist.support, support) and np.array_equal(dist.cumulative, cumulative)


@pytest.mark.parametrize("kind", [MEANMAX, UNBIASED])
def test_cut_curves_do_not_depend_on_budget_blocks_or_stack_height(kind, monkeypatch):
    # B - 1 = 299 gaps in blocks of 8, so most blocks die as n grows; meanmax
    # runs on past n = 13,286, where even the top gap's weight (299/300)^n is
    # below 2**-64 and nothing is left to sum. In the last row 20 scores tie at
    # a maximum of 0, so the top gaps are 0 and a dead block summed by mistake
    # would show in the estimate's last bits.
    monkeypatch.setattr(estimators, "_TAIL_VALUES", SHORT_TAIL)
    rng = np.random.default_rng(34)
    rows = np.stack([rng.normal(size=300), rng.standard_cauchy(size=300),
                     -np.abs(rng.normal(size=300)) * (np.arange(300) % 15 != 0)])
    n_max = 300 if kind is UNBIASED else 14_000
    default = curve_rows(rows, kind, n_max)
    # Blocks of one budget, of a few and of every budget the window allows.
    for block_values in (1, 5 * rows.size, 1 << 40):
        monkeypatch.setattr(estimators, "_BLOCK_VALUES", block_values)
        assert np.array_equal(curve_rows(rows, kind, n_max), default)
    for row, curve in zip(rows, default):
        assert np.array_equal(curve_rows(row, kind, n_max), curve)
        scale = np.ptp(row)
        for n in (1, 2, 50, 300, n_max):
            assert abs(curve[n - 1] - estimate_rows(row, kind, n)) <= 1e-12 * scale
    if kind is MEANMAX:
        assert np.all(default[:, 13_300:] == rows.max(axis=1, keepdims=True))


def recurrence_curve(rows, kind, n_max):
    """The closed ratio recurrence with one pairwise sum per budget: row n of
    weights is the product of the ratio rows of budgets 1..n, taken by
    ``np.multiply.accumulate``, and each estimate is the maximum minus the
    weighted gaps. Exact for B - 1 <= _TAIL_VALUES gaps and n_max below the
    tail window's first cut."""
    size = rows.shape[-1]
    j = np.arange(1, size, dtype=float)
    m = np.arange(n_max, dtype=float)[:, None]  # n - 1 for budgets n
    if kind is UNBIASED:
        ratios = np.maximum(j - m, 0.0) / (size - m)
    else:
        ratios = np.repeat((j / size)[None, :], n_max, axis=0)
    weights = np.multiply.accumulate(ratios, axis=0)
    ordered = np.sort(rows, axis=-1)
    gaps = ordered[..., 1:] - ordered[..., :-1]
    out = np.empty(rows.shape[:-1] + (n_max,))
    for index in np.ndindex(rows.shape[:-1]):
        out[index] = ordered[index][-1] - (gaps[index] * weights).sum(axis=-1)
    return out


@pytest.mark.parametrize("size", [2, 25, 300, 1025])
def test_curve_rows_are_the_ratio_recurrence_bit_for_bit(size, monkeypatch):
    # One tail block, so each budget is one pairwise sum over every gap; the
    # kernel must take the same product of the same two floats at every weight,
    # whatever the budget blocks.
    rng = np.random.default_rng(36)
    for rows in (rng.normal(size=size), rng.standard_cauchy(size=(3, 4, size))):
        for kind, n_max in ((UNBIASED, size), (MEANMAX, size), (MEANMAX, 3 * size)):
            want = recurrence_curve(rows, kind, n_max)
            for block_values in (1, 1 << 40):
                monkeypatch.setattr(estimators, "_BLOCK_VALUES", block_values)
                assert curve_rows(rows, kind, n_max).tobytes() == want.tobytes()


def test_budgets_past_every_tail_block_build_no_weight_rows():
    # On 50 scores the one tail block dies once (49/50)^n < 2**-64, after
    # n = 2195. The budgets past it sum no gaps, so each is the sample maximum,
    # and none may cost a row multiply of an empty window.
    values = np.random.default_rng(37).normal(size=50)
    live = math.floor(64 / math.log2(50 / 49))
    multiply = np.multiply
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return multiply(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "multiply", counted)
        curve = curve_rows(values, MEANMAX, 200_000)
    assert calls <= live
    assert np.all(curve[live:] == values.max())


@pytest.mark.parametrize("kind", [MEANMAX, UNBIASED])
def test_tall_stacks_do_not_depend_on_the_row_chunk(kind, monkeypatch):
    # 1000 rows of 12 scores, far more rows than gaps: a block of budgets is
    # summed one row at a time, a few rows at a time or all at once.
    rows = np.random.default_rng(38).standard_cauchy(size=(1000, 12))
    n_max = 12 if kind is UNBIASED else 40
    default = curve_rows(rows, kind, n_max)
    assert default.tobytes() == recurrence_curve(rows, kind, n_max).tobytes()
    for block_values in (1, 5 * 11, 1 << 40):
        monkeypatch.setattr(estimators, "_BLOCK_VALUES", block_values)
        assert curve_rows(rows, kind, n_max).tobytes() == default.tobytes()


@pytest.mark.parametrize("kind", list(EstimatorKind))
def test_signed_zero_scores_keep_their_bits_at_n_1(kind):
    # Tied zeros of opposite signs: a gap +0.0 - (-0.0) is +0.0, but -0.0 - (+0.0)
    # is -0.0, and np.max may pick another zero than the sorted row's last. A single
    # budget and a curve's first column must both give the bits of the sorted row's
    # last value minus (zeros + the pairwise sum), signed zeros included.
    rng = np.random.default_rng(39)
    for size in (2, 6, 17, 40):
        rows = np.where(rng.random((400, size)) < 0.5, 0.0, -0.0)
        rows[::7, 0] = 0.5
        ordered = np.sort(rows[:, :1] if kind is EstimatorKind.MEANMAX_PREFIX else rows, axis=-1)
        gaps = ordered[:, 1:] - ordered[:, :-1]
        want = ordered[:, -1] - (np.zeros(len(rows)) + (gaps * cumweights(kind, size, 1)).sum(-1))
        assert np.signbit(want).any() and (want == 0.0).sum() > np.signbit(want).sum()
        assert estimate_rows(rows, kind, 1).tobytes() == want.tobytes()
        assert curve_rows(rows, kind, 1)[:, 0].tobytes() == want.tobytes()


def test_prefix_curve_rows_follow_ingestion_order():
    rows = np.random.default_rng(33).normal(size=(4, 9))
    stacked = curve_rows(rows, EstimatorKind.MEANMAX_PREFIX, 9)
    for row, curve in zip(rows, stacked):
        want = [meanmax_prefix(ScoreSample(row), n) for n in range(1, 10)]
        assert np.array_equal(curve, want)


def test_stacked_kernels_check_their_budget():
    rows = np.zeros((3, 5))
    with pytest.raises(BudgetTooLargeError) as err:
        curve_rows(rows, UNBIASED, 6)
    assert err.value.name == "n_max"
    with pytest.raises(BudgetTooSmallError):
        estimate_rows(rows, EstimatorKind.MEANMAX_PREFIX, 0)


# ---------------------------------------------------------------------------
# Oracle equivalence
# ---------------------------------------------------------------------------


def test_unbiased_u_matches_subset_enumeration():
    rng = np.random.default_rng(101)
    for size in range(1, 9):
        for _ in range(4):
            values = rng.integers(0, 20, size=size).astype(float)
            sample = ScoreSample(values)
            for n in range(1, size + 1):
                assert_allclose(
                    unbiased_u(sample, n), subset_mean_max(values, n), rtol=1e-10
                )


def test_meanmax_v_matches_ordered_draw_enumeration():
    rng = np.random.default_rng(102)
    for size in range(1, 9):
        for _ in range(4):
            values = rng.integers(0, 20, size=size).astype(float)
            sample = ScoreSample(values)
            for n in range(1, size + 1):
                assert_allclose(
                    meanmax_v(sample, n), ordered_draw_mean_max(values, n), rtol=1e-10
                )


def test_oracles_agree_on_ties():
    values = [2.0, 2.0, 7.0, 7.0, 7.0, 1.0]
    sample = ScoreSample(values)
    for n in range(1, len(values) + 1):
        assert_allclose(unbiased_u(sample, n), subset_mean_max(values, n), rtol=1e-10)
        assert_allclose(
            meanmax_v(sample, n), ordered_draw_mean_max(values, n), rtol=1e-10
        )


# ---------------------------------------------------------------------------
# Dominance and bias direction
# ---------------------------------------------------------------------------


def test_plugin_never_exceeds_unbiased():
    rng = np.random.default_rng(103)
    for _ in range(60):
        size = int(rng.integers(2, 64))
        values = rng.normal(size=size)
        sample = ScoreSample(values)
        for n in range(2, size + 1):
            v = meanmax_v(sample, n)
            u = unbiased_u(sample, n)
            assert v <= u
            # Strict whenever the smallest value sits below the n-th order
            # statistic (here: distinct draws, so always for n >= 2).
            if sample.sorted_values[0] < sample.sorted_values[n - 1]:
                assert v < u


def test_dominance_is_equality_on_constant_samples():
    sample = ScoreSample([4.0] * 12)
    for n in range(1, 13):
        assert meanmax_v(sample, n) == unbiased_u(sample, n) == 4.0


def test_negative_bias_of_plugin():
    # Monte Carlo check of the bias direction on uniform{1,2,3}: theta_2 is
    # 22/9 by enumerating the 9 ordered pairs.
    rng = np.random.default_rng(104)
    theta_2 = 22.0 / 9.0
    reps = 4000
    v_values = np.empty(reps)
    u_values = np.empty(reps)
    for i in range(reps):
        values = rng.integers(1, 4, size=6).astype(float)
        sample = ScoreSample(values)
        v_values[i] = meanmax_v(sample, 2)
        u_values[i] = unbiased_u(sample, 2)
    u_err = u_values.std(ddof=1) / math.sqrt(reps)
    assert abs(u_values.mean() - theta_2) < 4.0 * u_err
    v_err = v_values.std(ddof=1) / math.sqrt(reps)
    assert v_values.mean() < theta_2 - 4.0 * v_err


# ---------------------------------------------------------------------------
# Symmetries
# ---------------------------------------------------------------------------


def test_permutation_invariance():
    rng = np.random.default_rng(105)
    for _ in range(15):
        values = rng.normal(size=10)
        shuffled = rng.permutation(values)
        a = ScoreSample(values)
        b = ScoreSample(shuffled)
        for n in (1, 3, 10):
            assert meanmax_v(a, n) == meanmax_v(b, n)
            assert unbiased_u(a, n) == unbiased_u(b, n)


def test_affine_equivariance():
    rng = np.random.default_rng(106)
    for _ in range(15):
        values = rng.normal(size=12)
        a = float(rng.uniform(0.5, 3.0))
        b = float(rng.uniform(-5.0, 5.0))
        base = ScoreSample(values)
        scaled = ScoreSample(a * values + b)
        for kind in EstimatorKind:
            for n in (1, 4, 12):
                assert_allclose(
                    estimate(scaled, kind, n),
                    a * estimate(base, kind, n) + b,
                    rtol=1e-10,
                    atol=1e-10,
                )


def test_tie_collapse_matches_duplicated_multiplicities():
    # [1,2] at (B=2, n=2) describes the same empirical distribution as
    # [1,1,2,2] at (B=4, n=2); the plug-in only sees the ECDF.
    small = ScoreSample([1.0, 2.0])
    doubled = ScoreSample([1.0, 1.0, 2.0, 2.0])
    for n in (1, 2, 5):
        assert_allclose(meanmax_v(small, n), meanmax_v(doubled, n), rtol=1e-12)
        assert np.isfinite(meanmax_v(doubled, n))
        assert np.isfinite(unbiased_u(doubled, min(n, 4)))


# ---------------------------------------------------------------------------
# ECDF power and KS distance
# ---------------------------------------------------------------------------


def test_ecdf_pow_point_values():
    sample = ScoreSample([1.0, 2.0, 3.0])
    assert_allclose(ecdf_pow(sample, 2.0, n=2), 4.0 / 9.0, rtol=1e-15)
    assert ecdf_pow(sample, 0.5, n=2) == 0.0
    assert ecdf_pow(sample, 3.0, n=2) == 1.0


def test_ecdf_pow_vectorized_and_monotone():
    sample = ScoreSample([0.2, 0.4, 0.9, 0.9])
    grid = np.linspace(-0.5, 1.5, 101)
    for n in (1, 3):
        values = ecdf_pow(sample, grid, n=n)
        assert values.shape == grid.shape
        assert np.all(np.diff(values) >= 0.0)
        assert values[0] == 0.0
        assert values[-1] == 1.0


def test_ks_distance_identical_cdfs():
    sample = ScoreSample([1.0, 2.0, 3.0])
    cdf = lambda x: ecdf_pow(sample, x, n=1)
    assert ks_distance(cdf, cdf, np.array([0.0, 1.5, 2.5, 3.0])) == 0.0


def test_ks_distance_disjoint_point_masses():
    at_zero = lambda x: np.where(np.asarray(x, dtype=float) >= 0.0, 1.0, 0.0)
    at_one = lambda x: np.where(np.asarray(x, dtype=float) >= 1.0, 1.0, 0.0)
    assert ks_distance(at_zero, at_one, np.array([0.0, 1.0])) == 1.0


def test_ks_distance_ecdf_matches_uniform_on_support():
    sample = ScoreSample([1.0, 2.0, 3.0])
    ecdf = lambda x: ecdf_pow(sample, x, n=1)

    def uniform_cdf(x):
        x = np.asarray(x, dtype=float)
        return np.clip(np.floor(x), 0.0, 3.0) / 3.0

    assert ks_distance(ecdf, uniform_cdf, np.array([1.0, 2.0, 3.0])) == 0.0


def test_ks_lower_bound_values():
    sample = ScoreSample([0.1, 0.5, 0.9])
    assert_allclose(ks_lower_bound(sample, 0.9, n=10), 0.6513215599, atol=1e-9)
    assert ks_lower_bound(sample, 1.0, n=3) == 0.0
    assert_allclose(ks_lower_bound(sample, 0.9, n=1), 0.1, rtol=1e-12)


def test_ks_lower_bound_monotone_in_n():
    sample = ScoreSample([0.0, 1.0])
    bounds = [ks_lower_bound(sample, 0.9, n=n) for n in range(1, 30)]
    assert np.all(np.diff(bounds) > 0.0)
    assert bounds[-1] < 1.0


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------


def test_equal_samples_hash_alike():
    a, b = ScoreSample([0.0, 1.0]), ScoreSample([-0.0, 1.0])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_empty_sample_rejected():
    with pytest.raises(EmptySampleError):
        ScoreSample([])


def test_non_finite_scores_rejected():
    with pytest.raises(ValueError):
        ScoreSample([0.5, float("nan")])
    with pytest.raises(ValueError):
        ScoreSample([0.5, float("inf")])
    with pytest.raises(ValueError):
        ScoreSample([float("-inf"), 0.5])
    # max - min past the largest float: a gap would be inf and an estimate inf or nan.
    for values in ([-1e308, 1e308], [1e308, 0.5, -1e308]):
        with pytest.raises(ValueError, match=r"finite range, got -1e\+308 to 1e\+308$"):
            ScoreSample(values)


def test_budget_below_one_rejected():
    sample = ScoreSample([1.0, 2.0])
    for fn in (meanmax_v, unbiased_u, meanmax_prefix):
        with pytest.raises(BudgetTooSmallError):
            fn(sample, 0)


def test_budget_above_sample_size_rejected_for_bounded_kinds():
    sample = ScoreSample([1.0, 2.0, 3.0])
    with pytest.raises(BudgetTooLargeError):
        unbiased_u(sample, 4)
    with pytest.raises(BudgetTooLargeError):
        meanmax_prefix(sample, 4)
    with pytest.raises(BudgetTooLargeError):
        expected_max_curve(sample, EstimatorKind.UNBIASED_U, 4)


def test_argument_checks_name_their_argument():
    from bestofn import (
        ArgumentError,
        BootstrapConfig,
        DiscreteDistribution,
        KdeSpec,
        RngStream,
        coverage,
        curves,
        exact_expected_max,
        percentile_bootstrap_curve,
        probe,
        true_curve,
    )
    from bestofn.estimators import require_budget

    sample = ScoreSample([1.0, 2.0, 3.0])
    dist = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
    rng = RngStream(1)
    boot = BootstrapConfig(rng, resamples=10)
    cases = [
        ("n", lambda: require_budget(0, 3, False)),
        ("n_max", lambda: require_budget(4, 3, True, "n_max")),
        ("n", lambda: estimate(sample, UNBIASED, 4)),
        ("n", lambda: cumweights(MEANMAX, 3, 0)),
        ("n_max", lambda: expected_max_curve(sample, UNBIASED, 4)),
        ("n_max", lambda: percentile_bootstrap_curve(sample, UNBIASED, 4, boot)),
        ("n_max", lambda: percentile_bootstrap_curve(sample, MEANMAX, 0, boot)),
        ("n_max", lambda: percentile_bootstrap_curve(sample, MEANMAX, -1, boot)),
        # A truth that cannot be held is refused before any budget is walked.
        ("n", lambda: exact_expected_max(dist, 10**13)),
        ("n_max", lambda: true_curve(dist, 10**13)),
        ("bandwidth", lambda: KdeSpec(math.inf, 0.0, 1.0)),
        ("bandwidth", lambda: KdeSpec(math.nan, 0.0, 1.0)),
        ("bandwidth", lambda: KdeSpec(0.0, 0.0, 1.0)),
        ("bandwidth", lambda: KdeSpec("wide", 0.0, 1.0)),
        ("support_lo", lambda: KdeSpec(0.1, -math.inf, 1.0)),
        ("support_hi", lambda: KdeSpec(0.1, 0.0, math.inf)),
        ("support_lo", lambda: KdeSpec(0.1, 1.0, 0.0)),
        ("bins", lambda: KdeSpec(0.1, 0.0, 1.0, bins=1)),
        ("resamples", lambda: BootstrapConfig(rng, resamples=0)),
        ("confidence", lambda: BootstrapConfig(rng, confidence=1.5)),
        ("B", lambda: probe(dist, 0, 1, 5, MEANMAX, rng)),
        ("samples", lambda: probe(dist, 4, 2, 0, MEANMAX, rng)),
        ("n_max", lambda: probe(dist, 4, 0, 5, MEANMAX, rng)),
        ("n_max", lambda: probe(dist, 4, 5, 5, UNBIASED, rng)),
        ("M", lambda: coverage(dist, 4, 2, 0, boot, MEANMAX, rng)),
        ("B", lambda: curves({"d": dist}, 0, 5, MEANMAX, rng)),
        ("samples", lambda: curves({"d": dist}, 4, 0, MEANMAX, rng)),
        ("cdf_at_max", lambda: ks_lower_bound(sample, 1.2, 1)),
    ]
    for name, call in cases:
        with pytest.raises(ArgumentError) as info:
            call()
        assert info.value.name == name
        assert str(info.value) == f"{name} {info.value.detail}"
    assert issubclass(BudgetTooSmallError, ArgumentError)
    assert issubclass(BudgetTooLargeError, ArgumentError)


def _budget_calls():
    """Every public function that takes a budget, as (argument name, call of one budget)."""
    from bestofn import (
        BootstrapConfig,
        DiscreteDistribution,
        RngStream,
        coverage,
        exact_expected_max,
        mc_expected_max,
        percentile_bootstrap_ci,
        percentile_bootstrap_curve,
        probe,
        true_curve,
    )

    sample = ScoreSample([0.1, 0.5, 0.9, 0.3])
    coin = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
    boot = BootstrapConfig(RngStream(1, 1), resamples=10)
    return {
        "meanmax_v": ("n", lambda n: meanmax_v(sample, n)),
        "unbiased_u": ("n", lambda n: unbiased_u(sample, n)),
        "meanmax_prefix": ("n", lambda n: meanmax_prefix(sample, n)),
        "estimate": ("n", lambda n: estimate(sample, MEANMAX, n)),
        "ecdf_pow": ("n", lambda n: ecdf_pow(sample, 0.5, n)),
        "ks_lower_bound": ("n", lambda n: ks_lower_bound(sample, 0.9, n)),
        "expected_max_curve": ("n_max", lambda n: expected_max_curve(sample, UNBIASED, n)),
        "exact_expected_max": ("n", lambda n: exact_expected_max(coin, n)),
        "true_curve": ("n_max", lambda n: true_curve(coin, n)),
        "mc_expected_max": ("n", lambda n: mc_expected_max(coin, n, 10, RngStream(1))),
        "percentile_bootstrap_ci": ("n", lambda n: percentile_bootstrap_ci(sample, UNBIASED, n, boot)),
        "percentile_bootstrap_curve": ("n_max", lambda n: percentile_bootstrap_curve(sample, UNBIASED, n, boot)),
        "probe": ("n_max", lambda n: probe(coin, 4, n, 5, MEANMAX, RngStream(1))),
        "coverage": ("n_max", lambda n: coverage(coin, 4, n, 3, boot, MEANMAX, RngStream(1))),
    }


@pytest.mark.parametrize("function", sorted(_budget_calls()))
def test_a_budget_must_be_an_integer(function):
    from bestofn import ArgumentError

    name, call = _budget_calls()[function]
    for bad in (2.5, 2.0, np.float64(2.0), True, np.bool_(True), "2"):
        with pytest.raises(ArgumentError, match="must be an integer, got") as info:
            call(bad)
        assert info.value.name == name
    assert type(call(np.int64(2))) is type(call(2))  # numpy integers are integers


@pytest.mark.parametrize("estimate, ci", [
    (math.nan, None),
    (math.inf, Interval(0.0, 1.0)),
])
def test_curve_point_rejects_impossible_values(estimate, ci):
    with pytest.raises(ValueError, match="curve point n=3"):
        CurvePoint(3, estimate, ci)


def test_curve_point_accepts_degenerate_ci():
    assert CurvePoint(1, 0.5, Interval(0.5, 0.5)).ci == Interval(0.5, 0.5)
