"""Tests for ground-truth distributions, KDE fitting, and sampling.

``exact_expected_max`` is checked against two independent oracles: a direct
enumeration over all |support|**n outcomes for tiny cases, and a
max-convolution dynamic program (distribution of the running maximum, updated
one draw at a time) for larger ones. Neither oracle touches the F**n

difference formula the library uses.
"""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chisquare

from bestofn import (
    ArgumentError,
    DiscreteDistribution,
    KDE_PRESETS,
    KdeSpec,
    RngStream,
    ScoreSample,
    draw_sample,
    exact_expected_max,
    fit_kde,
    load_distribution,
    mc_expected_max,
    save_distribution,
    scott_bandwidth,
    true_curve,
)
from bestofn import distributions
from bestofn.distributions import RNG_LAYOUT_ID, draw_rows
from bestofn.fixtures import FIXTURE_NAMES, load_fixture


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def enumerated_expected_max(dist, n):
    """Expected max by summing over every ordered n-tuple of support points."""
    total = 0.0
    for combo in itertools.product(range(dist.size), repeat=n):
        prob = math.prod(dist.mass[i] for i in combo)
        total += prob * max(dist.support[i] for i in combo)
    return total


def convolved_expected_max(dist, n):
    """Expected max via the running-maximum distribution.

    P(max(prev, fresh) = m) = P(prev = m) P(fresh <= m)
                            + P(prev < m) P(fresh = m).
    """
    mass = np.asarray(dist.mass)
    mass_cum = np.cumsum(mass)
    p = mass.copy()
    for _ in range(n - 1):
        p_below = np.concatenate(([0.0], np.cumsum(p)[:-1]))
        p = p * mass_cum + p_below * mass
    return float(np.dot(p, dist.support))


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def uniform_123():
    return DiscreteDistribution([1.0, 2.0, 3.0], [1 / 3, 1 / 3, 1 / 3])


@pytest.fixture
def coin():
    return DiscreteDistribution([0.0, 1.0], [0.5, 0.5])


@pytest.fixture
def point_mass_7():
    return DiscreteDistribution([7.0], [1.0])


# ---------------------------------------------------------------------------
# DiscreteDistribution construction
# ---------------------------------------------------------------------------


def test_mass_renormalizes_and_cdf_ends_at_one():
    dist = DiscreteDistribution([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
    assert_allclose(dist.mass, [1 / 3, 1 / 3, 1 / 3], rtol=1e-15)
    assert abs(dist.mass.sum() - 1.0) < 1e-12
    assert dist.cumulative[-1] == 1.0
    assert np.all(np.diff(dist.cumulative) >= 0.0)


def test_invalid_construction_rejected():
    with pytest.raises(ValueError):
        DiscreteDistribution([2.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        DiscreteDistribution([1.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        DiscreteDistribution([1.0, 2.0], [0.5, -0.1])
    with pytest.raises(ValueError):
        DiscreteDistribution([1.0, 2.0], [0.7])
    with pytest.raises(ValueError):
        DiscreteDistribution([], [])
    with pytest.raises(ValueError):
        DiscreteDistribution([1.0, 2.0], [0.0, 0.0])


def test_cdf_is_a_right_continuous_step(uniform_123):
    assert uniform_123.cdf(0.99) == 0.0
    assert_allclose(uniform_123.cdf(1.0), 1 / 3, rtol=1e-15)
    assert_allclose(uniform_123.cdf(2.5), 2 / 3, rtol=1e-15)
    assert uniform_123.cdf(3.0) == 1.0
    assert uniform_123.cdf(99.0) == 1.0


def test_dict_round_trip(uniform_123):
    rebuilt = DiscreteDistribution.from_dict(uniform_123.to_dict())
    assert np.array_equal(rebuilt.support, uniform_123.support)
    assert np.array_equal(rebuilt.mass, uniform_123.mass)


def test_file_round_trip(tmp_path, coin):
    path = tmp_path / "dist.json"
    save_distribution(coin, path)
    rebuilt = load_distribution(path)
    assert np.array_equal(rebuilt.support, coin.support)
    assert np.array_equal(rebuilt.mass, coin.mass)


# ---------------------------------------------------------------------------
# exact_expected_max
# ---------------------------------------------------------------------------


def test_uniform_pair_budget(uniform_123):
    # 9 equiprobable ordered pairs; maxima sum to 22.
    assert_allclose(exact_expected_max(uniform_123, 2), 22.0 / 9.0, rtol=1e-14)


def test_budget_one_is_the_mean():
    rng = np.random.default_rng(21)
    for _ in range(10):
        size = int(rng.integers(1, 8))
        support = np.sort(rng.normal(size=size))
        support += np.arange(size) * 1e-6  # guard against ties
        mass = rng.uniform(0.1, 1.0, size=size)
        dist = DiscreteDistribution(support, mass)
        assert_allclose(exact_expected_max(dist, 1), dist.mean(), rtol=1e-12)


def test_point_mass_any_budget(point_mass_7):
    for n in (1, 2, 17, 400):
        assert exact_expected_max(point_mass_7, n) == 7.0


def test_exact_matches_tiny_enumeration():
    rng = np.random.default_rng(22)
    for _ in range(6):
        size = int(rng.integers(2, 4))
        support = np.sort(rng.choice(20, size=size, replace=False)).astype(float)
        dist = DiscreteDistribution(support, rng.uniform(0.2, 1.0, size=size))
        for n in range(1, 7):
            assert_allclose(
                exact_expected_max(dist, n), enumerated_expected_max(dist, n),
                rtol=1e-10,
            )


def test_exact_matches_max_convolution():
    rng = np.random.default_rng(23)
    for _ in range(10):
        size = int(rng.integers(2, 7))
        support = np.sort(rng.choice(50, size=size, replace=False)).astype(float)
        dist = DiscreteDistribution(support, rng.uniform(0.05, 1.0, size=size))
        for n in range(1, 13):
            assert_allclose(
                exact_expected_max(dist, n), convolved_expected_max(dist, n),
                rtol=1e-10,
            )


def test_expected_max_grows_toward_support_max(uniform_123):
    values = [exact_expected_max(uniform_123, n) for n in range(1, 40)]
    assert np.all(np.diff(values) >= 0.0)
    assert all(v <= 3.0 for v in values)
    assert values[-1] == pytest.approx(3.0, abs=1e-5)


def test_true_curve_matches_pointwise(uniform_123):
    curve = true_curve(uniform_123, 8)
    assert curve.shape == (8,)
    for i, n in enumerate(range(1, 9)):
        assert_allclose(curve[i], exact_expected_max(uniform_123, n), rtol=1e-12)


@pytest.mark.parametrize("name", ["lattice", *FIXTURE_NAMES])
def test_true_curve_is_exact_expected_max_bit_for_bit(name):
    # A matrix-vector product over all budgets rounds its rows in groups, which
    # would make truth[n - 1] depend on n_max; each budget needs the one formula.
    if name == "lattice":
        dist = DiscreteDistribution(np.arange(10) / 10, np.full(10, 0.1))
    else:
        dist = load_fixture(name)
    for n_max in (1, 2, 7, 25, 60):
        want = np.array([exact_expected_max(dist, n) for n in range(1, n_max + 1)])
        assert true_curve(dist, n_max).tobytes() == want.tobytes()


def test_budget_below_one_rejected(uniform_123):
    from bestofn import BudgetTooSmallError

    with pytest.raises(BudgetTooSmallError):
        exact_expected_max(uniform_123, 0)


# ---------------------------------------------------------------------------
# mc_expected_max
# ---------------------------------------------------------------------------


def test_mc_point_mass_is_exact(point_mass_7):
    assert mc_expected_max(point_mass_7, 3, 10, RngStream(1)) == 7.0


def test_mc_close_to_exact_on_uniform(uniform_123):
    value = mc_expected_max(uniform_123, 2, 1_000_000, RngStream(42, 0))
    assert abs(value - 22.0 / 9.0) < 0.003


def test_mc_determinism(coin):
    a = mc_expected_max(coin, 3, 5000, RngStream(7, 1))
    b = mc_expected_max(coin, 3, 5000, RngStream(7, 1))
    assert a == b


def test_mc_within_four_sigma():
    rng = np.random.default_rng(24)
    iterations = 200_000
    for _ in range(4):
        size = int(rng.integers(2, 6))
        support = np.sort(rng.choice(30, size=size, replace=False)).astype(float)
        dist = DiscreteDistribution(support, rng.uniform(0.1, 1.0, size=size))
        n = int(rng.integers(1, 6))
        exact = exact_expected_max(dist, n)
        # Variance of max-of-n from the same convolution trick.
        mass = np.asarray(dist.mass)
        cum = np.cumsum(mass)
        pmax = np.diff(np.concatenate(([0.0], cum**n)))
        second = float(np.dot(pmax, np.asarray(dist.support) ** 2))
        sigma = math.sqrt(max(second - exact**2, 0.0) / iterations)
        value = mc_expected_max(dist, n, iterations, RngStream(int(rng.integers(1e6))))
        assert abs(value - exact) < 4.0 * sigma + 1e-12


# ---------------------------------------------------------------------------
# draw_sample
# ---------------------------------------------------------------------------


def test_draw_from_point_mass(point_mass_7):
    sample = draw_sample(point_mass_7, 5, RngStream(3))
    assert np.array_equal(sample.ingested_values, [7.0] * 5)


def test_draw_frequency_band(coin):
    sample = draw_sample(coin, 100_000, RngStream(8, 0))
    fraction = float(np.mean(sample.ingested_values))
    assert 0.494 <= fraction <= 0.506


def test_draw_determinism(coin):
    a = draw_sample(coin, 50, RngStream(9, 4))
    b = draw_sample(coin, 50, RngStream(9, 4))
    assert np.array_equal(a.ingested_values, b.ingested_values)


def test_draw_preserves_draw_order(uniform_123):
    sample = draw_sample(uniform_123, 200, RngStream(10))
    # With 200 draws from three values, a sorted draw sequence would be
    # astronomically unlikely; ingestion order must reflect draw order.
    assert not np.array_equal(sample.ingested_values, sample.sorted_values)
    assert np.array_equal(np.sort(sample.ingested_values), sample.sorted_values)


def test_draw_rows_stack_the_per_stream_samples(uniform_123):
    streams = [RngStream(12, 0).child(n, i) for n in (1, 2) for i in range(3)]
    rows = draw_rows(uniform_123, 40, streams)
    assert rows.shape == (6, 40)
    for row, rng in zip(rows, streams):
        assert np.array_equal(row, draw_sample(uniform_123, 40, rng).ingested_values)
        u = rng.generator().random(40)
        inverse_cdf = uniform_123.support[np.searchsorted(uniform_123.cumulative, u)]
        assert np.array_equal(row, inverse_cdf)


def test_draw_frequencies_chi_square():
    dist = DiscreteDistribution([0.0, 1.0, 2.0, 5.0], [0.1, 0.2, 0.3, 0.4])
    sample = draw_sample(dist, 100_000, RngStream(11, 2))
    observed = [np.sum(sample.ingested_values == v) for v in dist.support]
    expected = [m * 100_000 for m in dist.mass]
    result = chisquare(observed, expected)
    assert result.pvalue > 1e-6


# ---------------------------------------------------------------------------
# RngStream
# ---------------------------------------------------------------------------


def test_identical_streams_are_identical():
    a = RngStream(1234, 5).generator().random(16)
    b = RngStream(1234, 5).generator().random(16)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    base = RngStream(1234, 0).generator().random(16)
    other = RngStream(1234, 1).generator().random(16)
    assert not np.array_equal(base, other)


def test_child_streams_are_distinct_and_reproducible():
    parent = RngStream(77, 0)
    seen = set()
    for i in range(20):
        child = parent.child(i)
        assert child.seed == parent.seed
        assert child.stream == parent.child(i).stream
        seen.add(child.stream)
    assert len(seen) == 20
    # Multi-index derivation is order-sensitive.
    assert parent.child(1, 2).stream != parent.child(2, 1).stream


# (seed, stream, child path, child stream word, first draw_rows values on the
# support 0..1023), computed with the pure-Python SplitMix64 and one Philox
# generator per stream; the layout must not move.
RNG_LAYOUT = [
    (2**63 + 5, 3, (7,), 7758145696617331093, [843, 418, 252, 232]),
    (11, 2**64 - 1, (0,), 3303439293501059696, [586, 771, 394, 695]),
    (11, 4, (-1,), 185357629498840571, [396, 948, 804, 381]),
    (11, 4, (2**32 + 9,), 128089313494330113, [503, 417, 477, 13]),
    (2**64 - 2, 2**63, (3, -4, 2**40), 103742241970049418, [937, 359, 898, 419]),
    (20260, 0, (2, 5), 1272775598306162778, [673, 140, 793, 358]),
]


def reference_child_stream(stream, *indices):
    """The child stream word in Python-int SplitMix64, masked to 64 bits by hand."""
    mask = (1 << 64) - 1

    def splitmix64(x):
        x = (x + 0x9E3779B97F4A7C15) & mask
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
        return x ^ (x >> 31)

    h = stream & mask
    for i in indices:
        h = splitmix64(h ^ splitmix64(i & mask))
    return h


def test_rng_layout_known_answers():
    dist = DiscreteDistribution(np.arange(1024.0), np.ones(1024))
    streams = [RngStream(seed, stream).child(*path) for seed, stream, path, _, _ in RNG_LAYOUT]
    assert [(c.seed, c.stream) for c in streams] == [(s, w) for s, _, _, w, _ in RNG_LAYOUT]
    rows = draw_rows(dist, 4, streams)
    assert rows.tolist() == [values for *_, values in RNG_LAYOUT]


def test_rng_layout_id_is_pinned():
    # Reports name the layout that made them. Layout 2 reads every budget of
    # probe and coverage off sample i = child (0, i); a change that alters
    # payloads at a fixed seed bumps the id here and in CHANGES.md.
    assert RNG_LAYOUT_ID == "philox4x64-splitmix64/2"


def test_child_matches_the_python_int_reference():
    rng = random.Random(2026)
    for _ in range(200):
        stream = rng.randrange(-2**64, 2**65)
        path = [rng.randrange(-2**64, 2**65) for _ in range(rng.randrange(4))]
        assert RngStream(1, stream).child(*path).stream == reference_child_stream(stream, *path)


@pytest.mark.parametrize("key, start, stop", [
    (3, 0, 0), (3, 5, 5), (3, 7, 2), (3, 5, 6), (0, 0, 40), (-2, -5, 5),
    (2**40, 2**32 - 2, 2**32 + 3), (1, 2**64 - 3, 2**64 + 3),
])
def test_children_equal_the_child_list(key, start, stop):
    for parent in (RngStream(5), RngStream(2**63 + 1, 2**64 - 1)):
        assert parent.children(key, start, stop) == [parent.child(key, i) for i in range(start, stop)]


def test_draw_rows_mixes_seeds_stream_by_stream(uniform_123):
    streams = [RngStream(seed, 9).child(i) for seed, i in ((1, 0), (2**63, 0), (1, 1), (7, 0), (1, 0))]
    rows = draw_rows(uniform_123, 30, streams)
    for row, rng in zip(rows, streams):
        u = rng.generator().random(30)
        assert np.array_equal(row, uniform_123.support[np.searchsorted(uniform_123.cumulative, u)])
    assert np.array_equal(rows[0], rows[4])
    assert draw_rows(uniform_123, 30, []).shape == (0, 30)


# ---------------------------------------------------------------------------
# fit_kde
# ---------------------------------------------------------------------------


def test_kde_single_run_symmetric_about_center():
    dist = fit_kde(ScoreSample([0.5]), KdeSpec(0.1, 0.0, 1.0, bins=3))
    assert dist.size == 3
    assert_allclose(dist.mass[0], dist.mass[2], rtol=1e-12)
    assert dist.mass[1] > dist.mass[0]


def test_kde_mixture_symmetric_under_reflection():
    dist = fit_kde(ScoreSample([0.3, 0.7]), KdeSpec(0.05, 0.0, 1.0, bins=511))
    assert_allclose(dist.mass, dist.mass[::-1], rtol=1e-9)


def test_kde_realistic_scale():
    rng = np.random.default_rng(25)
    runs = ScoreSample(rng.uniform(0.73, 0.81, size=145))
    dist = fit_kde(runs, KdeSpec(0.0049, 0.72, 0.82, bins=511))
    assert dist.size == 511
    assert abs(dist.mass.sum() - 1.0) < 1e-12
    assert dist.support[0] >= 0.72 and dist.support[-1] <= 0.82
    assert np.all(np.diff(dist.support) > 0.0)


def test_kde_bin_centers_equally_spaced():
    dist = fit_kde(ScoreSample([0.4, 0.6]), KdeSpec(0.05, 0.0, 1.0, bins=5))
    widths = np.diff(dist.support)
    assert_allclose(widths, widths[0], rtol=1e-12)
    # Centers sit half a bin in from the edges.
    assert_allclose(dist.support[0], 0.1, rtol=1e-12)
    assert_allclose(dist.support[-1], 0.9, rtol=1e-12)


def test_scott_bandwidth_formula():
    rng = np.random.default_rng(26)
    values = rng.normal(size=37)
    runs = ScoreSample(values)
    expected = float(np.std(values, ddof=1)) * 37 ** (-1 / 5)
    assert_allclose(scott_bandwidth(runs), expected, rtol=1e-12)
    auto = fit_kde(runs, KdeSpec("scott", -5.0, 5.0, bins=64))
    manual = fit_kde(runs, KdeSpec(expected, -5.0, 5.0, bins=64))
    assert_allclose(auto.mass, manual.mass, rtol=1e-12)


def test_scott_rule_on_constant_sample_rejected():
    with pytest.raises(ValueError, match="bandwidth"):
        fit_kde(ScoreSample([0.4, 0.4, 0.4]), KdeSpec("scott", 0.0, 1.0, bins=8))


def test_kde_spec_validation():
    with pytest.raises(ValueError):
        KdeSpec(0.1, 1.0, 0.0)
    with pytest.raises(ValueError):
        KdeSpec(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        KdeSpec(0.1, 0.0, 1.0, bins=1)
    with pytest.raises(ValueError):
        KdeSpec("silverman", 0.0, 1.0)


def test_kde_spec_defaults():
    spec = KdeSpec()
    assert (spec.bandwidth, spec.support_lo, spec.support_hi, spec.bins) == ("scott", None, None, 511)
    # Only the values given are checked: one edge alone is never out of order.
    assert KdeSpec(support_lo=5.0).support_hi is None


def test_kde_default_edges_sit_three_bandwidths_beyond_the_scores():
    runs = ScoreSample(np.random.default_rng(29).normal(0.5, 0.1, size=30))
    h = scott_bandwidth(runs)
    pairs = [
        (KdeSpec(bins=64), KdeSpec(h, runs.min - 3.0 * h, runs.max + 3.0 * h, bins=64)),
        (KdeSpec(0.05, support_hi=2.0, bins=8), KdeSpec(0.05, runs.min - 3.0 * 0.05, 2.0, bins=8)),
    ]
    for default, explicit in pairs:
        assert fit_kde(runs, default).to_dict() == fit_kde(runs, explicit).to_dict()


def test_kde_resolved_edges_are_checked():
    runs = ScoreSample([0.4, 0.6])
    with pytest.raises(ArgumentError) as err:
        fit_kde(runs, KdeSpec(0.05, support_lo=5.0))
    assert err.value.name == "support_lo"
    with pytest.raises(ArgumentError) as err:
        fit_kde(runs, KdeSpec(1e308, support_lo=0.0))
    assert err.value.name == "bandwidth"


@pytest.mark.parametrize("size", [1, 2, 7, 300])
def test_kde_masses_do_not_depend_on_the_block_size(size, monkeypatch):
    runs = ScoreSample(np.random.default_rng(30).normal(0.5, 0.2, size=size))
    spec = KdeSpec(0.05, -0.5, 1.5, bins=37)
    whole = fit_kde(runs, spec).mass
    for rows in (1, 3, 36):
        monkeypatch.setattr(distributions, "_KDE_BLOCK_VALUES", rows * size)
        assert np.array_equal(fit_kde(runs, spec).mass, whole)


def test_kde_memory_does_not_grow_with_bins_times_runs():
    # One (bins, B) kernel matrix would take 511 * 20000 * 8 bytes (78 MiB).
    runs = ScoreSample(np.random.default_rng(31).normal(0.5, 0.1, size=20_000))
    tracemalloc.start()
    try:
        fit_kde(runs, KdeSpec(0.01, 0.0, 1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_kde_output_always_valid():
    # Fuzz: arbitrary runs and specs always produce a valid distribution.
    rng = np.random.default_rng(27)
    for _ in range(25):
        size = int(rng.integers(1, 60))
        center = float(rng.uniform(-10, 10))
        spread = float(rng.uniform(0.01, 5.0))
        values = rng.normal(center, spread, size=size)
        lo = float(values.min() - rng.uniform(0.1, 2.0))
        hi = float(values.max() + rng.uniform(0.1, 2.0))
        bins = int(rng.integers(2, 700))
        spec = KdeSpec(float(rng.uniform(0.005, 2.0)), lo, hi, bins=bins)
        dist = fit_kde(ScoreSample(values), spec)
        assert dist.size == bins
        assert np.all(np.diff(dist.support) > 0.0)
        assert np.all(dist.mass >= 0.0)
        assert abs(dist.mass.sum() - 1.0) < 1e-12
        assert dist.cumulative[-1] == 1.0


def test_presets_produce_valid_distributions():
    assert set(KDE_PRESETS) == {"mlp", "lstm", "glove", "elmo"}
    rng = np.random.default_rng(28)
    for name, spec in KDE_PRESETS.items():
        assert spec.bins == 511
        assert spec.support_lo < spec.support_hi
        mid = 0.5 * (spec.support_lo + spec.support_hi)
        runs = ScoreSample(rng.normal(mid, spec.bandwidth * 4, size=40))
        dist = fit_kde(runs, spec)
        assert dist.size == 511
