"""Tests for the simulation batteries: probing, coverage, curves, failure scan.

Statistical assertions run at pinned seeds with wide margins (exact
enumerations plus 99% binomial bands), so they are deterministic in practice.
The underestimate probabilities for the two-point coin distribution are
computed exactly by enumerating the binomial count of ones.
"""

import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.stats import binom

from bestofn import (
    ArgumentError,
    BootstrapConfig,
    BudgetTooLargeError,
    BudgetTooSmallError,
    DiscreteDistribution,
    EstimatorKind,
    RngStream,
    ScoreSample,
    clopper_pearson,
    coverage,
    curves,
    draw_sample,
    estimate,
    exact_expected_max,
    expected_max_curve,
    failure_scan,
    make_envelope,
    percentile_bootstrap_curve,
    probe,
    true_curve,
)
from bestofn import estimators, experiments, resampling
from bestofn.estimators import curve_rows
from bestofn.experiments import CurveReport, ModelCurves
from bestofn.io_formats import report_json_text


# ---------------------------------------------------------------------------
# Fixtures and helpers
# ---------------------------------------------------------------------------


@pytest.fixture
def coin():
    return DiscreteDistribution([0.0, 1.0], [0.5, 0.5])


@pytest.fixture
def ten():
    return DiscreteDistribution(np.arange(1.0, 11.0), np.full(10, 0.1))


@pytest.fixture
def lattice():
    return DiscreteDistribution(np.arange(10) / 10, np.full(10, 0.1))


@pytest.fixture
def point_mass():
    return DiscreteDistribution([7.0], [1.0])


def exact_coin_under_prop(dist, B, n, kind):
    """Exact P(estimate < theta_n) for the coin: enumerate the count of ones."""
    theta = exact_expected_max(dist, n)
    total = 0.0
    for k in range(B + 1):
        values = [0.0] * (B - k) + [1.0] * k
        if estimate(ScoreSample(values), kind, n) < theta:
            total += binom.pmf(k, B, 0.5)
    return total


def band99(successes, samples):
    return clopper_pearson(successes, samples, 0.99)


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------


def test_probe_point_mass_never_underestimates(point_mass):
    rep = probe(point_mass, 8, 5, 50, EstimatorKind.MEANMAX_V, RngStream(1))
    assert [r.n for r in rep.rows] == [1, 2, 3, 4, 5]
    for row in rep.rows:
        assert row.underestimates == 0
        assert row.proportion == 0.0


def test_probe_rows_are_consistent(coin):
    rep = probe(coin, 6, 4, 80, EstimatorKind.UNBIASED_U, RngStream(2, 1))
    assert rep.B == 6
    assert rep.estimator is EstimatorKind.UNBIASED_U
    assert (rep.seed, rep.stream) == (2, 1)
    for row in rep.rows:
        assert row.samples == 80
        assert row.proportion == row.underestimates / 80
        expected_ci = clopper_pearson(row.underestimates, 80, 0.95)
        assert (row.ci.lo, row.ci.hi) == (expected_ci.lo, expected_ci.hi)


def test_probe_solves_one_interval_per_distinct_count(lattice, monkeypatch):
    # Two samples give at most three counts (0, 1, 2) over 10,000 budgets.
    solves = []

    def counted(successes, trials, confidence):
        solves.append(successes)
        return clopper_pearson(successes, trials, confidence)

    monkeypatch.setattr(experiments, "clopper_pearson", counted)
    rep = probe(lattice, 50, 10_000, 2, EstimatorKind.MEANMAX_V, RngStream(3))
    assert len(solves) == len(set(solves)) <= 3
    one_per_row = replace(rep, rows=tuple(
        replace(r, ci=clopper_pearson(r.underestimates, r.samples, 0.95)) for r in rep.rows))
    envelope = make_envelope("probe", rep, {})
    assert report_json_text(envelope) == report_json_text(replace(envelope, payload=one_per_row))


def test_probe_unbiased_matches_exact_enumeration(coin):
    # Underestimate proportions for the unbiased estimator sit inside 99%
    # binomial bands around the exactly enumerated probabilities.
    rep = probe(coin, 10, 6, 400, EstimatorKind.UNBIASED_U, RngStream(1729, 3))
    for row in rep.rows:
        exact = exact_coin_under_prop(coin, 10, row.n, EstimatorKind.UNBIASED_U)
        assert band99(row.underestimates, row.samples).contains(exact)


def test_probe_small_coin_quarter(coin):
    # B=2, n=2: of the four equiprobable samples only (0,0) underestimates
    # theta_2 = 0.75; mixed samples hit 0.75 exactly and ties do not count.
    rep = probe(coin, 2, 2, 800, EstimatorKind.MEANMAX_V, RngStream(55, 0))
    row = rep.rows[1]
    assert row.n == 2
    assert band99(row.underestimates, row.samples).contains(0.25)


def test_probe_mean_underestimate_rate(coin):
    # n=1 reduces to P(sample mean < 1/2) = (1 - P(tie at 25 ones)) / 2.
    exact = (1.0 - binom.pmf(25, 50, 0.5)) / 2.0
    rep = probe(coin, 50, 1, 600, EstimatorKind.MEANMAX_V, RngStream(56, 0))
    row = rep.rows[0]
    assert band99(row.underestimates, row.samples).contains(exact)


def test_probe_bias_grows_with_budget(ten):
    # The plug-in's underestimate rate at n=B clears the n=1 rate with
    # non-overlapping 99% bands on a ten-point uniform.
    rep = probe(ten, 12, 12, 600, EstimatorKind.MEANMAX_V, RngStream(58, 0))
    first = band99(rep.rows[0].underestimates, 600)
    last = band99(rep.rows[-1].underestimates, 600)
    assert last.lo > first.hi


def test_probe_determinism_and_thread_invariance(ten):
    base = probe(ten, 8, 5, 60, EstimatorKind.MEANMAX_V, RngStream(9, 0))
    again = probe(ten, 8, 5, 60, EstimatorKind.MEANMAX_V, RngStream(9, 0))
    assert base.rows == again.rows


def test_probe_progress_messages(point_mass, monkeypatch):
    # One line per chunk of samples, not per budget: budgets share the samples.
    monkeypatch.setattr(experiments, "_SAMPLE_CHUNK_VALUES", 6)  # two samples per chunk
    messages = []
    probe(point_mass, 3, 2, 5, EstimatorKind.MEANMAX_V, RngStream(1), progress=messages.append)
    assert messages == ["probe: 2/5 samples", "probe: 4/5 samples", "probe: 5/5 samples"]
    messages.clear()
    curves({"pm": point_mass, "again": point_mass}, 3, 3, EstimatorKind.MEANMAX_V, RngStream(1),
           progress=messages.append)
    assert messages == ["curves pm: 2/3 samples", "curves pm: 3/3 samples",
                        "curves again: 2/3 samples", "curves again: 3/3 samples"]


def test_probe_validation(coin):
    with pytest.raises(ValueError):
        probe(coin, 0, 1, 5, EstimatorKind.MEANMAX_V, RngStream(1))
    with pytest.raises(BudgetTooSmallError):
        probe(coin, 4, 0, 5, EstimatorKind.MEANMAX_V, RngStream(1))
    with pytest.raises(BudgetTooLargeError):
        probe(coin, 4, 5, 5, EstimatorKind.UNBIASED_U, RngStream(1))
    with pytest.raises(ValueError):
        probe(coin, 4, 2, 0, EstimatorKind.MEANMAX_V, RngStream(1))


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------


def test_coverage_point_mass_is_total(point_mass):
    boot = BootstrapConfig(RngStream(3, 1), resamples=50)
    rep = coverage(point_mass, 6, 4, 30, boot, EstimatorKind.MEANMAX_V, RngStream(3, 0))
    for row in rep.rows:
        # Degenerate CIs equal theta exactly; closed-interval membership
        # counts endpoint hits as coverage.
        assert row.ecp == 1.0
        assert row.hits == 30


def test_coverage_nominal_at_budget_one(ten):
    boot = BootstrapConfig(RngStream(60, 1), resamples=400)
    rep = coverage(ten, 12, 12, 200, boot, EstimatorKind.MEANMAX_V, RngStream(60, 0))
    assert rep.rows[0].ci.contains(0.95)


def test_coverage_collapses_at_full_budget(ten):
    # ECP at n=B sits below ECP at n=1 with non-overlapping 99% bands.
    boot = BootstrapConfig(RngStream(60, 1), resamples=400)
    rep = coverage(ten, 12, 12, 200, boot, EstimatorKind.MEANMAX_V, RngStream(60, 0))
    first = band99(rep.rows[0].hits, 200)
    last = band99(rep.rows[-1].hits, 200)
    assert last.hi < first.lo


def test_coverage_rows_are_consistent(coin):
    boot = BootstrapConfig(RngStream(4, 1), resamples=60)
    rep = coverage(coin, 5, 3, 40, boot, EstimatorKind.UNBIASED_U, RngStream(4, 0))
    assert rep.B == 5
    assert rep.resamples == 60
    assert rep.nominal == 0.95
    assert [r.n for r in rep.rows] == [1, 2, 3]
    for row in rep.rows:
        assert row.samples == 40
        assert row.ecp == row.hits / 40
        expected_ci = clopper_pearson(row.hits, 40, 0.95)
        assert (row.ci.lo, row.ci.hi) == (expected_ci.lo, expected_ci.hi)


def test_coverage_determinism_and_thread_invariance(ten):
    def run():
        boot = BootstrapConfig(RngStream(5, 1), resamples=80)
        return coverage(ten, 6, 4, 25, boot, EstimatorKind.MEANMAX_V, RngStream(5, 0))

    assert run().rows == run().rows


def test_coverage_validation(coin):
    boot = BootstrapConfig(RngStream(1), resamples=10)
    with pytest.raises(ValueError):
        coverage(coin, 4, 2, 0, boot, EstimatorKind.MEANMAX_V, RngStream(1))
    with pytest.raises(BudgetTooLargeError):
        coverage(coin, 4, 5, 5, boot, EstimatorKind.UNBIASED_U, RngStream(1))


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


def test_curves_point_mass_equals_truth(point_mass):
    rep = curves({"pm": point_mass}, 6, 40, EstimatorKind.MEANMAX_V, RngStream(6, 0))
    model = rep.model("pm")
    assert model.budgets == tuple(range(1, 7))
    assert_allclose(model.averaged, model.true, rtol=1e-12)
    assert_allclose(model.true, [7.0] * 6, rtol=1e-15)


def test_curves_unbiased_tracks_truth(ten):
    rep = curves({"ten": ten}, 10, 800, EstimatorKind.UNBIASED_U, RngStream(61, 0))
    model = rep.model("ten")
    for avg, true, err in zip(model.averaged, model.true, model.stderr):
        assert abs(avg - true) <= 4.0 * err


def test_curves_plugin_sits_below_truth(ten):
    rep = curves({"ten": ten}, 10, 800, EstimatorKind.MEANMAX_V, RngStream(61, 0))
    model = rep.model("ten")
    for i, (avg, true, err) in enumerate(zip(model.averaged, model.true, model.stderr)):
        if i == 0:
            continue  # unbiased at n=1
        assert avg < true - 4.0 * err


def test_curves_grids_and_monotonicity(ten, coin):
    rep = curves({"ten": ten, "coin": coin}, 8, 100, EstimatorKind.MEANMAX_V, RngStream(7, 0))
    assert {m.name for m in rep.models} == {"ten", "coin"}
    for model in rep.models:
        assert model.budgets == tuple(range(1, 9))
        assert np.all(np.diff(model.averaged) >= -1e-12)
        assert np.all(np.diff(model.true) >= -1e-12)


def test_curves_determinism_and_thread_invariance(ten, coin):
    def run():
        return curves({"ten": ten, "coin": coin}, 7, 60, EstimatorKind.UNBIASED_U, RngStream(8, 0))

    assert run().models == run().models


def test_curves_validation(ten):
    with pytest.raises(ValueError):
        curves({}, 4, 5, EstimatorKind.MEANMAX_V, RngStream(1))
    with pytest.raises(ValueError):
        curves({"ten": ten}, 4, 0, EstimatorKind.MEANMAX_V, RngStream(1))


def test_battery_sizes_and_counts_must_be_integers(coin):
    # A float or bool B, sample count or M is refused by name, before numpy sees it.
    kind = EstimatorKind.MEANMAX_V
    boot = BootstrapConfig(RngStream(1), resamples=10)
    calls = [
        ("B", 2.5, lambda: probe(coin, 2.5, 2, 5, kind, RngStream(1))),
        ("B", True, lambda: probe(coin, True, 1, 5, kind, RngStream(1))),
        ("B", 2.5, lambda: curves({"d": coin}, 2.5, 5, kind, RngStream(1))),
        ("B", 4.0, lambda: coverage(coin, 4.0, 2, 5, boot, kind, RngStream(1))),
        ("samples", 5.0, lambda: probe(coin, 4, 2, 5.0, kind, RngStream(1))),
        ("samples", True, lambda: curves({"d": coin}, 4, True, kind, RngStream(1))),
        ("M", 2.5, lambda: coverage(coin, 4, 2, 2.5, boot, kind, RngStream(1))),
    ]
    for name, got, call in calls:
        with pytest.raises(ArgumentError) as info:
            call()
        assert (info.value.name, str(info.value)) == (name, f"{name} must be an integer, got {got!r}")


def test_counts_outside_the_batteries_must_be_integers(coin):
    # Successes, trials, resamples, iterations, bins and draw counts are refused by
    # name when they are floats or bools; a count of 0 successes is fine.
    from bestofn import KdeSpec, fit_kde, mc_expected_max

    kind = EstimatorKind.MEANMAX_V
    sample = ScoreSample([0.1, 0.4, 0.9])
    calls = [
        ("successes", 2.5, lambda: clopper_pearson(2.5, 10, 0.95)),
        ("successes", True, lambda: clopper_pearson(True, 10, 0.95)),
        ("trials", 10.0, lambda: clopper_pearson(3, 10.0, 0.95)),
        ("resamples", True, lambda: BootstrapConfig(RngStream(1), resamples=True)),
        ("resamples", 2.5, lambda: percentile_bootstrap_curve(
            sample, kind, 2, BootstrapConfig(RngStream(1), resamples=2.5))),
        ("iterations", 2.5, lambda: mc_expected_max(coin, 2, iterations=2.5, rng=RngStream(1))),
        ("bins", 2.5, lambda: fit_kde(sample, KdeSpec(bins=2.5))),
        ("count", 2.5, lambda: draw_sample(coin, 2.5, RngStream(1))),
    ]
    for name, got, call in calls:
        with pytest.raises(ArgumentError) as info:
            call()
        assert (info.value.name, str(info.value)) == (name, f"{name} must be an integer, got {got!r}")
    assert clopper_pearson(0, 10, 0.95).lo == 0.0
    with pytest.raises(ArgumentError, match="successes must be >= 0, got -1"):
        clopper_pearson(-1, 10, 0.95)
    with pytest.raises(ArgumentError, match="bins must be >= 2, got 1"):
        KdeSpec(bins=1)


# ---------------------------------------------------------------------------
# Stacked evaluation and reruns
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", list(EstimatorKind))
def test_probe_counts_match_a_per_sample_loop(ten, kind):
    # On the ten-point lattice the mean of B = 10 draws often equals the
    # truth at n = 1 exactly, so a count is only right if every estimate
    # rounds as the single-sample curve does. Sample i serves every budget.
    rng = RngStream(61, 3)
    rep = probe(ten, 10, 10, 150, kind, rng)
    truth = true_curve(ten, 10)
    want = np.zeros(10, dtype=int)
    for i in range(150):
        want += curve_rows(draw_sample(ten, 10, rng.child(0, i)).ingested_values, kind, 10) < truth
    assert [row.underestimates for row in rep.rows] == want.tolist()


@pytest.mark.parametrize("kind", list(EstimatorKind))
def test_coverage_hits_match_a_per_sample_loop(lattice, kind, monkeypatch):
    monkeypatch.setattr(experiments, "_SAMPLE_CHUNK_VALUES", 30)  # three samples per chunk
    rng = RngStream(67, 2)
    boot = BootstrapConfig(RngStream(67, 3), resamples=50, confidence=0.9)
    rep = coverage(lattice, 10, 10, 40, boot, kind, rng)
    truth = true_curve(lattice, 10)
    want = np.zeros(10, dtype=int)
    for i in range(40):  # one sample and one bootstrap serve every budget
        sample = draw_sample(lattice, 10, rng.child(0, i))
        lo, hi = percentile_bootstrap_curve(sample, kind, 10, replace(boot, rng=boot.rng.child(0, i)))
        want += (lo <= truth) & (truth <= hi)
    assert [row.hits for row in rep.rows] == want.tolist()
    assert {row.hits for row in rep.rows} != {40}


@pytest.mark.parametrize("kind", list(EstimatorKind))
def test_battery_rows_do_not_depend_on_n_max(lattice, kind):
    # At n = 1 the mean of ten lattice draws often equals the truth exactly,
    # so a truth that rounds differently with n_max changes these counts.
    boot = BootstrapConfig(RngStream(3, 1), resamples=200)
    full_probe = probe(lattice, 10, 10, 400, kind, RngStream(3)).rows
    full_coverage = coverage(lattice, 10, 10, 100, boot, kind, RngStream(3)).rows
    for k in (1, 3):
        assert probe(lattice, 10, k, 400, kind, RngStream(3)).rows == full_probe[:k]
        assert coverage(lattice, 10, k, 100, boot, kind, RngStream(3)).rows == full_coverage[:k]


@pytest.mark.parametrize("kind", [EstimatorKind.MEANMAX_V, EstimatorKind.UNBIASED_U])
def test_curves_match_per_sample_curves_bit_for_bit(ten, coin, kind):
    rng = RngStream(62, 1)
    rep = curves({"ten": ten, "coin": coin}, 9, 130, kind, rng)
    for m, (model, dist) in enumerate(zip(rep.models, (ten, coin))):
        estimates = np.array([
            expected_max_curve(draw_sample(dist, 9, rng.child(m, i)), kind, 9).estimates
            for i in range(130)
        ])
        assert model.averaged == tuple(estimates.mean(axis=0).tolist())
        assert model.stderr == tuple((estimates.std(axis=0, ddof=1) / np.sqrt(130)).tolist())


@pytest.mark.parametrize("chunk", [1, 25, 1 << 30])
def test_reports_do_not_depend_on_the_sample_chunk(ten, coin, chunk, monkeypatch):
    sample = draw_sample(ten, 12, RngStream(65))
    boot = BootstrapConfig(RngStream(66, 1), resamples=40, confidence=0.9)
    # 60 rows of 12 scores: more rows than gaps, so blocks of budgets split into row chunks.
    tall = np.random.default_rng(67).standard_cauchy(size=(3, 20, 12))

    def run_all():
        probes = [probe(ten, 10, 10, 120, kind, RngStream(63)) for kind in EstimatorKind]
        curve_reports = [
            curves({"ten": ten, "coin": coin}, 10, 120, kind, RngStream(64))
            for kind in (EstimatorKind.MEANMAX_V, EstimatorKind.UNBIASED_U)
        ]
        coverages = [coverage(ten, 10, 4, 30, boot, kind, RngStream(66)) for kind in EstimatorKind]
        curve_cis = [
            [end.tolist() for end in percentile_bootstrap_curve(sample, kind, 12, boot)]
            for kind in EstimatorKind
        ]
        tall_curves = [curve_rows(tall, kind, 30 if kind is EstimatorKind.MEANMAX_V else 12).tobytes()
                       for kind in EstimatorKind]
        return probes, curve_reports, coverages, curve_cis, tall_curves

    default = run_all()
    monkeypatch.setattr(experiments, "_SAMPLE_CHUNK_VALUES", chunk)
    monkeypatch.setattr(resampling, "_BOOT_CHUNK_VALUES", chunk)
    # Curve blocks of one budget, of a few (five, for probe) and of all budgets.
    monkeypatch.setattr(estimators, "_BLOCK_VALUES", 4 * chunk)
    # One tail block of any length at least B - 1 (11, for the curve-ci sample).
    monkeypatch.setattr(estimators, "_TAIL_VALUES", max(11, chunk))
    assert run_all() == default


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    st.integers(1, 12).flatmap(lambda B: st.tuples(st.just(B), st.integers(1, B))),
    st.integers(1, 40),
    st.sampled_from(list(EstimatorKind)),
    st.integers(0, 2**32),
)
def test_batteries_rerun_byte_for_byte(sizes, samples, kind, seed):
    B, n_max = sizes
    ten = DiscreteDistribution(np.arange(1.0, 11.0), np.full(10, 0.1))
    coin = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
    boot = BootstrapConfig(RngStream(seed, 1), resamples=16, confidence=0.9)
    batteries = {
        "probe": lambda: probe(ten, B, n_max, samples, kind, RngStream(seed)),
        "coverage": lambda: coverage(ten, B, n_max, samples, boot, kind, RngStream(seed)),
        "curves": lambda: curves({"ten": ten, "coin": coin}, B, samples, kind, RngStream(seed)),
    }
    for payload_kind, run in batteries.items():
        reports = [run(), run()]
        assert reports[0] == reports[1]
        texts = [
            report_json_text(replace(make_envelope(payload_kind, r, {"seed": seed}), created=""))
            for r in reports
        ]
        assert texts[0] == texts[1]


def test_batteries_run_on_the_calling_thread(ten, coin, monkeypatch):
    kernels = ("curve_blocks", "percentile_bootstrap_curve", "curve_rows")
    seen = {name: set() for name in kernels}

    def recorder(name, kernel):
        def record(*args, **kwargs):
            seen[name].add(threading.get_ident())
            return kernel(*args, **kwargs)
        return record

    for name in kernels:
        monkeypatch.setattr(experiments, name, recorder(name, getattr(experiments, name)))
    kind = EstimatorKind.MEANMAX_V
    boot = BootstrapConfig(RngStream(4, 1), resamples=16, confidence=0.9)
    probe(ten, 6, 6, 20, kind, RngStream(4))
    coverage(ten, 6, 6, 10, boot, kind, RngStream(4))
    curves({"ten": ten, "coin": coin, "again": ten}, 6, 20, kind, RngStream(4))
    assert seen == {name: {threading.get_ident()} for name in kernels}


class FirstDraw(Exception):
    pass


@pytest.mark.parametrize("battery", ["probe", "coverage"])
def test_a_huge_sample_count_reaches_the_first_draw_without_listing_its_chunks(ten, battery,
                                                                               monkeypatch):
    # 10^12 samples of B = 10 make about 1.5e8 chunks; listing them before the
    # first draw took gigabytes and died with MemoryError.
    def first_draw(*args):
        raise FirstDraw

    monkeypatch.setattr(experiments, "draw_rows", first_draw)
    kind = EstimatorKind.MEANMAX_V
    boot = BootstrapConfig(RngStream(5, 1), resamples=16, confidence=0.9)
    run = {"probe": lambda: probe(ten, 10, 5, 10**12, kind, RngStream(5)),
           "coverage": lambda: coverage(ten, 10, 5, 10**12, boot, kind, RngStream(5))}[battery]
    with pytest.raises(FirstDraw):
        run()


# ---------------------------------------------------------------------------
# failure_scan
# ---------------------------------------------------------------------------


def report_from_curves(budgets, a_avg, a_true, b_avg, b_true):
    zeros = tuple(0.0 for _ in budgets)
    return CurveReport(
        models=(
            ModelCurves("a", tuple(budgets), tuple(a_avg), tuple(a_true), zeros),
            ModelCurves("b", tuple(budgets), tuple(b_avg), tuple(b_true), zeros),
        ),
        B=len(budgets),
        num_samples=1,
        estimator=EstimatorKind.MEANMAX_V,
        seed=0,
        stream=0,
    )


def test_failure_scan_detects_strict_inversions():
    # At n=2 the true leader is b but the estimates say a; n=1 agrees and
    # n=3 ties in truth, so neither produces a row.
    rep = report_from_curves(
        [1, 2, 3],
        a_avg=[0.5, 0.7, 0.8], a_true=[0.5, 0.6, 0.9],
        b_avg=[0.4, 0.6, 0.7], b_true=[0.4, 0.8, 0.9],
    )
    inversions = failure_scan(rep, "a", "b")
    assert [(i.n, i.true_leader, i.estimated_leader) for i in inversions] == [
        (2, "b", "a")
    ]


def test_failure_scan_ties_produce_no_rows():
    rep = report_from_curves(
        [1, 2],
        a_avg=[0.5, 0.5], a_true=[0.6, 0.6],
        b_avg=[0.5, 0.6], b_true=[0.4, 0.6],
    )
    assert failure_scan(rep, "a", "b") == []


def test_failure_scan_swap_symmetry():
    rep = report_from_curves(
        [1, 2, 3],
        a_avg=[0.5, 0.7, 0.6], a_true=[0.5, 0.6, 0.9],
        b_avg=[0.4, 0.6, 0.7], b_true=[0.4, 0.8, 0.8],
    )
    forward = failure_scan(rep, "a", "b")
    backward = failure_scan(rep, "b", "a")
    assert [(i.n, i.true_leader, i.estimated_leader) for i in forward] == [
        (i.n, i.true_leader, i.estimated_leader) for i in backward
    ]


def test_failure_scan_identical_distributions_empty(ten):
    rep = curves({"a": ten, "b": ten}, 6, 80, EstimatorKind.MEANMAX_V, RngStream(10, 0))
    assert failure_scan(rep, "a", "b") == []


def test_failure_scan_separated_unbiased_empty(ten):
    # True curves stay several units apart at every n, far beyond the noise
    # at this sample count, so the unbiased scan stays clean.
    low = DiscreteDistribution([1.0, 2.0], [0.5, 0.5])
    rep = curves({"ten": ten, "low": low}, 8, 400, EstimatorKind.UNBIASED_U, RngStream(11, 0))
    assert failure_scan(rep, "ten", "low") == []


def test_failure_scan_errors():
    rep = report_from_curves([1, 2], [0.5, 0.6], [0.5, 0.6], [0.4, 0.5], [0.4, 0.5])
    with pytest.raises(ValueError):
        failure_scan(rep, "a", "missing")
    mismatched = CurveReport(
        models=(
            ModelCurves("a", (1, 2), (0.1, 0.2), (0.1, 0.2), (0.0, 0.0)),
            ModelCurves("b", (1, 3), (0.1, 0.2), (0.1, 0.2), (0.0, 0.0)),
        ),
        B=2, num_samples=1, estimator=EstimatorKind.MEANMAX_V, seed=0, stream=0,
    )
    with pytest.raises(ValueError):
        failure_scan(mismatched, "a", "b")
