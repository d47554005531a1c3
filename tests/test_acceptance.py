"""Release acceptance battery: one test per criterion, full scale.

Each test exercises the public API at the sample counts and tolerances the
release gate fixes, then prints a single ``criterion N (name): PASS`` line
(visible under ``pytest -s``; pytest -v reports the same outcome per test).
Statistical checks run at pinned seeds whose margins were validated against
exact enumerations beforehand, so they are deterministic in practice.

The enumeration oracles for criterion 2 are intentionally re-stated here
rather than imported from the unit tests: the battery has to stand on its
own and fail loudly if either the library or the oracles drift.
"""

import contextlib
import io
import itertools
import json
import math

import numpy as np
from numpy.testing import assert_allclose

from bestofn import (
    BootstrapConfig,
    DiscreteDistribution,
    EstimatorKind,
    RngStream,
    ScoreSample,
    clopper_pearson,
    coverage,
    curves,
    draw_sample,
    ecdf_pow,
    estimate,
    exact_expected_max,
    failure_scan,
    ks_distance,
    ks_lower_bound,
    mc_expected_max,
    meanmax_v,
    probe,
    save_distribution,
    unbiased_u,
)
from bestofn.cli import main
from bestofn.fixtures import (
    CROSSING_STEADY,
    CROSSING_VOLATILE,
    PROBE_SKEWED,
    load_fixture,
)
from bestofn.distributions import canonical_json


def _pass(number: int, name: str) -> None:
    print(f"criterion {number} ({name}): PASS")


# ---------------------------------------------------------------------------
# Criterion 1: the plug-in estimate never exceeds the unbiased one
# ---------------------------------------------------------------------------


def test_criterion_01_estimator_dominance():
    rng = np.random.default_rng(1729)
    strict = 0
    for i in range(10_000):
        size = int(rng.integers(1, 65))
        if i % 2 == 0:
            values = rng.normal(size=size)
        else:
            values = rng.integers(0, 4, size=size).astype(float)
        sample = ScoreSample(values)
        lo_to_hi = np.sort(values)
        for n in range(1, size + 1):
            v = meanmax_v(sample, n)
            u = unbiased_u(sample, n)
            assert v <= u
            if n == 1:
                assert abs(v - u) <= 1e-12
            if lo_to_hi[0] < lo_to_hi[n - 1]:
                assert v < u
                strict += 1
    assert strict > 100_000
    _pass(1, "estimator dominance")


# ---------------------------------------------------------------------------
# Criterion 2: both estimators match brute-force enumeration
# ---------------------------------------------------------------------------


def subset_mean_max(values, n):
    """Mean of max over all C(B, n) subsets, straight from the definition."""
    return float(np.mean([max(c) for c in itertools.combinations(values, n)]))


def ordered_draw_mean_max(values, n):
    """Mean of max over all B^n ordered with-replacement draws."""
    base = np.asarray(values, dtype=float)
    acc = base
    for _ in range(n - 1):
        acc = np.maximum.outer(acc, base).ravel()
    return float(acc.mean())


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(7)
    for size in range(1, 9):
        for _ in range(2):
            values = rng.integers(0, 5, size=size).astype(float)
            sample = ScoreSample(values)
            for n in range(1, size + 1):
                assert_allclose(unbiased_u(sample, n), subset_mean_max(values, n),
                                rtol=1e-10)
                assert_allclose(meanmax_v(sample, n), ordered_draw_mean_max(values, n),
                                rtol=1e-10)
    _pass(2, "oracle equivalence")


# ---------------------------------------------------------------------------
# Criterion 3: coin at B=2, n=2 separates the biased and unbiased means
# ---------------------------------------------------------------------------


def test_criterion_03_coin_bias_sign():
    coin = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
    cases = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    exact_v = np.mean([meanmax_v(ScoreSample(np.array(c)), 2) for c in cases])
    exact_u = np.mean([unbiased_u(ScoreSample(np.array(c)), 2) for c in cases])
    theta2 = exact_expected_max(coin, 2)
    assert exact_v == 0.625
    assert theta2 == 0.75
    assert exact_u == theta2
    assert exact_v < exact_u

    flips = draw_sample(coin, 200_000, RngStream(1729, 0)).ingested_values
    pairs = flips.reshape(100_000, 2)
    vs = np.empty(100_000)
    us = np.empty(100_000)
    for i, row in enumerate(pairs):
        sample = ScoreSample(row)
        vs[i] = meanmax_v(sample, 2)
        us[i] = unbiased_u(sample, 2)
    for arr, target in ((vs, exact_v), (us, theta2)):
        stderr = arr.std(ddof=1) / math.sqrt(arr.size)
        assert abs(arr.mean() - target) <= 4.0 * stderr
    _pass(3, "coin bias sign")


# ---------------------------------------------------------------------------
# Criterion 4: exact expected max against a 9-pair enumeration and MC
# ---------------------------------------------------------------------------


def test_criterion_04_exact_expected_max():
    uniform3 = DiscreteDistribution([1.0, 2.0, 3.0], np.full(3, 1.0 / 3.0))
    assert_allclose(exact_expected_max(uniform3, 2), 22.0 / 9.0, rtol=1e-12)
    mc = mc_expected_max(uniform3, 2, 1_000_000, RngStream(1729, 0))
    assert abs(mc - 22.0 / 9.0) <= 0.003
    _pass(4, "exact expected max")


# ---------------------------------------------------------------------------
# Criterion 5: powered-ECDF KS error respects its closed-form lower bound
# ---------------------------------------------------------------------------


def test_criterion_05_powered_ecdf_ks_bound():
    # Mass 0.9 sits at the value an all-zeros sample tops out at, so the
    # true CDF at the sample max is 0.9 by construction.
    truth = DiscreteDistribution([0.0, 1.0], [0.9, 0.1])
    sample = ScoreSample(np.zeros(10))
    grid = np.linspace(-0.5, 1.5, 401)
    for n in (1, 5, 10):
        measured = ks_distance(
            lambda x: ecdf_pow(sample, x, n),
            lambda x: truth.cdf(x) ** n,
            grid,
        )
        bound = ks_lower_bound(sample, 0.9, n)
        assert measured >= bound - 1e-12
        assert_allclose(measured, 1.0 - 0.9 ** n, rtol=1e-12)
    assert abs(ks_lower_bound(sample, 0.9, 10) - 0.6513) <= 1e-4
    ladder = [ks_lower_bound(sample, 0.9, n) for n in range(1, 41)]
    assert all(a < b for a, b in zip(ladder, ladder[1:]))
    assert all(value < 1.0 for value in ladder)
    assert ladder[-1] > 0.98
    _pass(5, "powered-ECDF KS bound")


# ---------------------------------------------------------------------------
# Criterion 6: underestimate probing degrades for the plug-in, not the
# unbiased estimator
# ---------------------------------------------------------------------------


def test_criterion_06_probing_degradation():
    dist = load_fixture(PROBE_SKEWED)
    plug_in = probe(dist, 50, 50, 1000, EstimatorKind.MEANMAX_V, RngStream(1729, 0))
    first, last = plug_in.rows[0], plug_in.rows[-1]
    assert (first.n, last.n) == (1, 50)
    assert last.proportion > 0.75
    assert last.proportion > first.proportion
    assert last.ci.lo > 0.5

    unbiased = probe(dist, 50, 10, 1000, EstimatorKind.UNBIASED_U, RngStream(1729, 3))
    assert [row.n for row in unbiased.rows] == list(range(1, 11))
    for row in unbiased.rows:
        # The 95% interval overlaps [0.4, 0.6]: no systematic error sign.
        assert row.ci.lo <= 0.6
        assert row.ci.hi >= 0.4
    _pass(6, "probing degradation")


# ---------------------------------------------------------------------------
# Criterion 7: bootstrap CI coverage collapses as n grows
# ---------------------------------------------------------------------------


def test_criterion_07_coverage_collapse():
    dist = load_fixture(PROBE_SKEWED)
    boot = BootstrapConfig(RngStream(1729, 1), resamples=1000)
    report = coverage(dist, 50, 20, 300, boot, EstimatorKind.MEANMAX_V,
                      RngStream(1729, 0))
    first, last = report.rows[0], report.rows[-1]
    assert (first.n, last.n) == (1, 20)
    assert first.ci.hi >= 0.90
    assert last.ecp < 0.85
    # Non-increasing overall: the endpoint drop survives 99% binomial bands.
    assert clopper_pearson(last.hits, 300, 0.99).hi < \
        clopper_pearson(first.hits, 300, 0.99).lo
    _pass(7, "coverage collapse")


# ---------------------------------------------------------------------------
# Criterion 8: averaged plug-in curves invert a crossing pair, unbiased
# curves do not
# ---------------------------------------------------------------------------


def test_criterion_08_crossing_inversion():
    pair = {
        "steady": load_fixture(CROSSING_STEADY),
        "volatile": load_fixture(CROSSING_VOLATILE),
    }
    plug_in = curves(pair, 25, 5000, EstimatorKind.MEANMAX_V, RngStream(1729, 0))
    unbiased = curves(pair, 25, 5000, EstimatorKind.UNBIASED_U, RngStream(1729, 0))
    assert plug_in.num_samples == unbiased.num_samples == 5000
    assert failure_scan(plug_in, "steady", "volatile") != []
    assert failure_scan(unbiased, "steady", "volatile") == []
    _pass(8, "crossing inversion")


# ---------------------------------------------------------------------------
# Criterion 9: Clopper-Pearson endpoints and exhaustive coverage
# ---------------------------------------------------------------------------


def test_criterion_09_clopper_pearson_exactness():
    upper = clopper_pearson(0, 20, 0.95).hi
    assert abs(upper - 0.1684) <= 1e-4
    assert abs(upper - (1.0 - 0.025 ** (1.0 / 20.0))) <= 1e-9
    m = 30
    intervals = [clopper_pearson(k, m, 0.95) for k in range(m + 1)]
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        covered = sum(
            math.comb(m, k) * p ** k * (1.0 - p) ** (m - k)
            for k, ci in enumerate(intervals)
            if ci.lo <= p <= ci.hi
        )
        assert covered >= 0.95
    _pass(9, "Clopper-Pearson exactness")


# ---------------------------------------------------------------------------
# Criterion 10: experiment subcommands are thread-count invariant
# ---------------------------------------------------------------------------


def test_criterion_10_cli_determinism(tmp_path):
    path_a = tmp_path / "alpha.json"
    path_b = tmp_path / "beta.json"
    save_distribution(DiscreteDistribution([0.0, 0.5, 1.0], [0.2, 0.5, 0.3]), path_a)
    save_distribution(DiscreteDistribution([0.25, 0.75], [0.5, 0.5]), path_b)

    def payload_bytes(argv, out):
        with contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv + ["--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text(encoding="utf-8"))["payload"]
        return canonical_json(payload).encode("utf-8")

    seeded = {
        "probe": ["probe", "--dist", str(path_a), "--B", "12", "--n-max", "6",
                  "--samples", "120"],
        "coverage": ["coverage", "--dist", str(path_a), "--B", "12", "--n-max", "5",
                     "--M", "40", "--resamples", "200"],
        "curves-sim": ["curves-sim", "--dist", f"alpha={path_a}",
                       "--dist", f"beta={path_b}", "--B", "10", "--samples", "60"],
    }
    for name, argv in seeded.items():
        one = payload_bytes(argv + ["--threads", "1"], tmp_path / f"{name}-1.json")
        three = payload_bytes(argv + ["--threads", "3"], tmp_path / f"{name}-3.json")
        assert one == three, name

    # failure-scan takes no seed or threads; two runs must still agree.
    curves_out = tmp_path / "curves-sim-1.json"
    scans = [
        payload_bytes(["failure-scan", "--report", str(curves_out)],
                      tmp_path / f"scan-{i}.json")
        for i in range(2)
    ]
    assert scans[0] == scans[1]
    _pass(10, "CLI determinism")
