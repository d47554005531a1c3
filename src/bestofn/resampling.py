"""Percentile-bootstrap intervals for curve estimates and exact binomial intervals.

The bootstrap here is deliberately the plain percentile method (no BCa or
studentized variants): the point of the simulation batteries is to measure how
that method's coverage behaves under a biased estimator, so the method itself
must stay vanilla. Clopper-Pearson intervals are exact beta quantiles from
``scipy.special.betaincinv``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import RngStream
from .estimators import ArgumentError, EstimatorKind, ScoreSample, budget_is_bounded
from .estimators import curve_blocks, estimate_rows, require_budget
from .estimators import estimate  # noqa: F401  (perfbench/tracer.py wraps it here)


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite, got ({self.lo}, {self.hi})")
        if self.lo > self.hi:
            raise ValueError(f"interval lo ({self.lo}) exceeds hi ({self.hi})")

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class BootstrapConfig:
    """Resample count, nominal confidence, and the randomness source."""

    rng: RngStream
    resamples: int = 5000
    confidence: float = 0.95

    def __post_init__(self):
        if self.resamples < 1:
            raise ArgumentError("resamples", f"must be >= 1, got {self.resamples}")
        if not 0.0 < self.confidence < 1.0:
            raise ArgumentError(
                "confidence", f"must lie strictly between 0 and 1, got {self.confidence}"
            )


def percentile(values: Sequence[float] | np.ndarray, q: float) -> float:
    """Empirical percentile with linear interpolation between closest ranks.

    With sorted values y_1..y_m and position p = q*(m-1), returns
    y_{floor(p)+1} + frac(p) * (y_{floor(p)+2} - y_{floor(p)+1}), the
    "type 7" convention (numpy's default).
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("percentile of an empty sequence is undefined")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    return float(np.quantile(arr, q, method="linear"))


_BOOT_CHUNK_VALUES = 1 << 15  # resample values per draw: small enough to stay in cache


def _resamples(sample: ScoreSample, config: BootstrapConfig):
    """Yield ``(start, rows)``: the ``config.resamples`` with-replacement
    resamples of the full sample size, in draw order, a chunk of rows at a time.
    Resampling indexes the sorted representation of the sample with uniform
    draws, so the result cannot depend on ingestion order for the
    permutation-invariant estimators. For the prefix estimator the resample's
    own draw order serves as its ingestion order. Philox ``integers`` draws
    the same stream however a draw is split, so chunking never changes it.
    """
    size = sample.size
    gen = config.rng.generator()
    rows_per_chunk = max(1, _BOOT_CHUNK_VALUES // size)
    for start in range(0, config.resamples, rows_per_chunk):
        rows = min(rows_per_chunk, config.resamples - start)
        yield start, sample.sorted_values[gen.integers(0, size, size=(rows, size))]


def percentile_bootstrap_ci(
    sample: ScoreSample, kind: EstimatorKind, n: int, config: BootstrapConfig
) -> Interval:
    """Percentile-bootstrap confidence interval for the budget-n estimate.

    Draws ``config.resamples`` with-replacement resamples of the full sample
    size, evaluates the chosen estimator on each, and returns the empirical
    (alpha/2, 1-alpha/2) percentiles where alpha = 1 - confidence.
    Deterministic given ``config.rng``.
    """
    stats = np.concatenate([estimate_rows(rows, kind, n) for _, rows in _resamples(sample, config)])
    alpha = 1.0 - config.confidence
    return Interval(percentile(stats, alpha / 2.0), percentile(stats, 1.0 - alpha / 2.0))


def percentile_bootstrap_curve(
    sample: ScoreSample, kind: EstimatorKind, n_max: int, config: BootstrapConfig
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`percentile_bootstrap_ci`'s ends (lo, hi), to rounding, at budgets 1..n_max, all
    read off one set of resamples. Each :func:`~bestofn.estimators.curve_blocks` block is
    reduced to its two percentiles at once, so resamples x n_max estimates are never held."""
    require_budget(n_max, sample.size, budget_is_bounded(kind), "n_max")
    draws = np.concatenate([rows for _, rows in _resamples(sample, config)])
    q = (1.0 - config.confidence) / 2.0  # alpha / 2
    ends = np.empty((2, n_max))
    for start, values in curve_blocks(draws, kind, n_max):
        ends[:, start : start + values.shape[-1]] = np.quantile(values, (q, 1.0 - q), axis=0)
    return ends[0], ends[1]


def clopper_pearson(successes: int, trials: int, confidence: float) -> Interval:
    """Exact (Clopper-Pearson) binomial confidence interval for a proportion.

    The bounds are beta quantiles: lo solves I_x(k, m-k+1) = alpha/2 and hi
    solves I_x(k+1, m-k) = 1 - alpha/2, with lo = 0 at k = 0 and hi = 1 at
    k = m.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must be in [0, {trials}], got {successes}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    # Imported here, not at module level: only the batteries need it.
    from scipy.special import betaincinv

    alpha = 1.0 - confidence
    k, m = successes, trials
    lo = 0.0 if k == 0 else float(betaincinv(k, m - k + 1, alpha / 2.0))
    hi = 1.0 if k == m else float(betaincinv(k + 1, m - k, 1.0 - alpha / 2.0))
    return Interval(lo, hi)
