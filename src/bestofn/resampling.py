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
from .estimators import ArgumentError, EstimatorKind, ScoreSample, cumweights
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


_BOOT_CHUNK_VALUES = 1 << 22


def _resample_statistics(
    sample: ScoreSample, kind: EstimatorKind, n: int, config: BootstrapConfig
) -> np.ndarray:
    """Estimator values over all bootstrap resamples, in draw order.

    Resampling indexes the sorted representation of the sample with uniform
    draws, so the result cannot depend on ingestion order for the
    permutation-invariant estimators. For the prefix estimator the resample's
    own draw order serves as its ingestion order. Chunk size is a fixed
    module constant, so chunking never changes the draw sequence.
    """
    size = sample.size
    values = sample.sorted_values
    cum = cumweights(kind, size, n)
    gen = config.rng.generator()
    out = np.empty(config.resamples, dtype=float)
    rows_per_chunk = max(1, _BOOT_CHUNK_VALUES // size)
    done = 0
    while done < config.resamples:
        rows = min(rows_per_chunk, config.resamples - done)
        idx = gen.integers(0, size, size=(rows, size))
        draws = values[idx]
        if kind is EstimatorKind.MEANMAX_PREFIX:
            draws = draws[:, :n]
        draws.sort(axis=1)
        out[done : done + rows] = draws[:, -1] - np.diff(draws, axis=1) @ cum
        done += rows
    return out


def percentile_bootstrap_ci(
    sample: ScoreSample, kind: EstimatorKind, n: int, config: BootstrapConfig
) -> Interval:
    """Percentile-bootstrap confidence interval for the budget-n estimate.

    Draws ``config.resamples`` with-replacement resamples of the full sample
    size, evaluates the chosen estimator on each, and returns the empirical
    (alpha/2, 1-alpha/2) percentiles where alpha = 1 - confidence.
    Deterministic given ``config.rng``.
    """
    stats = _resample_statistics(sample, kind, n, config)
    alpha = 1.0 - config.confidence
    return Interval(percentile(stats, alpha / 2.0), percentile(stats, 1.0 - alpha / 2.0))


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
