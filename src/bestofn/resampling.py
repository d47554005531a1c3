"""Percentile-bootstrap intervals for curve estimates and exact binomial intervals.

The bootstrap here is deliberately the plain percentile method (no BCa or
studentized variants): the point of the simulation batteries is to measure how
that method's coverage behaves under a biased estimator, so the method itself
must stay vanilla. Clopper-Pearson intervals solve their defining binomial
tail equations in numpy (:func:`clopper_pearson`), so no run path imports scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import RngStream
from .estimators import ArgumentError, EstimatorKind, Interval, ScoreSample, budget_is_bounded
from .estimators import allocate, curve_blocks, estimate_rows
from .estimators import require_budget, require_count
from .estimators import estimate  # noqa: F401  (perfbench/tracer.py wraps it here)


@dataclass(frozen=True)
class BootstrapConfig:
    """Resample count, nominal confidence, and the randomness source."""

    rng: RngStream
    resamples: int = 5000
    confidence: float = 0.95

    def __post_init__(self):
        require_count(self.resamples, "resamples")
        if not 0.0 < self.confidence < 1.0:
            raise ArgumentError(
                "confidence", f"must lie strictly between 0 and 1, got {self.confidence}"
            )


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


def percentile_ends(values: np.ndarray, confidence: float) -> np.ndarray:
    """``np.quantile(values, (q, 1 - q), axis=0)`` bit for bit, q = (1 - confidence) / 2:
    numpy's default linear interpolation between ranks floor((n-1) q) and the next one
    (both the top rank where (n-1) q >= n-1), mixed as numpy mixes them. The ranks come
    from one partition on the ranks np.quantile partitions on, so even a zero's sign is
    numpy's; np.quantile would pick them with ``np.unique``, which imports numpy.ma
    (about 10 ms and 1.3 MiB) on first use.
    """
    q = (1.0 - confidence) / 2.0  # alpha / 2
    size = values.shape[0]
    virtual = (size - 1) * np.array((q, 1.0 - q))
    below = np.floor(virtual)
    above = below + 1.0
    past = virtual >= size - 1
    below[past] = above[past] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    ordered = np.partition(values, sorted({0, -1, *below.tolist(), *above.tolist()}), axis=0)
    a, b = ordered[below], ordered[above]
    gamma = (virtual - below).reshape((2,) + (1,) * (values.ndim - 1))
    diff = b - a
    ends = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=ends, where=gamma >= 0.5)
    return ends


def percentile_bootstrap_ci(
    sample: ScoreSample, kind: EstimatorKind, n: int, config: BootstrapConfig
) -> Interval:
    """Percentile-bootstrap confidence interval for the budget-n estimate.

    Draws ``config.resamples`` with-replacement resamples of the full sample
    size, evaluates the chosen estimator on each, and returns the empirical
    (alpha/2, 1-alpha/2) percentiles (:func:`percentile_ends`) where
    alpha = 1 - confidence. Deterministic given ``config.rng``.
    """
    stats = np.concatenate([estimate_rows(rows, kind, n) for _, rows in _resamples(sample, config)])
    return Interval(*percentile_ends(stats, config.confidence).tolist())


_MATRIX = "the resample matrix"


def bootstrap_matrix(resamples: int, size: int) -> np.ndarray:
    """The empty (resamples, size) matrix :func:`percentile_bootstrap_curve` fills with
    ``resamples`` resamples of ``size`` scores; see :func:`~bestofn.estimators.allocate`."""
    return allocate((resamples, size), "resamples", resamples, _MATRIX)


def percentile_bootstrap_curve(
    sample: ScoreSample, kind: EstimatorKind, n_max: int, config: BootstrapConfig,
    matrix: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`percentile_bootstrap_ci`'s ends (lo, hi), to rounding, at budgets 1..n_max, all
    read off one set of resamples. Each chunk of resamples is copied into one (resamples, B)
    matrix in draw order, and :func:`~bestofn.estimators.curve_blocks` walks the matrix in
    place. Each block of budgets, sized by the larger of the resample count and B - 1 and
    summed a few rows at a time, is reduced to its two percentiles by one
    :func:`percentile_ends`, so resamples x n_max estimates are never held.

    ``matrix`` is a :func:`bootstrap_matrix` for this resample count and sample size (another
    shape raises ValueError), overwritten here; a battery passes one matrix to all its
    bootstraps, so the allocator does not hand about 1 MiB back to the system and fault it in
    again for each. Without it the matrix is allocated before any resample is drawn."""
    require_budget(n_max, sample.size, budget_is_bounded(kind), "n_max")
    matrix = bootstrap_matrix(config.resamples, sample.size) if matrix is None else matrix
    if matrix.shape != (config.resamples, sample.size):
        raise ValueError(f"matrix must be {(config.resamples, sample.size)}, got {matrix.shape}")
    ends = allocate((2, n_max), "n_max", n_max, "the table of interval ends")
    try:  # the walk's sorts into gaps, and each block's estimates, grow with resamples
        for start, rows in _resamples(sample, config):
            matrix[start : start + len(rows)] = rows
        for start, values in curve_blocks(matrix, kind, n_max):
            ends[:, start : start + values.shape[-1]] = percentile_ends(values, config.confidence)
    except MemoryError:
        raise ArgumentError("resamples", f"{config.resamples}: {_MATRIX} does not fit in memory") from None
    return ends[0], ends[1]


def clopper_pearson(successes: int, trials: int, confidence: float) -> Interval:
    """Exact (Clopper-Pearson) binomial confidence interval for a proportion.

    With k = ``successes`` of m = ``trials`` and X ~ Binomial(m, p), lo solves
    P(X >= k; p) = alpha/2 and hi solves P(X <= k; p) = alpha/2, with lo = 0 at
    k = 0 and hi = 1 at k = m. These are the beta quantiles
    I_lo(k, m-k+1) = alpha/2 and I_hi(k+1, m-k) = 1 - alpha/2. Each end is
    solved from its own small tail (:func:`_tail_root`), never as 1 - tail.
    """
    require_count(trials, "trials")
    require_count(successes, "successes", least=0)
    if successes > trials:
        raise ArgumentError("successes", f"must be <= trials = {trials}, got {successes}")
    if not 0.0 < confidence < 1.0:
        raise ArgumentError("confidence", f"must lie strictly between 0 and 1, got {confidence}")
    k, m = successes, trials
    target = math.log((1.0 - confidence) / 2.0)
    i = np.arange(1.0, m + 1)
    ratios = np.log((m - i + 1) / i)  # log C(m, i) - log C(m, i-1)
    log_c = float(ratios[:k].sum())  # log C(m, k) = log C(m, m-k)
    # Y = m - X ~ Binomial(m, 1-p) turns hi's lower tail into an upper one.
    lo = 0.0 if k == 0 else math.exp(_tail_root(k, m, log_c, ratios[k:], target))
    hi = 1.0 if k == m else -math.expm1(_tail_root(m - k, m, log_c, ratios[m - k:], target))
    return Interval(lo, hi)


def _log1mexp(u: float) -> float:
    """log(1 - e^u) for u < 0, accurate at both ends."""
    return math.log(-math.expm1(u)) if u > -math.log(2.0) else math.log1p(-math.exp(u))


def _tail_root(k: int, m: int, log_c: float, ratios: np.ndarray, target: float) -> float:
    """The u = log p < log(k/m) at which log P(X >= k) = ``target`` < log(1/2),
    X ~ Binomial(m, p), 1 <= k <= m; ``log_c`` is log C(m, k) and ``ratios``
    holds log C(m, i) - log C(m, i-1) for i = k+1..m.

    h(u) = log P(X >= k) is concave in u (the log of a beta variate has a
    log-concave density) with slope k pmf(k) / P(X >= k). The tail is summed
    relative to its first term, which is its largest for p <= k/m, and terms
    below e^-50 of it at p = k/m are dropped: they are smaller still below k/m.
    The root lies between the union bound's u, where C(m,k) p^k = e^target, and
    log(k/m), where the median k gives h >= log(1/2). Newton steps from the
    union bound climb to it; a step that would leave the bracket bisects it
    instead, and the search stops when a step moves u by at most one float or
    the bracket closes to adjacent floats.
    """
    rel = np.concatenate(([0.0], np.cumsum(ratios)))  # log pmf(i) - log pmf(k) at p = 1/2
    steps = np.arange(rel.size, dtype=float)
    if k < m:
        keep = np.count_nonzero(rel + steps * math.log(k / (m - k)) > -50.0)
        rel, steps = rel[:keep], steps[:keep]

    a, b = (target - log_c) / k, math.log(k / m)
    x = a
    while True:
        log_q = _log1mexp(x)
        tail = float(np.exp(rel + steps * (x - log_q)).sum())  # P(X >= k) / pmf(k)
        g = log_c + k * x + (m - k) * log_q + math.log(tail) - target
        if g < 0.0:
            a = x
        elif g > 0.0:
            b = x
        else:
            return x
        nxt = x - g * tail / k
        if math.nextafter(x, nxt) == nxt:
            return nxt
        if not a < nxt < b:
            nxt = a + (b - a) / 2.0
            if not a < nxt < b:
                return x
        x = nxt
