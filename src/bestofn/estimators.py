"""Order-statistic estimators of the expected maximum score at a tuning budget.

Given B validation scores from a hyperparameter search, these estimators
answer "what score should I expect from the best of n tuning runs?" for
every budget n. Two families are provided: the plug-in "meanmax" estimator
(empirical CDF raised to the n-th power, a V-statistic, negatively biased
for n > 1) and the subset-average estimator (a U-statistic, exactly
unbiased for n <= B).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaln


class EmptySampleError(ValueError):
    """Raised when an operation receives a sample with no values."""


class BudgetTooSmallError(ValueError):
    """Raised when a budget n < 1 is requested."""


class BudgetTooLargeError(ValueError):
    """Raised when a budget n > B is requested from an estimator that
    cannot extrapolate past the sample size."""


class ScoreSample:
    """A sample of B run scores, kept in both ingestion and sorted order.

    Sorted order drives the permutation-invariant estimators; ingestion
    order is retained because the prefix estimator depends on it. Values
    must be finite reals; ties are permitted.
    """

    __slots__ = ("_ingested", "_sorted")

    def __init__(self, values: Sequence[float] | np.ndarray):
        arr = np.atleast_1d(np.asarray(values, dtype=float))
        if arr.ndim != 1:
            raise ValueError(f"scores must be one-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            raise EmptySampleError("score sample must contain at least one value")
        if not np.isfinite(arr).all():
            bad = arr[~np.isfinite(arr)][0]
            raise ValueError(f"scores must be finite, found {bad!r}")
        ingested = arr.copy()
        ingested.flags.writeable = False
        ordered = np.sort(arr)
        ordered.flags.writeable = False
        self._ingested = ingested
        self._sorted = ordered

    @property
    def size(self) -> int:
        return int(self._sorted.size)

    @property
    def sorted_values(self) -> np.ndarray:
        """Scores in ascending order (read-only view)."""
        return self._sorted

    @property
    def ingested_values(self) -> np.ndarray:
        """Scores in the order they were supplied (read-only view)."""
        return self._ingested

    @property
    def min(self) -> float:
        return float(self._sorted[0])

    @property
    def max(self) -> float:
        return float(self._sorted[-1])

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"ScoreSample(size={self.size}, min={self.min:g}, max={self.max:g})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreSample):
            return NotImplemented
        return np.array_equal(self._ingested, other._ingested)

    def __hash__(self):
        return hash(self._ingested.tobytes())


class EstimatorKind(enum.Enum):
    """Selectable estimator families for the expected maximum at budget n."""

    MEANMAX_V = "meanmax"
    MEANMAX_PREFIX = "meanmax-prefix"
    UNBIASED_U = "unbiased"

    @classmethod
    def parse(cls, name: str) -> "EstimatorKind":
        for kind in cls:
            if kind.value == name:
                return kind
        known = ", ".join(k.value for k in cls)
        raise ValueError(f"unknown estimator {name!r}; expected one of: {known}")

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class CurvePoint:
    n: int
    estimate: float
    ci: tuple[float, float] | None = None


@dataclass(frozen=True)
class ExpectedMaxCurve:
    """Per-budget expected-maximum estimates for n = 1..n_max.

    Budgets are strictly increasing; every estimate is a convex combination
    of the source scores, so the curve stays inside [min, max] of the sample
    and is non-decreasing in n.
    """

    points: tuple[CurvePoint, ...]
    estimator: EstimatorKind
    sample_size: int

    def __post_init__(self):
        ns = [p.n for p in self.points]
        if any(n < 1 for n in ns):
            raise ValueError("curve budgets must be >= 1")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("curve budgets must be strictly increasing")

    @property
    def budgets(self) -> np.ndarray:
        return np.array([p.n for p in self.points], dtype=int)

    @property
    def estimates(self) -> np.ndarray:
        return np.array([p.estimate for p in self.points], dtype=float)


def _require_budget(n: int, size: int, bounded: bool) -> None:
    if n < 1:
        raise BudgetTooSmallError(f"budget n must be >= 1, got {n}")
    if bounded and n > size:
        raise BudgetTooLargeError(
            f"budget n={n} exceeds sample size B={size}; only the plug-in "
            "meanmax estimator extrapolates past B"
        )


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=1024)
def meanmax_weights(size: int, n: int) -> np.ndarray:
    """Plug-in weights w_j = (j/B)^n - ((j-1)/B)^n for j = 1..B.

    Computed ratios-first so no intermediate exceeds 1; for very large n the
    weights underflow to 0 away from j = B, which is the correct limit.
    """
    ratios = np.arange(0, size + 1, dtype=float) / size
    powered = ratios**n
    return _readonly(np.diff(powered))


@lru_cache(maxsize=1024)
def unbiased_weights(size: int, n: int) -> np.ndarray:
    """Subset-count weights w_j = C(j-1, n-1) / C(B, n) for j = 1..B.

    Evaluated in log space via log-gamma, so they stay finite where direct
    64-bit binomials overflow (B around 62). Weights are exactly zero for
    j < n, where no size-n subset has its maximum at position j.
    """
    j = np.arange(1, size + 1, dtype=float)
    log_choose_total = gammaln(size + 1) - gammaln(n + 1) - gammaln(size - n + 1)
    with np.errstate(invalid="ignore"):
        log_w = gammaln(j) - gammaln(n) - gammaln(j - n + 1) - log_choose_total
    weights = np.zeros(size)
    hit = j >= n
    weights[hit] = np.exp(log_w[hit])
    return _readonly(weights)


@lru_cache(maxsize=1024)
def meanmax_cumweights(size: int, n: int) -> np.ndarray:
    """Partial weight sums c_j = (j/B)^n for j = 1..B-1 (c_B = 1 omitted)."""
    return _readonly((np.arange(1, size, dtype=float) / size) ** n)


@lru_cache(maxsize=1024)
def unbiased_cumweights(size: int, n: int) -> np.ndarray:
    """Partial weight sums c_j = C(j, n) / C(B, n) for j = 1..B-1.

    The per-position weights telescope to binomial ratios (the hockey-stick
    identity), evaluated in log space. At n = 1 both estimators degenerate
    to the sample mean, so the exact plug-in ratios are reused rather than
    round-tripped through log-gamma (keeps the n = 1 equality bit-exact).
    """
    if n == 1:
        return meanmax_cumweights(size, 1)
    j = np.arange(1, size, dtype=float)
    log_total = gammaln(size + 1) - gammaln(size - n + 1)
    with np.errstate(invalid="ignore"):
        log_c = gammaln(j + 1) - gammaln(j - n + 1) - log_total
    cum = np.zeros(size - 1)
    hit = j >= n
    cum[hit] = np.exp(log_c[hit])
    return _readonly(cum)


def _tail_weighted(sorted_values: np.ndarray, cum: np.ndarray) -> float:
    """Evaluate max - sum_j c_j * (V_(j+1) - V_(j)) over the sorted values.

    Summation by parts of the weighted order-statistic sum. This form is
    exact on constant samples (every gap is zero, so the result is the
    sample value itself), collapses ties for free, and makes the dominance
    of the unbiased estimator hold exactly in floating point, because the
    two estimators then differ by a sum of non-negative products.
    """
    if sorted_values.size == 1:
        return float(sorted_values[0])
    return float(sorted_values[-1] - cum @ np.diff(sorted_values))


def meanmax_v(sample: ScoreSample, n: int) -> float:
    """Plug-in estimate of the expected maximum of n i.i.d. draws.

    Weighted sum of the order statistics with ECDF-power weights; the weight
    differences telescope across tied values, so ties need no special
    handling. Defined for any n >= 1, including n > B.
    """
    _require_budget(n, sample.size, bounded=False)
    return _tail_weighted(sample.sorted_values, meanmax_cumweights(sample.size, n))


def unbiased_u(sample: ScoreSample, n: int) -> float:
    """Unbiased estimate: the average maximum over all C(B, n) subsets."""
    _require_budget(n, sample.size, bounded=True)
    return _tail_weighted(sample.sorted_values, unbiased_cumweights(sample.size, n))


def meanmax_prefix(sample: ScoreSample, n: int) -> float:
    """Plug-in estimate computed from only the first n scores, in ingestion
    order. Much noisier than :func:`meanmax_v`, which uses all B scores."""
    _require_budget(n, sample.size, bounded=True)
    head = np.sort(sample.ingested_values[:n])
    return _tail_weighted(head, meanmax_cumweights(n, n))


_ESTIMATORS: dict[EstimatorKind, Callable[[ScoreSample, int], float]] = {
    EstimatorKind.MEANMAX_V: meanmax_v,
    EstimatorKind.MEANMAX_PREFIX: meanmax_prefix,
    EstimatorKind.UNBIASED_U: unbiased_u,
}


def estimate(sample: ScoreSample, kind: EstimatorKind, n: int) -> float:
    """Evaluate the selected estimator at budget n."""
    return _ESTIMATORS[kind](sample, n)


def budget_is_bounded(kind: EstimatorKind) -> bool:
    """Whether the estimator requires n <= B."""
    return kind is not EstimatorKind.MEANMAX_V


def ecdf_pow(sample: ScoreSample, x, n: int = 1):
    """Empirical CDF of the sample raised to the n-th power, evaluated at x.

    This is the plug-in approximation to the CDF of the maximum of n draws.
    Accepts scalar or array x; right-continuous step function.
    """
    if n < 1:
        raise BudgetTooSmallError(f"power n must be >= 1, got {n}")
    counts = np.searchsorted(sample.sorted_values, x, side="right")
    out = (counts / sample.size) ** n
    return float(out) if np.isscalar(x) else out


def ks_distance(cdf_a: Callable, cdf_b: Callable, grid) -> float:
    """Largest absolute gap between two CDFs over the evaluation grid.

    Exact (not a lower bound) when the grid contains every jump point of
    both step functions; callers with discrete distributions should pass
    the union of supports.
    """
    pts = np.atleast_1d(np.asarray(grid, dtype=float))
    if pts.size == 0:
        raise ValueError("evaluation grid must be non-empty")
    return float(np.max(np.abs(np.asarray(cdf_a(pts)) - np.asarray(cdf_b(pts)))))


@dataclass(frozen=True)
class KsBoundRow:
    n: int
    bound: float


@dataclass(frozen=True)
class KsBoundReport:
    """KS lower bounds of the powered ECDF for n = 1..n_max, given the true
    CDF at the sample maximum."""

    cdf_at_max: float
    B: int
    rows: tuple[KsBoundRow, ...]


def ks_lower_bound(sample: ScoreSample, true_cdf_at_sample_max: float, n: int = 1) -> float:
    """Guaranteed lower bound 1 - F(max(sample))^n on the KS distance between
    the powered ECDF and the powered true CDF, valid whenever the population
    maximum is missing from the sample.

    ``true_cdf_at_sample_max`` is the true CDF evaluated at the largest
    sample value. The bound grows to 1 exponentially in n: budgets past the
    sample's reach make the plug-in CDF arbitrarily wrong in the tail.
    """
    if n < 1:
        raise BudgetTooSmallError(f"power n must be >= 1, got {n}")
    if not 0.0 <= true_cdf_at_sample_max <= 1.0:
        raise ValueError(f"CDF value must lie in [0, 1], got {true_cdf_at_sample_max}")
    return 1.0 - true_cdf_at_sample_max**n


def cumweight_matrix(kind: EstimatorKind, size: int, n_max: int) -> np.ndarray:
    """Rows n = 1..n_max of partial weight sums c_1..c_{B-1}.

    ``max(sample) - row @ diff(sorted sample)`` gives the budget-n estimate;
    this is how the estimators are actually evaluated (see _tail_weighted).
    """
    if kind is EstimatorKind.MEANMAX_PREFIX:
        raise ValueError("prefix estimator has no all-budget weight matrix")
    fn = meanmax_cumweights if kind is EstimatorKind.MEANMAX_V else unbiased_cumweights
    return np.vstack([fn(size, n) for n in range(1, n_max + 1)])


def expected_max_curve(sample: ScoreSample, kind: EstimatorKind, n_max: int) -> ExpectedMaxCurve:
    """Expected-maximum estimates for every budget n = 1..n_max.

    Confidence intervals are not attached here; see
    :func:`bestofn.resampling.percentile_bootstrap_ci`.
    """
    _require_budget(n_max, sample.size, bounded=budget_is_bounded(kind))
    if kind is EstimatorKind.MEANMAX_PREFIX:
        values = [meanmax_prefix(sample, n) for n in range(1, n_max + 1)]
    elif sample.size == 1:
        values = [sample.max] * n_max
    else:
        cum = cumweight_matrix(kind, sample.size, n_max)
        values = sample.max - cum @ np.diff(sample.sorted_values)
    points = tuple(CurvePoint(n=i + 1, estimate=float(v)) for i, v in enumerate(values))
    return ExpectedMaxCurve(points=points, estimator=kind, sample_size=sample.size)
