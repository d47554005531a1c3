"""Order-statistic estimators of the expected maximum score at a tuning budget.

Given B validation scores from a hyperparameter search, these estimators
answer "what score should I expect from the best of n tuning runs?" for
every budget n. Two families are provided: the plug-in "meanmax" estimator
(empirical CDF raised to the n-th power, a V-statistic, negatively biased
for n > 1) and the subset-average estimator (a U-statistic, exactly
unbiased for n <= B).

Both are evaluated in one form, the sample maximum minus the sorted gaps
weighted by partial weight sums c_j(n). A single budget builds its row of
c_j in O(B) (:func:`cumweights`); a full curve walks n by exact ratio
recurrences, a bounded block of rows at a time, so memory stays O(B) for
any number of budgets (:func:`expected_max_curve`).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class EmptySampleError(ValueError):
    """Raised when an operation receives a sample with no values."""


class ArgumentError(ValueError):
    """An argument out of range. ``name`` is spelled like its CLI flag with
    ``_`` for ``-`` (``n_max``), so the CLI can report the flag it came from."""

    def __init__(self, name: str, detail: str):
        super().__init__(f"{name} {detail}")
        self.name = name
        self.detail = detail


class BudgetTooSmallError(ArgumentError):
    """Raised when a budget n < 1 is requested."""


class BudgetTooLargeError(ArgumentError):
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
        return hash((self._ingested + 0.0).tobytes())  # -0.0 == 0.0, so hash them alike


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


def require_budget(n: int, size: int, bounded: bool, name: str = "n") -> None:
    """Reject a budget n < 1, or n > B = ``size`` for a ``bounded`` estimator
    (see :func:`budget_is_bounded`); ``name`` is the argument n came from."""
    if n < 1:
        raise BudgetTooSmallError(name, f"must be >= 1, got {n}")
    if bounded and n > size:
        raise BudgetTooLargeError(
            name,
            f"{n} exceeds the sample size B = {size}; only the plug-in "
            "meanmax estimator extrapolates past B",
        )


def cumweights(kind: EstimatorKind, size: int, n: int) -> np.ndarray:
    """Budget-n partial weight sums c_1..c_{B-1} of a size-B sample (c_B = 1
    omitted), the weights :func:`_tail_weighted` applies to the sorted gaps.

    The plug-in estimator has c_j = (j/B)^n. The unbiased one has the subset
    count ratio c_j = C(j, n) / C(B, n), built downward from c_B = 1 by
    c_{j-1} = c_j * (j-n)/j: no factor exceeds 1, nothing overflows, and
    c_j is exactly zero for j < n. At n = 1 both estimators are the sample
    mean, so the unbiased one reuses the plug-in row and the two agree
    bit for bit. The prefix estimator at budget n is the plug-in estimator
    on its first n scores. O(B) time and memory, nothing cached.
    """
    require_budget(n, size, budget_is_bounded(kind))
    if kind is EstimatorKind.MEANMAX_PREFIX:
        kind, size = EstimatorKind.MEANMAX_V, n
    if kind is EstimatorKind.MEANMAX_V or n == 1:
        return (np.arange(1, size, dtype=float) / size) ** n
    j = np.arange(size, 1, -1, dtype=float)
    ratios = np.maximum(j - n, 0.0) / j
    return np.cumprod(ratios)[::-1]


def _tail_weighted(sorted_values: np.ndarray, cum: np.ndarray) -> float:
    """Evaluate max - sum_j c_j * (V_(j+1) - V_(j)) over the sorted values.

    Summation by parts of the weighted order-statistic sum. This form is
    exact on constant samples (every gap is zero, so the result is the
    sample value itself), collapses ties for free, and makes the dominance
    of the unbiased estimator hold exactly in floating point, because the
    two estimators then differ by a sum of non-negative products. A single
    value has no gaps, and the empty sum leaves its maximum.
    """
    return float(sorted_values[-1] - cum @ (sorted_values[1:] - sorted_values[:-1]))


def meanmax_v(sample: ScoreSample, n: int) -> float:
    """Plug-in estimate of the expected maximum of n i.i.d. draws.

    Weighted sum of the order statistics with ECDF-power weights; the weight
    differences telescope across tied values, so ties need no special
    handling. Defined for any n >= 1, including n > B.
    """
    cum = cumweights(EstimatorKind.MEANMAX_V, sample.size, n)
    return _tail_weighted(sample.sorted_values, cum)


def unbiased_u(sample: ScoreSample, n: int) -> float:
    """Unbiased estimate: the average maximum over all C(B, n) subsets."""
    cum = cumweights(EstimatorKind.UNBIASED_U, sample.size, n)
    return _tail_weighted(sample.sorted_values, cum)


def meanmax_prefix(sample: ScoreSample, n: int) -> float:
    """Plug-in estimate computed from only the first n scores, in ingestion
    order. Much noisier than :func:`meanmax_v`, which uses all B scores."""
    cum = cumweights(EstimatorKind.MEANMAX_PREFIX, sample.size, n)
    return _tail_weighted(np.sort(sample.ingested_values[:n]), cum)


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
    require_budget(n, sample.size, bounded=False)
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
    require_budget(n, sample.size, bounded=False)
    if not 0.0 <= true_cdf_at_sample_max <= 1.0:
        raise ArgumentError("cdf_at_max", f"must lie in [0, 1], got {true_cdf_at_sample_max}")
    return 1.0 - true_cdf_at_sample_max**n


_BLOCK_VALUES = 1 << 20


def _curve_estimates(sorted_values: np.ndarray, kind: EstimatorKind, n_max: int) -> np.ndarray:
    """Budget-n estimates for n = 1..n_max, walking n by exact ratios.

    Row n of partial weight sums is row n-1 times c_j(n)/c_j(n-1): j/B for
    the plug-in estimator and (j-n+1)/(B-n+1) for the unbiased one. Both
    start from the shared row j/B at n = 1, every unbiased ratio is at most
    the plug-in one, and no ratio exceeds 1, so equality at n = 1, dominance
    and monotone curves hold exactly in floating point: the per-row sums
    below add their non-negative products in the same order for every row.
    Rows are built a block of about _BLOCK_VALUES floats at a time, each
    block's first row continuing from the previous block's last, so memory
    stays O(B) for any n_max and results do not depend on the block size.
    """
    size = sorted_values.size
    gaps = np.diff(sorted_values)
    j = np.arange(1, size, dtype=float)
    rows_per_block = max(1, _BLOCK_VALUES // max(1, size - 1))
    last = 1.0
    out = np.empty(n_max)
    for start in range(0, n_max, rows_per_block):
        stop = min(start + rows_per_block, n_max)
        if kind is EstimatorKind.UNBIASED_U:
            m = np.arange(start, stop, dtype=float)[:, None]  # n - 1 for budgets n
            block = np.maximum(j - m, 0.0) / (size - m)
        else:
            block = np.repeat((j / size)[None, :], stop - start, axis=0)
        block[0] *= last
        np.cumprod(block, axis=0, out=block)
        last = block[-1].copy()
        block *= gaps
        out[start:stop] = sorted_values[-1] - block.sum(axis=1)
    return out


def expected_max_curve(sample: ScoreSample, kind: EstimatorKind, n_max: int) -> ExpectedMaxCurve:
    """Expected-maximum estimates for every budget n = 1..n_max.

    The plug-in and unbiased curves walk n by a ratio recurrence in O(B)
    memory for any n_max (see :func:`_curve_estimates`); each point agrees
    with :func:`estimate` at its budget to rounding. The prefix curve is
    evaluated budget by budget. Confidence intervals are not attached here; see
    :func:`bestofn.resampling.percentile_bootstrap_ci`.
    """
    require_budget(n_max, sample.size, budget_is_bounded(kind), "n_max")
    if kind is EstimatorKind.MEANMAX_PREFIX:
        values = [meanmax_prefix(sample, n) for n in range(1, n_max + 1)]
    else:
        values = _curve_estimates(sample.sorted_values, kind, n_max)
    points = tuple(CurvePoint(n=i + 1, estimate=float(v)) for i, v in enumerate(values))
    return ExpectedMaxCurve(points=points, estimator=kind, sample_size=sample.size)
