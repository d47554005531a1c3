"""Order-statistic estimators of the expected maximum score at a tuning budget.

Given B validation scores from a hyperparameter search, these estimators
answer "what score should I expect from the best of n tuning runs?" for
every budget n. Two families are provided: the plug-in "meanmax" estimator
(empirical CDF raised to the n-th power, a V-statistic, negatively biased
for n > 1) and the subset-average estimator (a U-statistic, exactly
unbiased for n <= B).

Both are evaluated in one form, the sample maximum minus the sorted gaps
weighted by partial weight sums c_j(n), on a stack of samples at a time. A
single budget builds its row of c_j in O(B) (:func:`estimate_rows`); a full
curve walks n by exact ratio recurrences, a bounded block of rows at a time,
so memory stays O(B) per sample for any number of budgets. One walker reads
curves, bootstraps and exact truths off a (height, B) score matrix
(:func:`curve_blocks`); it sorts the matrix in place into gaps for every kind
but the prefix one, which keeps draw order.
At each budget a curve sums only the blocks of 1024 gaps, counted from the
top, whose plug-in weight reaches 2^-64; the gaps left out move an estimate
by less than 2^-64 times the sample's range. A full curve then costs
O(B log B) products plus about 1024 per budget, not B^2. A sample of up to
1025 scores is one block, and nothing is cut before n is about 44 B.
"""
from __future__ import annotations

import enum
import itertools
import math
import mmap
import numbers
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
    must be finite reals whose range max - min is finite too, so that no gap
    or estimate overflows; ties are permitted.
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
        lo, hi = ordered[[0, -1]].tolist()
        if not math.isfinite(hi - lo):
            raise ValueError(f"scores must span a finite range, got {lo!r} to {hi!r}")
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

    def __str__(self) -> str:
        return self.value


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
class CurvePoint:
    """One budget of a curve, with its confidence interval when one was computed."""

    n: int
    estimate: float
    ci: Interval | None = None

    def __post_init__(self):
        if not math.isfinite(self.estimate):
            raise ValueError(f"curve point n={self.n}: estimate must be finite, got {self.estimate}")


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
    def estimates(self) -> np.ndarray:
        return np.array([p.estimate for p in self.points], dtype=float)


@dataclass(frozen=True)
class CurveSet:
    """The ``curve`` report's payload: one curve per requested estimator."""

    curves: tuple[ExpectedMaxCurve, ...]


def require_count(value: int, name: str, too_small: type[ArgumentError] = ArgumentError,
                  least: int = 1) -> None:
    """Reject a ``value`` that is not an integer (``bool`` included) or is below
    ``least``, naming the argument ``name`` it came from."""
    # A plain int skips the ABC check, the slow part; a bool is never a plain int.
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ArgumentError(name, f"must be an integer, got {value!r}")
    if value < least:
        raise too_small(name, f"must be >= {least}, got {value}")


def allocate(shape, name: str, value: int, what: str) -> np.ndarray:
    """``np.empty(shape)``, or an :class:`ArgumentError` naming the argument ``name`` = ``value``
    when numpy cannot allocate it; numpy refuses a shape past its largest array as ValueError."""
    try:
        return np.empty(shape)
    except (MemoryError, ValueError):
        raise ArgumentError(name, f"{value}: {what} does not fit in memory") from None


_REPORT_ROW_BYTES = 1024  # at least any report's peak bytes a row, with JSON and an SVG chart


def reserve(nbytes: int, name: str, value: int, what: str) -> None:
    """Map ``nbytes`` of address space and unmap it, touching no page; refused, raise as :func:`allocate`."""
    try:
        mmap.mmap(-1, nbytes).close()
    except (OSError, OverflowError):
        raise ArgumentError(name, f"{value}: {what} does not fit in memory") from None


def require_budget(n: int, size: int, bounded: bool, name: str = "n") -> None:
    """Reject a budget that is not an integer (``bool`` included), n < 1, or
    n > B = ``size`` for a ``bounded`` estimator (see :func:`budget_is_bounded`);
    ``name`` is the argument n came from."""
    require_count(n, name, BudgetTooSmallError)
    if bounded and n > size:
        raise BudgetTooLargeError(
            name,
            f"{n} exceeds the sample size B = {size}; only the plug-in "
            "meanmax estimator extrapolates past B",
        )


def cumweights(kind: EstimatorKind, size: int, n: int) -> np.ndarray:
    """Budget-n partial weight sums c_1..c_{B-1} of a size-B sample (c_B = 1
    omitted), the weights :func:`estimate_rows` applies to the sorted gaps.

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
    return np.multiply.accumulate(ratios)[::-1]


def estimate_rows(draws: np.ndarray, kind: EstimatorKind, n: int) -> np.ndarray:
    """Budget-n estimates of score rows in ingestion order, (..., B) -> (...).

    Each row is max - sum_j c_j * (V_(j+1) - V_(j)) over its sorted values
    (the prefix estimator sorts only its first n): summation by parts of the
    weighted order-statistic sum. This form is exact on constant rows,
    collapses ties for free, and makes the dominance of the unbiased
    estimator hold exactly in floating point, because the two estimators
    then differ by a sum of non-negative products. A single value has no
    gaps, and the empty sum leaves its maximum. Rows are summed as a curve sums
    them (:func:`_tail_sum`), so budget 1 equals the curve's first column.
    """
    cum = cumweights(kind, draws.shape[-1], n)
    rows = np.sort(draws[..., :n] if kind is EstimatorKind.MEANMAX_PREFIX else draws, axis=-1)
    return rows[..., -1] - _tail_sum((rows[..., 1:] - rows[..., :-1]) * cum)


def meanmax_v(sample: ScoreSample, n: int) -> float:
    """Plug-in estimate of the expected maximum of n i.i.d. draws.

    Weighted sum of the order statistics with ECDF-power weights; the weight
    differences telescope across tied values, so ties need no special
    handling. Defined for any n >= 1, including n > B.
    """
    return estimate(sample, EstimatorKind.MEANMAX_V, n)


def unbiased_u(sample: ScoreSample, n: int) -> float:
    """Unbiased estimate: the average maximum over all C(B, n) subsets."""
    return estimate(sample, EstimatorKind.UNBIASED_U, n)


def meanmax_prefix(sample: ScoreSample, n: int) -> float:
    """Plug-in estimate computed from only the first n scores, in ingestion
    order. Much noisier than :func:`meanmax_v`, which uses all B scores."""
    return estimate(sample, EstimatorKind.MEANMAX_PREFIX, n)


def estimate(sample: ScoreSample, kind: EstimatorKind, n: int) -> float:
    """Evaluate the selected estimator at budget n."""
    return float(estimate_rows(sample.ingested_values, kind, n))


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
    return float(1.0 - true_cdf_at_sample_max**n)


_BLOCK_VALUES = 1 << 16
_TAIL_VALUES = 1024


def _tail_sum(products: np.ndarray) -> np.ndarray:
    """Sums over the last axis in blocks of _TAIL_VALUES aligned from its end: each
    block pairwise, and the block sums one after another from the last block back.
    numpy's own sums, never BLAS: no row's bits depend on the stack or thread count."""
    size = products.shape[-1]
    total = products[..., max(0, size - _TAIL_VALUES) :].sum(axis=-1) + 0.0  # zeros + sum's bits
    for stop in range(size - _TAIL_VALUES, 0, -_TAIL_VALUES):
        total += products[..., max(0, stop - _TAIL_VALUES) : stop].sum(axis=-1)
    return total


def curve_blocks(rows: np.ndarray, kind: EstimatorKind, n_max: int, cdf: np.ndarray | None = None):
    """Yield ``(start, values)``: estimates of the (height, B) score matrix ``rows`` at budgets
    start+1..start+k, shape (height, k), for consecutive blocks covering 1..n_max. Callers check
    n_max. ``rows`` holds scores in draw order and is overwritten. The prefix estimator depends
    on that order, and it yields :func:`estimate_rows` one budget at a time. For the others each
    row is sorted in place, and its columns 0..B-2 are overwritten with its sorted gaps
    V_(j+1) - V_(j), _BLOCK_VALUES values at a time, since numpy buffers the overlapping
    subtraction; its maximum stays in column B-1.

    The budgets are walked by exact ratios: row n of partial weight sums is row
    n-1 times c_j(n)/c_j(n-1). The plug-in ratio row is ``cdf``, a CDF at each gap's
    lower end: j/B for a sample, or a distribution's CDF over its support, whose walk
    is its exact expected maximum. The unbiased ratio (j-n+1)/(B-n+1) is j/B at n = 1
    and never exceeds it, and no ratio exceeds 1.

    Budget n sums only a tail window of the gaps. They are cut into blocks
    of _TAIL_VALUES from the top gap j = B-1 down, and a block stays live
    while the plug-in weight of its top gap, its ``cdf``^n, is at least 2^-64. No
    weight in a dead block reaches 2^-64, so the cut moves an estimate by less
    than 2^-64 times the sample's range. Each live block is summed pairwise
    and the block sums one after another from the top down; both kinds sum
    the same blocks in the same order, and the live set only shrinks as n
    grows. So equality at n = 1, dominance and monotone curves hold exactly
    in floating point, for any stack height. When B-1 <= _TAIL_VALUES there
    is one block, which is not cut before n is about 44 B, so each row is one
    pairwise sum over all its gaps. The ratio recurrence runs only on the
    live window. A block of k budgets has k <= _BLOCK_VALUES / max(height,
    width), so its weight rows and its height x k estimates each stay within
    about _BLOCK_VALUES values, each block of weight rows continuing from the
    previous block's last. The gaps are multiplied and summed a chunk of rows
    at a time, so about _BLOCK_VALUES products are alive at once. Memory
    stays O(B) per score row for any n_max, and results do not depend on the
    block or chunk sizes. Each weight row is the row before it times its
    ratio row, one in-place multiply per budget; ``np.multiply.accumulate``
    down the budgets gives the same bits but costs about four times as much
    per value. Past every block's reach the window is empty, and no rows are
    built.
    """
    if kind is EstimatorKind.MEANMAX_PREFIX:
        yield from ((n - 1, estimate_rows(rows, kind, n)[:, None]) for n in range(1, n_max + 1))
        return
    height, size = rows.shape
    rows.sort(axis=-1)
    step = max(1, _BLOCK_VALUES // size)
    for r in range(0, height, step):
        np.subtract(rows[r : r + step, 1:], rows[r : r + step, :-1], out=rows[r : r + step, :-1])
    cdf = np.arange(1, size, dtype=float) / size if cdf is None else cdf
    # Block b (top gap t = B-1-b*L) is live at n while cdf[t]^n >= 2^-64. log2(1/F), since
    # -log2(1.0) is -0.0: a CDF of 1 must reach +inf, not -inf. A CDF of 0 reaches 0.
    with np.errstate(divide="ignore", over="ignore"):
        reach = 64.0 / np.log2(1.0 / cdf[::-_TAIL_VALUES])
    last = np.ones(size - 1)
    start = 0
    while start < n_max:
        live = int(np.count_nonzero(reach >= start + 1))
        width = min(size - 1, live * _TAIL_VALUES)
        stop = min(n_max, start + max(1, _BLOCK_VALUES // max(1, height, width)))
        if live:
            stop = int(min(stop, reach[live - 1]))  # no block dies inside this block of budgets
        values = rows[:, -1:].repeat(stop - start, axis=1)
        if width:
            if kind is EstimatorKind.UNBIASED_U:
                m = np.arange(start, stop, dtype=float)[:, None]  # n - 1 for budgets n
                block = np.arange(size - width, size, dtype=float) - m  # the window's j - (n - 1)
                np.maximum(block, 0.0, out=block)
                block /= size - m
                ratios = block  # each row is multiplied in place
            else:
                block = np.empty((stop - start, width))
                ratios = itertools.repeat(cdf[size - 1 - width :])  # the same for every budget
            row = last[last.size - width :]
            for out, ratio in zip(block, ratios):
                row = np.multiply(row, ratio, out)
            last = block[-1].copy()
            window = rows[:, None, size - 1 - width : -1]
            chunk = max(1, _BLOCK_VALUES // block.size)  # rows whose products are alive at once
            for r in range(0, height, chunk):
                values[r : r + chunk] -= _tail_sum(window[r : r + chunk] * block)
        yield start, values
        start = stop


def curve_rows(draws: np.ndarray, kind: EstimatorKind, n_max: int) -> np.ndarray:
    """Budget 1..n_max estimates of score rows, (..., B) -> (..., n_max), by :func:`curve_blocks`."""
    require_budget(n_max, draws.shape[-1], budget_is_bounded(kind), "n_max")
    out = np.empty(draws.shape[:-1] + (n_max,))
    flat = out.reshape(-1, n_max)
    for start, values in curve_blocks(draws.reshape(-1, draws.shape[-1]).copy(), kind, n_max):
        flat[:, start : start + values.shape[-1]] = values
    return out


def expected_max_curve(sample: ScoreSample, kind: EstimatorKind, n_max: int,
                       ci: tuple[np.ndarray, np.ndarray] | None = None) -> ExpectedMaxCurve:
    """Expected-maximum estimates for every budget n = 1..n_max.

    Evaluated by :func:`curve_rows` in O(B) memory for any n_max; each point
    agrees with :func:`estimate` at its budget to rounding and the tail
    window's cut of under 2^-64 times the sample's range. ``ci``, when
    given, holds the interval ends (lo, hi) of budgets 1..n_max, as
    :func:`bestofn.resampling.percentile_bootstrap_curve` returns them.
    """
    values = curve_rows(sample.ingested_values, kind, n_max).tolist()
    cis = map(Interval, ci[0].tolist(), ci[1].tolist()) if ci is not None else itertools.repeat(None)
    points = tuple(map(CurvePoint, range(1, n_max + 1), values, cis))
    return ExpectedMaxCurve(points=points, estimator=kind, sample_size=sample.size)
