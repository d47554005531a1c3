"""Simulation batteries: probing, CI coverage, averaged curves, failure scans.

probe, coverage and curves run one engine, :func:`_per_sample`: sample i (of
model m for curves, else m = 0) draws from ``rng.child(m, i)``, a chunk of
samples per call, and every budget is read off that one sample's curve. Probe
and coverage count underestimates and bootstrap-CI hits per budget and tally
them into the same rows (:func:`_tally`); curves stacks the curves. Chunks run
in order on the calling thread.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping

import numpy as np

from .distributions import DiscreteDistribution, RngStream, draw_rows, true_curve
from .distributions import draw_sample  # noqa: F401  (perfbench/tracer.py wraps it here)
from .estimators import (
    EstimatorKind,
    Interval,
    ScoreSample,
    _REPORT_ROW_BYTES,
    allocate,
    budget_is_bounded,
    curve_blocks,
    curve_rows,
    require_budget,
    require_count,
    reserve,
)
from .estimators import estimate, expected_max_curve  # noqa: F401  (perfbench wraps them here)
from .resampling import BootstrapConfig, bootstrap_matrix, clopper_pearson, percentile_bootstrap_curve
from .resampling import percentile_bootstrap_ci  # noqa: F401  (perfbench/tracer.py wraps it here)

_PROPORTION_CI_CONFIDENCE = 0.95

# The batteries draw and evaluate about this many score values per call, so
# memory does not grow with the sample count; results do not depend on it.
# A chunk pays fixed costs once (the draw kernel's ~370 numpy calls, its
# streams, the weight rows of its curves, a progress line); at 2^16 they are
# small next to the values, and a chunk of scores is still only 512 KiB.
_SAMPLE_CHUNK_VALUES = 1 << 16

ProgressFn = Callable[[str], None]


@dataclass(frozen=True)
class ProbeRow:
    """Underestimate tally for one budget."""

    n: int
    underestimates: int
    samples: int
    proportion: float
    ci: Interval


@dataclass(frozen=True)
class ProbeReport:
    """How often an estimator lands strictly below the true expected maximum.

    A calibrated estimator should sit near one half; the plug-in estimator
    drifts toward one as the budget grows.
    """

    rows: tuple[ProbeRow, ...]
    B: int
    estimator: EstimatorKind
    dist_id: str
    seed: int
    stream: int


@dataclass(frozen=True)
class CoverageRow:
    """Bootstrap-CI hit tally for one budget."""

    n: int
    hits: int
    samples: int
    ecp: float
    ci: Interval


@dataclass(frozen=True)
class CoverageReport:
    """Empirical coverage of percentile-bootstrap intervals, per budget."""

    rows: tuple[CoverageRow, ...]
    B: int
    resamples: int
    nominal: float
    estimator: EstimatorKind
    dist_id: str
    seed: int
    stream: int


@dataclass(frozen=True)
class ModelCurves:
    """Averaged estimated curve and exact true curve for one model."""

    name: str
    budgets: tuple[int, ...]
    averaged: tuple[float, ...]
    true: tuple[float, ...]
    stderr: tuple[float, ...]

    def __post_init__(self):
        for field in ("averaged", "true", "stderr"):
            values = getattr(self, field)
            if len(values) != len(self.budgets) or not np.isfinite(values).all():
                raise ValueError(f"model {self.name!r}: {field} must hold one finite value per budget")


@dataclass(frozen=True)
class CurveReport:
    """Vertically averaged budget-quality curves next to their true curves."""

    models: tuple[ModelCurves, ...]
    B: int
    num_samples: int
    estimator: EstimatorKind
    seed: int
    stream: int

    def model(self, name: str) -> ModelCurves:
        for m in self.models:
            if m.name == name:
                return m
        known = ", ".join(m.name for m in self.models)
        raise ValueError(f"no model named {name!r} in report (have: {known})")


@dataclass(frozen=True)
class Inversion:
    """A budget where the estimated ordering contradicts the true ordering."""

    n: int
    true_leader: str
    estimated_leader: str


@dataclass(frozen=True)
class FailureScanReport:
    """Every inversion between two models of one curves report."""

    model_a: str
    model_b: str
    B: int
    estimator: EstimatorKind
    inversions: tuple[Inversion, ...]


def _check_battery_args(B: int, n_max: int, kind: EstimatorKind, count: int, count_name: str,
                        models: int = 0) -> None:
    """Check a battery's sizes, then reserve a sample and the report's rows: n_max, or B per model."""
    require_count(B, "B")
    require_budget(n_max, B, budget_is_bounded(kind), "n_max")
    require_count(count, count_name)
    reserve(8 * B, "B", B, "a sample")
    rows, name, value = (models * B, "B", B) if models else (n_max, "n_max", n_max)
    reserve(rows * _REPORT_ROW_BYTES, name, value, "the report")


def _run_ordered(worker, items: Iterable[range], total: int, progress: ProgressFn | None,
                 label: str) -> None:
    """Call worker on each range of samples in order, on the calling thread,
    with one progress line per range saying how many of ``total`` are done."""
    for item in items:
        worker(item)
        if progress is not None:
            progress(f"{label}: {item.stop}/{total} samples")


def _per_sample(dist: DiscreteDistribution, B: int, count: int, rng: RngStream, key: int, evaluate,
                progress: ProgressFn | None, label: str) -> None:
    """Call ``evaluate(rows, start)`` on ``count`` size-B samples, about
    _SAMPLE_CHUNK_VALUES score values at a time, with one progress line per
    chunk: ``rows[k]`` is sample start+k, drawn from ``rng.child(key, start+k)``.
    Each chunk derives its Philox keys in one :meth:`RngStream.children` pass and
    draws all its rows in one :func:`draw_rows` call, which loads no numpy
    generator."""
    per_chunk = max(1, _SAMPLE_CHUNK_VALUES // B)
    chunks = (range(start, min(start + per_chunk, count)) for start in range(0, count, per_chunk))
    keyed = rng.child(key)
    _run_ordered(lambda c: evaluate(draw_rows(dist, B, keyed.children(c.start, c.stop)), c.start),
                 chunks, count, progress, label)


def _tally(row_type, counts: np.ndarray, samples: int) -> tuple:
    """One (n, hits, samples, share, Clopper-Pearson) row per budget n = 1, 2, ...
    from that budget's hit count; budgets with the same count share one interval."""
    hits = counts.tolist()
    cis = {c: clopper_pearson(c, samples, _PROPORTION_CI_CONFIDENCE) for c in set(hits)}
    return tuple(row_type(n, c, samples, c / samples, cis[c]) for n, c in enumerate(hits, 1))


def probe(
    dist: DiscreteDistribution,
    B: int,
    n_max: int,
    num_samples: int,
    kind: EstimatorKind,
    rng: RngStream,
    *,
    dist_id: str = "",
    progress: ProgressFn | None = None,
) -> ProbeReport:
    """Proportion of samples whose estimate falls strictly below the truth.

    Draws ``num_samples`` size-B samples from ``dist``, sample i from
    ``rng.child(0, i)``, and counts per budget n in 1..n_max the samples whose
    estimate, read off the sample's curve (:func:`curve_blocks`), lies strictly
    below the exact expected maximum; ties count as neither. Each row carries a
    Clopper-Pearson 95% interval for the proportion. All budgets share the
    samples, so rows are positively correlated across n; each row's count is
    still binomial and its interval exact.
    """
    _check_battery_args(B, n_max, kind, num_samples, "samples")
    truth = true_curve(dist, n_max)
    under = np.zeros(n_max, dtype=np.int64)

    def count_under(rows: np.ndarray, _start: int) -> None:
        for start, values in curve_blocks(rows, kind, n_max):
            stop = start + values.shape[-1]
            under[start:stop] += np.count_nonzero(values < truth[start:stop], axis=0)

    _per_sample(dist, B, num_samples, rng, 0, count_under, progress, "probe")
    rows = _tally(ProbeRow, under, num_samples)
    return ProbeReport(rows=rows, B=B, estimator=kind, dist_id=dist_id, seed=rng.seed, stream=rng.stream)


def coverage(
    dist: DiscreteDistribution,
    B: int,
    n_max: int,
    M: int,
    boot: BootstrapConfig,
    kind: EstimatorKind,
    rng: RngStream,
    *,
    dist_id: str = "",
    progress: ProgressFn | None = None,
) -> CoverageReport:
    """Empirical coverage probability of percentile-bootstrap intervals.

    Draws M size-B samples, sample i from ``rng.child(0, i)``, bootstraps each
    once, from ``boot.rng.child(0, i)``, and reads every budget's interval off
    those resamples (:func:`percentile_bootstrap_curve`). Each row is the
    fraction of intervals holding the exact expected maximum (closed: endpoint
    hits count). All budgets share the samples and resamples, so rows are
    positively correlated across n; each row's count is still binomial and its
    Clopper-Pearson interval exact.
    """
    _check_battery_args(B, n_max, kind, M, "M")
    truth = true_curve(dist, n_max)
    hits = np.zeros(n_max, dtype=np.int64)
    boot_streams = boot.rng.child(0)
    matrix = bootstrap_matrix(boot.resamples, B)  # one matrix, refilled by every bootstrap

    def count_hits(rows: np.ndarray, start: int) -> None:
        for row, key in zip(rows, boot_streams.children(start, start + len(rows)).tolist()):
            config = replace(boot, rng=RngStream(*key))
            lo, hi = percentile_bootstrap_curve(ScoreSample(row), kind, n_max, config, matrix)
            hits[:] += (lo <= truth) & (truth <= hi)

    _per_sample(dist, B, M, rng, 0, count_hits, progress, "coverage")
    return CoverageReport(
        rows=_tally(CoverageRow, hits, M),
        B=B,
        resamples=boot.resamples,
        nominal=boot.confidence,
        estimator=kind,
        dist_id=dist_id,
        seed=rng.seed,
        stream=rng.stream,
    )


def curves(
    dists: Mapping[str, DiscreteDistribution],
    B: int,
    num_samples: int,
    kind: EstimatorKind,
    rng: RngStream,
    *,
    progress: ProgressFn | None = None,
) -> CurveReport:
    """Average estimated budget-quality curves against exact true curves.

    For each named distribution, draws ``num_samples`` size-B samples,
    computes the full estimated curve on each (budgets 1..B), a chunk of
    samples per call of :func:`curve_rows`, and averages pointwise; the
    per-budget standard error of that average is recorded. Sample i of the
    m-th distribution (in mapping order) draws from ``rng.child(m, i)``.
    """
    if not dists:
        raise ValueError("at least one distribution is required")
    _check_battery_args(B, B, kind, num_samples, "samples", len(dists))
    budgets = tuple(range(1, B + 1))

    def run_model(m: int, name: str) -> ModelCurves:
        dist = dists[name]
        estimates = allocate((num_samples, B), "samples", num_samples, "the matrix of sample curves")

        def stack(rows: np.ndarray, start: int) -> None:
            estimates[start : start + len(rows)] = curve_rows(rows, kind, B)

        _per_sample(dist, B, num_samples, rng, m, stack, progress, f"curves {name}")
        averaged = estimates.mean(axis=0)
        if num_samples > 1:
            stderr = estimates.std(axis=0, ddof=1) / np.sqrt(num_samples)
        else:
            stderr = np.zeros(B)
        return ModelCurves(
            name=name,
            budgets=budgets,
            averaged=tuple(float(x) for x in averaged),
            true=tuple(float(x) for x in true_curve(dist, B)),
            stderr=tuple(float(x) for x in stderr),
        )

    models = tuple(run_model(m, name) for m, name in enumerate(dists))
    return CurveReport(
        models=models,
        B=B,
        num_samples=num_samples,
        estimator=kind,
        seed=rng.seed,
        stream=rng.stream,
    )


def failure_scan(report: CurveReport, model_a: str, model_b: str) -> list[Inversion]:
    """Budgets where averaged estimates invert the true model ordering.

    An inversion requires strict inequality on both sides: the true curves
    disagree about the leader AND the averaged estimated curves disagree the
    other way. Ties on either side produce no row.
    """
    a = report.model(model_a)
    b = report.model(model_b)
    if a.budgets != b.budgets:
        raise ValueError(
            f"models {model_a!r} and {model_b!r} have different budget grids"
        )
    out: list[Inversion] = []
    for n, ta, tb, ea, eb in zip(a.budgets, a.true, b.true, a.averaged, b.averaged):
        if ta == tb or ea == eb:
            continue
        true_leader = model_a if ta > tb else model_b
        estimated_leader = model_a if ea > eb else model_b
        if true_leader != estimated_leader:
            out.append(Inversion(n=n, true_leader=true_leader, estimated_leader=estimated_leader))
    return out
