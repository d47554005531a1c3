"""Simulation batteries: probing, CI coverage, averaged curves, failure scans.

probe, coverage and curves run one engine, :func:`_per_sample`: sample i of
budget n (model m, for curves) draws from ``rng.child(n, i)``, a chunk of
samples per call, and the battery maps each chunk to one value per sample: an
underestimate flag, a bootstrap-CI hit or a full curve. Probe and coverage
tally their flags into the same rows (:func:`_tally`). Budgets (models, for
curves) run in order on the calling thread; ``threads`` is checked and
otherwise ignored.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from .distributions import DiscreteDistribution, RngStream, draw_rows, true_curve
from .distributions import draw_sample  # noqa: F401  (perfbench/tracer.py wraps it here)
from .estimators import (
    ArgumentError,
    EstimatorKind,
    ScoreSample,
    budget_is_bounded,
    curve_rows,
    estimate_rows,
    require_budget,
)
from .estimators import estimate, expected_max_curve  # noqa: F401  (perfbench wraps them here)
from .resampling import BootstrapConfig, Interval, clopper_pearson, percentile_bootstrap_ci

_PROPORTION_CI_CONFIDENCE = 0.95

# The batteries draw and evaluate about this many score values per call, so
# memory does not grow with the sample count; results do not depend on it.
_SAMPLE_CHUNK_VALUES = 1 << 10

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
    kind: EstimatorKind
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
    kind: EstimatorKind
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
    kind: EstimatorKind
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
    kind: EstimatorKind
    inversions: tuple[Inversion, ...]


def _check_battery_args(B: int, n_max: int, kind: EstimatorKind, count: int, count_name: str) -> None:
    if B < 1:
        raise ArgumentError("B", f"must be >= 1, got {B}")
    require_budget(n_max, B, budget_is_bounded(kind), "n_max")
    if count < 1:
        raise ArgumentError(count_name, f"must be >= 1, got {count}")


def _per_sample(dist: DiscreteDistribution, B: int, count: int, rng: RngStream, key: int, evaluate):
    """``evaluate(rows, start)`` of ``count`` size-B samples, stacked along the
    sample axis: sample i is drawn from ``rng.child(key, i)``, each chunk's
    streams derived in one :meth:`RngStream.children` pass, about
    _SAMPLE_CHUNK_VALUES score values per call, and ``rows[k]`` is sample start+k."""
    per_chunk = max(1, _SAMPLE_CHUNK_VALUES // B)
    out = None
    for start in range(0, count, per_chunk):
        streams = rng.children(key, start, min(start + per_chunk, count))
        values = evaluate(draw_rows(dist, B, streams), start)
        if out is None:
            out = np.empty((count,) + values.shape[1:], values.dtype)
        out[start : start + len(values)] = values
    return out


def _tally(row_type, flags) -> tuple:
    """One (n, hits, samples, share, Clopper-Pearson) row per budget n = 1, 2, ...
    from that budget's per-sample hit flags."""
    rows = []
    for n, hit in enumerate(flags, 1):
        c = int(np.count_nonzero(hit))
        ci = clopper_pearson(c, hit.size, _PROPORTION_CI_CONFIDENCE)
        rows.append(row_type(n, c, hit.size, c / hit.size, ci))
    return tuple(rows)


def _run_ordered(worker, items, threads: int | None, progress: ProgressFn | None, label: str):
    """Map worker over items in order, on the calling thread; ``threads`` is only checked."""
    if threads is not None and threads < 1:
        raise ArgumentError("threads", f"must be >= 1, got {threads}")
    results = []
    for k, item in enumerate(items):
        results.append(worker(item))
        if progress is not None:
            progress(f"{label}: {k + 1}/{len(items)}")
    return results


def probe(
    dist: DiscreteDistribution,
    B: int,
    n_max: int,
    num_samples: int,
    kind: EstimatorKind,
    rng: RngStream,
    *,
    threads: int | None = None,
    dist_id: str = "",
    progress: ProgressFn | None = None,
) -> ProbeReport:
    """Proportion of samples whose estimate falls strictly below the truth.

    For each budget n in 1..n_max, draws ``num_samples`` independent size-B
    samples from ``dist``, sample i from ``rng.child(n, i)``, evaluates the
    estimator on each chunk of samples in one call of :func:`estimate_rows`,
    and counts strict underestimates against the exact expected maximum.
    Ties count as neither under- nor over-estimate. Each row carries a
    Clopper-Pearson 95% interval for the proportion.
    """
    _check_battery_args(B, n_max, kind, num_samples, "samples")
    truth = true_curve(dist, n_max)

    def run_budget(n: int) -> np.ndarray:
        return _per_sample(
            dist, B, num_samples, rng, n, lambda rows, _: estimate_rows(rows, kind, n) < truth[n - 1]
        )

    flags = _run_ordered(run_budget, range(1, n_max + 1), threads, progress, "probe")
    rows = _tally(ProbeRow, flags)
    return ProbeReport(rows=rows, B=B, kind=kind, dist_id=dist_id, seed=rng.seed, stream=rng.stream)


def coverage(
    dist: DiscreteDistribution,
    B: int,
    n_max: int,
    M: int,
    boot: BootstrapConfig,
    kind: EstimatorKind,
    rng: RngStream,
    *,
    threads: int | None = None,
    dist_id: str = "",
    progress: ProgressFn | None = None,
) -> CoverageReport:
    """Empirical coverage probability of percentile-bootstrap intervals.

    For each budget n, draws M size-B samples, builds a bootstrap CI around
    each sample's estimate, and records the fraction of intervals containing
    the exact expected maximum (closed intervals, endpoint hits count).
    Sample i of budget n draws from ``rng.child(n, i)`` and its bootstrap
    from ``boot.rng.child(n, i)``, one call per sample: its resamples alone
    already fill a bootstrap chunk, so stacking samples would gain nothing.
    """
    _check_battery_args(B, n_max, kind, M, "M")
    truth = true_curve(dist, n_max)

    def run_budget(n: int) -> np.ndarray:
        def covers(rows: np.ndarray, start: int) -> np.ndarray:
            streams = boot.rng.children(n, start, start + len(rows))
            return np.array([
                percentile_bootstrap_ci(ScoreSample(row), kind, n, replace(boot, rng=s)).contains(truth[n - 1])
                for row, s in zip(rows, streams)
            ])

        return _per_sample(dist, B, M, rng, n, covers)

    flags = _run_ordered(run_budget, range(1, n_max + 1), threads, progress, "coverage")
    return CoverageReport(
        rows=_tally(CoverageRow, flags),
        B=B,
        resamples=boot.resamples,
        nominal=boot.confidence,
        kind=kind,
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
    threads: int | None = None,
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
    _check_battery_args(B, B, kind, num_samples, "samples")
    budgets = tuple(range(1, B + 1))

    def run_model(item: tuple[int, str]) -> ModelCurves:
        m, name = item
        dist = dists[name]
        estimates = _per_sample(dist, B, num_samples, rng, m, lambda rows, _: curve_rows(rows, kind, B))
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

    items = list(enumerate(dists))
    models = tuple(_run_ordered(run_model, items, threads, progress, "curves"))
    return CurveReport(
        models=models,
        B=B,
        num_samples=num_samples,
        kind=kind,
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
