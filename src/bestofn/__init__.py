"""Estimators and simulation batteries for expected-best-of-n score curves.

Given B scores from a hyperparameter search, this package estimates the
expected maximum score a search with budget n would find, exposes both the
classical plug-in estimator and its unbiased replacement, and ships the
simulation machinery (ground-truth distributions, bootstrap CIs, probing
and coverage batteries) used to quantify how badly the plug-in misleads.
"""

from .distributions import (
    DiscreteDistribution,
    KDE_PRESETS,
    KdeSpec,
    RngStream,
    draw_sample,
    exact_expected_max,
    fit_kde,
    load_distribution,
    mc_expected_max,
    save_distribution,
    scott_bandwidth,
    true_curve,
)
from .estimators import (
    ArgumentError,
    BudgetTooLargeError,
    BudgetTooSmallError,
    CurvePoint,
    EmptySampleError,
    EstimatorKind,
    ExpectedMaxCurve,
    ScoreSample,
    ecdf_pow,
    estimate,
    expected_max_curve,
    ks_distance,
    ks_lower_bound,
    meanmax_prefix,
    meanmax_v,
    unbiased_u,
)
from .experiments import (
    CoverageReport,
    CurveReport,
    Inversion,
    ProbeReport,
    coverage,
    curves,
    failure_scan,
    probe,
)
from .io_formats import (
    ReportEnvelope,
    RunsFileError,
    emit_plot,
    make_envelope,
    read_report,
    read_runs,
    write_report,
    write_runs,
)
from .resampling import (
    BootstrapConfig,
    Interval,
    clopper_pearson,
    percentile,
    percentile_bootstrap_ci,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "BootstrapConfig",
    "BudgetTooLargeError",
    "BudgetTooSmallError",
    "CoverageReport",
    "CurvePoint",
    "CurveReport",
    "DiscreteDistribution",
    "EmptySampleError",
    "EstimatorKind",
    "ExpectedMaxCurve",
    "Interval",
    "Inversion",
    "KDE_PRESETS",
    "KdeSpec",
    "ProbeReport",
    "ReportEnvelope",
    "RngStream",
    "RunsFileError",
    "ScoreSample",
    "clopper_pearson",
    "coverage",
    "curves",
    "draw_sample",
    "ecdf_pow",
    "emit_plot",
    "estimate",
    "exact_expected_max",
    "expected_max_curve",
    "failure_scan",
    "fit_kde",
    "ks_distance",
    "ks_lower_bound",
    "load_distribution",
    "make_envelope",
    "mc_expected_max",
    "meanmax_prefix",
    "meanmax_v",
    "percentile",
    "percentile_bootstrap_ci",
    "probe",
    "read_report",
    "read_runs",
    "save_distribution",
    "scott_bandwidth",
    "true_curve",
    "unbiased_u",
    "write_report",
    "write_runs",
    "__version__",
]
