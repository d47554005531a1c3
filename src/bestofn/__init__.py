"""Estimators and simulation batteries for expected-best-of-n score curves.

Given B scores from a hyperparameter search, this package estimates the
expected maximum score a search with budget n would find, exposes both the
classical plug-in estimator and its unbiased replacement, and ships the
simulation machinery (ground-truth distributions, bootstrap CIs, probing
and coverage batteries) used to quantify how badly the plug-in misleads.

The namespace is lazy (PEP 562): ``import bestofn`` loads neither numpy nor
any submodule. A public name, or one of the submodules in ``_EXPORTS``,
imports its submodule on first use and is cached here. Importing the package
has no other effect; only the command's entry point (``bestofn.__main__``)
sets anything in the environment.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "distributions": (
        "DiscreteDistribution", "KDE_PRESETS", "KdeSpec", "RngStream", "draw_sample",
        "exact_expected_max", "fit_kde", "load_distribution", "mc_expected_max",
        "save_distribution", "scott_bandwidth", "true_curve",
    ),
    "estimators": (
        "ArgumentError", "BudgetTooLargeError", "BudgetTooSmallError", "CurvePoint", "CurveSet",
        "EmptySampleError", "EstimatorKind", "ExpectedMaxCurve", "Interval", "ScoreSample",
        "ecdf_pow", "estimate", "expected_max_curve", "ks_distance", "ks_lower_bound",
        "meanmax_prefix", "meanmax_v", "unbiased_u",
    ),
    "experiments": (
        "CoverageReport", "CurveReport", "Inversion", "ProbeReport", "coverage", "curves",
        "failure_scan", "probe",
    ),
    "io_formats": (
        "ReportEnvelope", "RunsFileError", "emit_plot", "make_envelope", "read_report",
        "read_runs", "write_report", "write_runs",
    ),
    "resampling": (
        "BootstrapConfig", "clopper_pearson", "percentile_bootstrap_ci",
        "percentile_bootstrap_curve",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_SOURCE), "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
