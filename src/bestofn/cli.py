"""Command-line interface wiring ingestion, estimation, and simulations.

Exit codes: 0 success, 1 data error (missing or malformed input, impossible
fit), 2 usage error (bad flag value or flag combination). Each flag is
checked once, by the library function it reaches: an out-of-range value
raises :class:`~bestofn.estimators.ArgumentError`, which names the argument
as its flag spells it, and ``main`` reports it as ``--flag detail`` with
exit 2. Most flags are therefore checked after the input files are read,
so a missing or malformed input is reported first: ``probe`` with a
missing ``--dist`` file and ``--B 0`` exits 1. ``curve`` checks its
bootstrap flags before reading the runs, and ``--n-max`` once, for the
strictest estimator requested, before computing any curve. failure-scan's
model names are checked by ``experiments.failure_scan``. Once its flags are
checked, and before any truth, draw, bootstrap or kernel, each command but fit
and failure-scan reserves 1 KiB of address space a report row; a refusal exits
2 naming ``--n-max`` (``--B`` in curves-sim). Under ``vm.overcommit_memory=1`` only
sizes past the address space are refused. ``fit`` passes on only the flags given,
over the preset or ``KdeSpec()``: ``fit_kde`` owns every default, and its
data errors are prefixed with the runs file. Paths are checked before
anything runs: no file a command writes (``-o``, ``--svg`` and the chart's
``.csv`` sidecar) may be one it reads (``--runs``, each ``--dist``,
``--report``) or another it writes, and each must go to a directory that
exists. Both refusals exit 2 naming the flag before any input is read.

The root seed defaults to the fixed constant 1729 so bare invocations are
reproducible. A report's ``config`` is its command line: every flag that
can change a payload byte, as parsed and keyed by its argparse dest, with
the defaults the command resolved (``n_max``, curve's ``estimator`` list,
failure-scan's model names). ``-o``, ``--format``, ``--svg`` and
``--threads`` are left out. It replays as ``bestofn <command>`` followed by
``--<key with _ spelled -> <value>`` per key: a list repeats its flag,
``true`` is a bare flag, and ``null`` and ``false`` are omitted. The
replayed payload is byte-identical. Progress lines go to standard error
only; standard output carries the report when ``-o`` is omitted.

Randomness layout ``philox4x64-splitmix64/2``, named with the python and numpy
versions in every report's ``provenance`` block: sample draws use stream
0 of the root seed and bootstrap resampling uses stream 1, so adding CIs never
disturbs the simulated samples. probe and coverage draw sample i once, from
child (0, i) of stream 0, and read every budget off it; coverage bootstraps it
once, from child (0, i) of stream 1. Their rows are therefore positively
correlated across n, and each row's Clopper-Pearson interval is still exact.
curves-sim draws sample i of its m-th model from child (m, i). ``curve --ci``
draws one resample matrix per estimator kind e, from
``RngStream(seed, 1).child(e)``, and reads every budget's interval off it, so
the intervals of one curve share their resamples. e is fixed per kind
(unbiased 0, meanmax 1, meanmax-prefix 2), so a curve's CIs do not depend on
which other estimators are requested or in what order.
Every battery runs on the calling thread. ``--threads`` is still accepted
and checked (K >= 1, after the input files are read), but changes nothing.

Each command imports only the code it runs. This module imports the
estimators and the report formats; the batteries, the distributions, the
bootstrap and the chart code are bound here from their modules when a command
that runs them starts (``_COMMAND_MODULES``; the charts with ``--svg``), or on
first use of the name, so ``curve`` and ``ks-bound`` never load the batteries
or the distributions. ``bestofn.__main__`` calls :func:`_preload` to load them
while its collector is paused.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from ._rng import RngStream
from .estimators import (
    ArgumentError,
    CurveSet,
    EstimatorKind,
    KsBoundReport,
    KsBoundRow,
    _REPORT_ROW_BYTES,
    budget_is_bounded,
    expected_max_curve,
    ks_lower_bound,
    require_budget,
    reserve,
)
from .io_formats import make_envelope, read_report, read_runs, report_pieces, write_report
from .io_formats import report_csv_text, report_json_text  # noqa: F401  (perfbench/tracer.py wraps them here)

DEFAULT_SEED = 1729

# Names of modules that some commands never run, each "module.name": cli binds one
# in its globals on first use (PEP 562), or with the rest of its module when a
# command that runs the module starts, and never over a name already bound, so a
# name patched here (perfbench/tracer.py, tests) is the one the commands call.
_LAZY = {
    "KDE_PRESETS": "distributions.KDE_PRESETS",
    "KdeSpec": "distributions.KdeSpec",
    "canonical_json": "distributions.canonical_json",
    "fit_kde": "distributions.fit_kde",
    "load_distribution": "distributions.load_distribution",
    "save_distribution": "distributions.save_distribution",
    "FailureScanReport": "experiments.FailureScanReport",
    "run_coverage": "experiments.coverage",
    "run_curves": "experiments.curves",
    "run_failure_scan": "experiments.failure_scan",
    "run_probe": "experiments.probe",
    "BootstrapConfig": "resampling.BootstrapConfig",
    "percentile_bootstrap_ci": "resampling.percentile_bootstrap_ci",  # perfbench/tracer.py wraps it here
    "percentile_bootstrap_curve": "resampling.percentile_bootstrap_curve",
    "emit_plot": "_charts.emit_plot",
}

# The modules of _LAZY each command runs; ``--svg`` adds the chart code. curve
# checks --resamples and --confidence through BootstrapConfig, with or without --ci.
_COMMAND_MODULES = {
    "curve": ("resampling",),
    "fit": ("distributions",),
    "probe": ("distributions", "experiments"),
    "coverage": ("distributions", "experiments", "resampling"),
    "curves-sim": ("distributions", "experiments"),
    "failure-scan": ("experiments",),
    "ks-bound": (),
}


def _bind(modules) -> None:
    """Bind every name of ``_LAZY`` from ``modules`` that is not bound yet."""
    for name, where in _LAZY.items():
        module, attr = where.split(".")
        if module in modules and name not in globals():
            # __import__, unlike importlib.import_module, is logged by -X importtime.
            globals()[name] = getattr(__import__(f"{__package__}.{module}", fromlist=[attr]), attr)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_LAZY[name].split(".")[:1])
    return globals()[name]


def _modules(command: str | None, svg: bool) -> tuple[str, ...]:
    return _COMMAND_MODULES.get(command, ()) + (("_charts",) if svg else ())


def _preload(argv: Sequence[str]) -> None:
    """Import the modules that the command ``argv`` names runs, so that the entry
    point loads them while its collector is paused. A flag spelled in a way this
    does not see (``--sv`` for ``--svg``) only defers the import to the command."""
    svg = any(arg.split("=", 1)[0] == "--svg" for arg in argv)
    _bind(_modules(argv[0] if argv else None, svg))


_ESTIMATOR_CHOICES = tuple(str(kind) for kind in EstimatorKind)

# Flags that change no payload byte, so no report's config names them.
_NOT_CONFIG = frozenset({"func", "output", "format", "svg", "threads"})

# The bootstrap child stream of each estimator kind under ``curve --ci``.
_CI_STREAMS = {EstimatorKind.UNBIASED_U: 0, EstimatorKind.MEANMAX_V: 1, EstimatorKind.MEANMAX_PREFIX: 2}


class _PresetNames:
    """``fit --preset``'s choices, the sorted names of ``KDE_PRESETS``: argparse
    reads them, and so loads distributions, only for fit's help and ``--preset``."""

    def __iter__(self):
        _bind(("distributions",))
        return iter(sorted(KDE_PRESETS))


def _bandwidth_flag(raw: str) -> float | str:
    """A number, or a rule name left for KdeSpec to check."""
    try:
        return float(raw)
    except ValueError:
        return raw


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _parse_dist_flag(raw: str) -> tuple[str, str]:
    """Split NAME=PATH; a bare path is named after its file stem."""
    if "=" in raw:
        name, path = raw.split("=", 1)
        if not name or not path:
            raise ArgumentError("dist", f"expects NAME=PATH or a bare path, got {raw!r}")
        return name, path
    stem = os.path.splitext(os.path.basename(raw))[0]
    return stem, raw


def _dist_flags(args) -> list[str]:
    """Each ``--dist`` as given: probe and coverage take one, curves-sim a list."""
    dists = getattr(args, "dist", None) or []
    return [dists] if isinstance(dists, str) else dists


def _check_paths(args) -> None:
    """No file the command writes (``-o``, ``--svg`` and its ``.csv`` sidecar) may be
    a file it reads (``--runs``, each ``--dist``, ``--report``) or another it writes,
    or lie in a directory that does not exist."""
    reads = [("runs", getattr(args, "runs", None)), ("report", getattr(args, "report", None))]
    reads += [("dist", _parse_dist_flag(raw)[1]) for raw in _dist_flags(args)]
    svg = getattr(args, "svg", None)
    writes = [("output", args.output, repr(args.output)), ("svg", svg, repr(svg))]
    if svg:
        sidecar = str(Path(svg).with_suffix(".csv"))
        writes.append(("svg", sidecar, f"{svg!r} (its sidecar {sidecar!r})"))
    taken = {Path(path).resolve(): f"--{flag} {path!r}" for flag, path in reads if path}
    for flag, path, what in writes:
        if path is None:
            continue
        resolved = Path(path).resolve()
        if not resolved.parent.is_dir():
            raise ArgumentError(flag, f"{what}: no directory {os.path.dirname(path)!r}")
        if resolved in taken:
            raise ArgumentError(flag, f"{what} would overwrite {taken[resolved]}")
        taken[resolved] = f"--{flag} {what}"


def _battery_inputs(args) -> tuple[dict, EstimatorKind, RngStream]:
    """A battery's distributions by name, its estimator kind and its root stream. Every
    ``--dist`` is parsed before any is loaded, and ``--threads`` is checked after, so a
    missing input is reported before a bad thread count."""
    named: dict[str, str] = {}
    for raw in _dist_flags(args):
        name, path = _parse_dist_flag(raw)
        if name in named:
            raise ArgumentError("dist", f"name {name!r} given twice; disambiguate with NAME=PATH")
        named[name] = path
    dists = {name: load_distribution(path) for name, path in named.items()}
    if args.threads < 1:
        raise ArgumentError("threads", f"must be >= 1, got {args.threads}")
    return dists, EstimatorKind(args.estimator), RngStream(args.seed)


def _deliver(args, payload, **resolved) -> int:
    """Write ``payload`` as the command's report. Its config is every payload-relevant flag
    as parsed, keyed by its dest, updated with the values the command resolved (a default
    it filled in, a name it parsed)."""
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    envelope = make_envelope(payload, {**config, **resolved})
    if args.output is not None:
        write_report(envelope, args.output, args.format)
    else:
        sys.stdout.writelines(report_pieces(envelope, args.format))
    if getattr(args, "svg", None):
        emit_plot(envelope, args.svg)
    return 0


def _add_report_flags(p: argparse.ArgumentParser, svg: bool = True) -> None:
    p.add_argument("-o", "--output", metavar="PATH", default=None,
                   help="write the report to PATH (default: standard output)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="report format (default: json)")
    if svg:
        p.add_argument("--svg", metavar="PATH", default=None,
                       help="also write an SVG chart with a sidecar CSV (default: no chart)")


def _add_seed_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="root seed for all randomness, taken mod 2^64: seeds 2^64 apart draw "
                        f"the same values, and the report echoes the seed as given (default: {DEFAULT_SEED})")


def _add_battery_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--estimator", choices=_ESTIMATOR_CHOICES, default="meanmax",
                   help="estimator kind (default: meanmax)")
    _add_seed_flag(p)
    p.add_argument("--threads", type=int, default=1, metavar="K",
                   help="accepted for compatibility and checked (K >= 1), but ignored: "
                        "batteries run on one thread (default: 1)")
    _add_report_flags(p)


def cmd_curve(args) -> int:
    kinds = list(dict.fromkeys(map(EstimatorKind, args.estimator or ["unbiased"])))  # first-seen order
    boots = {k: BootstrapConfig(RngStream(args.seed, 1).child(_CI_STREAMS[k]), args.resamples,
                                args.confidence) for k in kinds}

    sample = read_runs(args.runs)
    n_max = args.n_max if args.n_max is not None else sample.size
    require_budget(n_max, sample.size, any(map(budget_is_bounded, kinds)), "n_max")  # before any curve
    reserve(len(kinds) * n_max * _REPORT_ROW_BYTES, "n_max", n_max, "the report")
    if n_max > sample.size:
        print(
            f"bestofn: warning: --n-max {n_max} extrapolates past the sample size "
            f"{sample.size}; meanmax estimates saturate at the sample maximum",
            file=sys.stderr,
        )

    curves = []
    for kind in kinds:
        ci = percentile_bootstrap_curve(sample, kind, n_max, boots[kind]) if args.ci else None
        curves.append(expected_max_curve(sample, kind, n_max, ci))

    return _deliver(args, CurveSet(tuple(curves)), estimator=[str(k) for k in kinds], n_max=n_max)


def cmd_fit(args) -> int:
    sample = read_runs(args.runs)
    given = {f: getattr(args, f) for f in ("bandwidth", "support_lo", "support_hi", "bins")
             if getattr(args, f) is not None}
    spec = replace(KDE_PRESETS[args.preset] if args.preset else KdeSpec(), **given)
    try:
        dist = fit_kde(sample, spec)
    except ArgumentError:
        raise
    except ValueError as err:
        raise ValueError(f"{args.runs}: {err}") from None
    if args.output is not None:
        save_distribution(dist, args.output)
    else:
        sys.stdout.write(canonical_json(dist.to_dict()))
    return 0


def cmd_probe(args) -> int:
    dists, kind, rng = _battery_inputs(args)
    n_max = args.n_max if args.n_max is not None else args.B
    [(dist_id, dist)] = dists.items()
    report = run_probe(dist, args.B, n_max, args.samples, kind, rng, dist_id=dist_id, progress=_progress)
    return _deliver(args, report, n_max=n_max)


def cmd_coverage(args) -> int:
    dists, kind, rng = _battery_inputs(args)
    n_max = args.n_max if args.n_max is not None else min(20, args.B)
    [(dist_id, dist)] = dists.items()
    boot = BootstrapConfig(
        rng=RngStream(args.seed, 1), resamples=args.resamples, confidence=args.confidence
    )
    report = run_coverage(dist, args.B, n_max, args.M, boot, kind, rng, dist_id=dist_id, progress=_progress)
    return _deliver(args, report, n_max=n_max)


def cmd_curves_sim(args) -> int:
    dists, kind, rng = _battery_inputs(args)
    return _deliver(args, run_curves(dists, args.B, args.samples, kind, rng, progress=_progress))


def cmd_failure_scan(args) -> int:
    envelope = read_report(args.report)
    if envelope.payload_kind != "curves":
        raise ArgumentError(
            "report", f"must point to a curves-sim JSON report, got {envelope.payload_kind!r}"
        )
    report = envelope.payload
    names = [m.name for m in report.models]
    if args.model_a is None and args.model_b is None and len(names) == 2:
        model_a, model_b = names
    elif args.model_a is not None and args.model_b is not None:
        model_a, model_b = args.model_a, args.model_b
    else:
        raise ArgumentError(
            "model_a", f"and --model-b are both needed: the report has models {', '.join(names)}"
        )

    payload = FailureScanReport(
        model_a=model_a,
        model_b=model_b,
        B=report.B,
        estimator=report.estimator,
        inversions=tuple(run_failure_scan(report, model_a, model_b)),
    )
    return _deliver(args, payload, model_a=model_a, model_b=model_b)


def cmd_ks_bound(args) -> int:
    sample = read_runs(args.runs)
    require_budget(args.n_max, sample.size, bounded=False, name="n_max")
    reserve(args.n_max * _REPORT_ROW_BYTES, "n_max", args.n_max, "the report")
    rows = tuple(
        KsBoundRow(n=n, bound=ks_lower_bound(sample, args.cdf_at_max, n))
        for n in range(1, args.n_max + 1)
    )
    payload = KsBoundReport(cdf_at_max=args.cdf_at_max, B=sample.size, rows=rows)
    return _deliver(args, payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bestofn",
        description="Expected-maximum-at-budget curves, estimator diagnostics, "
                    "and simulation batteries for hyperparameter search reporting.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("curve", help="estimate an expected-max curve from a runs file")
    p.add_argument("--runs", required=True, metavar="CSV",
                   help="runs file with a score column and optional run_id column")
    p.add_argument("--estimator", action="append", choices=_ESTIMATOR_CHOICES, metavar="KIND",
                   help="estimator kind, repeatable: meanmax, meanmax-prefix, or unbiased "
                        "(default: unbiased)")
    p.add_argument("--n-max", type=int, default=None,
                   help="largest budget n (default: the number of scores B)")
    p.add_argument("--ci", action="store_true",
                   help="attach percentile-bootstrap CIs to every point (default: off)")
    p.add_argument("--resamples", type=int, default=1000,
                   help="bootstrap resamples per estimator when --ci is set (default: 1000)")
    p.add_argument("--confidence", type=float, default=0.95,
                   help="bootstrap CI confidence level (default: 0.95)")
    _add_seed_flag(p)
    _add_report_flags(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("fit", help="fit a discretized Gaussian KDE to a runs file")
    p.add_argument("--runs", required=True, metavar="CSV",
                   help="runs file with a score column")
    # Set after add_argument, whose metavar check would read them at once.
    p.add_argument("--preset", default=None,
                   help="published KDE bandwidth, support, and bins; a flag that is given "
                        "overrides the preset's value (default: none)").choices = _PresetNames()
    p.add_argument("--bandwidth", type=_bandwidth_flag, default=None, metavar="H",
                   help="kernel bandwidth, a positive number or 'scott' (default: scott)")
    p.add_argument("--support-lo", type=float, default=None, metavar="X",
                   help="support lower edge (default: min score minus 3 bandwidths)")
    p.add_argument("--support-hi", type=float, default=None, metavar="X",
                   help="support upper edge (default: max score plus 3 bandwidths)")
    p.add_argument("--bins", type=int, default=None,
                   help="number of equal-width bins (default: 511)")
    p.add_argument("-o", "--output", metavar="PATH", default=None,
                   help="write the distribution JSON to PATH (default: standard output)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("probe", help="false-conclusion probing: underestimate proportions per n")
    p.add_argument("--dist", required=True, metavar="[NAME=]PATH",
                   help="ground-truth distribution JSON")
    p.add_argument("--B", type=int, default=50, help="size of each simulated sample (default: 50)")
    p.add_argument("--n-max", type=int, default=None, help="largest budget n (default: B)")
    p.add_argument("--samples", type=int, default=1000,
                   help="simulated samples, shared by all n (default: 1000)")
    _add_battery_flags(p)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("coverage", help="bootstrap CI coverage probabilities per n")
    p.add_argument("--dist", required=True, metavar="[NAME=]PATH",
                   help="ground-truth distribution JSON")
    p.add_argument("--B", type=int, default=50, help="size of each simulated sample (default: 50)")
    p.add_argument("--n-max", type=int, default=None,
                   help="largest budget n (default: 20, capped at B)")
    p.add_argument("--M", type=int, default=300,
                   help="simulated samples, shared by all n (default: 300)")
    p.add_argument("--resamples", type=int, default=1000,
                   help="bootstrap resamples per CI (default: 1000)")
    p.add_argument("--confidence", type=float, default=0.95,
                   help="nominal CI level under test (default: 0.95)")
    _add_battery_flags(p)
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("curves-sim", help="averaged estimated curves vs. true curves per model")
    p.add_argument("--dist", action="append", required=True, metavar="[NAME=]PATH",
                   help="ground-truth distribution JSON, repeatable; bare paths are "
                        "named after the file stem")
    p.add_argument("--B", type=int, default=50, help="size of each simulated sample (default: 50)")
    p.add_argument("--samples", type=int, default=1000,
                   help="simulated samples averaged per model (default: 1000)")
    _add_battery_flags(p)
    p.set_defaults(func=cmd_curves_sim)

    p = sub.add_parser("failure-scan", help="budgets where averaged estimates invert the true leader")
    p.add_argument("--report", required=True, metavar="JSON",
                   help="curves-sim JSON report to scan")
    p.add_argument("--model-a", default=None, metavar="NAME",
                   help="first model (default: taken from a two-model report)")
    p.add_argument("--model-b", default=None, metavar="NAME",
                   help="second model (default: taken from a two-model report)")
    _add_report_flags(p, svg=False)
    p.set_defaults(func=cmd_failure_scan)

    p = sub.add_parser("ks-bound", help="lower bound on the KS error of the powered ECDF")
    p.add_argument("--runs", required=True, metavar="CSV",
                   help="runs file the bound is about")
    p.add_argument("--cdf-at-max", type=float, required=True, metavar="F",
                   help="true CDF value at the largest observed score, in [0, 1]")
    p.add_argument("--n-max", type=int, default=10, help="largest power n (default: 10)")
    _add_report_flags(p)
    p.set_defaults(func=cmd_ks_bound)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        _check_paths(args)
        _bind(_modules(args.command, bool(getattr(args, "svg", None))))
        return args.func(args)
    except ArgumentError as err:
        print(f"bestofn: error: --{err.name.replace('_', '-')} {err.detail}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, ArithmeticError) as err:
        print(f"bestofn: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
