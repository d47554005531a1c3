"""Tests for the package namespace and the command's entry point.

No module of the package imports scipy or xml. ``import bestofn`` is lazy: it loads
nothing until a name is used, and each public name is the object its
submodule defines. The entry point (``bestofn.__main__.main``, behind the
``bestofn`` script and ``python -m bestofn``) asks OpenBLAS for one thread
unless the caller chose a count, and keeps the garbage collector off the
objects alive after the import and after the command; library imports never
touch the environment or the collector. The import and entry-point checks run
in fresh interpreters, since this one has loaded everything.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import bestofn
from bestofn.fixtures import fixture_path

SRC = str(Path(bestofn.__file__).resolve().parents[1])

# The public names as the package listed them when it imported every submodule eagerly.
PUBLIC_NAMES = [
    "ArgumentError", "BootstrapConfig", "BudgetTooLargeError", "BudgetTooSmallError",
    "CoverageReport", "CurvePoint", "CurveReport", "CurveSet", "DiscreteDistribution",
    "EmptySampleError", "EstimatorKind", "ExpectedMaxCurve", "Interval", "Inversion",
    "KDE_PRESETS", "KdeSpec", "ProbeReport", "ReportEnvelope", "RngStream", "RunsFileError",
    "ScoreSample", "clopper_pearson", "coverage", "curves", "draw_sample", "ecdf_pow",
    "emit_plot", "estimate", "exact_expected_max", "expected_max_curve", "failure_scan",
    "fit_kde", "ks_distance", "ks_lower_bound", "load_distribution", "make_envelope",
    "mc_expected_max", "meanmax_prefix", "meanmax_v", "percentile_bootstrap_ci",
    "percentile_bootstrap_curve", "probe", "read_report", "read_runs", "save_distribution",
    "scott_bandwidth", "true_curve", "unbiased_u", "write_report", "write_runs", "__version__",
]
SUBMODULES = ("distributions", "estimators", "experiments", "io_formats", "resampling")


def child_env(**overrides):
    """Environment of a child interpreter that imports the bestofn under test,
    without ``OPENBLAS_NUM_THREADS`` unless an override sets it."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    return {**env, **overrides}


def run_child(code, *args, **env):
    result = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                            env=child_env(**env))
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_public_names_are_their_submodules_objects():
    assert bestofn.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES[:-1]:
        module = importlib.import_module(f"bestofn.{bestofn._SOURCE[name]}")
        assert getattr(bestofn, name) is getattr(module, name)
    assert sorted(bestofn._EXPORTS) == list(SUBMODULES)
    for module in SUBMODULES:
        assert getattr(bestofn, module) is importlib.import_module(f"bestofn.{module}")
    assert bestofn.__version__ == "0.1.0"
    assert set(PUBLIC_NAMES) <= set(dir(bestofn))


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        bestofn.no_such_name  # noqa: B018
    assert not hasattr(bestofn, "cumweights")  # in a submodule, but not public


@pytest.mark.parametrize("banned", ["scipy", "xml"])
def test_no_module_imports(banned):
    # numpy is the package's only dependency: no module imports scipy, at
    # module level or inside a function. Charts are written as text, so none
    # imports xml either.
    modules = sorted(Path(SRC, "bestofn").rglob("*.py"))
    assert len(modules) > len(SUBMODULES)
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert all(name.split(".")[0] != banned for name in names), f"{path.name}:{node.lineno}"


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="3.12 splits an f-string into several tokens; the 4096-token step "
                           "was measured on 3.11")
def test_every_module_stays_under_the_parsers_4096_token_step():
    # CPython's parser steps up its memory when a module passes 4096 tokens, and
    # without a bytecode cache every command pays that at import: compile()'s
    # traced peak moved from 1.59 to 1.83 MB between 4095 and 4103 tokens of a
    # padded module. Comments, blank lines and the encoding marker are not tokens
    # the parser sees.
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    for path in sorted(Path(SRC, "bestofn").glob("*.py")):
        with path.open("rb") as fh:
            count = sum(1 for token in tokenize.tokenize(fh.readline) if token.type not in skipped)
        assert count <= 4095, f"{path.name} has {count} parser tokens"


IMPORT_SCRIPT = """
import gc, json, os, sys
environ = dict(os.environ)
import bestofn
package = sorted(m for m in sys.modules if m == "numpy" or m.startswith("bestofn."))
collector = [[gc.isenabled(), gc.get_freeze_count()]]
from bestofn import estimate
named = sorted(m for m in sys.modules if m.startswith("bestofn."))
import bestofn.cli
collector.append([gc.isenabled(), gc.get_freeze_count()])
print(json.dumps([package, named, "xml.etree" in sys.modules, dict(os.environ) == environ,
                  collector]))
"""


def test_imports_load_only_what_is_used_and_leave_the_environment_alone():
    package, named, xml_loaded, environ_kept, collector = run_child(IMPORT_SCRIPT)
    assert package == []  # neither numpy nor any submodule
    assert "bestofn.estimators" in named and "bestofn.experiments" not in named
    assert not xml_loaded  # no module loads xml.etree: charts are written as text
    assert environ_kept
    assert collector == [[True, 0], [True, 0]]  # after bestofn, then after bestofn.cli


# Runs a command the way ``python -m bestofn`` does, with nothing loaded first,
# then reports the BLAS setting the process ran with and its thread count.
ENTRY_SCRIPT = """
import json, os, runpy, sys
runs, out = sys.argv[1:]
sys.argv = ["bestofn", "ks-bound", "--runs", runs, "--cdf-at-max", "0.9", "-o", out]
try:
    runpy.run_module("bestofn", run_name="__main__")
except SystemExit as stop:
    code = stop.code
threads = len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None
print(json.dumps([code, os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""


@pytest.mark.parametrize("caller", [None, "2"])
def test_entry_point_runs_numpy_with_one_blas_thread_unless_the_caller_chose(tmp_path, caller):
    runs, out = tmp_path / "runs.csv", tmp_path / "ks.json"
    runs.write_text("score\n0.1\n0.5\n0.9\n")
    env = {} if caller is None else {"OPENBLAS_NUM_THREADS": caller}
    code, setting, threads = run_child(ENTRY_SCRIPT, str(runs), str(out), **env)
    assert code == 0
    assert json.loads(out.read_text())["payload"]["rows"]
    assert setting == (caller or "1")
    if caller is None and threads is not None:
        assert threads == 1  # no OpenBLAS worker next to the main thread


# Runs a command through the entry point, as ENTRY_SCRIPT does, after the caller
# left the collector on or switched it off, then reports the collector's state.
GC_SCRIPT = """
import gc, json, runpy, sys
if sys.argv[1] == "off":
    gc.disable()
sys.argv = ["bestofn", *sys.argv[2:]]
try:
    runpy.run_module("bestofn", run_name="__main__")
except SystemExit as stop:
    code = stop.code
print(json.dumps([code, gc.isenabled(), gc.get_freeze_count()]))
"""


@pytest.mark.parametrize("caller", ["on", "off"])
def test_entry_point_freezes_the_heap_and_keeps_the_callers_collector_setting(tmp_path, caller):
    runs, out = tmp_path / "runs.csv", tmp_path / "ks.json"
    runs.write_text("score\n0.1\n0.5\n0.9\n")
    code, enabled, frozen = run_child(GC_SCRIPT, caller, "ks-bound", "--runs", str(runs),
                                      "--cdf-at-max", "0.9", "-o", str(out))
    assert code == 0
    assert json.loads(out.read_text())["payload"]["rows"]
    assert enabled == (caller == "on")
    assert frozen > 0  # the import's objects and the command's survivors


# Runs a command the way ``python -m bestofn`` does, then lists the modules loaded.
MODULES_SCRIPT = """
import json, runpy, sys
sys.argv = ["bestofn", *sys.argv[1:]]
try:
    runpy.run_module("bestofn", run_name="__main__")
except SystemExit as stop:
    code = stop.code
print(json.dumps([code, sorted(sys.modules)]))
"""


def test_a_chart_through_the_entry_point_leaves_xml_unloaded(tmp_path):
    runs, svg = tmp_path / "runs.csv", tmp_path / "curve.svg"
    runs.write_text("score\n0.1\n0.5\n0.9\n")
    code, modules = run_child(MODULES_SCRIPT, "curve", "--runs", str(runs), "--ci", "--resamples", "50",
                              "--svg", str(svg), "-o", str(tmp_path / "curve.json"))
    assert code == 0
    assert svg.read_text(encoding="utf-8").endswith("</svg>\n")
    assert "xml.etree" not in modules


def test_importing_the_cli_loads_no_battery_distribution_bootstrap_or_chart_code():
    modules = run_child("import json, sys, bestofn.cli; "
                        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('bestofn.'))))")
    assert modules == ["bestofn._rng", "bestofn.cli", "bestofn.estimators", "bestofn.io_formats"]


# The submodules each command loads through the entry point, beyond the
# package itself: a command loads only the code it runs, the chart code
# (bestofn._charts) only with --svg.
COMMON = ["_rng", "cli", "estimators", "io_formats"]
BATTERY = sorted([*COMMON, "distributions", "experiments", "resampling"])
COMMAND_MODULES = [
    (["curve", "--runs", "RUNS"], sorted([*COMMON, "resampling"])),
    (["curve", "--runs", "RUNS", "--ci", "--resamples", "50"], sorted([*COMMON, "resampling"])),
    (["curve", "--runs", "RUNS", "--svg", "OUT.svg"], sorted([*COMMON, "_charts", "resampling"])),
    (["ks-bound", "--runs", "RUNS", "--cdf-at-max", "0.9"], COMMON),
    (["fit", "--runs", "RUNS"], sorted([*COMMON, "distributions"])),
    (["probe", "--dist", "DIST", "--B", "10", "--samples", "20"], BATTERY),
    (["coverage", "--dist", "DIST", "--B", "10", "--M", "5", "--resamples", "50"], BATTERY),
    (["curves-sim", "--dist", "DIST", "--B", "10", "--samples", "20"], BATTERY),
    (["failure-scan", "--report", "REPORT"], BATTERY),
]


@pytest.mark.parametrize("argv, loaded", COMMAND_MODULES, ids=[" ".join(a[:1] + a[3:]) for a, _ in COMMAND_MODULES])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, loaded):
    runs, report = tmp_path / "runs.csv", tmp_path / "sim.json"
    runs.write_text("score\n0.1\n0.5\n0.9\n")
    dist = str(fixture_path("probe-skewed"))
    from bestofn.cli import main

    assert main(["curves-sim", "--dist", f"a={dist}", "--dist", f"b={fixture_path('crossing-steady')}",
                 "--B", "5", "--samples", "5", "-o", str(report)]) == 0
    names = {"RUNS": str(runs), "DIST": dist, "REPORT": str(report), "OUT.svg": str(tmp_path / "out.svg")}
    code, modules = run_child(MODULES_SCRIPT, *[names.get(a, a) for a in argv], "-o", str(tmp_path / "out"))
    assert code == 0
    assert [m.removeprefix("bestofn.") for m in modules if m.startswith("bestofn.")] == loaded


# Runs a command through the entry point with the collector collecting after
# every few allocations, and lists the package's modules at each collection.
COLLECTIONS_SCRIPT = """
import gc, json, runpy, sys
seen = []
def record(phase, info):
    if phase == "start":
        seen.append(sorted(m for m in sys.modules if m.startswith("bestofn.")))
gc.set_threshold(50)
gc.callbacks.append(record)
sys.argv = ["bestofn", *sys.argv[1:]]
try:
    runpy.run_module("bestofn", run_name="__main__")
except SystemExit as stop:
    code = stop.code
gc.callbacks.remove(record)
print(json.dumps([code, seen, sorted(m for m in sys.modules if m.startswith("bestofn."))]))
"""


@pytest.mark.parametrize("argv", [
    ["probe", "--dist", str(fixture_path("probe-skewed")), "--B", "10", "--samples", "50"],
    ["curve", "--runs", "RUNS", "--ci", "--resamples", "50", "--svg", "OUT.svg"],
], ids=["probe", "curve-ci-svg"])
def test_a_commands_modules_load_while_the_collector_is_paused(tmp_path, argv):
    # A module imported after the pause would be imported among collections, and
    # some collection would see the CLI loaded without it.
    runs = tmp_path / "runs.csv"
    runs.write_text("score\n0.1\n0.5\n0.9\n")
    names = {"RUNS": str(runs), "OUT.svg": str(tmp_path / "out.svg")}
    code, seen, loaded = run_child(COLLECTIONS_SCRIPT, *[names.get(a, a) for a in argv],
                                   "-o", str(tmp_path / "out.json"))
    assert code == 0
    during_command = [modules for modules in seen if "bestofn.cli" in modules]
    assert during_command  # the command collected
    assert all(modules == loaded for modules in during_command)
    assert all(modules == [] for modules in seen if "bestofn.cli" not in modules)


# Replaces names of bestofn.cli before any command has bound them, as
# perfbench/tracer.py does, and runs a command that calls them.
PATCH_SCRIPT = """
import json, sys
import bestofn.cli as cli
calls = []
cli.emit_plot = lambda envelope, path: calls.append("emit_plot")
real = cli.load_distribution
cli.load_distribution = lambda path: calls.append("load_distribution") or real(path)
code = cli.main(sys.argv[1:])
print(json.dumps([code, calls]))
"""


def test_a_name_patched_on_the_cli_before_its_module_loads_is_the_one_the_command_calls(tmp_path):
    svg = tmp_path / "probe.svg"
    code, calls = run_child(PATCH_SCRIPT, "probe", "--dist", str(fixture_path("probe-skewed")), "--B", "10",
                            "--samples", "20", "--svg", str(svg), "-o", str(tmp_path / "probe.json"))
    assert code == 0
    assert calls == ["load_distribution", "emit_plot"]
    assert not svg.exists()


CLI_SCRIPT = "import sys; from bestofn.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("args", [
    ["probe", "--dist", str(fixture_path("probe-skewed")), "--B", "20", "--n-max", "10",
     "--samples", "200"],
    ["curves-sim", "--dist", f"steady={fixture_path('crossing-steady')}",
     "--dist", f"volatile={fixture_path('crossing-volatile')}", "--B", "25", "--samples", "200"],
], ids=["probe", "curves-sim"])
def test_entry_point_reports_equal_the_cli_functions_byte_for_byte(tmp_path, args):
    # The entry point changes how the process runs (one BLAS thread, a frozen
    # heap), never what it computes: its report equals that of bestofn.cli.main
    # called with the default collector and BLAS threads, ``created`` aside.
    reports = []
    for how, launch in (("entry", ["-m", "bestofn"]), ("cli", ["-c", CLI_SCRIPT])):
        out = tmp_path / f"{how}.json"
        result = subprocess.run([sys.executable, *launch, *args, "-o", str(out)],
                                capture_output=True, text=True, env=child_env())
        assert result.returncode == 0, result.stderr
        text, stamps = re.subn(rb'"created":"[^"]*"', b'"created":""', out.read_bytes())
        assert stamps == 1
        reports.append(text)
    assert reports[0] == reports[1]
