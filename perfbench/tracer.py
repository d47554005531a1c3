"""Span tracer for one bestofn command, run in-process by the benchmark.

Usage (as a child process, with the package importable):

    python perfbench/tracer.py [--memory] OUT.json -- curve --runs scores.csv ...

The tracer imports ``bestofn.cli``, replaces the functions listed in
``WRAPS`` with span-recording wrappers, calls ``bestofn.cli.main`` with the
remaining arguments inside a ``cli.main`` span and writes a JSON summary to
OUT.json. The exit status is the command's. ``--memory`` also records the
tracemalloc peak inside the first curve calls; tracemalloc slows every
allocation, so the times of such a run are not used.

Each name is wrapped where the calling module imported it (for example
``bestofn.experiments.draw_sample``), because ``from .x import f`` binds a
second reference that patching ``bestofn.x.f`` would miss. Methods are
wrapped on their class. A name a later version no longer has is skipped
and listed under ``unwrapped``, so the tracer keeps working across
refactors.

Every span keeps its name, start, end, thread id and parent span. Parents
come from a per-thread stack: worker threads start their own stacks, so a
span on one thread never subtracts time from a span on another. In a
threaded battery the main thread's ``experiments.battery`` self time is
its wait for the workers, whose spans run on their own threads.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

# CLOCK_MONOTONIC on Linux: system-wide, so the parent process can place the
# child's timestamps on its own time line.
clock = time.perf_counter

# (module, attribute path, span name). The first part of a span name is the
# layer it is charged to.
WRAPS = (
    ("bestofn.cli", "read_runs", "io_formats.read_runs"),
    ("bestofn.cli", "read_report", "io_formats.read_report"),
    ("bestofn.cli", "make_envelope", "io_formats.make_envelope"),
    ("bestofn.cli", "write_report", "io_formats.encode"),
    ("bestofn.cli", "report_json_text", "io_formats.encode"),
    ("bestofn.cli", "report_csv_text", "io_formats.encode"),
    ("bestofn.cli", "emit_plot", "io_formats.encode"),
    ("bestofn.cli", "load_distribution", "distributions.load_distribution"),
    ("bestofn.distributions", "RngStream.generator", "distributions.rng_generator"),
    ("bestofn.distributions", "RngStream.child", "distributions.rng_child"),
    ("bestofn.experiments", "draw_sample", "distributions.draw_sample"),
    ("bestofn.experiments", "true_curve", "distributions.true_curve"),
    ("bestofn.experiments", "estimate", "estimators.estimate"),
    ("bestofn.resampling", "estimate", "estimators.estimate"),
    ("bestofn.cli", "expected_max_curve", "estimators.expected_max_curve"),
    ("bestofn.experiments", "expected_max_curve", "estimators.expected_max_curve"),
    ("bestofn.cli", "percentile_bootstrap_ci", "resampling.bootstrap_ci"),
    ("bestofn.experiments", "percentile_bootstrap_ci", "resampling.bootstrap_ci"),
    ("bestofn.experiments", "clopper_pearson", "resampling.clopper_pearson"),
    ("bestofn.cli", "run_probe", "experiments.battery"),
    ("bestofn.cli", "run_coverage", "experiments.battery"),
    ("bestofn.cli", "run_curves", "experiments.battery"),
    ("bestofn.cli", "run_failure_scan", "experiments.battery"),
)

# The battery's per-item worker is a closure handed to this function; the
# wrapper turns every worker call into an ``experiments.worker`` span.
WORKER_RUNNER = ("bestofn.experiments", "_run_ordered")

SPAN_NAMES = (
    "cli.main",
    "io_formats.read_runs",
    "io_formats.read_report",
    "io_formats.make_envelope",
    "io_formats.encode",
    "distributions.load_distribution",
    "distributions.rng_generator",
    "distributions.rng_child",
    "distributions.draw_sample",
    "distributions.true_curve",
    "estimators.estimate",
    "estimators.expected_max_curve",
    "resampling.bootstrap_ci",
    "resampling.clopper_pearson",
    "experiments.battery",
    "experiments.worker",
)
LAYERS = ("cli", "io_formats", "distributions", "estimators", "resampling", "experiments")

# Calls of one command share their shapes, so a few calls show the peak.
CURVE_MEMORY_CALLS = 8


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _positions(fn) -> dict[str, int]:
    try:
        return {p: i for i, p in enumerate(inspect.signature(fn).parameters)}
    except (TypeError, ValueError):
        return {}


class Tracer:
    """Records spans and counters for wrapped calls, from any thread."""

    def __init__(self, measure_memory: bool = False):
        self.measure_memory = measure_memory
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._memory_calls = 0
        self.spans: list[tuple] = []  # (id, parent id or 0, name, thread, start, end, failed)
        self.counters: dict[str, int] = defaultdict(int)
        self.battery_threads: list[int] = []
        self.unwrapped: list[str] = []
        self.extract_errors: list[str] = []

    def call(self, name: str, fn, args=(), kwargs=None):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        failed = True
        start = clock()
        try:
            result = fn(*args, **(kwargs or {}))
            failed = False
            return result
        finally:
            end = clock()
            stack.pop()
            self.spans.append((sid, parent, name, threading.get_ident(), start, end, failed))

    def count(self, key: str, value: int) -> None:
        with self._lock:
            self.counters[key] += value

    def wrap(self, name: str, fn):
        """Span-recording replacement for fn, with the counters its layer needs."""
        extract = self._extractor(name, fn)
        target = fn
        if self.measure_memory and name == "estimators.expected_max_curve":
            target = functools.partial(self._measure_memory, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if extract is not None:
                try:
                    extract(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError) as err:
                    self.extract_errors.append(f"{name}: {err!r}")
            return self.call(name, target, args, kwargs)

        return wrapper

    def _extractor(self, name: str, fn):
        pos = _positions(fn)
        if name == "distributions.draw_sample":
            def extract(args, kwargs):
                self.count("values_drawn", _arg(args, kwargs, pos["count"], "count"))
        elif name == "estimators.expected_max_curve":
            def extract(args, kwargs):
                size = _arg(args, kwargs, pos["sample"], "sample").size
                n_max = _arg(args, kwargs, pos["n_max"], "n_max")
                self.count("cumweight_bytes", n_max * (size - 1) * 8)
        elif name == "resampling.bootstrap_ci":
            def extract(args, kwargs):
                size = _arg(args, kwargs, pos["sample"], "sample").size
                resamples = _arg(args, kwargs, pos["config"], "config").resamples
                self.count("values_resampled", size * resamples)
        elif name == "experiments.battery":
            def extract(args, kwargs):
                if "num_samples" in pos:
                    per_budget = _arg(args, kwargs, pos["num_samples"], "num_samples")
                elif "M" in pos:
                    per_budget = _arg(args, kwargs, pos["M"], "M")
                else:
                    return  # failure_scan simulates nothing
                if "dists" in pos:
                    groups = len(_arg(args, kwargs, pos["dists"], "dists"))
                else:
                    groups = _arg(args, kwargs, pos["n_max"], "n_max")
                self.count("samples", groups * per_budget)
                self.battery_threads.append(kwargs.get("threads") or 1)
        else:
            return None
        return extract

    def _measure_memory(self, fn, *args, **kwargs):
        with self._lock:
            measure = self._memory_calls < CURVE_MEMORY_CALLS and not tracemalloc.is_tracing()
            if measure:
                self._memory_calls += 1
                tracemalloc.start()
        if not measure:
            return fn(*args, **kwargs)
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            with self._lock:
                self.counters["curve_peak_bytes"] = max(self.counters["curve_peak_bytes"], peak)

    def wrap_runner(self, runner):
        """Wrap the battery runner so each worker call is its own span."""

        def wrapped_runner(worker, *args, **kwargs):
            def traced_worker(item):
                return self.call("experiments.worker", worker, (item,))

            return runner(traced_worker, *args, **kwargs)

        return wrapped_runner

    def install(self, wraps=WRAPS, runner=WORKER_RUNNER) -> None:
        """Patch every listed name that exists; record the ones that do not."""
        for module_name, path, span in wraps:
            owner, attr = _resolve(module_name, path)
            if owner is None:
                self.unwrapped.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(span, getattr(owner, attr)))
        owner, attr = _resolve(*runner)
        if owner is None:
            self.unwrapped.append(".".join(runner))
        else:
            setattr(owner, attr, self.wrap_runner(getattr(owner, attr)))


def _resolve(module_name: str, path: str):
    """(object holding the attribute, attribute name), or (None, None)."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not callable(getattr(owner, attr, None)):
        return None, None
    return owner, attr


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus its direct children's.

    Parents are per thread, so every child ran inside its parent's interval
    on the same thread and no self time can be negative.
    """
    children: dict[int, float] = defaultdict(float)
    for sid, parent, _name, _tid, start, end, _failed in spans:
        if parent:
            children[parent] += end - start
    return {sid: (end - start) - children[sid] for sid, _p, _n, _t, start, end, _f in spans}


def summarize(spans, main_thread: int) -> dict:
    """Per-name calls, self time and errors; per-layer self time; checks."""
    own = self_times(spans)
    functions = {name: {"calls": 0, "self_s": 0.0, "errors": 0} for name in SPAN_NAMES}
    layers = dict.fromkeys(LAYERS, 0.0)
    main_self = 0.0
    worker_busy = 0.0
    battery = 0.0
    thread_self: dict[int, float] = defaultdict(float)
    thread_roots: dict[int, float] = defaultdict(float)
    for sid, parent, name, tid, start, end, failed in spans:
        f = functions.setdefault(name, {"calls": 0, "self_s": 0.0, "errors": 0})
        f["calls"] += 1
        f["self_s"] += own[sid]
        f["errors"] += int(failed)
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + own[sid]
        thread_self[tid] += own[sid]
        if not parent:
            thread_roots[tid] += end - start
        if tid == main_thread:
            main_self += own[sid]
        if name == "experiments.worker":
            worker_busy += end - start
        elif name == "experiments.battery":
            battery += end - start
    return {
        "functions": functions,
        "layers": layers,
        "main_self_s": main_self,
        "min_self_s": min(own.values(), default=0.0),
        # Per thread, self times must add up to the time under root spans.
        "thread_mismatch_s": max(
            (abs(thread_self[t] - thread_roots[t]) for t in thread_self), default=0.0
        ),
        "worker_busy_s": worker_busy,
        "battery_s": battery,
    }


def main(argv: list[str]) -> int:
    measure_memory = argv[:1] == ["--memory"]
    argv = argv[1:] if measure_memory else argv
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py [--memory] OUT.json -- <bestofn arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    import bestofn.cli

    t_imported = clock()
    tracer = Tracer(measure_memory)
    tracer.install()
    t_main_start = clock()
    code = tracer.call("cli.main", bestofn.cli.main, (cli_args,))
    t_main_end = clock()
    summary = summarize(tracer.spans, threading.main_thread().ident)
    summary.update(
        counters=dict(tracer.counters),
        battery_threads=tracer.battery_threads,
        unwrapped=tracer.unwrapped,
        extract_errors=tracer.extract_errors[:10],
        package_file=bestofn.cli.__file__,
        exit_code=code,
        t_imported=t_imported,
        t_main_start=t_main_start,
        t_main_end=t_main_end,
    )
    summary["t_dumped"] = clock()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
