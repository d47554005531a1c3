"""Benchmark of the bestofn command-line tool, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a source checkout: the CLI runs from the checkout's ``src/``
as ``python -m bestofn``, one child process per command, on inputs drawn
from ``--seed`` (see ``workloads.py``). Nothing needs installing.

``--trace 0`` repeats three child processes until ``--seconds`` have
passed (at least three rounds): ``python -c "import bestofn.cli"`` for
``setup_s``, the fixed ``reference.py``, and the workload's command, timed
from spawn to exit (wall), by user plus system time from ``os.wait4``
(CPU) and by ``ru_maxrss`` (``peak_rss_mb``). The host's speed drifts by
a quarter or more over minutes, so the command's median wall and CPU
times are reported as multiples of the reference's medians in the same
run (``wall_rel``, ``cpu_rel``); the plain seconds (``wall_s``, ``cpu_s``)
are printed as ``info`` lines with every sample. The other metrics are
medians over the run's rounds.

``--trace 1`` alternates untraced commands with commands run under
``tracer.py``, which wraps the functions each module calls, and reports
the per-layer split: calls, self time and errors per function, self time
per module, counters, the ``-X importtime`` split of the import, and the
tracing overhead (traced minus untraced wall time). Times are medians over
the traced runs; one more traced run measures curve memory with
tracemalloc. Every traced run must account for its wall time: interpreter
start and import, the main thread's self times, the tracer's own work and
interpreter exit add up to it, and no self time is negative.

Every report is checked (``checks.py``) and must be byte-identical, except
for its ``created`` time, to the first one of the run. A command that exits
non-zero or fails a check counts in ``failed``. Findings that are not
failures (the probe proportion at n = 50, the failure-scan inversion count,
the one-thread ``curves-sim`` wall time) are printed as ``info`` lines. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("curve-full", "curve-ci", "probe", "curves-sim")
clock = tracer.clock

MIN_SAMPLES = 3
IMPORT_SPLITS = 3
CHILD_TIMEOUT_S = 150.0
# The accounting sums timestamps taken around the same events, so it only
# misses the few clock reads between them.
ACCOUNTING_TOLERANCE_S = 1e-3

END_TO_END = {"setup_s": "s", "wall_rel": "ratio", "cpu_rel": "ratio", "peak_rss_mb": "MiB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {
        "import.bestofn_cli_s": "s",
        "import.numpy_s": "s",
        "import.scipy_s": "s",
        "import.start_s": "s",
        "import.exit_s": "s",
    }
    for layer in tracer.LAYERS:
        units[f"{layer}.self_s"] = "s"
    for name in tracer.SPAN_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s", f"{name}.errors": "count"})
    units.update({
        "io_formats.bytes_out": "bytes",
        "distributions.values_drawn": "count",
        "estimators.curve_peak_mb": "MiB",
        "estimators.cumweight_bytes": "bytes",
        "resampling.values_resampled": "count",
        "experiments.samples": "count",
        "experiments.worker_busy_s": "s",
        "experiments.parallel_efficiency": "ratio",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
        "trace.tracer_s": "s",
        "trace.gap_s": "s",
    })
    return units


@dataclass(frozen=True)
class Child:
    """One finished child process, timed from spawn to reaping."""

    code: int
    start: float
    end: float
    cpu_s: float
    rss_mib: float
    stderr: str

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Tally:
    """Runs attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


class Bench:
    """Runs children for one workload inside a scratch directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.tally = Tally()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("BESTOFN_THREADS", None)  # the CLI default: one thread
        self._serial = 0

    def path(self, stem: str) -> Path:
        self._serial += 1
        return self.workdir / f"{self._serial:04d}-{stem}"

    def child(self, argv: list[str]) -> Child:
        log = self.path("stderr.txt")
        with open(log, "wb") as err:
            start = clock()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
            guard = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            guard.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                guard.cancel()
            end = clock()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return Child(code, start, end, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                     log.read_text(encoding="utf-8", errors="replace"))

    def setup(self) -> Child:
        run = self.child(["-c", "import bestofn.cli"])
        self.tally.record(_exit_problems("import bestofn.cli", run))
        return run

    def reference(self) -> Child:
        run = self.child([str(HERE / "reference.py")])
        self.tally.record(_exit_problems("reference.py", run))
        return run

    def command(self, args: list[str]) -> tuple[Child, Path]:
        out = self.path("report.json")
        return self.child(["-m", "bestofn", *args, "-o", str(out)]), out

    def traced(self, args: list[str], memory: bool = False) -> tuple[Child, Path, Path]:
        out, summary = self.path("report.json"), self.path("trace.json")
        flags = ["--memory"] if memory else []
        run = self.child([str(HERE / "tracer.py"), *flags, str(summary), "--", *args, "-o", str(out)])
        return run, out, summary

    def prepare(self, workload: str, seed: int) -> dict:
        """Write the workload's inputs and return its job (see workloads.py)."""
        out = self.path("job.json")
        run = self.child([str(HERE / "workloads.py"), workload, str(seed), str(self.workdir), str(out)])
        if run.code != 0:
            raise RuntimeError(f"preparing {workload} failed:\n{run.stderr}")
        return json.loads(out.read_text(encoding="utf-8"))

    def verify(self, job: dict, runs: list[tuple[Child, Path]]) -> tuple[bytes | None, list]:
        """Problems of every report: exit status 0, the job's checks on the
        first report, and the same bytes as the first report in later ones."""
        what = job["args"][0]
        first = None
        first_problems: list[str] = []
        found = []
        for run, out in runs:
            problems = _exit_problems(what, run)
            if not problems:
                data = out.read_bytes()
                if first is None:
                    first = data
                    first_problems = checks.check_report(job["check"], json.loads(data))
                problems = first_problems or checks.same_payload(first, data, what)
            found.append(problems)
        return first, found


def _exit_problems(what: str, run: Child) -> list[str]:
    if run.code == 0:
        return []
    last = run.stderr.strip().splitlines()[-1:] or ["no output"]
    return [f"{what}: exit status {run.code}: {last[0]}"]


def _timed(bench: Bench, job: dict, seconds: int, info: dict) -> dict:
    bench.setup()  # fills the bytecode cache, a cost users pay once
    setups: list[Child] = []
    references: list[Child] = []
    runs: list[tuple[Child, Path]] = []
    begin = clock()
    while len(runs) < MIN_SAMPLES or (clock() - begin) * (1 + 1 / len(runs)) <= seconds:
        setups.append(bench.setup())
        references.append(bench.reference())
        runs.append(bench.command(job["args"]))
    one_thread = bench.command(job["one_thread_args"]) if job.get("one_thread_args") else None
    report, found = bench.verify(job, runs)
    for problems in found:
        bench.tally.record(problems)
    if one_thread is not None:
        run, out = one_thread
        problems = _exit_problems("--threads 1", run)
        if not problems and report is not None:
            problems = checks.same_payload(report, out.read_bytes(), "--threads 1")
        bench.tally.record(problems)
        info["threads1_wall_s"] = run.wall_s
    if report is not None:
        info.update(checks.findings(json.loads(report)))
        if job.get("scan"):
            _scan(bench, report, info)
    samples = {
        "setup_s": [run.wall_s for run in setups],
        "reference_s": [ref.wall_s for ref in references],
        "wall_s": [run.wall_s for run, _ in runs],
        "cpu_s": [run.cpu_s for run, _ in runs],
        "reference_cpu_s": [ref.cpu_s for ref in references],
        "peak_rss_mb": [run.rss_mib for run, _ in runs],
    }
    medians = {name: statistics.median(values) for name, values in samples.items()}
    for name, values in samples.items():
        info[name] = medians[name]
        info[f"{name}.samples"] = [round(v, 4) for v in values]
    medians["wall_rel"] = medians["wall_s"] / medians["reference_s"]
    medians["cpu_rel"] = medians["cpu_s"] / medians["reference_cpu_s"]
    return medians


def _scan(bench: Bench, report: bytes, info: dict) -> None:
    source = bench.path("scanned.json")
    source.write_bytes(report)
    run, out = bench.command(["failure-scan", "--report", str(source)])
    problems = _exit_problems("failure-scan", run)
    if not problems:
        try:
            info["failure_scan.inversions"] = len(json.loads(out.read_bytes())["payload"]["inversions"])
        except (KeyError, TypeError, ValueError) as err:
            problems = [f"failure-scan report is malformed: {err!r}"]
    bench.tally.record(problems)


_IMPORTTIME = re.compile(r"import time:\s*(\d+) \|\s*(\d+) \| (\s*)(\S+)")


def parse_importtime(text: str) -> dict[str, float]:
    """Import split from ``python -X importtime -c "import bestofn.cli"``:
    the whole import of ``bestofn.cli`` (cumulative) and the self times of
    every numpy and scipy module."""
    split = {"import.bestofn_cli_s": 0.0, "import.numpy_s": 0.0, "import.scipy_s": 0.0}
    for self_us, cumulative_us, _indent, module in _IMPORTTIME.findall(text):
        package = module.split(".", 1)[0]
        if module == "bestofn.cli":
            split["import.bestofn_cli_s"] = int(cumulative_us) / 1e6
        elif package in ("numpy", "scipy"):
            split[f"import.{package}_s"] += int(self_us) / 1e6
    return split


def trace_metrics(summary: dict, run: Child) -> dict[str, float]:
    """Per-layer metrics of one traced run, plus its accounting gap."""
    metrics = {}
    for name in tracer.SPAN_NAMES:
        f = summary["functions"][name]
        metrics.update({f"{name}.calls": f["calls"], f"{name}.self_s": f["self_s"],
                        f"{name}.errors": f["errors"]})
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = summary["layers"][layer]
    counters = summary["counters"]
    threads = max(summary["battery_threads"], default=1)
    battery = summary["battery_s"]
    start = summary["t_imported"] - run.start
    finish = run.end - summary["t_dumped"]
    own = (summary["t_main_start"] - summary["t_imported"]) + (summary["t_dumped"] - summary["t_main_end"])
    metrics.update({
        "import.start_s": start,
        "import.exit_s": finish,
        "distributions.values_drawn": counters.get("values_drawn", 0),
        "estimators.cumweight_bytes": counters.get("cumweight_bytes", 0),
        "resampling.values_resampled": counters.get("values_resampled", 0),
        "experiments.samples": counters.get("samples", 0),
        "experiments.worker_busy_s": summary["worker_busy_s"],
        "experiments.parallel_efficiency":
            summary["worker_busy_s"] / (threads * battery) if battery > 0 else 0.0,
        "trace.wall_s": run.wall_s,
        "trace.tracer_s": own,
        "trace.gap_s": run.wall_s - (start + summary["main_self_s"] + own + finish),
    })
    return metrics


def trace_problems(summary: dict, metrics: dict) -> list[str]:
    """A traced run must time the checkout's package and account for its wall time."""
    problems = []
    package = Path(summary["package_file"]).resolve()
    if SRC.resolve() not in package.parents:
        problems.append(f"traced run imported {package}, not the checkout's package")
    if summary["min_self_s"] < 0:
        problems.append(f"negative self time {summary['min_self_s']}")
    if summary["thread_mismatch_s"] > ACCOUNTING_TOLERANCE_S:
        problems.append(f"self times miss {summary['thread_mismatch_s']} s of a thread's spans")
    if abs(metrics["trace.gap_s"]) > ACCOUNTING_TOLERANCE_S:
        problems.append(f"layers and import leave {metrics['trace.gap_s']} s of wall time unaccounted")
    return problems


def _traced(bench: Bench, job: dict, seconds: int, info: dict) -> dict:
    bench.setup()  # fills the bytecode cache, a cost users pay once
    splits = []
    for _ in range(IMPORT_SPLITS):
        run = bench.child(["-X", "importtime", "-c", "import bestofn.cli"])
        bench.tally.record(_exit_problems("import bestofn.cli", run))
        splits.append(parse_importtime(run.stderr))
    plain: list[tuple[Child, Path]] = []
    traced: list[tuple[Child, Path, Path]] = []
    begin = clock()
    while len(traced) < MIN_SAMPLES or (clock() - begin) * (1 + 1 / len(traced)) <= seconds:
        plain.append(bench.command(job["args"]))
        traced.append(bench.traced(job["args"]))
    memory_run = bench.traced(job["args"], memory=True)
    report, found = bench.verify(job, plain + [(run, out) for run, out, _ in traced + [memory_run]])
    info["traced_samples"] = len(traced)

    per_run = []
    for k, (run, _, summary_path) in enumerate(traced, start=len(plain)):
        if run.code != 0:
            continue
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        metrics = trace_metrics(summary, run)
        found[k] += trace_problems(summary, metrics)
        per_run.append(metrics)
        if summary["unwrapped"] or summary["extract_errors"]:
            info["untraced_names"] = summary["unwrapped"] + summary["extract_errors"]
    for problems in found:
        bench.tally.record(problems)
    if not per_run:
        return {}
    metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    for name in splits[0]:
        metrics[name] = statistics.median(s[name] for s in splits)
    untraced = statistics.median(run.wall_s for run, _ in plain)
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
    metrics["io_formats.bytes_out"] = len(report) if report is not None else 0
    memory_summary = json.loads(memory_run[2].read_text(encoding="utf-8")) if memory_run[0].code == 0 else {}
    metrics["estimators.curve_peak_mb"] = memory_summary.get("counters", {}).get("curve_peak_bytes", 0) / 2**20
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "bestofn" / "cli.py").is_file():
        print(f"perfbench: no bestofn sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench = Bench(workdir)
        job = bench.prepare(args.workload, args.seed)
        info: dict = {}
        measure = _traced if args.trace else _timed
        values = measure(bench, job, args.seconds, info)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = per_layer_units() if args.trace else END_TO_END
    tally = bench.tally
    for problem in tally.problems[:10]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    for key, value in info.items():
        print(f"info {args.workload} {key} {value}")
    for name, unit in units.items():
        print(f"metric {args.workload} {name} {values.get(name, float('nan'))!r} {unit}")
    missing = sorted(set(units) - set(values))
    result = {
        "correct": tally.failed == 0 and not missing,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
