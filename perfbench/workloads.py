"""The benchmark's four workloads: seeded inputs and the command to run.

    python perfbench/workloads.py NAME SEED WORKDIR JOB.json

writes the workload's inputs into WORKDIR and its job to JOB.json: the
bestofn arguments (without ``-o``), the checks its report must pass (see
``checks.check_report``), an optional one-thread variant of the command
whose report must be identical, and whether to run ``failure-scan`` on the
report. It runs as its own process so that the benchmark's process, which
spawns the measured commands, never loads numpy or scipy: on Linux a
child's ``ru_maxrss`` includes the peak of the process that spawned it.

Each workload draws its inputs from a numpy generator keyed by the
benchmark's seed and hands the CLI only the generated files, the shipped
fixture distributions and a ``--seed`` derived from the same seed. Every
workload passes its sizes (``--n-max``, ``--B``, ``--samples``) explicitly,
so a change of a CLI default cannot change the work measured.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable

import numpy as np

CURVE_FULL_SCORES = 4000
CURVE_CI_SCORES = 500
CURVE_CI_N_MAX = 50
CURVE_CI_RESAMPLES = 1000
PROBE_B = 50
PROBE_SAMPLES = 1000
CURVES_B = 25
CURVES_SAMPLES = 5000
CURVES_THREADS = 2
EXACT_BUDGETS = (1, 2, 10, 100, CURVE_FULL_SCORES)


def left_skewed_scores(rng: np.random.Generator, count: int) -> np.ndarray:
    """Continuous scores shaped like ``bestofn.fixtures.probe_runs``: a long
    left tail of weak runs, a dense good cluster, a sparse band, a tight top
    cluster and rare upside outliers, mixed at the fixture's proportions."""
    weights = np.array([110, 282, 50, 50, 8]) / 500
    component = rng.choice(len(weights), size=count, p=weights)
    draws = (
        rng.normal(0.35, 0.10, count),
        rng.normal(0.62, 0.030, count),
        rng.uniform(0.64, 0.795, count),
        rng.normal(0.80, 0.004, count),
        0.806 + 0.02 * rng.lognormal(0.0, 1.5, count),
    )
    return np.choose(component, draws)


def _seeded(seed: int) -> tuple[np.random.Generator, str]:
    rng = np.random.default_rng(seed)
    return rng, str(int(rng.integers(1, 2**31)))


def write_runs(path: Path, scores: np.ndarray) -> None:
    path.write_text("score\n" + "".join(f"{float(v)!r}\n" for v in scores), encoding="utf-8")


def _fixture(name: str) -> str:
    from bestofn.fixtures import fixture_path

    return str(fixture_path(name))


def _curve_job(seed: int, workdir: Path, count: int, n_max: int, extra: list[str], **check) -> dict:
    rng, cli_seed = _seeded(seed)
    runs = workdir / f"runs-{count}.csv"
    write_runs(runs, left_skewed_scores(rng, count))
    args = ["curve", "--runs", str(runs), "--estimator", "unbiased", "--estimator", "meanmax",
            "--n-max", str(n_max), *extra, "--seed", cli_seed]
    return {"args": args, "check": {"kind": "curve", "runs": str(runs), "n_max": n_max, **check}}


def curve_full(seed: int, workdir: Path) -> dict:
    return _curve_job(seed, workdir, CURVE_FULL_SCORES, CURVE_FULL_SCORES, [],
                      ci=False, exact_ns=EXACT_BUDGETS)


def curve_ci(seed: int, workdir: Path) -> dict:
    return _curve_job(seed, workdir, CURVE_CI_SCORES, CURVE_CI_N_MAX,
                      ["--ci", "--resamples", str(CURVE_CI_RESAMPLES)], ci=True, exact_ns=())


def probe(seed: int, workdir: Path) -> dict:
    _, cli_seed = _seeded(seed)
    args = ["probe", "--dist", _fixture("probe-skewed"), "--B", str(PROBE_B),
            "--n-max", str(PROBE_B), "--samples", str(PROBE_SAMPLES),
            "--estimator", "meanmax", "--seed", cli_seed]
    return {"args": args, "check": {"kind": "probe", "n_max": PROBE_B, "samples": PROBE_SAMPLES}}


def curves_sim(seed: int, workdir: Path) -> dict:
    _, cli_seed = _seeded(seed)
    dists = {name: _fixture(name) for name in ("crossing-steady", "crossing-volatile")}
    base = ["curves-sim", *(f for name, path in dists.items() for f in ("--dist", f"{name}={path}")),
            "--B", str(CURVES_B), "--samples", str(CURVES_SAMPLES), "--estimator", "meanmax",
            "--seed", cli_seed]
    return {
        "args": [*base, "--threads", str(CURVES_THREADS)],
        "check": {"kind": "curves", "dists": dists, "B": CURVES_B},
        "one_thread_args": [*base, "--threads", "1"],
        "scan": True,
    }


# Why each workload (BENCHMARK.json repeats these in short):
# - curve-full: the estimators' full-curve path, O(B^2) time and memory in
#   the cumulative-weight matrix, does almost all the work; no RNG,
#   bootstrap or battery runs. Reports 8000 points, the largest output.
# - curve-ci: the percentile bootstrap (100 CIs of 1000 resamples) does
#   almost all the work; the curve itself costs milliseconds.
# - probe: 50k RNG set-ups, inverse-CDF draws and single-n estimates in the
#   battery loop, plus 50 Clopper-Pearson intervals, on one thread; no
#   bootstrap or curve. The single-thread baseline.
# - curves-sim: the curve path again, as 10k tiny calls instead of two huge
#   ones, and the only threaded workload (two threads).
WORKLOADS: dict[str, Callable[[int, Path], dict]] = {
    "curve-full": curve_full,
    "curve-ci": curve_ci,
    "probe": probe,
    "curves-sim": curves_sim,
}


if __name__ == "__main__":
    name, seed, workdir, out = sys.argv[1:]
    job = WORKLOADS[name](int(seed), Path(workdir))
    Path(out).write_text(json.dumps(job), encoding="utf-8")
