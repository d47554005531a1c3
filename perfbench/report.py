"""Run every workload untraced and traced and print all metrics in one table.

    python3 perfbench/report.py [--seed N] [--seconds S]

Each cell comes from one ``run.py`` process, so the numbers are the same
ones the benchmark reports workload by workload.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    results = {}
    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=False,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            *info, last = proc.stdout.strip().splitlines()
            result = json.loads(last)
            results[workload, trace] = result
            for line in info:
                if line.startswith("info "):
                    print(line)
            print(f"# {workload} --trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
    units = {**run.END_TO_END, **run.per_layer_units()}
    names = run.WORKLOAD_NAMES
    print(f"{'metric':44s} {'unit':6s} " + " ".join(f"{w:>14s}" for w in names))
    for trace, metrics in ((0, run.END_TO_END), (1, run.per_layer_units())):
        for metric in metrics:
            cells = [results[w, trace]["metrics"][metric]["value"] for w in names]
            print(f"{metric:44s} {units[metric]:6s} " + " ".join(f"{v:14.6g}" for v in cells))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
