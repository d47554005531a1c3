"""Output checks for the benchmark's reports, with exact references.

Every check is an exact invariant or a comparison with a reference that
the benchmark computes itself, so no seed can fail a correct program. A
check returns a list of problems; an empty list means the report passed.
"""
from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

MAX_PROBLEMS = 5

# Exact rational references round once at the end; the program sums in
# floating point. Both errors are tiny next to this share of the score range.
REFERENCE_TOLERANCE = 1e-9
BETA_PPF_TOLERANCE = 1e-9
TRUE_CURVE_TOLERANCE = 1e-9

_CREATED = re.compile(rb'"created":"[^"]*"')


def strip_created(report: bytes) -> bytes:
    """Report bytes without the ``created`` timestamp, the one field that
    may differ between two runs of the same command."""
    return _CREATED.sub(b'"created":""', report)


def same_payload(first: bytes, other: bytes, what: str) -> list[str]:
    if strip_created(first) == strip_created(other):
        return []
    return [f"{what}: report bytes differ from the first run"]


def _problems(found: list[str]) -> list[str]:
    if len(found) > MAX_PROBLEMS:
        return found[:MAX_PROBLEMS] + [f"... and {len(found) - MAX_PROBLEMS} more"]
    return found


def _dyadic(scores) -> tuple[list[int], int]:
    """Scores as integers over one common power-of-two denominator."""
    fractions = [Fraction(x) for x in scores]
    denominator = max(f.denominator for f in fractions)
    return [f.numerator * (denominator // f.denominator) for f in fractions], denominator


def exact_sample_curve(scores, kind: str, n: int) -> float:
    """Exact expected-max estimate at budget n, correctly rounded.

    ``unbiased``: the average maximum over all size-n subsets,
    sum_j C(j-1, n-1) v_(j) / C(B, n). ``meanmax``: the plug-in estimate,
    sum_j ((j/B)^n - ((j-1)/B)^n) v_(j). Both in integer arithmetic.
    """
    values, denominator = _dyadic(sorted(scores))
    size = len(values)
    if kind == "unbiased":
        numerator = 0
        weight = 1  # C(j-1, n-1) at j = n
        for j in range(n, size + 1):
            numerator += weight * values[j - 1]
            weight = weight * j // (j - n + 1)
        return numerator / (math.comb(size, n) * denominator)
    if kind == "meanmax":
        numerator = 0
        below = 0
        for j in range(1, size + 1):
            power = j**n
            numerator += (power - below) * values[j - 1]
            below = power
        return numerator / (size**n * denominator)
    raise ValueError(f"no exact reference for estimator {kind!r}")


def check_curve(envelope: dict, scores, n_max: int, ci: bool, exact_ns=()) -> list[str]:
    """Invariants of a two-estimator ``curve`` report.

    meanmax <= unbiased at every n with equality at n = 1, curves
    non-decreasing, every estimate (and CI end) inside [min, max] of the
    sample, budgets exactly 1..n_max, and estimates at ``exact_ns``
    matching :func:`exact_sample_curve`.
    """
    found: list[str] = []
    lo, hi = min(scores), max(scores)
    try:
        curves = {c["estimator"]: c for c in envelope["payload"]["curves"]}
        series = {kind: curves[kind]["points"] for kind in ("unbiased", "meanmax")}
    except (KeyError, TypeError) as err:
        return [f"curve report lacks {err}"]
    complete = True
    for kind, points in series.items():
        if [p["n"] for p in points] != list(range(1, n_max + 1)):
            found.append(f"{kind}: budgets are not exactly 1..{n_max}")
            complete = False
            continue
        if curves[kind]["sample_size"] != len(scores):
            found.append(f"{kind}: sample_size {curves[kind]['sample_size']} != {len(scores)}")
        values = [p["estimate"] for p in points]
        for n, (a, b) in enumerate(zip(values, values[1:]), start=1):
            if b < a:
                found.append(f"{kind}: estimate decreases from n={n} to n={n + 1}")
        for p in points:
            if not lo <= p["estimate"] <= hi:
                found.append(f"{kind}: estimate at n={p['n']} outside [{lo}, {hi}]")
            if not ci:
                if p["ci"] is not None:
                    found.append(f"{kind}: unexpected CI at n={p['n']}")
            elif p["ci"] is None or not lo <= p["ci"][0] <= p["ci"][1] <= hi:
                found.append(f"{kind}: CI {p['ci']} at n={p['n']} is not lo <= hi inside [{lo}, {hi}]")
        for n in exact_ns:
            want = exact_sample_curve(scores, kind, n)
            if abs(values[n - 1] - want) > REFERENCE_TOLERANCE * (hi - lo):
                found.append(f"{kind}: estimate {values[n - 1]!r} at n={n} != exact {want!r}")
    if complete:
        for p_mm, p_ub in zip(series["meanmax"], series["unbiased"]):
            if p_mm["estimate"] > p_ub["estimate"]:
                found.append(f"meanmax above unbiased at n={p_mm['n']}")
        if series["meanmax"][0]["estimate"] != series["unbiased"][0]["estimate"]:
            found.append("meanmax != unbiased at n=1")
    return _problems(found)


def check_probe(envelope: dict, n_max: int, samples: int, confidence: float = 0.95) -> list[str]:
    """Rows 1..n_max, proportion = count/samples exactly, and each
    Clopper-Pearson interval equal to the beta quantiles to 1e-9."""
    from scipy.stats import beta

    found: list[str] = []
    alpha = 1.0 - confidence
    try:
        rows = envelope["payload"]["rows"]
        if [r["n"] for r in rows] != list(range(1, n_max + 1)):
            return [f"probe rows are not exactly n=1..{n_max}"]
        for r in rows:
            k, m = r["underestimates"], r["samples"]
            if m != samples or not 0 <= k <= m:
                found.append(f"n={r['n']}: {k} of {m} samples")
                continue
            if r["proportion"] != k / m:
                found.append(f"n={r['n']}: proportion {r['proportion']!r} != {k}/{m}")
            want_lo = 0.0 if k == 0 else float(beta.ppf(alpha / 2, k, m - k + 1))
            want_hi = 1.0 if k == m else float(beta.ppf(1 - alpha / 2, k + 1, m - k))
            lo, hi = r["ci"]
            if abs(lo - want_lo) > BETA_PPF_TOLERANCE or abs(hi - want_hi) > BETA_PPF_TOLERANCE:
                found.append(f"n={r['n']}: CI [{lo}, {hi}] != beta quantiles [{want_lo}, {want_hi}]")
    except (KeyError, TypeError, ValueError) as err:
        return [f"probe report is malformed: {err!r}"]
    return _problems(found)


def true_curve(support, mass, n_max: int) -> list[float]:
    """Expected maximum of n draws from a discrete distribution, n = 1..n_max.

    The CDF is summed exactly; each budget is sum_j v_j (F_j^n - F_(j-1)^n).
    """
    total = sum(Fraction(m) for m in mass)
    cdf = [float(c / total) for c in accumulate(Fraction(m) for m in mass)]
    below = [0.0] + cdf[:-1]
    return [
        math.fsum(v * (f**n - g**n) for v, f, g in zip(support, cdf, below))
        for n in range(1, n_max + 1)
    ]


def check_curves(envelope: dict, dists: dict, B: int) -> list[str]:
    """Every named model present with budgets 1..B, and its true curve
    equal to :func:`true_curve` of the distribution it names."""
    found: list[str] = []
    try:
        models = {m["name"]: m for m in envelope["payload"]["models"]}
        for name, dist in dists.items():
            model = models[name]
            if list(model["budgets"]) != list(range(1, B + 1)):
                found.append(f"{name}: budgets are not exactly 1..{B}")
                continue
            if not len(model["averaged"]) == len(model["stderr"]) == B:
                found.append(f"{name}: averaged or stderr is not {B} long")
            want_curve = true_curve(dist["support"], dist["mass"], B)
            for n, (got, want) in enumerate(zip(model["true"], want_curve), start=1):
                if abs(got - want) > TRUE_CURVE_TOLERANCE:
                    found.append(f"{name}: true curve {got!r} at n={n} != {want!r}")
    except (KeyError, TypeError) as err:
        return [f"curves report lacks {err}"]
    return _problems(found)


def read_scores(path) -> list[float]:
    """Scores of a one-column runs CSV with a header row."""
    return [float(line) for line in Path(path).read_text(encoding="utf-8").split()[1:]]


def check_report(spec: dict, envelope: dict) -> list[str]:
    """Run the checks a workload's job names (``spec["kind"]``) on its report."""
    kind = spec["kind"]
    if kind == "curve":
        return check_curve(envelope, read_scores(spec["runs"]), spec["n_max"], spec["ci"],
                           spec["exact_ns"])
    if kind == "probe":
        return check_probe(envelope, spec["n_max"], spec["samples"])
    if kind == "curves":
        dists = {name: json.loads(Path(path).read_text(encoding="utf-8"))
                 for name, path in spec["dists"].items()}
        return check_curves(envelope, dists, spec["B"])
    raise ValueError(f"unknown check kind {kind!r}")


def findings(envelope: dict) -> dict:
    """The paper's findings a report shows, reported but never checked."""
    if envelope.get("payload_kind") == "probe":
        last = envelope["payload"]["rows"][-1]
        return {f"probe.proportion_n{last['n']}": last["proportion"]}
    return {}
