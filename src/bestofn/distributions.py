"""Ground-truth score distributions for simulation studies.

A discretized Gaussian KDE fitted to real run scores serves as the simulation
ground truth: it has an exact CDF, an exactly computable expected maximum for
every budget, and supports reproducible sampling through seeded streams.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .estimators import ArgumentError, ScoreSample, require_budget

_MASK64 = (1 << 64) - 1

RNG_LAYOUT_ID = "philox4x64-splitmix64/2"
"""Names how a seed becomes payloads: the stream derivation of :class:`RngStream`
and the child keys the batteries and ``curve --ci`` draw from. Any change that
alters a payload at a fixed seed bumps it. Layout 1 drew a fresh sample set per
budget in probe and coverage; its reports carry no ``provenance`` block."""


def _words(*values: int) -> np.ndarray:
    """Python ints as uint64 words, each taken mod 2**64."""
    return np.array([v & _MASK64 for v in values], dtype=np.uint64)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64's mixer, elementwise over uint64 words; array arithmetic on
    uint64 wraps mod 2**64 without a warning."""
    x = x + 0x9E3779B97F4A7C15
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RngStream:
    """Seeded, splittable source of deterministic randomness.

    Identical (seed, stream) pairs produce identical value sequences on every
    platform: the generator is Philox4x64 keyed directly with the two words,
    a counter-based algorithm with a fixed published specification. Child
    streams fold integer path indices into the stream word through SplitMix64
    (``stream' = splitmix64(stream XOR splitmix64(index))``, applied left to
    right), so any worker can rebuild its stream from (seed, path) alone.
    :meth:`children` derives the streams of a run of consecutive last indices
    in one vectorized pass.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=_words(self.seed, self.stream)))

    def child(self, *indices: int) -> "RngStream":
        h = _words(self.stream)
        for word in _splitmix64(_words(*indices)):
            h = _splitmix64(h ^ word)
        return RngStream(self.seed, int(h[0]))

    def children(self, key: int, start: int, stop: int) -> list["RngStream"]:
        """``[self.child(key, i) for i in range(start, stop)]``, mixed in one pass."""
        h = _words(self.child(key).stream)
        indices = _words(start) + np.arange(max(0, stop - start), dtype=np.uint64)
        return [RngStream(self.seed, w) for w in _splitmix64(h ^ _splitmix64(indices)).tolist()]


class DiscreteDistribution:
    """Finite-support distribution with precomputed CDF.

    Masses are renormalized to sum to one at construction and the final
    cumulative value is forced to exactly 1.0 so inverse-CDF sampling can
    never fall off the end.
    """

    __slots__ = ("_support", "_mass", "_cumulative")

    def __init__(self, support: Sequence[float] | np.ndarray, mass: Sequence[float] | np.ndarray):
        sup = np.atleast_1d(np.asarray(support, dtype=float))
        m = np.atleast_1d(np.asarray(mass, dtype=float))
        if sup.ndim != 1 or m.ndim != 1:
            raise ValueError("support and mass must be one-dimensional")
        if sup.size == 0:
            raise ValueError("support must contain at least one point")
        if sup.size != m.size:
            raise ValueError(f"support has {sup.size} points but mass has {m.size}")
        if not np.isfinite(sup).all():
            raise ValueError("support points must be finite")
        if sup.size > 1 and not (np.diff(sup) > 0).all():
            raise ValueError("support must be strictly increasing")
        if not np.isfinite(m).all() or (m < 0).any():
            raise ValueError("masses must be finite and non-negative")
        total = m.sum()
        if total <= 0:
            raise ValueError("masses must not all be zero")
        m = m / total
        cum = np.minimum(np.cumsum(m), 1.0)  # cumsum can overshoot 1 by an ulp
        cum[-1] = 1.0
        self._support = sup.copy()
        self._support.flags.writeable = False
        m.flags.writeable = False
        cum.flags.writeable = False
        self._mass = m
        self._cumulative = cum

    @property
    def support(self) -> np.ndarray:
        return self._support

    @property
    def mass(self) -> np.ndarray:
        return self._mass

    @property
    def cumulative(self) -> np.ndarray:
        return self._cumulative

    @property
    def size(self) -> int:
        return int(self._support.size)

    def cdf(self, x):
        """P(X <= x); right-continuous step function, scalar or array x."""
        idx = np.searchsorted(self._support, x, side="right")
        padded = np.concatenate(([0.0], self._cumulative))
        out = padded[idx]
        return float(out) if np.isscalar(x) else out

    def mean(self) -> float:
        return float(self._support @ self._mass)

    def max(self) -> float:
        return float(self._support[-1])

    def to_dict(self) -> dict:
        return {"support": self._support.tolist(), "mass": self._mass.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "DiscreteDistribution":
        return cls(data["support"], data["mass"])

    def __repr__(self) -> str:
        return (
            f"DiscreteDistribution(size={self.size}, "
            f"range=[{self._support[0]:g}, {self._support[-1]:g}])"
        )


@dataclass(frozen=True)
class KdeSpec:
    """Parameters for discretizing a Gaussian KDE over run scores.

    ``bandwidth`` is either a finite positive width in score units or the string
    ``"scott"`` for the one-dimensional normal-reference rule
    h = std(runs, ddof=1) * B**(-1/5). A support edge left as ``None`` sits
    three bandwidths beyond the lowest or highest score; :func:`fit_kde`
    resolves it. Only the values given are checked here.
    """

    bandwidth: float | str = "scott"
    support_lo: float | None = None
    support_hi: float | None = None
    bins: int = 511

    def __post_init__(self):
        if self.bandwidth != "scott" and (
            isinstance(self.bandwidth, str) or not 0 < self.bandwidth < math.inf
        ):
            raise ArgumentError(
                "bandwidth", f"must be a finite positive number or 'scott', got {self.bandwidth!r}"
            )
        for name in ("support_lo", "support_hi"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ArgumentError(name, f"must be finite, got {value}")
        if None not in (self.support_lo, self.support_hi) and not self.support_lo < self.support_hi:
            raise ArgumentError(
                "support_lo", f"must be below support_hi = {self.support_hi}, got {self.support_lo}"
            )
        if self.bins < 2:
            raise ArgumentError("bins", f"must be >= 2, got {self.bins}")


# Published KDE parameters for the four reference models (bandwidth via
# Scott's rule on the original runs, which are not redistributable).
KDE_PRESETS: dict[str, KdeSpec] = {
    "mlp": KdeSpec(bandwidth=0.0049, support_lo=0.72, support_hi=0.82),
    "lstm": KdeSpec(bandwidth=0.059, support_lo=-0.18, support_hi=1.08),
    "glove": KdeSpec(bandwidth=0.018, support_lo=0.46, support_hi=0.97),
    "elmo": KdeSpec(bandwidth=0.041, support_lo=0.39, support_hi=0.99),
}


def scott_bandwidth(runs: ScoreSample) -> float:
    """Normal-reference bandwidth h = std(runs, ddof=1) * B**(-1/5)."""
    if runs.size < 2:
        return 0.0
    return float(np.std(runs.sorted_values, ddof=1) * runs.size ** (-0.2))


_KDE_BLOCK_VALUES = 1 << 16


def fit_kde(runs: ScoreSample, spec: KdeSpec) -> DiscreteDistribution:
    """Discretized Gaussian KDE over the run scores.

    One Gaussian kernel per run value with shared bandwidth, evaluated at the
    centers of ``bins`` equal-width bins spanning the support, then
    renormalized to a probability mass function (implicit truncation at the
    support edges). The bandwidth and any missing support edge are resolved
    here. About _KDE_BLOCK_VALUES kernel values are alive at a time, and each
    bin sums its own row, so the masses do not depend on the block size.
    """
    if spec.bandwidth == "scott":
        h = scott_bandwidth(runs)
        if h <= 0:
            raise ValueError(
                "scores are constant; Scott's rule gives bandwidth 0, pass an explicit --bandwidth"
            )
    else:
        h = float(spec.bandwidth)
    lo = runs.min - 3.0 * h if spec.support_lo is None else spec.support_lo
    hi = runs.max + 3.0 * h if spec.support_hi is None else spec.support_hi
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ArgumentError(
            "bandwidth", f"{h!r} puts the default support, 3 bandwidths beyond the "
            "scores, past the float range; pass --support-lo and --support-hi"
        )
    spec = replace(spec, support_lo=lo, support_hi=hi)  # checks lo < hi
    edges = np.linspace(spec.support_lo, spec.support_hi, spec.bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    rows = max(1, _KDE_BLOCK_VALUES // runs.size)
    density = np.empty(spec.bins)
    for start in range(0, spec.bins, rows):
        z = (centers[start:start + rows, None] - runs.sorted_values) / h
        density[start:start + rows] = np.exp(-0.5 * z * z).sum(axis=1)
    # The renormalization below makes this constant redundant; it is kept for
    # the bits of the shipped fixtures and skipped where a huge h overflows it.
    norm = runs.size * h * math.sqrt(2.0 * math.pi)
    if math.isfinite(norm):
        density /= norm
    total = density.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValueError(
            "KDE mass vanishes on the requested support; widen the support "
            "or the bandwidth"
        )
    return DiscreteDistribution(centers, density / total)


def exact_expected_max(dist: DiscreteDistribution, n: int) -> float:
    """Exact expected maximum of n i.i.d. draws: sum of v_j * (F(v_j)^n - F(v_{j-1})^n)."""
    require_budget(n, dist.size, bounded=False)
    powered = dist.cumulative**n
    pmf_of_max = np.diff(powered, prepend=0.0)
    return float(dist.support @ pmf_of_max)


def true_curve(dist: DiscreteDistribution, n_max: int) -> np.ndarray:
    """Exact expected maxima for budgets 1..n_max, each equal bit for bit to
    :func:`exact_expected_max` at its budget, so it does not depend on n_max."""
    require_budget(n_max, dist.size, bounded=False, name="n_max")
    return np.array([exact_expected_max(dist, n) for n in range(1, n_max + 1)])


_MC_CHUNK_VALUES = 1 << 20


def mc_expected_max(dist: DiscreteDistribution, n: int, iterations: int, rng: RngStream) -> float:
    """Monte Carlo estimate of the expected maximum of n draws.

    Cross-check oracle for :func:`exact_expected_max`; averages the maximum
    over ``iterations`` simulated budgets. Deterministic given the stream;
    the result does not depend on internal chunking.
    """
    require_budget(n, dist.size, bounded=False)
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    gen = rng.generator()
    rows_per_chunk = max(1, _MC_CHUNK_VALUES // n)
    total = 0.0
    done = 0
    while done < iterations:
        rows = min(rows_per_chunk, iterations - done)
        u = gen.random((rows, n))
        idx = np.searchsorted(dist.cumulative, u.max(axis=1), side="left")
        total += float(dist.support[idx].sum())
        done += rows
    return total / iterations


def draw_rows(dist: DiscreteDistribution, count: int, streams: Sequence[RngStream]) -> np.ndarray:
    """Draw ``count`` i.i.d. scores per stream by inverse-CDF lookup, one row
    per stream in draw order: shape (len(streams), count).

    Row k uses the first ``count`` uniforms of ``streams[k].generator()``, but
    the call builds one generator and, for each stream, re-keys its Philox to
    the stream's (seed, stream) words with the counter at 0 and the buffer
    empty, so a row costs no generator set-up of its own.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    u = np.empty((len(streams), count))
    gen = RngStream(0).generator()  # any key: every row re-keys it
    # Counter 0; buffer_pos 4 marks Philox's 4-word output buffer as empty.
    state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": None},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for row, rng in zip(u, streams):
        state["state"]["key"] = (rng.seed & _MASK64, rng.stream & _MASK64)
        gen.bit_generator.state = state
        gen.random(count, out=row)
    return dist.support[np.searchsorted(dist.cumulative, u, side="left")]


def draw_sample(dist: DiscreteDistribution, count: int, rng: RngStream) -> ScoreSample:
    """Draw ``count`` i.i.d. scores by inverse-CDF lookup.

    The draw order becomes the sample's ingestion order, so prefix-estimator
    semantics are well defined on simulated samples.
    """
    return ScoreSample(draw_rows(dist, count, [rng])[0])


def save_distribution(dist: DiscreteDistribution, path: str | Path) -> None:
    """Write the distribution as canonical JSON {mass: [...], support: [...]}."""
    text = json.dumps(dist.to_dict(), sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_distribution(path: str | Path) -> DiscreteDistribution:
    try:
        with open(path, encoding="utf-8") as fh:
            return DiscreteDistribution.from_dict(json.load(fh))
    except (KeyError, TypeError):
        raise ValueError(f"{path}: expected a JSON object with 'support' and 'mass' lists") from None
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
