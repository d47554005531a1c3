"""Ground-truth score distributions for simulation studies.

A discretized Gaussian KDE fitted to real run scores serves as the simulation
ground truth: it has an exact CDF, an exactly computable expected maximum for
every budget (the curve walker run on its CDF), and reproducible seeded sampling.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .estimators import (ArgumentError, EstimatorKind, ScoreSample, allocate, curve_blocks,
                         require_budget, require_count)

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
    :meth:`children` derives the Philox keys of a run of consecutive last
    indices in one vectorized pass. Seeds and indices are taken mod 2**64, so
    seeds 2**64 apart (1 and 2**64 + 1, or -1 and 2**64 - 1) draw identical
    values; ``seed`` keeps the value as given, and reports echo it.
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

    def children(self, start: int, stop: int) -> np.ndarray:
        """The uint64 keys [seed, stream] of ``self.child(i)``, a row per i in range(start, stop)."""
        indices = _words(start) + np.arange(max(0, stop - start), dtype=np.uint64)
        words = _splitmix64(_words(self.stream) ^ _splitmix64(indices))
        return np.stack((np.full_like(words, self.seed & _MASK64), words), axis=-1)


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
        lo, hi = sup.min().item(), sup.max().item()
        if not math.isfinite(hi - lo):  # before np.diff can overflow
            raise ValueError(f"support must span a finite range, got {lo!r} to {hi!r}")
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
        return float((self._support * self._mass).sum())

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
        require_count(self.bins, "bins", least=2)


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
    # A support too narrow for its bins is blamed on an edge given, else on the bandwidth.
    flag, value = ("support_hi", hi) if spec.support_hi is not None else (
        ("support_lo", lo) if spec.support_lo is not None else ("bandwidth", h))
    spec = replace(spec, support_lo=lo, support_hi=hi)  # checks lo < hi
    density = allocate(spec.bins, "bins", spec.bins, "the distribution")  # before the bins' edges
    edges = np.linspace(spec.support_lo, spec.support_hi, spec.bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    if not (centers[1:] > centers[:-1]).all():
        raise ArgumentError(flag, f"{value!r}: the support [{lo!r}, {hi!r}] is too narrow for "
                                  f"{spec.bins} distinct bin centres")
    rows = max(1, _KDE_BLOCK_VALUES // runs.size)
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
    """Exact expected maximum of n i.i.d. draws: :func:`true_curve`'s walk to budget n, its last
    value bit for bit. It costs O(n) budget steps and holds the n values."""
    return float(_walk_truth(dist, n, "n")[-1])


def true_curve(dist: DiscreteDistribution, n_max: int) -> np.ndarray:
    """Exact expected maxima v_K - sum_j F(v_j)^n (v_(j+1) - v_j) for budgets 1..n_max: the
    plug-in curve walk (:func:`~bestofn.estimators.curve_blocks`) over the support's gaps, with
    the CDF F in place of j/B and the walk's cut below 2^-64. No value depends on n_max."""
    return _walk_truth(dist, n_max, "n_max")


def _walk_truth(dist: DiscreteDistribution, n_max: int, name: str) -> np.ndarray:
    require_budget(n_max, dist.size, bounded=False, name=name)
    curve = allocate(n_max, name, n_max, "the true curve")  # before any budget is walked
    walk = curve_blocks(dist.support[None].copy(), EstimatorKind.MEANMAX_V, n_max, dist.cumulative[:-1])
    for start, values in walk:
        curve[start : start + values.size] = values
    return curve


_MC_CHUNK_VALUES = 1 << 20


def mc_expected_max(dist: DiscreteDistribution, n: int, iterations: int, rng: RngStream) -> float:
    """Monte Carlo estimate of the expected maximum of n draws.

    Cross-check oracle for :func:`exact_expected_max`; averages the maximum
    over ``iterations`` simulated budgets. Deterministic given the stream;
    the result does not depend on internal chunking.
    """
    require_budget(n, dist.size, bounded=False)
    require_count(iterations, "iterations")
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


# Philox4x64-10 (Salmon et al., SC'11): the two round multipliers, each with
# its 32-bit halves, and the Weyl key bumps. numpy scalars, not Python ints,
# cost half as much per call on the kernel's small arrays.
_PHILOX_M = tuple(tuple(np.uint64(w) for w in (m, m & 0xFFFFFFFF, m >> 32))
                  for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157))
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# Counter blocks (four uniforms each) computed at a time, whatever the count.
_PHILOX_SLAB_BLOCKS = 1 << 14


def _mulhilo(m: tuple, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, from 32-bit halves;
    ``m`` is a multiplier with its low and high halves."""
    m, m_lo, m_hi = m
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    t = x_hi * m_lo + ((x_lo * m_lo) >> _SHIFT32)
    u = x_lo * m_hi + (t & _LOW32)
    return x_hi * m_hi + (t >> _SHIFT32) + (u >> _SHIFT32), x * m


def _philox_uniforms(keys: np.ndarray, counters: np.ndarray, out: np.ndarray) -> None:
    """Write to ``out[r, b]`` the four doubles of Philox4x64-10 block
    (counters[b], 0, 0, 0) under key ``keys[r]``, as numpy's ``Generator.random``
    makes them. Words that depend on the key or the counter alone stay
    broadcast, so the first round and a half cost little."""
    k0, k1 = keys[:, :1], keys[:, 1:]
    zero = np.zeros((1, 1), dtype=np.uint64)
    c0, c1, c2, c3 = counters[None, :], zero, zero, zero
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    for j, word in enumerate((c0, c1, c2, c3)):
        np.multiply(word >> 11, 2.0**-53, out=out[..., j])


def uniform_rows(count: int, keys: np.ndarray) -> np.ndarray:
    """The first ``count`` uniforms of the generator under each (seed, stream) key
    row of ``keys`` (:meth:`RngStream.children`), bit for bit, computed without a
    generator: Philox4x64-10 blocks 1, 2, ... under each key in numpy's uint64
    arithmetic, about _PHILOX_SLAB_BLOCKS blocks at a time, so a row costs no
    generator set-up and the working set does not grow with the count."""
    require_count(count, "count")
    blocks = -(-count // 4)
    u = np.empty((len(keys), blocks, 4))
    width = min(blocks, _PHILOX_SLAB_BLOCKS)
    height = max(1, _PHILOX_SLAB_BLOCKS // blocks)
    for r in range(0, len(keys), height):
        for b in range(0, blocks, width):
            counters = np.arange(b + 1, min(b + width, blocks) + 1, dtype=np.uint64)
            _philox_uniforms(keys[r:r + height], counters, u[r:r + height, b:b + width])
    return u.reshape(len(keys), 4 * blocks)[:, :count]


def draw_rows(dist: DiscreteDistribution, count: int, keys: np.ndarray) -> np.ndarray:
    """Draw ``count`` i.i.d. scores per Philox key by inverse-CDF lookup, one row
    per row of ``keys`` in draw order: shape (len(keys), count). Row k maps the
    uniforms of the generator under ``keys[k]``, as :func:`uniform_rows` computes
    them for all rows at once."""
    return dist.support[np.searchsorted(dist.cumulative, uniform_rows(count, keys), side="left")]


def draw_sample(dist: DiscreteDistribution, count: int, rng: RngStream) -> ScoreSample:
    """Draw ``count`` i.i.d. scores by inverse-CDF lookup.

    The draw order becomes the sample's ingestion order, so prefix-estimator
    semantics are well defined on simulated samples.
    """
    return ScoreSample(draw_rows(dist, count, _words(rng.seed, rng.stream)[None])[0])


def canonical_json(obj, default=None) -> str:
    """Canonical JSON text: sorted keys, compact, newline-terminated; ``default`` as in json."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False, default=default) + "\n"


def save_distribution(dist: DiscreteDistribution, path: str | Path) -> None:
    """Write the distribution as canonical JSON {mass: [...], support: [...]}."""
    Path(path).write_text(canonical_json(dist.to_dict()), encoding="utf-8")


def load_distribution(path: str | Path) -> DiscreteDistribution:
    try:
        with open(path, encoding="utf-8") as fh:
            return DiscreteDistribution.from_dict(json.load(fh))
    except (KeyError, TypeError):
        raise ValueError(f"{path}: expected a JSON object with 'support' and 'mass' lists") from None
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
