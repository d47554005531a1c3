"""The seeded stream type and the RNG layout id, apart from the distributions.

Every report's ``provenance`` names :data:`RNG_LAYOUT_ID`, and ``curve --ci``
keys its bootstrap with an :class:`RngStream`; neither needs the distributions
or the draw kernel, so this module holds them alone. Both are public as
``bestofn.distributions.RngStream`` and ``bestofn.distributions.RNG_LAYOUT_ID``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
