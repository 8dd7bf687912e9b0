"""Pinned deterministic random generator for reproducible check batteries.

The generator is SplitMix64: a 64-bit counter advanced by the Weyl constant
0x9E3779B97F4A7C15, whose output is a fixed avalanche hash of the counter.
It is trivially portable (three xor-shift-multiply steps on 64-bit words),
which keeps randomized batteries byte-reproducible across platforms and
reimplementable in other languages from this file alone.

Floats in [0, 1) are produced as ``(next_u64() >> 11) * 2**-53``.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_WEYL = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class Rng:
    """SplitMix64 stream seeded with a 64-bit integer (default 42)."""

    def __init__(self, seed: int = 42):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _WEYL) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """One float in [lo, hi)."""
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * u

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        return np.array([self.uniform(lo, hi) for _ in range(n)])

    def randint(self, n: int) -> int:
        """Integer in {0, ..., n-1} via the top 53 bits; n must be positive."""
        if n <= 0:
            raise ValueError("randint requires n >= 1")
        return min(int(self.uniform() * n), n - 1)

    def choice(self, items):
        return items[self.randint(len(items))]

    def simplex(self, n: int) -> np.ndarray:
        """Random probability vector via normalized exponential spacings.

        Entries are strictly positive almost surely, which downstream
        generators rely on when a fully supported measure is needed.
        """
        w = -np.log(1.0 - self.uniforms(n))
        total = w.sum()
        if total <= 0.0:  # astronomically unlikely; keep a valid output
            return np.full(n, 1.0 / n)
        return w / total

    def subset(self, n: int) -> list[int]:
        """Random nonempty subset of {0, ..., n-1}: each index kept with
        probability 1/2, and one uniform index when none was kept."""
        picked = [i for i in range(n) if self.next_u64() & 1]
        if not picked:
            picked = [self.randint(n)]
        return picked

    def shuffled(self, items: list) -> list:
        """Fisher-Yates shuffle of a copy of ``items``."""
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.randint(i + 1)
            out[i], out[j] = out[j], out[i]
        return out
