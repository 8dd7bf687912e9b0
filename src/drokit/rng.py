"""Pinned deterministic random generator for reproducible check batteries.

The generator is SplitMix64: a 64-bit counter advanced by the Weyl constant
0x9E3779B97F4A7C15, whose output is a fixed avalanche hash of the counter.
It is trivially portable (three xor-shift-multiply steps on 64-bit words),
which keeps randomized batteries byte-reproducible across platforms and
reimplementable in other languages from this file alone.

Floats in [0, 1) are produced as ``(next_u64() >> 11) * 2**-53``.

Every method reads the same single stream of words, in order: a block call
such as ``uniforms(n)`` or ``u64s(k)`` returns exactly what ``n`` or ``k``
consecutive scalar calls would. Word ``i`` after counter ``s`` is
``mix(s + i * 0x9E3779B97F4A7C15)``, so a block is one computation on numpy
``uint64`` arrays, whose arithmetic wraps modulo 2**64 like the scalar
masks. The words are generated ahead into a small per-generator buffer; a
reimplementation may ignore the blocks and the buffer and draw one word at a
time.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_WEYL = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64 = np.uint64
_ONE, _FLOAT_SHIFT = _U64(1), _U64(11)

#: Words generated by a generator's first refill of its buffer; each later
#: refill doubles, up to ``_FILL_MAX``. A small start keeps short-lived
#: generators cheap.
_FILL_MIN = 32
_FILL_MAX = 1024


def _splitmix(state: int, k: int) -> np.ndarray:
    """The ``k`` words that follow the counter ``state``."""
    z = np.arange(1, k + 1, dtype=_U64)
    z *= _U64(_WEYL)
    z += _U64(state)
    z ^= z >> _U64(30)
    z *= _U64(_MIX1)
    z ^= z >> _U64(27)
    z *= _U64(_MIX2)
    z ^= z >> _U64(31)
    return z


def _unit(words: np.ndarray) -> np.ndarray:
    """Floats in [0, 1) from the top 53 bits of each word."""
    return (words >> _FLOAT_SHIFT) * 2.0**-53


def _randint_words(words: np.ndarray, n: int) -> np.ndarray:
    """``randint(n)`` of each word: what ``Rng.randint(n)`` returns when it
    draws that word."""
    return np.minimum((_unit(words) * n).astype(np.intp), n - 1)


class Rng:
    """SplitMix64 stream seeded with a 64-bit integer (default 42)."""

    def __init__(self, seed: int = 42):
        self._state = seed & _MASK64  # counter of the last word generated
        self._block = np.empty(0, dtype=_U64)  # words generated ahead
        self._pos = 0  # the first word of _block not yet read
        self._fill = _FILL_MIN

    def _generate(self, k: int) -> np.ndarray:
        words = _splitmix(self._state, k)
        self._state = (self._state + k * _WEYL) & _MASK64
        return words

    def _refill(self) -> None:
        self._block = self._generate(self._fill)
        self._pos = 0
        self._fill = min(2 * self._fill, _FILL_MAX)

    def next_u64(self) -> int:
        if self._pos == self._block.size:
            self._refill()
        self._pos += 1
        return self._block.item(self._pos - 1)

    def u64s(self, k: int) -> np.ndarray:
        """The next ``k`` words as a ``uint64`` array: the buffered ones
        first, then a refill, or for large ``k`` words generated straight
        into the result."""
        k = max(k, 0)
        start = self._pos
        if start + k <= self._block.size:
            self._pos += k
            return self._block[start:start + k]
        head = self._block[start:]
        rest = k - head.size
        if rest < self._fill:
            self._refill()
            self._pos = rest
            tail = self._block[:rest]
        else:
            self._pos = self._block.size
            tail = self._generate(rest)
        return np.concatenate((head, tail)) if head.size else tail

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """One float in [lo, hi)."""
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * u

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """``n`` floats in [lo, hi), equal elementwise to ``n`` calls of
        ``uniform(lo, hi)``."""
        return lo + (hi - lo) * _unit(self.u64s(n))

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
        """Random nonempty subset of {0, ..., n-1}: index ``i`` is kept when
        the i-th of ``n`` words is odd, and one ``randint(n)`` follows when
        none was kept."""
        picked = np.flatnonzero(self.u64s(n) & _ONE).tolist()
        return picked or [self.randint(n)]

    def randints_and_subsets(self, trials: int, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """What ``trials`` rounds of ``randint(m)`` then ``subset(n)`` draw:
        the picks, and the subsets as 0/1 rows of ``n`` floats.

        A round starting at word ``o`` takes word ``o`` for its pick and the
        parities of the next ``n`` words for its subset; when all ``n`` are
        even, the word after them is the subset's ``randint(n)`` and every
        later round starts one word later. So the rounds take
        ``trials * (n + 1)`` words plus one per such subset: that first block
        is walked as far as its words reach, one more word is drawn per such
        subset found, and the walk goes on until every round has its words.
        The stream ends where the calls end.
        """
        words = self.u64s(trials * (n + 1))
        starts = np.empty(trials, dtype=np.intp)
        k = o = 0
        while k < trials:
            ones = np.concatenate(([0], np.cumsum((words & _ONE).view(np.int64))))
            lone = (ones[n + 1:] == ones[1:-n]).tolist()  # the n words after each word are even
            found = 0
            while k < trials and o < len(lone):
                starts[k] = o
                found += lone[o]
                o += n + 1 + lone[o]
                k += 1
            words = np.concatenate((words, self.u64s(found)))
        sets = (words[starts[:, None] + np.arange(1, n + 1)] & _ONE).astype(float)
        single = np.flatnonzero(sets.sum(axis=1) == 0.0)
        sets[single, _randint_words(words[starts[single] + n + 1], n)] = 1.0
        return _randint_words(words[starts], m), sets

    def shuffled(self, items: list) -> list:
        """Fisher-Yates shuffle of a copy of ``items``."""
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.randint(i + 1)
            out[i], out[j] = out[j], out[i]
        return out
