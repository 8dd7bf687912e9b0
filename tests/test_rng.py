"""Pinned-generator known-answer tests.

The raw 64-bit outputs below are the published reference sequences for this
algorithm, so any reimplementation (including one in another language) can be
checked against the same numbers.
"""

import hashlib
import itertools

import numpy as np
import pytest

from drokit.rng import Rng

MASK64 = (1 << 64) - 1


def test_known_answer_seed_zero():
    r = Rng(0)
    assert [r.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


def test_known_answer_seed_1234567():
    r = Rng(1234567)
    assert [r.next_u64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


def test_uniform_mapping_is_top_53_bits():
    r1, r2 = Rng(99), Rng(99)
    raw = r1.next_u64()
    assert r2.uniform() == (raw >> 11) * 2.0**-53


def test_streams_reproducible_and_seed_sensitive():
    a = [Rng(7).uniform() for _ in range(4)]
    b = [Rng(7).uniform() for _ in range(4)]
    c = [Rng(8).uniform() for _ in range(4)]
    assert a == b
    assert a != c


def test_simplex_positive_and_normalized():
    r = Rng(5)
    for n in (1, 2, 5, 11):
        w = r.simplex(n)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w > 0.0)


def test_randint_range_and_determinism():
    r = Rng(3)
    draws = [r.randint(7) for _ in range(200)]
    assert min(draws) >= 0 and max(draws) <= 6
    assert set(draws) == set(range(7))  # all residues show up at this length


def test_shuffled_is_permutation():
    r = Rng(11)
    items = list(range(10))
    out = r.shuffled(items)
    assert sorted(out) == items
    assert items == list(range(10))  # input untouched


class ScalarRng:
    """The generator one word at a time in plain integer arithmetic, with
    each method drawing word by word: the reference that every block path of
    ``Rng`` must reproduce."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def u64s(self, k):
        return np.array([self.next_u64() for _ in range(k)], dtype=np.uint64)

    def uniform(self, lo=0.0, hi=1.0):
        return lo + (hi - lo) * ((self.next_u64() >> 11) * 2.0**-53)

    def uniforms(self, n, lo=0.0, hi=1.0):
        return np.array([self.uniform(lo, hi) for _ in range(n)])

    def randint(self, n):
        return min(int(self.uniform() * n), n - 1)

    def subset(self, n):
        picked = [i for i in range(n) if self.next_u64() & 1]
        return picked or [self.randint(n)]


DRAWS = 10**6


def sha256_of(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(np.asarray(chunk, dtype="<u8").tobytes())
    return h.hexdigest()


def interleaved(r: Rng, total: int):
    """Runs of scalar ``next_u64`` calls between blocks of several sizes,
    ``total`` words in all, so that reads of both kinds cross the buffer's
    refills at many offsets."""
    runs = itertools.cycle((1, 2, 7, 31, 33, 64))
    sizes = itertools.cycle((1, 5, 31, 32, 33, 64, 100, 1023, 1024, 1025, 3000))
    left = total
    while left:
        run = min(next(runs), left)
        yield [r.next_u64() for _ in range(run)]
        k = min(next(sizes), left - run)
        yield r.u64s(k)
        left -= run + k


@pytest.mark.parametrize("seed", [0, 1, 42, 1234567, 2**64 - 1])
def test_block_draws_are_the_scalar_stream(seed):
    ref = ScalarRng(seed)
    expected = sha256_of([np.fromiter((ref.next_u64() for _ in range(DRAWS)), np.uint64, DRAWS)])
    assert sha256_of([Rng(seed).u64s(DRAWS)]) == expected
    blocks = Rng(seed)
    sizes = itertools.cycle((1, 31, 32, 33, 1000, 1024, 1025, 4097))
    chunks, left = [], DRAWS
    while left:
        k = min(next(sizes), left)
        chunks.append(blocks.u64s(k))
        left -= k
    assert sha256_of(chunks) == expected
    assert sha256_of(interleaved(Rng(seed), DRAWS)) == expected


def test_every_method_reads_the_scalar_stream():
    """Random interleavings of every drawing method give the scalar
    reference's values, and leave both streams at the same word."""
    plan = Rng(2024)
    for seed in (0, 5, 2**64 - 1):
        r, ref = Rng(seed), ScalarRng(seed)
        for _ in range(3000):
            op = plan.randint(6)
            n = plan.randint(40) if plan.randint(10) else plan.randint(2500)
            if op == 0:
                assert r.next_u64() == ref.next_u64()
            elif op == 1:
                assert np.array_equal(r.u64s(n), ref.u64s(n))
            elif op == 2:
                assert r.uniform(-1.0, 3.5) == ref.uniform(-1.0, 3.5)
            elif op == 3:
                got, want = r.uniforms(n, -2.0, 2.0), ref.uniforms(n, -2.0, 2.0)
                assert got.dtype == want.dtype and np.array_equal(got, want)
            elif op == 4:
                assert r.randint(n + 1) == ref.randint(n + 1)
            else:
                assert r.subset(n + 1) == ref.subset(n + 1)
        assert r.next_u64() == ref.next_u64()


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_randints_and_subsets_are_the_scalar_calls(n):
    """The block walk gives each round's ``randint`` and ``subset`` exactly,
    empty subsets included (half of all rounds at n = 1), and leaves the
    stream where the calls do."""
    gen = Rng(5)
    for trials in (0, 1, 2, 9, 300):
        seed, m = gen.randint(1 << 30), 1 + gen.randint(12)
        a, b = Rng(seed), ScalarRng(seed)
        picks, sets = a.randints_and_subsets(trials, m, n)
        want = np.zeros((trials, n))
        want_picks = []
        for k in range(trials):
            want_picks.append(b.randint(m))
            want[k, b.subset(n)] = 1.0
        assert picks.tolist() == want_picks
        assert np.array_equal(sets, want)
        assert a.next_u64() == b.next_u64()
