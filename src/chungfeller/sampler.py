"""Seeded uniform random generation of Dyck and k-negative paths.

The Dyck sampler is rotation-based and exactly uniform: shuffle a
multiset of n+1 ups and n downs into a uniformly random sequence with
sum +1, take its unique dominating rotation, and drop the leading
up-step.  Every Dyck path of half-length n arises from exactly 2n+1 of
the arrangements (the distinct rotations of its up-step-prefixed lift),
so the result is uniform over all C_n Dyck paths without any rejection
of candidate paths.  Class (n, k) is sampled by lifting a uniform Dyck
path with the k-fold negativity-raising bijection, which bijection.lift
applies in O(n + k) steps, so both samplers are linear in n.

Randomness comes from splitmix64, a fixed, publicly specified 64-bit
generator, so identical seeds give identical streams on any platform.
"""

from __future__ import annotations

from .bijection import lift
from .cycle import CyclicSequence, canonical_rotation
from .paths import DOWN, UP, LatticePath, check_class, check_half_length

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class RandomSource:
    """splitmix64 stream with unbiased bounded draws and shuffling.

    Not safe to share between concurrent tasks; derive one source per
    task from distinct seeds instead.
    """

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        self._state = seed

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased.

        Takes the top bits of successive words, retrying the rare draws
        that fall outside the range.
        """
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        bits = (bound - 1).bit_length()
        while True:
            value = self.next_uint64() >> (64 - bits)
            if value < bound:
                return value

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]


def sample_dyck(n: int, rng: RandomSource) -> LatticePath:
    """Uniform random Dyck path of half-length n."""
    check_half_length(n)
    arrangement = [UP] * (n + 1) + [DOWN] * n
    rng.shuffle(arrangement)
    _, rotated = canonical_rotation(CyclicSequence(tuple(arrangement)))
    # the dominating rotation starts with an up-step; dropping it leaves
    # a path that never dips below the axis
    return LatticePath(rotated.terms[1:])


def sample_k_negative(n: int, k: int, rng: RandomSource) -> LatticePath:
    """Uniform random path of class (n, k), via the lifting bijection."""
    check_class(n, k)
    return lift(sample_dyck(n, rng), k)


def sample_balanced(n: int, rng: RandomSource) -> LatticePath:
    """Uniform random balanced path of length 2n (all C(2n,n) equally likely)."""
    check_half_length(n)
    arrangement = [UP] * n + [DOWN] * n
    rng.shuffle(arrangement)
    return LatticePath(tuple(arrangement))
