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
splitmix64 is counter-based: word i of the stream for seed s is
mix(s + i*gamma mod 2**64).  The words are therefore computed 256 at a
time, with every step of the mix applied once to a single big integer
that holds 256 lanes of 128 bits.  A lane keeps its 64-bit word in its
low half; the high half is room for the 64 x 64-bit products of the mix
and is masked off before each shift and multiply.  The low halves are
read out in explicit little-endian order, so the stream does not depend
on the platform's byte order and is word for word the one the scalar
definition gives.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator

from .bijection import lift
from .cycle import CyclicSequence, dominating_shifts
from .paths import DOWN, UP, LatticePath, check_class, check_half_length

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_BLOCK = 256  # words per kernel call
_LANE = 16  # bytes per lane: a 64-bit word and room for its products


def _splitmix64(state: int) -> Iterator[int]:
    """The splitmix64 stream after `state`, computed a block at a time.

    Lane i of a block holds the counter state + (i+1)*gamma.  Each step
    of the mix is one operation on the whole block: the shifts carry bits
    of lane i+1 into the high half of lane i, and the masks clear them
    before the next multiply.  The lane constants are built here, on the
    first draw, so a process that never draws does not allocate them.
    """
    ones = int.from_bytes(b"\1".ljust(_LANE, b"\0") * _BLOCK, "little")
    lanes = ones * _MASK64
    steps = int.from_bytes(
        b"".join((_GAMMA * i).to_bytes(_LANE, "little") for i in range(1, _BLOCK + 1)),
        "little",
    )
    # each lane is read as its low word and 8 skipped bytes
    unpack = struct.Struct("<" + "Q8x" * _BLOCK).unpack
    while True:
        z = (state * ones + steps) & lanes
        z = ((z ^ (z >> 30)) & lanes) * _MIX1 & lanes
        z = ((z ^ (z >> 27)) & lanes) * _MIX2 & lanes
        z ^= z >> 31  # no mask: the readout skips the high halves
        state = (state + _BLOCK * _GAMMA) & _MASK64
        yield from unpack(z.to_bytes(_BLOCK * _LANE, "little"))


class RandomSource:
    """splitmix64 stream with unbiased bounded draws and shuffling.

    The words come from one block generator (see `_splitmix64`), so
    `next_uint64`, `randbelow` and `shuffle` share a single stream in
    call order, exactly the stream of the scalar definition.  The source
    holds a running generator: it cannot be copied or pickled, and it is
    not safe to share between concurrent tasks; derive one source per
    task from distinct seeds instead.
    """

    def __init__(self, seed: int):
        if not (isinstance(seed, int) and 0 <= seed <= _MASK64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        self._words = _splitmix64(seed)

    def next_uint64(self) -> int:
        return next(self._words)

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased, for 1 <= bound <= 2**64.

        Takes the top bits of successive words, retrying the rare draws
        that fall outside the range.
        """
        if not 1 <= bound <= 1 << 64:
            raise ValueError(f"bound must be in 1..2**64, got {bound}")
        shift = 64 - (bound - 1).bit_length()
        words = self._words
        while True:
            value = next(words) >> shift
            if value < bound:
                return value

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle.

        Draws j as `randbelow(i + 1)` does, from the same words with the
        same retries, without a call per draw.
        """
        words = self._words
        for i in range(len(items) - 1, 0, -1):
            shift = 64 - i.bit_length()
            j = next(words) >> shift
            while j > i:
                j = next(words) >> shift
            items[i], items[j] = items[j], items[i]


def sample_dyck(n: int, rng: RandomSource) -> LatticePath:
    """Uniform random Dyck path of half-length n."""
    check_half_length(n)
    arrangement = [UP] * (n + 1) + [DOWN] * n
    rng.shuffle(arrangement)
    seq = CyclicSequence(arrangement)
    # the sum is 1, so there is one dominating shift; its rotation starts
    # with an up-step, and dropping it leaves a path that never dips below
    # the axis
    shift = dominating_shifts(seq)[0]
    return LatticePath(seq.terms[shift + 1 :] + seq.terms[:shift])


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
