"""Cycle Lemma machinery for +-1 sequences.

For a sequence a_1..a_L of +-1 terms with positive total sum k, exactly
k of the L cyclic rotations have every prefix sum >= 1 (the Cycle Lemma
of Dvoretzky and Motzkin).  The proof machinery implemented here orders
the positions 0..L by their partial sums:

    p comes before q  iff  s(p) < s(q), or s(p) = s(q) and p > q,

a strict total order once restricted to distinct indices.  The *rank
sequence* m_0..m_L lists the positions in that order, so m_i is the
position with exactly i positions strictly before it.  Prefix sums of
the j-th rotation never need to be recomputed from scratch: measured at
an original position p they equal

    s(p) - s(j)        for j <= p <= L,
    s(p) - s(j) + k    for 0 <= p < j.

The rotation at shift j, 0 <= j < L, is *dominating* (every prefix sum
>= 1) iff s(p) > s(j) for j < p <= L and s(p) > s(j) - k for 0 <= p < j:
j is the walk's last visit to its level, and that level lies in
low..low+k-1, where low = min(s).  The walk visits each of these k
levels, so there are exactly k dominating shifts.  For k = 1 the shift
is m_0 (mod L), and the m_i-th rotation has exactly i+1 nonpositive
prefix sums -- the positions m_0..m_i themselves.

Sequences render as strings over '+' and '-'.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import IndexOutOfRange, NonPositiveSum, NonUnitSum
from .paths import _freeze_steps, _Value, parse, render

_SEQUENCE_ALPHABET = "+-"

# rank sequence m_0..m_L: a permutation of {0..L}
RankOrder = tuple[int, ...]


class CyclicSequence(_Value):
    """Immutable +-1 sequence viewed up to rotation."""

    __slots__ = ("terms", "_sums")
    _fields = ("terms",)

    def __init__(self, terms: tuple[int, ...] = ()):
        terms = self.__post_init__(terms)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_sums", tuple(accumulate(terms, initial=0)))

    def __post_init__(self, terms: tuple[int, ...]) -> tuple[int, ...]:
        return _freeze_steps(terms, "terms")

    def __len__(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        return render_sequence(self)

    @property
    def total(self) -> int:
        """The sum k of all terms."""
        return self._sums[-1]


def parse_sequence(text: str) -> CyclicSequence:
    """Parse a '+'/'-' string; raises InvalidCharacter for anything else."""
    return CyclicSequence(parse(text, _SEQUENCE_ALPHABET))


def render_sequence(seq: CyclicSequence) -> str:
    return render(seq.terms, _SEQUENCE_ALPHABET)


def partial_sums(seq: CyclicSequence) -> list[int]:
    """s(0..L) with s(0) = 0 and s(p) = s(p-1) + a_p."""
    return list(seq._sums)


def _check_position(seq: CyclicSequence, name: str, value: int) -> None:
    if not 0 <= value <= len(seq):
        raise IndexOutOfRange(f"{name}={value} outside 0..{len(seq)}")


def precedes(seq: CyclicSequence, p: int, q: int) -> bool:
    """Strict order on positions: smaller partial sum first, ties to the larger index."""
    _check_position(seq, "p", p)
    _check_position(seq, "q", q)
    s = seq._sums
    return s[p] < s[q] or (s[p] == s[q] and p > q)


def rank_order(seq: CyclicSequence) -> RankOrder:
    """m_0..m_L: positions sorted ascending by the `precedes` order."""
    s = seq._sums
    return tuple(sorted(range(len(seq) + 1), key=lambda p: (s[p], -p)))


def rotate(seq: CyclicSequence, j: int) -> CyclicSequence:
    """The rotation a_{j+1}..a_L a_1..a_j (shift taken modulo L)."""
    _check_position(seq, "j", j)
    if not seq.terms:
        return seq
    j %= len(seq)
    return CyclicSequence(seq.terms[j:] + seq.terms[:j])


def shifted_partial_sum(seq: CyclicSequence, j: int, p: int) -> int:
    """Prefix sum of the j-th rotation, measured at original position p."""
    _check_position(seq, "j", j)
    _check_position(seq, "p", p)
    s = seq._sums
    if j <= p:
        return s[p] - s[j]
    return s[p] - s[j] + s[-1]


def dominating_shifts(seq: CyclicSequence) -> tuple[int, ...]:
    """All shifts whose rotation has every proper prefix sum >= 1.

    They are the last positions at which s takes the levels low..low+k-1,
    low = min(s) (see the module docstring), in increasing order: the step
    after the last visit to a level v reaches v+1.  So one scan of the
    reversed sums, from the top level down, finds them all in O(L + k).
    """
    k = seq.total
    if k <= 0:
        raise NonPositiveSum(f"sequence sum must be positive, got {k}")
    rev = seq._sums[::-1]
    low = min(rev)
    shifts = []
    start = 0
    for v in range(low + k - 1, low - 1, -1):
        start = rev.index(v, start)
        shifts.append(len(seq) - start)
    return tuple(reversed(shifts))


def _unit_shift(terms) -> int:
    """The dominating shift of +-1 terms with sum 1, the sum unchecked.

    dominating_shifts on raw terms, for k = 1: the last position at which
    the partial sums reach their minimum.
    """
    rev = list(accumulate(terms, initial=0))
    rev.reverse()
    return len(terms) - rev.index(min(rev))


def nonpositive_count_at_rank(seq: CyclicSequence, i: int) -> int:
    """Number of positions with nonpositive prefix sum in the m_i-th rotation.

    Requires sum 1; the count always comes out to i + 1.
    """
    if seq.total != 1:
        raise NonUnitSum(f"sequence sum must be 1, got {seq.total}")
    _check_position(seq, "i", i)
    shift = rank_order(seq)[i]
    length = len(seq)
    return sum(
        1 for p in range(length + 1) if shifted_partial_sum(seq, shift, p) <= 0
    )


def canonical_rotation(seq: CyclicSequence) -> tuple[int, CyclicSequence]:
    """The unique dominating rotation of a sum-1 sequence, with its shift.

    The shift equals m_0 modulo L.
    """
    if seq.total != 1:
        raise NonUnitSum(f"sequence sum must be 1, got {seq.total}")
    shift = dominating_shifts(seq)[0]
    return shift, rotate(seq, shift)
