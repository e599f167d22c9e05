"""Cycle Lemma views of +-1 sequences.

For a sequence a_1..a_L of +-1 terms with positive total sum k, exactly
k of the L cyclic rotations have every prefix sum >= 1 (the Cycle Lemma
of Dvoretzky and Motzkin); these rotations, and their shifts, are
*dominating*.  With partial sums s(0..L), the rotation at shift j,
0 <= j < L, is dominating iff s(p) > s(j) for j < p <= L and
s(p) > s(j) - k for 0 <= p < j: j is the walk's last visit to its level,
and that level lies in low..low+k-1, where low = min(s).  The walk
visits each of these k levels, so there are exactly k dominating shifts,
and one scan of the reversed sums finds them all.

The *rank order* m_0..m_L lists the positions 0..L by partial sum, ties
to the larger index:

    p comes before q  iff  s(p) < s(q), or s(p) = s(q) and p > q.

For k = 1 the dominating shift is m_0 (mod L).

Sequences render as strings over '+' and '-'.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import accumulate

from .errors import NonPositiveSum, NonUnitSum
from .paths import _SEQUENCE_ALPHABET, _freeze_steps, _Value, parse, render


class CyclicSequence(_Value):
    """Immutable +-1 sequence viewed up to rotation."""

    __slots__ = _fields = ("terms",)

    def __init__(self, terms: Iterable[int] = ()):
        object.__setattr__(self, "terms", self.__post_init__(terms))

    def __post_init__(self, terms: Iterable[int]) -> tuple[int, ...]:
        return _freeze_steps(terms, "terms")

    def __len__(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        return render_sequence(self)

    @property
    def total(self) -> int:
        """The sum k of all terms."""
        return sum(self.terms)


def parse_sequence(text: str) -> CyclicSequence:
    """Parse a '+'/'-' string; raises InvalidCharacter for anything else."""
    return CyclicSequence(parse(text, _SEQUENCE_ALPHABET))


def render_sequence(seq: CyclicSequence) -> str:
    return render(seq.terms, _SEQUENCE_ALPHABET)


def partial_sums(seq: CyclicSequence) -> list[int]:
    """s(0..L) with s(0) = 0 and s(p) = s(p-1) + a_p."""
    return list(accumulate(seq.terms, initial=0))


def rank_order(seq: CyclicSequence) -> tuple[int, ...]:
    """m_0..m_L: the positions 0..L, smaller partial sum first, ties to the larger index."""
    s = partial_sums(seq)
    # a stable sort of the positions listed last-first breaks ties to the larger index
    return tuple(sorted(range(len(s) - 1, -1, -1), key=s.__getitem__))


def _shifts(terms, k: int) -> tuple[int, ...]:
    """The k dominating shifts of +-1 terms with sum k >= 1, the sum unchecked.

    They are the last positions at which s takes the levels low..low+k-1,
    low = min(s), in increasing order: the step after the last visit to
    a level v reaches v+1.  So one scan of the reversed sums, from the
    top level down, finds them all in O(L + k).
    """
    rev = list(accumulate(terms, initial=0))
    rev.reverse()
    low = min(rev)
    shifts = []
    start = 0
    for v in range(low + k - 1, low - 1, -1):
        start = rev.index(v, start)
        shifts.append(len(terms) - start)
    shifts.reverse()
    return tuple(shifts)


def dominating_shifts(seq: CyclicSequence) -> tuple[int, ...]:
    """All shifts whose rotation has every proper prefix sum >= 1, in increasing order."""
    k = seq.total
    if k <= 0:
        raise NonPositiveSum(f"sequence sum must be positive, got {k}")
    return _shifts(seq.terms, k)


def canonical_rotation(seq: CyclicSequence) -> tuple[int, CyclicSequence]:
    """The unique dominating rotation of a sum-1 sequence, with its shift.

    The shift equals m_0 modulo L.
    """
    k = seq.total
    if k != 1:
        raise NonUnitSum(f"sequence sum must be 1, got {k}")
    terms = seq.terms
    (shift,) = _shifts(terms, 1)
    return shift, CyclicSequence(terms[shift:] + terms[:shift])
