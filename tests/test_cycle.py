"""Cycle Lemma: the position order, rotation prefix sums, dominating shifts.

The position order and the shifted prefix sums belong to the lemma's
proof and live in support as oracles; the package computes the ranks
and the shifts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chungfeller.cycle import (
    CyclicSequence,
    _shifts,
    canonical_rotation,
    dominating_shifts,
    parse_sequence,
    partial_sums,
    rank_order,
    render_sequence,
)
from chungfeller.errors import InvalidCharacter, NonPositiveSum, NonUnitSum
from support import (
    all_pm1_sequences,
    dominating_shifts_by_rotation,
    nonpositive_count_at_rank,
    precedes,
    rotation_prefix_sums,
    shifted_partial_sum,
)

pm_terms = st.lists(st.sampled_from((1, -1)), max_size=12).map(tuple)


@st.composite
def positive_sum_terms(draw, max_length=300):
    """+-1 tuples of length 1..max_length with any positive sum."""
    length = draw(st.integers(1, max_length))
    ups = draw(st.integers(length // 2 + 1, length))
    return tuple(draw(st.permutations([1] * ups + [-1] * (length - ups))))


@st.composite
def unit_sum_terms(draw, max_length=300):
    """+-1 tuples of odd length 1..max_length with sum 1."""
    n = draw(st.integers(0, (max_length - 1) // 2))
    return tuple(draw(st.permutations([1] * (n + 1) + [-1] * n)))


class TestParse:
    def test_round_trip(self):
        assert render_sequence(parse_sequence("++-")) == "++-"

    def test_invalid(self):
        with pytest.raises(InvalidCharacter) as info:
            parse_sequence("+x-")
        assert info.value.position == 1


class TestPartialSums:
    @pytest.mark.parametrize(
        "terms,expected",
        [
            ((1, 1, -1), [0, 1, 2, 1]),
            ((-1, 1, 1), [0, -1, 0, 1]),
            ((), [0]),
        ],
    )
    def test_examples(self, terms, expected):
        seq = CyclicSequence(terms)
        assert partial_sums(seq) == expected
        assert len(seq) == len(expected) - 1


class TestPrecedes:
    def test_tie_broken_by_larger_index(self):
        terms = (1, 1, -1)
        assert precedes(terms, 3, 1)
        assert not precedes(terms, 1, 3)

    def test_smaller_sum_first(self):
        assert precedes((1, 1, -1), 0, 2)

    def test_irreflexive(self):
        assert all(not precedes((1, 1, -1), p, p) for p in range(4))

    @given(pm_terms)
    def test_strict_total_order(self, terms):
        positions = range(len(terms) + 1)
        for p in positions:
            for q in positions:
                if p == q:
                    assert not precedes(terms, p, q)
                else:
                    assert precedes(terms, p, q) != precedes(terms, q, p)

    def test_transitive_exhaustive(self):
        for length in range(6):
            for terms in all_pm1_sequences(length):
                below = {
                    p: {q for q in range(length + 1) if precedes(terms, q, p)}
                    for p in range(length + 1)
                }
                for p in range(length + 1):
                    for q in below[p]:
                        assert below[q] <= below[p] - {q}


class TestRankOrder:
    @pytest.mark.parametrize(
        "terms,expected",
        [
            ((1, 1, -1), (0, 3, 1, 2)),
            ((1,), (0, 1)),
            # s = [0,-1,0,1]: position 1 is lowest, then the s=0 tie
            # breaks toward the larger index, so 2 before 0
            ((-1, 1, 1), (1, 2, 0, 3)),
        ],
    )
    def test_examples(self, terms, expected):
        assert rank_order(CyclicSequence(terms)) == expected

    def test_defining_property_exhaustive(self):
        for length in range(9):
            for terms in all_pm1_sequences(length):
                ranks = rank_order(CyclicSequence(terms))
                assert sorted(ranks) == list(range(length + 1))
                for i, m in enumerate(ranks):
                    assert (
                        sum(1 for q in range(length + 1) if precedes(terms, q, m)) == i
                    )


class TestShiftedPartialSum:
    def test_zero_shift_is_plain_sum(self):
        assert shifted_partial_sum((1, 1, -1), 0, 2) == 2

    def test_wrapped_position(self):
        # formula and direct rotation agree: s(0) - s(1) + k = 2
        terms = (-1, 1, 1)
        oracle = rotation_prefix_sums(terms, 1)
        assert shifted_partial_sum(terms, 1, 0) == oracle[3 - 1 + 0] == 2

    def test_at_own_shift(self):
        assert shifted_partial_sum((1, 1, -1), 3, 3) == 0

    def test_matches_rotation_oracle_exhaustive(self):
        for length in range(13):
            for terms in all_pm1_sequences(length):
                for j in range(length + 1):
                    oracle = rotation_prefix_sums(terms, j % length if length else 0)
                    for p in range(length + 1):
                        offset = p - j if j <= p else p - j + length
                        assert shifted_partial_sum(terms, j, p) == oracle[offset]


class TestDominatingShifts:
    def test_single(self):
        assert dominating_shifts(CyclicSequence((1, 1, -1))) == (0,)

    def test_two(self):
        assert dominating_shifts(CyclicSequence((1, 1, -1, 1))) == (0, 3)

    def test_nonpositive_sum(self):
        with pytest.raises(NonPositiveSum):
            dominating_shifts(CyclicSequence((-1, 1)))
        with pytest.raises(NonPositiveSum):
            dominating_shifts(CyclicSequence(()))

    def test_lemma_count_exhaustive_small(self):
        for length in range(1, 12):
            for terms in all_pm1_sequences(length):
                k = sum(terms)
                if k >= 1:
                    oracle = dominating_shifts_by_rotation(terms)
                    assert dominating_shifts(CyclicSequence(terms)) == oracle
                    assert len(oracle) == k

    @settings(deadline=None, max_examples=40)
    @given(positive_sum_terms())
    def test_matches_rotation_oracle_long(self, terms):
        oracle = dominating_shifts_by_rotation(terms)
        assert dominating_shifts(CyclicSequence(terms)) == oracle
        assert len(oracle) == sum(terms)

    def test_shift_scan_on_raw_terms(self):
        # the scan the sampler calls, on a list with no CyclicSequence built
        for length in range(1, 13):
            for terms in all_pm1_sequences(length):
                if sum(terms) >= 1:
                    oracle = dominating_shifts_by_rotation(terms)
                    assert _shifts(list(terms), sum(terms)) == oracle

    def test_all_up_terms_every_shift(self):
        # k = L: every level 0..L-1 is last visited at its own position
        length = 100_000
        seq = CyclicSequence((1,) * length)
        assert dominating_shifts(seq) == tuple(range(length))


class TestNonpositiveCount:
    def test_singleton(self):
        assert nonpositive_count_at_rank((1,), 0) == 1

    def test_examples(self):
        terms = (1, 1, -1)
        assert nonpositive_count_at_rank(terms, 0) == 1
        assert nonpositive_count_at_rank(terms, 2) == 3


class TestCanonicalRotation:
    @pytest.mark.parametrize(
        "terms,shift,rotated",
        [
            ((-1, 1, 1), 1, (1, 1, -1)),
            ((1,), 0, (1,)),
            ((1, -1, 1), 2, (1, 1, -1)),
        ],
    )
    def test_examples(self, terms, shift, rotated):
        got_shift, got = canonical_rotation(CyclicSequence(terms))
        assert (got_shift, got.terms) == (shift, rotated)

    def test_idempotent(self):
        shift, rotated = canonical_rotation(CyclicSequence((-1, 1, 1)))
        again_shift, again = canonical_rotation(rotated)
        assert again_shift == 0
        assert again == rotated

    def test_requires_unit_sum(self):
        with pytest.raises(NonUnitSum):
            canonical_rotation(CyclicSequence((1, 1)))
        with pytest.raises(NonUnitSum):
            canonical_rotation(CyclicSequence((-1,)))

    def test_shift_is_first_rank_mod_length(self):
        for length in range(1, 12, 2):
            for terms in all_pm1_sequences(length):
                if sum(terms) != 1:
                    continue
                seq = CyclicSequence(terms)
                shift, _ = canonical_rotation(seq)
                assert shift == rank_order(seq)[0] % length

    @settings(deadline=None, max_examples=100)
    @given(unit_sum_terms())
    def test_shift_is_first_rank_mod_length_long(self, terms):
        seq = CyclicSequence(terms)
        assert canonical_rotation(seq)[0] == rank_order(seq)[0] % len(terms)

