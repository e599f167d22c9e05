"""Counting: Catalan numbers, brute-force enumeration, and the recurrence."""

import math
import random
import tracemalloc
from itertools import chain, combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chungfeller import cli, counting
from chungfeller.counting import (
    catalan,
    central_binomial,
    count_recurrence,
    enumerate_balanced,
    partition_by_negativity,
)
from chungfeller.errors import BoundExceeded, IndexOutOfRange
from chungfeller.paths import DOWN, UP, negativity, render_path
from chungfeller.series import n_series
from support import (
    count_by_steps,
    count_recurrence_by_definition,
    partition_by_definition,
    paths_by_negativity,
)


def _dyck_count_by_filtering(n):
    # independent oracle: test all 4^n step tuples for the Dyck property
    count = 0
    for steps in product((1, -1), repeat=2 * n):
        h = 0
        for s in steps:
            h += s
            if h < 0:
                break
        else:
            if h == 0:
                count += 1
    return count


class TestCatalan:
    def test_base(self):
        assert catalan(0) == 1

    def test_small_against_filtering_oracle(self):
        for n in range(7):
            assert catalan(n) == _dyck_count_by_filtering(n)

    def test_ten(self):
        assert catalan(10) == math.comb(20, 10) // 11 == 16796

    def test_closed_form_through_sixty(self):
        # C(2n,n) passes 2**63 near n = 34; everything stays exact
        for n in range(61):
            assert catalan(n) == math.comb(2 * n, n) // (n + 1)

    def test_negative(self):
        with pytest.raises(IndexOutOfRange):
            catalan(-1)


class TestEnumerateBalanced:
    def test_zero(self):
        assert [render_path(p) for p in enumerate_balanced(0)] == [""]

    def test_one(self):
        assert [render_path(p) for p in enumerate_balanced(1)] == ["UD", "DU"]

    def test_two_has_six_distinct(self):
        paths = list(enumerate_balanced(2))
        assert len(paths) == len(set(paths)) == 6

    @pytest.mark.parametrize("n", range(6))
    def test_lexicographic_u_before_d(self, n):
        texts = [render_path(p) for p in enumerate_balanced(n)]
        key = lambda text: [0 if c == "U" else 1 for c in text]
        assert texts == sorted(texts, key=key)
        assert len(texts) == central_binomial(n)

    @pytest.mark.parametrize("n", range(8))
    def test_matches_filtered_product(self, n):
        # independent oracle: every +-1 tuple in product order, U before D,
        # kept when it sums to 0; fixes the sequence, order and distinctness
        expected = [s for s in product((UP, DOWN), repeat=2 * n) if sum(s) == 0]
        assert [p.steps for p in enumerate_balanced(n)] == expected

    def test_negative(self):
        with pytest.raises(IndexOutOfRange):
            enumerate_balanced(-1)


class TestPartition:
    def test_examples(self):
        # n = 0 has one path, the empty tuple: an empty head and an empty
        # tail, whose one block is the table's single byte
        assert partition_by_negativity(0) == {0: 1}
        assert partition_by_negativity(1) == {0: 1, 1: 1}
        assert partition_by_negativity(3) == {0: 5, 1: 5, 2: 5, 3: 5}

    # every n up to the enumeration bound, 12: a fault confined to one n
    # shows at that n alone
    @pytest.mark.parametrize("n", range(13))
    def test_equidistribution_and_total(self, n):
        table = partition_by_negativity(n)
        assert sum(table.values()) == central_binomial(n)
        assert all(table[k] == catalan(n) for k in range(n + 1))

    def test_empty_classes_are_listed(self, monkeypatch):
        # the table has every k in 0..n whatever the classifier says, so a
        # broken classifier shows as wrong counts, not as missing keys
        monkeypatch.setattr(counting, "_negativities", lambda n: iter([bytes(6)]))
        assert partition_by_negativity(2) == {0: 6, 1: 0, 2: 0}

    def test_matches_definition(self):
        # the up-position rule against building every path and scanning it
        for n in range(11):
            assert partition_by_negativity(n) == partition_by_definition(n)

    @pytest.mark.parametrize("n", range(11))
    def test_up_position_rule_per_path(self, n):
        # enumerate_balanced yields the paths in the combinations order of
        # their up positions, so the two streams pair path with path
        rule = chain.from_iterable(counting._negativities(n))
        wrong = [
            ups
            for ups, path, k in zip(
                combinations(range(2 * n), n), enumerate_balanced(n), rule, strict=True
            )
            if negativity(path) != k
        ]
        assert wrong == []

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 12])
    def test_one_block_per_head(self, n):
        # heads of n - t and tails of t = ceil(n/2) up positions: a head
        # ending at last (-1 for the empty head) is followed by all
        # C(2n - 1 - last, t) tails after it, so the blocks come in head
        # order, each the length of its head's tails, and together hold
        # every path once; the per-path values are checked in
        # test_up_position_rule_per_path
        t = (n + 1) // 2
        blocks = list(counting._negativities(n))
        lasts = [h[-1] if h else -1 for h in combinations(range(2 * n - t), n - t)]
        assert [len(b) for b in blocks] == [math.comb(2 * n - 1 - a, t) for a in lasts]
        assert sum(map(len, blocks)) == central_binomial(n)

    def test_chosen_heads_at_n_12(self):
        # at the largest enumerable n, check chosen heads path by path
        # against the definition: those of the first and last tuples, of
        # classes 0 and n, and of 1100 seeded random tuples; each head's
        # block holds every tail after it, the chosen tuple's among them
        n, t = 12, 6
        rng = random.Random(64)
        ups = [tuple(range(n)), tuple(range(n, 2 * n))]
        ups += [tuple(sorted(rng.sample(range(2 * n), n))) for _ in range(1100)]
        heads = [u[: n - t] for u in ups]
        block_of = dict(
            zip(combinations(range(2 * n - t), n - t), counting._negativities(n), strict=True)
        )
        blocks = [list(block_of[head]) for head in heads]
        expected = [
            [
                sum(a > 2 * j for j, a in enumerate(head + tail))
                for tail in combinations(range(head[-1] + 1, 2 * n), t)
            ]
            for head in heads
        ]
        assert blocks == expected
        assert blocks[0][0] == 0 and blocks[1] == [n]

    def test_classification_runs_in_bounded_memory(self):
        # the 18,564-byte tail table and _JOIN blocks at a time peak near
        # 300 KB at n = 12, far less than the 2,704,156 bytes of all its
        # classes at once
        partition_by_negativity(12)  # warm imports and constants
        tracemalloc.start()
        try:
            partition_by_negativity(12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_to_lines(self, capsys):
        # the brute-force table as written by the CLI: one "k<TAB>count" line
        assert cli.run(["count", "--n", "2", "--brute-force"]) == 0
        assert capsys.readouterr().out == "0\t2\n1\t2\n2\t2\n"

    def test_paths_by_negativity_partitions(self):
        classes = paths_by_negativity(4)
        assert sorted(len(v) for v in classes.values()) == [14] * 5
        seen = [p for paths in classes.values() for p in paths]
        assert len(seen) == len(set(seen)) == central_binomial(4)


@pytest.mark.parametrize("enumerate_", [enumerate_balanced, partition_by_negativity])
def test_bound_checked_eagerly(enumerate_, monkeypatch):
    # both refuse before any path is built or classified
    def no_work(n):
        raise AssertionError("enumerated past the bound")

    monkeypatch.setattr(counting, "_balanced_paths", no_work)
    monkeypatch.setattr(counting, "_negativities", no_work)
    with pytest.raises(BoundExceeded) as excinfo:
        enumerate_(13)
    assert str(excinfo.value) == "n=13 exceeds the enumeration bound 12"
    with pytest.raises(IndexOutOfRange, match="half-length must be nonnegative"):
        enumerate_(-1)


class TestCountBySteps:
    # count_by_steps walks the steps with the midpoint rule and shares no
    # code with enumeration, recurrence or series

    def test_odd_below_counts_are_empty(self):
        for n in range(30):
            assert count_by_steps(n)[1::2] == [0] * n

    def test_matches_brute_force(self):
        for n in range(11):
            assert dict(enumerate(count_by_steps(n)[::2])) == partition_by_negativity(n)

    def test_matches_recurrence_and_series_past_the_bound(self):
        series = n_series(200)
        for n in (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 200):
            by_steps = count_by_steps(n)[::2]
            assert by_steps == [count_recurrence(n, k) for k in range(n + 1)]
            assert by_steps == [series.coefficient(n, k) for k in range(n + 1)]


def cold(monkeypatch):
    """Empty the recurrence and Catalan memos for the rest of the test."""
    monkeypatch.setattr(counting, "_recurrence_rows", (1, [1]))
    monkeypatch.setattr(counting, "_catalan_table", [1])


class TestCountRecurrence:
    def test_base(self):
        assert count_recurrence(0, 0) == 1

    def test_matches_brute_force(self):
        for n in range(8):
            table = partition_by_negativity(n)
            for k in range(n + 1):
                assert count_recurrence(n, k) == table[k]

    def test_all_below(self):
        # k = n leaves only the negative-prime sum
        assert count_recurrence(6, 6) == catalan(6) == 132

    def test_cold_memo_extends_like_one_build(self, monkeypatch):
        # the memo grows in steps 0 -> 7 -> (3 hits the memo) -> 40, and its
        # slots widen from 2 to 11 bytes on the way, so rows 0..7 are
        # repacked; the slot width and every packed row, so every N(n, k)
        # with n <= 40, must equal a single cold build to 40
        cold(monkeypatch)
        count_recurrence(7, 0)
        assert counting._recurrence_rows[0] == 2
        for n in (3, 40):
            count_recurrence(n, 0)
        stepwise = counting._recurrence_rows
        cold(monkeypatch)
        count_recurrence(40, 0)
        assert stepwise == counting._recurrence_rows
        assert stepwise[0] == 11

    def test_cold_build_takes_one_product_per_earlier_row(self, monkeypatch):
        # row m takes one product per earlier row, C_i times packed row
        # m-1-i, so rows 1..n take n(n+1)/2: 820 at n = 40, with no catalan
        # products, as the coefficients are read from the rows
        cold(monkeypatch)
        products = 0

        def counting_mul(a, b):
            nonlocal products
            products += 1
            return a * b

        monkeypatch.setattr(counting, "mul", counting_mul)
        count_recurrence(40, 0)
        assert products == 40 * 41 // 2 == 820

    def test_packed_rows_sum_to_central_binomials(self, monkeypatch):
        # a slot that overflowed would carry into the next one and shift
        # its row's sum by 1 - 2^(8 * width)
        cold(monkeypatch)
        count_recurrence(200, 0)
        for m in range(201):
            assert sum(count_recurrence(m, k) for k in range(m + 1)) == math.comb(2 * m, m)

    def test_cold_matches_definition(self, monkeypatch):
        cold(monkeypatch)
        for n in range(61):
            for k in range(n + 1):
                assert count_recurrence(n, k) == count_recurrence_by_definition(n, k)

    def test_cold_build_reads_its_coefficients_from_its_own_rows(self, monkeypatch):
        # C_i is N(i, 0), slot 0 of row i, so catalan() is never called and
        # verify's recurrence-vs-catalan check compares two separate sequences
        def no_catalan(n):
            raise AssertionError("count_recurrence called catalan")

        cold(monkeypatch)
        monkeypatch.setattr(counting, "catalan", no_catalan)
        count_recurrence(60, 0)
        for n in range(61):
            for k in range(n + 1):
                assert count_recurrence(n, k) == count_recurrence_by_definition(n, k)

    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(
            st.integers(0, 90).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
            min_size=1,
            max_size=6,
        )
    )
    def test_calls_in_any_order_match_definition(self, calls):
        with pytest.MonkeyPatch.context() as mp:
            cold(mp)
            for n, k in calls:
                assert count_recurrence(n, k) == count_recurrence_by_definition(n, k)

    @pytest.mark.parametrize("n,k", [(3, 4), (3, -1), (-1, 0)])
    def test_out_of_range(self, n, k):
        with pytest.raises(IndexOutOfRange):
            count_recurrence(n, k)
