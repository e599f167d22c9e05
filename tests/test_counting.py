"""Counting: Catalan numbers, brute-force enumeration, and the recurrence."""

import math
from itertools import product

import pytest

from chungfeller import (
    DOWN,
    UP,
    BoundExceeded,
    IndexOutOfRange,
    catalan,
    central_binomial,
    count_recurrence,
    cli,
    counting,
    enumerate_balanced,
    partition_by_negativity,
    render_path,
)
from support import paths_by_negativity


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

    def test_bound_checked_eagerly(self):
        with pytest.raises(BoundExceeded):
            enumerate_balanced(13)
        with pytest.raises(BoundExceeded):
            enumerate_balanced(3, bound=2)

    def test_negative(self):
        with pytest.raises(IndexOutOfRange):
            enumerate_balanced(-1)


class TestPartition:
    def test_examples(self):
        assert partition_by_negativity(0) == {0: 1}
        assert partition_by_negativity(1) == {0: 1, 1: 1}
        assert partition_by_negativity(3) == {0: 5, 1: 5, 2: 5, 3: 5}

    @pytest.mark.parametrize("n", range(8))
    def test_equidistribution_and_total(self, n):
        table = partition_by_negativity(n)
        assert sum(table.values()) == central_binomial(n)
        assert all(table[k] == catalan(n) for k in range(n + 1))

    def test_empty_classes_are_listed(self, monkeypatch):
        # the table has every k in 0..n whatever the classifier says, so a
        # broken classifier shows as wrong counts, not as missing keys
        monkeypatch.setattr(counting, "negativity", lambda path: 0)
        assert partition_by_negativity(2) == {0: 6, 1: 0, 2: 0}

    def test_to_lines(self, capsys):
        # the brute-force table as written by the CLI: one "k<TAB>count" line
        assert cli.run(["count", "--n", "2", "--brute-force"]) == 0
        assert capsys.readouterr().out == "0\t2\n1\t2\n2\t2\n"

    def test_paths_by_negativity_partitions(self):
        classes = paths_by_negativity(4)
        assert sorted(len(v) for v in classes.values()) == [14] * 5
        seen = [p for paths in classes.values() for p in paths]
        assert len(seen) == len(set(seen)) == central_binomial(4)


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
        # the memo grows in steps 0 -> 7 -> (3 hits the memo) -> 40; every
        # row must equal a single cold build to 40
        def cold():
            monkeypatch.setattr(counting, "_recurrence_rows", [[1]])
            monkeypatch.setattr(counting, "_catalan_table", [1])

        cold()
        for n in (7, 3, 40):
            count_recurrence(n, 0)
        stepwise = counting._recurrence_rows
        cold()
        count_recurrence(40, 0)
        assert stepwise == counting._recurrence_rows

    @pytest.mark.parametrize("n,k", [(3, 4), (3, -1), (-1, 0)])
    def test_out_of_range(self, n, k):
        with pytest.raises(IndexOutOfRange):
            count_recurrence(n, k)
