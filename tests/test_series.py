"""Exact truncated series: constructors, arithmetic, and the count identity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chungfeller import (
    BivariateSeries,
    IndexOutOfRange,
    NonzeroConstantTerm,
    OrderMismatch,
    catalan,
    catalan_series,
    central_binomial,
    cli,
    count_recurrence,
    geometric_inverse,
    n_series,
    partition_by_negativity,
    prime_series_neg,
    prime_series_pos,
)
from support import geometric_inverse_by_horner, one, zero


def _build(order, entries):
    rows = [[0] * (n + 1) for n in range(order + 1)]
    for (n, k), value in entries.items():
        rows[n][k] = value
    return BivariateSeries(order, tuple(tuple(r) for r in rows))


def _series(order):
    coefficient = st.integers(-9, 9)
    return st.tuples(
        *[st.tuples(*[coefficient] * (n + 1)) for n in range(order + 1)]
    ).map(lambda rows: BivariateSeries(order, rows))


def _without_constant(u):
    return BivariateSeries(u.order, ((0,),) + u.coeffs[1:])


class TestCatalanSeries:
    def test_order_zero(self):
        assert catalan_series(0).coefficient(0, 0) == 1

    def test_first_coefficients(self):
        c = catalan_series(3)
        assert [c.coefficient(n, 0) for n in range(4)] == [1, 1, 2, 5]

    def test_functional_equation(self):
        # c = 1 + x*c^2 through the truncation order
        order = 20
        c = catalan_series(order)
        x = _build(order, {(1, 0): 1})
        residual = one(order) + x * c * c
        assert residual == c


class TestPrimeSeries:
    def test_positive(self):
        p = prime_series_pos(4)
        assert p.coefficient(0, 0) == 0
        assert p.coefficient(1, 0) == 1
        assert p.coefficient(4, 0) == 5
        assert p.coefficient(3, 1) == 0

    def test_negative(self):
        p = prime_series_neg(4)
        assert p.coefficient(1, 1) == 1
        assert p.coefficient(1, 0) == 0
        assert p.coefficient(3, 3) == 2
        assert p.coefficient(3, 2) == 0


class TestArithmetic:
    def test_multiplicative_identity(self):
        c = catalan_series(6)
        assert c * one(6) == c
        assert one(6) * c == c

    def test_x_squared(self):
        x = _build(3, {(1, 0): 1})
        assert (x * x).coefficient(2, 0) == 1
        assert (x * x).coefficient(1, 0) == 0

    def test_catalan_convolution(self):
        c = catalan_series(4)
        assert (c * c).coefficient(2, 0) == 5

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            one(3) * one(4)
        with pytest.raises(OrderMismatch):
            one(3) + one(4)

    @given(st.integers(0, 10).flatmap(lambda d: st.tuples(_series(d), _series(d))))
    def test_commutative(self, pair):
        a, b = pair
        assert a * b == b * a

    @given(
        st.integers(0, 8).flatmap(
            lambda d: st.tuples(_series(d), _series(d), _series(d))
        )
    )
    def test_associative(self, triple):
        a, b, c = triple
        assert (a * b) * c == a * (b * c)


class TestGeometricInverse:
    def test_of_zero(self):
        assert geometric_inverse(zero(5)) == one(5)

    def test_of_x(self):
        v = geometric_inverse(_build(5, {(1, 0): 1}))
        assert [v.coefficient(n, 0) for n in range(6)] == [1] * 6

    def test_inverse_identity(self):
        order = 8
        u = prime_series_pos(order) + prime_series_neg(order)
        v = geometric_inverse(u)
        minus_u = BivariateSeries(
            order, tuple(tuple(-c for c in row) for row in u.coeffs)
        )
        # v * (1 - u) == 1
        assert v * (one(order) + minus_u) == one(order)

    def test_rejects_constant_term(self):
        with pytest.raises(NonzeroConstantTerm):
            geometric_inverse(one(3))

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 8).flatmap(_series).map(_without_constant))
    def test_matches_horner_oracle(self, u):
        assert geometric_inverse(u) == geometric_inverse_by_horner(u)

    def test_prime_series_matches_horner_oracle(self):
        for order in range(31):
            u = prime_series_pos(order) + prime_series_neg(order)
            assert geometric_inverse(u) == geometric_inverse_by_horner(u)


class TestNSeries:
    def test_constant(self):
        assert n_series(0).coefficient(0, 0) == 1

    def test_row_three(self):
        table = n_series(6)
        assert [table.coefficient(3, k) for k in range(4)] == [5, 5, 5, 5]

    def test_above_diagonal_is_zero(self):
        assert n_series(6).coefficient(3, 4) == 0

    def test_matches_catalan(self):
        order = 12
        table = n_series(order)
        for n in range(order + 1):
            for k in range(n + 1):
                assert table.coefficient(n, k) == catalan(n)

    def test_matches_brute_force(self):
        table = n_series(7)
        for n in range(8):
            counts = partition_by_negativity(n)
            for k in range(n + 1):
                assert table.coefficient(n, k) == counts[k]

    def test_matches_recurrence_past_the_enumeration_bound(self):
        # series against recurrence at 200, far past what enumeration reaches
        order = 200
        table = n_series(order)
        for n in range(order + 1):
            for k in range(n + 1):
                assert table.coefficient(n, k) == count_recurrence(n, k) == catalan(n)

    def test_row_sums(self):
        order = 30
        table = n_series(order)
        for n in range(order + 1):
            row_sum = sum(table.coefficient(n, k) for k in range(n + 1))
            assert row_sum == (n + 1) * catalan(n) == central_binomial(n)


class TestAccessAndDump:
    def test_coefficient_beyond_truncation(self):
        with pytest.raises(IndexOutOfRange):
            n_series(3).coefficient(4, 0)

    def test_negative_k_is_zero(self):
        assert n_series(3).coefficient(2, -1) == 0

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            BivariateSeries(1, ((1,),))

    def test_to_lines(self, capsys):
        # the series as written by the CLI: one "n<TAB>k<TAB>value" line a term
        assert cli.run(["series", "--order", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["0\t0\t1", "1\t0\t1", "1\t1\t1"]
