"""Exact truncated bivariate power series over the integers.

The variable x marks half-length and t marks negativity, so the series
counting all balanced paths is

    N(t, x) = 1 / (1 - p_plus(x) - p_minus(t, x)),

where p_plus = x*c(x) counts positive primes (a prime of length 2n wraps
a Dyck path of length 2n-2, so there are C_{n-1} of them), p_minus =
t*x*c(t*x) counts negative primes (every step below the axis, so each x
travels with a t), and the geometric sum reflects that a balanced path
is a free sequence of signed primes.  The classical closed forms involve
square roots; here everything stays in exact integer arithmetic on
series truncated at a fixed x-degree, and the identities that the closed
forms encode (e.g. c = 1 + x*c^2) are checked as polynomial identities
through the truncation order.

N is computed by forward substitution (Knuth, TAOCP Vol. 2, 4.7): the
x^n row of 1/(1-u) is a sum over the n rows of u and the n rows already
found, so no power of u is ever formed.  For N, whose u has at most two
nonzero coefficients a row, that is O(d^3) coefficient products at order d.

Since k <= n for every path, coefficients are stored triangularly:
row n holds the coefficients of t^0 x^n .. t^n x^n.
"""

from __future__ import annotations

from collections.abc import Sequence

from .counting import catalan
from .errors import IndexOutOfRange, NonzeroConstantTerm, OrderMismatch
from .paths import _Value


def _zero_rows(order: int) -> list[list[int]]:
    return [[0] * (n + 1) for n in range(order + 1)]


def _add_product(target: list[int], row1, row2) -> None:
    """Add the product of two rows of t-coefficients into target, skipping zeros."""
    for k1, c1 in enumerate(row1):
        if c1:
            for k2, c2 in enumerate(row2):
                if c2:
                    target[k1 + k2] += c1 * c2


class BivariateSeries(_Value):
    """Triangular integer coefficients (n, k), k <= n <= order, exact; the
    rows may be any sequences and are stored as tuples, shared with no caller."""

    __slots__ = _fields = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence[Sequence[int]]):
        if order < 0:
            raise ValueError(f"truncation order must be nonnegative, got {order}")
        coeffs = tuple(map(tuple, coeffs))
        if len(coeffs) != order + 1 or any(
            len(row) != n + 1 for n, row in enumerate(coeffs)
        ):
            raise ValueError("coefficient rows must form a triangle of height order+1")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def coefficient(self, n: int, k: int) -> int:
        """The coefficient of t^k x^n; 0 outside the triangle k <= n."""
        if not 0 <= n <= self.order:
            raise IndexOutOfRange(f"x-degree {n} outside truncation order {self.order}")
        if k < 0 or k > n:
            return 0
        return self.coeffs[n][k]

    def __add__(self, other: "BivariateSeries") -> "BivariateSeries":
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        if self.order != other.order:
            raise OrderMismatch(f"orders differ: {self.order} != {other.order}")
        rows = [
            [a + b for a, b in zip(row_a, row_b)]
            for row_a, row_b in zip(self.coeffs, other.coeffs)
        ]
        return BivariateSeries(self.order, rows)

    def __mul__(self, other: "BivariateSeries") -> "BivariateSeries":
        """Cauchy product truncated at the common order."""
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        if self.order != other.order:
            raise OrderMismatch(f"orders differ: {self.order} != {other.order}")
        d = self.order
        rows = _zero_rows(d)
        for n1, row1 in enumerate(self.coeffs):
            for n2 in range(d - n1 + 1):
                _add_product(rows[n1 + n2], row1, other.coeffs[n2])
        return BivariateSeries(d, rows)


def prime_series_pos(order: int) -> BivariateSeries:
    """x*c(x): coefficient of x^n is C_{n-1}, counting positive primes."""
    rows = _zero_rows(order)
    for n in range(1, order + 1):
        rows[n][0] = catalan(n - 1)
    return BivariateSeries(order, rows)


def prime_series_neg(order: int) -> BivariateSeries:
    """t*x*c(t*x): coefficient of t^n x^n is C_{n-1}, counting negative primes."""
    rows = _zero_rows(order)
    for n in range(1, order + 1):
        rows[n][n] = catalan(n - 1)
    return BivariateSeries(order, rows)


def geometric_inverse(u: BivariateSeries) -> BivariateSeries:
    """1/(1-u) = sum of u^l for a series u with zero constant term.

    Forward substitution: v = 1 + u*v read off one x-degree at a time gives
    v_0 = 1 and v_n = sum_{m=1..n} u_m * v_{n-m}, where u_m and v_j are the
    rows of t-coefficients.  The sum needs only rows of v below n, because
    u_0 = 0, and only x-degrees <= n, so truncating at `order` loses
    nothing: every coefficient is exact.  A dense u costs O(d^4)
    coefficient products at order d; each zero coefficient of u is skipped.
    """
    if u.coefficient(0, 0) != 0:
        raise NonzeroConstantTerm(
            f"constant term must be 0, got {u.coefficient(0, 0)}"
        )
    rows = _zero_rows(u.order)
    rows[0][0] = 1
    for n in range(1, u.order + 1):
        for m in range(1, n + 1):
            _add_product(rows[n], u.coeffs[m], rows[n - m])
    return BivariateSeries(u.order, rows)


def n_series(order: int) -> BivariateSeries:
    """N(t, x) = 1/(1 - p_plus - p_minus), the path-count series.

    The coefficient of t^k x^n counts the balanced paths of length 2n
    with negativity k; equidistribution says each equals C_n.
    """
    return geometric_inverse(prime_series_pos(order) + prime_series_neg(order))
