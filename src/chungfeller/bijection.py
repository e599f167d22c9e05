"""Negativity-shifting bijections between path classes.

A balanced path with negativity k < n contains at least one positive
prime.  Writing it as

    prefix + U + inner + D + suffix

where the U...D block is the *last* positive prime and ``inner`` is its
interior Dyck path, the ``suffix`` after that prime is forced to consist
of negative primes only, i.e. it is a negative Dyck path.  Re-gluing the
pieces as

    prefix + D + suffix + U + inner

pushes exactly one more up/down pair below the axis: the new D starts at
height 0 and dives, ``suffix`` rides along at height -1, and the new U
climbs back to 0, while ``prefix`` and ``inner`` keep their old step
classifications.  This is phi_plus, a bijection from class (n, k) onto
class (n, k+1).  phi_minus performs the symmetric surgery on the last
negative prime (prefix + D + inner + U + suffix  ->  prefix + U +
suffix + D + inner) and is its exact inverse.

Both factorizations are unique, and both maps are defined verbatim when
any of the segments is empty.  Each map is one slice-and-glue of the
steps tuple around the index range of the last prime of its sign;
factor_last_positive_prime and factor_last_negative_prime return the
same pieces as a Factorization(sign, prefix, inner, suffix).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndexOutOfRange, NoNegativePrime, NoPositivePrime, NotDyckPath
from .paths import DOWN, UP, LatticePath, factor_primes, is_dyck


@dataclass(frozen=True)
class Factorization:
    """original = prefix + s + inner + (-s) + suffix, around the last prime of sign s.

    For s = UP, ``inner`` is a Dyck path and ``suffix`` a negative Dyck
    path; for s = DOWN, ``inner`` is a negative Dyck path and ``suffix`` a
    Dyck path.
    """

    sign: int
    prefix: LatticePath
    inner: LatticePath
    suffix: LatticePath

    def reassemble(self) -> LatticePath:
        return LatticePath(
            self.prefix.steps
            + (self.sign,)
            + self.inner.steps
            + (-self.sign,)
            + self.suffix.steps
        )


def _last_prime(path: LatticePath, sign: int) -> tuple[int, int]:
    """Index range [start, end) of the last prime whose first step is `sign`."""
    ends = factor_primes(path)
    steps = path.steps
    for j in range(len(ends) - 1, -1, -1):
        start = ends[j - 1] if j else 0
        if steps[start] == sign:
            return start, ends[j]
    if sign == UP:
        raise NoPositivePrime("no positive prime")
    raise NoNegativePrime("no negative prime")


def _factor_last_prime(path: LatticePath, sign: int) -> Factorization:
    start, end = _last_prime(path, sign)
    steps = path.steps
    return Factorization(
        sign,
        prefix=LatticePath(steps[:start]),
        inner=LatticePath(steps[start + 1 : end - 1]),
        suffix=LatticePath(steps[end:]),
    )


def factor_last_positive_prime(path: LatticePath) -> Factorization:
    """Unique factorization around the last positive prime excursion."""
    return _factor_last_prime(path, UP)


def factor_last_negative_prime(path: LatticePath) -> Factorization:
    """Unique factorization around the last negative prime excursion."""
    return _factor_last_prime(path, DOWN)


def _move_last_prime(path: LatticePath, sign: int) -> LatticePath:
    """prefix + s + inner + (-s) + suffix  ->  prefix + (-s) + suffix + s + inner."""
    start, end = _last_prime(path, sign)
    steps = path.steps
    return LatticePath(
        steps[:start] + (-sign,) + steps[end:] + (sign,) + steps[start + 1 : end - 1]
    )


def phi_plus(path: LatticePath) -> LatticePath:
    """Raise negativity by one: prefix+U+inner+D+suffix -> prefix+D+suffix+U+inner."""
    return _move_last_prime(path, UP)


def phi_minus(path: LatticePath) -> LatticePath:
    """Lower negativity by one; exact inverse of phi_plus."""
    return _move_last_prime(path, DOWN)


def lift(path: LatticePath, k: int) -> LatticePath:
    """k-fold phi_plus: carries a Dyck path to class (n, k) bijectively."""
    if not is_dyck(path):
        raise NotDyckPath("lift requires a Dyck path")
    if not 0 <= k <= path.half_length:
        raise IndexOutOfRange(
            f"target negativity must be in 0..{path.half_length}, got {k}"
        )
    lifted = path
    for _ in range(k):
        lifted = phi_plus(lifted)
    return lifted
