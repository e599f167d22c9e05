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

lift applies phi_plus k times to a Dyck path of half-length n in
O(n + k) steps in all, instead of rebuilding the path k times.  By
induction, every positive prime of an iterate is an untouched range
[a, b) of the input whose U at a is matched by the D at b-1: phi_plus
only wraps the suffix, which holds negative primes alone, into one new
negative prime D + suffix + U, and lifts the top-level primes of the
inner range [a+1, b-1) to the top level.  So lift builds the match
array once, keeps the iterate as a stack of top-level blocks (positive
ranges and negative nodes), and performs each phi_plus as one stack
operation: pop the trailing negative blocks, pop the last positive
range, push a negative node over the popped blocks, push the top-level
primes of the opened range.  Each input range is opened at most once
and each negative node is popped at most once; one flatten at the end
builds the LatticePath.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoNegativePrime, NoPositivePrime, NotDyckPath
from .paths import DOWN, UP, LatticePath, check_class, factor_primes, is_dyck


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


def _children(ends: list[int], start: int, stop: int) -> list[int]:
    """Starts of the top-level primes of the Dyck range steps[start:stop]."""
    starts = []
    while start < stop:
        starts.append(start)
        start = ends[start]
    return starts


def lift(path: LatticePath, k: int) -> LatticePath:
    """k-fold phi_plus: carries a Dyck path to class (n, k) bijectively.

    Returns the path of k successive phi_plus calls, in O(n + k) steps
    by the block stack of the module docstring.  A block is the start a
    of a positive range [a, ends[a]) of the input, or a negative node ~j,
    the prime D + negatives[j] + U.
    """
    if not is_dyck(path):
        raise NotDyckPath("lift requires a Dyck path")
    check_class(path.half_length, k)
    steps = path.steps
    # ends[a] = one past the down-step matching the up-step at a
    ends = [0] * len(steps)
    opened = []
    for i, step in enumerate(steps):
        if step == UP:
            opened.append(i)
        else:
            ends[opened.pop()] = i + 1
    blocks = _children(ends, 0, len(steps))
    negatives: list[list[int]] = []
    for _ in range(k):
        # suffix = the trailing negative blocks; k <= n leaves a positive one
        cut = len(blocks) - 1
        while blocks[cut] < 0:
            cut -= 1
        start = blocks[cut]
        negatives.append(blocks[cut + 1 :])
        del blocks[cut:]
        blocks.append(~(len(negatives) - 1))
        blocks += _children(ends, start + 1, ends[start] - 1)
    # negative nodes nest up to k deep: flatten with an explicit stack,
    # where None stands for the up-step that closes a negative node
    lifted: list[int] = []
    pending: list[int | None] = blocks[::-1]
    while pending:
        block = pending.pop()
        if block is None:
            lifted.append(UP)
        elif block >= 0:
            lifted += steps[block : ends[block]]
        else:
            lifted.append(DOWN)
            pending.append(None)
            pending += reversed(negatives[~block])
    return LatticePath(lifted)
