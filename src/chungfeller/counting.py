"""Exact counts of balanced paths by negativity.

Three independent routes to the same numbers: brute-force enumeration
(the ground-truth oracle), the Catalan numbers, and a two-term counting
recurrence obtained by splitting a path at its first prime excursion.
The recurrence is deliberately kept self-referential -- it counts class
(n, k) in terms of smaller classes, not in terms of Catalan numbers --
so its agreement with catalan(n) is a checkable fact rather than a
built-in assumption.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from itertools import combinations

from .errors import BoundExceeded, IndexOutOfRange
from .paths import DOWN, UP, LatticePath, check_class, check_half_length, negativity

# C(24,12) = 2,704,156 paths; enumeration above this is almost certainly
# a mistake, so it must be requested explicitly via `bound`.
DEFAULT_ENUMERATION_BOUND = 12

_catalan_table: list[int] = [1]
_recurrence_rows: list[list[int]] = [[1]]


def catalan(n: int) -> int:
    """n-th Catalan number via the convolution recurrence, memoized."""
    global _catalan_table
    if n < 0:
        raise IndexOutOfRange(f"catalan index must be nonnegative, got {n}")
    table = _catalan_table
    if len(table) <= n:
        # extend a copy and swap: concurrent callers each see a complete table
        table = list(table)
        while len(table) <= n:
            m = len(table)
            table.append(sum(table[i] * table[m - 1 - i] for i in range(m)))
        _catalan_table = table
    return table[n]


def central_binomial(n: int) -> int:
    """C(2n, n), the number of balanced paths of length 2n."""
    return math.comb(2 * n, n)


def enumerate_balanced(
    n: int, *, bound: int = DEFAULT_ENUMERATION_BOUND
) -> Iterator[LatticePath]:
    """All C(2n,n) balanced paths of length 2n, lexicographic with U < D.

    Each path is one choice of its n up positions, in itertools.combinations
    order: where two paths first differ, at step i, the one with U there has
    i where the other has a larger up position, so its tuple comes first.
    Returns a lazy iterator; the bound is checked eagerly.
    """
    check_half_length(n)
    if n > bound:
        raise BoundExceeded(f"n={n} exceeds the enumeration bound {bound}")
    return _balanced_paths(n)


def _balanced_paths(n: int) -> Iterator[LatticePath]:
    for ups in combinations(range(2 * n), n):
        steps = [DOWN] * (2 * n)
        for i in ups:
            steps[i] = UP
        yield LatticePath(tuple(steps))


def partition_by_negativity(
    n: int, *, bound: int = DEFAULT_ENUMERATION_BOUND
) -> dict[int, int]:
    """Brute-force class sizes: k -> |S_k| for every k in 0..n, zeros included."""
    counts = Counter(map(negativity, enumerate_balanced(n, bound=bound)))
    return {k: counts[k] for k in range(n + 1)}


def count_recurrence(n: int, k: int) -> int:
    """Count class (n, k) by recurrence on the first prime excursion.

    A nonempty path starts with either a positive prime (up, Dyck path of
    length 2p-2, down) followed by a (n-p, k) path, or a negative prime
    (down, negative Dyck path of length 2q-2, up) followed by a
    (n-q, k-q) path:

        N(n, k) = sum_{p=1..n-k} C_{p-1} N(n-p, k)
                + sum_{q=1..k}   C_{q-1} N(n-q, k-q),    N(0, 0) = 1.
    """
    global _recurrence_rows
    check_class(n, k)
    rows = _recurrence_rows
    if len(rows) <= n:
        rows = list(rows)
        cat = [catalan(i) for i in range(n)]
        while len(rows) <= n:
            m = len(rows)
            row = []
            for j in range(m + 1):
                total = sum(cat[p - 1] * rows[m - p][j] for p in range(1, m - j + 1))
                total += sum(cat[q - 1] * rows[m - q][j - q] for q in range(1, j + 1))
                row.append(total)
            rows.append(row)
        _recurrence_rows = rows
    return rows[n][k]
