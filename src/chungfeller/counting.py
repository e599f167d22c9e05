"""Exact counts of balanced paths by negativity.

Three independent routes to the same numbers: brute-force enumeration
(the ground-truth oracle), the Catalan numbers, and a two-term counting
recurrence obtained by splitting a path at its first prime excursion.
The enumeration classifies each path straight from its up positions
a_0 < ... < a_{n-1}: the j-th up step is below the axis iff a_j > 2j, and
the negativity is the number of such j (see partition_by_negativity).
That count splits at any j: a path's first n - t up positions are its
head and the last t its tail, and its class is its head's class plus its
tail's class.  One table holds every tail's class, one byte per tail, and
each head's block of paths is a suffix of that table with the head's
class added by one bytes.translate, so no object is made per path (see
_negativities).  Enumeration stops at n = 12, so every class fits a byte.
The recurrence is deliberately kept self-referential -- it counts class
(n, k) in terms of smaller classes, not in terms of Catalan numbers --
so its agreement with catalan(n) is a checkable fact rather than a
built-in assumption.  Even the coefficients C_0..C_{n-1} of its two sums
are its own column k = 0, N(i, 0), where it reduces to the Catalan
convolution; catalan() never enters it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from itertools import combinations, islice
from operator import add, gt, mul

from .errors import BoundExceeded, IndexOutOfRange
from .paths import DOWN, UP, LatticePath, check_class, check_half_length

# C(24,12) = 2,704,156 paths; enumeration above this is almost certainly
# a mistake, so both enumeration functions refuse any larger n.
DEFAULT_ENUMERATION_BOUND = 12
_JOIN = 64  # blocks tallied per bytes.count pass
_ADD = bytes(range(256)) * 2  # _ADD[k : k + 256] is the translate table adding k

_catalan_table: list[int] = [1]
# (width, rows): rows[m] packs N(m, 0..m) in slots of width bytes
_recurrence_rows: tuple[int, list[int]] = (1, [1])


def catalan(n: int) -> int:
    """n-th Catalan number via the convolution recurrence, memoized.

    Each new term is one dot product of the table with its own reverse.
    """
    global _catalan_table
    if n < 0:
        raise IndexOutOfRange(f"catalan index must be nonnegative, got {n}")
    table = _catalan_table
    if len(table) <= n:
        # extend a copy and swap: concurrent callers each see a complete table
        table = list(table)
        while len(table) <= n:
            table.append(sum(map(mul, table, reversed(table))))
        _catalan_table = table
    return table[n]


def central_binomial(n: int) -> int:
    """C(2n, n), the number of balanced paths of length 2n."""
    return math.comb(2 * n, n)


def enumerate_balanced(n: int) -> Iterator[LatticePath]:
    """All C(2n,n) balanced paths of length 2n, lexicographic with U < D.

    Each path is one choice of its n up positions, in itertools.combinations
    order: where two paths first differ, at step i, the one with U there has
    i where the other has a larger up position, so its tuple comes first.
    Returns a lazy iterator; n > 12 is refused eagerly.
    """
    _check_enumerable(n)
    return _balanced_paths(n)


def _check_enumerable(n: int) -> None:
    check_half_length(n)
    if n > DEFAULT_ENUMERATION_BOUND:
        raise BoundExceeded(f"n={n} exceeds the enumeration bound {DEFAULT_ENUMERATION_BOUND}")


def _balanced_paths(n: int) -> Iterator[LatticePath]:
    for ups in combinations(range(2 * n), n):
        steps = [DOWN] * (2 * n)
        for i in ups:
            steps[i] = UP
        yield LatticePath(steps)


def partition_by_negativity(n: int) -> dict[int, int]:
    """Brute-force class sizes: k -> |S_k| for every k in 0..n, zeros included.

    Every balanced path, one per choice of its up positions a_0 < ... <
    a_{n-1}, is classified without building it.  The j-th up step starts at
    height j - (a_j - j) = 2j - a_j, so by the midpoint rule (h + h + 1 < 0)
    it is below the axis iff a_j > 2j.  The below-axis steps of a balanced
    path are exactly the steps of its negative primes, which hold as many
    ups as downs, so the negativity is #{j : a_j > 2j}.
    """
    _check_enumerable(n)
    counts = [0] * (n + 1)
    # a head's block can be a few paths long, so the blocks are joined
    # before the n + 1 bytes.count calls
    blocks = _negativities(n)
    while chunk := b"".join(islice(blocks, _JOIN)):
        for k in range(n + 1):
            counts[k] += chunk.count(k)
    return dict(enumerate(counts))


def _negativities(n: int) -> Iterator[bytes]:
    """#{j : a_j > 2j} for each up-position tuple, in combinations order,
    one byte per path, one block per head.

    A tuple splits into its head a_0..a_{h-1} and its tail a_h..a_{n-1},
    t = ceil(n/2) positions, h = n - t, and its class is the head's
    #{j < h : a_j > 2j} plus the tail's #{j >= h : a_j > 2j}.  In
    combinations order the tuples come grouped by head, the heads in
    combinations order of range(2n - t), and within one head the tails run
    over the t-subsets of range(last + 1, 2n) in combinations order, where
    last is the head's final position, a_{h-1}, or -1 for the empty head.
    Those are exactly the last C(2n - 1 - last, t) t-subsets of
    range(h, 2n): a tail that starts at or after s comes after every tail
    that starts before s.  So one table of the tail class of every t-subset
    of range(h, 2n), built once, holds the tails of every head as a suffix,
    and a head's block is that suffix with the head's class added to each
    byte, the paths still in combinations order.  The table holds
    C(n + t, t) bytes, 18,564 at n = 12, the largest n enumerated.
    """
    t = (n + 1) // 2
    h = n - t
    evens = range(0, 2 * n, 2)  # 2j for j = 0..n-1
    table = bytes(sum(map(gt, tail, evens[h:])) for tail in combinations(range(h, 2 * n), t))
    for head in combinations(range(2 * n - t), h):
        k = sum(map(gt, head, evens))
        last = head[-1] if head else -1
        # the enumeration bound keeps every class (at most n <= 12) in one byte
        yield table[-math.comb(2 * n - 1 - last, t) :].translate(_ADD[k : k + 256])


def count_recurrence(n: int, k: int) -> int:
    """Count class (n, k) by recurrence on the first prime excursion.

    A nonempty path starts with either a positive prime (up, Dyck path of
    length 2p-2, down) followed by a (n-p, k) path, or a negative prime
    (down, negative Dyck path of length 2q-2, up) followed by a
    (n-q, k-q) path:

        N(n, k) = sum_{p=1..n-k} C_{p-1} N(n-p, k)
                + sum_{q=1..k}   C_{q-1} N(n-q, k-q),    N(0, 0) = 1.

    The p-sum runs down column k and the q-sum down diagonal n-k.  In the
    coordinates A(k, p) = N(k+p, k) the recurrence reads

        A(k, p) = sum_{i=1..p} C_{i-1} A(k, p-i)
                + sum_{q=1..k} C_{q-1} A(k-q, p),        A(0, 0) = 1,

    and swapping k and p swaps the two sums, so A(k, p) = A(p, k) by
    induction on k + p: diagonal d is column d, a fact of the recurrence
    itself, not of the paths it counts.  So the q-sum of N(m, j) is the
    p-sum of N(m, m-j), and N(m, j) = X_j + X_{m-j}, where the row vector
    X = sum_{i<m} C_i row(m-1-i) holds the p-sums (X_m = 0).  At k = 0 the
    q-sum is empty and the p-sum is the Catalan convolution, so the
    coefficient C_m is N(m, 0) = X_0, slot 0 of row m: the recurrence reads
    its coefficients from its own rows, not from catalan().

    The memo packs row m into one integer, N(m, j) in slot j of `width`
    bytes, so X is one sum(map(mul, ...)) of Catalan numbers times packed
    rows, evaluated in C: n(n+1)/2 products for rows 1..n.  X is unpacked,
    added to its reverse and repacked, O(m) small operations.  Slots of
    n//4 + 1 bytes, at least 2n + 2 bits, never carry: the row sums satisfy
    S_m = 2 sum_j X_j = 2 sum_{i<m} C_i S_{m-1-i}, so S_m <= 4^m by
    induction, as sum_i C_i 4^-i <= c(1/4) = 2; every partial sum of X_j
    is at most S_m/2 <= 2^(2n-1) and every entry at most S_m <= 4^n.
    Every slot is as wide as row n needs, so the packed products do about
    twice the digit work of column-by-column dot products: they win below
    n ~ 300 and lose above it (a cold build at n = 450 took 7.9 s against
    6.3 s on CPython 3.11, 2 cores).  Only the packed form is kept.
    """
    global _recurrence_rows
    check_class(n, k)
    width, rows = _recurrence_rows
    if len(rows) <= n:
        # repack a copy in slots wide enough for row n; extend it and swap
        rows = [_pack(_unpack(row, width, m + 1), n // 4 + 1) for m, row in enumerate(rows)]
        width = n // 4 + 1
        # C_i = N(i, 0), slot 0 of row i
        cat = [row & (1 << 8 * width) - 1 for row in rows]
        while len(rows) <= n:
            m = len(rows)
            # C_{m-1-i} times row i, the smallest row first: the running sum
            # then grows with the rows instead of starting at row m-1's size
            x = _unpack(sum(map(mul, reversed(cat), rows)), width, m + 1)
            rows.append(_pack(map(add, x, reversed(x)), width))
            cat.append(x[0])
        _recurrence_rows = width, rows
    bits = 8 * width
    return (rows[n] >> bits * k) & ((1 << bits) - 1)


def _pack(values: Iterable[int], width: int) -> int:
    """One integer holding each value in a little-endian slot of width bytes."""
    return int.from_bytes(b"".join([v.to_bytes(width, "little") for v in values]), "little")


def _unpack(packed: int, width: int, count: int) -> list[int]:
    """The first count slots of _pack(values, width)."""
    size = width * count
    data = packed.to_bytes(size, "little")
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, size, width)]
