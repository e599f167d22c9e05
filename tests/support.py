"""Shared helpers for the test suite."""

import math
from collections import Counter
from functools import cache
from itertools import accumulate, product

from chungfeller import (
    BivariateSeries,
    CyclicSequence,
    LatticePath,
    RandomSource,
    catalan,
    enumerate_balanced,
    negativity,
    rank_order,
)
from chungfeller.bijection import _last_prime, phi_plus


def chi_square(observed, classes, draws):
    """Pearson statistic against the uniform distribution on `classes`."""
    expected = draws / len(classes)
    return sum((observed.get(c, 0) - expected) ** 2 / expected for c in classes)


def all_pm1_sequences(length):
    """Every +-1 tuple of the given length."""
    return product((1, -1), repeat=length)


def rotation_prefix_sums(terms, j):
    """Prefix sums of the j-th rotation, built and summed directly."""
    return list(accumulate(terms[j:] + terms[:j], initial=0))


def precedes(terms, p, q):
    """Position-order oracle: p comes before q iff s(p) < s(q), or s(p) = s(q)
    and p > q, over the partial sums s(0..L) of the terms.

    A strict total order once restricted to distinct positions; its sorted
    positions m_0..m_L are what cycle.rank_order lists.
    """
    s = list(accumulate(terms, initial=0))
    return s[p] < s[q] or (s[p] == s[q] and p > q)


def shifted_partial_sum(terms, j, p):
    """Prefix sum of the j-th rotation, measured at original position p.

    With s the partial sums and k their total, it is s(p) - s(j) for
    j <= p <= L and s(p) - s(j) + k for 0 <= p < j, so no rotation is built.
    """
    s = list(accumulate(terms, initial=0))
    if j <= p:
        return s[p] - s[j]
    return s[p] - s[j] + s[-1]


def nonpositive_count_at_rank(terms, i):
    """Rank-lemma oracle: positions with nonpositive prefix sum in the m_i-th
    rotation of sum-1 terms, m = cycle.rank_order.

    The lemma says the count is always i + 1: the nonpositive positions are
    m_0..m_i themselves.
    """
    shift = rank_order(CyclicSequence(terms))[i]
    return sum(
        1 for p in range(len(terms) + 1) if shifted_partial_sum(terms, shift, p) <= 0
    )


def dominating_shifts_by_rotation(terms):
    """Cycle Lemma oracle: shifts whose rotation has every prefix sum >= 1.

    Tests each rotation directly, independently of the rule in cycle.
    """
    return tuple(
        j for j in range(len(terms)) if min(rotation_prefix_sums(terms, j)[1:]) >= 1
    )


def geometric_inverse_by_horner(u):
    """Series-inverse oracle: 1/(1-u) by Horner, v <- 1 + u*v, `order` times.

    Powers of u beyond the order cannot reach degrees <= order, so this is
    exact through truncation; it uses only the generic series product,
    independently of the forward substitution in series.
    """
    v = one(u.order)
    for _ in range(u.order):
        v = one(u.order) + u * v
    return v


def count_recurrence_by_definition(n, k):
    """Recurrence oracle: N(n, k) by one generator sum per term.

    Builds its own rows 0..n, independently of the packed-row memo in
    counting, with Catalan coefficients by closed form.
    """
    return _recurrence_rows_by_definition(n)[n][k]


@cache
def _recurrence_rows_by_definition(n):
    cat = [math.comb(2 * i, i) // (i + 1) for i in range(n)]
    rows = [[1]]
    for m in range(1, n + 1):
        row = []
        for j in range(m + 1):
            total = sum(cat[p - 1] * rows[m - p][j] for p in range(1, m - j + 1))
            total += sum(cat[q - 1] * rows[m - q][j - q] for q in range(1, j + 1))
            row.append(total)
        rows.append(row)
    return rows


def lift_by_phi_plus(path, k):
    """Lift oracle: the k-fold phi_plus loop, rescanning the path each time.

    Applies the bijection's definition literally, independently of the
    one-pass block rule in bijection.lift.
    """
    for _ in range(k):
        path = phi_plus(path)
    return path


def splitmix64_by_scalar(seed):
    """Stream oracle: splitmix64 one word at a time, as publicly specified.

    Advances the state by gamma and mixes it with 64-bit masks after each
    product, independently of the block kernel in sampler.
    """
    mask = (1 << 64) - 1
    state = seed
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def randbelow_by_scalar(words, bound):
    """Bounded-draw oracle: the top bits of successive words, retried until
    they fall below `bound`."""
    bits = (bound - 1).bit_length()
    while True:
        value = next(words) >> (64 - bits)
        if value < bound:
            return value


def shuffle_by_randbelow(rng, items):
    """Shuffle oracle: descending Fisher-Yates, one rng.randbelow(i + 1)
    call per position, independently of the inlined draws in shuffle."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randbelow(i + 1)
        items[i], items[j] = items[j], items[i]


class DrawSource(RandomSource):
    """A RandomSource whose shuffle makes the given Fisher-Yates draws.

    Relies on shuffle reading its words from `self._words`, which this stub
    replaces: the draw at index i is the top i.bit_length() bits of the
    next word, so the word j << (64 - i.bit_length()) draws j.  `draws`
    lists (i, j) in the order shuffle asks, i descending.  With `reject`,
    every draw whose bits can exceed i is preceded by a word that draws
    the largest such value, which shuffle must skip.
    """

    def __init__(self, draws, *, reject=False):
        words = []
        for i, j in draws:
            bits = i.bit_length()
            if reject and (1 << bits) - 1 > i:
                words.append(((1 << bits) - 1) << (64 - bits))
            words.append(j << (64 - bits))
        self._words = iter(words)


class ArrangementSource(RandomSource):
    """A RandomSource whose one shuffle writes the given arrangement.

    Relies on the samplers taking all their randomness from a single
    rng.shuffle of their arrangement list: shuffle checks that the list
    holds the same steps, replaces its contents with `arrangement`, and
    refuses a second call.  It has no word stream, so any other draw fails.
    """

    def __init__(self, arrangement):
        self._arrangement = arrangement

    def shuffle(self, items):
        if self._arrangement is None or sorted(items) != sorted(self._arrangement):
            raise AssertionError("a second shuffle, or one of other steps")
        items[:] = self._arrangement
        self._arrangement = None


def all_draw_vectors(length):
    """Every Fisher-Yates draw vector on `length` items, as DrawSource
    takes it: (i, j) for i = length-1 .. 1 and j in 0..i, length! in all."""
    indices = range(length - 1, 0, -1)
    for js in product(*(range(i + 1) for i in indices)):
        yield list(zip(indices, js))


def heights(path):
    """Height profile h(0..len): h(0) = 0, h(i) = h(i-1) + step_i."""
    return list(accumulate(path.steps, initial=0))


def partition_by_definition(n):
    """Partition oracle: k -> |S_k|, zeros included, by building every path
    and scanning its steps with negativity, independently of the up-position
    rule in counting.partition_by_negativity."""
    counts = Counter(map(negativity, enumerate_balanced(n)))
    return {k: counts[k] for k in range(n + 1)}


def count_by_steps(n):
    """Definition oracle past the enumeration bound: counts[b] is the number
    of balanced paths of length 2n with b below-axis steps, b = 0..2n.

    One left-to-right pass over the 2n steps keeps, for each height h, a
    polynomial in t whose t^b coefficient counts the prefixes that end at h
    with b below-axis steps; heights that cannot return to 0 are dropped.  A
    step from a to b multiplies by t iff a + b < 0, the midpoint rule itself.
    Each polynomial is one int with slots of 2n + 2 bits (Kronecker
    substitution): every count is below 4^n, so no slot carries into the
    next, a step below the axis is a shift and each transition one addition.
    Imports nothing from the package and reads no Catalan number.
    """
    width = 2 * n + 2
    polys = {0: 1}
    for i in range(1, 2 * n + 1):
        reach = min(i, 2 * n - i)
        after = {}
        for a, poly in polys.items():
            for b in (a + 1, a - 1):
                if abs(b) <= reach:
                    after[b] = after.get(b, 0) + (poly << width if a + b < 0 else poly)
        polys = after
    mask = (1 << width) - 1
    return [polys[0] >> (b * width) & mask for b in range(2 * n + 1)]


def paths_by_negativity(n):
    """The classes themselves: k -> all paths of class (n, k), in order."""
    classes = {k: [] for k in range(n + 1)}
    for path in enumerate_balanced(n):
        classes[negativity(path)].append(path)
    return classes


def catalan_series(order):
    """c(x): coefficient of x^n is C_n (pure x, no t), for the identity tests."""
    return BivariateSeries(order, tuple((catalan(n),) + (0,) * n for n in range(order + 1)))


def zero(order):
    """The zero series truncated at `order`."""
    return BivariateSeries(order, tuple((0,) * (n + 1) for n in range(order + 1)))


def one(order):
    """The series 1 truncated at `order`."""
    return BivariateSeries(order, ((1,),) + zero(order).coeffs[1:])


def factor_last_prime(path, sign):
    """(s, prefix, inner, suffix) with path = prefix + s + inner + (-s) + suffix,
    around the last prime of sign `sign`, as the bijection splits it."""
    start, end = _last_prime(path, sign)
    steps = path.steps
    return (
        steps[start],
        LatticePath(steps[:start]),
        LatticePath(steps[start + 1 : end - 1]),
        LatticePath(steps[end:]),
    )
