"""Shared helpers for the test suite."""

from itertools import accumulate, product

from chungfeller import BivariateSeries, LatticePath, enumerate_balanced, negativity
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


def lift_by_phi_plus(path, k):
    """Lift oracle: the k-fold phi_plus loop, rescanning the path each time.

    Applies the bijection's definition literally, independently of the
    block stack in bijection.lift.
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


def heights(path):
    """Height profile h(0..len): h(0) = 0, h(i) = h(i-1) + step_i."""
    return list(accumulate(path.steps, initial=0))


def paths_by_negativity(n):
    """The classes themselves: k -> all paths of class (n, k), in order."""
    classes = {k: [] for k in range(n + 1)}
    for path in enumerate_balanced(n):
        classes[negativity(path)].append(path)
    return classes


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
