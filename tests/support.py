"""Shared helpers for the test suite."""

from itertools import accumulate, product

from chungfeller.bijection import phi_plus
from chungfeller.series import one


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
