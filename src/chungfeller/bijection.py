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
steps tuple around the index range [start, end) of the last prime of its
sign: prefix = steps[:start], inner = steps[start+1:end-1] and suffix =
steps[end:].

lift applies phi_plus k times to a Dyck path of half-length n in one
pass over its steps, O(n), instead of rebuilding the path k times.

*phi_plus opens the pair of the last unopened down-step.*  Call a U...D
pair of the input opened once phi_plus has split it into prefix + D and
U + inner.  Every negative prime of an iterate holds opened steps only
(its suffix holds negative primes only), so every unopened step lies in a
positive prime, and the last positive prime ends with the last unopened
D.  phi_plus keeps the unopened steps in their input order (those of
prefix, then those of inner; suffix has none), so the pair it opens is
the pair of the last unopened down-step of the input, and k-fold
phi_plus opens the pairs of the last k down-steps.

*One pass.*  Let d = P_1...P_r be the top-level primes, |.| the
half-length, P_j = U + A + D the last with |P_j...P_r| >= k >= 1 and
F = P_{j+1}...P_r.  phi_plus acts inside F while F has a positive prime,
leaving G(F) = lift(F, |F|), a negative path; P_j is then the last
positive prime, with suffix G(F), and the primes of A are last after it:

    lift(d, k) = P_1...P_{j-1} + D + G(F) + U + lift(A, k - 1 - |F|),
    G(Q_1...Q_s) = D^s + U + G(B_s) + ... + U + G(B_1),  Q_i = U + B_i + D.

Unrolled, lift(d, k) has one block per node of the forest of pairs:
first the root's, its unopened top-level primes verbatim and one D per
opened one; then, for each opened pair v in decreasing order of its
down-step, U, v's unopened children verbatim and one D per opened child.
By the lemma a pair's opened children are a suffix of its children, and
a pair closes after them, so lift writes each block reversed when the
pair's down-step is read, the root's at the end, and reverses the list.
"""

from __future__ import annotations

from .errors import NoNegativePrime, NoPositivePrime, NotDyckPath
from .paths import DOWN, UP, LatticePath, check_class, factor_primes, is_dyck


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


def _lift(steps, k: int) -> list[int]:
    """The steps of lift(LatticePath(steps), k), with neither input checked.

    steps must be a Dyck path of half-length n and 0 <= k <= n.
    """
    cut = len(steps) // 2 - k  # down-steps before the first opened one
    counts = [0] * (len(steps) + 1)  # opened children per up-step, the root at -1
    ends = [len(steps)] * (len(steps) + 1)  # the up-step of the first opened child
    ups, lifted = [-1], []  # up-steps not yet closed, the root at -1
    for i, step in enumerate(steps):
        if step == UP:
            ups.append(i)
            continue
        first = ups.pop()
        if cut:
            cut -= 1
            continue
        parent = ups[-1]
        lifted += [DOWN] * counts[first]
        lifted += steps[(ends[first] if counts[first] else i) - 1 : first : -1]
        lifted.append(UP)
        if not counts[parent]:
            ends[parent] = first
        counts[parent] += 1
    lifted += [DOWN] * counts[-1]
    lifted += steps[: ends[-1]][::-1]
    lifted.reverse()
    return lifted


def lift(path: LatticePath, k: int) -> LatticePath:
    """k-fold phi_plus: carries a Dyck path to class (n, k) bijectively.

    Returns the path of k successive phi_plus calls, in one O(n) pass
    (see the module docstring).
    """
    if not is_dyck(path):
        raise NotDyckPath("lift requires a Dyck path")
    check_class(path.half_length, k)
    return LatticePath(_lift(path.steps, k))
