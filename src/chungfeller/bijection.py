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

lift applies phi_plus k times to a Dyck path of half-length n in
O(n + k) steps in all, instead of rebuilding the path k times.

*phi_plus opens the pair of the last unopened down-step.*  Call a U...D
pair of the input opened once phi_plus has split it into prefix + D and
U + inner.  Every negative prime of an iterate holds opened steps only
(its suffix holds negative primes only), so every unopened step lies in a
positive prime, and the last positive prime ends with the last unopened
D.  phi_plus keeps the unopened steps in their input order (those of
prefix, then those of inner; suffix has none), so the pair it opens is
the pair of the last unopened down-step of the input, and k-fold
phi_plus opens the pairs of the last k down-steps.

*The prime decomposition.*  Let d = P_1...P_r be the top-level primes
of the Dyck path, |.| the half-length, j the largest index with
|P_j...P_r| >= k >= 1, P_j = U + A + D and F = P_{j+1}...P_r, so
|F| < k.  The last k down-steps are the |F| down-steps of F, the last
step of P_j and the last k - 1 - |F| down-steps of A.  phi_plus of
P_1...P_j + X is P_1...P_j + phi_plus(X) while X, a balanced path,
still has a positive prime, so opening F first leaves it a negative
path G(F), P_j is then the last positive prime and wraps G(F) as its
suffix, and the top-level primes of A are last from then on:

    lift(d, k) = P_1...P_{j-1} + D + G(F) + U + lift(A, k - 1 - |F|).

G(F) = lift(F, |F|).  For F = Q_1...Q_s with Q_i = U + B_i + D the
formula at k = |F| gives j = 1 and G(Q_1...Q_s) = D + G(Q_2...Q_s) + U
+ G(B_1), which unrolls to

    G(Q_1...Q_s) = D^s + U + G(B_s) + U + G(B_{s-1}) ... + U + G(B_1),

i.e. D^{c(root)} followed by U + D^{c(v)} for each node v of the forest
in decreasing order of its down-step, c counting children.  lift builds
the match array of the input once and walks the top-level primes of a
range leftwards through it; each walked prime either is P_j, which the
next round descends into, or belongs to F, which G writes out once.
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


def _lift_forest(opener: list[int], start: int, stop: int, lifted: list[int]) -> None:
    """Append G(steps[start:stop]), the full lift of a Dyck range, to lifted.

    opener[i] is the up-step that the down-step at i closes.  The
    interiors B_i nest up to n deep, so the recursion of the module
    docstring runs on an explicit stack of ranges.
    """
    pending: list[tuple[int, int]] = []
    while True:
        interiors = []
        while stop > start:  # top-level primes, right to left
            first = opener[stop - 1]
            interiors.append((first + 1, stop - 1))
            stop = first
        lifted += [DOWN] * len(interiors)
        interiors.reverse()
        pending += interiors
        if not pending:
            return
        start, stop = pending.pop()
        lifted.append(UP)


def _lift(steps, k: int) -> list[int]:
    """The steps of lift(LatticePath(steps), k), with neither input checked.

    steps must be a Dyck path of half-length n and 0 <= k <= n.
    """
    # the match array: opener[i] is the up-step that the down-step at i closes
    opener = [0] * len(steps)
    opened = []
    for i, step in enumerate(steps):
        if step == UP:
            opened.append(i)
        else:
            opener[i] = opened.pop()
    lifted: list[int] = []
    start, stop = 0, len(steps)
    while k:
        # walk back from the last top-level prime of steps[start:stop] to
        # P_j = steps[first:end]; F = steps[end:stop] has half-length size
        end, size = stop, 0
        first = opener[end - 1]
        while size + (end - first) // 2 < k:
            size += (end - first) // 2
            end = first
            first = opener[end - 1]
        lifted += steps[start:first]
        lifted.append(DOWN)
        _lift_forest(opener, end, stop, lifted)
        lifted.append(UP)
        k -= 1 + size
        start, stop = first + 1, end - 1
    lifted += steps[start:stop]
    return lifted


def lift(path: LatticePath, k: int) -> LatticePath:
    """k-fold phi_plus: carries a Dyck path to class (n, k) bijectively.

    Returns the path of k successive phi_plus calls, in O(n + k) steps
    by the prime decomposition of the module docstring.
    """
    if not is_dyck(path):
        raise NotDyckPath("lift requires a Dyck path")
    check_class(path.half_length, k)
    return LatticePath(_lift(path.steps, k))
