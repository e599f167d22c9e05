"""Balanced lattice paths with unit up/down steps.

A path is a finite sequence of +1 (up) and -1 (down) steps starting at
height 0; it is *balanced* when it has as many ups as downs, so it ends
back at height 0.  A step from height a to height b counts as *below the
axis* iff a + b < 0.  With unit steps this midpoint rule classifies every
step touching 0 from below as "below" and every step touching 0 from
above as "above", which makes the below-axis step count of a balanced
path even.  Half that count is the path's *negativity* k; Dyck paths are
exactly the balanced paths with k = 0.

Every balanced path factors uniquely into *signed primes*: maximal
excursions that touch height 0 only at their endpoints, positive ones
strictly above the axis internally, negative ones strictly below.
factor_primes returns them as index ranges over the steps tuple: prime j
is steps[e_{j-1}:e_j], where e_1 < ... < e_r are the returns to height 0
and e_0 = 0, and its sign is its first step.

The text form of a path is a string over 'U' (up) and 'D' (down).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .errors import IndexOutOfRange, InvalidCharacter, NotBalanced

UP = 1
DOWN = -1

_PATH_ALPHABET = "UD"


def _freeze_steps(owner, field: str) -> None:
    """Store owner.<field> as a tuple; ValueError unless every entry is +1 or -1."""
    values = getattr(owner, field)
    if not isinstance(values, tuple):
        values = tuple(values)
        object.__setattr__(owner, field, values)
    if values.count(UP) + values.count(DOWN) != len(values):
        raise ValueError(f"{field} must all be +1 or -1")


def parse(text: str, alphabet: str) -> tuple[int, ...]:
    """Steps of a string over alphabet = up char + down char; else InvalidCharacter."""
    step_of = {alphabet[0]: UP, alphabet[1]: DOWN}
    steps = []
    for i, char in enumerate(text):
        step = step_of.get(char)
        if step is None:
            raise InvalidCharacter(i, char)
        steps.append(step)
    return tuple(steps)


def render(steps: tuple[int, ...], alphabet: str) -> str:
    """Exact inverse of parse."""
    char_of = {UP: alphabet[0], DOWN: alphabet[1]}
    return "".join(char_of[step] for step in steps)


@dataclass(frozen=True)
class LatticePath:
    """Immutable sequence of +-1 steps."""

    steps: tuple[int, ...] = ()

    def __post_init__(self):
        _freeze_steps(self, "steps")

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __add__(self, other: "LatticePath") -> "LatticePath":
        if not isinstance(other, LatticePath):
            return NotImplemented
        return LatticePath(self.steps + other.steps)

    def __str__(self) -> str:
        return render_path(self)

    @property
    def up_count(self) -> int:
        return self.steps.count(UP)

    @property
    def down_count(self) -> int:
        return self.steps.count(DOWN)

    @property
    def is_balanced(self) -> bool:
        return self.up_count == self.down_count

    @property
    def half_length(self) -> int:
        """n for a path of length 2n (only meaningful when balanced)."""
        return len(self.steps) // 2


@dataclass(frozen=True)
class PathClass:
    """The class (n, k): balanced paths of length 2n with negativity k."""

    n: int
    k: int

    def __post_init__(self):
        check_class(self.n, self.k)

    @classmethod
    def of(cls, path: LatticePath) -> "PathClass":
        return cls(path.half_length, negativity(path))

    def contains(self, path: LatticePath) -> bool:
        return (
            len(path) == 2 * self.n
            and path.is_balanced
            and negativity(path) == self.k
        )


def check_class(n: int, k: int) -> None:
    """Raise IndexOutOfRange unless (n, k) names a class: 0 <= k <= n."""
    if not 0 <= k <= n:
        raise IndexOutOfRange(f"require 0 <= k <= n, got n={n}, k={k}")


def _check_balanced(path: LatticePath) -> None:
    if not path.is_balanced:
        raise NotBalanced(
            f"path has {path.up_count} up and {path.down_count} down steps"
        )


def parse_path(text: str) -> LatticePath:
    """Parse a 'U'/'D' string; raises InvalidCharacter for anything else."""
    return LatticePath(parse(text, _PATH_ALPHABET))


def render_path(path: LatticePath) -> str:
    """Exact inverse of parse_path."""
    return render(path.steps, _PATH_ALPHABET)


def heights(path: LatticePath) -> list[int]:
    """Height profile h(0..len): h(0) = 0, h(i) = h(i-1) + step_i."""
    return list(accumulate(path.steps, initial=0))


def negativity(path: LatticePath) -> int:
    """Half the number of below-axis steps of a balanced path.

    A step from height a to b is below the axis iff a + b < 0; for a
    balanced path the count is always even.
    """
    _check_balanced(path)
    below = 0
    h = 0
    for step in path.steps:
        prev = h
        h += step
        if prev + h < 0:
            below += 1
    return below // 2


def factor_primes(path: LatticePath) -> tuple[int, ...]:
    """The prime ends of a balanced path: every i >= 1 with height h(i) = 0.

    Prime j spans steps[e_{j-1}:e_j], with e_0 = 0; its first step is its
    sign.  The empty path has no primes.
    """
    _check_balanced(path)
    # a list comprehension: tuple(<generator>) here raised the peak RSS of
    # `sample --k` by about 1 MB on CPython 3.11
    return tuple([i for i, h in enumerate(accumulate(path.steps), start=1) if h == 0])


def is_dyck(path: LatticePath) -> bool:
    """True iff the path is balanced and never dips below the axis."""
    return path.is_balanced and negativity(path) == 0
