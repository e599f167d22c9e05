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
LatticePath and cycle.CyclicSequence hold their +-1 entries as a tuple:
_freeze_steps turns the argument into one and checks every entry, and
it returns the tuple for __init__ to store.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import IndexOutOfRange, InvalidCharacter, NotBalanced

UP = 1
DOWN = -1

_PATH_ALPHABET = "UD"


def _freeze_steps(values, field: str) -> tuple[int, ...]:
    """values as a tuple; ValueError unless every entry is +1 or -1."""
    values = tuple(values)
    if values.count(UP) + values.count(DOWN) != len(values):
        raise ValueError(f"{field} must all be +1 or -1")
    return values


class _Value:
    """Immutable value with fields `_fields`, stored in slots.

    Compares equal only to an instance of the same class with equal
    fields, hashes the fields, and refuses assignment.  __init__ stores
    each field once through object.__setattr__; copy and pickle rebuild
    the value through __init__, so a copy is validated like the original.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


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


class LatticePath(_Value):
    """Immutable sequence of +-1 steps."""

    __slots__ = _fields = ("steps",)

    def __init__(self, steps: tuple[int, ...] = ()):
        object.__setattr__(self, "steps", self.__post_init__(steps))

    # validation is a method of its own, called once from __init__, because
    # perfbench/tracer.py wraps LatticePath.__post_init__ and
    # CyclicSequence.__post_init__ by name
    def __post_init__(self, steps: tuple[int, ...]) -> tuple[int, ...]:
        return _freeze_steps(steps, "steps")

    def __len__(self) -> int:
        return len(self.steps)

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


def check_class(n: int, k: int) -> None:
    """Raise IndexOutOfRange unless (n, k) names a class: 0 <= k <= n."""
    if not 0 <= k <= n:
        raise IndexOutOfRange(f"require 0 <= k <= n, got n={n}, k={k}")


def check_half_length(n: int) -> None:
    """Raise IndexOutOfRange unless n is a half-length: n >= 0."""
    if n < 0:
        raise IndexOutOfRange(f"half-length must be nonnegative, got {n}")


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
