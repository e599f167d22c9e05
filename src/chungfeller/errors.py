"""Domain exceptions shared across the package.

Everything raised for a violated contract derives from ChungFellerError,
so callers (notably the CLI) can distinguish domain failures from bugs.
"""

from __future__ import annotations


class ChungFellerError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidCharacter(ChungFellerError):
    """Text input contains a character outside the expected alphabet."""

    def __init__(self, position: int, char: str):
        self.position = position
        self.char = char
        super().__init__(f"invalid character {char!r} at position {position}")


class NotBalanced(ChungFellerError):
    """Path has unequal numbers of up and down steps."""


class NotDyckPath(ChungFellerError):
    """Path is balanced but dips below the axis."""


class BoundExceeded(ChungFellerError):
    """Requested exhaustive enumeration beyond the configured bound."""


class IndexOutOfRange(ChungFellerError, ValueError):
    """An index or class parameter outside its admissible range; also a ValueError."""


class NoPositivePrime(ChungFellerError):
    """Path contains no positive prime excursion (negativity = n)."""


class NoNegativePrime(ChungFellerError):
    """Path contains no negative prime excursion (negativity = 0)."""


class NonPositiveSum(ChungFellerError):
    """Cyclic sequence has sum <= 0 where a positive sum is required."""


class NonUnitSum(ChungFellerError):
    """Cyclic sequence has sum != 1 where exactly 1 is required."""


class OrderMismatch(ChungFellerError):
    """Arithmetic on series with different truncation orders."""


class NonzeroConstantTerm(ChungFellerError):
    """Geometric inversion requires a series with zero constant term."""
