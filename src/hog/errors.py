"""Exception types shared across the package."""

from __future__ import annotations

import sys

# Counts of more digits than this are written as "at least 2^n". The number
# is Python's default limit on int-to-decimal conversion, fixed here so that
# a message reads the same whatever limit the interpreter runs with
# (PYTHONINTMAXSTRDIGITS, sys.set_int_max_str_digits, or none at all).
PRINTED_DIGITS = getattr(sys.int_info, "default_max_str_digits", 4300)
# Digits per piece of a decimal conversion: below the lowest limit an
# interpreter accepts (640), so that no piece is refused.
_PIECE = 600


class HogError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(HogError):
    """A value violates a shape or typing constraint (bad dimensions,
    mismatched move sets, malformed parameters)."""


class BudgetExceededError(HogError):
    """An enumeration would exceed the configured budget.

    Carries the offending count so callers can report it.
    """

    def __init__(self, count: int, budget: int, what: str = "items"):
        self.count = count
        self.budget = budget
        self.what = what
        if count >= 10 ** PRINTED_DIGITS:
            shown = f"at least 2^{count.bit_length() - 1}"
        else:
            shown = _decimal(count)
        super().__init__(f"enumeration of {shown} {what} exceeds budget {budget}")


def _decimal(count) -> str:
    """str(count) for a count of at most PRINTED_DIGITS digits, written in
    pieces of _PIECE digits, each of which str() prints under any limit."""
    pieces = []
    while count >= 10 ** _PIECE:
        count, low = divmod(count, 10 ** _PIECE)
        pieces.append(f"{low:0{_PIECE}d}")
    return str(count) + "".join(reversed(pieces))


class NoFixedPointError(HogError):
    """A fixed-point witness was requested on a table with no fixed point."""


class GameFileError(StructuralError):
    """A game file failed to parse or validate.

    ``field`` names the offending JSON field when known.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)
