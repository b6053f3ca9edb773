"""Exception types shared across the package."""

from __future__ import annotations


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
        try:
            shown = str(count)
        except ValueError:  # more digits than str() prints
            shown = f"at least 2^{count.bit_length() - 1}"
        super().__init__(f"enumeration of {shown} {what} exceeds budget {budget}")


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
