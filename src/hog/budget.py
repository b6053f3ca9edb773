"""Enumeration budget guard.

Every exhaustive operation is intrinsically exponential, so each one checks
its planned count against a budget before starting. The default is 10**6,
overridable per call or globally through the HOG_BUDGET environment variable.
"""

from __future__ import annotations

import os

from .errors import BudgetExceededError, StructuralError

DEFAULT_BUDGET = 1_000_000

ENV_VAR = "HOG_BUDGET"


def resolve_budget(budget: int | None = None) -> int:
    """Return the effective budget: explicit value, else HOG_BUDGET, else default."""
    if budget is not None:
        return int(budget)
    env = os.environ.get(ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise StructuralError(f"{ENV_VAR} must be an integer, got {env!r}")
    return DEFAULT_BUDGET


def check_budget(count: int, budget: int | None, what: str) -> None:
    """Raise BudgetExceededError if ``count`` exceeds the effective budget."""
    limit = resolve_budget(budget)
    if count > limit:
        raise BudgetExceededError(count, limit, what)
