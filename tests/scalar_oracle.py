"""Scalar reference forms of the stock quantifiers and selection functions.

These are the loops over one ``OutcomeTable`` of Python floats that
``hog.core``'s numpy kernels replaced. The tests compare each kernel with
them on finite tables. Their float expressions are the kernels' own, so the
answers must agree bit for bit; on NaN the two differ, and the tests pin the
kernels to numpy's answers there instead.

Membership tests have the signature ``contains(p, r, tol)`` and selections
``select(p)``; the parametrised kinds are built by a factory.
"""

from hog.core import as_outcome, outcome_distance
from hog.errors import NoFixedPointError, StructuralError


def _require_scalar(p, what):
    if not p.scalar:
        raise StructuralError(
            f"{what} requires scalar outcomes, got dimension {p.dim}")


def _mean(p):
    # Left to right, as the built-in sum adds floats before Python 3.12.
    _require_scalar(p, "average")
    total = 0
    for v in p.entries:
        total += v
    return total / len(p)


def max_contains(p, r, tol):
    _require_scalar(p, "max")
    return outcome_distance(as_outcome(r), max(p.entries)) <= tol


def min_contains(p, r, tol):
    _require_scalar(p, "min")
    return outcome_distance(as_outcome(r), min(p.entries)) <= tol


def fixed_point_contains(p, r, tol):
    _require_scalar(p, "fixed_point")
    r = as_outcome(r)
    if not isinstance(r, float):
        raise StructuralError("fixed_point requires scalar outcomes")
    return any(abs(p[m] - m) <= tol and abs(r - m) <= tol
               for m in range(len(p)))


def eps_ball_contains(center, radius):
    def contains(p, r, tol):
        if center >= len(p):
            raise StructuralError(
                f"eps_ball center {center} outside table of size {len(p)}")
        return outcome_distance(as_outcome(r), p[center]) <= radius + tol
    return contains


def average_contains(p, r, tol):
    mean = _mean(p)
    r = as_outcome(r)
    best = min(abs(v - mean) for v in p.entries)
    return any(abs(v - mean) == best and outcome_distance(r, v) <= tol
               for v in p.entries)


def argmax(p):
    _require_scalar(p, "argmax")
    best = 0
    for m in range(1, len(p)):
        if p[m] > p[best]:
            best = m
    return best


def argmin(p):
    _require_scalar(p, "argmin")
    best = 0
    for m in range(1, len(p)):
        if p[m] < p[best]:
            best = m
    return best


def nearest_mean(p):
    mean = _mean(p)
    best = 0
    for m in range(1, len(p)):
        if abs(p[m] - mean) < abs(p[best] - mean):
            best = m
    return best


def fixed_point_witness(tol=0.0):
    def select(p):
        _require_scalar(p, "fixed_point_witness")
        for m in range(len(p)):
            if abs(p[m] - m) <= tol:
                return m
        raise NoFixedPointError(f"no fixed point in {p!r}")
    return select


def constant(move):
    def select(p):
        if move >= len(p):
            raise StructuralError(
                f"constant move {move} outside table of size {len(p)}")
        return move
    return select
