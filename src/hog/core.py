"""Quantifiers and selection functions over finite move sets.

A quantifier assigns to each outcome table p : X -> R a set of acceptable
outcomes; a selection function picks a move from the table. The selection
attains the quantifier when the outcome of its chosen move is acceptable.
Max/argmax are the prototypes; fixed-point operators, epsilon-balls around a
designated move, and nearest-to-mean averaging are the other stock instances.

All values here are immutable and all operations are pure and deterministic
(ties break toward the lowest move id), so they are safe to share across
threads.
"""

from __future__ import annotations

import itertools
import numbers
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .budget import check_budget
from .errors import NoFixedPointError, StructuralError

MoveId = int
# An outcome is a real scalar or a fixed-length real vector.
Outcome = float | tuple[float, ...]


def as_outcome(value) -> float | tuple[float, ...]:
    """Normalize a raw value to a scalar float or a tuple of floats."""
    if isinstance(value, bool) or isinstance(value, str):
        raise StructuralError(f"not an outcome: {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, Sequence) or hasattr(value, "__len__"):
        try:
            vec = tuple(float(v) for v in value)
        except (TypeError, ValueError):
            raise StructuralError(f"not an outcome: {value!r}")
        if not vec:
            raise StructuralError("outcome vectors must be nonempty")
        return vec
    try:
        return float(value)  # numpy and similar scalar types
    except (TypeError, ValueError):
        raise StructuralError(f"not an outcome: {value!r}")


def outcome_dim(r) -> int:
    """Dimension of an outcome: 1 for scalars, length for vectors."""
    return 1 if isinstance(r, float) else len(r)


def outcome_distance(a, b) -> float:
    """Absolute difference for scalars, max-abs componentwise for vectors."""
    a_scalar = isinstance(a, float)
    b_scalar = isinstance(b, float)
    if a_scalar and b_scalar:
        return abs(a - b)
    if a_scalar or b_scalar or len(a) != len(b):
        raise StructuralError(
            f"outcome dimension mismatch: {outcome_dim(a)} vs {outcome_dim(b)}"
        )
    return max(abs(x - y) for x, y in zip(a, b))


class OutcomeTable:
    """Total map from the move ids 0..n-1 to outcomes.

    Entries are fixed at construction; every entry must have the same
    dimension.
    """

    __slots__ = ("_entries", "_dim")

    def __init__(self, entries: Iterable):
        normalized = tuple(as_outcome(v) for v in entries)
        if not normalized:
            raise StructuralError("outcome tables must cover a nonempty move set")
        dim = outcome_dim(normalized[0])
        scalar = isinstance(normalized[0], float)
        for v in normalized[1:]:
            if isinstance(v, float) is not scalar or outcome_dim(v) != dim:
                raise StructuralError("mixed outcome dimensions in table")
        self._entries = normalized
        self._dim = dim

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def scalar(self) -> bool:
        return isinstance(self._entries[0], float)

    @property
    def entries(self) -> tuple:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, move: MoveId):
        return self._entries[move]

    def __iter__(self):
        return iter(self._entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, OutcomeTable) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        return f"OutcomeTable({list(self._entries)!r})"


class QuantifierKind(str, Enum):
    MAX = "max"
    MIN = "min"
    FIXED_POINT = "fixed_point"
    EPS_BALL = "eps_ball"
    AVERAGE = "average"
    CUSTOM = "custom"


class SelectionKind(str, Enum):
    ARGMAX = "argmax"
    ARGMIN = "argmin"
    FIXED_POINT_WITNESS = "fixed_point_witness"
    CONSTANT = "constant"
    NEAREST_MEAN = "nearest_mean"
    CUSTOM = "custom"


@dataclass(frozen=True)
class Quantifier:
    """Membership test over outcome tables.

    ``contains(p, r, tol)`` decides whether outcome ``r`` is acceptable for
    table ``p`` at tolerance ``tol``. ``canonical`` is present exactly when
    the quantifier is single-valued, in which case
    ``contains(p, r, tol) == (distance(r, canonical(p)) <= tol)``.
    ``in_domain`` is None for total quantifiers; otherwise it decides whether
    the quantifier has any acceptable outcome at all for ``p`` (used by
    exhaustive attainment checks to skip tables outside the domain).
    ``descriptor`` is the tagged record used by the game file format; custom
    quantifiers without one cannot be serialized.

    ``contains_stacked(tables, values, tol)``, when present, is ``contains``
    over a stack: ``tables`` of shape ``(N, m)`` (``(N, m, d)`` for vector
    outcomes) and ``values`` of shape ``(N,)`` (``(N, d)``) give a bool
    array of shape ``(N,)``. It evaluates the same float expressions as
    ``contains``, so on the same finite tables row n of the result equals
    ``contains(OutcomeTable(tables[n]), values[n], tol)``, and it raises
    the same StructuralError for tables ``contains`` refuses. The max, min,
    eps_ball and fixed_point quantifiers have one. The average quantifier
    has none: its exact tie test on the mean does not stay conservative when
    the tables carry rounding errors, as screens rely on. Custom quantifiers
    have none.
    """

    kind: QuantifierKind
    contains: Callable
    canonical: Callable | None = None
    in_domain: Callable | None = None
    descriptor: Mapping | None = None
    contains_stacked: Callable | None = None

    @property
    def single_valued(self) -> bool:
        return self.canonical is not None


@dataclass(frozen=True)
class SelectionFunction:
    """Chooses a move from an outcome table; deterministic given tie-breaks."""

    kind: SelectionKind
    select: Callable
    descriptor: Mapping | None = None


@dataclass(frozen=True)
class DiagonalPoint:
    """A table together with a move; the per-player equilibrium condition is
    membership of ``table[move]`` in the quantifier's value set."""

    table: OutcomeTable
    move: MoveId

    def satisfies(self, phi: Quantifier, tol: float = 0.0) -> bool:
        return phi.contains(self.table, self.table[self.move], tol)


def _require_scalar(p: OutcomeTable, what: str) -> None:
    if not p.scalar:
        raise StructuralError(f"{what} requires scalar outcomes, got dimension {p.dim}")


def _stacked(tables, values, what: str, scalar: bool):
    """``tables`` and ``values`` as float arrays whose shapes match, as the
    stacked membership tests take them; ``scalar`` demands scalar
    outcomes."""
    tables = np.asarray(tables, dtype=float)
    values = np.asarray(values, dtype=float)
    if (tables.ndim not in (2, 3)
            or values.shape != tables.shape[:1] + tables.shape[2:]):
        raise StructuralError(
            f"{what}: tables of shape {tables.shape} and values of shape "
            f"{values.shape} do not stack")
    if scalar and tables.ndim == 3:
        raise StructuralError(
            f"{what} requires scalar outcomes, got dimension {tables.shape[2]}")
    return tables, values


def _argmax(p: OutcomeTable) -> MoveId:
    _require_scalar(p, "argmax")
    best = 0
    for m in range(1, len(p)):
        if p[m] > p[best]:
            best = m
    return best


def _argmin(p: OutcomeTable) -> MoveId:
    _require_scalar(p, "argmin")
    best = 0
    for m in range(1, len(p)):
        if p[m] < p[best]:
            best = m
    return best


def _mean(p: OutcomeTable) -> float:
    _require_scalar(p, "average")
    return sum(p.entries) / len(p)


def _nearest_mean_move(p: OutcomeTable) -> MoveId:
    mean = _mean(p)
    best = 0
    for m in range(1, len(p)):
        if abs(p[m] - mean) < abs(p[best] - mean):
            best = m
    return best


def max_quantifier() -> Quantifier:
    """Single-valued quantifier whose value is the maximum entry."""

    def canonical(p: OutcomeTable):
        _require_scalar(p, "max")
        return max(p.entries)

    def contains(p: OutcomeTable, r, tol: float) -> bool:
        return outcome_distance(as_outcome(r), canonical(p)) <= tol

    def contains_stacked(tables, values, tol: float) -> np.ndarray:
        tables, values = _stacked(tables, values, "max", scalar=True)
        return np.abs(values - tables.max(axis=1)) <= tol

    return Quantifier(QuantifierKind.MAX, contains, canonical,
                      descriptor={"kind": "max"},
                      contains_stacked=contains_stacked)


def min_quantifier() -> Quantifier:
    """Single-valued quantifier whose value is the minimum entry."""

    def canonical(p: OutcomeTable):
        _require_scalar(p, "min")
        return min(p.entries)

    def contains(p: OutcomeTable, r, tol: float) -> bool:
        return outcome_distance(as_outcome(r), canonical(p)) <= tol

    def contains_stacked(tables, values, tol: float) -> np.ndarray:
        tables, values = _stacked(tables, values, "min", scalar=True)
        return np.abs(values - tables.min(axis=1)) <= tol

    return Quantifier(QuantifierKind.MIN, contains, canonical,
                      descriptor={"kind": "min"},
                      contains_stacked=contains_stacked)


def fixed_point_quantifier() -> Quantifier:
    """Acceptable outcomes are the fixed points of the table: move ids m with
    p[m] = m. Only meaningful when outcomes are drawn from the move index
    space. Not total: tables without a fixed point have no acceptable
    outcome."""

    def contains(p: OutcomeTable, r, tol: float) -> bool:
        _require_scalar(p, "fixed_point")
        r = as_outcome(r)
        if not isinstance(r, float):
            raise StructuralError("fixed_point requires scalar outcomes")
        return any(
            abs(p[m] - m) <= tol and abs(r - m) <= tol for m in range(len(p))
        )

    def contains_stacked(tables, values, tol: float) -> np.ndarray:
        tables, values = _stacked(tables, values, "fixed_point", scalar=True)
        moves = np.arange(tables.shape[1], dtype=float)
        return ((np.abs(tables - moves) <= tol)
                & (np.abs(values[:, None] - moves) <= tol)).any(axis=1)

    def in_domain(p: OutcomeTable, tol: float) -> bool:
        _require_scalar(p, "fixed_point")
        return any(abs(p[m] - m) <= tol for m in range(len(p)))

    return Quantifier(QuantifierKind.FIXED_POINT, contains, None, in_domain,
                      descriptor={"kind": "fixed_point"},
                      contains_stacked=contains_stacked)


def eps_ball_quantifier(center_move: MoveId, radius: float) -> Quantifier:
    """Acceptable outcomes are those within ``radius`` of the outcome at
    ``center_move`` (closed ball; membership at tolerance tol widens the
    radius by tol)."""
    # The chained comparison is False for NaN and for numbers too large for
    # a float, such as a JSON integer of 400 digits.
    if (isinstance(radius, bool) or not isinstance(radius, numbers.Real)
            or not 0 < radius <= sys.float_info.max):
        raise StructuralError("eps_ball radius must be a finite number > 0")
    if (isinstance(center_move, bool)
            or not isinstance(center_move, numbers.Integral) or center_move < 0):
        raise StructuralError("eps_ball center must be a valid move id")

    def check_center(size: int) -> None:
        if center_move >= size:
            raise StructuralError(
                f"eps_ball center {center_move} outside table of size {size}"
            )

    def contains(p: OutcomeTable, r, tol: float) -> bool:
        check_center(len(p))
        return outcome_distance(as_outcome(r), p[center_move]) <= radius + tol

    def contains_stacked(tables, values, tol: float) -> np.ndarray:
        tables, values = _stacked(tables, values, "eps_ball", scalar=False)
        check_center(tables.shape[1])
        dist = np.abs(values - tables[:, center_move])
        if dist.ndim == 2:
            dist = dist.max(axis=1)
        return dist <= radius + tol

    return Quantifier(QuantifierKind.EPS_BALL, contains,
                      descriptor={"kind": "eps_ball",
                                  "center": int(center_move),
                                  "radius": float(radius)},
                      contains_stacked=contains_stacked)


def average_quantifier() -> Quantifier:
    """Finite stand-in for the averaging quantifier: acceptable outcomes are
    the table entries closest to the arithmetic mean.

    The exact mean is usually not attained by any move of a finite table, so
    the attainable version is used; the nearest-mean selection attains it by
    construction.
    """

    def contains(p: OutcomeTable, r, tol: float) -> bool:
        mean = _mean(p)
        r = as_outcome(r)
        best = min(abs(v - mean) for v in p.entries)
        return any(
            abs(v - mean) == best and outcome_distance(r, v) <= tol
            for v in p.entries
        )

    return Quantifier(QuantifierKind.AVERAGE, contains,
                      descriptor={"kind": "average"})


def custom_quantifier(contains: Callable, canonical: Callable | None = None,
                      in_domain: Callable | None = None) -> Quantifier:
    """Wrap a user membership test. Totality is the caller's responsibility:
    a partial intent that is not expressed through ``in_domain`` cannot be
    detected by the exhaustive checkers."""
    return Quantifier(QuantifierKind.CUSTOM, contains, canonical, in_domain)


def argmax_selection() -> SelectionFunction:
    return SelectionFunction(SelectionKind.ARGMAX, _argmax,
                             descriptor={"kind": "argmax"})


def argmin_selection() -> SelectionFunction:
    return SelectionFunction(SelectionKind.ARGMIN, _argmin,
                             descriptor={"kind": "argmin"})


def fixed_point_witness(tol: float = 0.0) -> SelectionFunction:
    """Selects the lowest move that is a fixed point of the table; raises
    NoFixedPointError when there is none."""

    def select(p: OutcomeTable) -> MoveId:
        _require_scalar(p, "fixed_point_witness")
        for m in range(len(p)):
            if abs(p[m] - m) <= tol:
                return m
        raise NoFixedPointError(f"no fixed point in {p!r}")

    return SelectionFunction(SelectionKind.FIXED_POINT_WITNESS, select,
                             descriptor={"kind": "fixed_point_witness"})


def constant_selection(move: MoveId) -> SelectionFunction:
    if (isinstance(move, bool) or not isinstance(move, numbers.Integral)
            or move < 0):
        raise StructuralError("constant selection move must be a valid move id")

    def select(p: OutcomeTable) -> MoveId:
        if move >= len(p):
            raise StructuralError(
                f"constant move {move} outside table of size {len(p)}"
            )
        return move

    return SelectionFunction(SelectionKind.CONSTANT, select,
                             descriptor={"kind": "constant", "move": int(move)})


def nearest_mean_selection() -> SelectionFunction:
    """Selects the lowest move whose outcome is closest to the table mean;
    attains the average quantifier."""
    return SelectionFunction(SelectionKind.NEAREST_MEAN, _nearest_mean_move,
                             descriptor={"kind": "nearest_mean"})


def custom_selection(select: Callable) -> SelectionFunction:
    return SelectionFunction(SelectionKind.CUSTOM, select)


_QUANTIFIER_FACTORIES = {
    QuantifierKind.MAX: lambda params: max_quantifier(),
    QuantifierKind.MIN: lambda params: min_quantifier(),
    QuantifierKind.FIXED_POINT: lambda params: fixed_point_quantifier(),
    QuantifierKind.AVERAGE: lambda params: average_quantifier(),
    QuantifierKind.EPS_BALL: lambda params: eps_ball_quantifier(
        params["center"], params["radius"]),
}

_SELECTION_FACTORIES = {
    SelectionKind.ARGMAX: lambda params: argmax_selection(),
    SelectionKind.ARGMIN: lambda params: argmin_selection(),
    SelectionKind.FIXED_POINT_WITNESS: lambda params: fixed_point_witness(),
    SelectionKind.NEAREST_MEAN: lambda params: nearest_mean_selection(),
    SelectionKind.CONSTANT: lambda params: constant_selection(params["move"]),
}


def make_standard_quantifier(kind, **params) -> Quantifier:
    """Build a catalogue quantifier by kind tag.

    EPS_BALL takes center (move id) and radius (> 0). The other kinds take no
    parameters. CUSTOM is not constructible here; use custom_quantifier.
    """
    kind = QuantifierKind(kind)
    try:
        factory = _QUANTIFIER_FACTORIES[kind]
    except KeyError:
        raise StructuralError(f"no standard quantifier of kind {kind.value!r}")
    try:
        return factory(params)
    except KeyError as exc:
        raise StructuralError(f"missing parameter {exc} for {kind.value}")


def make_standard_selection(kind, **params) -> SelectionFunction:
    """Build a catalogue selection function by kind tag."""
    kind = SelectionKind(kind)
    try:
        factory = _SELECTION_FACTORIES[kind]
    except KeyError:
        raise StructuralError(f"no standard selection of kind {kind.value!r}")
    try:
        return factory(params)
    except KeyError as exc:
        raise StructuralError(f"missing parameter {exc} for {kind.value}")


def attains(eps: SelectionFunction, phi: Quantifier, p: OutcomeTable,
            tol: float = 0.0) -> bool:
    """True iff the outcome of the selected move is acceptable: the
    single-table attainment check."""
    return phi.contains(p, p[eps.select(p)], tol)


def attains_exhaustively(eps: SelectionFunction, phi: Quantifier,
                         move_set_size: int, outcome_grid: Iterable,
                         tol: float = 0.0, budget: int | None = None) -> bool:
    """Certify attainment over every table with entries drawn from a finite
    grid. Tables outside the quantifier's domain (no acceptable outcome at
    all) are skipped, matching attainment's quantification over the domain.
    """
    if move_set_size < 1:
        raise StructuralError("move_set_size must be >= 1")
    grid = [as_outcome(v) for v in outcome_grid]
    if not grid:
        raise StructuralError("outcome_grid must be nonempty")
    count = len(grid) ** move_set_size
    check_budget(count, budget, "outcome tables")
    for combo in itertools.product(grid, repeat=move_set_size):
        p = OutcomeTable(combo)
        if phi.in_domain is not None and not phi.in_domain(p, tol):
            continue
        if not attains(eps, phi, p, tol):
            return False
    return True
