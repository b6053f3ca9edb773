"""Quantifiers and selection functions over finite move sets.

A quantifier assigns to each outcome table p : X -> R a set of acceptable
outcomes; a selection function picks a move from the table. The selection
attains the quantifier when the outcome of its chosen move is acceptable.
Max/argmax are the prototypes; fixed-point operators, epsilon-balls around a
designated move, and nearest-to-mean averaging are the other stock instances.

Each stock kind is one numpy kernel over a stack of tables, to which the
solvers pass slices of their payoff arrays. ``contains``, ``select`` and
their ``_stacked`` forms are thin public wrappers that check shapes and
accept an ``OutcomeTable``, the API-edge form of one table; custom kinds
are called on one ``OutcomeTable`` at a time. Games reject NaN and
infinite payoffs; tables passed to the wrappers follow numpy's rules: max
and min propagate NaN, argmax and argmin return the first NaN, and a
difference of two equal infinities is NaN, which no tolerance accepts.
nearest_mean and average compare the distances to the mean as a
left-to-right scan with ``<`` does, so a NaN distance (a NaN entry, or an
infinite entry equal to an infinite mean) is nearest only at move 0.

All values here are immutable and all operations are pure and deterministic
(ties break toward the lowest move id), so they are safe to share across
threads. The parameterless stock factories (``max_quantifier``,
``argmax_selection`` and the rest) return one shared instance per kind, whose
``descriptor`` is a read-only mapping; ``eps_ball_quantifier``,
``constant_selection``, ``fixed_point_witness`` and the custom factories build
a fresh object on every call.
"""

from __future__ import annotations

import functools
import itertools
import numbers
import sys
from collections import abc
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

import numpy as np

from .budget import check_budget
from .errors import HogError, NoFixedPointError, StructuralError

MoveId = int
# An outcome is a real scalar or a fixed-length real vector.
Outcome = float | tuple[float, ...]


def is_move_type(kind: type) -> bool:
    """Whether values of this type may be move ids: Python and numpy
    integers, not bools. Test it before a value, as 1.0 and True equal 1."""
    return kind is int or (issubclass(kind, (int, np.integer))
                           and kind is not bool)


def is_move(move, count: int) -> bool:
    """Whether ``move`` is a move id of a set of ``count`` moves."""
    return is_move_type(type(move)) and 0 <= move < count


def _real(value) -> float:
    """``value`` as a float, if it is a real number: not a bool, a string
    or bytes, and within the float range."""
    if isinstance(value, (bool, np.bool_, str, bytes)):
        raise StructuralError(f"not an outcome: {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise StructuralError("outcome beyond the float range") from None
    except (TypeError, ValueError):
        raise StructuralError(f"not an outcome: {value!r}") from None


def as_outcome(value) -> float | tuple[float, ...]:
    """Normalize a raw value to a scalar float or a tuple of floats; a
    vector's entries follow the scalar rule. A mapping or a set is no
    vector: it has no order of entries."""
    if isinstance(value, (str, bytes)) or not hasattr(value, "__len__"):
        return _real(value)
    if isinstance(value, (abc.Mapping, abc.Set)):
        raise StructuralError(f"not an outcome: {value!r}")
    try:
        vec = tuple(map(_real, value))
    except TypeError:  # sized but not iterable, as a 0-d array
        raise StructuralError(f"not an outcome: {value!r}") from None
    if not vec:
        raise StructuralError("outcome vectors must be nonempty")
    return vec


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
    """Total map from the move ids 0..n-1 to outcomes: one table at the API
    edge, as the public functions return it and custom quantifiers and
    selections receive it.

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


def quiet(on: bool = True):
    """numpy's overflow and invalid warnings off, when ``on``: a kernel's
    answer on an overflowing difference or mean is the intended one."""
    return np.errstate(over="ignore", invalid="ignore") if on else nullcontext()


def _table(p) -> np.ndarray:
    """One table, an OutcomeTable or an array, as a float array."""
    return np.asarray(p.entries if isinstance(p, OutcomeTable) else p,
                      dtype=float)


def _stack(tables, what: str) -> np.ndarray:
    tables = np.asarray(tables, dtype=float)
    if tables.ndim not in (2, 3):
        raise StructuralError(
            f"{what}: tables of shape {tables.shape} do not stack")
    if 0 in tables.shape[1:]:
        raise StructuralError("outcome tables must cover a nonempty move set")
    return tables


def _each_table(tables: np.ndarray):
    """One OutcomeTable per table of a stack, for custom quantifiers and
    selections: the one place where an array becomes an OutcomeTable."""
    return map(OutcomeTable, tables.tolist())


@dataclass(frozen=True)
class Quantifier:
    """Membership test over outcome tables.

    ``kernel(tables, values, tol)`` is the test, over a stack: float arrays
    of tables ``(N, m)`` (``(N, m, d)`` for vector outcomes) and of ``k``
    candidate values per table ``(N, k)`` (``(N, k, d)``) give a bool array
    ``(N, k)``, whether each value is acceptable for its table. It raises
    StructuralError for table shapes the quantifier refuses (vector
    outcomes for a scalar kind, an eps_ball centre outside the table).

    ``canonical`` is present exactly when the quantifier is single-valued,
    in which case ``contains(p, r, tol) == (distance(r, canonical(p)) <=
    tol)``. ``in_domain`` is None for total quantifiers; otherwise it
    decides whether the quantifier has any acceptable outcome at all for
    ``p`` (used by exhaustive attainment checks to skip tables outside the
    domain). ``descriptor`` is the tagged record used by the game file
    format; custom quantifiers without one cannot be serialized.
    """

    kind: QuantifierKind
    kernel: Callable
    canonical: Callable | None = None
    in_domain: Callable | None = None
    descriptor: Mapping | None = None

    @property
    def single_valued(self) -> bool:
        return self.canonical is not None

    def contains(self, p, r, tol: float) -> bool:
        """Whether ``r`` is acceptable for the table ``p`` (or its array)."""
        return bool(self.contains_stacked(
            _table(p)[None], np.asarray(as_outcome(r))[None, None], tol)[0, 0])

    def contains_stacked(self, tables, values, tol: float) -> np.ndarray:
        """The kernel, with shapes checked and numpy's overflow warnings off."""
        tables = _stack(tables, self.kind.value)
        values = np.asarray(values, dtype=float)
        if (values.ndim != tables.ndim or values.shape[:1] + values.shape[2:]
                != tables.shape[:1] + tables.shape[2:]):
            raise StructuralError(
                f"{self.kind.value}: values of shape {values.shape} do not "
                f"stack with tables of shape {tables.shape}")
        with quiet():
            return self.kernel(tables, values, tol)


@dataclass(frozen=True)
class SelectionFunction:
    """Chooses a move from an outcome table; deterministic given tie-breaks.

    ``kernel(tables)`` is the choice, over a stack: a float array of tables
    ``(N, m)`` (``(N, m, d)`` for vector outcomes) gives an intp array
    ``(N,)``. It raises the error of the first row it cannot choose on.
    """

    kind: SelectionKind
    kernel: Callable
    descriptor: Mapping | None = None

    def select(self, p) -> MoveId:
        """The move chosen on the table ``p`` (or its array)."""
        return int(self.select_stacked(_table(p)[None])[0])

    def select_stacked(self, tables) -> np.ndarray:
        """The kernel, with the shape checked and numpy's overflow warnings
        off; an empty stack raises nothing."""
        tables = _stack(tables, "select_stacked")
        if not len(tables):
            return np.zeros(0, dtype=np.intp)
        with quiet():
            return self.kernel(tables)


@dataclass(frozen=True)
class DiagonalPoint:
    """A table together with a move; the per-player equilibrium condition is
    membership of ``table[move]`` in the quantifier's value set."""

    table: OutcomeTable
    move: MoveId

    def satisfies(self, phi: Quantifier, tol: float = 0.0) -> bool:
        return phi.contains(self.table, self.table[self.move], tol)


def _scalar(tables: np.ndarray, what: str) -> np.ndarray:
    """``tables``, a stack, unless its outcomes are vectors."""
    if tables.ndim != 2:
        raise StructuralError(
            f"{what} requires scalar outcomes, got dimension {tables.shape[2]}")
    return tables


def _fixed_points(tables: np.ndarray, tol: float, what: str) -> np.ndarray:
    """Which moves m of each table are fixed points, |p[m] - m| <= tol."""
    return np.abs(_scalar(tables, what) - np.arange(tables.shape[1])) <= tol


def _mean(tables: np.ndarray) -> np.ndarray:
    """Each table's mean, summed left to right (acc = acc + t[:, j]), as the
    built-in ``sum`` did before Python 3.12, whatever the interpreter."""
    return (np.cumsum(_scalar(tables, "average"), axis=1)[:, -1]
            / tables.shape[1])


def _nearest_to_mean(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each table's distances to its mean, and the move that a left-to-right
    scan with ``<`` finds nearest: move 0 unless a later distance is
    smaller. A NaN distance (a NaN entry, or an infinite entry equal to an
    infinite mean) is never smaller, so it wins only at move 0."""
    dist = np.abs(tables - _mean(tables)[:, None])
    return dist, np.fmin(dist, np.inf).argmin(axis=1)


def _max_kernel(tables, values, tol):
    best = _scalar(tables, "max").max(axis=1, keepdims=True)
    return np.abs(values - best) <= tol


def _min_kernel(tables, values, tol):
    best = _scalar(tables, "min").min(axis=1, keepdims=True)
    return np.abs(values - best) <= tol


def _has_fixed_point(p, tol: float) -> bool:
    return bool(_fixed_points(_table(p)[None], tol, "fixed_point").any())


def _fixed_point_kernel(tables, values, tol):
    fixed = _fixed_points(tables, tol, "fixed_point")
    near = np.abs(values[:, :, None] - np.arange(tables.shape[1])) <= tol
    return (fixed[:, None, :] & near).any(axis=2)


def _average_kernel(tables, values, tol):
    dist, move = _nearest_to_mean(tables)
    nearest = dist == dist[np.arange(len(dist)), move][:, None]
    close = np.abs(values[:, :, None] - tables[:, None, :]) <= tol
    return (nearest[:, None, :] & close).any(axis=2)


def _argmax_kernel(tables):
    return _scalar(tables, "argmax").argmax(axis=1)


def _argmin_kernel(tables):
    return _scalar(tables, "argmin").argmin(axis=1)


def _nearest_mean_kernel(tables):
    return _nearest_to_mean(tables)[1]


@functools.cache
def max_quantifier() -> Quantifier:
    """Single-valued quantifier whose value is the maximum entry."""
    return Quantifier(QuantifierKind.MAX, _max_kernel,
                      lambda p: float(_scalar(_table(p)[None], "max").max()),
                      descriptor=MappingProxyType({"kind": "max"}))


@functools.cache
def min_quantifier() -> Quantifier:
    """Single-valued quantifier whose value is the minimum entry."""
    return Quantifier(QuantifierKind.MIN, _min_kernel,
                      lambda p: float(_scalar(_table(p)[None], "min").min()),
                      descriptor=MappingProxyType({"kind": "min"}))


@functools.cache
def fixed_point_quantifier() -> Quantifier:
    """Acceptable outcomes are the fixed points of the table: move ids m with
    p[m] = m. Only meaningful when outcomes are drawn from the move index
    space. Not total: tables without a fixed point have no acceptable
    outcome."""
    return Quantifier(QuantifierKind.FIXED_POINT, _fixed_point_kernel,
                      in_domain=_has_fixed_point,
                      descriptor=MappingProxyType({"kind": "fixed_point"}))


def eps_ball_quantifier(center_move: MoveId, radius: float) -> Quantifier:
    """Acceptable outcomes are those within ``radius`` of the outcome at
    ``center_move`` (closed ball; membership at tolerance tol widens the
    radius by tol). Vector outcomes are compared by their largest
    componentwise difference."""
    # The chained comparison is False for NaN and for numbers too large for
    # a float, such as a JSON integer of 400 digits.
    if (isinstance(radius, bool) or not isinstance(radius, numbers.Real)
            or not 0 < radius <= sys.float_info.max):
        raise StructuralError("eps_ball radius must be a finite number > 0")
    if (isinstance(center_move, bool)
            or not isinstance(center_move, numbers.Integral) or center_move < 0):
        raise StructuralError("eps_ball center must be a valid move id")

    def kernel(tables, values, tol):
        if center_move >= tables.shape[1]:
            raise StructuralError(
                f"eps_ball center {center_move} outside table of size "
                f"{tables.shape[1]}")
        dist = np.abs(values - tables[:, None, center_move])
        if dist.ndim == 3:
            dist = dist.max(axis=2)
        return dist <= radius + tol

    return Quantifier(QuantifierKind.EPS_BALL, kernel,
                      descriptor={"kind": "eps_ball",
                                  "center": int(center_move),
                                  "radius": float(radius)})


@functools.cache
def average_quantifier() -> Quantifier:
    """Finite stand-in for the averaging quantifier: acceptable outcomes are
    the table entries closest to the arithmetic mean.

    The exact mean is usually not attained by any move of a finite table, so
    the attainable version is used; the nearest-mean selection attains it by
    construction.
    """
    return Quantifier(QuantifierKind.AVERAGE, _average_kernel,
                      descriptor=MappingProxyType({"kind": "average"}))


def custom_quantifier(contains: Callable, canonical: Callable | None = None,
                      in_domain: Callable | None = None) -> Quantifier:
    """Wrap a user membership test ``contains(p, r, tol)``, called with one
    OutcomeTable and one outcome at a time; an answer that is not a bool or
    a numpy bool raises StructuralError. Totality is the caller's
    responsibility: a partial intent that is not expressed through
    ``in_domain`` cannot be detected by the exhaustive checkers."""

    def answer(p, r, tol):
        verdict = contains(p, as_outcome(r), tol)
        if not isinstance(verdict, (bool, np.bool_)):
            raise StructuralError(
                f"custom quantifier answered {verdict!r}, not a bool")
        return verdict

    def kernel(tables, values, tol):
        return np.array(
            [[answer(p, r, tol) for r in row]
             for p, row in zip(_each_table(tables), values.tolist())],
            dtype=bool).reshape(values.shape[:2])

    return Quantifier(QuantifierKind.CUSTOM, kernel, canonical, in_domain)


@functools.cache
def argmax_selection() -> SelectionFunction:
    return SelectionFunction(SelectionKind.ARGMAX, _argmax_kernel,
                             descriptor=MappingProxyType({"kind": "argmax"}))


@functools.cache
def argmin_selection() -> SelectionFunction:
    return SelectionFunction(SelectionKind.ARGMIN, _argmin_kernel,
                             descriptor=MappingProxyType({"kind": "argmin"}))


def fixed_point_witness(tol: float = 0.0) -> SelectionFunction:
    """Selects the lowest move that is a fixed point of the table; raises
    NoFixedPointError when there is none."""

    def kernel(tables):
        fixed = _fixed_points(tables, tol, "fixed_point_witness")
        found = fixed.any(axis=1)
        if not found.all():
            row = tables[found.argmin()].tolist()
            raise NoFixedPointError(f"no fixed point in OutcomeTable({row!r})")
        return fixed.argmax(axis=1)

    return SelectionFunction(SelectionKind.FIXED_POINT_WITNESS, kernel,
                             descriptor={"kind": "fixed_point_witness"})


def constant_selection(move: MoveId) -> SelectionFunction:
    if (isinstance(move, bool) or not isinstance(move, numbers.Integral)
            or move < 0):
        raise StructuralError("constant selection move must be a valid move id")

    def kernel(tables):
        if move >= tables.shape[1]:
            raise StructuralError(
                f"constant move {move} outside table of size {tables.shape[1]}"
            )
        return np.full(len(tables), move, dtype=np.intp)

    return SelectionFunction(SelectionKind.CONSTANT, kernel,
                             descriptor={"kind": "constant", "move": int(move)})


@functools.cache
def nearest_mean_selection() -> SelectionFunction:
    """Selects the lowest move whose outcome is closest to the table mean;
    attains the average quantifier."""
    return SelectionFunction(SelectionKind.NEAREST_MEAN, _nearest_mean_kernel,
                             descriptor=MappingProxyType(
                                 {"kind": "nearest_mean"}))


def custom_selection(select: Callable) -> SelectionFunction:
    """Wrap a user selection ``select(p)``, called with one OutcomeTable at
    a time; an answer that is_move refuses for the table raises
    StructuralError."""

    def kernel(tables):
        moves = []
        for p in _each_table(tables):
            move = select(p)
            if not is_move(move, len(p)):
                raise StructuralError(
                    f"custom selection chose {move!r}, not a move of a "
                    f"table of size {len(p)}")
            moves.append(move)
        return np.array(moves, dtype=np.intp)

    return SelectionFunction(SelectionKind.CUSTOM, kernel)


# Keyed by kind: a str-Enum member hashes and compares as its value, so
# a kind string, as a game file gives it, is looked up as it is.
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
    try:
        factory = _QUANTIFIER_FACTORIES[kind]
    except (KeyError, TypeError):
        kind = QuantifierKind(kind)
        raise StructuralError(
            f"no standard quantifier of kind {kind.value!r}") from None
    try:
        return factory(params)
    except KeyError as exc:
        raise StructuralError(
            f"missing parameter {exc} for {QuantifierKind(kind).value}")


def make_standard_selection(kind, **params) -> SelectionFunction:
    """Build a catalogue selection function by kind tag."""
    try:
        factory = _SELECTION_FACTORIES[kind]
    except (KeyError, TypeError):
        kind = SelectionKind(kind)
        raise StructuralError(
            f"no standard selection of kind {kind.value!r}") from None
    try:
        return factory(params)
    except KeyError as exc:
        raise StructuralError(
            f"missing parameter {exc} for {SelectionKind(kind).value}")


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
    # Custom kinds see one table at a time, in grid order; stock kernels
    # take growing chunks, and a chunk that raises is checked again table
    # by table, so the first table that fails or raises decides.
    custom = (eps.kind is SelectionKind.CUSTOM
              or phi.kind is QuantifierKind.CUSTOM)
    with quiet():
        for chunk in chunks(itertools.product(grid, repeat=move_set_size),
                            1 if custom else 4096):
            try:
                ok = _attains_on(eps, phi, chunk, tol)
            except HogError:
                if len(chunk) == 1:
                    raise
                ok = all(_attains_on(eps, phi, [c], tol) for c in chunk)
            if not ok:
                return False
    return True


def _attains_on(eps: SelectionFunction, phi: Quantifier, combos: list,
                tol: float) -> bool:
    """Whether the selection attains on every table of ``combos`` in the
    quantifier's domain."""
    try:
        tables = np.array(combos, dtype=float)
    except ValueError:
        raise StructuralError("mixed outcome dimensions in table") from None
    if phi.in_domain is _has_fixed_point:
        tables = tables[_fixed_points(tables, tol, "fixed_point").any(axis=1)]
    elif phi.in_domain is not None:
        tables = tables[np.array([phi.in_domain(p, tol)
                                  for p in _each_table(tables)], dtype=bool)]
    if not len(tables):
        return True
    values = tables[np.arange(len(tables)), eps.kernel(tables)][:, None]
    return bool(phi.kernel(tables, values, tol).all())


def chunks(items: Iterable, cap: int):
    """``items`` in lists of 16, 32, 64, ... and then ``cap`` items (of
    ``cap`` from the start if it is smaller), so a search that stops early
    builds little, and a long one calls each kernel on large stacks."""
    items = iter(items)
    size = min(16, cap)
    while chunk := list(itertools.islice(items, size)):
        yield chunk
        size = min(2 * size, cap)
