"""Generalised sequential games and the product of selection functions.

Rounds are played in order; a strategy gives each round a dense table from
partial histories to moves. The product of selection functions computes a
play whose first move anticipates the later rounds' selections; applying each
round's selection at every history yields a strategy that is optimal after
every history (the subgame-perfect analogue), and the product's play is that
strategy's play from the empty history.

A strategy is followed in one backward pass: round i's index array, of
shape ``(history_count(i), m)``, holds the play reached from each history
and move, and its outcomes are the round's deviation tables, which one
kernel call tests or chooses on. Both the optimal strategy and the optimal
play come from one such pass.

History tables are dense arrays in mixed-radix order over the preceding move
sets, first round most significant. The outcome function is stored as one
read-only float64 array ``payoffs`` of shape ``move_counts``, with a trailing
axis for vector outcomes; payoffs must be finite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .budget import check_budget
from .core import (Quantifier, QuantifierKind, SelectionFunction, as_outcome,
                   quiet)
from .errors import StructuralError
from .simultaneous import PayoffArray, default_move_labels, flat_tensor

Play = tuple[int, ...]
# Strategy: per round, a dense move table indexed by history (mixed-radix).
SeqStrategy = tuple[tuple[int, ...], ...]


def histories(sizes: Sequence[int]):
    """All histories over the given sizes, lexicographically (= index order)."""
    return itertools.product(*(range(s) for s in sizes))


@dataclass(frozen=True, eq=False)
class SequentialGame(PayoffArray):
    """n rounds, per-round move sets, a single outcome tensor over full
    plays, and per-round quantifier/selection pairs (each selection is
    expected to attain its quantifier)."""

    moves: tuple[tuple[str, ...], ...]
    payoffs: np.ndarray
    quantifiers: tuple[Quantifier, ...]
    selections: tuple[SelectionFunction, ...]
    move_counts: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.moves:
            raise StructuralError("a sequential game needs at least one round")
        for i, ms in enumerate(self.moves):
            if not ms:
                raise StructuralError(f"round {i} has an empty move set")
        n = len(self.moves)
        object.__setattr__(self, "move_counts",
                           tuple(len(ms) for ms in self.moves))
        if len(self.quantifiers) != n or len(self.selections) != n:
            raise StructuralError(
                "quantifiers and selections must have one entry per round"
            )
        self._take_payoffs(self.move_counts)

    @classmethod
    def from_tensor(cls, move_counts: Sequence[int], payoffs: Sequence[float],
                    quantifiers: Sequence[Quantifier],
                    selections: Sequence[SelectionFunction],
                    moves: Sequence[Sequence[str]] | None = None) -> "SequentialGame":
        """Build from a dense row-major payoff tensor over plays."""
        counts = tuple(int(c) for c in move_counts)
        tensor = flat_tensor(payoffs, counts, "payoff tensor")
        tensor.setflags(write=False)  # a fresh array: take it uncopied
        if moves is None:
            moves = tuple(default_move_labels(c) for c in counts)
        else:
            moves = tuple(tuple(ms) for ms in moves)
            for ms, c in zip(moves, counts):
                if len(ms) != c:
                    raise StructuralError("move labels must match move counts")
        return cls(moves=moves, payoffs=tensor,
                   quantifiers=tuple(quantifiers), selections=tuple(selections))

    @property
    def rounds(self) -> int:
        return len(self.moves)

    def history_count(self, i: int) -> int:
        """Number of histories before round i."""
        return math.prod(self.move_counts[:i])

    def play_count(self) -> int:
        return self.history_count(self.rounds)

    def outcome(self, play: Play):
        return as_outcome(self.payoffs[tuple(play)])

    def flat_payoffs(self) -> np.ndarray:
        """The payoffs with one axis of plays, in mixed-radix order."""
        return self.payoffs.reshape(-1, *self.payoffs.shape[self.rounds:])

    def validate_strategy(self, strategy: Sequence[Sequence[int]]) -> SeqStrategy:
        strategy = tuple(tuple(t) for t in strategy)
        if len(strategy) != self.rounds:
            raise StructuralError(
                f"strategy has {len(strategy)} tables for {self.rounds} rounds"
            )
        for i, (table, m) in enumerate(zip(strategy, self.move_counts)):
            if len(table) != self.history_count(i):
                raise StructuralError(
                    f"round {i} table has {len(table)} entries, expected "
                    f"{self.history_count(i)}"
                )
            # Test each distinct move once; walk the table only to name the
            # first bad one. NaN fails the test, as 0 <= nan is false.
            if not all(0 <= move < m for move in set(table)):
                bad = next(move for move in table if not 0 <= move < m)
                raise StructuralError(f"move {bad} invalid in round {i}")
        return strategy


def strategic_play(g: SequentialGame, strategy: Sequence[Sequence[int]]) -> Play:
    """The play obtained by running the strategy against itself from the
    empty history."""
    play, history = (), 0
    for moves, m in zip(g.validate_strategy(strategy), g.move_counts):
        play += (moves[history],)
        history = history * m + moves[history]
    return play


def _reached(g: SequentialGame, choose) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per round, the plays reached from each history (rows) by each move
    (columns) when later rounds follow ``choose``, and by the move that
    ``choose(i, reached)`` gives at each history; rounds go last first."""
    later = np.arange(g.play_count())
    reached = []
    for i in range(g.rounds - 1, -1, -1):
        here = later.reshape(-1, g.move_counts[i])
        later = here[np.arange(len(here)), choose(i, here)]
        reached.insert(0, (here, later))
    return reached


def is_optimal_strategy(g: SequentialGame, strategy: Sequence[Sequence[int]],
                        tol: float = 0.0, budget: int | None = None) -> bool:
    """True iff after every partial history, the outcome of following the
    strategy is acceptable to that round's quantifier on the table of
    one-round deviations (each deviation continued by the strategy).
    Rounds, then histories, are checked in index order; a custom test is
    called up to the first history it rejects."""
    strategy = g.validate_strategy(strategy)
    sizes = g.move_counts
    total = sum(g.history_count(i) * sizes[i] for i in range(g.rounds))
    check_budget(total, budget, "optimality checks")
    flat = g.flat_payoffs()
    with g.quiet():
        for phi, (reached, followed) in zip(
                g.quantifiers, _reached(g, lambda i, _: strategy[i])):
            tables, values = flat[reached], flat[followed][:, None]
            if phi.kind is not QuantifierKind.CUSTOM:
                accepted = phi.kernel(tables, values, tol).all()
            else:
                accepted = all(phi.kernel(tables[h:h + 1], values[h:h + 1],
                                          tol)[0, 0]
                               for h in range(len(tables)))
            if not accepted:
                return False
    return True


def _product_grid(q) -> np.ndarray:
    """``q`` as a float array of shape ``(nx, ny)``, plus a trailing axis
    for vector outcomes. Anything but an array is checked and normalised
    entry by entry first."""
    if not isinstance(q, np.ndarray):
        rows = [tuple(row) for row in q]
        if not rows or not rows[0]:
            raise StructuralError("product table must be nonempty")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise StructuralError("product table must be rectangular")
        q = [[as_outcome(v) for v in row] for row in rows]
        try:
            q = np.array(q, dtype=float)
        except ValueError:
            raise StructuralError("mixed outcome dimensions in table") from None
    grid = np.asarray(q, dtype=float)
    if grid.ndim < 2 or 0 in grid.shape[:2]:
        raise StructuralError("product table must be nonempty")
    if grid.ndim > 3:
        raise StructuralError(
            f"product table of shape {grid.shape} is not a grid of outcomes")
    return grid


def _select_product(eps: SelectionFunction, delta: SelectionFunction,
                   grid: np.ndarray) -> tuple[int, int]:
    """selection_product on a float array of shape ``(nx, ny[, d])``."""
    replies = delta.kernel(grid)
    a = int(eps.kernel(grid[np.arange(len(grid)), replies][None])[0])
    return a, int(replies[a])


def selection_product(eps: SelectionFunction, delta: SelectionFunction,
                      q: Sequence[Sequence] | np.ndarray) -> tuple[int, int]:
    """Binary product of selection functions on a two-round outcome grid
    ``q[x][y]``: the second move is delta's reply to each x, the first is
    eps's choice anticipating those replies. Returns (a, reply_to_a)."""
    with quiet():
        return _select_product(eps, delta, _product_grid(q))


def compute_optimal_play(g: SequentialGame, budget: int | None = None) -> Play:
    """The play computed by the right-nested iterated product of the
    per-round selections applied to the outcome function: the strategic
    play of the strategy that applies each round's selection at every
    history. The budget counts plays."""
    check_budget(g.play_count(), budget, "plays")
    return strategic_play(g, _optimal_tables(g))


def compute_optimal_strategy(g: SequentialGame,
                             budget: int | None = None) -> SeqStrategy:
    """Apply each round's selection at every history, last round first, so
    the optimality condition holds pointwise, each table continued by the
    later rounds' selections. The budget counts histories."""
    sizes = g.move_counts
    total = sum(g.history_count(i) * sizes[i] for i in range(g.rounds))
    check_budget(total, budget, "histories")
    return _optimal_tables(g)


def _optimal_tables(g: SequentialGame) -> SeqStrategy:
    """compute_optimal_strategy without its budget check."""
    flat = g.flat_payoffs()
    tables = [None] * g.rounds

    def choose(i: int, reached: np.ndarray) -> np.ndarray:
        tables[i] = g.selections[i].kernel(flat[reached])
        return tables[i]

    with g.quiet():
        _reached(g, choose)
    return tuple(tuple(moves.tolist()) for moves in tables)
