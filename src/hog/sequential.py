"""Generalised sequential games and the product of selection functions.

Rounds are played in order; a strategy gives each round a dense table from
partial histories to moves. The product of selection functions computes a
play whose first move anticipates the later rounds' selections; applying each
round's selection at every history yields a strategy that is optimal after
every history (the subgame-perfect analogue), and the product's play is that
strategy's play from the empty history.

A strategy is followed in one backward pass: round i's index array, of
shape ``(history_count(i), m)``, holds the play reached from each history
and move, and its outcomes are the round's deviation tables. The pass of
the optimal strategy only chooses: one selection kernel call per round
gives the strategy's tables, and the play its root reaches is the optimal
play. One walk tests a strategy's pass, rounds in order, one quantifier
kernel call per round: at every history, which is optimality, or only at
the strategy's on-path history, which is soundness in the normal form (see
``normalform.check_soundness``), each game of a stack as it is marked.
Pass and walk run on a stack of games with the same move counts, whose
flat payoffs lie end to end: the rows of an index array go game by game,
and each round takes one quantifier and one selection, whose kernels see
the rows of every game of the stack at once. The public functions run them
on a stack of one.

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
                   is_move, is_move_type, quiet)
from .errors import StructuralError
from .simultaneous import PayoffArray, flat_tensor, move_labels

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
        return cls(moves=move_labels(counts, moves), payoffs=tensor,
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
            # Test each distinct type, then each distinct move, once; walk
            # the table only to name the first bad one.
            if not (all(map(is_move_type, set(map(type, table))))
                    and all(0 <= move < m for move in set(table))):
                bad = next(move for move in table if not is_move(move, m))
                raise StructuralError(f"move {bad} invalid in round {i}")
        return strategy


def strategic_play(g: SequentialGame, strategy: Sequence[Sequence[int]]) -> Play:
    """The play obtained by running the strategy against itself from the
    empty history."""
    play, history = (), 0
    for moves, m in zip(g.validate_strategy(strategy), g.move_counts):
        # A Python int: a narrow numpy move would wrap the history index.
        move = int(moves[history])
        play += (move,)
        history = history * m + move
    return play


def _reached(counts: Sequence[int], stack: int,
             choose) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per round, for ``stack`` games with these move counts whose flat
    payoffs lie end to end, the plays reached from each history (rows, game
    by game) by each move (columns) when later rounds follow ``choose``,
    and by the move that ``choose(i, reached)`` gives at each history;
    rounds go last first."""
    later = np.arange(stack * math.prod(counts))
    reached = []
    for i in range(len(counts) - 1, -1, -1):
        here = later.reshape(-1, counts[i])
        later = here[np.arange(len(here)), choose(i, here)]
        reached.insert(0, (here, later))
    return reached


def _deviation_count(counts: Sequence[int]) -> int:
    """The entries of all one-round deviation tables of a game with these
    move counts: the budget unit of the strategy pass and of the optimality
    check."""
    return sum(math.prod(counts[:i]) * m for i, m in enumerate(counts))


def is_optimal_strategy(g: SequentialGame, strategy: Sequence[Sequence[int]],
                        tol: float = 0.0, budget: int | None = None) -> bool:
    """True iff after every partial history, the outcome of following the
    strategy is acceptable to that round's quantifier on the table of
    one-round deviations (each deviation continued by the strategy).
    Rounds, then histories, are checked in index order; a custom test is
    called up to the first history it rejects."""
    strategy = g.validate_strategy(strategy)
    check_budget(_deviation_count(g.move_counts), budget, "optimality checks")
    with g.quiet():
        return bool(_strategy_verdicts(
            g.flat_payoffs(), g.quantifiers,
            _reached(g.move_counts, 1, lambda i, _: strategy[i]), tol)[0])


def _strategy_verdicts(flat: np.ndarray, quantifiers: Sequence[Quantifier],
                       reached, tol: float,
                       on_path: bool | np.ndarray = False) -> np.ndarray:
    """Whether each game of a stack passes is_optimal_strategy, given the
    ``_reached`` arrays of its strategy's pass: every history's deviation
    table accepts the strategy's outcome there. A game that ``on_path``
    marks (a bool, or one per game) is tested only at its on-path history,
    which is check_soundness; at round i it is the prefix of the play that
    round 0 reaches. Rounds go in order through ``_accepted``, each with one
    call of its one quantifier on every game's tables, up to a round where
    every game has failed. If every game of the stack is on its path, a
    round tests each game's on-path row alone; in a stack that mixes the
    two, an on-path game's on-path row stands in for each of its rows, so
    that the round's one call also tests every history of the other
    games."""
    plays = reached[0][1]  # one per game
    stack = len(plays)
    on_path = np.broadcast_to(on_path, stack)
    ok = np.ones(stack, dtype=bool)
    for phi, (here, followed) in zip(quantifiers, reached):
        if on_path.any():
            rows = plays // (len(flat) // len(here))
            if not on_path.all():
                per_game = len(here) // stack
                rows = np.where(np.repeat(on_path, per_game),
                                np.repeat(rows, per_game),
                                np.arange(len(here)))
            here, followed = here[rows], followed[rows]
        ok &= _accepted(phi, stack, flat[here], flat[followed][:, None], tol)
        if not ok.any():
            break
    return ok


def _accepted(phi: Quantifier, stack: int, tables: np.ndarray,
              values: np.ndarray, tol: float) -> np.ndarray:
    """Whether each game of a stack accepts the values on every one of its
    deviation tables of a round (rows game by game) by the round's
    quantifier. A stock kernel sees every table at once; a custom test
    sees one table at a time, up to a game's first rejection."""
    per_game = len(tables) // stack
    if phi.kind is not QuantifierKind.CUSTOM:
        return phi.kernel(tables, values, tol).reshape(-1, per_game).all(axis=1)
    return np.array([
        all(phi.kernel(tables[h:h + 1], values[h:h + 1], tol)[0, 0]
            for h in range(start, start + per_game))
        for start in range(0, len(tables), per_game)], dtype=bool)


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


def _select_products(eps: SelectionFunction, delta: SelectionFunction,
                     grids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """selection_product on each grid of a stack of float arrays of shape
    ``(B, nx, ny[, d])``: the first moves and the replies to them, each of
    shape ``(B,)``, from one call of each kernel."""
    stack, nx = grids.shape[:2]
    rows = grids.reshape(stack * nx, *grids.shape[2:])
    replies = delta.kernel(rows)
    at = np.arange(len(rows))
    a = eps.kernel(rows[at, replies].reshape(stack, nx, *grids.shape[3:]))
    return a, replies[at[::nx] + a]


def selection_product(eps: SelectionFunction, delta: SelectionFunction,
                      q: Sequence[Sequence] | np.ndarray) -> tuple[int, int]:
    """Binary product of selection functions on a two-round outcome grid
    ``q[x][y]``: the second move is delta's reply to each x, the first is
    eps's choice anticipating those replies. Returns (a, reply_to_a)."""
    with quiet():
        a, reply = _select_products(eps, delta, _product_grid(q)[None])
    return int(a[0]), int(reply[0])


def compute_optimal_play(g: SequentialGame, budget: int | None = None) -> Play:
    """The play computed by the right-nested iterated product of the
    per-round selections applied to the outcome function: the strategic
    play of the strategy that applies each round's selection at every
    history, which its pass reaches from the root. The budget counts
    plays."""
    check_budget(g.play_count(), budget, "plays")
    with g.quiet():
        reached = _optimal_moves(g.flat_payoffs(), g.move_counts, 1,
                                 g.selections)[1]
    # Round 0's one history reaches the play.
    return tuple(map(int, np.unravel_index(reached[0][1][0], g.move_counts)))


def compute_optimal_strategy(g: SequentialGame,
                             budget: int | None = None) -> SeqStrategy:
    """Apply each round's selection at every history, last round first, so
    the optimality condition holds pointwise, each table continued by the
    later rounds' selections. The budget counts histories."""
    check_budget(_deviation_count(g.move_counts), budget, "histories")
    with g.quiet():
        moves = _optimal_moves(g.flat_payoffs(), g.move_counts, 1,
                               g.selections)[0]
    return tuple(tuple(table.tolist()) for table in moves)


def _optimal_moves(flat: np.ndarray, counts: Sequence[int], stack: int,
                   selections: Sequence[SelectionFunction]):
    """compute_optimal_strategy on each game of a stack of games with these
    move counts, without budget checks, in one backward pass. ``flat``
    holds the games' flat payoffs end to end; each round calls its one
    selection of ``selections`` once, on every game's tables.

    Returns, per round, each game's table in turn, and the pass's
    ``_reached`` arrays, which ``_strategy_verdicts`` tests."""
    moves = [None] * len(counts)

    def choose(i: int, reached: np.ndarray) -> np.ndarray:
        moves[i] = selections[i].kernel(flat[reached])
        return moves[i]

    return moves, _reached(counts, stack, choose)
