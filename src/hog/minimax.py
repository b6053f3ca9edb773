"""Two-player stages and the binary Berardi-Bezem-Coquand functional.

The BBC functional has the same type as the binary product of selection
functions but computes both coordinates independently: each player's move is
chosen against the opponent's pointwise replies. For total single-valued
quantifiers the resulting pair is a reply-robust profile: each move is
acceptable against every reply function the opponent's quantifier admits
(with max/min this is the classical minimax strategy). A stage stores its
outcomes as one read-only float64 array of shape ``(nx, ny)``; the loops
here index a single Python-list copy of it per call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .budget import check_budget
from .core import (OutcomeTable, Quantifier, QuantifierKind,
                   SelectionFunction, as_outcome)
from .errors import StructuralError
from .sequential import selection_product
from .simultaneous import (SimultaneousGame, default_move_labels, flat_tensor,
                           payoff_array)


@dataclass(frozen=True, eq=False)
class TwoPlayerStage:
    """A 2-player single-outcome-space game given by a read-only outcome
    array ``payoff[x][y]`` (a trailing axis holds vector outcomes),
    quantifiers (phi for the first player, psi for the second), and
    selections attaining them. The reply-robustness theorem needs both
    quantifiers single-valued; the verifier itself accepts multi-valued
    ones."""

    moves: tuple[tuple[str, ...], tuple[str, ...]]
    payoff: np.ndarray
    quantifiers: tuple[Quantifier, Quantifier]
    selections: tuple[SelectionFunction, SelectionFunction]

    def __post_init__(self):
        nx, ny = len(self.moves[0]), len(self.moves[1])
        if nx == 0 or ny == 0:
            raise StructuralError("stage move sets must be nonempty")
        object.__setattr__(self, "payoff", payoff_array(
            self.payoff, (nx, ny), "payoff grid"))

    @classmethod
    def from_tensor(cls, move_counts: Sequence[int], payoffs: Sequence[float],
                    quantifiers, selections,
                    moves: Sequence[Sequence[str]] | None = None) -> "TwoPlayerStage":
        nx, ny = (int(c) for c in move_counts)
        grid = flat_tensor(payoffs, (nx, ny), "payoff tensor")
        if moves is None:
            moves = (default_move_labels(nx), default_move_labels(ny))
        else:
            moves = tuple(tuple(ms) for ms in moves)
        return cls(moves=moves, payoff=grid, quantifiers=tuple(quantifiers),
                   selections=tuple(selections))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.moves[0]), len(self.moves[1])

    def single_valued(self) -> bool:
        return all(phi.single_valued for phi in self.quantifiers)

    def to_simultaneous(self) -> SimultaneousGame:
        """The same game as a simultaneous one; both players read this
        stage's array through a zero-copy broadcast."""
        return SimultaneousGame(
            moves=self.moves,
            payoffs=np.broadcast_to(self.payoff, (2, *self.payoff.shape)),
            quantifiers=self.quantifiers,
            single_outcome_space=True,
        )


def bbc(stage: TwoPlayerStage) -> tuple[int, int]:
    """The pair (a, b) where a is chosen against the second selection's
    pointwise replies and b against the first's, each computed independently
    (unlike the product, whose second coordinate is the reply to a)."""
    eps, delta = stage.selections
    q = stage.payoff.tolist()
    replies_to_x = [delta.select(OutcomeTable(row)) for row in q]
    a = eps.select(OutcomeTable(
        [row[y] for row, y in zip(q, replies_to_x)]
    ))
    replies_to_y = [eps.select(OutcomeTable(col)) for col in zip(*q)]
    b = delta.select(OutcomeTable(
        [q[x][y] for y, x in enumerate(replies_to_y)]
    ))
    return a, b


# Outer quantifier kind -> (choice at the checked move, choice elsewhere)
# of the worst reply function.
_WORST_CASE = {QuantifierKind.MAX: (min, max), QuantifierKind.MIN: (max, min)}


def is_psi_phi_profile(stage: TwoPlayerStage, pair: tuple[int, int],
                       tol: float = 0.0, budget: int | None = None) -> bool:
    """Verify reply-robustness of (a, b): a's outcome must be acceptable to
    the first quantifier against every reply function admitted pointwise by
    the second quantifier, and symmetrically for b. Admissibility is
    pointwise, so the reply functions form a product of per-move acceptable
    sets (vacuously true when some move has no acceptable reply).

    When the outer quantifier is max or min and outcomes are scalar, the
    worst reply function of that product decides: for max, the checked
    move's coordinate takes its lowest acceptable outcome and every other
    coordinate its highest (min is the mirror image). Rounding is monotone,
    so this is exact. Other outer quantifiers enumerate the product, and
    only what is enumerated counts against the budget.
    """
    a, b = pair
    nx, ny = stage.shape
    if not (0 <= a < nx and 0 <= b < ny):
        raise StructuralError(f"pair {pair} outside {nx}x{ny} stage")
    phi, psi = stage.quantifiers
    q = stage.payoff.tolist()
    cols = [list(col) for col in zip(*q)]

    # The outcomes each reply function may put at each coordinate of the
    # composed table: a's check composes with psi's replies along rows,
    # b's with phi's replies along columns.
    scalar = stage.payoff.ndim == 2
    sides = []
    for outer, inner, lines, move in ((phi, psi, q, a), (psi, phi, cols, b)):
        values = []
        for line in lines:
            table = OutcomeTable(line)
            values.append([r for r in line if inner.contains(table, r, tol)])
        if all(values):
            worst = scalar and outer.kind in _WORST_CASE
            sides.append((outer, values, move, worst))

    check_budget(sum(math.prod(map(len, values))
                     for _, values, _, worst in sides if not worst),
                 budget, "reply functions")

    for outer, values, move, worst in sides:
        if worst:
            own, rest = _WORST_CASE[outer.kind]
            tables = [[own(v) if x == move else rest(v)
                       for x, v in enumerate(values)]]
        else:
            tables = itertools.product(*values)
        for table in tables:
            if not outer.contains(OutcomeTable(table), table[move], tol):
                return False
    return True


def compare_bbc_vs_product(stage: TwoPlayerStage) -> dict:
    """Exploratory comparison of the independent-coordinates pair with the
    product-of-selections pair on the same stage; no relationship is
    asserted beyond what the report shows."""
    q = stage.payoff.tolist()
    pair_bbc = bbc(stage)
    pair_prod = selection_product(stage.selections[0], stage.selections[1], q)

    def describe(pair):
        return {
            "pair": list(pair),
            "moves": [stage.moves[0][pair[0]], stage.moves[1][pair[1]]],
            "outcome": as_outcome(q[pair[0]][pair[1]]),
        }

    return {
        "bbc": describe(pair_bbc),
        "product": describe(pair_prod),
        "coincide": pair_bbc == pair_prod,
    }
