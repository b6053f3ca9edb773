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
from .core import OutcomeTable, Quantifier, SelectionFunction, as_outcome
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


def is_psi_phi_profile(stage: TwoPlayerStage, pair: tuple[int, int],
                       tol: float = 0.0, budget: int | None = None) -> bool:
    """Verify reply-robustness of (a, b): a's outcome must be acceptable to
    the first quantifier against every reply function admitted pointwise by
    the second quantifier, and symmetrically for b. Admissibility is
    pointwise, so reply functions are enumerated as a product of per-move
    acceptable sets (vacuously true when some move has no acceptable reply).
    """
    a, b = pair
    nx, ny = stage.shape
    if not (0 <= a < nx and 0 <= b < ny):
        raise StructuralError(f"pair {pair} outside {nx}x{ny} stage")
    phi, psi = stage.quantifiers
    q = stage.payoff.tolist()

    row_tables = [OutcomeTable(row) for row in q]
    a_choices = [
        [y for y in range(ny) if psi.contains(row_tables[x], q[x][y], tol)]
        for x in range(nx)
    ]
    col_tables = [OutcomeTable(col) for col in zip(*q)]
    b_choices = [
        [x for x in range(nx) if phi.contains(col_tables[y], q[x][y], tol)]
        for y in range(ny)
    ]

    total = sum(math.prod(len(c) for c in choices)
                for choices in (a_choices, b_choices) if all(choices))
    check_budget(total, budget, "reply functions")

    if all(a_choices):
        for f in itertools.product(*a_choices):
            table = OutcomeTable([q[x][f[x]] for x in range(nx)])
            if not phi.contains(table, q[a][f[a]], tol):
                return False
    if all(b_choices):
        for gfun in itertools.product(*b_choices):
            table = OutcomeTable([q[gfun[y]][y] for y in range(ny)])
            if not psi.contains(table, q[gfun[b]][b], tol):
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
