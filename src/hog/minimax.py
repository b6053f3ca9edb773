"""Two-player stages and the binary Berardi-Bezem-Coquand functional.

A stage is a 2-player ``SimultaneousGame`` with a single outcome space and
selections: the quantifiers and selections are phi and epsilon for the
first player, psi and delta for the second, and the outcomes are the one
read-only float64 array ``payoffs[0]`` of shape ``(nx, ny)``. The BBC
functional has the same type as the binary product of selection functions
but computes both coordinates independently: each player's move is chosen
against the opponent's pointwise replies. For total single-valued
quantifiers the resulting pair is a reply-robust profile: each move is
acceptable against every reply function the opponent's quantifier admits
(with max/min this is the classical minimax strategy); the verifier itself
accepts multi-valued quantifiers. The loops here index a single Python-list
copy of the outcome array per call.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .budget import check_budget
from .core import OutcomeTable, QuantifierKind, as_outcome
from .errors import StructuralError
from .sequential import selection_product
from .simultaneous import SimultaneousGame


def stage_outcomes(g: SimultaneousGame, need_selections: bool) -> np.ndarray:
    """The outcome array of a stage. Raises a StructuralError unless ``g``
    is a 2-player single-outcome simultaneous game that, if
    ``need_selections``, has selections."""
    if not (isinstance(g, SimultaneousGame) and g.num_players == 2
            and g.single_outcome_space
            and (g.selections is not None or not need_selections)):
        raise StructuralError(
            "expected a 2-player single-outcome simultaneous game"
            + (" with selections" if need_selections else ""))
    return g.payoffs[0]


def bbc(g: SimultaneousGame) -> tuple[int, int]:
    """The pair (a, b) where a is chosen against the second selection's
    pointwise replies and b against the first's, each computed independently
    (unlike the product, whose second coordinate is the reply to a)."""
    q = stage_outcomes(g, True).tolist()
    eps, delta = g.selections
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


def is_psi_phi_profile(g: SimultaneousGame, pair: tuple[int, int],
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
    outcomes = stage_outcomes(g, False)
    a, b = pair
    nx, ny = g.move_counts
    if not (0 <= a < nx and 0 <= b < ny):
        raise StructuralError(f"pair {pair} outside {nx}x{ny} stage")
    phi, psi = g.quantifiers
    q = outcomes.tolist()
    cols = [list(col) for col in zip(*q)]

    # The outcomes each reply function may put at each coordinate of the
    # composed table: a's check composes with psi's replies along rows,
    # b's with phi's replies along columns.
    scalar = outcomes.ndim == 2
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


def compare_bbc_vs_product(g: SimultaneousGame) -> dict:
    """Exploratory comparison of the independent-coordinates pair with the
    product-of-selections pair on the same stage; no relationship is
    asserted beyond what the report shows."""
    q = stage_outcomes(g, True).tolist()
    pair_bbc = bbc(g)
    pair_prod = selection_product(g.selections[0], g.selections[1], q)

    def describe(pair):
        return {
            "pair": list(pair),
            "moves": [g.moves[0][pair[0]], g.moves[1][pair[1]]],
            "outcome": as_outcome(q[pair[0]][pair[1]]),
        }

    return {
        "bbc": describe(pair_bbc),
        "product": describe(pair_prod),
        "coincide": pair_bbc == pair_prod,
    }
