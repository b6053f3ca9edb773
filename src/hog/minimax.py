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
accepts multi-valued quantifiers.

Everything here reads the outcome array directly, as tensor slices passed
to the quantifier and selection kernels. The BBC pair and the product pair
come from two selection products, each one selection kernel call over the
rows of the grid (or of its transpose) and one over the replies. The
reply-robustness check finds each side's pointwise reply sets with one
membership kernel call that tests every entry of every line against its
own line.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .budget import check_budget
from .core import QuantifierKind, as_outcome, chunks
from .errors import StructuralError
from .sequential import _select_product
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


def _pairs(g: SimultaneousGame):
    """The BBC pair and the product pair of a stage, from two products: the
    product on the grid gives a and the product pair, the product on its
    transpose gives b."""
    q = stage_outcomes(g, True)
    eps, delta = g.selections
    with g.quiet():
        product = _select_product(eps, delta, q)
        b = _select_product(delta, eps, q.swapaxes(0, 1))[0]
    return (product[0], b), product


def bbc(g: SimultaneousGame) -> tuple[int, int]:
    """The first coordinates (a, b) of the selection products on the grid
    and on its transpose: a is chosen against the second selection's
    pointwise replies and b against the first's, independently (unlike the
    product, whose second coordinate is the reply to a)."""
    return _pairs(g)[0]


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
    only what is enumerated counts against the budget, and is tested in
    chunks of one outer kernel call each.

    Each side's acceptable sets come from one kernel call of the inner
    quantifier, which tests every entry of every line against its line.
    """
    outcomes = stage_outcomes(g, False)
    a, b = pair
    nx, ny = g.move_counts
    if not (0 <= a < nx and 0 <= b < ny):
        raise StructuralError(f"pair {pair} outside {nx}x{ny} stage")
    phi, psi = g.quantifiers
    scalar = outcomes.ndim == 2

    # The outcomes each reply function may put at each coordinate of the
    # composed table: a's check composes with psi's replies along rows,
    # b's with phi's replies along columns.
    sides = []
    with g.quiet():
        for outer, inner, lines, move in (
                (phi, psi, outcomes, a), (psi, phi, outcomes.swapaxes(0, 1), b)):
            accepted = inner.kernel(lines, lines, tol).tolist()
            values = [list(itertools.compress(line, ok))
                      for line, ok in zip(lines.tolist(), accepted)]
            if all(values):
                worst = scalar and outer.kind in _WORST_CASE
                sides.append((outer, values, move, worst))

        check_budget(sum(math.prod(map(len, values))
                         for _, values, _, worst in sides if not worst),
                     budget, "reply functions")

        for outer, values, move, worst in sides:
            if worst:
                own, rest = _WORST_CASE[outer.kind]
                table = np.array([[own(v) if x == move else rest(v)
                                   for x, v in enumerate(values)]])
                if not outer.kernel(table, table[:, move:move + 1], tol)[0, 0]:
                    return False
                continue
            # A custom test sees one table at a time, up to the first it
            # rejects; stock kernels take growing chunks.
            for tables in chunks(itertools.product(*values),
                                 1 if outer.kind is QuantifierKind.CUSTOM
                                 else 4096):
                tables = np.array(tables)
                if not outer.kernel(tables, tables[:, move:move + 1],
                                    tol).all():
                    return False
    return True


def compare_bbc_vs_product(g: SimultaneousGame) -> dict:
    """Exploratory comparison of the independent-coordinates pair with the
    product-of-selections pair on the same stage; no relationship is
    asserted beyond what the report shows."""
    pair_bbc, pair_prod = _pairs(g)
    q = g.payoffs[0]

    def describe(pair):
        return {
            "pair": list(pair),
            "moves": [g.moves[0][pair[0]], g.moves[1][pair[1]]],
            "outcome": as_outcome(q[pair]),
        }

    return {
        "bbc": describe(pair_bbc),
        "product": describe(pair_prod),
        "coincide": pair_bbc == pair_prod,
    }
