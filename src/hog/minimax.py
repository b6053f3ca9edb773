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
own line. The pairs run on a stack of same-shape stages that share their
selections, with one kernel call each, and so does the check of stages
whose quantifiers are both max or min; ``bbc`` and
``compare_bbc_vs_product`` run the pairs on a stack of one.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .budget import check_budget
from .core import QuantifierKind, as_outcome, chunks
from .errors import StructuralError
from .sequential import _select_products
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


def _pairs(q: np.ndarray, eps, delta) -> tuple[tuple, tuple]:
    """The BBC pairs and the product pairs of a stack of stages with the
    outcome arrays ``q`` of shape ``(B, nx, ny[, d])`` and the selections
    eps and delta, each coordinate an array of shape ``(B,)``: the product
    on the grids gives a and the product pairs, the product on their
    transposes gives b."""
    a, reply = _select_products(eps, delta, q)
    b = _select_products(delta, eps, q.swapaxes(1, 2))[0]
    return (a, b), (a, reply)


def _stage_pairs(g: SimultaneousGame) -> tuple[tuple[int, int], tuple[int, int]]:
    """The BBC pair and the product pair of one stage."""
    q = stage_outcomes(g, True)
    with g.quiet():
        (a, b), (_, reply) = _pairs(q[None], *g.selections)
    return (a.item(), b.item()), (a.item(), reply.item())


def bbc(g: SimultaneousGame) -> tuple[int, int]:
    """The first coordinates (a, b) of the selection products on the grid
    and on its transpose: a is chosen against the second selection's
    pointwise replies and b against the first's, independently (unlike the
    product, whose second coordinate is the reply to a)."""
    return _stage_pairs(g)[0]


# Outer quantifier kinds for which the worst reply function decides.
_WORST_CASE = (QuantifierKind.MAX, QuantifierKind.MIN)


def _worst_reply(outer, lines: np.ndarray,
                 accepted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per scalar line of ``lines`` (last axis, entries; ``accepted`` marks
    the acceptable ones), what the worst reply function for the outer
    quantifier, max or min, gives at the checked move's coordinate and at
    any other: for max, the lowest and the highest acceptable entry (min is
    the mirror image). A line without acceptable entries gives
    infinities."""
    lowest = np.min(lines, axis=-1, where=accepted, initial=np.inf)
    highest = np.max(lines, axis=-1, where=accepted, initial=-np.inf)
    if outer.kind is QuantifierKind.MIN:
        return highest, lowest
    return lowest, highest


def _reply_robust(q: np.ndarray, pairs: tuple, phi, psi,
                  tol: float) -> np.ndarray:
    """is_psi_phi_profile on each stage of a stack of scalar outcome arrays
    ``q`` of shape ``(B, nx, ny)`` whose quantifiers phi and psi are max or
    min, without budget checks (no reply function is enumerated): one
    kernel call of each quantifier per side. Max and min accept the
    extreme entry of every line, so no side passes vacuously."""
    a, b = pairs
    ok = np.ones(len(q), dtype=bool)
    rows = np.arange(len(q))
    for outer, inner, lines, moves in ((phi, psi, q, a),
                                       (psi, phi, q.swapaxes(1, 2), b)):
        flat = lines.reshape(-1, lines.shape[2])
        own, table = _worst_reply(
            outer, lines, inner.kernel(flat, flat, tol).reshape(lines.shape))
        table[rows, moves] = own[rows, moves]
        ok &= outer.kernel(table, table[rows, moves][:, None], tol)[:, 0]
    return ok


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
    a, b = g.validate_profile(pair)
    phi, psi = g.quantifiers
    scalar = outcomes.ndim == 2

    # The outcomes each reply function may put at each coordinate of the
    # composed table: a's check composes with psi's replies along rows,
    # b's with phi's replies along columns. A max or min side keeps only
    # the worst reply function's table; any other keeps the sets.
    sides = []
    with g.quiet():
        for outer, inner, lines, move in (
                (phi, psi, outcomes, a), (psi, phi, outcomes.swapaxes(0, 1), b)):
            accepted = inner.kernel(lines, lines, tol)
            if scalar and outer.kind in _WORST_CASE:
                own, table = _worst_reply(outer, lines, accepted)
                if np.isfinite(own).all():
                    table[move] = own[move]
                    sides.append((outer, move, table[None], None))
                continue
            values = [list(itertools.compress(line, ok))
                      for line, ok in zip(lines.tolist(), accepted.tolist())]
            if all(values):
                sides.append((outer, move, None, values))

        check_budget(sum(math.prod(map(len, values))
                         for *_, values in sides if values is not None),
                     budget, "reply functions")

        for outer, move, table, values in sides:
            if values is None:
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
    pair_bbc, pair_prod = _stage_pairs(g)
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
