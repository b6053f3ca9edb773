"""Mixed extensions of finite games.

Mixed strategies are points of standard simplices, outcomes extend
multilinearly, and quantifier membership is evaluated exclusively through the
vertex restriction of the deviation table: the lifted quantifier only
consults outcomes at the pure-strategy vertices, which keeps membership
finite and exact for arbitrary quantifiers. The two solvers are desk-scale
stand-ins for the existence theorem: support enumeration (2-player, max
quantifiers) and a certified grid search; every returned profile passes
is_mixed_nash. Expected outcomes and deviation tables are einsum
contractions of the game's payoff tensor with the strategies.
"""

from __future__ import annotations

import itertools
import logging
import math

import numpy as np

from .budget import check_budget
from .core import OutcomeTable, QuantifierKind, SelectionFunction, as_outcome
from .errors import StructuralError
from .simultaneous import SimultaneousGame

logger = logging.getLogger(__name__)

TOL_SIMPLEX = 1e-9

MixedProfile = tuple[np.ndarray, ...]


def mixed_strategy(probs, tol_simplex: float = TOL_SIMPLEX) -> np.ndarray:
    """Validate and normalize a probability vector: coordinates >= -tol are
    clipped to 0 and the vector is rescaled to sum exactly to 1."""
    vec = np.asarray(probs, dtype=float)
    if vec.ndim != 1 or vec.size == 0:
        raise StructuralError("a mixed strategy is a nonempty 1-d probability vector")
    if np.any(vec < -tol_simplex):
        raise StructuralError(f"negative probability beyond tolerance: {vec}")
    total = float(vec.sum())
    if not (1 - tol_simplex <= total <= 1 + tol_simplex):
        raise StructuralError(f"probabilities sum to {total}, expected 1")
    vec = np.clip(vec, 0.0, None)
    vec = vec / vec.sum()
    vec.setflags(write=False)
    return vec


def mixed_profile(g: SimultaneousGame, per_player) -> MixedProfile:
    """Validate one strategy per player against the game's move counts."""
    per_player = tuple(per_player)
    if len(per_player) != g.num_players:
        raise StructuralError(
            f"profile has {len(per_player)} strategies for {g.num_players} players"
        )
    out = []
    for i, probs in enumerate(per_player):
        vec = mixed_strategy(probs)
        if vec.size != g.move_counts[i]:
            raise StructuralError(
                f"player {i} strategy has {vec.size} entries for "
                f"{g.move_counts[i]} moves"
            )
        out.append(vec)
    return tuple(out)


def vertex(count: int, move: int) -> np.ndarray:
    """The simplex vertex placing all mass on ``move``."""
    if not 0 <= move < count:
        raise StructuralError(f"move {move} outside 0..{count - 1}")
    v = np.zeros(count)
    v[move] = 1.0
    v.setflags(write=False)
    return v


def vertex_profile(g: SimultaneousGame, pure) -> MixedProfile:
    pure = g.validate_profile(pure)
    return tuple(vertex(c, m) for c, m in zip(g.move_counts, pure))


def _contract(g: SimultaneousGame, i: int, profile: MixedProfile,
              keep: int | None = None) -> np.ndarray:
    """One einsum of player i's payoff tensor with every player's strategy
    except player ``keep``'s, whose axis stays in the result, as does the
    trailing axis of vector outcomes."""
    axes = list(range(g.payoffs.ndim - 1))
    n = g.num_players
    operands = [g.payoffs[i], axes]
    for j, strat in enumerate(profile):
        if j != keep:
            operands += [strat, [j]]
    kept = [] if keep is None else [keep]
    return np.einsum(*operands, kept + axes[n:])


def expected_outcome(g: SimultaneousGame, i: int, profile: MixedProfile):
    """Probability-weighted sum of player i's outcomes over all pure
    profiles, as one einsum contraction of the payoff tensor with the
    strategies. The result is deterministic (the same inputs give the same
    bits), but it is not a sum in lexicographic profile order."""
    profile = mixed_profile(g, profile)
    return as_outcome(_contract(g, i, profile).tolist())


def mixed_unilateral_table(g: SimultaneousGame, i: int,
                           profile: MixedProfile) -> OutcomeTable:
    """Expected outcomes of player i's deviations to each pure move, holding
    the other strategies fixed. This vertex restriction is exactly what
    lifted-quantifier membership consults."""
    profile = mixed_profile(g, profile)
    return OutcomeTable(_contract(g, i, profile, keep=i).tolist())


def is_mixed_nash(g: SimultaneousGame, profile: MixedProfile,
                  tol: float = 1e-9) -> bool:
    """True iff every player's expected outcome is acceptable to their
    quantifier on the vertex-restricted deviation table."""
    profile = mixed_profile(g, profile)
    for i in range(g.num_players):
        table = mixed_unilateral_table(g, i, profile)
        value = expected_outcome(g, i, profile)
        if not g.quantifiers[i].contains(table, value, tol):
            return False
    return True


class LiftedSelection:
    """Selection over a simplex, consulting only vertex-restricted tables:
    it forwards the restriction to the base selection and returns the chosen
    vertex. Attains the lifted quantifier whenever the base selection attains
    the base quantifier."""

    def __init__(self, base: SelectionFunction):
        self.base = base

    def select(self, vertex_table: OutcomeTable) -> np.ndarray:
        move = self.base.select(vertex_table)
        return vertex(len(vertex_table), move)


def lift_selection(eps: SelectionFunction) -> LiftedSelection:
    return LiftedSelection(eps)


def support_enumeration_applies(g: SimultaneousGame) -> bool:
    """Whether solve_support_enumeration_2p accepts the game's shape: two
    players, both with max quantifiers."""
    return (g.num_players == 2
            and all(phi.kind is QuantifierKind.MAX for phi in g.quantifiers))


def _indifference_solve(payoff: np.ndarray, own: tuple[int, ...],
                        other: tuple[int, ...]) -> np.ndarray | None:
    """Solve for the probabilities on ``own`` that equalize the opponent's
    payoff across ``other``.

    System (k = len(own), l = len(other); unknowns p_1..p_k, v):

        sum_i p_i * payoff[own_i, other_j] - v = 0   for each j
        sum_i p_i                              = 1

    Square systems use an exact solve; rectangular or singular ones fall back
    to least squares and are accepted only when the residual vanishes.
    """
    k, l = len(own), len(other)
    mat = np.zeros((l + 1, k + 1))
    rhs = np.zeros(l + 1)
    for row, j in enumerate(other):
        for col, i in enumerate(own):
            mat[row, col] = payoff[i, j]
        mat[row, k] = -1.0
    mat[l, :k] = 1.0
    rhs[l] = 1.0
    if k == l:
        try:
            sol = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            logger.debug("singular indifference system for support %s/%s", own, other)
            sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    else:
        sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    if np.max(np.abs(mat @ sol - rhs)) > 1e-7:
        logger.debug("inconsistent indifference system for support %s/%s, "
                     "skipped", own, other)
        return None
    return sol[:k]


def _dedupe_sorted(profiles: list[MixedProfile], tol: float) -> list[MixedProfile]:
    kept: list[MixedProfile] = []
    for cand in profiles:
        flat = np.concatenate(cand)
        if not any(
            np.max(np.abs(flat - np.concatenate(seen))) <= tol for seen in kept
        ):
            kept.append(cand)
    kept.sort(key=lambda prof: tuple(float(x) for x in np.concatenate(prof)))
    return kept


def solve_support_enumeration_2p(g: SimultaneousGame, tol: float = 1e-9,
                                 budget: int | None = None) -> list[MixedProfile]:
    """All mixed equilibria of a 2-player max-quantifier game found by
    enumerating support pairs and solving the indifference systems. Every
    returned profile is certified by is_mixed_nash; supports whose systems
    are unsolvable or yield negative probabilities are skipped. An empty
    result contradicts the existence theorem for such games and is logged as
    a distinguished warning. The (2^m0 - 1)(2^m1 - 1) support pairs are
    checked against the budget before any is enumerated.
    """
    if not support_enumeration_applies(g):
        raise StructuralError(
            "support enumeration requires exactly 2 players with max "
            "quantifiers; use solve_generic"
        )
    if g.payoffs.ndim != 3:
        raise StructuralError("support enumeration requires scalar outcomes")
    m0, m1 = g.move_counts
    check_budget((2 ** m0 - 1) * (2 ** m1 - 1), budget, "support pairs")
    a, b = g.payoffs
    found: list[MixedProfile] = []
    for s0_size in range(1, m0 + 1):
        for s1_size in range(1, m1 + 1):
            for s0 in itertools.combinations(range(m0), s0_size):
                for s1 in itertools.combinations(range(m1), s1_size):
                    p = _indifference_solve(b, s0, s1)
                    q = _indifference_solve(a.T, s1, s0)
                    if p is None or q is None:
                        continue
                    if np.any(p < -tol) or np.any(q < -tol):
                        continue
                    row = np.zeros(m0)
                    row[list(s0)] = np.clip(p, 0.0, None)
                    col = np.zeros(m1)
                    col[list(s1)] = np.clip(q, 0.0, None)
                    try:
                        profile = mixed_profile(g, (row, col))
                    except StructuralError:
                        continue
                    if is_mixed_nash(g, profile, tol):
                        found.append(profile)
    result = _dedupe_sorted(found, max(tol, 1e-9))
    if not result:
        logger.warning(
            "support enumeration found no equilibrium although one must exist "
            "for finite max-quantifier games; this signals a solver bug or "
            "numerical failure"
        )
    return result


def _simplex_grid(moves: int, depth: int):
    """All probability vectors with denominators ``depth`` over ``moves``
    coordinates, lexicographic by numerator tuple."""
    for combo in itertools.combinations(range(depth + moves - 1), moves - 1):
        numerators = []
        prev = -1
        for cut in combo:
            numerators.append(cut - prev - 1)
            prev = cut
        numerators.append(depth + moves - 2 - prev)
        yield np.array(numerators, dtype=float) / depth


def _best_response_refine(g: SimultaneousGame, profile: MixedProfile,
                          iterations: int = 120) -> MixedProfile:
    """Damped best-response iteration from a starting profile (max
    quantifiers, scalar outcomes). A heuristic: the endpoint is only kept if
    it certifies."""
    current = [np.array(s) for s in profile]
    for t in range(iterations):
        step = 1.0 / (t + 2)
        responses = []
        for i in range(g.num_players):
            table = mixed_unilateral_table(g, i, tuple(current))
            best = max(range(len(table)), key=lambda x: table[x])
            responses.append(vertex(g.move_counts[i], best))
        for i in range(g.num_players):
            current[i] = (1 - step) * current[i] + step * responses[i]
    return tuple(mixed_strategy(s) for s in current)


_REFINE_STARTS = 64


def solve_generic(g: SimultaneousGame, grid_depth: int = 3, tol: float = 1e-9,
                  budget: int | None = None,
                  refine: bool = True) -> list[MixedProfile]:
    """Certified grid search over simplex profiles with denominators
    ``grid_depth``. For max-quantifier games the lowest-regret grid points
    are additionally refined by damped best-response iteration (and, for 2
    players, a support re-solve). Completeness is not promised: only profiles
    that pass is_mixed_nash are returned."""
    if grid_depth < 1:
        raise StructuralError("grid_depth must be >= 1")
    per_player_counts = [
        math.comb(grid_depth + c - 1, c - 1) for c in g.move_counts
    ]
    check_budget(math.prod(per_player_counts), budget, "grid profiles")
    all_max = all(phi.kind is QuantifierKind.MAX for phi in g.quantifiers)
    found = []
    near_misses = []
    grids = [list(_simplex_grid(c, grid_depth)) for c in g.move_counts]
    for combo in itertools.product(*grids):
        profile = mixed_profile(g, combo)
        if all_max:
            regret = 0.0
            for i in range(g.num_players):
                table = mixed_unilateral_table(g, i, profile)
                value = expected_outcome(g, i, profile)
                regret = max(regret, max(table.entries) - value)
            if regret <= tol:
                found.append(profile)
            elif refine:
                key = tuple(float(x) for x in np.concatenate(profile))
                near_misses.append((regret, key, profile))
        elif is_mixed_nash(g, profile, tol):
            found.append(profile)
    near_misses.sort(key=lambda item: item[:2])
    for _, _, start in near_misses[:_REFINE_STARTS]:
        refined = _best_response_refine(g, start)
        if is_mixed_nash(g, refined, tol):
            found.append(refined)
        elif g.num_players == 2:
            snapped = _snap_support(g, refined, tol)
            if snapped is not None:
                found.append(snapped)
    return _dedupe_sorted(found, max(tol, 1e-9))


def _snap_support(g: SimultaneousGame, profile: MixedProfile,
                  tol: float, support_tol: float = 1e-3) -> MixedProfile | None:
    """Re-solve the indifference system on the supports suggested by a
    near-equilibrium profile (2-player max games only)."""
    a, b = g.payoffs
    s0 = tuple(i for i, p in enumerate(profile[0]) if p > support_tol)
    s1 = tuple(j for j, p in enumerate(profile[1]) if p > support_tol)
    if not s0 or not s1:
        return None
    p = _indifference_solve(b, s0, s1)
    q = _indifference_solve(a.T, s1, s0)
    if p is None or q is None or np.any(p < -tol) or np.any(q < -tol):
        return None
    row = np.zeros(g.move_counts[0])
    row[list(s0)] = np.clip(p, 0.0, None)
    col = np.zeros(g.move_counts[1])
    col[list(s1)] = np.clip(q, 0.0, None)
    try:
        candidate = mixed_profile(g, (row, col))
    except StructuralError:
        return None
    if is_mixed_nash(g, candidate, tol):
        return candidate
    return None
