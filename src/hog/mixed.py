"""Mixed extensions of finite games.

Mixed strategies are points of standard simplices, outcomes extend
multilinearly, and quantifier membership is evaluated exclusively through the
vertex restriction of the deviation table: the lifted quantifier only
consults outcomes at the pure-strategy vertices, which keeps membership
finite and exact for arbitrary quantifiers. Expected outcomes and deviation
tables are einsum contractions of the game's payoff tensor with the
strategies.

Every profile that either solver returns passes is_mixed_nash, which reads
one certificate per player at the profile validated once
(player_certificates), the one the CLI prints. Support enumeration handles
2-player games whose quantifiers are max or min, where it finds every
equilibrium with a solvable support pair; the existence
theorem promises one, so an empty result signals a bug. Under the mixed
lift a min quantifier on payoff u is a max quantifier on -u (IEEE negation
is exact, so the min test reads the same bits as the max test on the
negated table), so the enumeration runs on the payoffs with each min
player's negated and certifies on the game itself. Every other game goes to
the grid search, which certifies the points of a simplex grid and nothing
else: the existence theorem does not promise a grid point (three-player
equilibria can be irrational), so an empty grid result is an answer, not a
contradiction.

The grid search screens, then certifies. For each player, one contraction
per other player gives the deviation tables at every grid combination of
the others, and one more gives the values; one kernel call tests them all
at once, with slack for rounding. Only the longest prefix of players whose
quantifier is of a screened kind and applies to the game is screened, so
the tests of every later player happen, and raise, exactly where a
per-point loop would meet them. Every survivor is certified by
is_mixed_nash in grid order.

Support enumeration solves the indifference systems of one support shape
in stacks, not one system at a time: square shapes by one batched exact
solve (pair by pair when a stack holds a singular system), rectangular
shapes by the residual of each overdetermined system's minimum-norm
solution, so that only pairs that may be consistent are solved pair by
pair. One-off shapes, one equation more than unknowns, are first screened
by one batched LU solve for each system's left null vector. A vectorised
regret screen drops candidates that are clearly not equilibria. The
screens only discard; every profile returned is still built by
mixed_profile and certified by is_mixed_nash, in enumeration order. On
payoffs that may overflow, the enumeration runs once more on the payoffs
scaled by an exact power of two, where rounding stays inside the absolute
tolerances.

Rectangular shapes are also pruned by their subsets (von Stengel 2002;
Porter, Nudelman & Shoham 2008). A solution of the system of (R, C) also
solves the system of every (R, C') with C' inside C, since that system
keeps the same unknowns and drops equations. So a shape whose long side is
at least its short side + 2 screens only the pairs whose every subset one
shorter on the long side passed the residual half of its own screen, and
inductively every subset down to short side + 1; a shape with no such pair
is skipped outright. The negative-probability half of the screen stays out
of this test: the minimum-norm solution of a rank-deficient subsystem can
be negative where the wider system has a nonnegative one. The pruning is
conservative: a pair that _indifference_solve accepts has a max-residual of
at most _RESIDUAL_TOL on its system, so on a subsystem of r equations its
least-squares residual is at most sqrt(r) * _RESIDUAL_TOL, inside that
shape's threshold, which adds _SCREEN_MARGIN for rounding.

Before any screen or solve, a support pair is dropped when one of its moves
is strictly dominated by more than a margin given the opponent's support
(conditional dominance; Porter, Nudelman & Shoham 2008): a column c of C
such that some column c' beats it on every row of R, or a row of R that
some row beats on every column of C. Such a pair gives no profile that
is_mixed_nash accepts (see _dominance_margin). Square shapes test both
sides, rectangular shapes only the long one: a column dominated given R
stays dominated in every (R, C') with C' containing C, so a pair dropped by
its long side is recorded as inconsistent in the subset table above and
prunes its wider shapes with it, while a row dominated given C need not
stay dominated given a wider C'. Dominance is read from one boolean gap
tensor per player and one bitmask of dominated moves per support, so each
stack's test is two integer operations per pair.
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


def player_certificates(g: SimultaneousGame, profile: MixedProfile,
                        tol: float = 1e-9):
    """Player by player, at the profile validated once: the deviation table
    and the expected outcome (the arrays of mixed_unilateral_table and
    expected_outcome) and whether the player's quantifier accepts them."""
    profile = mixed_profile(g, profile)
    for i, phi in enumerate(g.quantifiers):
        with g.quiet():
            table = _contract(g, i, profile, keep=i)
            value = _contract(g, i, profile)
            ok = bool(phi.kernel(table[None], value[None, None], tol)[0, 0])
        yield table, value, ok


def is_mixed_nash(g: SimultaneousGame, profile: MixedProfile,
                  tol: float = 1e-9) -> bool:
    """True iff every player's expected outcome is acceptable to their
    quantifier on the vertex-restricted deviation table."""
    return all(ok for _, _, ok in player_certificates(g, profile, tol))


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
    players, each with a max or a min quantifier."""
    return (g.num_players == 2
            and all(phi.kind in (QuantifierKind.MAX, QuantifierKind.MIN)
                    for phi in g.quantifiers))


_RESIDUAL_TOL = 1e-7
# Systems per stacked linear-algebra call: bounds memory whatever the budget.
_STACK = 1 << 15
# Margin by which the stacked least-squares test widens the residual and
# probability thresholds, far above the rounding gap between its
# pseudo-inverse and the per-pair lstsq that decides.
_SCREEN_MARGIN = 1e-6
# Factor by which the left-null-vector screen of one-off systems widens the
# residual threshold: its residual is computed from a solve with the top
# block, whose rounding the pseudo-inverse that decides does not share.
_LEFT_NULL_MARGIN = 10.0


def _indifference_systems(payoff: np.ndarray, own: np.ndarray,
                          other: np.ndarray) -> np.ndarray:
    """The indifference systems of a stack of support pairs: ``own`` is an
    (N, k) and ``other`` an (N, l) array of move ids. Row j of system n
    reads sum_i p_i * payoff[own[n, i], other[n, j]] - v = 0; the last row
    is sum_i p_i = 1. The right-hand side is the last unit vector."""
    n, k = own.shape
    l = other.shape[1]
    mats = np.zeros((n, l + 1, k + 1))
    mats[:, :l, :k] = payoff[own[:, None, :], other[:, :, None]]
    mats[:, :l, k] = -1.0
    mats[:, l, :k] = 1.0
    return mats


def _residual(mats: np.ndarray, sols: np.ndarray) -> np.ndarray:
    """max |mats[n] @ sols[n] - e_last| for every system of a stack."""
    res = np.matmul(mats, sols[..., None])[..., 0]
    res[:, -1] -= 1.0
    return np.abs(res).max(axis=1)


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
    k = len(own)
    mat = _indifference_systems(payoff, np.array([own]), np.array([other]))[0]
    rhs = np.zeros(len(mat))
    rhs[-1] = 1.0
    if mat.shape[0] == mat.shape[1]:
        try:
            sol = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            logger.debug("singular indifference system for support %s/%s", own, other)
            sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    else:
        sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    if np.max(np.abs(mat @ sol - rhs)) > _RESIDUAL_TOL:
        logger.debug("inconsistent indifference system for support %s/%s, "
                     "skipped", own, other)
        return None
    return sol[:k]


def _pair_by_pair(payoff: np.ndarray, own: np.ndarray,
                  other: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_indifference_solve on each pair of a stack: the probabilities
    (N, k) and a mask of the solvable pairs."""
    probs = np.zeros(own.shape)
    ok = np.zeros(len(own), dtype=bool)
    for n, (o, t) in enumerate(zip(own.tolist(), other.tolist())):
        sol = _indifference_solve(payoff, tuple(o), tuple(t))
        if sol is not None:
            probs[n] = sol
            ok[n] = True
    return probs, ok


def _solve_square(payoff: np.ndarray, own: np.ndarray,
                  other: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every square system of a stack in one batched solve, which gives the
    same bits as one solve per system. A stack holding a singular system is
    solved pair by pair instead, with _indifference_solve's least-squares
    fallback."""
    mats = _indifference_systems(payoff, own, other)
    rhs = np.zeros(mats.shape[:2] + (1,))
    rhs[:, -1] = 1.0
    try:
        sols = np.linalg.solve(mats, rhs)[..., 0]
    except np.linalg.LinAlgError:
        logger.debug("singular system in a stack of %d; solving pair by pair",
                     len(mats))
        return _pair_by_pair(payoff, own, other)
    return sols[:, :-1], _residual(mats, sols) <= _RESIDUAL_TOL


def _left_null_screen(mats: np.ndarray, bound: float) -> np.ndarray:
    """The pairs of a stack of one-off systems, (n + 1) x n, whose
    least-squares residual may be within ``bound``, by one batched LU
    solve. With w solving top^T w = -(sum row), where top is the first n
    rows and the sum row the last, z = (w, 1) is a left null vector of the
    system, and the residual of the right-hand side e_last is 1 / |z| when
    the system has full rank. When it does not, every such w gives at most
    the residual of the minimum-norm one, which is the least-squares
    residual, and a top block singular to rounding gives a huge or
    non-finite w: either way the pair is kept. So is every pair of a stack
    whose top block is exactly singular."""
    try:
        w = np.linalg.solve(np.swapaxes(mats[:, :-1], 1, 2),
                            -mats[:, -1, :, None])[..., 0]
    except np.linalg.LinAlgError:
        logger.debug("singular top block in a stack of %d one-off systems; "
                     "left to the pseudo-inverse", len(mats))
        return np.ones(len(mats), dtype=bool)
    with np.errstate(over="ignore"):
        res = 1.0 / np.sqrt(1.0 + (w * w).sum(axis=1))
    return ~(res > _LEFT_NULL_MARGIN * bound)


def _may_be_consistent(payoff: np.ndarray, own: np.ndarray,
                       other: np.ndarray,
                       tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Stacked least-squares test of overdetermined systems (more equations
    than unknowns) by the residual of each one's minimum-norm solution, with
    a margin that leaves the decision on every pair it keeps to
    _indifference_solve. Returns two masks: the pairs whose system may be
    consistent, and those of them whose system may also have no negative
    probability. One-off systems, one equation more than unknowns (the only
    rectangular shapes a nondegenerate game reaches), are first screened by
    _left_null_screen, which keeps every pair within the bound."""
    mats = _indifference_systems(payoff, own, other)
    bound = math.sqrt(mats.shape[1]) * _RESIDUAL_TOL + _SCREEN_MARGIN
    if mats.shape[1] == mats.shape[2] + 1:
        consistent = _left_null_screen(mats, bound)
    else:
        consistent = np.ones(len(mats), dtype=bool)
    # The minimum-norm solution is the pseudo-inverse's last column, with
    # singular values cut where lstsq(rcond=None) cuts them.
    idx = np.flatnonzero(consistent)
    keep = consistent.copy()
    if idx.size:
        sols = np.linalg.pinv(mats[idx], rtol=None)[..., -1]
        res = np.matmul(mats[idx], sols[..., None])[..., 0]
        res[:, -1] -= 1.0
        consistent[idx] = keep[idx] = np.linalg.norm(res, axis=1) <= bound
        keep[idx] &= ~(sols[:, :-1] < -(tol + _SCREEN_MARGIN)).any(axis=1)
    return consistent, keep


def _combinations(m: int, k: int) -> np.ndarray:
    """itertools.combinations(range(m), k) as a (C(m, k), k) array."""
    return np.array(list(itertools.combinations(range(m), k)),
                    dtype=np.intp).reshape(-1, k)


def _drop_one_ranks(combos: np.ndarray, m: int) -> np.ndarray:
    """For each k-combination of range(m) (one per row, sorted), the ranks
    of its k subsets of size k - 1 in itertools.combinations order, as a
    (C(m, k), k) array. The lexicographic rank of (c_0 < ... < c_{j-1}) is
    C(m, j) - 1 - sum_i C(m - 1 - c_i, j - i)."""
    k = combos.shape[1]
    keep = np.array([[j for j in range(k) if j != drop] for drop in range(k)],
                    dtype=np.intp).reshape(k, k - 1)
    subsets = combos[:, keep]
    binom = np.array([[math.comb(n, r) for r in range(k)] for n in range(m)],
                     dtype=np.intp)
    return (math.comb(m, k - 1) - 1
            - binom[m - 1 - subsets, k - 1 - np.arange(k - 1)].sum(axis=-1))


def _pair_stacks(n_rows: int, n_cols: int):
    """The support pairs of one shape in enumeration order (row support
    outer, column support inner), as index arrays into that shape's row and
    column combinations, in stacks of at most _STACK pairs."""
    total = n_rows * n_cols
    for start in range(0, total, _STACK):
        flat = np.arange(start, min(start + _STACK, total))
        yield flat // n_cols, flat % n_cols


def _scatter(support: np.ndarray, probs: np.ndarray, moves: int) -> np.ndarray:
    """Full-length strategies with the clipped probabilities on each
    support."""
    out = np.zeros((len(support), moves))
    np.put_along_axis(out, support, np.clip(probs, 0.0, None), axis=1)
    return out


def _regret_screen(a: np.ndarray, b: np.ndarray, rows: np.ndarray,
                   cols: np.ndarray, bound: float) -> np.ndarray:
    """Both players' regrets for a stack of candidate profiles in one pass:
    False where one exceeds ``bound``."""
    rows = rows / rows.sum(axis=1, keepdims=True)
    cols = cols / cols.sum(axis=1, keepdims=True)
    dev0 = cols @ a.T
    dev1 = rows @ b
    regret0 = dev0.max(axis=1) - (dev0 * rows).sum(axis=1)
    regret1 = dev1.max(axis=1) - (dev1 * cols).sum(axis=1)
    return ~((regret0 > bound) | (regret1 > bound))


def _screen_bound(g: SimultaneousGame, tol: float) -> float:
    """The tolerance of the vectorised screens. A profile that misses it
    cannot pass is_mixed_nash at ``tol``: the slack is far above the
    rounding gap between a screen's stacked contractions and the
    certificate's own."""
    return tol + 1e-9 * (1.0 + g.payoff_peak)


def _dominance_margin(g: SimultaneousGame, tol: float,
                      regret_bound: float) -> float:
    """The margin by which a move must be dominated, given the opponent's
    support, for its support pair to be dropped unsolved: a pair so dropped
    gives no profile that is_mixed_nash accepts at ``tol``. In the game's
    units; the scaled pass multiplies it by g.payoff_scale, as it does
    ``regret_bound``.

    In a pass whose payoffs are s times the game's (s is 1 or
    g.payoff_scale), with peak |payoff| P = s * g.payoff_peak and margin
    d = s * margin, let column c of C lose to column c' by more than d on
    every row of R. A candidate of the pair (R, C) has row probabilities p
    that solve the column player's system to a residual of at most
    r = _RESIDUAL_TOL per equation, each p_i >= -tol. Clipping them moves
    each deviation value by at most m * tol * P, and mixed_strategy rescales
    by a sum within 1 +- 1e-9. So on the certified row strategy x every
    deviation value t_j, j in C, lies within e = (r + m * tol * P)(1 + 2e-9)
    of one number, and so does the value V, a mean of them; but
    t_c' - t_c > d, as x is a distribution on R. The regret max t - V
    therefore exceeds d - 2e, which is (d - 2e) / s in the game's units,
    where is_mixed_nash reads it with rounding far below
    1e-9 * (1 + g.payoff_peak). The margin below has d - 2e above
    s * (tol + that rounding): 2 * s * regret_bound covers the latter, and
    s * (1 + g.payoff_peak) >= max(s, P) >= 1/2 makes the second term at
    least 4 * (r + m * tol * P) >= 2e. The payoff differences are rounded by
    at most an ulp, and one that overflows is above every finite margin. A
    row of R dominated given C is the same argument on the transpose."""
    m = max(g.move_counts)
    return (2.0 * regret_bound
            + 8.0 * (_RESIDUAL_TOL + m * tol) * (1.0 + g.payoff_peak))


def _move_bits(moves: int) -> np.ndarray:
    """One bit per move; the supports of a game small enough to enumerate
    have far fewer than 63 moves."""
    return np.left_shift(1, np.arange(moves, dtype=np.int64))


def _dominated_moves(payoff: np.ndarray, supports: np.ndarray,
                     margin: float) -> np.ndarray:
    """For each support of own moves (one per row of ``supports``), the
    bitmask of the opponent's moves that another opponent move beats by
    more than ``margin`` against every move of the support. ``payoff`` is
    the opponent's, own moves by opponent moves."""
    moves = payoff.shape[1]
    # gaps[i, c, d]: against own move i, move d beats move c by more than
    # the margin. No move dominates itself, whatever the margin.
    gaps = (payoff[:, None, :] - payoff[:, :, None]) > margin
    gaps[:, np.arange(moves), np.arange(moves)] = False
    return gaps[supports].all(axis=1).any(axis=2) @ _move_bits(moves)


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


def _certified_supports(g: SimultaneousGame, a: np.ndarray, b: np.ndarray,
                        tol: float, regret_bound: float,
                        margin: float) -> list[MixedProfile]:
    """The profiles of every support pair of the payoff matrices ``a`` and
    ``b`` that no move dominated by more than ``margin`` excludes and whose
    indifference systems pass the screens, certified on ``g`` by
    is_mixed_nash, in enumeration order (see
    solve_support_enumeration_2p)."""
    m0, m1 = g.move_counts
    combos0 = [None] + [_combinations(m0, k) for k in range(1, m0 + 1)]
    combos1 = [None] + [_combinations(m1, l) for l in range(1, m1 + 1)]
    # Per support, its own moves and the opponent's moves dominated given
    # it, as bitmasks.
    bits0 = [None] + [_move_bits(m0)[s].sum(axis=1) for s in combos0[1:]]
    bits1 = [None] + [_move_bits(m1)[s].sum(axis=1) for s in combos1[1:]]
    beaten1 = [None] + [_dominated_moves(b, s, margin) for s in combos0[1:]]
    beaten0 = [None] + [_dominated_moves(a.T, s, margin)
                        for s in combos1[1:]]
    # Residual verdicts of the rectangular shapes of the current and the
    # previous row-support size, as (row combination, column combination)
    # booleans, False for a pair dropped by dominance; a shape none of
    # whose pairs passed has no entry.
    consistent: dict[tuple[int, int], np.ndarray] = {}
    pruned = dominated = screened_out = solved = 0
    found: list[MixedProfile] = []
    for k in range(1, m0 + 1):
        for key in [key for key in consistent if key[0] < k - 1]:
            del consistent[key]
        for l in range(1, m1 + 1):
            row_sets, col_sets = combos0[k], combos1[l]
            shape = (len(row_sets), len(col_sets))
            # Shapes at least 2 wider on one side only screen the pairs
            # whose every subset one shorter on that side was consistent.
            subsets = None
            if abs(k - l) >= 2:
                subsets = consistent.get((k, l - 1) if l > k else (k - 1, l))
                if subsets is None:
                    pruned += shape[0] * shape[1]
                    continue
                drop = (_drop_one_ranks(col_sets, m1) if l > k
                        else _drop_one_ranks(row_sets, m0))
            if k != l:
                verdicts = np.zeros(shape, dtype=bool)
            for r, c in _pair_stacks(*shape):
                if subsets is not None:
                    sel = (subsets[r[:, None], drop[c]] if l > k
                           else subsets[drop[r], c[:, None]]).all(axis=1)
                    pruned += len(r) - int(sel.sum())
                    r, c = r[sel], c[sel]
                # Only the long side's test carries over to wider shapes
                # through the subset table; square shapes test both.
                cut = np.zeros(len(r), dtype=bool)
                if l >= k:
                    cut |= (beaten1[k][r] & bits1[l][c]) != 0
                if k >= l:
                    cut |= (beaten0[l][c] & bits0[k][r]) != 0
                dominated += int(cut.sum())
                r, c = r[~cut], c[~cut]
                if not len(r):
                    continue
                s0, s1 = row_sets[r], col_sets[c]
                if k == l:
                    p, ok_p = _solve_square(b, s0, s1)
                    q, ok_q = _solve_square(a.T, s1, s0)
                else:
                    over = (b, s0, s1) if l > k else (a.T, s1, s0)
                    residual_ok, keep = _may_be_consistent(*over, tol)
                    verdicts[r[residual_ok], c[residual_ok]] = True
                    screened_out += len(r) - int(keep.sum())
                    if not keep.any():
                        continue
                    s0, s1 = s0[keep], s1[keep]
                    p, ok_p = _pair_by_pair(b, s0, s1)
                    q, ok_q = _pair_by_pair(a.T, s1, s0)
                ok = (ok_p & ok_q & ~(p < -tol).any(axis=1)
                      & ~(q < -tol).any(axis=1))
                solved += int(ok.sum())
                if not ok.any():
                    continue
                rows = _scatter(s0[ok], p[ok], m0)
                cols = _scatter(s1[ok], q[ok], m1)
                screen = _regret_screen(a, b, rows, cols, regret_bound)
                for n in np.flatnonzero(screen):
                    try:
                        profile = mixed_profile(g, (rows[n], cols[n]))
                    except StructuralError:
                        continue
                    if is_mixed_nash(g, profile, tol):
                        found.append(profile)
            if k != l and verdicts.any():
                consistent[k, l] = verdicts
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "support enumeration %dx%d: %d support pairs enumerated, %d "
            "pruned by subsets, %d screened out, %d solved, %d certified, "
            "%d pruned by dominance",
            m0, m1, (2 ** m0 - 1) * (2 ** m1 - 1), pruned, screened_out,
            solved, len(found), dominated)
    return found


def solve_support_enumeration_2p(g: SimultaneousGame, tol: float = 1e-9,
                                 budget: int | None = None) -> list[MixedProfile]:
    """All mixed equilibria of a 2-player game with max or min quantifiers
    found by enumerating support pairs and solving the indifference systems.
    A min player's payoffs are negated, which turns its quantifier into max
    under the mixed lift; every returned profile is certified by
    is_mixed_nash on ``g`` itself. Supports whose systems are unsolvable or
    yield negative probabilities are skipped. An empty result contradicts
    the existence theorem for such games and is logged as a distinguished
    warning. The (2^m0 - 1)(2^m1 - 1) support pairs are checked against the
    budget before any is enumerated.

    A support pair is dropped before any screen or solve when a move of its
    long side (both sides for square shapes) is strictly dominated given the
    other side: for a column c of C, some column beats it by more than
    _dominance_margin on every row of R; for a row, likewise on C. The
    margin exceeds twice the drift the residual tolerance, the probability
    tolerance and the simplex tolerance allow, plus tol and rounding, so a
    dropped pair gives no profile that is_mixed_nash accepts. Only the long
    side's test holds for every wider pair with the same short side, so a
    rectangular pair dropped this way counts as inconsistent for the subset
    pruning below.

    Each support shape (k, l) is solved in stacks: square shapes by one
    batched exact solve per stack; rectangular shapes by a stacked
    least-squares test of the overdetermined side, the residual of each
    system's minimum-norm solution, after which only the surviving pairs
    are solved, pair by pair. The one-off shapes (k, k + 1) and (l + 1, l)
    are first screened by one batched LU solve per stack for each system's
    left null vector, whose length gives the least-squares residual (see
    _may_be_consistent). A shape with |k - l| >= 2 screens only the pairs
    whose every subset one shorter on the long side passed the residual
    half of that smaller shape's screen; the order (k outer, l inner) screens (k, l - 1) and
    (k - 1, l) before (k, l). This is conservative, because a solution of
    the wider system solves every subsystem. On a nondegenerate game no
    one-off system is consistent, so no wider shape is screened at all. A
    vectorised regret screen then drops candidates that are clearly not
    equilibria; the rest are certified one by one, in enumeration order.
    With the ``hog.mixed`` logger at DEBUG, one line per enumeration gives
    the support pairs enumerated, pruned by subsets, screened out by the
    least-squares screen, solved (both systems, nonnegative), certified and
    pruned by dominance.

    The enumeration's arithmetic runs inside ``g.quiet()``. When the
    payoffs may overflow, it runs a second time on the payoffs scaled by
    ``g.payoff_scale``, still certifying on ``g``: near the largest float,
    the rounding of a correct solution alone exceeds the absolute residual
    tolerances, and residuals and regrets overflow. The unscaled pass is
    kept because it certifies some profiles the scaled one misses. The
    dominance margin, like the regret screen's bound, is scaled with it.
    """
    if not support_enumeration_applies(g):
        raise StructuralError(
            "support enumeration requires exactly 2 players with max or min "
            "quantifiers; use solve_generic"
        )
    if g.payoffs.ndim != 3:
        raise StructuralError("support enumeration requires scalar outcomes")
    m0, m1 = g.move_counts
    check_budget((2 ** m0 - 1) * (2 ** m1 - 1), budget, "support pairs")
    a, b = (-u if phi.kind is QuantifierKind.MIN else u
            for u, phi in zip(g.payoffs, g.quantifiers))
    regret_bound = _screen_bound(g, tol)
    margin = _dominance_margin(g, tol, regret_bound)
    with g.quiet():
        found = _certified_supports(g, a, b, tol, regret_bound, margin)
        if g.payoff_scale != 1.0:
            # Neither pass finds every profile the other does: certification
            # on g compares with an absolute tol, which near the largest
            # float only a solve whose rounding lands exactly passes.
            s = g.payoff_scale
            found += _certified_supports(g, a * s, b * s, tol,
                                         regret_bound * s, margin * s)
    result = _dedupe_sorted(found, max(tol, 1e-9))
    if not result:
        kinds = {phi.kind for phi in g.quantifiers}
        logger.warning(
            "support enumeration found no equilibrium although one must exist "
            "for finite %s-quantifier games; this signals a solver bug or "
            "numerical failure",
            "max" if kinds == {QuantifierKind.MAX} else "max/min"
        )
    return result


def _simplex_grid(moves: int, depth: int) -> np.ndarray:
    """All probability vectors with denominators ``depth`` over ``moves``
    coordinates, one per row, lexicographic by numerator tuple."""
    rows = []
    for combo in itertools.combinations(range(depth + moves - 1), moves - 1):
        numerators = []
        prev = -1
        for cut in combo:
            numerators.append(cut - prev - 1)
            prev = cut
        numerators.append(depth + moves - 2 - prev)
        rows.append(np.array(numerators, dtype=float) / depth)
    return np.array(rows)


# Kinds whose acceptance only widens with the tolerance; average's exact
# tie test on the mean does not, and custom tests are never screened.
_SCREENED_KINDS = {QuantifierKind.MAX, QuantifierKind.MIN,
                   QuantifierKind.EPS_BALL, QuantifierKind.FIXED_POINT}


def _screened_players(g: SimultaneousGame) -> int:
    """Length of the longest prefix of players whose quantifier is of a
    screened kind and accepts tables of this game's shape, which one zero
    table of that shape decides."""
    outcome = g.payoffs.shape[g.num_players + 1:]
    for i, phi in enumerate(g.quantifiers):
        if phi.kind not in _SCREENED_KINDS:
            return i
        try:
            phi.kernel(np.zeros((1, g.move_counts[i], *outcome)),
                       np.zeros((1, 1, *outcome)), 0.0)
        except StructuralError:
            return i
    return g.num_players


def _contract_grid(t: np.ndarray, labels: list[int], grid: np.ndarray,
                   move: int, grid_label: int) -> tuple[np.ndarray, list[int]]:
    """Contract the move axis labelled ``move`` of ``t`` with a grid matrix
    (one strategy per row); the grid axis takes the move axis's place."""
    out = [grid_label if label == move else label for label in labels]
    return np.einsum(t, labels, grid, [grid_label, move], out), out


def _grid_survivors(g: SimultaneousGame, grids: list[np.ndarray],
                    screened: int, bound: float):
    """Index tuples of the grid profiles, in itertools.product order, that
    pass the stacked membership test of each of the first ``screened``
    players at tolerance ``bound``.

    Player i's deviation tables at every combination of the other players'
    grid points are einsum contractions of its payoff tensor with their grid
    matrices; one more contraction with its own grid matrix gives the
    values. The grid is swept in blocks along player 0's axis, so that a
    block holds about _STACK profiles, or one row of player 0 when the
    other players' grids are larger than that."""
    n = g.num_players
    sizes = [len(grid) for grid in grids]
    if not screened:
        yield from itertools.product(*map(range, sizes))
        return
    # Labels: move axes 0..n-1, grid axes n..2n-1, the outcome axis 2n.
    axes = list(range(n)) + ([2 * n] if g.payoffs.ndim > n + 1 else [])
    out = [n + j for j in range(n)] + axes[n:]
    partial = []
    for i in range(screened):
        t, labels = g.payoffs[i], axes
        for j in range(1, n):
            if j != i:
                t, labels = _contract_grid(t, labels, grids[j], j, n + j)
        partial.append((t, labels))
    inner = math.prod(sizes[1:])
    block = max(1, _STACK // inner)
    for start in range(0, sizes[0], block):
        rows = grids[0][start:start + block]
        shape = (len(rows), *sizes[1:])
        mask = np.ones(shape, dtype=bool)
        for i, (t, labels) in enumerate(partial):
            if not mask.any():
                break
            if i:
                t, labels = _contract_grid(t, labels, rows, 0, n)
            own = rows if i == 0 else grids[i]
            values = np.einsum(t, labels, own, [n + i, i], out)
            # Move axis last, then the player's own grid axis broadcast in.
            tables = np.expand_dims(np.moveaxis(t, i, n - 1), i)
            tables = np.broadcast_to(tables, shape + tables.shape[n:])
            with g.quiet():
                mask &= g.quantifiers[i].kernel(
                    tables.reshape(-1, *tables.shape[n:]),
                    values.reshape(-1, 1, *values.shape[n:]),
                    bound).reshape(shape)
        for idx in np.argwhere(mask):
            idx[0] += start
            yield tuple(idx.tolist())


def solve_generic(g: SimultaneousGame, grid_depth: int = 3, tol: float = 1e-9,
                  budget: int | None = None) -> list[MixedProfile]:
    """Every profile of the simplex grid with denominators ``grid_depth``
    that passes is_mixed_nash, deduplicated and sorted. Only grid points
    are certified, so completeness is not promised: an equilibrium off the
    grid (three-player equilibria can be irrational) is not found. For
    2-player max-quantifier games use solve_support_enumeration_2p.

    The grid is screened, then certified. The screen tests every grid
    profile at once for the longest prefix of players whose quantifier is
    of a screened kind and applies to the game, with the support
    enumeration's slack; it only discards profiles that is_mixed_nash would
    reject at one of those players. Every survivor is then certified by
    is_mixed_nash, in itertools.product order. A player after the prefix is
    never screened, so each membership test outside the prefix, and each
    error one raises, happens at the grid point where the per-point loop
    would meet it.
    """
    if grid_depth < 1:
        raise StructuralError("grid_depth must be >= 1")
    per_player_counts = [
        math.comb(grid_depth + c - 1, c - 1) for c in g.move_counts
    ]
    check_budget(math.prod(per_player_counts), budget, "grid profiles")
    grids = [_simplex_grid(c, grid_depth) for c in g.move_counts]
    found = []
    for idx in _grid_survivors(g, grids, _screened_players(g),
                               _screen_bound(g, tol)):
        profile = mixed_profile(g, [grid[k] for grid, k in zip(grids, idx)])
        if is_mixed_nash(g, profile, tol):
            found.append(profile)
    return _dedupe_sorted(found, max(tol, 1e-9))
