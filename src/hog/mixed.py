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
(player_certificates). Both solvers end in one certify step, _certified: a
chunk of profiles is validated as one stack (_listed_profiles, bit for bit
what mixed_profile builds), and the ListedProfile tuples that is_mixed_nash
certifies are kept. is_mixed_nash does not validate them again, only
rescales them as validation would, and they keep the rows of the
certificate that accepted them; the CLI prints those rows, so no listed
profile is certified twice. Support enumeration handles 2-player games
whose quantifiers are max or min, where it finds every equilibrium with a
solvable support pair; the existence theorem promises one, so an empty
result signals a bug. Under the mixed lift a min quantifier on payoff u is
a max quantifier on -u (IEEE negation is exact, so the min test reads the
same bits as the max test on the negated table), so the enumeration runs on
the payoffs with each min player's negated and certifies on the game
itself. Every other game goes to the grid search, which certifies the
points of a simplex grid and nothing else: the existence theorem does not
promise a grid point (three-player equilibria can be irrational), so an
empty grid result is an answer, not a contradiction.

The grid search screens, then certifies. For each player, one contraction
per other player gives the deviation tables at every grid combination of
the others, each built once; the last one writes the others' grid axes
first, in player order, and the player's move axis last, so the tables are
rows in grid order. One matrix product of those rows with the player's own
grid matrix (an einsum for vector outcomes) gives the values of all its
grid points on each table; the kernel tests each table once against those
values, with slack for rounding, in calls of at most _STACK candidate
values, and the verdicts are ANDed into the grid mask through one
transposed view. Only the longest prefix of players whose quantifier is of
a screened kind and applies to the game is screened; the screen's own
kernel call decides the latter, as a StructuralError ends the prefix. So
the tests of every later player happen, and raise, exactly where a
per-point loop would meet them. The survivors, one argwhere array, go
through the certify step chunk by chunk, in grid order.

Support enumeration (von Stengel 2002; Porter, Nudelman & Shoham 2008)
walks system sizes s = 2, 3, ...: at size s, the square shape (s - 1,
s - 1), whose two indifference systems per pair are s x s, and the one-off
shapes (s - 1, s) and (s, s - 1), whose (s + 1) x s systems are screened
by an s x s solve each. Before any screen or solve, a pair (R, C) is
dropped when one of its moves is strictly dominated by more than a margin
given the opponent's support (conditional dominance): a column of C that
some column beats on every row of R, or a row of R that some row beats on
every column of C. Such a pair gives no profile that is_mixed_nash accepts
(see _dominance_margin). Square shapes test both sides, rectangular shapes
only the long one. The dominance table is built once per call and side: for
every support, indexed by its bitmask, the bitmask of the opponent's moves
dominated given it, by one pass over the supports in which each support's
table is its lower part's ANDed with one move's. The live pairs of a size's
three shapes are selected by one broadcast per side; the support
combinations and their bitmasks are read-only tables cached per (moves,
size) across calls.

All s x s systems of a size go into one stack, solved by one batched LU
solve with a right-hand side per system (_solve_size): both players'
square systems, and for each one-off pair the transposed top block of its
system, whose solution gives a left null vector and so the system's
least-squares residual. Batched LU factors each matrix on its own, so
every system gets the bits of a solve of its own; no system is padded to
another size, which would change them. A stack holds at most _STACK
systems, so the larger sizes of large games take several. A singular
matrix decides only for itself: one batched slogdet finds every such
matrix of the stack, the others are solved in one batched solve, a
singular square system is solved on its own, and a pair whose own top
block is singular is kept while the rest of its stack keeps its verdicts.

That left-null solve is the one screen of every overdetermined system.
Only the pairs it keeps build their full systems, for the stacked
least-squares test by the residual of each one's minimum-norm solution
(_least_squares); each system of its survivors is then solved on its own.
Singular and rectangular systems are solved by least squares; a system is
accepted when its max-residual is at most _RESIDUAL_TOL.

A shape whose long side is at least its short side + 2 comes after the
sizes, and is enumerated only when the shape one shorter on its long side
had a pair that passed the residual half of its screen; otherwise all its
pairs are pruned by subsets. This is conservative. A solution of the system
of (R, C') also solves the system of every (R, C) with C inside C', which
keeps the unknowns and drops equations: where the solution of an accepted
pair has a max-residual of at most _RESIDUAL_TOL, each subsystem of r
equations has a least-squares residual of at most sqrt(r) * _RESIDUAL_TOL,
inside its shape's screen, which adds _SCREEN_MARGIN for rounding. No move
of such a subpair's long side is dominated given R, as it is not in
(R, C'), so by induction on C every subpair down to short side + 1 reaches
the screen and passes it. The negative-probability half of the screen
stays out of this test: the minimum-norm solution of a rank-deficient
subsystem can be negative where the wider system has a nonnegative one.
An enumerated wide shape goes through _solve_size in stacks with no square
pair: each system is screened by the top block of its one-off subsystem,
its first k + 1 payoff rows and the sum row, against the full system's
bound, as the least-squares residual of a system is at least that of any
subset of its rows. On a nondegenerate game no one-off system is
consistent, so no wider shape is enumerated.

The candidates of every stack, pairs whose systems both solved with no
negative probability, are collected for the pass and scattered into
full-length strategies once, and one vectorised regret screen, in chunks of
at most _STACK candidates, drops those that are clearly not equilibria. The
screens only discard; every profile returned is still validated as
mixed_profile would validate it and certified by is_mixed_nash, in
enumeration order, shapes k outer and l inner, which decides which of two
near-duplicates _dedupe_sorted keeps. On payoffs that may overflow, the
enumeration runs once more on the payoffs scaled by an exact power of two,
where rounding stays inside the absolute tolerances.
"""

from __future__ import annotations

import collections
import functools
import itertools
import logging
import math

import numpy as np

from .budget import check_budget
from .core import (OutcomeTable, QuantifierKind, SelectionFunction, as_outcome,
                   is_move)
from .errors import StructuralError
from .simultaneous import SimultaneousGame, real_array

logger = logging.getLogger(__name__)

TOL_SIMPLEX = 1e-9

MixedProfile = tuple[np.ndarray, ...]


def mixed_strategy(probs) -> np.ndarray:
    """Validate and normalize a probability vector: coordinates >=
    -TOL_SIMPLEX are clipped to 0 and the vector is rescaled to sum exactly
    to 1. Entries are numbers, as ``real_array`` takes them."""
    vec = real_array(probs, "mixed strategy", "a probability")
    if vec.ndim != 1 or vec.size == 0:
        raise StructuralError("a mixed strategy is a nonempty 1-d probability vector")
    if np.any(vec < -TOL_SIMPLEX):
        raise StructuralError(f"negative probability beyond tolerance: {vec}")
    with np.errstate(over="ignore"):
        total = float(vec.sum())
    if not (1 - TOL_SIMPLEX <= total <= 1 + TOL_SIMPLEX):
        raise StructuralError(f"probabilities sum to {total}, expected 1")
    return _rescaled(np.clip(vec, 0.0, None))


def _rescaled(vec: np.ndarray) -> np.ndarray:
    """``vec`` divided by its sum, read-only: the last step of
    mixed_strategy. On a vector mixed_strategy returned, which holds no
    negative entry or -0.0, it gives exactly what mixed_strategy gives when
    that vector is passed to it again."""
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
    if not is_move(move, count):
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
    expected_outcome) and whether the player's quantifier accepts them. A
    solver's ListedProfile, which mixed_profile built, is not validated
    again on a game of its move counts, only rescaled as validation would
    rescale it: the certificate is read at the point where check-eq and the
    public functions read the printed profile. Any other profile is
    validated."""
    if (isinstance(profile, ListedProfile)
            and tuple(map(len, profile)) == tuple(g.move_counts)):
        profile = tuple(map(_rescaled, profile))
    else:
        profile = mixed_profile(g, profile)
    for i, phi in enumerate(g.quantifiers):
        with g.quiet():
            table = _contract(g, i, profile, keep=i)
            value = _contract(g, i, profile)
            ok = bool(phi.kernel(table[None], value[None, None], tol)[0, 0])
        yield table, value, ok


class ListedProfile(tuple):
    """A mixed profile as a solver lists it: the strategies of
    mixed_profile, validated and read-only. ``certificates`` holds the rows
    of player_certificates with which is_mixed_nash accepted it, so a report
    prints them without certifying the profile again."""

    certificates: tuple = ()


def is_mixed_nash(g: SimultaneousGame, profile: MixedProfile,
                  tol: float = 1e-9) -> bool:
    """True iff every player's expected outcome is acceptable to their
    quantifier on the vertex-restricted deviation table. The players are
    tested in turn, up to the first who rejects; on a ListedProfile it
    accepts, the rows are kept as its certificates."""
    rows = []
    for row in player_certificates(g, profile, tol):
        if not row[2]:
            return False
        rows.append(row)
    if isinstance(profile, ListedProfile):
        profile.certificates = tuple(rows)
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
    players, each with a max or a min quantifier."""
    return (g.num_players == 2
            and all(phi.kind in (QuantifierKind.MAX, QuantifierKind.MIN)
                    for phi in g.quantifiers))


_RESIDUAL_TOL = 1e-7
# Systems per stacked linear-algebra call: bounds the stacks' memory whatever
# the budget. The stacks of support enumeration are cut after its dominance
# prune, so they are fuller than windows of as many pairs cut before it; its
# index arrays of a size's live pairs, 16 bytes a pair, are not cut.
_STACK = 1 << 14
# Margin by which the stacked least-squares test widens the residual and
# probability thresholds, far above the rounding gap between its
# pseudo-inverse and the per-pair lstsq that decides.
_SCREEN_MARGIN = 1e-6
# Factor by which the left-null screen widens the residual threshold: its
# residual is computed from a solve with the top block, whose rounding the
# pseudo-inverse that decides does not share.
_LEFT_NULL_MARGIN = 10.0


def _indifference_systems(payoff: np.ndarray, own: np.ndarray,
                          other: np.ndarray,
                          out: np.ndarray | None = None) -> np.ndarray:
    """The indifference systems of a stack of support pairs: ``own`` is an
    (N, k) and ``other`` an (N, l) array of move ids. Row j of system n
    reads sum_i p_i * payoff[own[n, i], other[n, j]] - v = 0; the last row
    is sum_i p_i = 1. The right-hand side is the last unit vector. Written
    into ``out``, a zeroed (N, l + 1, k + 1) array, if given."""
    n, k = own.shape
    l = other.shape[1]
    mats = np.zeros((n, l + 1, k + 1)) if out is None else out
    mats[:, :l, :k] = payoff[own[:, None, :], other[:, :, None]]
    mats[:, :l, k] = -1.0
    mats[:, l, :k] = 1.0
    return mats


def _residual(mats: np.ndarray, sols: np.ndarray) -> np.ndarray:
    """|mats[n] @ sols[n] - e_last| for every system of a stack, one row
    per system."""
    res = np.matmul(mats, sols[..., None])[..., 0]
    res[:, -1] -= 1.0
    return np.abs(res, out=res)


def _solve_each(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each system of a stack of rectangular or singular indifference
    systems on its own, by least squares. Returns the probabilities, (N, k),
    and the mask of systems whose max-residual is at most _RESIDUAL_TOL."""
    rhs = np.zeros(mats.shape[1])
    rhs[-1] = 1.0
    probs = np.zeros((len(mats), mats.shape[2] - 1))
    ok = np.zeros(len(mats), dtype=bool)
    for n, mat in enumerate(mats):
        sol = np.linalg.lstsq(mat, rhs, rcond=None)[0]
        probs[n] = sol[:-1]
        ok[n] = np.max(np.abs(mat @ sol - rhs)) <= _RESIDUAL_TOL
    return probs, ok


def _residual_bound(rows: int) -> float:
    """The least-squares screen's residual threshold for systems of
    ``rows`` equations: the residual of an accepted solution, at most
    _RESIDUAL_TOL per equation, plus _SCREEN_MARGIN for rounding."""
    return math.sqrt(rows) * _RESIDUAL_TOL + _SCREEN_MARGIN


def _left_null_verdict(w: np.ndarray, bound: float) -> np.ndarray:
    """The left-null screen's verdicts (see _solve_size) from the solutions
    ``w`` of the transposed top blocks, one row per system: 1 / |(w, 1)|
    exceeds _LEFT_NULL_MARGIN * ``bound`` just when |w|^2 falls short of
    1 / (_LEFT_NULL_MARGIN * bound)^2 - 1. A non-finite |w|^2 keeps its
    pair."""
    with np.errstate(over="ignore"):
        norms = np.einsum("ij,ij->i", w, w)
    return ~(norms < (_LEFT_NULL_MARGIN * bound) ** -2 - 1.0)


@functools.cache
def _right_hand_sides(s: int) -> np.ndarray:
    """The two right-hand sides of _solve_size's systems of size s, as
    (2, s, 1): the last unit vector and (-1, ..., -1, -0.0)."""
    rhs = np.zeros((2, s, 1))
    rhs[0, -1] = 1.0
    rhs[1] = -1.0
    rhs[1, -1] = -0.0
    rhs.setflags(write=False)
    return rhs


def _solve_size(a: np.ndarray, b: np.ndarray, rows: np.ndarray,
                cols: np.ndarray, parts, tol: float) -> tuple[np.ndarray, ...]:
    """One stack of s x s systems in one batched LU solve, each system with
    a right-hand side of its own. Batched LU factors each matrix on its own,
    so every system gets the bits of a solve on its own; no system is padded
    to another size. The stack holds:

    - both players' indifference systems of the square support pairs
      (rows, cols), of shape (s - 1, s - 1), with the last unit vector. The
      second player's indifference fixes the row probabilities p, the first
      player's the column probabilities q;
    - for each pair of ``parts``, (payoff, own, other) stacks as
      _indifference_systems takes them, all of one system shape with
      ``other`` longer than ``own``, the left-null screen of the pair's
      system (_left_null_verdict): the transposed top block of its one-off
      subsystem, its first s payoff rows and the sum row, with minus the
      sum row, (-1, ..., -1, -0.0).

    Returns p, q, the mask of square pairs whose systems both solved with no
    probability below -``tol``, and the left-null screen's verdicts on the
    parts' pairs in turn. When the stack holds a singular matrix, one
    batched slogdet finds every such matrix (a sign of 0 comes from the same
    LU zero pivot that makes the solve raise) and the others are solved in
    one batched solve: a singular square system is solved by _solve_each,
    and a pair whose own top block is singular is kept."""
    n, k = rows.shape
    square = 2 * n
    tops = sum(len(own) for _, own, _ in parts)
    mats = np.zeros((square + tops, k + 1, k + 1))
    _indifference_systems(b, rows, cols, mats[:n])
    _indifference_systems(a.T, cols, rows, mats[n:square])
    at = square
    for payoff, own, other in parts:
        mats[at:at + len(own), :k] = payoff[own[:, :, None],
                                            other[:, None, :k + 1]]
        at += len(own)
    mats[square:, k] = -1.0
    rhs = np.repeat(_right_hand_sides(k + 1), [square, tops], axis=0)
    try:
        sols = np.linalg.solve(mats, rhs)[..., 0]
        singular = None
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(mats)[0] == 0
        logger.debug("%d singular systems in a stack of %d; solving pair by "
                     "pair by least squares where square, keeping the pair "
                     "for the pseudo-inverse where overdetermined, the others "
                     "in one solve", np.count_nonzero(singular), len(mats))
        sols = np.zeros((len(mats), k + 1))
        sols[~singular] = np.linalg.solve(mats[~singular],
                                          rhs[~singular])[..., 0]
    probs = sols[:square, :-1]
    # Per square system, the residuals over _RESIDUAL_TOL (or NaN), then
    # the probabilities below -tol.
    bad = ~(_residual(mats[:square], sols[:square]) <= _RESIDUAL_TOL)
    # A stack's overdetermined systems have one shape, and so one bound.
    screened = _left_null_verdict(sols[square:], _residual_bound(
        parts[0][2].shape[1] + 1 if parts else k + 2))
    if singular is not None:
        cut = singular[:square]
        probs[cut], solved = _solve_each(mats[:square][cut])
        bad[cut] = ~solved[:, None]
        screened[singular[square:]] = True
    bad[:, :-1] |= probs < -tol
    ok = ~bad.any(axis=1)
    return probs[:n], probs[n:], ok[:n] & ok[n:], screened


def _stacked_systems(parts) -> np.ndarray:
    """The indifference systems of ``parts``, (payoff, own, other) stacks as
    _indifference_systems takes them, all of one shape, in one stack."""
    _, own, other = parts[0]
    mats = np.zeros((sum(len(part[1]) for part in parts), other.shape[1] + 1,
                     own.shape[1] + 1))
    at = 0
    for payoff, own, other in parts:
        _indifference_systems(payoff, own, other, mats[at:at + len(own)])
        at += len(own)
    return mats


def _least_squares(mats: np.ndarray,
                   tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The pseudo-inverse half of the least-squares screen of a stack of
    overdetermined systems, by the residual of each one's minimum-norm
    solution, with a margin that leaves the decision on every pair it keeps
    to _solve_each. Returns the masks of the systems that may be consistent
    and of those of them that may also have no negative probability."""
    # The minimum-norm solution is the pseudo-inverse's last column, with
    # singular values cut where lstsq(rcond=None) cuts them.
    sols = np.linalg.pinv(mats, rtol=None)[..., -1]
    consistent = (np.linalg.norm(_residual(mats, sols), axis=1)
                  <= _residual_bound(mats.shape[1]))
    return consistent, consistent & ~(
        sols[:, :-1] < -(tol + _SCREEN_MARGIN)).any(axis=1)


@functools.cache
def _supports(m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """itertools.combinations(range(m), k) as a read-only (C(m, k), k)
    array, and each combination's bitmask (bit i for move i). Shared by
    every enumeration; the budget keeps m small."""
    combos = np.array(list(itertools.combinations(range(m), k)),
                      dtype=np.intp).reshape(-1, k)
    bits = (1 << combos).sum(axis=1)
    combos.setflags(write=False)
    bits.setflags(write=False)
    return combos, bits


def _scatter(pieces, moves: int) -> np.ndarray:
    """Full-length strategies, one row per pair of the (supports,
    probabilities) pieces in turn, with the clipped probabilities on each
    support."""
    out = np.zeros((sum(len(support) for support, _ in pieces), moves))
    at = 0
    for support, probs in pieces:
        out[np.arange(at, at + len(support))[:, None], support] = probs
        at += len(support)
    return np.clip(out, 0.0, None, out=out)


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


def _dominated_moves(payoff: np.ndarray, margin: float) -> np.ndarray:
    """For every support of own moves, indexed by its bitmask, the bitmask
    of the opponent's moves that another opponent move beats by more than
    ``margin`` against every move of the support. ``payoff`` is the
    opponent's, own moves by opponent moves. The supports of a game small
    enough to enumerate have far fewer than 63 moves."""
    own, moves = payoff.shape
    bits = 1 << np.arange(moves, dtype=np.int64)
    # gaps[i, c, d]: against own move i, move d beats move c by more than
    # the margin.
    gaps = (payoff[:, None, :] - payoff[:, :, None]) > margin
    # beaters[s, c]: the moves that beat c against every move of support s,
    # as a bitmask. The supports whose highest move is i are those below i,
    # each with i added. No move dominates itself, whatever the margin, so
    # each move's own bit is cleared.
    beaters = np.empty((1 << own, moves), dtype=np.int64)
    beaters[0] = -1
    gap_bits = (gaps @ bits) & ~bits
    for i in range(own):
        np.bitwise_and(beaters[:1 << i], gap_bits[i],
                       out=beaters[1 << i:2 << i])
    return (beaters != 0) @ bits


def _dedupe_sorted(profiles: list[MixedProfile], tol: float) -> list[MixedProfile]:
    """The profiles, each dropped if an earlier kept one is within ``tol``
    of it in every coordinate, sorted by their coordinates. Each candidate
    is compared with every kept profile at once."""
    if not profiles:
        return []
    flats = np.array([np.concatenate(cand) for cand in profiles])
    seen, kept = np.empty_like(flats), []
    for k, flat in enumerate(flats):
        if not (np.abs(seen[:len(kept)] - flat).max(axis=1) <= tol).any():
            seen[len(kept)] = flat
            kept.append(k)
    kept.sort(key=lambda k: flats[k].tolist())
    return [profiles[k] for k in kept]


def _live_pairs(m0: int, m1: int, k: int, l: int, beaten0,
                beaten1) -> tuple[np.ndarray, np.ndarray]:
    """The support pairs of a rectangular shape (k, l) that dominance does
    not drop, in enumeration order (row support outer, column support
    inner), as index arrays into the shape's row and column combinations,
    selected by one broadcast that tests the long side only. ``beaten0``
    and ``beaten1`` are the _dominated_moves tables of the two sides."""
    row_bits, col_bits = _supports(m0, k)[1], _supports(m1, l)[1]
    if k < l:
        return np.nonzero((beaten1[row_bits, None] & col_bits) == 0)
    return np.nonzero((row_bits[:, None] & beaten0[col_bits]) == 0)


@functools.cache
def _size_bits(m: int, k: int) -> np.ndarray:
    """The bitmasks of the supports of k moves out of m, then, if k < m,
    those of k + 1 moves: one side's supports in the shapes of system size
    k + 1. Read-only, cached as _supports is."""
    bits = _supports(m, k)[1]
    if k < m:
        bits = np.concatenate([bits, _supports(m, k + 1)[1]])
        bits.setflags(write=False)
    return bits


def _size_pairs(m0: int, m1: int, k: int, beaten0, beaten1):
    """The support pairs of system size k + 1 that dominance does not drop,
    as index arrays into each shape's row and column combinations, in
    enumeration order, shape by shape: the square shape (k, k), then the
    one-off shapes (k, k + 1) and (k + 1, k) that fit the game, as (shape,
    rows, cols). One broadcast per side serves all three shapes: the column
    side tests the row supports of k moves against the column supports of k
    and k + 1 moves, and the row side the row supports of k and k + 1 moves
    against the column supports of k moves. Square shapes test both sides,
    rectangular shapes only the long one."""
    rows, cols = _size_bits(m0, k), _size_bits(m1, k)
    nr, nc = math.comb(m0, k), math.comb(m1, k)
    col_side = (beaten1[rows[:nr], None] & cols) == 0
    row_side = (rows[:, None] & beaten0[cols[:nc]]) == 0
    square = col_side[:, :nc] & row_side[:nr]
    pairs = [((k, k), *np.nonzero(square))]
    if k < m1:
        pairs.append(((k, k + 1), *np.nonzero(col_side[:, nc:])))
    if k < m0:
        pairs.append(((k + 1, k), *np.nonzero(row_side[nr:])))
    return pairs


def _size_stacks(m0: int, m1: int, pairs):
    """The stacks of one system size s, from its _size_pairs. Square pairs
    come first, two systems each, then one-off pairs, one system each; a
    stack holds at most _STACK systems, or one square pair's two, and no
    pair is split. Yields the stack's square pairs, as row and column
    supports, and its one-off pairs, as (shape, row supports, column
    supports) per shape."""
    def supports(shape, r, c):
        return _supports(m0, shape[0])[0][r], _supports(m1, shape[1])[0][c]

    (shape, r, c), *one_off = pairs
    total = sum(len(rows) for _, rows, _ in one_off)
    i = j = 0
    while i < len(r) or j < total:
        di = min(len(r) - i, max(1, _STACK // 2))
        dj = min(total - j, max(0, _STACK - 2 * di))
        pieces, at = [], 0
        for one, rows, cols in one_off:
            lo, hi = max(j - at, 0), min(j + dj - at, len(rows))
            if lo < hi:
                pieces.append((one, *supports(one, rows[lo:hi], cols[lo:hi])))
            at += len(rows)
        yield supports(shape, r[i:i + di], c[i:i + di]), pieces
        i, j = i + di, j + dj


def _listed_profiles(*stacks: np.ndarray) -> list[ListedProfile]:
    """mixed_profile of each profile of n C-contiguous stacks of
    strategies, one stack per player and one row per profile, as one stack:
    the profiles whose rows all sum to within TOL_SIMPLEX of 1, each row
    divided by its own sum, read-only. The rows (_scatter's, or grid points)
    hold no negative entry or -0.0, so mixed_strategy's clip changes
    nothing, and numpy sums each row of a C-contiguous stack as it sums the
    row alone: the arrays are those mixed_profile returns, bit for bit."""
    sums = np.array([stack.sum(axis=1) for stack in stacks])
    ok = ((1 - TOL_SIMPLEX <= sums) & (sums <= 1 + TOL_SIMPLEX)).all(axis=0)
    if not ok.all():
        stacks, sums = [stack[ok] for stack in stacks], sums[:, ok]
    strategies = [stack / total[:, None] for stack, total in zip(stacks, sums)]
    for strategy in strategies:
        strategy.setflags(write=False)
    return [ListedProfile(profile) for profile in zip(*strategies)]


def _certified(g: SimultaneousGame, tol: float,
               *stacks: np.ndarray) -> list[ListedProfile]:
    """The profiles of _listed_profiles(*stacks) that is_mixed_nash certifies."""
    return [profile for profile in _listed_profiles(*stacks)
            if is_mixed_nash(g, profile, tol)]


def _certified_supports(g: SimultaneousGame, a: np.ndarray, b: np.ndarray,
                        tol: float, regret_bound: float,
                        margin: float) -> list[MixedProfile]:
    """The profiles of every support pair of the payoff matrices ``a`` and
    ``b`` that no move dominated by more than ``margin`` excludes and whose
    indifference systems pass the screens, certified on ``g`` by
    is_mixed_nash, in enumeration order (see
    solve_support_enumeration_2p)."""
    m0, m1 = g.move_counts
    # Per support, as indexed by its bitmask, the opponent's moves
    # dominated given it.
    beaten1 = _dominated_moves(b, margin)
    beaten0 = _dominated_moves(a.T, margin)
    # The rectangular shapes with a pair that passed the residual half of
    # the least-squares screen.
    consistent: set[tuple[int, int]] = set()
    counts = collections.Counter()
    # Per shape, the candidates in enumeration order: pairs whose systems
    # both solved with no negative probability, as (row supports, p, column
    # supports, q).
    candidates = collections.defaultdict(list)

    def overdetermined(shape, s0, s1):
        # The column player's indifference fixes p when l > k, the row
        # player's q when k > l.
        return (b, s0, s1) if shape[1] > shape[0] else (a.T, s1, s0)

    def add(shape, s0, p, s1, q, ok):
        counts["solved"] += np.count_nonzero(ok)
        if ok.any():
            candidates[shape].append((s0[ok], p[ok], s1[ok], q[ok]))

    def settle(rows, cols, pieces):
        # One stack: its square pairs (rows, cols) and its overdetermined
        # (shape, s0, s1) pieces. Only the pairs the left-null screen keeps
        # build their systems, for the pseudo-inverse, and each pair the
        # pseudo-inverse keeps is solved on its own.
        p, q, ok, screened = _solve_size(
            a, b, rows, cols, [overdetermined(*piece) for piece in pieces],
            tol)
        add((rows.shape[1],) * 2, rows, p, cols, q, ok)
        counts["screened out"] += len(screened) - np.count_nonzero(screened)
        survivors, at = [], 0
        for shape, s0, s1 in pieces:
            mask = screened[at:at + len(s0)]
            at += len(s0)
            if mask.any():
                survivors.append((shape, s0[mask], s1[mask]))
        if not survivors:
            return
        residual_ok, keep = _least_squares(
            _stacked_systems([overdetermined(*piece) for piece in survivors]),
            tol)
        at = 0
        for shape, s0, s1 in survivors:
            part = slice(at, at + len(s0))
            at = part.stop
            if residual_ok[part].any():
                consistent.add(shape)
            counts["screened out"] += len(s0) - np.count_nonzero(keep[part])
            if keep[part].any():
                s0, s1 = s0[keep[part]], s1[keep[part]]
                p, ok_p = _solve_each(_indifference_systems(b, s0, s1))
                q, ok_q = _solve_each(_indifference_systems(a.T, s1, s0))
                add(shape, s0, p, s1, q,
                    ok_p & ok_q & ~(p < -tol).any(axis=1)
                    & ~(q < -tol).any(axis=1))

    for k in range(1, min(m0, m1) + 1):
        # System size k + 1: the square shape (k, k), and the one-off
        # shapes (k, k + 1) and (k + 1, k), whose screens solve the
        # transposed top blocks of their (k + 2) x (k + 1) systems.
        pairs = _size_pairs(m0, m1, k, beaten0, beaten1)
        for (k0, l0), rows, _ in pairs:
            counts["dominated"] += (math.comb(m0, k0) * math.comb(m1, l0)
                                    - len(rows))
        for (rows, cols), pieces in _size_stacks(m0, m1, pairs):
            settle(rows, cols, pieces)
    # The wider shapes, k outer and l inner, so that the shape one shorter
    # on the long side is settled first, in stacks with no square pair.
    for k in range(1, m0 + 1):
        for l in range(1, m1 + 1):
            if abs(k - l) < 2:
                continue
            if ((k, l - 1) if l > k else (k - 1, l)) not in consistent:
                counts["pruned"] += math.comb(m0, k) * math.comb(m1, l)
                continue
            r, c = _live_pairs(m0, m1, k, l, beaten0, beaten1)
            counts["dominated"] += math.comb(m0, k) * math.comb(m1, l) - len(r)
            row_sets, col_sets = _supports(m0, k)[0], _supports(m1, l)[0]
            no_square = np.empty((0, min(k, l)), dtype=np.intp)
            for at in range(0, len(r), _STACK):
                settle(no_square, no_square,
                       [((k, l), row_sets[r[at:at + _STACK]],
                         col_sets[c[at:at + _STACK]])])
    # The regret screen in chunks, then certification in enumeration order:
    # shapes k outer, l inner.
    found: list[MixedProfile] = []
    pieces = [piece for shape in sorted(candidates)
              for piece in candidates[shape]]
    if pieces:
        rows = _scatter([(s0, p) for s0, p, _, _ in pieces], m0)
        cols = _scatter([(s1, q) for _, _, s1, q in pieces], m1)
        for at in range(0, len(rows), _STACK):
            chunk = slice(at, at + _STACK)
            passed = at + np.flatnonzero(_regret_screen(
                a, b, rows[chunk], cols[chunk], regret_bound))
            found += _certified(g, tol, rows[passed], cols[passed])
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "support enumeration %dx%d: %d support pairs enumerated, %d "
            "pruned by subsets, %d screened out, %d solved, %d certified, "
            "%d pruned by dominance",
            m0, m1, (2 ** m0 - 1) * (2 ** m1 - 1), counts["pruned"],
            counts["screened out"], counts["solved"], len(found),
            counts["dominated"])
    return found


def solve_support_enumeration_2p(g: SimultaneousGame, tol: float = 1e-9,
                                 budget: int | None = None) -> list[MixedProfile]:
    """All mixed equilibria of a 2-player game with max or min quantifiers
    that support enumeration finds: the profile of each support pair whose
    indifference systems are solvable with nonnegative probabilities, if
    is_mixed_nash certifies it on ``g``, deduplicated and sorted. A min
    player's payoffs are negated, which turns its quantifier into max under
    the mixed lift. Each profile returned is a ListedProfile holding the
    certificate that accepted it. The (2^m0 - 1)(2^m1 - 1) support pairs
    are checked against the budget before any is enumerated. An empty
    result contradicts the existence theorem for such games and is logged
    as a distinguished warning.

    With the ``hog.mixed`` logger at DEBUG, one line per pass gives the
    support pairs enumerated, pruned by subsets, screened out, solved (both
    systems, nonnegative), certified and pruned by dominance. The arithmetic
    runs inside ``g.quiet()``. When the payoffs may overflow, a second pass
    runs on the payoffs scaled by ``g.payoff_scale``, still certifying on
    ``g``, with the dominance margin and the regret screen's bound scaled
    with them: near the largest float, the rounding of a correct solution
    alone exceeds the absolute residual tolerances.
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


@functools.cache
def _simplex_grid(moves: int, depth: int) -> np.ndarray:
    """All probability vectors with denominators ``depth`` over ``moves``
    coordinates, one per row, lexicographic by numerator tuple; read-only
    and shared by every call, as _supports is. solve_generic checks each
    grid's size against the budget before it is built."""
    rows = []
    for combo in itertools.combinations(range(depth + moves - 1), moves - 1):
        numerators = []
        prev = -1
        for cut in combo:
            numerators.append(cut - prev - 1)
            prev = cut
        numerators.append(depth + moves - 2 - prev)
        rows.append(np.array(numerators, dtype=float) / depth)
    grid = np.array(rows)
    grid.setflags(write=False)
    return grid


# Kinds whose acceptance only widens with the tolerance; average's exact
# tie test on the mean does not, and custom tests are never screened.
_SCREENED_KINDS = {QuantifierKind.MAX, QuantifierKind.MIN,
                   QuantifierKind.EPS_BALL, QuantifierKind.FIXED_POINT}


def _deviation_tables(g: SimultaneousGame, i: int,
                      grids: list[np.ndarray]) -> np.ndarray:
    """Player i's deviation tables at every grid combination of the other
    players, one row per combination in grid order: its payoff tensor
    contracted with their grid matrices (one strategy per row) in turn. The
    last contraction writes the others' grid axes first, in player order,
    then player i's move axis and the outcome axis of vector outcomes, so
    the rows are one reshape away."""
    n = g.num_players
    # Labels: move axes 0..n-1, grid axes n..2n-1, the outcome axis 2n.
    tail = [2 * n] if g.payoffs.ndim > n + 1 else []
    others = [j for j in range(n) if j != i]
    t, labels = g.payoffs[i], list(range(n)) + tail
    for j in others:
        out = [n + j if label == j else label for label in labels]
        if j == others[-1]:
            out = [n + k for k in others] + [i] + tail
        t, labels = np.einsum(t, labels, grids[j], [n + j, j], out), out
    return t.reshape(-1, *t.shape[n - 1:])


def _grid_survivors(g: SimultaneousGame, grids: list[np.ndarray],
                    bound: float) -> np.ndarray:
    """The index rows of the grid profiles, in itertools.product order,
    that pass the stacked membership test of each player of the screened
    prefix at tolerance ``bound``, as one (survivors, players) array.

    The prefix runs up to the first player whose quantifier is not of a
    screened kind or refuses the game's table shape: the StructuralError of
    that player's first kernel call ends it, before its verdicts reach the
    mask. Player i's deviation tables (_deviation_tables) are built once.
    Each serves all of player i's own grid points: the kernel tests it
    against their values, one matrix product of the tables with player i's
    grid matrix for scalar outcomes and one einsum for vector outcomes, and
    the verdicts are ANDed into the mask through one transposed view. No
    kernel call sees more than _STACK candidate values. The budget bounds
    every other array: each grid has at least as many points as its player
    has moves, so a table stack has at most one entry per grid profile and
    outcome coordinate, and the mask and the survivors' indices have at
    most n per grid profile."""
    n = g.num_players
    sizes = [len(grid) for grid in grids]
    mask = np.ones(sizes, dtype=bool)
    scalar = g.payoffs.ndim == n + 1
    for i, phi in enumerate(g.quantifiers):
        if phi.kind not in _SCREENED_KINDS or not mask.any():
            break
        tables = _deviation_tables(g, i, grids)
        verdict = np.empty((len(tables), sizes[i]), dtype=bool)
        rows = max(1, _STACK // sizes[i])
        try:
            with g.quiet():
                for r in range(0, len(tables), rows):
                    chunk = tables[r:r + rows]
                    for c in range(0, sizes[i], _STACK):
                        own = grids[i][c:c + _STACK]
                        values = (chunk @ own.T if scalar else
                                  np.einsum("rm...,cm->rc...", chunk, own))
                        verdict[r:r + rows, c:c + _STACK] = (
                            phi.kernel(chunk, values, bound))
        except StructuralError:
            break
        view = mask.transpose([j for j in range(n) if j != i] + [i])
        view &= verdict.reshape(view.shape)
    return np.argwhere(mask)


def solve_generic(g: SimultaneousGame, grid_depth: int = 3, tol: float = 1e-9,
                  budget: int | None = None) -> list[MixedProfile]:
    """Every profile of the simplex grid with denominators ``grid_depth``
    that passes is_mixed_nash, deduplicated and sorted. Only grid points
    are certified, so completeness is not promised: an equilibrium off the
    grid (three-player equilibria can be irrational) is not found. For
    2-player max-quantifier games use solve_support_enumeration_2p.

    The grid profiles, and the entries of the grid matrices (grid points
    times moves, summed over the players), are checked against the budget
    before any grid is built. The grid is screened, then certified. The
    screen tests every grid profile for the longest prefix of players whose
    quantifier is of a screened kind and applies to the game, with the
    support enumeration's slack; it only discards profiles that
    is_mixed_nash would reject at one of those players. The survivors go
    through the certify step (_certified) in chunks of at most _STACK, in
    itertools.product order, and each profile returned is a ListedProfile
    holding the certificate that accepted it. A player after the prefix is
    never screened, so each membership test outside the prefix, and each
    error one raises, happens at the grid point where the per-point loop
    would meet it.
    """
    if grid_depth < 1:
        raise StructuralError("grid_depth must be >= 1")
    sizes = [math.comb(grid_depth + c - 1, c - 1) for c in g.move_counts]
    check_budget(math.prod(sizes), budget, "grid profiles")
    check_budget(sum(s * c for s, c in zip(sizes, g.move_counts)), budget,
                 "grid matrix entries")
    grids = [_simplex_grid(c, grid_depth) for c in g.move_counts]
    survivors = _grid_survivors(g, grids, _screen_bound(g, tol))
    found = []
    for at in range(0, len(survivors), _STACK):
        chunk = survivors[at:at + _STACK].T
        found += _certified(g, tol,
                            *(grid[k] for grid, k in zip(grids, chunk)))
    return _dedupe_sorted(found, max(tol, 1e-9))
