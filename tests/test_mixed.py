import itertools
import json
import logging
import math
import random

import numpy as np
import pytest

import hog.cli
import hog.mixed
from hog.core import (Quantifier, QuantifierKind, argmax_selection,
                      argmin_selection, constant_selection, custom_quantifier,
                      eps_ball_quantifier, fixed_point_quantifier,
                      max_quantifier, min_quantifier, nearest_mean_selection,
                      average_quantifier, OutcomeTable, as_outcome,
                      outcome_distance, quiet)
from hog.errors import BudgetExceededError, StructuralError
from hog.mixed import (_dedupe_sorted, expected_outcome, is_mixed_nash,
                       lift_selection, mixed_profile, mixed_strategy,
                       mixed_unilateral_table, solve_generic,
                       solve_support_enumeration_2p, vertex, vertex_profile)
from hog.simultaneous import SimultaneousGame, is_generalised_nash
from random_games import random_max_game

MP = [[1, -1, -1, 1], [-1, 1, 1, -1]]
RPS = [
    [0, -1, 1, 1, 0, -1, -1, 1, 0],
    [0, 1, -1, -1, 0, 1, 1, -1, 0],
]


def matching_pennies():
    return SimultaneousGame.from_tensors([2, 2], MP, [max_quantifier()] * 2)


def rock_paper_scissors():
    return SimultaneousGame.from_tensors([3, 3], RPS, [max_quantifier()] * 2)


def test_mixed_strategy_normalization():
    s = mixed_strategy([0.5, 0.5])
    assert not s.flags.writeable
    assert s.sum() == 1.0
    s = mixed_strategy([0.3, 0.7 + 5e-10])
    assert abs(s.sum() - 1.0) < 1e-15
    with pytest.raises(StructuralError):
        mixed_strategy([0.6, 0.6])
    with pytest.raises(StructuralError):
        mixed_strategy([-0.2, 1.2])


def test_mixed_strategy_refuses_a_sum_that_overflows():
    # Probabilities near the largest float sum to inf, which the sum check
    # refuses without numpy's overflow warning (an error under pytest).
    with pytest.raises(StructuralError,
                       match="probabilities sum to inf, expected 1"):
        mixed_strategy([1e308, 1e308])


def test_vertex_outcomes_match_pure():
    # At vertex profiles the expected outcome is the pure outcome, for every
    # pure profile of a batch of small games.
    rng = random.Random(8)
    for _ in range(15):
        g = random_max_game(rng, players=2, max_moves=3)
        for pure in g.profiles():
            prof = vertex_profile(g, pure)
            for i in range(2):
                assert expected_outcome(g, i, prof) == g.outcome(i, pure)


def test_matching_pennies_uniform_expected_outcome():
    # Oracle: 4-term sum by hand: (1 - 1 - 1 + 1) / 4 = 0.
    g = matching_pennies()
    prof = mixed_profile(g, [[0.5, 0.5], [0.5, 0.5]])
    assert expected_outcome(g, 0, prof) == 0.0


def test_single_player_uniform_is_mean():
    g = SimultaneousGame.from_tensors([4], [[1, 2, 3, 6]], [max_quantifier()])
    prof = mixed_profile(g, [[0.25] * 4])
    assert expected_outcome(g, 0, prof) == 3.0


def test_mixed_unilateral_table_vertex_reduces_to_pure():
    from hog.simultaneous import unilateral_map
    g = matching_pennies()
    for pure in g.profiles():
        table = mixed_unilateral_table(g, 0, vertex_profile(g, pure))
        assert table.entries == unilateral_map(g, 0, pure).entries


def test_mixed_unilateral_table_matching_pennies():
    # Oracle: two 2-term sums; both deviations give 0 against (.5,.5).
    g = matching_pennies()
    prof = mixed_profile(g, [[1.0, 0.0], [0.5, 0.5]])
    assert mixed_unilateral_table(g, 0, prof).entries == (0.0, 0.0)


def test_multilinearity_spot_check():
    # The table at a 50/50 mix of two opponent strategies equals the average
    # of the two tables; oracle evaluates both sides directly.
    g = matching_pennies()
    s1, s2 = [1.0, 0.0], [0.0, 1.0]
    mix = [0.5, 0.5]
    t_mix = mixed_unilateral_table(g, 0, mixed_profile(g, [[1, 0], mix]))
    t1 = mixed_unilateral_table(g, 0, mixed_profile(g, [[1, 0], s1]))
    t2 = mixed_unilateral_table(g, 0, mixed_profile(g, [[1, 0], s2]))
    for x in range(2):
        assert abs(t_mix[x] - 0.5 * (t1[x] + t2[x])) <= 1e-12


def test_multilinearity_random_combinations():
    rng = random.Random(31)
    for _ in range(60):
        players = rng.randint(2, 3)
        g = random_max_game(rng, players=players, max_moves=3)
        base = [
            mixed_strategy(_random_simplex(rng, c)) for c in g.move_counts
        ]
        i = rng.randrange(players)
        j = rng.choice([k for k in range(players) if k != i])
        s1 = mixed_strategy(_random_simplex(rng, g.move_counts[j]))
        s2 = mixed_strategy(_random_simplex(rng, g.move_counts[j]))
        t = rng.random()
        combo = mixed_strategy(t * s1 + (1 - t) * s2)

        def with_j(s):
            prof = list(base)
            prof[j] = s
            return tuple(prof)

        t_combo = mixed_unilateral_table(g, i, with_j(combo))
        t_1 = mixed_unilateral_table(g, i, with_j(s1))
        t_2 = mixed_unilateral_table(g, i, with_j(s2))
        for x in range(g.move_counts[i]):
            assert abs(t_combo[x] - (t * t_1[x] + (1 - t) * t_2[x])) <= 1e-9


def _random_simplex(rng, n):
    cuts = sorted(rng.random() for _ in range(n - 1))
    parts = []
    prev = 0.0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(1.0 - prev)
    return np.array(parts)


def _reference_expected_outcome(g, i, profile):
    """Slow oracle: the probability-weighted sum over every pure profile,
    accumulated one profile at a time in lexicographic order."""
    acc = None
    for pure in g.profiles():
        weight = 1.0
        for strat, move in zip(profile, pure):
            weight *= strat[move]
        value = as_outcome(g.outcome(i, pure))
        if isinstance(value, float):
            acc = weight * value if acc is None else acc + weight * value
        else:
            term = tuple(weight * v for v in value)
            acc = term if acc is None else tuple(x + y for x, y in zip(acc, term))
    return acc


def test_expected_outcome_and_deviation_table_match_reference_loop():
    rng = random.Random(4711)
    games = [
        random_max_game(rng, players=rng.randint(1, 3), max_moves=3,
                        min_moves=1)
        for _ in range(30)
    ]
    vectors = [[(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(6)]
               for _ in range(2)]
    games.append(SimultaneousGame.from_tensors(
        [2, 3], vectors, [eps_ball_quantifier(0, 1.0)] * 2))
    for g in games:
        for _ in range(3):
            prof = mixed_profile(
                g, [_random_simplex(rng, c) for c in g.move_counts])
            for i in range(g.num_players):
                assert outcome_distance(
                    expected_outcome(g, i, prof),
                    _reference_expected_outcome(g, i, prof)) <= 1e-12
                table = mixed_unilateral_table(g, i, prof)
                for x in range(g.move_counts[i]):
                    deviated = (prof[:i] + (vertex(g.move_counts[i], x),)
                                + prof[i + 1:])
                    assert outcome_distance(
                        table[x],
                        _reference_expected_outcome(g, i, deviated)) <= 1e-12


def test_is_mixed_nash_matching_pennies():
    g = matching_pennies()
    assert is_mixed_nash(g, mixed_profile(g, [[0.5, 0.5], [0.5, 0.5]]), 1e-9)
    assert not is_mixed_nash(g, mixed_profile(g, [[1, 0], [1, 0]]), 1e-9)


def test_pure_equilibria_embed_as_vertices():
    g = SimultaneousGame.from_tensors(
        [2, 2], [[1, 0, 0, 1], [1, 0, 0, 1]], [max_quantifier()] * 2
    )
    for pure in g.profiles():
        embedded = is_mixed_nash(g, vertex_profile(g, pure), 0.0)
        assert embedded == is_generalised_nash(g, pure)


def test_lift_selection_chooses_vertex():
    lifted = lift_selection(argmax_selection())
    v = lifted.select(OutcomeTable([0.0, 0.0]))
    assert list(v) == [1.0, 0.0]  # tie-break to the lowest move's vertex


def test_lift_selection_attains_lifted_quantifier():
    rng = random.Random(77)
    pairs = [
        (max_quantifier(), argmax_selection()),
        (min_quantifier(), argmin_selection()),
        (average_quantifier(), nearest_mean_selection()),
        (eps_ball_quantifier(0, 1.0), constant_selection(0)),
    ]
    for _ in range(200):
        n = rng.randint(1, 5)
        table = OutcomeTable([rng.randint(-9, 9) for _ in range(n)])
        phi, eps = pairs[rng.randrange(len(pairs))]
        v = lift_selection(eps).select(table)
        chosen = int(np.argmax(v))
        assert phi.contains(table, table[chosen], 0.0)


def test_support_enumeration_matching_pennies():
    # Oracle: indifference equations solved by hand give (.5,.5) each.
    g = matching_pennies()
    sols = solve_support_enumeration_2p(g)
    assert len(sols) == 1
    for strat in sols[0]:
        assert np.max(np.abs(strat - 0.5)) <= 1e-9


def test_support_enumeration_rps_uniform():
    g = rock_paper_scissors()
    sols = solve_support_enumeration_2p(g)
    assert len(sols) == 1
    for strat in sols[0]:
        assert np.max(np.abs(strat - 1.0 / 3.0)) <= 1e-9


def test_support_enumeration_dominant_game_vertex():
    g = SimultaneousGame.from_tensors(
        [2, 2], [[3, 0, 5, 1], [3, 5, 0, 1]], [max_quantifier()] * 2
    )
    sols = solve_support_enumeration_2p(g)
    assert len(sols) == 1
    assert list(sols[0][0]) == [0.0, 1.0]
    assert list(sols[0][1]) == [0.0, 1.0]


def test_support_enumeration_requires_max_or_min_quantifiers():
    for quantifiers in ([max_quantifier(), eps_ball_quantifier(0, 0.5)],
                        [fixed_point_quantifier(), min_quantifier()]):
        g = SimultaneousGame.from_tensors([2, 2], MP, quantifiers)
        with pytest.raises(StructuralError) as err:
            solve_support_enumeration_2p(g)
        assert "max or min quantifiers" in str(err.value)
    # A min player is a max player on the negated payoffs: with the second
    # player's payoffs those of the first, max/min matching pennies is
    # matching pennies again.
    g = SimultaneousGame.from_tensors(
        [2, 2], [MP[0], MP[0]], [max_quantifier(), min_quantifier()])
    sols = solve_support_enumeration_2p(g)
    assert len(sols) == 1
    for strat in sols[0]:
        assert np.max(np.abs(strat - 0.5)) <= 1e-9


def test_support_enumeration_budget_counts_support_pairs():
    # 3x3: (2^3 - 1)(2^3 - 1) = 49 support pairs.
    g = rock_paper_scissors()
    with pytest.raises(BudgetExceededError) as err:
        solve_support_enumeration_2p(g, budget=48)
    assert err.value.count == 49
    assert len(solve_support_enumeration_2p(g, budget=49)) == 1


def test_support_enumeration_rejects_non_finite_payoffs():
    # Games refuse NaN and infinite payoffs when they are built.
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(StructuralError) as err:
            SimultaneousGame.from_tensors([2, 2], [[1, bad, -1, 1], MP[1]],
                                          [max_quantifier()] * 2)
        assert str(err.value) == "payoffs must be finite numbers"


def test_solver_outputs_certified():
    rng = random.Random(13)
    for _ in range(25):
        g = random_max_game(rng, players=2, max_moves=3)
        for prof in solve_support_enumeration_2p(g):
            assert is_mixed_nash(g, prof, 1e-9)


def _reference_indifference_solve(payoff, own, other):
    """Slow oracle: one indifference system, built entry by entry and solved
    on its own (exact solve when square, lstsq when rectangular or
    singular)."""
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
            sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    else:
        sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    if np.max(np.abs(mat @ sol - rhs)) > 1e-7:
        return None
    return sol[:k]


def _reference_passes(g):
    """The payoff matrices of each pass of the enumeration: each min
    player's payoffs negated, and, when they may overflow, once more scaled
    by g.payoff_scale."""
    a, b = (-u if phi.kind is QuantifierKind.MIN else u
            for u, phi in zip(g.payoffs, g.quantifiers))
    if g.payoff_scale == 1.0:
        return [(a, b)]
    return [(a, b), (a * g.payoff_scale, b * g.payoff_scale)]


def _support_pairs(g):
    """Every support pair in enumeration order: row-support size, column
    support size, row support, column support."""
    m0, m1 = g.move_counts
    for s0_size in range(1, m0 + 1):
        for s1_size in range(1, m1 + 1):
            for s0 in itertools.combinations(range(m0), s0_size):
                for s1 in itertools.combinations(range(m1), s1_size):
                    yield s0, s1


def _reference_pair(g, a, b, s0, s1, tol):
    """Slow oracle: the profile of one support pair of the payoff matrices
    ``a`` and ``b``, both indifference systems solved on their own, if
    is_mixed_nash certifies it on ``g``; else None."""
    m0, m1 = g.move_counts
    p = _reference_indifference_solve(b, s0, s1)
    q = _reference_indifference_solve(a.T, s1, s0)
    if p is None or q is None:
        return None
    if np.any(p < -tol) or np.any(q < -tol):
        return None
    row = np.zeros(m0)
    row[list(s0)] = np.clip(p, 0.0, None)
    col = np.zeros(m1)
    col[list(s1)] = np.clip(q, 0.0, None)
    try:
        profile = mixed_profile(g, (row, col))
    except StructuralError:
        return None
    return profile if is_mixed_nash(g, profile, tol) else None


def _reference_support_enumeration(g, tol=1e-9):
    """Slow oracle: both indifference systems of every support pair, one
    pair at a time in enumeration order, each candidate certified."""
    found = []
    with g.quiet():
        for a, b in _reference_passes(g):
            for s0, s1 in _support_pairs(g):
                profile = _reference_pair(g, a, b, s0, s1, tol)
                if profile is not None:
                    found.append(profile)
    return _dedupe_sorted(found, max(tol, 1e-9))


def _assert_same_profiles(got, want):
    assert len(got) == len(want)
    for prof, ref in zip(got, want):
        for strat, ref_strat in zip(prof, ref):
            assert np.array_equal(strat, ref_strat)


def _continuous_game(rng, m0, m1):
    return SimultaneousGame.from_tensors(
        [m0, m1], [rng.uniform(-1, 1, m0 * m1) for _ in range(2)],
        [max_quantifier()] * 2)


def test_support_enumeration_matches_reference_on_continuous_games():
    rng = np.random.default_rng(2024)
    shapes = [(1, 1), (1, 4), (4, 1), (2, 2), (2, 3), (3, 3), (3, 5), (5, 3),
              (4, 4), (2, 6), (5, 5), (6, 6)]
    for m0, m1 in shapes:
        for _ in range(2 if m0 * m1 < 25 else 1):
            g = _continuous_game(rng, m0, m1)
            want = _reference_support_enumeration(g)
            assert want
            _assert_same_profiles(solve_support_enumeration_2p(g), want)


def test_support_enumeration_matches_reference_on_degenerate_games():
    # Small integer payoffs tie often: singular square systems and
    # consistent overdetermined ones, where the pair-by-pair path decides.
    rng = random.Random(99)
    for n in range(60):
        g = random_max_game(rng, players=2, max_moves=4, min_moves=1,
                            payoff_range=(-2, 2) if n % 2 else (-9, 9))
        for tol in (1e-9, 1e-6):
            _assert_same_profiles(solve_support_enumeration_2p(g, tol),
                                  _reference_support_enumeration(g, tol))


def test_support_enumeration_small_stacks_match_reference(monkeypatch):
    # Stacks of 5 pairs split every support shape of a 4x5 game at many
    # boundaries; the answer must not depend on the stack size.
    monkeypatch.setattr(hog.mixed, "_STACK", 5)
    rng = np.random.default_rng(77)
    for _ in range(3):
        g = _continuous_game(rng, 4, 5)
        _assert_same_profiles(solve_support_enumeration_2p(g),
                              _reference_support_enumeration(g))
    # A size's live pairs are selected whole and cut into stacks of at most
    # _STACK systems, and a wide shape's into stacks of at most _STACK
    # pairs, so a stack can end in the middle of a row support's pairs:
    # here the 10 to 20 column supports of sizes 2-4 of 5 or 6 columns, at
    # _STACK 1, 3 and 7, on continuous and on degenerate games.
    games = [_continuous_game(rng, 4, 5), _continuous_game(rng, 3, 6),
             _degenerate_wide_game(rng, 5, True),
             _degenerate_wide_game(rng, 6, False)]
    for g in games:
        want = _reference_support_enumeration(g)
        for stack in (1, 3, 7):
            monkeypatch.setattr(hog.mixed, "_STACK", stack)
            _assert_same_profiles(solve_support_enumeration_2p(g), want)


def test_support_enumeration_stacks_hold_at_most_stack_systems(monkeypatch):
    # Each size's stack holds at most _STACK systems, or one square pair's
    # two when _STACK is 1, with square and one-off pairs in one stack where
    # both fit, and the answers do not depend on where the stacks end.
    rng = np.random.default_rng(77)
    games = [_continuous_game(rng, 4, 5), _degenerate_wide_game(rng, 5, True)]
    solve_size = hog.mixed._solve_size
    for g in games:
        want = _reference_support_enumeration(g)
        for stack in (1, 3, 7, hog.mixed._STACK):
            stacks = []

            def sized(a, b, rows, cols, parts, tol):
                stacks.append((2 * len(rows), sum(len(p[1]) for p in parts)))
                return solve_size(a, b, rows, cols, parts, tol)

            monkeypatch.setattr(hog.mixed, "_STACK", stack)
            monkeypatch.setattr(hog.mixed, "_solve_size", sized)
            _assert_same_profiles(solve_support_enumeration_2p(g), want)
            monkeypatch.undo()
            assert all(0 < square + tops <= max(stack, 2)
                       for square, tops in stacks)
            assert any(square and tops for square, tops in stacks) == (
                stack > 2)


def _recording_screen(monkeypatch):
    """Record the row and column supports, (N, k) and (N, l), of every stack
    that reaches the left-null screen in _solve_size: the one-off pairs of
    each size's stack, and the pairs of wider shapes. The
    row-overdetermined side screens the transpose of the first player's
    payoffs, with the column supports as unknowns."""
    stacks = []
    solve_size = hog.mixed._solve_size

    def sized(a, b, rows, cols, parts, tol):
        for payoff, own, other in parts:
            transposed = payoff.strides[0] < payoff.strides[1]
            stacks.append((other, own) if transposed else (own, other))
        return solve_size(a, b, rows, cols, parts, tol)

    monkeypatch.setattr(hog.mixed, "_solve_size", sized)
    return stacks


def _reached_pairs(monkeypatch, g, tol):
    """solve_support_enumeration_2p's answer and, for each of its passes,
    the payoff matrices and the set of support pairs that reached
    _solve_size, as a square pair or to be screened: the square and one-off
    pairs of each size's stack, and the pairs of wider shapes."""
    passes = []
    certified = hog.mixed._certified_supports
    solve_size = hog.mixed._solve_size

    def record(payoff, own, other):
        if payoff is not passes[-1][1]:
            own, other = other, own
        passes[-1][2].update(zip(map(tuple, own.tolist()),
                                 map(tuple, other.tolist())))

    def certifying(g, a, b, *args):
        passes.append((a, b, set()))
        return certified(g, a, b, *args)

    def sized(a, b, rows, cols, parts, tol):
        record(b, rows, cols)
        for part in parts:
            record(*part)
        return solve_size(a, b, rows, cols, parts, tol)

    with monkeypatch.context() as patch:
        patch.setattr(hog.mixed, "_certified_supports", certifying)
        patch.setattr(hog.mixed, "_solve_size", sized)
        got = solve_support_enumeration_2p(g, tol)
    return got, passes


def _logged_counts(caplog):
    """The counts of the last support-enumeration summary line."""
    line = [r.getMessage() for r in caplog.records
            if " support pairs enumerated, " in r.getMessage()][-1]
    return [int(word) for word in line.replace(",", "").split()
            if word.isdigit()]


def _degenerate_wide_game(rng, m, constant):
    """Payoffs in {-1, 0, 1} with a duplicated row and column and, if
    ``constant``, a constant column of the first player's payoffs and a
    constant row of the second's, so that wide supports stay consistent."""
    a, b = rng.integers(-1, 2, (2, m, m)).astype(float)
    a[:, 1], b[:, 1] = a[:, 0], b[:, 0]
    a[3], b[3] = a[2], b[2]
    if constant:
        a[:, m - 1] = rng.integers(-1, 2)
        b[m - 1] = rng.integers(-1, 2)
    return SimultaneousGame.from_tensors([m, m], [a.ravel(), b.ravel()],
                                         [max_quantifier()] * 2)


def _screened(parts, tol):
    """_solve_size's left-null verdicts on ``parts``, (payoff, own, other)
    stacks of one system shape, in one stack with no square pair, as
    support enumeration screens a wide shape's stack."""
    payoff, own, _ = parts[0]
    return hog.mixed._solve_size(payoff, payoff, own[:0], own[:0], parts,
                                 tol)[-1]


def _decided(mats, screened, tol):
    """_least_squares on the systems of ``mats`` that ``screened`` keeps: the
    masks of the systems that may be consistent and of those of them that
    may also have no negative probability. A system screened out is in
    neither."""
    consistent = np.zeros(len(mats), dtype=bool)
    keep = consistent.copy()
    if screened.any():
        consistent[screened], keep[screened] = hog.mixed._least_squares(
            mats[screened], tol)
    return consistent, keep


def _screen_masks(parts, tol):
    """The masks of the least-squares screen on the pairs of ``parts`` in
    turn, as support enumeration computes them: the left-null screen, then
    the pseudo-inverse on the systems of the pairs it keeps."""
    return _decided(hog.mixed._stacked_systems(parts), _screened(parts, tol),
                    tol)


def _top_blocks(mats):
    """The transposed top blocks of a stack of one-off systems, (N, k + 2,
    k + 1), and minus their sum rows: the left-null screen's matrices and
    right-hand sides."""
    return np.swapaxes(mats[:, :-1], 1, 2), -mats[:, -1, :, None]


def _singular_tops(mats):
    """Whether the top block of each one-off system of ``mats`` is exactly
    singular, by slogdet, whose sign of 0 comes from the LU zero pivot that
    makes a solve raise."""
    return np.linalg.slogdet(_top_blocks(mats)[0])[0] == 0


def _left_null_alone(mats, bound):
    """The left-null screen's verdict on each one-off system of ``mats``,
    solved on its own: kept when its top block is exactly singular, and
    otherwise by _left_null_verdict on its own solution."""
    verdicts = []
    for top, rhs, singular in zip(*_top_blocks(mats), _singular_tops(mats)):
        if singular:
            verdicts.append(True)
            continue
        w = np.linalg.solve(top[None], rhs[None])[..., 0]
        verdicts.append(bool(hog.mixed._left_null_verdict(w, bound)[0]))
    return verdicts


def _residual_passes(payoff, own, other, tol):
    """The residual half of the least-squares screen on one pair alone."""
    consistent, _ = _screen_masks(
        [(payoff, np.array([own]), np.array([other]))], tol)
    return bool(consistent[0])


def _drop_one(support):
    return [support[:j] + support[j + 1:] for j in range(len(support))]


def _shorter(k, l):
    """The shape one shorter on the long side of a rectangular shape."""
    return (k, l - 1) if l > k else (k - 1, l)


def test_support_enumeration_subset_pruning_keeps_wide_shapes(monkeypatch,
                                                              caplog):
    # Degenerate games whose wide shapes (long side >= short side + 2) still
    # hold consistent pairs, so the prune skips only some of them; with
    # stacks of 5 pairs, a shape's pairs reach the screen in many stacks.
    rng = np.random.default_rng(1)
    games = [_degenerate_wide_game(rng, 5, True),
             _degenerate_wide_game(rng, 6, False)]
    wants = {(n, tol): _reference_support_enumeration(g, tol)
             for n, g in enumerate(games) for tol in (1e-9, 1e-6)}
    caplog.set_level(logging.DEBUG, logger="hog.mixed")
    passes_alone = {}
    for stack in (hog.mixed._STACK, 5):
        for n, g in enumerate(games):
            a, b = g.payoffs
            m = g.move_counts[0]
            wide = [(k, l) for k, l in itertools.product(range(1, m + 1),
                                                         repeat=2)
                    if abs(k - l) >= 2]
            for tol in (1e-9, 1e-6):
                monkeypatch.setattr(hog.mixed, "_STACK", stack)
                stacks = _recording_screen(monkeypatch)
                got, passes = _reached_pairs(monkeypatch, g, tol)
                _assert_same_profiles(got, wants[n, tol])
                monkeypatch.undo()
                shapes = {(rows.shape[1], cols.shape[1])
                          for rows, cols in stacks}
                assert any(l >= k + 2 for k, l in shapes)
                assert any(k >= l + 2 for k, l in shapes)
                # The shapes with a pair that passes the residual screen on
                # its own. (test_support_enumeration_residual_screen_is_lstsq
                # compares that screen with lstsq.)
                passed = set()
                for rows, cols in stacks:
                    k, l = rows.shape[1], cols.shape[1]
                    for r, c in zip(rows.tolist(), cols.tolist()):
                        key = n, tuple(r), tuple(c)
                        if key not in passes_alone:
                            passes_alone[key] = (
                                _residual_passes(b, r, c, tol) if l > k
                                else _residual_passes(a.T, c, r, tol))
                        if passes_alone[key]:
                            passed.add((k, l))
                # A wide shape reaches the screen only when the shape one
                # shorter on its long side has such a pair; every other wide
                # shape is pruned by subsets, whole.
                assert all(_shorter(*shape) in passed
                           for shape in shapes.intersection(wide))
                counts = _logged_counts(caplog)
                enumerated, pruned, dominated = (counts[0], counts[1],
                                                 counts[-1])
                assert pruned == sum(math.comb(m, k) * math.comb(m, l)
                                     for k, l in wide
                                     if _shorter(k, l) not in passed)
                # Every pair is pruned by subsets or by dominance, screened
                # or solved as square.
                (reached,) = [pairs for _, _, pairs in passes]
                screened = sum(len(rows) for rows, _ in stacks)
                square = len(reached) - screened
                assert 0 < square <= sum(math.comb(m, k) ** 2
                                         for k in range(1, m + 1))
                assert pruned + dominated == enumerated - square - screened


def test_support_enumeration_prunes_every_wide_pair_of_a_generic_game(
        caplog):
    # In a nondegenerate game no one-off system is consistent, so every pair
    # of a shape with |k - l| >= 2 is pruned by subsets, and no other.
    g = _continuous_game(np.random.default_rng(1), 6, 6)
    with caplog.at_level(logging.DEBUG, logger="hog.mixed"):
        assert solve_support_enumeration_2p(g)
    wide = sum(math.comb(6, k) * math.comb(6, l)
               for k, l in itertools.product(range(1, 7), repeat=2)
               if abs(k - l) >= 2)
    assert _logged_counts(caplog)[1] == wide == 1474


def test_support_enumeration_residual_screen_is_lstsq():
    # Duplicated moves make the QR factor's Q span more than the column
    # space, so its residual alone passes inconsistent rank-deficient
    # systems; the residual of the minimum-norm solution does not. On
    # these games the screen passes a rectangular system exactly when
    # lstsq solves it, and the solver's answer is the reference's.
    rng = np.random.default_rng(31)
    for g in (_degenerate_wide_game(rng, 5, True),
              _degenerate_wide_game(rng, 6, False)):
        _assert_same_profiles(solve_support_enumeration_2p(g),
                              _reference_support_enumeration(g))
        b = g.payoffs[1]
        m = g.move_counts[0]
        verdicts = set()
        for k, l in itertools.product(range(1, m + 1), repeat=2):
            if l <= k:
                continue
            for r in itertools.combinations(range(m), k):
                for c in itertools.combinations(range(m), l):
                    solvable = _reference_indifference_solve(b, r, c) is not None
                    assert _residual_passes(b, r, c, 1e-9) == solvable, (r, c)
                    verdicts.add(solvable)
        assert verdicts == {True, False}


def test_support_enumeration_subset_table_ignores_negative_probabilities(
        monkeypatch):
    # Rows 0..2 against the first four columns: the second player's payoffs
    # are multiples of (2, 1, 0), so the system is consistent but
    # rank-deficient, and its minimum-norm solution (-1/6, 1/3, 5/6) is
    # negative. The fifth column pins the wider system to (0, 0, 1), so
    # the 3x5 pair must still reach the screen.
    b = np.array([[2, 4, 6, 8, 1], [1, 2, 3, 4, 3], [0, 0, 0, 0, 0]], float)
    a = np.random.default_rng(8).uniform(-1, 1, (3, 5))
    g = SimultaneousGame.from_tensors([3, 5], [a.ravel(), b.ravel()],
                                      [max_quantifier()] * 2)
    stacks = _recording_screen(monkeypatch)
    _assert_same_profiles(solve_support_enumeration_2p(g),
                          _reference_support_enumeration(g))
    assert any(rows.shape == (1, 3) and cols.shape == (1, 5)
               for rows, cols in stacks)


def test_support_enumeration_screens_no_wide_shape_of_a_generic_game(
        monkeypatch):
    # In a nondegenerate game no (k, k + 1) or (l + 1, l) system is
    # consistent, so no shape wider than that reaches the screen.
    stacks = _recording_screen(monkeypatch)
    g = _continuous_game(np.random.default_rng(606), 6, 6)
    assert solve_support_enumeration_2p(g)
    assert stacks
    assert all(abs(rows.shape[1] - cols.shape[1]) == 1
               for rows, cols in stacks)


def _duplicated_move_game(seed, m0, m1, kinds):
    """Continuous payoffs with the first player's row 1 equal to its row 0
    and the second player's column 1 equal to its column 0, as in
    _one_off_payoffs()["singular"]: the top block of a wide pair whose long
    side holds both moves is exactly singular, and wide stacks also hold
    pairs whose top block is not."""
    a, b = np.random.default_rng(seed).uniform(-1, 1, (2, m0, m1))
    a[1], b[:, 1] = a[0], b[:, 0]
    return SimultaneousGame.from_tensors([m0, m1], [a.ravel(), b.ravel()],
                                         kinds)


def test_support_enumeration_counts_are_pinned(monkeypatch, caplog):
    # The summary counts on seeded nondegenerate 6x6 games, on degenerate
    # games whose wide shapes hold consistent pairs, and on games whose
    # wide stacks mix exactly singular top blocks with regular ones, as the
    # enumeration gave them shape by shape: walking system sizes, screening
    # systems two or more equations over by their one-off subsystems, and
    # keeping only the pair of a singular top block, not its whole stack,
    # change none.
    games = [(_continuous_game(np.random.default_rng(seed), 6, 6), 1e-9)
             for seed in (1, 2, 3, 606)]
    rng = np.random.default_rng(1)
    games += [(g, tol) for g in (_degenerate_wide_game(rng, 5, True),
                                 _degenerate_wide_game(rng, 6, False))
              for tol in (1e-9, 1e-6)]
    games += [(_duplicated_move_game(7, 5, 5, [max_quantifier()] * 2), 1e-9),
              (_duplicated_move_game(10, 5, 6, [max_quantifier(),
                                                min_quantifier()]), 1e-9)]
    caplog.set_level(logging.DEBUG, logger="hog.mixed")
    stacks = _recording_screen(monkeypatch)
    counts, flats = [], []
    for g, tol in games:
        stacks.clear()
        solve_support_enumeration_2p(g, tol)
        counts.append(_logged_counts(caplog))
        # Per wide stack, whether some and whether all of its top blocks are
        # singular.
        flats.append(set())
        for rows, cols in stacks:
            if abs(rows.shape[1] - cols.shape[1]) >= 2:
                own, other, payoff = ((rows, cols, g.payoffs[1])
                                      if cols.shape[1] > rows.shape[1]
                                      else (cols, rows, g.payoffs[0].T))
                flat = _singular_tops(hog.mixed._indifference_systems(
                    payoff, own, other[:, :own.shape[1] + 1]))
                flats[-1].add((flat.any(), flat.all()))
    # Every degenerate game has a wide stack with both kinds of top block.
    assert ([(True, False) in flat for flat in flats]
            == [False] * 4 + [True] * 6)
    # Enumerated, pruned by subsets, screened out, solved, certified and
    # pruned by dominance.
    assert counts == [[3969, 1474, 196, 10, 3, 2222],
                      [3969, 1474, 168, 11, 1, 2291],
                      [3969, 1474, 82, 3, 3, 2410],
                      [3969, 1474, 211, 33, 7, 2172],
                      [961, 0, 107, 460, 199, 305],
                      [961, 0, 107, 460, 199, 305],
                      [3969, 48, 620, 297, 58, 2693],
                      [3969, 48, 620, 297, 58, 2693],
                      [961, 140, 52, 20, 1, 738],
                      [1953, 241, 114, 40, 9, 1522]]


def test_support_enumeration_solves_each_size_once(monkeypatch):
    # On a nondegenerate 6x6 game every s x s system of one size, both
    # players' square systems and the one-off screens' top blocks, goes to
    # one batched solve, and nothing else calls it.
    sizes = []
    solve = np.linalg.solve

    def counting(mats, rhs):
        sizes.append(mats.shape[-1])
        return solve(mats, rhs)

    monkeypatch.setattr(np.linalg, "solve", counting)
    assert solve_support_enumeration_2p(
        _continuous_game(np.random.default_rng(1), 6, 6))
    assert sizes and len(sizes) == len(set(sizes))
    assert set(sizes) <= set(range(2, 8))


def _near_duplicate_game(seed):
    """Continuous 6x6 payoffs with column 1 of the second player's and row 1
    of the first player's 1e-12 above column and row 0: one-off systems that
    hold both are consistent to rounding, so two-off shapes open, and their
    top blocks are nearly, but not exactly, singular."""
    a, b = np.random.default_rng(seed).uniform(-1, 1, (2, 6, 6))
    b[:, 1] = b[:, 0] + 1e-12
    a[1] = a[0] + 1e-12
    return SimultaneousGame.from_tensors([6, 6], [a.ravel(), b.ravel()],
                                         [max_quantifier()] * 2)


def test_support_enumeration_screens_two_off_systems_before_pinv(
        monkeypatch):
    # Systems with two or more equations more than unknowns reach the
    # pseudo-inverse only when their one-off subsystem, the first k + 1
    # payoff rows and the sum row, passes the left-null screen with the
    # full system's bound. Here some do and some do not; the answers are
    # the per-pair reference's.
    for seed in (0, 1):
        g = _near_duplicate_game(seed)
        stacks = _recording_screen(monkeypatch)
        inverted = []
        pinv = np.linalg.pinv

        def recording(mats, **kwargs):
            inverted.append(mats)
            return pinv(mats, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", recording)
        got = solve_support_enumeration_2p(g)
        monkeypatch.undo()
        _assert_same_profiles(got, _reference_support_enumeration(g))
        wide = [mats for mats in inverted
                if mats.shape[1] >= mats.shape[2] + 2]
        assert wide
        for mats in wide:
            rows = [*range(mats.shape[2]), mats.shape[1] - 1]
            bound = hog.mixed._residual_bound(mats.shape[1])
            for system in mats:
                assert _left_null_alone(system[None, rows], bound)[0]
        reached = sum(len(rows) for rows, cols in stacks
                      if abs(rows.shape[1] - cols.shape[1]) >= 2)
        assert 0 < sum(map(len, wide)) < reached


def test_size_stack_matches_each_system_alone(caplog):
    # One size's stack against each of its systems on its own: the square
    # pairs' probabilities are those of one solve per system (lstsq where
    # singular), and each one-off pair's verdict is that of its left-null
    # screen on its system alone. The payoffs of
    # test_one_off_screen_matches_qr_screen put exactly singular square
    # systems and top blocks into some stacks, and non-finite left null
    # vectors into others.
    caplog.set_level(logging.DEBUG, logger="hog.mixed")
    solved = 0
    for name, payoff in _one_off_payoffs().items():
        a = b = payoff[:, :5]
        for k, (own, other) in enumerate(_one_off_stacks(payoff), 1):
            rows, cols = (np.array(side) for side in zip(*itertools.product(
                itertools.combinations(range(5), k), repeat=2)))
            with quiet(True):
                p, q, ok, screened = hog.mixed._solve_size(
                    a, b, rows, cols, [(payoff, own, other)], 1e-9)
                bound = hog.mixed._residual_bound(k + 2)
                alone = _left_null_alone(
                    hog.mixed._indifference_systems(payoff, own, other), bound)
                for n in np.flatnonzero(ok):
                    r, c = rows[n].tolist(), cols[n].tolist()
                    assert np.array_equal(
                        p[n], _reference_indifference_solve(b, r, c)), name
                    assert np.array_equal(
                        q[n], _reference_indifference_solve(a.T, c, r)), name
            assert screened.tolist() == alone, (name, k)
            solved += np.count_nonzero(ok)
    assert solved
    assert "solving pair by pair" in caplog.text


def test_wide_pairs_are_screened_against_the_full_systems_bound():
    # A one-off system, own move 0 against other moves 0 and 1, whose
    # least-squares residual lies halfway between ten times the bound of 3
    # equations and ten times that of 4: screened as a one-off pair, against
    # its own bound, it is dropped; as the one-off subsystem of the pair
    # with other moves 0, 1 and 2, against that system's bound, it is kept.
    lo, hi = (hog.mixed._LEFT_NULL_MARGIN * hog.mixed._residual_bound(rows)
              for rows in (3, 4))
    e_last = np.array([0.0, 0.0, 1.0])

    def payoff(d):
        return np.array([[0.0, d, 0.5]])

    def residual(d):
        mat = hog.mixed._indifference_systems(
            payoff(d), np.array([[0]]), np.array([[0, 1]]))[0]
        sol = np.linalg.lstsq(mat, e_last, rcond=None)[0]
        return np.linalg.norm(mat @ sol - e_last)

    below, above = 0.0, 1.0
    for _ in range(100):
        mid = (below + above) / 2
        below, above = ((mid, above) if residual(mid) < (lo + hi) / 2
                        else (below, mid))
    assert lo < residual(below) < hi
    one_off = (payoff(below), np.array([[0]]), np.array([[0, 1]]))
    wide = (payoff(below), np.array([[0]]), np.array([[0, 1, 2]]))
    assert _screened([one_off], 1e-9).tolist() == [False]
    assert _screened([wide], 1e-9).tolist() == [True]


def test_support_enumeration_logs_its_counts(monkeypatch, caplog):
    g = rock_paper_scissors()
    with caplog.at_level(logging.DEBUG, logger="hog.mixed"):
        solve_support_enumeration_2p(g)
        # With the dominance prune off, as in the enumeration without it.
        with monkeypatch.context() as patch:
            patch.setattr(hog.mixed, "_dominance_margin",
                          lambda *args: math.inf)
            solve_support_enumeration_2p(g)
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("support enumeration 3x3:")]
    # Against one or two of the opponent's moves, some reply is strictly
    # worse than another against each of them, and every pair short of the
    # full support holds such a reply on a side it tests: the 36 pairs of
    # shapes (1, 1), (1, 2), (2, 1) and (2, 2) and the 6 of shapes (2, 3)
    # and (3, 2) are dropped by dominance. No pair of shapes (1, 2) or
    # (2, 1) is left in the subset table, so the 6 pairs of shapes (1, 3)
    # and (3, 1) are pruned by subsets; only the full support is solved,
    # and certified.
    # Without the prune, no (1, 2) or (2, 1) system is consistent, so the
    # same 6 pairs are pruned, and the other 24 rectangular pairs are
    # screened out. The 9 pure pairs, 6 of the (2, 2) pairs and the full
    # support solve; only the full support is an equilibrium.
    assert lines == [
        "support enumeration 3x3: 49 support pairs enumerated, 6 pruned by "
        "subsets, 0 screened out, 1 solved, 1 certified, 42 pruned by "
        "dominance",
        "support enumeration 3x3: 49 support pairs enumerated, 6 pruned by "
        "subsets, 24 screened out, 16 solved, 1 certified, 0 pruned by "
        "dominance"]


def test_support_enumeration_singular_stack_falls_back(caplog):
    # Rows 0 and 1 are duplicates for both players, so every square system
    # whose row support holds both is singular. The second player's
    # constant row 2 and the first player's constant column 3 tie every
    # move given a support that holds them, so the full row support against
    # any three columns with column 3 is dominated on neither side, and its
    # singular stack is solved.
    rng = np.random.default_rng(5)
    a, b = rng.uniform(-1, 1, (2, 3, 4))
    a[1], b[1] = a[0], b[0]
    a[:, 3], b[2] = 0.25, -0.5
    g = SimultaneousGame.from_tensors([3, 4], [a.ravel(), b.ravel()],
                                      [max_quantifier()] * 2)
    with caplog.at_level(logging.DEBUG, logger="hog.mixed"):
        got = solve_support_enumeration_2p(g)
    assert "solving pair by pair" in caplog.text
    _assert_same_profiles(got, _reference_support_enumeration(g))


def _prune_audit(monkeypatch, g, tol):
    """Run the solver with the dominance prune as it stands and with it off
    (an infinite margin). Returns the solver's answer, the reference's, and
    the pairs the prune dropped, each as (pass, pair, whether the reference
    certifies the pair's profile on that pass)."""
    got, passes = _reached_pairs(monkeypatch, g, tol)
    with monkeypatch.context() as patch:
        patch.setattr(hog.mixed, "_dominance_margin", lambda *args: math.inf)
        _, passes_off = _reached_pairs(monkeypatch, g, tol)
    assert len(passes) == len(passes_off)
    dropped = []
    with g.quiet():
        for n, ((a, b, reached), (_, _, reached_off)) in enumerate(
                zip(passes, passes_off)):
            assert reached <= reached_off
            for pair in sorted(reached_off - reached):
                certified = _reference_pair(g, a, b, *pair, tol) is not None
                dropped.append((n, pair, certified))
    return got, _reference_support_enumeration(g, tol), dropped


def _prune_games(rng):
    """Seeded 2-player games for the dominance prune: continuous payoffs,
    payoffs in {-1, 0, 1} and in {0, 1, 2}, payoffs near +-1.7e308 (the
    second game of each of these is max/min), duplicated moves, and near
    duplicates: a row and a column that beat another by 1e-3 everywhere."""
    huge = [1.7e308, -1.7e308, 1e308, -1e308, 0.0]
    draws = {
        "continuous": lambda shape: rng.uniform(-1, 1, shape),
        "ternary": lambda shape: rng.integers(-1, 2, shape).astype(float),
        "ties": lambda shape: rng.integers(0, 3, shape).astype(float),
        "huge": lambda shape: rng.choice(huge, shape),
    }
    games = []
    for name, draw in draws.items():
        for shape, kinds in (((4, 4), (max_quantifier(), max_quantifier())),
                             ((3, 5), (max_quantifier(), min_quantifier()))):
            games.append((name, SimultaneousGame.from_tensors(
                shape, [u.ravel() for u in draw((2, *shape))], kinds)))
    for shape in ((4, 4), (5, 3)):
        a, b = rng.integers(-1, 2, (2, *shape)).astype(float)
        a[1], b[1] = a[0], b[0]
        a[:, 2], b[:, 2] = a[:, 1], b[:, 1]
        games.append(("duplicated", SimultaneousGame.from_tensors(
            shape, [a.ravel(), b.ravel()], [max_quantifier()] * 2)))
        a, b = rng.uniform(-1, 1, (2, *shape))
        a[1], b[:, 2] = a[0] + 1e-3, b[:, 1] + 1e-3
        games.append(("near duplicate", SimultaneousGame.from_tensors(
            shape, [a.ravel(), b.ravel()], [max_quantifier()] * 2)))
    return games


def test_support_enumeration_dominance_prune_is_sound(monkeypatch):
    # The solver's answer is the per-pair reference's, and no pair the
    # prune drops, solved on its own in the pass that dropped it, gives a
    # profile that is_mixed_nash accepts, at every tol. Each kind of game
    # has pairs dropped, and games near +-1.7e308 in both passes.
    dropped_in = {}
    for name, g in _prune_games(np.random.default_rng(41)):
        for tol in (0.0, 1e-9, 1e-6, 0.05):
            got, want, dropped = _prune_audit(monkeypatch, g, tol)
            _assert_same_profiles(got, want)
            assert not [pair for pair in dropped if pair[2]], (name, tol)
            dropped_in.setdefault(name, set()).update(
                n for n, _, _ in dropped)
    assert dropped_in == {"continuous": {0}, "ternary": {0}, "ties": {0},
                          "huge": {0, 1}, "duplicated": {0},
                          "near duplicate": {0}}


def test_support_enumeration_prune_audit_can_fail(monkeypatch):
    # The audit above fails on a prune without its margin. On integer
    # payoffs a margin of -1/2 is weak dominance: a move no better than
    # another against every move of the opponent's support is dropped, and
    # with ties such moves are often equilibrium moves.
    games = _prune_games(np.random.default_rng(41))
    with monkeypatch.context() as patch:
        patch.setattr(hog.mixed, "_dominance_margin", lambda *args: -0.5)
        audits = [_prune_audit(monkeypatch, g, 1e-9) for name, g in games
                  if name in ("ternary", "ties", "duplicated")]
    assert any(certified for _, _, dropped in audits
               for _, _, certified in dropped)
    assert any([[s.tolist() for s in prof] for prof in got]
               != [[s.tolist() for s in prof] for prof in want]
               for got, want, _ in audits)
    # Strict dominance with no margin drops a move that loses by 1e-3,
    # though at tol 0.05 it is an equilibrium move.
    with monkeypatch.context() as patch:
        patch.setattr(hog.mixed, "_dominance_margin", lambda *args: 0.0)
        audits = [_prune_audit(monkeypatch, g, 0.05) for name, g in games
                  if name == "near duplicate"]
    assert any(certified for _, _, dropped in audits
               for _, _, certified in dropped)
    # A margin of only the screen bound, at tol 0.05. Against the column
    # player's one move, row 1 loses to row 0 by about 4e-8 more than that
    # bound, and row 2 beats row 1 by 1.8e-7, a least-squares residual of
    # 9e-8, within _RESIDUAL_TOL. So the pair ({1, 2}, {0}) is dropped,
    # though its profile, half on rows 1 and 2, has regret 0.05 - 5e-8 and
    # is certified. The margin as it stands keeps the pair.
    g = SimultaneousGame.from_tensors(
        [3, 1], [[0.05 + 4e-8, 0.0, 1.8e-7], [0.0] * 3],
        [max_quantifier()] * 2)
    got, want, dropped = _prune_audit(monkeypatch, g, 0.05)
    _assert_same_profiles(got, want)
    assert not [pair for pair in dropped if pair[2]]
    with monkeypatch.context() as patch:
        patch.setattr(hog.mixed, "_dominance_margin",
                      lambda g, tol, regret_bound: regret_bound)
        got, want, dropped = _prune_audit(monkeypatch, g, 0.05)
    assert (0, ((1, 2), (0,)), True) in dropped
    assert len(got) == len(want) - 1


def test_support_enumeration_certifies_max_min_games():
    # A min player's payoffs are negated: on 100 seeded 3x3 games, cycling
    # through the quantifier pairs other than max/max, the enumeration
    # finds a certified equilibrium every time, and the reference, which
    # negates them likewise, agrees pair for pair.
    rng = np.random.default_rng(1)
    kinds = [(max_quantifier(), min_quantifier()),
             (min_quantifier(), max_quantifier()),
             (min_quantifier(), min_quantifier())]
    for n in range(100):
        g = SimultaneousGame.from_tensors(
            [3, 3], list(rng.uniform(-1, 1, (2, 9))), kinds[n % 3])
        got = solve_support_enumeration_2p(g)
        assert got
        assert all(is_mixed_nash(g, prof, 1e-9) for prof in got)
        _assert_same_profiles(got, _reference_support_enumeration(g))


def _one_off_stacks(payoff):
    """Every (k, k + 1) support pair of a payoff matrix (own moves by other
    moves), one stack per k, as (N, k) and (N, k + 1) arrays."""
    m_own, m_other = payoff.shape
    for k in range(1, min(m_own, m_other - 1) + 1):
        pairs = list(itertools.product(
            itertools.combinations(range(m_own), k),
            itertools.combinations(range(m_other), k + 1)))
        yield (np.array([own for own, _ in pairs]),
               np.array([other for _, other in pairs]))


def _qr_screen(mats, bound):
    """The QR screen that support enumeration once ran on every stack of
    overdetermined systems: the pairs whose QR projection residual is within
    ``bound``. The span of a QR factor's Q contains the column space, so
    this residual never exceeds the least-squares one."""
    q = np.linalg.qr(mats)[0]
    res = -np.matmul(q, q[:, -1, :, None])[..., 0]
    res[:, -1] += 1.0
    return np.linalg.norm(res, axis=1) <= bound


def _qr_screen_masks(payoff, own, other, tol):
    """The masks of the least-squares screen on a stack of one-off pairs
    screened by QR, then decided by the pseudo-inverse."""
    mats = hog.mixed._indifference_systems(payoff, own, other)
    return _decided(
        mats, _qr_screen(mats, hog.mixed._residual_bound(mats.shape[1])), tol)


def _one_off_payoffs():
    """Payoff matrices, 5x6, of every kind the one-off screen must handle."""
    rng = np.random.default_rng(12)
    continuous = rng.uniform(-1, 1, (5, 6))
    ties = rng.integers(-1, 2, (5, 6)).astype(float)
    ties[:, 1], ties[3] = ties[:, 0], ties[2]
    near = rng.uniform(-1, 1, (5, 6))
    near[:, 1] = near[:, 0] + 1e-12
    singular = rng.uniform(-1, 1, (5, 6))
    singular[:, 1] = singular[:, 0]
    tiny = 1e-200 * rng.uniform(-1, 1, (5, 6))
    # Every pair of subnormal payoffs is consistent, and the top block's
    # pivots round to subnormals, so many left null vectors come out NaN:
    # the screen must keep those pairs.
    subnormal = 1e-308 * rng.uniform(-1, 1, (5, 6))
    huge = 1.7e308 * rng.uniform(-1, 1, (5, 6))
    huge_ties = rng.choice([1.7e308, -1.7e308, 1e308, -1e308, 0.0], (5, 6))
    huge_ties[:, 1] = huge_ties[:, 0]
    return {"continuous": continuous, "ties": ties, "near": near,
            "singular": singular, "tiny": tiny, "subnormal": subnormal,
            "huge": huge, "huge ties": huge_ties}


def test_one_off_screen_matches_qr_screen():
    # The left-null-vector screen of one-off shapes against the QR screen it
    # replaces: the pseudo-inverse decides every pair either keeps, so the
    # masks must agree, and every pair that lstsq solves must be kept. A
    # pair whose own top block is exactly singular is kept, and every other
    # pair of its stack gets the verdict of its system alone.
    kinds = _one_off_payoffs()
    subnormal = kinds["subnormal"]
    accepted, singular, cut = set(), set(), False
    for name, payoff in kinds.items():
        for own, other in _one_off_stacks(payoff):
            mats = hog.mixed._indifference_systems(payoff, own, other)
            bound = hog.mixed._residual_bound(mats.shape[1])
            # Support enumeration screens huge payoffs under g.quiet(); tiny
            # ones must not warn without it.
            with quiet(name.startswith("huge")):
                screened = _screened([(payoff, own, other)], 1e-9)
                flat = _singular_tops(mats)
                assert screened.tolist() == _left_null_alone(mats, bound)
            assert screened[flat].all(), name
            if flat.any():
                singular.add(name)
                cut |= not screened[~flat].all()
            for tol in (1e-9, 0.0):
                with quiet(name.startswith("huge")):
                    consistent, keep = _decided(mats, screened, tol)
                    want = _qr_screen_masks(payoff, own, other, tol)
                    solved = [_reference_indifference_solve(payoff, o, t)
                              for o, t in zip(own.tolist(), other.tolist())]
                assert np.array_equal(consistent, want[0]), name
                assert np.array_equal(keep, want[1]), name
                for n, sol in enumerate(solved):
                    if sol is not None:
                        accepted.add(name)
                        assert consistent[n], (name, own[n], other[n])
                        assert keep[n] or (sol < -tol).any()
    # An exact tie makes some top blocks of its stacks singular, and those
    # stacks still screen out pairs whose own top block is not.
    assert singular == {"ties", "singular", "huge ties"}
    assert cut
    # Ties make one-off systems consistent, as do payoffs far inside the
    # absolute tolerance.
    assert accepted >= {"ties", "near", "singular", "tiny", "subnormal"}
    nan = False
    for own, other in _one_off_stacks(subnormal):
        mats = hog.mixed._indifference_systems(subnormal, own, other)
        nan |= np.isnan(np.linalg.solve(*_top_blocks(mats))).any()
    assert nan


def test_one_off_shapes_screened_together_match_each_alone():
    # The shapes (k, k + 1) and (k + 1, k) build systems of one shape, so
    # support enumeration screens them in one stack. On the payoffs of
    # test_one_off_screen_matches_qr_screen, paired each with the next kind
    # and with itself, each part's verdicts and masks must be those of its
    # stack screened alone, also where the other part holds an exactly
    # singular top block: that keeps its own pair and no other.
    kinds = _one_off_payoffs()
    names = list(kinds)
    crossed = False
    for first, second in [*zip(names, names[1:] + names[:1]),
                          *zip(names, names)]:
        for (own0, other0), (own1, other1) in zip(
                _one_off_stacks(kinds[first]), _one_off_stacks(kinds[second])):
            parts = [(kinds[first], own0, other0),
                     (kinds[second], own1, other1)]
            n = len(own0)
            with quiet("huge" in first + second):
                screened = _screened(parts, 1e-9)
                assert screened.tolist() == [
                    *_screened(parts[:1], 1e-9), *_screened(parts[1:], 1e-9)]
                flat = [_singular_tops(hog.mixed._indifference_systems(*part))
                        for part in parts]
                for tol in (1e-9, 0.0):
                    together = _screen_masks(parts, tol)
                    alone = [_screen_masks([part], tol) for part in parts]
                    for mask, (first_mask, second_mask) in zip(
                            together, zip(*alone)):
                        assert np.array_equal(mask[:n], first_mask), first
                        assert np.array_equal(mask[n:], second_mask), second
            # One part's singular top block shares the stack with the
            # other's pairs, some of which are screened out.
            for held, rest in ((0, slice(n, None)), (1, slice(None, n))):
                crossed |= (flat[held].any() and not flat[1 - held].any()
                            and not screened[rest].all())
    assert crossed


def test_listed_profiles_are_validated_once(monkeypatch, capsys, games_dir):
    # Each profile a solver certifies is validated once, by the stacked
    # _listed_profiles in both solvers: is_mixed_nash does not validate a
    # ListedProfile again, and the CLI report reads its certificates; a call
    # of mixed_profile on the way would count as a second validation. Any
    # other profile is still validated.
    built, certified = [], []
    profile = hog.mixed.mixed_profile
    stacked = hog.mixed._listed_profiles
    nash = hog.mixed.is_mixed_nash

    def counting_profile(g, per_player):
        built.append(profile(g, per_player))
        return built[-1]

    def counting_listed(*stacks):
        profiles = stacked(*stacks)
        built.extend(profiles)
        return profiles

    def counting_nash(g, candidate, tol=1e-9):
        certified.append(candidate)
        return nash(g, candidate, tol)

    rng = np.random.default_rng(4)
    games = [_continuous_game(rng, 4, 4), _degenerate_wide_game(rng, 5, True),
             SimultaneousGame.from_tensors(
                 [2, 2, 2], list(rng.uniform(-1, 1, (3, 8))),
                 [max_quantifier()] * 3)]
    with monkeypatch.context() as patch:
        patch.setattr(hog.mixed, "mixed_profile", counting_profile)
        patch.setattr(hog.mixed, "_listed_profiles", counting_listed)
        patch.setattr(hog.mixed, "is_mixed_nash", counting_nash)
        for g in games:
            for solve in (solve_support_enumeration_2p, solve_generic):
                if (solve is solve_support_enumeration_2p
                        and g.num_players != 2):
                    continue
                built.clear()
                certified.clear()
                got = solve(g)
                assert got
                assert len(built) == len(certified) >= len(got)
                # Each certified profile holds the arrays validation built.
                assert ([[id(s) for s in p] for p in certified]
                        == [[id(s) for s in p] for p in built])
        for name in ("matching_pennies.json", "rock_paper_scissors.json"):
            built.clear()
            certified.clear()
            assert hog.cli.main(["solve", str(games_dir / name), "--mode",
                                 "mixed", "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert len(built) == len(certified) == report["count"]
    g = games[0]
    listed = solve_support_enumeration_2p(g)[0]
    assert type(listed) is hog.mixed.ListedProfile
    # A raw profile off the simplex, and a listed one of other move counts.
    with pytest.raises(StructuralError, match="probabilities sum to"):
        is_mixed_nash(g, [[0.5, 0.6, 0, 0], [1, 0, 0, 0]])
    with pytest.raises(StructuralError, match="4 entries for 2 moves"):
        is_mixed_nash(matching_pennies(), listed)
    assert is_mixed_nash(g, [s.tolist() for s in listed])


def test_listed_profiles_match_mixed_profile_bit_for_bit():
    # Support enumeration validates its regret-screen survivors as one
    # stack. Each pair it keeps must be mixed_profile's, bit for bit, and it
    # must drop the pairs mixed_profile refuses. Rows of 8 to 12 moves:
    # from 8 entries up, numpy sums by unrolled pairwise summation.
    rng = np.random.default_rng(28)
    for m0, m1 in ((8, 9), (10, 12), (12, 11), (3, 8)):
        g = _continuous_game(rng, m0, m1)
        stacks = []
        for m in (m0, m1):
            # _scatter's rows: nonnegative, some entries zero, summed in
            # another order than numpy's, then some pushed off the simplex.
            rows = rng.uniform(0, 1, (300, m)) * (rng.random((300, m)) < 0.7)
            rows[:, 0] += 1e-3
            rows /= np.array([math.fsum(row) for row in rows])[:, None]
            off = rng.choice([-3e-9, 3e-9, 5e-10], (len(rows[::7]), 1))
            rows[::7] *= 1 + off
            rows[::50, 1] = np.nan
            stacks.append(rows)
        listed = hog.mixed._listed_profiles(*stacks)
        want = []
        for pair in zip(*stacks):
            try:
                want.append(mixed_profile(g, pair))
            except StructuralError:
                pass
        assert 0 < len(want) < 300
        assert len(listed) == len(want)
        for got, ref in zip(listed, want):
            assert type(got) is hog.mixed.ListedProfile
            for strat, ref_strat in zip(got, ref):
                assert not strat.flags.writeable
                assert strat.tobytes() == ref_strat.tobytes()


def test_one_off_screen_keeps_residuals_at_the_bound():
    # One-off systems whose least-squares residual sits just under the
    # screen's bound: a near-duplicated column, perturbed by the largest t
    # that the QR screen and the pseudo-inverse still pass, makes the top
    # block ill-conditioned, so the left-null-vector residual is rounded
    # far more than theirs. The screen's margin must keep every such pair.
    rng = np.random.default_rng(3)
    for n in range(30):
        k = 1 + n % 3
        base = rng.uniform(-1, 1, (k, k + 1))
        base[:, 1] = base[:, 0]
        own, other = np.arange(k)[None], np.arange(k + 1)[None]

        def perturbed(t):
            payoff = base.copy()
            payoff[0, 1] += t
            return payoff

        def passes(t):
            return _qr_screen_masks(perturbed(t), own, other, 1e-9)[0][0]

        lo, hi = 0.0, 1.0
        assert passes(lo) and not passes(hi)
        while lo < (mid := (lo + hi) / 2) < hi:
            if passes(mid):
                lo = mid
            else:
                hi = mid
        consistent, keep = _screen_masks([(perturbed(lo), own, other)], 1e-9)
        want = _qr_screen_masks(perturbed(lo), own, other, 1e-9)
        assert consistent[0] and want[0][0]
        assert keep[0] == want[1][0]


def test_solve_generic_finds_pure_equilibrium_at_depth_1():
    g = SimultaneousGame.from_tensors(
        [2, 2], [[3, 0, 5, 1], [3, 5, 0, 1]], [max_quantifier()] * 2
    )
    sols = solve_generic(g, 1)
    assert any(
        list(p[0]) == [0.0, 1.0] and list(p[1]) == [0.0, 1.0] for p in sols
    )


def test_solve_generic_matching_pennies_depth_2():
    g = matching_pennies()
    sols = solve_generic(g, 2)
    assert any(
        np.max(np.abs(np.concatenate(p) - 0.5)) <= 1e-9 for p in sols
    )


def test_solve_generic_returns_only_certified_grid_points():
    # Every returned profile must pass is_mixed_nash at the tolerance it
    # was solved at, tol 0 included. The 216th 3-player game drawn from
    # random.Random(0) has grid points whose best deviation beats the
    # expected outcome by a rounding error; tol 0 must reject them.
    rng = random.Random(0)
    for _ in range(216):
        witness = random_max_game(rng, players=3, max_moves=3)
    rng = random.Random(17)
    games = [random_max_game(rng, players=3, max_moves=2) for _ in range(12)]
    for g in games + [witness]:
        for depth in (1, 2, 3):
            for tol in (0.0, 1e-9):
                for prof in solve_generic(g, depth, tol):
                    assert is_mixed_nash(g, prof, tol)


def test_solve_generic_eps_ball_max_conditions():
    # The anchored player accepts outcomes within 0.5 of deviating to move 0;
    # the other maximizes. Each returned profile must satisfy the two
    # explicit conditions, computed independently.
    q0 = [2, 0, 2.25, 1]
    q1 = [1, 3, 0, 2]
    g = SimultaneousGame.from_tensors(
        [2, 2], [q0, q1], [eps_ball_quantifier(0, 0.5), max_quantifier()]
    )
    sols = solve_generic(g, 2)
    assert sols
    for prof in sols:
        value0 = expected_outcome(g, 0, prof)
        anchored = expected_outcome(
            g, 0, (vertex(2, 0), prof[1])
        )
        assert abs(value0 - anchored) <= 0.5 + 1e-9
        table1 = mixed_unilateral_table(g, 1, prof)
        value1 = expected_outcome(g, 1, prof)
        assert value1 >= max(table1.entries) - 1e-9


def test_classical_reduction_of_mixed_membership():
    # With max quantifiers, mixed equilibrium membership is the best-pure-
    # deviation test.
    rng = random.Random(17)
    for _ in range(40):
        g = random_max_game(rng, players=2, max_moves=3)
        prof = tuple(
            mixed_strategy(_random_simplex(rng, c)) for c in g.move_counts
        )
        classical = all(
            expected_outcome(g, i, prof)
            >= max(mixed_unilateral_table(g, i, prof).entries) - 1e-9
            for i in range(2)
        )
        assert is_mixed_nash(g, prof, 1e-9) == classical


def test_profile_shape_mismatch():
    g = matching_pennies()
    with pytest.raises(StructuralError):
        expected_outcome(g, 0, mixed_profile(g, [[0.5, 0.5], [0.5, 0.5]])[:1])
    with pytest.raises(StructuralError):
        mixed_profile(g, [[1.0], [0.5, 0.5]])


def _reference_grid(moves, depth):
    """Slow oracle: the simplex grid as numerator tuples summing to
    ``depth``, in lexicographic order."""
    return [np.array(numerators, dtype=float) / depth
            for numerators in itertools.product(range(depth + 1), repeat=moves)
            if sum(numerators) == depth]


def _reference_solve_generic(g, grid_depth=3, tol=1e-9):
    """Slow oracle: every grid profile certified by is_mixed_nash, one at a
    time in itertools.product order."""
    grids = [_reference_grid(c, grid_depth) for c in g.move_counts]
    found = []
    for combo in itertools.product(*grids):
        profile = mixed_profile(g, combo)
        if is_mixed_nash(g, profile, tol):
            found.append(profile)
    return _dedupe_sorted(found, max(tol, 1e-9))


def _result_or_error(solve, *args):
    try:
        return solve(*args)
    except StructuralError as exc:
        return f"StructuralError: {exc}"


def _assert_identical(got, want):
    """The same profiles, bit for bit and in order, or the same error."""
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert len(got) == len(want)
    for prof, ref in zip(got, want):
        assert all(np.array_equal(s, r) for s, r in zip(prof, ref))


def _recording_quantifier(calls, vector):
    """A custom quantifier that logs every membership test it is asked."""

    def contains(table, value, tol):
        calls.append((table.entries, value))
        if vector:
            return outcome_distance(value, table[0]) <= 1.0 + tol
        return value >= sum(table.entries) / len(table) - tol

    return custom_quantifier(contains)


# Quantifier mixes of the oracle comparison; "custom" records its calls.
_SCALAR_MIXES = [
    ("max", "max"), ("max", "max", "max"), ("min", "max", "max"),
    ("eps_ball", "max", "min"), ("fixed_point", "max"),
    ("fixed_point", "fixed_point", "min"), ("max", "average", "max"),
    ("average", "max"), ("custom", "max", "max"), ("max", "custom", "max"),
    ("eps_ball", "custom", "min", "max"), ("max", "min", "max", "max"),
]
_VECTOR_MIXES = [
    ("eps_ball", "eps_ball"), ("eps_ball", "custom", "eps_ball"),
    ("custom", "eps_ball"), ("eps_ball", "max"), ("eps_ball", "eps_ball", "min"),
]


def _mixed_kind_game(rng, kinds, vector, calls, depth):
    """A game with one quantifier per entry of ``kinds`` and 2-4 moves per
    player, trimmed until its grid at ``depth`` has at most 120 profiles
    (or 2 moves each). A fixed_point player's outcome is often its own move
    id, so that its deviation tables hold fixed points up to rounding."""
    counts = [int(rng.integers(2, 5)) for _ in kinds]
    while max(counts) > 2 and _grid_size(counts, depth) > 120:
        counts[counts.index(max(counts))] -= 1
    shape = (len(kinds), *counts) + ((2,) if vector else ())
    if rng.random() < 0.5:
        payoffs = rng.integers(0, 4, shape) * 1.0
    else:
        payoffs = rng.uniform(-1, 1, shape)
    quantifiers = []
    for i, (kind, c) in enumerate(zip(kinds, counts)):
        if kind == "custom":
            quantifiers.append(_recording_quantifier(calls, vector))
        elif kind == "eps_ball":
            quantifiers.append(eps_ball_quantifier(int(rng.integers(0, c)),
                                                   float(rng.choice([0.25, 1.0]))))
        else:
            quantifiers.append({"max": max_quantifier, "min": min_quantifier,
                                "fixed_point": fixed_point_quantifier,
                                "average": average_quantifier}[kind]())
        if kind == "fixed_point" and rng.random() < 0.5:
            own = np.arange(c).reshape([-1 if j == i else 1
                                        for j in range(len(kinds))])
            payoffs[i] = np.broadcast_to(own, counts)
    moves = tuple(tuple(f"m{x}" for x in range(c)) for c in counts)
    return SimultaneousGame(moves, payoffs, tuple(quantifiers))


def _grid_size(counts, depth):
    return math.prod(math.comb(depth + c - 1, c - 1) for c in counts)


def test_solve_generic_matches_reference_loop():
    # Same profiles bit for bit, the same errors, and the same calls to
    # every quantifier the screen does not cover, in the same order.
    rng = np.random.default_rng(2718)
    mixes = ([(kinds, False) for kinds in _SCALAR_MIXES]
             + [(kinds, True) for kinds in _VECTOR_MIXES])
    for n, (kinds, vector) in enumerate(mixes * 2):
        calls = []
        # Depths 1-4 in turn; four players go to depth 3 at most.
        depth = 1 + n % (4 if len(kinds) < 4 else 3)
        g = _mixed_kind_game(rng, kinds, vector, calls, depth)
        for tol in (0.0, 1e-9, 1e-3):
            want = _result_or_error(_reference_solve_generic, g, depth, tol)
            want_calls = list(calls)
            calls.clear()
            got = _result_or_error(solve_generic, g, depth, tol)
            _assert_identical(got, want)
            assert calls == want_calls, (kinds, depth, tol)
            calls.clear()


def test_solve_generic_screen_blocks_match_reference(monkeypatch):
    # Blocks of 5 profiles split player 0's grid axis at many boundaries;
    # a block of one row is larger than 5 when the others' grids are.
    monkeypatch.setattr(hog.mixed, "_STACK", 5)
    rng = random.Random(41)
    for players in (1, 2, 3):
        g = random_max_game(rng, players=players, max_moves=3,
                            payoff_range=(0, 2))
        for depth in (2, 3):
            for tol in (0.0, 1e-9):
                _assert_identical(solve_generic(g, depth, tol),
                                  _reference_solve_generic(g, depth, tol))


@pytest.mark.parametrize("stack", [1, 5, 7])
def test_solve_generic_kernel_calls_see_at_most_stack_values(monkeypatch,
                                                             stack):
    # Each player's tables are tested once, in calls of at most _STACK
    # candidate values, whether a player's own grid is larger than _STACK
    # (depth 3 over 3 moves has 10 points) or smaller; the answers are the
    # reference loop's.
    monkeypatch.setattr(hog.mixed, "_STACK", stack)
    seen = []

    def kernel(tables, values, tol):
        seen.append(values.shape[0] * values.shape[1])
        return max_quantifier().kernel(tables, values, tol)

    counting = Quantifier(QuantifierKind.MAX, kernel)
    rng = random.Random(43)
    for players in (1, 2, 3):
        g = random_max_game(rng, players=players, max_moves=3,
                            payoff_range=(0, 2))
        counted = SimultaneousGame(g.moves, g.payoffs, (counting,) * players)
        for depth in (1, 3):
            _assert_identical(solve_generic(counted, depth),
                              _reference_solve_generic(g, depth))
    assert max(seen) == stack


def test_solve_generic_screen_slack_keeps_rounding_ties():
    # With constant payoffs every grid point is an equilibrium, but at tol 0
    # is_mixed_nash accepts only those whose rounding happens to tie; the
    # screen's own rounding (contractions, and a matrix product for the
    # values) differs, and its slack must keep them all. Near 1e300 the
    # rounding dwarfs tol 1e-9 too; near 1.7e308 the game is one whose
    # kernels may overflow (payoff_scale below 1), and a min player mixes
    # in.
    rng = np.random.default_rng(5)
    mix = [max_quantifier(), min_quantifier(), max_quantifier()]
    games = [
        SimultaneousGame.from_tensors([2, 2, 2], [[0.1] * 8] * 3,
                                      [max_quantifier()] * 3),
        SimultaneousGame.from_tensors(
            [2, 2, 2], list(1e300 * (1 + rng.integers(0, 3, (3, 8)) * 1e-16)),
            [max_quantifier()] * 3),
        SimultaneousGame.from_tensors(
            [2, 2, 2], [[1.7e308] * 8, [-1.7e308] * 8, [1.7e308] * 8], mix),
    ]
    assert games[2].payoff_scale < 1.0
    for g in games:
        for tol in (0.0, 1e-9):
            want = _reference_solve_generic(g, 5, tol)
            # At tol 1e-9 every grid point of the first game passes.
            assert 0 < len(want) < 6 ** 3 or (g is games[0] and tol)
            _assert_identical(solve_generic(g, 5, tol), want)


def test_solve_generic_four_players_of_unequal_move_counts():
    # Move counts (2, 3, 2, 4): each player's last contraction writes the
    # others' grid axes in player order around grids of unequal sizes.
    rng = np.random.default_rng(7)
    counts = [2, 3, 2, 4]
    for kinds in ([max_quantifier()] * 4,
                  [max_quantifier(), min_quantifier(),
                   eps_ball_quantifier(1, 0.5), max_quantifier()]):
        payoffs = rng.integers(0, 3, (4, 48)) * 1.0
        g = SimultaneousGame.from_tensors(counts, list(payoffs), kinds)
        for tol in (0.0, 1e-9):
            want = _reference_solve_generic(g, 2, tol)
            assert want
            _assert_identical(solve_generic(g, 2, tol), want)


def test_solve_generic_certifies_only_screen_survivors(monkeypatch):
    # A 3x3x3 game at depth 6 has 21 952 grid profiles; the screen leaves
    # a handful for is_mixed_nash.
    certified = []

    def counting(g, profile, tol=1e-9):
        certified.append(profile)
        return is_mixed_nash(g, profile, tol)

    monkeypatch.setattr(hog.mixed, "is_mixed_nash", counting)
    rng = np.random.default_rng(0)
    g = SimultaneousGame.from_tensors(
        [3, 3, 3], [rng.uniform(-1, 1, 27) for _ in range(3)],
        [max_quantifier()] * 3)
    found = solve_generic(g, 6)
    assert len(found) <= len(certified) <= 50


def test_solve_generic_raises_only_where_reference_raises():
    # Vector outcomes reach a max quantifier, and an eps_ball centre lies
    # outside a player's moves: the error is the per-point loop's. When no
    # grid point passes the players before, nothing is raised.
    vectors = np.arange(16.0).reshape(2, 2, 2, 2) % 3
    moves = (("a", "b"),) * 2
    raising = [
        SimultaneousGame(moves, vectors,
                         (eps_ball_quantifier(0, 5.0), max_quantifier())),
        SimultaneousGame(moves, vectors,
                         (max_quantifier(), eps_ball_quantifier(0, 5.0))),
        SimultaneousGame(moves, vectors[..., 0],
                         (max_quantifier(), eps_ball_quantifier(3, 1.0))),
    ]
    # Player 0's outcome is always 0.5, never a move id: no fixed point.
    silent = [
        SimultaneousGame(moves, np.full((2, 2, 2), 0.5),
                         (fixed_point_quantifier(), eps_ball_quantifier(3, 1.0))),
    ]
    for g in raising + silent:
        for depth in (1, 2):
            want = _result_or_error(_reference_solve_generic, g, depth)
            assert isinstance(want, str) == (g in raising)
            _assert_identical(_result_or_error(solve_generic, g, depth), want)


def test_vertex_moves_are_integers():
    for bad in (True, 1.0, 0.5, 2, -1):
        with pytest.raises(StructuralError, match="outside 0..1"):
            vertex(2, bad)
    assert vertex(2, np.int64(1)).tolist() == [0.0, 1.0]
    with pytest.raises(StructuralError, match="invalid for player 1"):
        vertex_profile(matching_pennies(), (0, False))


def _reference_dedupe_sorted(profiles, tol):
    """The profile-by-profile dedupe: keep a profile unless a kept one is
    within tol in every coordinate, then sort by coordinates."""
    kept = []
    for cand in profiles:
        flat = np.concatenate(cand)
        if not any(np.max(np.abs(flat - seen)) <= tol for seen, _ in kept):
            kept.append((flat, cand))
    kept.sort(key=lambda item: item[0].tolist())
    return [cand for _, cand in kept]


def test_dedupe_matches_reference_loop():
    rng = np.random.default_rng(26)
    cases = 0
    for n in (0, 1, 2, 5, 40, 200):
        for counts in ((2,), (2, 3), (3, 1, 2)):
            base = [tuple(rng.dirichlet(np.ones(c)) for c in counts)
                    for _ in range(max(1, n // 3))]
            # Copies of earlier profiles nudged by 0, 1e-10, 1e-9, or more.
            profiles = [
                tuple(s + rng.choice([0.0, 1e-10, 1e-9, 3e-9, 0.2])
                      * rng.uniform(-1, 1, s.shape)
                      for s in base[rng.integers(len(base))])
                for _ in range(n)]
            for tol in (0.0, 1e-9, 0.5):
                got = _dedupe_sorted(profiles, tol)
                want = _reference_dedupe_sorted(profiles, tol)
                assert [id(p) for p in got] == [id(p) for p in want]
                cases += 0 < len(want) < n
    # Some lists lose some profiles but not all.
    assert cases > 10
