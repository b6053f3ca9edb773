import itertools
import random

import numpy as np
import pytest

from hog.core import eps_ball_quantifier, max_quantifier
from hog.errors import BudgetExceededError, StructuralError
from hog.simultaneous import (SimultaneousGame, best_response_set,
                              enumerate_pure_equilibria, is_generalised_nash,
                              unilateral_map)

MP_ROW = [1, -1, -1, 1]
MP_COL = [-1, 1, 1, -1]


def matching_pennies():
    return SimultaneousGame.from_tensors(
        [2, 2], [MP_ROW, MP_COL], [max_quantifier(), max_quantifier()],
        moves=[["H", "T"], ["H", "T"]],
    )


def test_single_player_unilateral_map_is_whole_table():
    # q(x) = x^2 over {-1, 0, 2}, encoded as payoffs per move.
    g = SimultaneousGame.from_tensors([3], [[1, 0, 4]], [max_quantifier()])
    for pi in [(0,), (1,), (2,)]:
        assert unilateral_map(g, 0, pi).entries == (1.0, 0.0, 4.0)


def test_matching_pennies_unilateral_row():
    g = matching_pennies()
    # Oracle: direct payoff matrix lookup, row player at (H, H).
    assert unilateral_map(g, 0, (0, 0)).entries == (1.0, -1.0)


def test_unilateral_map_idempotent_in_own_coordinate():
    g = matching_pennies()
    for pi in g.profiles():
        table = unilateral_map(g, 0, pi)
        for x in range(2):
            replaced = (x,) + pi[1:]
            assert unilateral_map(g, 0, replaced)[x] == table[x]


def test_unilateral_map_consistency():
    g = matching_pennies()
    for pi in g.profiles():
        for i in range(2):
            assert unilateral_map(g, i, pi)[pi[i]] == g.outcome(i, pi)


def test_prisoners_dilemma_equilibrium():
    # Dominant strategies: mutual defection is the only equilibrium.
    g = SimultaneousGame.from_tensors(
        [2, 2], [[3, 0, 5, 1], [3, 5, 0, 1]], [max_quantifier()] * 2
    )
    assert is_generalised_nash(g, (1, 1))
    assert not is_generalised_nash(g, (0, 0))
    assert enumerate_pure_equilibria(g) == [(1, 1)]


def test_constant_outcomes_everything_is_equilibrium():
    g = SimultaneousGame.from_tensors(
        [2, 3], [[7] * 6, [7] * 6], [max_quantifier()] * 2
    )
    assert enumerate_pure_equilibria(g) == list(g.profiles())


def test_eps_ball_max_pure_condition():
    # One player accepts outcomes near the outcome at move 0, the other
    # maximizes; equilibrium unpacks to the two explicit conditions.
    q0 = [2, 0, 2.25, 1]
    q1 = [1, 3, 0, 2]
    g = SimultaneousGame.from_tensors(
        [2, 2], [q0, q1],
        [eps_ball_quantifier(0, 0.5), max_quantifier()],
    )

    def q(t, a, b):
        return t[a * 2 + b]

    for pi in g.profiles():
        a, b = pi
        cond_ball = abs(q(q0, a, b) - q(q0, 0, b)) <= 0.5
        cond_max = q(q1, a, b) == max(q(q1, a, y) for y in range(2))
        assert is_generalised_nash(g, pi) == (cond_ball and cond_max)


def test_best_response_fixed_point_characterisation():
    g = matching_pennies()
    for pi in g.profiles():
        assert (pi in best_response_set(g, pi)) == is_generalised_nash(g, pi)


def test_best_response_matching_pennies():
    # Row's best reply to (H, H) is H; column's is T; other coordinates free.
    g = matching_pennies()
    assert best_response_set(g, (0, 0)) == [(0, 1)]


def test_best_response_single_player_ignores_profile():
    g = SimultaneousGame.from_tensors([3], [[1, 5, 5]], [max_quantifier()])
    for pi in [(0,), (1,), (2,)]:
        assert best_response_set(g, pi) == [(1,), (2,)]


def test_matching_pennies_has_no_pure_equilibrium():
    # Oracle: check all 4 profiles by hand against the matrices.
    g = matching_pennies()
    for pi in g.profiles():
        i, j = pi
        row_best = MP_ROW[i * 2 + j] >= max(MP_ROW[x * 2 + j] for x in range(2))
        col_best = MP_COL[i * 2 + j] >= max(MP_COL[i * 2 + y] for y in range(2))
        assert not (row_best and col_best)
    assert enumerate_pure_equilibria(g) == []


def test_coordination_game_diagonal_equilibria():
    g = SimultaneousGame.from_tensors(
        [2, 2], [[1, 0, 0, 1], [1, 0, 0, 1]], [max_quantifier()] * 2
    )
    assert enumerate_pure_equilibria(g) == [(0, 0), (1, 1)]


def _classical_nash(tensors, counts, profile):
    """Independent no-profitable-deviation oracle on raw tensors."""
    def payoff(i, prof):
        idx = 0
        for m, c in zip(prof, counts):
            idx = idx * c + m
        return tensors[i][idx]

    for i in range(len(counts)):
        mine = payoff(i, profile)
        for x in range(counts[i]):
            if payoff(i, profile[:i] + (x,) + profile[i + 1:]) > mine:
                return False
    return True


def test_classical_reduction_random_games():
    rng = random.Random(7)
    for _ in range(120):
        players = rng.randint(1, 3)
        counts = [rng.randint(1, 3) for _ in range(players)]
        size = 1
        for c in counts:
            size *= c
        tensors = [[rng.randint(-9, 9) for _ in range(size)]
                   for _ in range(players)]
        g = SimultaneousGame.from_tensors(
            counts, tensors, [max_quantifier()] * players
        )
        for profile in itertools.product(*(range(c) for c in counts)):
            assert is_generalised_nash(g, profile) == _classical_nash(
                tensors, counts, profile
            )


def test_payoff_translation_invariance():
    rng = random.Random(11)
    for _ in range(40):
        counts = [rng.randint(1, 3), rng.randint(1, 3)]
        size = counts[0] * counts[1]
        tensors = [[rng.randint(-5, 5) for _ in range(size)] for _ in range(2)]
        shift = rng.randint(-10, 10)
        shifted = [[v + shift for v in tensors[0]], tensors[1]]
        g1 = SimultaneousGame.from_tensors(counts, tensors, [max_quantifier()] * 2)
        g2 = SimultaneousGame.from_tensors(counts, shifted, [max_quantifier()] * 2)
        assert enumerate_pure_equilibria(g1) == enumerate_pure_equilibria(g2)


def test_vector_outcomes_with_eps_ball():
    # Outcome vectors compare by max-abs distance; the ball around the
    # outcome at move 0 accepts the realized pair iff every coordinate is
    # within the radius.
    outcomes = [(1.0, 2.0), (1.3, 2.4), (5.0, 2.0)]
    g = SimultaneousGame.from_tensors(
        [3], [outcomes], [eps_ball_quantifier(0, 0.5)],
        moves=[("a", "b", "c")],
    )
    assert is_generalised_nash(g, (0,))
    assert is_generalised_nash(g, (1,))
    assert not is_generalised_nash(g, (2,))


def test_validation_errors():
    with pytest.raises(StructuralError):
        SimultaneousGame.from_tensors([2, 2], [[1, 2, 3]], [max_quantifier()] * 2)
    with pytest.raises(StructuralError):
        SimultaneousGame(moves=(), payoffs=np.zeros(0), quantifiers=())
    g = matching_pennies()
    with pytest.raises(StructuralError):
        is_generalised_nash(g, (0, 2))
    with pytest.raises(StructuralError):
        is_generalised_nash(g, (0,))


def test_enumeration_budget():
    g = SimultaneousGame.from_tensors(
        [4, 4, 4, 4], [[0] * 256] * 4, [max_quantifier()] * 4
    )
    with pytest.raises(BudgetExceededError):
        enumerate_pure_equilibria(g, budget=100)
