import itertools
import json
import random

import numpy as np
import pytest

from hog.core import argmax_selection, max_quantifier
from hog.errors import BudgetExceededError, StructuralError
from hog.fuzz import random_sequential_game
from hog.gamefile import load_game, parse_strategy
from hog.normalform import (ContingentMoveSet, check_soundness,
                            contingent_label, contingent_move_sets,
                            profile_to_strategy, strategy_to_profile,
                            to_normal_form)
from hog.sequential import (SequentialGame, compute_optimal_strategy,
                            is_optimal_strategy, strategic_play)
from hog.simultaneous import enumerate_pure_equilibria, is_generalised_nash


def two_round_2x_plus_y():
    return SequentialGame.from_tensor(
        [2, 2], [0, 1, 2, 3], [max_quantifier()] * 2, [argmax_selection()] * 2
    )


def test_contingent_move_set_counts():
    cms = ContingentMoveSet(1, 2, 2)
    assert cms.size == 4
    assert cms.all_tables() == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for k in range(4):
        assert cms.index(cms.table(k)) == k
    assert cms.constant_index(1) == 3
    with pytest.raises(StructuralError):
        cms.table(4)


def test_contingent_labels():
    g = SequentialGame.from_tensor(
        [2, 2, 3], list(range(12)), [max_quantifier()] * 3,
        [argmax_selection()] * 3, moves=[["a", "b"], ["x", "y"], ["1", "2", "3"]])
    nf = to_normal_form(g)
    assert nf.moves[0] == ("0:a", "1:b")
    assert nf.moves[1] == ("0:a>x,b>x", "1:a>x,b>y", "2:a>y,b>x", "3:a>y,b>y")
    assert nf.moves[2][5] == "5:ax>1,ay>1,bx>2,by>3"
    # The per-round labels equal the single-label function's.
    for cms in contingent_move_sets(g):
        assert nf.moves[cms.round_index] == tuple(
            contingent_label(cms, g, k) for k in range(cms.size))


def test_single_round_normal_form_is_isomorphic():
    g = SequentialGame.from_tensor([3], [4, 9, 1], [max_quantifier()],
                                   [argmax_selection()])
    nf = to_normal_form(g)
    assert nf.move_counts == (3,)
    assert [nf.outcome(0, (k,)) for k in range(3)] == [4, 9, 1]
    assert enumerate_pure_equilibria(nf) == [(1,)]


def test_normal_form_cardinalities():
    g = two_round_2x_plus_y()
    nf = to_normal_form(g)
    assert nf.move_counts == (2, 4)
    assert nf.single_outcome_space
    g3 = SequentialGame.from_tensor(
        [2, 2, 2], list(range(8)), [max_quantifier()] * 3,
        [argmax_selection()] * 3
    )
    assert to_normal_form(g3).move_counts == (2, 4, 16)


def test_normal_form_equilibrium_of_2x_plus_y():
    # Oracle: enumerate the induced 2x4 game.
    g = two_round_2x_plus_y()
    nf = to_normal_form(g)
    eqs = enumerate_pure_equilibria(nf)
    const_one = ContingentMoveSet(1, 2, 2).constant_index(1)
    assert (1, const_one) in eqs
    # Independent check of that profile by direct unpacking.
    assert is_generalised_nash(nf, (1, const_one))


def test_outcome_composes_with_strategic_play():
    rng = random.Random(21)
    for _ in range(25):
        g = random_sequential_game(rng, max_rounds=3, max_moves=2)
        nf = to_normal_form(g)
        for _ in range(5):
            strategy = tuple(
                tuple(rng.randrange(g.move_counts[i])
                      for _ in range(g.history_count(i)))
                for i in range(g.rounds)
            )
            profile = strategy_to_profile(g, strategy)
            assert profile_to_strategy(g, profile) == strategy
            assert nf.outcome(0, profile) == g.outcome(strategic_play(g, strategy))


def test_lifted_quantifier_restriction_property():
    # On a table constant across each constant contingent strategy, the
    # lifted quantifier agrees with the base quantifier on the small table.
    from hog.core import OutcomeTable
    from hog.normalform import lift_round_quantifier

    cms = ContingentMoveSet(1, 2, 2)
    phi = lift_round_quantifier(max_quantifier(), cms)
    big = [0.0] * cms.size
    big[cms.constant_index(0)] = 3.0
    big[cms.constant_index(1)] = 5.0
    table = OutcomeTable(big)
    assert phi.contains(table, 5.0, 0)
    assert not phi.contains(table, 3.0, 0)
    assert phi.canonical(table) == 5.0


def test_soundness_on_random_games():
    rng = random.Random(2024)
    for _ in range(40):
        g = random_sequential_game(rng, max_rounds=3, max_moves=2)
        strategy = compute_optimal_strategy(g)
        assert check_soundness(g, strategy)


def test_soundness_budget_counts_plays_not_normal_form():
    # 3 rounds of 3 moves: 27 plays, but 3 * 27 * 19683 normal-form
    # profiles, beyond the default budget.
    g = SequentialGame.from_tensor(
        [3, 3, 3], list(range(27)), [max_quantifier()] * 3,
        [argmax_selection()] * 3)
    assert check_soundness(g, compute_optimal_strategy(g))
    with pytest.raises(BudgetExceededError) as err:
        check_soundness(g, compute_optimal_strategy(g), budget=26)
    assert err.value.count == 27


def test_direct_soundness_matches_normal_form_oracle():
    # Oracle: materialise the normal form and check the strategy's profile
    # there. 3 rounds of 3 moves need 3 * 27 * 19683 profiles.
    budget = 2_000_000
    rng = random.Random(1729)
    games = [random_sequential_game(rng, max_rounds=3, max_moves=3)
             for _ in range(25)]
    games.append(SequentialGame.from_tensor(
        [3, 3, 3], [rng.randint(-9, 9) for _ in range(27)],
        [max_quantifier()] * 3, [argmax_selection()] * 3))
    rejected = 0
    for g in games:
        nf = to_normal_form(g, budget)
        strategies = [compute_optimal_strategy(g)] + [
            tuple(
                tuple(rng.randrange(g.move_counts[i])
                      for _ in range(g.history_count(i)))
                for i in range(g.rounds)
            )
            for _ in range(4)
        ]
        for strategy in strategies:
            direct = check_soundness(g, strategy, budget=budget)
            assert direct == is_generalised_nash(
                nf, strategy_to_profile(g, strategy))
            rejected += not direct
    assert rejected > 0


def test_converse_failure_witness(games_dir):
    document = load_game(games_dir / "threat_game.json")
    g = document.game
    strategy = parse_strategy(
        document, json.loads((games_dir / "threat_strategy.json").read_text())
    )
    assert check_soundness(g, strategy)
    assert not is_optimal_strategy(g, strategy)
    # Oracle: verify both predicates by enumeration on the raw payoffs
    # q(a,a)=2, q(a,b)=0, q(b,a)=0, q(b,b)=1 with the strategy (b, always-b).
    tensor = {(0, 0): 2, (0, 1): 0, (1, 0): 0, (1, 1): 1}
    # Not optimal: after the off-path history a, playing b yields 0 < 2.
    assert tensor[(0, 1)] < max(tensor[(0, y)] for y in range(2))
    # Nash in the normal form: round 1 deviating to a yields q(a, b)=0 <= 1,
    # round 2 deviating to any constant reply t gives q(b, t(b)) <= 1.
    assert all(tensor[(1, t)] <= tensor[(1, 1)] for t in range(2))
    assert tensor[(0, 1)] <= tensor[(1, 1)]


def test_budget_guard_names_cardinality():
    g = SequentialGame.from_tensor(
        [2, 2, 2], list(range(8)), [max_quantifier()] * 3,
        [argmax_selection()] * 3
    )
    with pytest.raises(BudgetExceededError) as err:
        to_normal_form(g, budget=100)
    assert err.value.count == 2 * 4 * 16


def test_constant_index_is_the_repunit():
    for base, hist in itertools.product(range(1, 5), range(1, 5)):
        cms = ContingentMoveSet(0, base, hist)
        for move in range(base):
            assert cms.constant_index(move) == cms.index((move,) * hist)
    # No loop over the histories: a million of them take one power.
    assert ContingentMoveSet(0, 1, 10 ** 400).constant_index(0) == 0
    assert ContingentMoveSet(0, 2, 10 ** 6).constant_index(1) == (
        2 ** 10 ** 6 - 1)


def test_contingent_moves_are_integers():
    cms = ContingentMoveSet(1, 2, 2)
    for bad in (1.5, 1.0, True, 4, -1):
        with pytest.raises(StructuralError, match="in round 1"):
            cms.table(bad)
    for bad in ((1.0, 0), (True, 0), (0, 2)):
        with pytest.raises(StructuralError, match="in round 1"):
            cms.index(bad)
    with pytest.raises(StructuralError, match="in round 1"):
        cms.constant_index(True)
    assert cms.table(np.int64(2)) == (1, 0)
    assert cms.index((np.int64(1), np.uint8(0))) == 2
    assert cms.constant_index(np.int32(1)) == 3
    # numpy moves add up in Python ints: 3^50 - 1 is past int64.
    assert ContingentMoveSet(1, 3, 50).index((np.int64(2),) * 50) == (
        3 ** 50 - 1)
