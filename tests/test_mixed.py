import random

import numpy as np
import pytest

from hog.core import (argmax_selection, argmin_selection,
                      constant_selection, eps_ball_quantifier, max_quantifier,
                      min_quantifier, nearest_mean_selection,
                      average_quantifier, OutcomeTable, as_outcome,
                      outcome_distance)
from hog.errors import BudgetExceededError, StructuralError
from hog.fuzz import random_max_game
from hog.mixed import (expected_outcome, is_mixed_nash, lift_selection,
                       mixed_profile, mixed_strategy, mixed_unilateral_table,
                       solve_generic, solve_support_enumeration_2p, vertex,
                       vertex_profile)
from hog.simultaneous import SimultaneousGame, is_generalised_nash

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


def test_support_enumeration_requires_max_quantifiers():
    g = SimultaneousGame.from_tensors(
        [2, 2], MP, [max_quantifier(), min_quantifier()]
    )
    with pytest.raises(StructuralError):
        solve_support_enumeration_2p(g)


def test_support_enumeration_budget_counts_support_pairs():
    # 3x3: (2^3 - 1)(2^3 - 1) = 49 support pairs.
    g = rock_paper_scissors()
    with pytest.raises(BudgetExceededError) as err:
        solve_support_enumeration_2p(g, budget=48)
    assert err.value.count == 49
    assert len(solve_support_enumeration_2p(g, budget=49)) == 1


def test_solver_outputs_certified():
    rng = random.Random(13)
    for _ in range(25):
        g = random_max_game(rng, players=2, max_moves=3)
        for prof in solve_support_enumeration_2p(g):
            assert is_mixed_nash(g, prof, 1e-9)


def test_solve_generic_finds_pure_equilibrium_at_depth_1():
    g = SimultaneousGame.from_tensors(
        [2, 2], [[3, 0, 5, 1], [3, 5, 0, 1]], [max_quantifier()] * 2
    )
    sols = solve_generic(g, 1, refine=False)
    assert any(
        list(p[0]) == [0.0, 1.0] and list(p[1]) == [0.0, 1.0] for p in sols
    )


def test_solve_generic_matching_pennies_depth_2():
    g = matching_pennies()
    sols = solve_generic(g, 2)
    assert any(
        np.max(np.abs(np.concatenate(p) - 0.5)) <= 1e-9 for p in sols
    )


def test_solve_generic_eps_ball_max_conditions():
    # The anchored player accepts outcomes within 0.5 of deviating to move 0;
    # the other maximizes. Each returned profile must satisfy the two
    # explicit conditions, computed independently.
    q0 = [2, 0, 2.25, 1]
    q1 = [1, 3, 0, 2]
    g = SimultaneousGame.from_tensors(
        [2, 2], [q0, q1], [eps_ball_quantifier(0, 0.5), max_quantifier()]
    )
    sols = solve_generic(g, 2, refine=False)
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
