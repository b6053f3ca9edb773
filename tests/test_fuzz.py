import random

import numpy as np

from hog.fuzz import (certify_sequential, random_sequential_game,
                      random_stage, run_fuzz, shrink_sequential, shrink_stage)


def test_generators_are_seed_deterministic():
    g1 = random_sequential_game(random.Random(5))
    g2 = random_sequential_game(random.Random(5))
    assert g1.move_counts == g2.move_counts
    plays = list(__import__("itertools").product(
        *(range(c) for c in g1.move_counts)))
    assert [g1.outcome(p) for p in plays] == [g2.outcome(p) for p in plays]
    s1 = random_stage(random.Random(5))
    s2 = random_stage(random.Random(5))
    assert np.array_equal(s1.payoffs[0], s2.payoffs[0])


def test_run_fuzz_all_families_pass():
    result = run_fuzz(seed=1, count=10)
    assert result.ok
    assert result.checked == 30


def test_shrinker_reduces_failing_game():
    rng = random.Random(9)
    g = random_sequential_game(rng, max_rounds=4, max_moves=3)

    # A fake predicate: "fails" whenever the game has at least 2 rounds.
    def failing(game):
        return game.rounds >= 2

    small = shrink_sequential(g, failing)
    assert small.rounds == 2
    assert all(c == 1 for c in small.move_counts)
    plays = list(__import__("itertools").product(
        *(range(c) for c in small.move_counts)))
    assert all(small.outcome(p) == 0 for p in plays)


def test_stage_shrinker():
    stage = random_stage(random.Random(4), max_moves=4)

    def failing(s):
        return s.move_counts[0] * s.move_counts[1] >= 2

    small = shrink_stage(stage, failing)
    assert small.move_counts[0] * small.move_counts[1] == 2


def test_certifier_agrees_with_direct_checks():
    rng = random.Random(12)
    from hog.sequential import (compute_optimal_play,
                                compute_optimal_strategy,
                                is_optimal_strategy, strategic_play)
    for _ in range(10):
        g = random_sequential_game(rng)
        assert certify_sequential(g) == (
            strategic_play(g, compute_optimal_strategy(g))
            == compute_optimal_play(g)
            and is_optimal_strategy(g, compute_optimal_strategy(g))
        )
