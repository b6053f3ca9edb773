"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (visible with pytest -s or -rA)."""

import itertools
import json
import random
import time
from dataclasses import replace

import numpy as np

from hog.core import (OutcomeTable, argmax_selection, argmin_selection,
                      average_quantifier, constant_selection,
                      eps_ball_quantifier, max_quantifier, min_quantifier,
                      nearest_mean_selection)
from hog.fuzz import random_sequential_game, random_stage
from hog.gamefile import load_game, parse_strategy
from hog.minimax import bbc, is_psi_phi_profile
from hog.mixed import (is_mixed_nash, lift_selection, mixed_strategy,
                       mixed_unilateral_table, solve_support_enumeration_2p)
from hog.normalform import check_soundness
from hog.sequential import (compute_optimal_play, compute_optimal_strategy,
                            is_optimal_strategy, strategic_play)
from hog.simultaneous import SimultaneousGame, is_generalised_nash
from random_games import random_max_game
from test_sequential import _reference_compute_optimal_play

NF_BUDGET = 4_000_000  # worst case for 3 rounds of 3 moves is 3^13 profiles


def _report(number: int, name: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"acceptance {number} {name}: {status}{suffix}")


def test_criterion_1_optimal_play_theorem():
    rng = random.Random(20260809)
    start = time.monotonic()
    failures = 0
    for _ in range(200):
        g = random_sequential_game(rng, max_rounds=4, max_moves=3,
                                   payoff_range=(-9, 9))
        play = compute_optimal_play(g)
        strategy = compute_optimal_strategy(g)
        if play != _reference_compute_optimal_play(g):
            failures += 1
        elif strategic_play(g, strategy) != play:
            failures += 1
        elif not is_optimal_strategy(g, strategy, 0.0):
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 60.0
    _report(1, "optimal-play theorem", ok,
            f"200 games, {failures} failures, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 60.0


def test_criterion_2_normal_form_soundness(games_dir):
    rng = random.Random(577)
    failures = 0
    for _ in range(200):
        g = random_sequential_game(rng, max_rounds=3, max_moves=3,
                                   min_moves=2, payoff_range=(-9, 9))
        strategy = compute_optimal_strategy(g)
        if not check_soundness(g, strategy, 0.0, budget=NF_BUDGET):
            failures += 1
    # Stored witness that the converse fails: an equilibrium of the normal
    # form sustained by off-path behaviour that is not optimal.
    document = load_game(games_dir / "threat_game.json")
    witness = parse_strategy(
        document, json.loads((games_dir / "threat_strategy.json").read_text())
    )
    witness_ok = (check_soundness(document.game, witness)
                  and not is_optimal_strategy(document.game, witness))
    ok = failures == 0 and witness_ok
    _report(2, "normal-form soundness", ok,
            f"200 games, {failures} failures, converse witness "
            f"{'held' if witness_ok else 'broke'}")
    assert failures == 0
    assert witness_ok


def test_criterion_3_mixed_nash_certification(games_dir):
    mp = load_game(games_dir / "matching_pennies.json").game
    mp_sols = solve_support_enumeration_2p(mp, 1e-9)
    mp_ok = (
        len(mp_sols) == 1
        and max(np.max(np.abs(s - 0.5)) for s in mp_sols[0]) <= 1e-9
        and is_mixed_nash(mp, mp_sols[0], 1e-9)
    )
    rps = load_game(games_dir / "rock_paper_scissors.json").game
    rps_sols = solve_support_enumeration_2p(rps, 1e-9)
    rps_ok = (
        len(rps_sols) == 1
        and max(np.max(np.abs(s - 1.0 / 3.0)) for s in rps_sols[0]) <= 1e-9
        and is_mixed_nash(rps, rps_sols[0], 1e-9)
    )
    ok = mp_ok and rps_ok
    _report(3, "mixed certification", ok,
            f"pennies {'ok' if mp_ok else 'bad'}, rps {'ok' if rps_ok else 'bad'}")
    assert mp_ok
    assert rps_ok


def test_criterion_4_existence_smoke_test():
    rng = random.Random(424242)
    empty_runs = 0
    uncertified = 0
    for _ in range(100):
        g = random_max_game(rng, players=2, max_moves=4, min_moves=1,
                            payoff_range=(-9, 9))
        sols = solve_support_enumeration_2p(g, 1e-9)
        if not sols:
            empty_runs += 1
            continue
        for prof in sols:
            if not is_mixed_nash(g, prof, 1e-9):
                uncertified += 1
    ok = empty_runs == 0 and uncertified == 0
    _report(4, "mixed existence smoke test", ok,
            f"100 games, {empty_runs} empty, {uncertified} uncertified")
    assert empty_runs == 0
    assert uncertified == 0


def test_criterion_5_reply_robustness_theorem():
    start = time.monotonic()
    counterexamples = 0
    checked = 0
    for ny in (2, 3):
        for tensor in itertools.product([-1, 0, 1], repeat=2 * ny):
            stage = replace(SimultaneousGame.from_tensors(
                (2, ny), [list(tensor)] * 2,
                (max_quantifier(), min_quantifier()),
                single_outcome_space=True,
            ), selections=(argmax_selection(), argmin_selection()))
            checked += 1
            if not is_psi_phi_profile(stage, bbc(stage), 0.0):
                counterexamples += 1
    rng = random.Random(909)
    for _ in range(500):
        stage = random_stage(rng, max_moves=4, min_moves=1,
                             payoff_range=(-9, 9))
        checked += 1
        if not is_psi_phi_profile(stage, bbc(stage), 0.0):
            counterexamples += 1
    elapsed = time.monotonic() - start
    ok = counterexamples == 0 and elapsed < 120.0
    _report(5, "independent-pair reply robustness", ok,
            f"{checked} stages, {counterexamples} counterexamples, {elapsed:.1f}s")
    assert counterexamples == 0
    assert elapsed < 120.0


def _classical_nash(g: SimultaneousGame, profile) -> bool:
    for i in range(g.num_players):
        mine = g.outcome(i, profile)
        for x in range(g.move_counts[i]):
            if g.outcome(i, profile[:i] + (x,) + profile[i + 1:]) > mine:
                return False
    return True


def test_criterion_6_classical_reduction():
    rng = random.Random(1618)
    disagreements = 0
    profiles_checked = 0
    for _ in range(500):
        players = rng.randint(1, 3)
        g = random_max_game(rng, players=players, max_moves=3, min_moves=1,
                            payoff_range=(-9, 9))
        for profile in g.profiles():
            profiles_checked += 1
            if is_generalised_nash(g, profile, 0.0) != _classical_nash(g, profile):
                disagreements += 1
    ok = disagreements == 0
    _report(6, "classical reduction", ok,
            f"500 games, {profiles_checked} profiles, {disagreements} disagreements")
    assert disagreements == 0


def _random_simplex(rng, n):
    weights = [rng.random() + 1e-3 for _ in range(n)]
    total = sum(weights)
    return mixed_strategy([w / total for w in weights])


def test_criterion_7_multilinearity():
    rng = random.Random(2718)
    violations = 0
    for _ in range(200):
        players = rng.randint(2, 3)
        g = random_max_game(rng, players=players, max_moves=3, min_moves=2,
                            payoff_range=(-9, 9))
        base = [_random_simplex(rng, c) for c in g.move_counts]
        i = rng.randrange(players)
        j = rng.choice([k for k in range(players) if k != i])
        s1 = _random_simplex(rng, g.move_counts[j])
        s2 = _random_simplex(rng, g.move_counts[j])
        t = rng.random()

        def with_j(s):
            prof = list(base)
            prof[j] = s
            return tuple(prof)

        combo = mixed_strategy(t * s1 + (1 - t) * s2)
        t_combo = mixed_unilateral_table(g, i, with_j(combo))
        t_1 = mixed_unilateral_table(g, i, with_j(s1))
        t_2 = mixed_unilateral_table(g, i, with_j(s2))
        err = max(
            abs(t_combo[x] - (t * t_1[x] + (1 - t) * t_2[x]))
            for x in range(g.move_counts[i])
        )
        if err > 1e-9:
            violations += 1
    ok = violations == 0
    _report(7, "multilinearity", ok, f"200 games, {violations} violations")
    assert violations == 0


def test_criterion_8_lifted_attainment():
    rng = random.Random(31415)
    failures = 0
    for _ in range(1000):
        n = rng.randint(1, 5)
        table = OutcomeTable([rng.randint(-9, 9) for _ in range(n)])
        kind = rng.randrange(4)
        if kind == 0:
            phi, eps = max_quantifier(), argmax_selection()
        elif kind == 1:
            phi, eps = min_quantifier(), argmin_selection()
        elif kind == 2:
            phi, eps = average_quantifier(), nearest_mean_selection()
        else:
            center = rng.randrange(n)
            phi, eps = (eps_ball_quantifier(center, rng.choice([0.5, 1.0, 2.0])),
                        constant_selection(center))
        chosen_vertex = lift_selection(eps).select(table)
        move = int(np.argmax(chosen_vertex))
        if not phi.contains(table, table[move], 0.0):
            failures += 1
    ok = failures == 0
    _report(8, "lifted attainment", ok, f"1000 tables, {failures} failures")
    assert failures == 0
