import itertools
import math
import random
from dataclasses import replace

import pytest

from hog.core import (OutcomeTable, argmax_selection, argmin_selection,
                      constant_selection, eps_ball_quantifier, max_quantifier,
                      min_quantifier)
from hog.errors import BudgetExceededError, StructuralError
from hog.fuzz import random_stage
from hog.minimax import bbc, compare_bbc_vs_product, is_psi_phi_profile
from hog.sequential import selection_product
from hog.simultaneous import SimultaneousGame

MP = [1, -1, -1, 1]


def stage_from(tensor, nx, ny, quantifiers=None, selections=None):
    game = SimultaneousGame.from_tensors(
        (nx, ny), [tensor, tensor],
        quantifiers or (max_quantifier(), min_quantifier()),
        single_outcome_space=True)
    return replace(game, selections=selections
                   or (argmax_selection(), argmin_selection()))


def _literal_bbc(stage):
    """Independent transcription of the two defining displays."""
    eps, delta = stage.selections
    q = stage.payoffs[0]
    nx, ny = stage.move_counts
    a = eps.select(OutcomeTable([
        q[x][delta.select(OutcomeTable([q[x][y] for y in range(ny)]))]
        for x in range(nx)
    ]))
    b = delta.select(OutcomeTable([
        q[eps.select(OutcomeTable([q[x][y] for x in range(nx)]))][y]
        for y in range(ny)
    ]))
    return a, b


def test_bbc_matching_pennies():
    stage = stage_from(MP, 2, 2)
    assert bbc(stage) == _literal_bbc(stage)
    assert bbc(stage) == (0, 0)


def test_bbc_constant_table_tie_breaks():
    stage = stage_from([5, 5, 5, 5], 2, 2)
    assert bbc(stage) == (0, 0)


def test_bbc_first_coordinate_matches_product_when_reply_constant():
    tensor = [3, 0, 5, 2]
    stage = stage_from(tensor, 2, 2,
                       selections=(argmax_selection(), constant_selection(1)))
    a, _ = bbc(stage)
    prod = selection_product(argmax_selection(), constant_selection(1),
                             stage.payoffs[0])
    assert a == prod[0]


def test_bbc_matches_literal_formula_on_random_grids():
    rng = random.Random(55)
    for _ in range(100):
        nx, ny = rng.randint(1, 4), rng.randint(1, 4)
        tensor = [rng.randint(-9, 9) for _ in range(nx * ny)]
        stage = stage_from(tensor, nx, ny)
        assert bbc(stage) == _literal_bbc(stage)


def test_psi_phi_single_valued_reduces_to_row_min_argmax():
    # With single-valued quantifiers the composed table is forced pointwise,
    # so the first condition says a maximizes the row-min value.
    stage = stage_from([4, -2, 1, 3], 2, 2)
    mins = [min(stage.payoffs[0][x]) for x in range(2)]
    for a in range(2):
        for b in range(2):
            expected_first = mins[a] == max(mins)
            col_maxes = [max(stage.payoffs[0][x][y] for x in range(2)) for y in range(2)]
            expected_second = col_maxes[b] == min(col_maxes)
            assert is_psi_phi_profile(stage, (a, b)) == (
                expected_first and expected_second
            )


def test_bbc_passes_verifier_on_random_stages():
    rng = random.Random(101)
    for _ in range(50):
        stage = random_stage(rng, max_moves=4)
        assert is_psi_phi_profile(stage, bbc(stage), 0.0)


def test_bbc_achieves_maximin_value():
    rng = random.Random(303)
    for _ in range(50):
        stage = random_stage(rng, max_moves=4)
        a, _ = bbc(stage)
        q = stage.payoffs[0]
        maximin = max(min(row) for row in q)
        assert min(q[a]) == maximin


def test_exhaustive_small_grids():
    # Every 2x2 stage over {-1,0,1} with argmax/argmin.
    for tensor in itertools.product([-1, 0, 1], repeat=4):
        stage = stage_from(list(tensor), 2, 2)
        assert is_psi_phi_profile(stage, bbc(stage), 0.0)


def test_multi_valued_quantifier_accepted_by_verifier():
    # An eps-ball second quantifier admits several replies per move; the
    # verifier enumerates all of them.
    stage = stage_from(
        [0, 1, 1, 0], 2, 2,
        (max_quantifier(), eps_ball_quantifier(0, 1.0)),
        (argmax_selection(), constant_selection(0)),
    )
    assert not all(q.single_valued for q in stage.quantifiers)
    # Every reply is admissible (all payoffs within 1 of the y=0 column),
    # so the first condition demands optimality against all 4 reply maps.
    assert not is_psi_phi_profile(stage, bbc(stage), 0.0)
    # A profile can still satisfy the definition when the table is flat.
    flat = stage_from(
        [1, 1, 1, 1], 2, 2,
        (max_quantifier(), eps_ball_quantifier(0, 1.0)),
        (argmax_selection(), constant_selection(0)),
    )
    assert is_psi_phi_profile(flat, bbc(flat), 0.0)


def test_compare_report_matching_pennies():
    stage = stage_from(MP, 2, 2)
    report = compare_bbc_vs_product(stage)
    assert report["bbc"]["pair"] == [0, 0]
    assert report["product"]["pair"] == [0, 1]
    assert not report["coincide"]


def test_compare_report_monotone_coincide():
    stage = stage_from([0, 1, 1, 2], 2, 2,
                       selections=(argmax_selection(), argmax_selection()),
                       quantifiers=(max_quantifier(), max_quantifier()))
    report = compare_bbc_vs_product(stage)
    assert report["bbc"]["pair"] == [1, 1]
    assert report["coincide"]


def test_stage_validation():
    with pytest.raises(StructuralError):
        stage_from([1, 2, 3], 2, 2)
    stage = stage_from(MP, 2, 2)
    with pytest.raises(StructuralError):
        is_psi_phi_profile(stage, (2, 0))
    # A stage is a 2-player single-outcome game; bbc also needs selections.
    selections = (argmax_selection(), argmin_selection(), argmax_selection())
    three = replace(SimultaneousGame.from_tensors(
        (2, 2, 2), [[0] * 8] * 3, [max_quantifier()] * 3,
        single_outcome_space=True), selections=selections)
    separate = replace(SimultaneousGame.from_tensors(
        (2, 2), [MP, MP], (max_quantifier(), min_quantifier())),
        selections=selections[:2])
    # The error says what the library call needs, not what the CLI calls it.
    needs = "expected a 2-player single-outcome simultaneous game"
    for game in (three, separate):
        for check, want in ((bbc, needs + " with selections"),
                            (compare_bbc_vs_product, needs + " with selections"),
                            (lambda g: is_psi_phi_profile(g, (0, 0)), needs)):
            with pytest.raises(StructuralError) as err:
                check(game)
            assert str(err.value) == want
    with pytest.raises(StructuralError) as err:
        bbc(replace(stage, selections=None))
    assert str(err.value) == needs + " with selections"
    assert (is_psi_phi_profile(replace(stage, selections=None), (0, 0))
            == is_psi_phi_profile(stage, (0, 0)))
    with pytest.raises(StructuralError):
        replace(stage, selections=selections)


def _reference_is_psi_phi_profile(stage, pair, tol):
    """Slow oracle: enumerate every admissible reply function on both
    sides."""
    a, b = pair
    nx, ny = stage.move_counts
    phi, psi = stage.quantifiers
    q = stage.payoffs[0].tolist()
    row_tables = [OutcomeTable(row) for row in q]
    a_choices = [
        [y for y in range(ny) if psi.contains(row_tables[x], q[x][y], tol)]
        for x in range(nx)
    ]
    col_tables = [OutcomeTable(col) for col in zip(*q)]
    b_choices = [
        [x for x in range(nx) if phi.contains(col_tables[y], q[x][y], tol)]
        for y in range(ny)
    ]
    if all(a_choices):
        for f in itertools.product(*a_choices):
            table = OutcomeTable([q[x][f[x]] for x in range(nx)])
            if not phi.contains(table, q[a][f[a]], tol):
                return False
    if all(b_choices):
        for gfun in itertools.product(*b_choices):
            table = OutcomeTable([q[gfun[y]][y] for y in range(ny)])
            if not psi.contains(table, q[gfun[b]][b], tol):
                return False
    return True


def test_worst_case_matches_reply_function_enumeration():
    rng = random.Random(4242)
    quantifiers = {"max": max_quantifier(), "min": min_quantifier(),
                   "ball": eps_ball_quantifier(0, 1.0)}
    kinds = [("max", "min"), ("min", "max"), ("max", "max"),
             ("max", "ball"), ("ball", "min")]
    verdicts = set()
    for _ in range(150):
        nx, ny = rng.randint(1, 4), rng.randint(1, 4)
        values = rng.choice([2, 3, 5])
        tensor = [rng.randrange(values) * rng.choice([1, 0.5])
                  for _ in range(nx * ny)]
        first, second = rng.choice(kinds)
        stage = stage_from(tensor, nx, ny, quantifiers=(
            quantifiers[first], quantifiers[second]))
        for tol in (0.0, 0.5, 1.0):
            for pair in itertools.product(range(nx), range(ny)):
                want = _reference_is_psi_phi_profile(stage, pair, tol)
                assert is_psi_phi_profile(stage, pair, tol) == want
                verdicts.add(want)
    assert verdicts == {True, False}


def test_worst_case_answers_where_enumeration_exceeds_budget():
    # A constant 8x8 max/min stage admits 8^8 reply functions per side; the
    # worst case needs none of them. An eps-ball outer quantifier still
    # enumerates, and is still refused.
    flat = stage_from([0] * 64, 8, 8)
    assert is_psi_phi_profile(flat, (3, 5), 0.0, budget=1)
    ball = stage_from([0] * 64, 8, 8, quantifiers=(
        eps_ball_quantifier(0, 1.0), min_quantifier()))
    with pytest.raises(BudgetExceededError) as err:
        is_psi_phi_profile(ball, (0, 0), 0.0, budget=1)
    assert err.value.count == math.prod([8] * 8)
