import itertools
import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from hog.cli import main
from hog.core import (OutcomeTable, argmax_selection, argmin_selection,
                      average_quantifier, constant_selection,
                      custom_quantifier, eps_ball_quantifier, fixed_point_witness, max_quantifier,
                      min_quantifier, nearest_mean_selection)
from hog.errors import BudgetExceededError, NoFixedPointError, StructuralError
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


def test_custom_outer_quantifier_sees_one_table_at_a_time():
    calls = []

    def contains(p, r, tol):
        calls.append((p.entries, r))
        return r != 3

    stage = stage_from([0, 1, 2, 3], 2, 2, quantifiers=(
        custom_quantifier(contains), eps_ball_quantifier(0, 9)))
    assert not is_psi_phi_profile(stage, (1, 0))
    # As the inner test, it sees each column and each entry of it; as the
    # outer test, each reply function's table up to the first it rejects.
    assert calls == [((0.0, 2.0), 0.0), ((0.0, 2.0), 2.0),
                     ((1.0, 3.0), 1.0), ((1.0, 3.0), 3.0),
                     ((0.0, 2.0), 2.0), ((0.0, 3.0), 3.0)]


SELECTIONS = {"argmax": argmax_selection(), "argmin": argmin_selection(),
              "nearest_mean": nearest_mean_selection(),
              "constant0": constant_selection(0),
              "constant1": constant_selection(1),
              "fixed_point": fixed_point_witness()}
QUANTIFIERS = {"max": max_quantifier(), "min": min_quantifier(),
               "ball": eps_ball_quantifier(0, 0.5),
               "average": average_quantifier()}
SHAPES = [(1, 1), (1, 3), (1, 8), (3, 1), (8, 1), (2, 2), (2, 5), (4, 3),
          (5, 5), (6, 8), (8, 8)]


def _seeded_payoffs(rng, nx, ny):
    """Ties, signed zeros, move ids (so fixed points exist) or continuous
    values, chosen at random."""
    kind = rng.integers(4)
    if kind == 0:
        return rng.integers(0, 3, (nx, ny)) * 1.0
    if kind == 1:
        return rng.choice([0.0, -0.0, 1.0, -1.0], (nx, ny))
    if kind == 2:
        return rng.integers(0, min(nx, ny) + 1, (nx, ny)) * 1.0
    return rng.uniform(-2, 2, (nx, ny))


def _outcome(f, *args):
    """What ``f`` returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except (StructuralError, NoFixedPointError) as exc:
        return type(exc), str(exc)


def _literal_product(stage):
    eps, delta = stage.selections
    q = stage.payoffs[0].tolist()
    replies = [delta.select(OutcomeTable(row)) for row in q]
    a = eps.select(OutcomeTable([row[b] for row, b in zip(q, replies)]))
    return a, replies[a]


def _reference_compare(stage):
    pair_bbc, pair_prod = _literal_bbc(stage), _literal_product(stage)
    q = stage.payoffs[0].tolist()

    def describe(pair):
        return {"pair": list(pair),
                "moves": [stage.moves[0][pair[0]], stage.moves[1][pair[1]]],
                "outcome": q[pair[0]][pair[1]]}

    return {"bbc": describe(pair_bbc), "product": describe(pair_prod),
            "coincide": pair_bbc == pair_prod}


def test_bbc_and_compare_match_oracles_for_every_selection_pair():
    rng = np.random.default_rng(1009)
    raised = set()
    for (e, eps), (d, delta) in itertools.product(SELECTIONS.items(),
                                                   repeat=2):
        for nx, ny in SHAPES:
            payoffs = _seeded_payoffs(rng, nx, ny)
            stage = stage_from(payoffs.ravel().tolist(), nx, ny,
                               selections=(eps, delta))
            want = _outcome(_literal_bbc, stage)
            assert _outcome(bbc, stage) == want, (e, d, payoffs)
            report = _outcome(compare_bbc_vs_product, stage)
            assert report == _outcome(_reference_compare, stage), (e, d)
            if isinstance(want, tuple) and isinstance(want[0], type):
                raised.add(want[0])
            else:
                assert all(type(v) is int for v in want)
                assert all(type(v) is int for v in report["product"]["pair"])
    assert raised == {StructuralError, NoFixedPointError}


def _reply_function_count(stage, tol):
    phi, psi = stage.quantifiers
    q = stage.payoffs[0].tolist()
    cols = [list(col) for col in zip(*q)]
    return sum(
        math.prod(sum(inner.contains(OutcomeTable(line), r, tol)
                      for r in line) for line in lines)
        for inner, lines in ((psi, q), (phi, cols)))


def test_psi_phi_profile_matches_reference_on_seeded_stages():
    rng = np.random.default_rng(2029)
    verdicts = set()
    for (f, phi), (s, psi) in itertools.product(QUANTIFIERS.items(), repeat=2):
        for nx, ny in SHAPES:
            for tol in (0.0, 0.5):
                while True:
                    payoffs = _seeded_payoffs(rng, nx, ny)
                    stage = stage_from(payoffs.ravel().tolist(), nx, ny,
                                       quantifiers=(phi, psi))
                    if _reply_function_count(stage, tol) <= 600:
                        break
                pairs = {(int(rng.integers(nx)), int(rng.integers(ny)))
                         for _ in range(3)}
                for pair in pairs:
                    want = _reference_is_psi_phi_profile(stage, pair, tol)
                    assert is_psi_phi_profile(stage, pair, tol) == want, (
                        f, s, tol, pair, payoffs)
                    verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.filterwarnings("error")
def test_non_finite_and_huge_stages_match_oracles():
    # Differences of outcomes of +-1.7e308 overflow to inf. Stages with a
    # NaN or infinite outcome are refused when they are built.
    rng = np.random.default_rng(3037)
    verdicts = set()
    refused = 0
    for _ in range(80):
        nx, ny = (int(v) for v in rng.integers(1, 5, 2))
        payoffs = rng.integers(0, 3, (nx, ny)) * 1.0
        special = rng.random((nx, ny)) < 0.3
        payoffs[special] = rng.choice(
            [np.nan, np.inf, -np.inf, 1.7e308, -1.7e308], special.sum())
        names = rng.choice(list(QUANTIFIERS), 2)
        if not np.isfinite(payoffs).all():
            with pytest.raises(StructuralError) as err:
                stage_from(payoffs.ravel().tolist(), nx, ny)
            assert str(err.value) == "payoffs must be finite numbers"
            refused += 1
            continue
        stage = stage_from(payoffs.ravel().tolist(), nx, ny,
                           quantifiers=tuple(QUANTIFIERS[n] for n in names))
        assert _outcome(bbc, stage) == _outcome(_literal_bbc, stage)
        for pair in itertools.product(range(nx), range(ny)):
            want = _reference_is_psi_phi_profile(stage, pair, 0.0)
            assert is_psi_phi_profile(stage, pair, 0.0) == want
            verdicts.add(want)
    assert verdicts == {True, False}
    assert 0 < refused < 80


PENNIES_JSON = """\
{
  "comparison": {
    "bbc": {
      "moves": [
        "H",
        "H"
      ],
      "outcome": 1.0,
      "pair": [0, 0]
    },
    "coincide": false,
    "product": {
      "moves": [
        "H",
        "T"
      ],
      "outcome": -1.0,
      "pair": [0, 1]
    }
  },
  "mode": "bbc",
  "moves": [
    "H",
    "H"
  ],
  "outcome": 1.0,
  "pair": [0, 0],
  "reply_robust": true
}
"""

SEEDED_8X8_JSON = """\
{
  "comparison": {
    "bbc": {
      "moves": [
        "x0",
        "y2"
      ],
      "outcome": 0.0,
      "pair": [0, 2]
    },
    "coincide": false,
    "product": {
      "moves": [
        "x0",
        "y1"
      ],
      "outcome": 0.0,
      "pair": [0, 1]
    }
  },
  "mode": "bbc",
  "moves": [
    "x0",
    "y2"
  ],
  "outcome": 0.0,
  "pair": [0, 2],
  "reply_robust": true
}
"""


# ``hog bbc --json`` on a 2x2 max/min stage with outcomes +-1.7e308, whose
# differences overflow to inf.
OVERFLOW_JSON = """\
{
  "comparison": {
    "bbc": {
      "moves": [
        "x1",
        "y1"
      ],
      "outcome": 0.0,
      "pair": [1, 1]
    },
    "coincide": false,
    "product": {
      "moves": [
        "x1",
        "y0"
      ],
      "outcome": 0.0,
      "pair": [1, 0]
    }
  },
  "mode": "bbc",
  "moves": [
    "x1",
    "y1"
  ],
  "outcome": 0.0,
  "pair": [1, 1],
  "reply_robust": true
}
"""


# numpy reports an overflow as a warning, which pytest would capture
# before it reached stderr.
@pytest.mark.filterwarnings("error")
def test_cli_bbc_json_is_pinned(capsys, games_dir, tmp_path):
    payoff = np.random.default_rng(8).integers(0, 3, (8, 8))
    seeded = tmp_path / "stage_8x8.json"
    seeded.write_text(json.dumps({
        "version": 1, "kind": "two_player_stage",
        "moves": [[f"x{i}" for i in range(8)], [f"y{j}" for j in range(8)]],
        "payoffs": payoff.ravel().tolist(),
        "quantifiers": [{"kind": "max"}, {"kind": "min"}],
        "selections": [{"kind": "argmax"}, {"kind": "argmin"}]}))
    overflow = tmp_path / "stage_overflow.json"
    overflow.write_text(json.dumps({
        "version": 1, "kind": "two_player_stage",
        "moves": [["x0", "x1"], ["y0", "y1"]],
        "payoffs": [1.7e308, -1.7e308, 0, 0],
        "quantifiers": [{"kind": "max"}, {"kind": "min"}],
        "selections": [{"kind": "argmax"}, {"kind": "argmin"}]}))
    for path, want in ((games_dir / "stage_matching_pennies.json",
                        PENNIES_JSON), (seeded, SEEDED_8X8_JSON),
                       (overflow, OVERFLOW_JSON)):
        assert main(["bbc", str(path), "--json"]) == 0
        out = capsys.readouterr()
        assert (out.out, out.err) == (want, "")


def test_psi_phi_pair_moves_are_integers():
    stage = stage_from([1, 2, 3, 4], 2, 2)
    for bad, player in (((True, 0), 0), ((1.5, 0), 0), ((0, 1.0), 1),
                        ((0, 2), 1)):
        with pytest.raises(StructuralError,
                           match=f"invalid for player {player}"):
            is_psi_phi_profile(stage, bad)
    assert is_psi_phi_profile(stage, (np.int64(1), np.int8(0))) == (
        is_psi_phi_profile(stage, (1, 0)))
