"""Refusals at the library edge: each call raises its documented error type
with a message that names the cause, never an IndexError, a TypeError or an
OverflowError from deeper down."""

import re

import numpy as np
import pytest

from hog import fuzz
from hog.core import (OutcomeTable, argmax_selection, as_outcome,
                      attains_exhaustively, custom_quantifier,
                      custom_selection,
                      eps_ball_quantifier, make_standard_quantifier,
                      make_standard_selection, max_quantifier)
from hog.errors import GameFileError, StructuralError
from hog.gamefile import GameDocument, parse_strategy
from hog.mixed import (is_mixed_nash, mixed_profile, mixed_strategy,
                       player_certificates, solve_generic,
                       solve_support_enumeration_2p)
from hog.normalform import ContingentMoveSet, lift_round_quantifier
from hog.sequential import (SequentialGame, compute_optimal_play,
                            compute_optimal_strategy, selection_product)
from hog.simultaneous import SimultaneousGame

MAX, ARGMAX = max_quantifier(), argmax_selection()
BIG = 10 ** 400  # an integer beyond the float range


def _game(counts=(2, 2), payoffs=None):
    size = int(np.prod(counts))
    payoffs = payoffs or [list(range(size))] * len(counts)
    return SimultaneousGame.from_tensors(counts, payoffs, [MAX] * len(counts))


def _sequential(counts, quantifiers=None, selections=None):
    return SequentialGame(
        tuple(tuple(f"m{x}" for x in range(m)) for m in counts),
        np.zeros(counts), quantifiers or (MAX,) * len(counts),
        selections or (ARGMAX,) * len(counts))


REFUSALS = {
    "outcome vector holding a non-number": (
        lambda: as_outcome([1.0, "x"]), StructuralError, "not an outcome: 'x'"),
    "empty outcome vector": (
        lambda: as_outcome([]), StructuralError, "must be nonempty"),
    "outcome with no float": (
        lambda: as_outcome(object()), StructuralError, "not an outcome"),
    "outcome mapping": (
        lambda: as_outcome({1: 2}), StructuralError,
        r"not an outcome: \{1: 2\}"),
    "outcome set": (
        lambda: as_outcome({3.0, 1.0}), StructuralError,
        r"not an outcome: \{1.0, 3.0\}"),
    "stacked table of 0 moves": (
        lambda: MAX.contains_stacked(np.zeros((1, 0)), np.zeros((1, 1)), 0.0),
        StructuralError, "nonempty move set"),
    "eps_ball negative centre": (
        lambda: eps_ball_quantifier(-1, 1.0), StructuralError,
        "center must be a valid move id"),
    "eps_ball non-integral centre": (
        lambda: eps_ball_quantifier(1.5, 1.0), StructuralError,
        "center must be a valid move id"),
    "custom standard quantifier": (
        lambda: make_standard_quantifier("custom"), StructuralError,
        "no standard quantifier of kind 'custom'"),
    "custom standard selection": (
        lambda: make_standard_selection("custom"), StructuralError,
        "no standard selection of kind 'custom'"),
    "constant selection without move": (
        lambda: make_standard_selection("constant"), StructuralError,
        "missing parameter 'move' for constant"),
    "attainment over 0 moves": (
        lambda: attains_exhaustively(ARGMAX, MAX, 0, [1.0]), StructuralError,
        "move_set_size must be >= 1"),
    "attainment over an empty grid": (
        lambda: attains_exhaustively(ARGMAX, MAX, 2, []), StructuralError,
        "outcome_grid must be nonempty"),
    "labels that do not match the counts": (
        lambda: SimultaneousGame.from_tensors([2], [[1, 2]], [MAX],
                                              moves=[["a"]]),
        StructuralError, "move labels must match move counts"),
    "payoffs of the wrong shape": (
        lambda: SimultaneousGame((("a", "b"),), np.zeros((1, 3)), (MAX,)),
        StructuralError, r"payoffs has shape \(1, 3\)"),
    "simultaneous empty move set": (
        lambda: SimultaneousGame((("a",), ()), np.zeros((2, 1, 0)),
                                 (MAX, MAX)),
        StructuralError, "player 1 has an empty move set"),
    "one quantifier too few": (
        lambda: SimultaneousGame((("a",), ("b",)), np.zeros((2, 1, 1)),
                                 (MAX,)),
        StructuralError, "one entry per player"),
    "single outcome space from different tensors": (
        lambda: SimultaneousGame.from_tensors(
            [2, 2], [[1, 2, 3, 4], [9, 9, 9, 9]], [MAX, MAX],
            single_outcome_space=True),
        StructuralError, "identical payoff tensors"),
    "sequential game of no round": (
        lambda: SequentialGame((), np.zeros(()), (), ()), StructuralError,
        "at least one round"),
    "sequential empty round": (
        lambda: SequentialGame((("a",), ()), np.zeros((1, 0)), (MAX, MAX),
                               (ARGMAX, ARGMAX)),
        StructuralError, "round 1 has an empty move set"),
    "one selection too few": (
        lambda: _sequential((2, 2), selections=(ARGMAX,)), StructuralError,
        "one entry per round"),
    "2-d mixed strategy": (
        lambda: mixed_strategy([[0.5, 0.5]]), StructuralError,
        "nonempty 1-d probability vector"),
    "empty mixed strategy": (
        lambda: mixed_strategy([]), StructuralError,
        "nonempty 1-d probability vector"),
    "support enumeration on vector outcomes": (
        lambda: solve_support_enumeration_2p(_game(
            payoffs=[[[1, 2]] * 4] * 2)),
        StructuralError, "requires scalar outcomes"),
    "grid depth 0": (
        lambda: solve_generic(_game(), 0), StructuralError,
        "grid_depth must be >= 1"),
    "contingent index of a short table": (
        lambda: ContingentMoveSet(1, 2, 2).index((0,)), StructuralError,
        "table has 1 entries, expected 2"),
    "lifted kernel on a table of the wrong size": (
        lambda: lift_round_quantifier(MAX, ContingentMoveSet(1, 2, 2))
        .contains([1.0, 2.0, 3.0], 1.0, 0.0),
        StructuralError, "table has 3 entries, expected 4 contingent moves"),
    "parsed strategy that validation refuses": (
        lambda: parse_strategy(GameDocument("sequential", _sequential((2, 2))),
                               [[0], [0]]),
        GameFileError, "round 1 table has 1 entries, expected 2"),
    "unknown fuzz round kind": (
        lambda: fuzz._round_pair("median"), ValueError,
        "unknown round kind 'median'"),
    "negative fuzz seed": (
        lambda: fuzz.run_fuzz(-1, 1), StructuralError,
        "fuzz seed must be >= 0, got -1"),
    "unknown fuzz family": (
        lambda: fuzz.run_fuzz(1, 1, families=("stages",)), ValueError,
        "unknown family 'stages'"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_library_refusals(call, error, message):
    with pytest.raises(error, match=message) as caught:
        call()
    assert not isinstance(caught.value, (IndexError, TypeError,
                                         OverflowError))


# A custom selection's answer must be a move of its table: -1 would wrap to
# the last move, 1.5, "1" and True would be cast to move 1, 7 lies outside
# the table and None is no number.
BAD_ANSWERS = [-1, 1.5, "1", True, np.True_, 7, None]


def _answering(answer):
    return custom_selection(lambda p: answer)


@pytest.mark.parametrize("answer", BAD_ANSWERS, ids=repr)
def test_custom_selection_answer_must_be_a_move(answer):
    chose = f"custom selection chose {answer!r}"
    with pytest.raises(StructuralError, match=chose):
        _answering(answer).select([1.0, 2.0])
    g = _sequential((2, 2), selections=(ARGMAX, _answering(answer)))
    for solve in (compute_optimal_strategy, compute_optimal_play):
        with pytest.raises(StructuralError, match=chose):
            solve(g)
    for eps, delta in ((ARGMAX, _answering(answer)),
                       (_answering(answer), ARGMAX)):
        with pytest.raises(StructuralError, match=chose):
            selection_product(eps, delta, [[1, 2], [3, 4]])


def test_custom_selection_takes_numpy_moves():
    g = _sequential((2, 2), selections=(ARGMAX, custom_selection(
        lambda p: np.int64(len(p) - 1))))
    assert compute_optimal_strategy(g) == ((0,), (1, 1))
    assert compute_optimal_play(g) == (0, 1)


# A custom quantifier's answer must be a bool: "no" and NaN would be cast to
# True, [] would end in a reshape error, and 1 and None are no verdicts.
@pytest.mark.parametrize("answer", ["no", float("nan"), [], 1, None], ids=repr)
def test_custom_quantifier_answer_must_be_a_bool(answer):
    phi = custom_quantifier(lambda p, r, tol: answer)
    answered = re.escape(f"custom quantifier answered {answer!r}, not a bool")
    with pytest.raises(StructuralError, match=answered):
        phi.contains([1.0, 2.0], 1.0, 0.0)
    g = SimultaneousGame.from_tensors([2], [[1.0, 2.0]], [phi])
    with pytest.raises(StructuralError, match=answered):
        is_mixed_nash(g, [[0.5, 0.5]])


@pytest.mark.parametrize("answer", [True, False, np.True_, np.False_],
                         ids=repr)
def test_custom_quantifier_takes_numpy_bools(answer):
    phi = custom_quantifier(lambda p, r, tol: answer)
    assert phi.contains([1.0, 2.0], 1.0, 0.0) is bool(answer)


# Every entry point that reads numbers from the caller refuses an integer
# beyond the float range, and a bool or a string, scalar or in a vector.
NUMBERS = {
    "outcome table": lambda v: OutcomeTable([v, 1]),
    "quantifier membership": lambda v: MAX.contains([1.0, 2.0], v, 0.0),
    "selection product": lambda v: selection_product(
        ARGMAX, ARGMAX, [[v, 1], [2, 3]]),
    "exhaustive attainment": lambda v: attains_exhaustively(
        ARGMAX, MAX, 2, [v, 1]),
    "outcome vector": lambda v: as_outcome([1.0, v]),
}


@pytest.mark.parametrize("value, message", [
    (BIG, "beyond the float range"), (True, "not an outcome: True"),
    ("2", "not an outcome: '2'"), (b"2", "not an outcome: b'2'")],
    ids=["huge", "bool", "str", "bytes"])
@pytest.mark.parametrize("entry", NUMBERS.values(), ids=NUMBERS.keys())
def test_outcome_numbers_at_the_edge(entry, value, message):
    with pytest.raises(StructuralError, match=message):
        entry(value)


MIXED = {
    "mixed_strategy": mixed_strategy,
    "mixed_profile": lambda probs: mixed_profile(_game(), [probs, [1, 0]]),
    "is_mixed_nash": lambda probs: is_mixed_nash(_game(), [probs, [1, 0]]),
    "player_certificates": lambda probs: list(
        player_certificates(_game(), [probs, [1, 0]])),
}


@pytest.mark.parametrize("probs, message", [
    (["0.5", "0.5"], "not a probability: '0.5'"),
    ([b"1", 0], "not a probability: b'1'"),
    ([True, False], "not a probability: True"),
    ([BIG, 0], "too large to convert to float"),
    ([[1.0], [0.5, 0.5]], "inhomogeneous")],
    ids=["str", "bytes", "bool", "huge", "ragged"])
@pytest.mark.parametrize("entry", MIXED.values(), ids=MIXED.keys())
def test_mixed_strategy_numbers_at_the_edge(entry, probs, message):
    with pytest.raises(StructuralError, match=message):
        entry(probs)


def test_mixed_strategy_takes_numeric_arrays():
    for probs in (np.array([1, 0]), np.array([0.25, 0.75], dtype=np.float32),
                  [np.float64(0.5), 0.5]):
        assert mixed_strategy(probs).tolist() == np.asarray(
            probs, dtype=float).tolist()
