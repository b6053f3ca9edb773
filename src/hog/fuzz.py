"""Seeded random game generation and theorem certification.

Each family draws games from a fixed-shape distribution, runs the relevant
certification, and shrinks any failing game before reporting it. All
randomness flows from an explicit seed; the certifications exercise the
package's own checkers, so a failure means either a checker bug or a genuine
counterexample to a theorem (the latter should never happen). A sequential
game whose plays exceed the budget is refused before its payoffs are drawn.

Every value is drawn by ``_draw``, which reads a seed's ``random.Random``
exactly as one ``randint`` or ``choice`` call per value would, with one
``getrandbits`` call per try. ``run_fuzz`` draws each family's games as
plain values: move counts, integer payoffs in a float array, and each
round's quantifier and selection. It certifies them in stacks of games of
one shape, whose payoffs are one float array, so a round costs one kernel
call per distinct quantifier or selection of a stack, not one per game: one
backward pass per stack of sequential games, which checks optimality as it
goes or is followed by one on-path soundness walk, and one BBC pair and
reply-robustness check per stack of stages. A game object is built only
when it is read: a failing game, which the one-game certifiers shrink, or a
game of the result's corpus. The one-game certifiers run the same pass,
walk and pairs on a stack of one, and the same per-round checks.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cache, partial
from typing import Callable

import numpy as np

from . import minimax, normalform, sequential
from .budget import check_budget, resolve_budget
from .core import (argmax_selection, argmin_selection, average_quantifier,
                   max_quantifier, min_quantifier, nearest_mean_selection,
                   quiet)
from .errors import BudgetExceededError
from .sequential import SequentialGame
from .simultaneous import (SimultaneousGame, default_move_labels,
                           overflow_scale)

FAMILIES = ("seq", "normal-form", "bbc")

_SEQ_KINDS = ("max", "min", "average")


def _round_pair(kind: str):
    if kind == "max":
        return max_quantifier(), argmax_selection()
    if kind == "min":
        return min_quantifier(), argmin_selection()
    if kind == "average":
        return average_quantifier(), nearest_mean_selection()
    raise ValueError(f"unknown round kind {kind!r}")


def _draw(rng: random.Random, lo: int, hi: int, size: int | None = None):
    """``rng.randint(lo, hi)``, or a list of ``size`` such draws, read from
    ``rng`` exactly as those calls read it: the same values, and the same
    state after. A draw from n = hi - lo + 1 values tries
    ``getrandbits(k)``, for k = n.bit_length(), until a try is below n."""
    n = hi - lo + 1
    if n <= 0:
        raise ValueError(f"empty range for randint({lo}, {hi})")
    k, getrandbits = n.bit_length(), rng.getrandbits
    if size is None:
        v = getrandbits(k)
        while v >= n:
            v = getrandbits(k)
        return lo + v
    values = []
    for _ in range(size):
        v = getrandbits(k)
        while v >= n:
            v = getrandbits(k)
        values.append(lo + v)
    return values


def _draw_sequential(rng: random.Random, max_rounds: int, max_moves: int,
                     min_moves: int, payoff_range: tuple[int, int], kinds,
                     budget: int | None):
    """The values of random_sequential_game: move counts, row-major
    payoffs (integers, as a float array), quantifiers and selections."""
    n = _draw(rng, 1, max_rounds)
    counts = tuple(_draw(rng, min_moves, max_moves) for _ in range(n))
    plays = math.prod(counts)
    check_budget(plays, budget, "plays")
    lo, hi = payoff_range
    payoffs = np.array(_draw(rng, lo, hi, plays), dtype=float)
    # rng.choice(kinds), once per round.
    pairs = [_round_pair(kinds[_draw(rng, 0, len(kinds) - 1)])
             for _ in range(n)]
    quantifiers, selections = zip(*pairs)
    return counts, payoffs, quantifiers, selections


def random_sequential_game(rng: random.Random, max_rounds: int = 4,
                           max_moves: int = 3, min_moves: int = 2,
                           payoff_range: tuple[int, int] = (-9, 9),
                           kinds=_SEQ_KINDS,
                           budget: int | None = None) -> SequentialGame:
    """Random sequential game with integer payoffs and one stock kind per
    round. Its plays are checked against the budget before any payoff is
    drawn, so a refused game costs only its shape."""
    return SequentialGame.from_tensor(*_draw_sequential(
        rng, max_rounds, max_moves, min_moves, payoff_range, kinds, budget))


def random_max_game(rng: random.Random, players: int = 2, max_moves: int = 4,
                    min_moves: int = 2,
                    payoff_range: tuple[int, int] = (-9, 9)) -> SimultaneousGame:
    """Random finite game with max quantifiers and integer payoffs."""
    counts = [_draw(rng, min_moves, max_moves) for _ in range(players)]
    size = math.prod(counts)
    lo, hi = payoff_range
    tensors = [_draw(rng, lo, hi, size) for _ in range(players)]
    return SimultaneousGame.from_tensors(
        counts, tensors, [max_quantifier() for _ in range(players)]
    )


def _draw_stage(rng: random.Random, max_moves: int, min_moves: int,
                payoff_range: tuple[int, int]):
    """The values of random_stage: move counts and row-major payoffs
    (integers, as a float array)."""
    counts = (_draw(rng, min_moves, max_moves),
              _draw(rng, min_moves, max_moves))
    lo, hi = payoff_range
    return counts, np.array(_draw(rng, lo, hi, counts[0] * counts[1]),
                            dtype=float)


def _stage(counts: tuple[int, int], payoffs) -> SimultaneousGame:
    """The max/min stage with argmax/argmin selections and these payoffs."""
    grid = np.array(payoffs, dtype=float).reshape(counts)
    return SimultaneousGame(
        moves=tuple(map(default_move_labels, counts)),
        payoffs=np.broadcast_to(grid, (2, *counts)),
        quantifiers=(max_quantifier(), min_quantifier()),
        single_outcome_space=True,
        selections=(argmax_selection(), argmin_selection()),
    )


def random_stage(rng: random.Random, max_moves: int = 4, min_moves: int = 2,
                 payoff_range: tuple[int, int] = (-9, 9)) -> SimultaneousGame:
    """Random stage with max/min quantifiers and argmax/argmin selections."""
    return _stage(*_draw_stage(rng, max_moves, min_moves, payoff_range))


def certify_sequential(g: SequentialGame, budget: int | None = None) -> bool:
    """The constructive solution is optimal: the strategy that applies each
    round's selection at every history passes the optimality check at
    tolerance 0. Its strategic play is the product's optimal play."""
    strategy = sequential.compute_optimal_strategy(g, budget)
    return sequential.is_optimal_strategy(g, strategy, 0.0, budget)


def certify_normal_form(g: SequentialGame, budget: int | None = None) -> bool:
    """The computed optimal strategy is an equilibrium of the normal form."""
    strategy = sequential.compute_optimal_strategy(g, budget)
    return normalform.check_soundness(g, strategy, 0.0, budget)


def certify_stage(stage: SimultaneousGame, budget: int | None = None) -> bool:
    """The independently-computed pair is reply-robust at tolerance 0."""
    pair = minimax.bbc(stage)
    return minimax.is_psi_phi_profile(stage, pair, 0.0, budget)


def shrink_sequential(g: SequentialGame, failing) -> SequentialGame:
    """Greedy shrink: drop rounds (fixing their move to 0), drop moves, zero
    payoffs, as long as the certification keeps failing."""
    current = g
    changed = True
    while changed:
        changed = False
        # Drop a whole round by pinning it to move 0.
        for r in range(current.rounds - 1, -1, -1):
            if current.rounds == 1:
                break
            cand = _drop_round(current, r)
            if not failing(cand):
                continue
            current, changed = cand, True
            break
        if changed:
            continue
        # Drop the last move of some round.
        for r in range(current.rounds):
            if current.move_counts[r] <= 1:
                continue
            cand = _drop_move(current, r)
            if not failing(cand):
                continue
            current, changed = cand, True
            break
        if changed:
            continue
        # Zero payoff entries.
        for idx in np.flatnonzero(current.payoffs):
            cand_tensor = current.payoffs.copy()
            cand_tensor.flat[idx] = 0
            cand = replace(current, payoffs=cand_tensor)
            if failing(cand):
                current, changed = cand, True
                break
    return current


def _drop_round(g: SequentialGame, r: int) -> SequentialGame:
    """Pin round r to its first move."""
    return SequentialGame(
        g.moves[:r] + g.moves[r + 1:], g.payoffs.take(0, axis=r),
        g.quantifiers[:r] + g.quantifiers[r + 1:],
        g.selections[:r] + g.selections[r + 1:],
    )


def _drop_move(g: SequentialGame, r: int) -> SequentialGame:
    """Drop round r's last move."""
    moves = g.moves[:r] + (g.moves[r][:-1],) + g.moves[r + 1:]
    return replace(g, moves=moves, payoffs=g.payoffs.take(
        range(g.move_counts[r] - 1), axis=r))


def shrink_stage(stage: SimultaneousGame, failing) -> SimultaneousGame:
    current = stage
    changed = True
    while changed:
        changed = False
        nx, ny = current.move_counts
        outcomes = current.payoffs[0]
        if nx > 1:
            cand = _stage_from_grid(current, outcomes[:-1])
            if failing(cand):
                current, changed = cand, True
                continue
        if ny > 1:
            cand = _stage_from_grid(current, outcomes[:, :-1])
            if failing(cand):
                current, changed = cand, True
                continue
        for idx in np.flatnonzero(outcomes):
            grid = outcomes.copy()
            grid.flat[idx] = 0
            cand = _stage_from_grid(current, grid)
            if failing(cand):
                current, changed = cand, True
                break
    return current


def _stage_from_grid(stage: SimultaneousGame,
                     grid: np.ndarray) -> SimultaneousGame:
    nx, ny = grid.shape[:2]
    return replace(stage, moves=(stage.moves[0][:nx], stage.moves[1][:ny]),
                   payoffs=np.broadcast_to(grid, (2, *grid.shape)))


@dataclass
class FuzzFailure:
    family: str
    index: int
    seed: int
    game: SequentialGame | SimultaneousGame


class _Corpus(Sequence):
    """The games a sweep recorded, in order, as (family, index, game); each
    game is built from its drawn values whenever it is read."""

    def __init__(self):
        self._items = []

    def record(self, family: str, index: int, build: Callable,
               values: tuple) -> None:
        self._items.append((family, index, build, values))

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        family, index, build, values = self._items[i]
        return family, index, build(*values)


@dataclass
class FuzzResult:
    seed: int
    count: int
    families: tuple[str, ...]
    checked: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    # Every generated game, for corpus export: (family, index, game).
    # run_fuzz's corpus builds each game when it is read.
    corpus: Sequence = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


# The most payoff entries certified in one stack: it bounds the index and
# table arrays of a stack whatever the count and the budget. A larger game
# is a stack of its own.
_STACK_ENTRIES = 1 << 15


def _certify_sequential_stack(payoffs: np.ndarray, counts: tuple[int, ...],
                              drawn: list[tuple], sound: bool) -> np.ndarray:
    """certify_sequential (certify_normal_form if ``sound``) on each drawn
    game of a stack with these move counts, without budget checks: one
    backward pass over all of them, which checks optimality as it goes, or
    is followed by one on-path soundness walk."""
    flat, stack = payoffs.reshape(-1), len(drawn)
    quantifiers = sequential._groups([values[2] for values in drawn])
    selections = sequential._groups([values[3] for values in drawn])
    if not sound:
        return sequential._optimal_moves(flat, counts, stack, selections,
                                         quantifiers)[2]
    moves, reached, _ = sequential._optimal_moves(flat, counts, stack,
                                                  selections)
    return normalform._sound_verdicts(flat, counts, stack, quantifiers, moves,
                                      reached, 0.0)


def _certify_stage_stack(payoffs: np.ndarray, counts: tuple[int, int],
                         drawn: list[tuple]) -> np.ndarray:
    """certify_stage on each drawn stage of a stack with these move counts,
    without budget checks: one BBC pair and one reply-robustness check over
    all of them."""
    q = payoffs.reshape(-1, *counts)
    pairs, _ = minimax._pairs(q, argmax_selection(), argmin_selection())
    return minimax._reply_robust(q, pairs, max_quantifier(), min_quantifier(),
                                 0.0)


def _sequential_budget(counts: tuple[int, ...]):
    """certify_sequential's budget checks: the strategy pass, then the
    optimality check."""
    n = sequential._deviation_count(counts)
    return (n, "histories"), (n, "optimality checks")


def _normal_form_budget(counts: tuple[int, ...]):
    """certify_normal_form's budget checks: the strategy pass, then the
    soundness check."""
    return ((sequential._deviation_count(counts), "histories"),
            (math.prod(counts), "plays"))


@dataclass(frozen=True)
class _Family:
    # One game's values from the family's rng: its move counts, then its
    # row-major payoffs as a float array, then what else builds the game.
    draw: Callable
    # The game object of those values, built by the public constructors.
    build: Callable
    # (payoffs of a stack with one row per game, the move counts, the
    # games' values) -> each game's verdict.
    certify_stack: Callable
    # The (count, label) pairs that certifying a game of these move counts
    # checks against the budget, in order.
    planned: Callable
    certify: Callable
    shrink: Callable


def _families(max_rounds: int, max_moves: int, payoff_range: tuple[int, int],
              budget: int | None) -> dict[str, _Family]:
    return {
        "seq": _Family(
            partial(_draw_sequential, max_rounds=max_rounds,
                    max_moves=max_moves, min_moves=2,
                    payoff_range=payoff_range, kinds=_SEQ_KINDS,
                    budget=budget),
            SequentialGame.from_tensor,
            partial(_certify_sequential_stack, sound=False),
            _sequential_budget,
            certify_sequential, shrink_sequential),
        "normal-form": _Family(
            partial(_draw_sequential, max_rounds=min(max_rounds, 3),
                    max_moves=max_moves, min_moves=2,
                    payoff_range=payoff_range, kinds=_SEQ_KINDS,
                    budget=budget),
            SequentialGame.from_tensor,
            partial(_certify_sequential_stack, sound=True),
            _normal_form_budget,
            certify_normal_form, shrink_sequential),
        # Max/min stages enumerate no reply functions.
        "bbc": _Family(
            partial(_draw_stage, max_moves=max_moves, min_moves=2,
                    payoff_range=payoff_range),
            _stage, _certify_stage_stack,
            lambda counts: ((0, "reply functions"),),
            certify_stage, shrink_stage),
    }


def _verdicts(family: _Family, drawn: list[tuple]) -> np.ndarray:
    """Each drawn game's certification, stack by stack: games grouped by
    move counts, in index order within a group, and cut into stacks of at
    most ``_STACK_ENTRIES`` payoff entries. numpy's warnings are off on a
    stack if a kernel may overflow on one of its games, as they are on that
    game (every count is at least 2, so a stage's player axis decides
    nothing)."""
    groups = {}
    for index, values in enumerate(drawn):
        groups.setdefault(values[0], []).append(index)
    ok = np.empty(len(drawn), dtype=bool)
    for counts, indices in groups.items():
        size = max(1, _STACK_ENTRIES // math.prod(counts))
        for start in range(0, len(indices), size):
            stack = indices[start:start + size]
            games = [drawn[i] for i in stack]
            payoffs = np.array([values[1] for values in games])
            peak = float(np.abs(payoffs).max())
            with quiet(overflow_scale(peak, counts) != 1.0):
                ok[stack] = family.certify_stack(payoffs, counts, games)
    return ok


def run_fuzz(seed: int, count: int, families=FAMILIES, max_rounds: int = 4,
             max_moves: int = 3, payoff_range: tuple[int, int] = (-9, 9),
             budget: int | None = None, stop_on_failure: bool = True) -> FuzzResult:
    """Certify ``count`` random games per family. Failing games are shrunk
    before being recorded. The normal-form family caps rounds at 3.

    Each family draws its games' values first, up to the first game the
    budget refuses, to draw or to certify. It certifies them in stacks of
    games of one shape, then walks them in index order: it makes each
    game's budget checks, records the game, and builds a failing one to
    shrink it with the one-game certifier. A refusal is raised at the game
    it refuses, after the games before it are recorded. The corpus builds
    each recorded game when it is read.
    """
    families = tuple(families)
    result = FuzzResult(seed, count, families, corpus=_Corpus())
    if count:
        # Read HOG_BUDGET once per run, and only if a game is drawn.
        budget = resolve_budget(budget)
    plan = _families(max_rounds, max_moves, payoff_range, budget)
    for name in families:
        if name not in plan:
            raise ValueError(f"unknown family {name!r}")
        family = plan[name]
        # Hashing strings is salted per process; derive integer seeds.
        rng = random.Random(seed * 7919 + FAMILIES.index(name))

        @cache
        def planned(counts):
            """A game's planned budget checks, and whether one is refused."""
            checks = family.planned(counts)
            return checks, any(n > budget for n, _ in checks)

        drawn, refused, over = [], None, False
        for _ in range(count):
            try:
                drawn.append(family.draw(rng))
            except BudgetExceededError as exc:
                refused = exc
                break
            over = planned(drawn[-1][0])[1]
            if over:
                break
        # A game whose certification the budget refuses is the last one
        # drawn, and the walk raises at it before reading its verdict.
        ok = _verdicts(family, drawn[:len(drawn) - over]).tolist()
        for index, values in enumerate(drawn):
            for n, what in planned(values[0])[0]:
                check_budget(n, budget, what)
            result.corpus.record(name, index, family.build, values)
            result.checked += 1
            if ok[index]:
                continue
            small = family.shrink(family.build(*values),
                                  lambda g: not family.certify(g, budget))
            result.failures.append(FuzzFailure(name, index, seed, small))
            if stop_on_failure:
                return result
        if refused is not None:
            raise refused
    return result
