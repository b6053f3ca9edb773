"""Seeded random game generation and theorem certification.

Each family draws games from a fixed-shape distribution, runs the relevant
certification, and shrinks any failing game before reporting it. All
randomness flows from an explicit seed; the certifications exercise the
package's own checkers, so a failure means either a checker bug or a genuine
counterexample to a theorem (the latter should never happen). A sequential
game whose plays exceed the budget is refused before its payoffs are drawn.

``run_fuzz`` certifies a family's games in stacks of games of one shape, so
a round costs one kernel call per distinct quantifier or selection of a
stack, not one per game: one backward pass per stack of sequential games,
which checks optimality as it goes or is followed by one on-path soundness
walk, and one BBC pair and reply-robustness check per stack of stages. The
one-game certifiers, which certify what ``run_fuzz`` shrinks, run the same
pass, walk and pairs on a stack of one, and the same per-round checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from . import minimax, normalform, sequential
from .budget import check_budget, resolve_budget
from .core import (argmax_selection, argmin_selection, average_quantifier,
                   max_quantifier, min_quantifier, nearest_mean_selection,
                   quiet)
from .errors import BudgetExceededError
from .sequential import SequentialGame
from .simultaneous import SimultaneousGame, default_move_labels

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


def random_sequential_game(rng: random.Random, max_rounds: int = 4,
                           max_moves: int = 3, min_moves: int = 2,
                           payoff_range: tuple[int, int] = (-9, 9),
                           kinds=_SEQ_KINDS,
                           budget: int | None = None) -> SequentialGame:
    """Random sequential game with integer payoffs and one stock kind per
    round. Its plays are checked against the budget before any payoff is
    drawn, so a refused game costs only its shape."""
    n = rng.randint(1, max_rounds)
    counts = [rng.randint(min_moves, max_moves) for _ in range(n)]
    plays = math.prod(counts)
    check_budget(plays, budget, "plays")
    lo, hi = payoff_range
    tensor = [rng.randint(lo, hi) for _ in range(plays)]
    quantifiers, selections = [], []
    for _ in range(n):
        phi, eps = _round_pair(rng.choice(kinds))
        quantifiers.append(phi)
        selections.append(eps)
    return SequentialGame.from_tensor(counts, tensor, quantifiers, selections)


def random_max_game(rng: random.Random, players: int = 2, max_moves: int = 4,
                    min_moves: int = 2,
                    payoff_range: tuple[int, int] = (-9, 9)) -> SimultaneousGame:
    """Random finite game with max quantifiers and integer payoffs."""
    counts = [rng.randint(min_moves, max_moves) for _ in range(players)]
    size = math.prod(counts)
    lo, hi = payoff_range
    tensors = [[rng.randint(lo, hi) for _ in range(size)] for _ in range(players)]
    return SimultaneousGame.from_tensors(
        counts, tensors, [max_quantifier() for _ in range(players)]
    )


def random_stage(rng: random.Random, max_moves: int = 4, min_moves: int = 2,
                 payoff_range: tuple[int, int] = (-9, 9)) -> SimultaneousGame:
    """Random stage with max/min quantifiers and argmax/argmin selections."""
    nx = rng.randint(min_moves, max_moves)
    ny = rng.randint(min_moves, max_moves)
    lo, hi = payoff_range
    tensor = [rng.randint(lo, hi) for _ in range(nx * ny)]
    grid = np.array(tensor, dtype=float).reshape(nx, ny)
    return SimultaneousGame(
        moves=(default_move_labels(nx), default_move_labels(ny)),
        payoffs=np.broadcast_to(grid, (2, nx, ny)),
        quantifiers=(max_quantifier(), min_quantifier()),
        single_outcome_space=True,
        selections=(argmax_selection(), argmin_selection()),
    )


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


@dataclass
class FuzzResult:
    seed: int
    count: int
    families: tuple[str, ...]
    checked: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    # Every generated game, for corpus export: (family, index, game).
    corpus: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


# The most payoff entries certified in one stack: it bounds the index and
# table arrays of a stack whatever the count and the budget. A larger game
# is a stack of its own.
_STACK_ENTRIES = 1 << 15


def _certify_sequential_stack(games: list[SequentialGame],
                              sound: bool) -> np.ndarray:
    """certify_sequential (certify_normal_form if ``sound``) on each game of
    a stack with equal payoff shapes, without budget checks: one backward
    pass over all of them, which checks optimality as it goes, or is
    followed by one on-path soundness walk."""
    flat = np.concatenate([g.flat_payoffs() for g in games])
    counts, stack = games[0].move_counts, len(games)
    selections = sequential._groups([g.selections for g in games])
    quantifiers = sequential._groups([g.quantifiers for g in games])
    with quiet(any(g.payoff_scale != 1.0 for g in games)):
        if not sound:
            return sequential._optimal_moves(flat, counts, stack, selections,
                                             quantifiers)[2]
        moves, reached, _ = sequential._optimal_moves(flat, counts, stack,
                                                      selections)
        return normalform._sound_verdicts(flat, counts, stack, quantifiers,
                                          moves, reached, 0.0)


def _certify_stage_stack(stages: list[SimultaneousGame]) -> np.ndarray:
    """certify_stage on each stage of a stack with equal shapes, quantifiers
    and selections (max and min quantifiers, scalar outcomes), without
    budget checks: one BBC pair and one reply-robustness check over all."""
    q = np.stack([stage.payoffs[0] for stage in stages])
    phi, psi = stages[0].quantifiers
    with quiet(any(stage.payoff_scale != 1.0 for stage in stages)):
        pairs, _ = minimax._pairs(q, *stages[0].selections)
        return minimax._reply_robust(q, pairs, phi, psi, 0.0)


def _sequential_budget(g: SequentialGame):
    """certify_sequential's budget checks: the strategy pass, then the
    optimality check."""
    n = sequential._deviation_count(g)
    return (n, "histories"), (n, "optimality checks")


def _normal_form_budget(g: SequentialGame):
    """certify_normal_form's budget checks: the strategy pass, then the
    soundness check."""
    return (sequential._deviation_count(g), "histories"), (g.play_count(),
                                                           "plays")


@dataclass(frozen=True)
class _Family:
    draw: Callable
    # Games with equal keys are certified in one stack.
    key: Callable
    certify_stack: Callable
    # The (count, label) pairs that certifying one game checks against the
    # budget, in order.
    planned: Callable
    certify: Callable
    shrink: Callable


def _families(max_rounds: int, max_moves: int, payoff_range: tuple[int, int],
              budget: int | None) -> dict[str, _Family]:
    return {
        "seq": _Family(
            partial(random_sequential_game, max_rounds=max_rounds,
                    max_moves=max_moves, payoff_range=payoff_range,
                    budget=budget),
            lambda g: (g.move_counts, g.payoffs.shape),
            partial(_certify_sequential_stack, sound=False),
            _sequential_budget,
            certify_sequential, shrink_sequential),
        "normal-form": _Family(
            partial(random_sequential_game, max_rounds=min(max_rounds, 3),
                    max_moves=max_moves, payoff_range=payoff_range,
                    budget=budget),
            lambda g: (g.move_counts, g.payoffs.shape),
            partial(_certify_sequential_stack, sound=True),
            _normal_form_budget,
            certify_normal_form, shrink_sequential),
        # Max/min stages enumerate no reply functions.
        "bbc": _Family(
            partial(random_stage, max_moves=max_moves,
                    payoff_range=payoff_range),
            lambda s: (s.payoffs.shape, *map(id, s.quantifiers),
                       *map(id, s.selections)),
            _certify_stage_stack,
            lambda s: ((0, "reply functions"),),
            certify_stage, shrink_stage),
    }


def _verdicts(family: _Family, games: list) -> np.ndarray:
    """Each game's certification, stack by stack: games grouped by key, in
    index order within a group, and cut into stacks of at most
    ``_STACK_ENTRIES`` payoff entries."""
    groups = {}
    for index, game in enumerate(games):
        groups.setdefault(family.key(game), []).append(index)
    ok = np.empty(len(games), dtype=bool)
    for indices in groups.values():
        size = max(1, _STACK_ENTRIES // games[indices[0]].payoffs.size)
        for start in range(0, len(indices), size):
            stack = indices[start:start + size]
            ok[stack] = family.certify_stack([games[i] for i in stack])
    return ok


def run_fuzz(seed: int, count: int, families=FAMILIES, max_rounds: int = 4,
             max_moves: int = 3, payoff_range: tuple[int, int] = (-9, 9),
             budget: int | None = None, stop_on_failure: bool = True) -> FuzzResult:
    """Certify ``count`` random games per family. Failing games are shrunk
    before being recorded. The normal-form family caps rounds at 3.

    Each family draws its games first, up to the first one the budget
    refuses, to draw or to certify. It certifies them in stacks of games of
    one shape, then walks them in index order: it makes each game's budget
    checks, records the game, and shrinks a failing one with the one-game
    certifier. A refusal is raised at the game it refuses, after the games
    before it are recorded.
    """
    families = tuple(families)
    result = FuzzResult(seed, count, families)
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
        games, planned, refused = [], [], None
        for _ in range(count):
            try:
                games.append(family.draw(rng))
            except BudgetExceededError as exc:
                refused = exc
                break
            planned.append(family.planned(games[-1]))
            if any(n > budget for n, _ in planned[-1]):
                break
        # A game whose certification the budget refuses is the last one
        # drawn, and the walk raises at it before reading its verdict.
        ok = _verdicts(family, [game for game, checks in zip(games, planned)
                                if all(n <= budget for n, _ in checks)])
        for index, game in enumerate(games):
            for n, what in planned[index]:
                check_budget(n, budget, what)
            result.corpus.append((name, index, game))
            result.checked += 1
            if ok[index]:
                continue
            small = family.shrink(game, lambda g: not family.certify(g, budget))
            result.failures.append(FuzzFailure(name, index, seed, small))
            if stop_on_failure:
                return result
        if refused is not None:
            raise refused
    return result
