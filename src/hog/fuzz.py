"""Seeded random game generation and theorem certification.

Each family draws games from a fixed-shape distribution, runs the relevant
certification, and shrinks any failing game before reporting it. All
randomness flows from an explicit seed; the certifications exercise the
package's own checkers, so a failure means either a checker bug or a genuine
counterexample to a theorem (the latter should never happen).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import minimax, normalform, sequential
from .budget import resolve_budget
from .core import (argmax_selection, argmin_selection, average_quantifier,
                   max_quantifier, min_quantifier, nearest_mean_selection)
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
                           kinds=_SEQ_KINDS) -> SequentialGame:
    n = rng.randint(1, max_rounds)
    counts = [rng.randint(min_moves, max_moves) for _ in range(n)]
    lo, hi = payoff_range
    tensor = [rng.randint(lo, hi) for _ in range(math.prod(counts))]
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
    """The constructive solution is consistent and optimal: the iterated
    product's play equals the strategic play of the computed strategy, and
    the strategy passes the optimality check at tolerance 0."""
    play = sequential.compute_optimal_play(g, budget)
    strategy = sequential.compute_optimal_strategy(g, budget)
    if sequential.strategic_play(g, strategy) != play:
        return False
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


def run_fuzz(seed: int, count: int, families=FAMILIES, max_rounds: int = 4,
             max_moves: int = 3, payoff_range: tuple[int, int] = (-9, 9),
             budget: int | None = None, stop_on_failure: bool = True) -> FuzzResult:
    """Certify ``count`` random games per family. Failing games are shrunk
    before being recorded. The normal-form family caps rounds at 3.
    """
    families = tuple(families)
    result = FuzzResult(seed, count, families)
    # Family -> (draw, certify, shrink).
    plan = {
        "seq": (partial(random_sequential_game, max_rounds=max_rounds,
                        max_moves=max_moves, payoff_range=payoff_range),
                certify_sequential, shrink_sequential),
        "normal-form": (partial(random_sequential_game,
                                max_rounds=min(max_rounds, 3),
                                max_moves=max_moves,
                                payoff_range=payoff_range),
                        certify_normal_form, shrink_sequential),
        "bbc": (partial(random_stage, max_moves=max_moves,
                        payoff_range=payoff_range),
                certify_stage, shrink_stage),
    }
    for family in families:
        if family not in plan:
            raise ValueError(f"unknown family {family!r}")
        draw, check, shrink = plan[family]
        if count:
            # Read HOG_BUDGET once per run, and only if a game is certified.
            budget = resolve_budget(budget)
        # Hashing strings is salted per process; derive integer seeds.
        rng = random.Random(seed * 7919 + FAMILIES.index(family))
        for index in range(count):
            game = draw(rng)
            ok = check(game, budget)
            result.corpus.append((family, index, game))
            result.checked += 1
            if ok:
                continue
            small = shrink(game, lambda g: not check(g, budget))
            result.failures.append(FuzzFailure(family, index, seed, small))
            if stop_on_failure:
                return result
    return result
