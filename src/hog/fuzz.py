"""Seeded random game generation and theorem certification.

Each family draws games from a fixed-shape distribution, runs the relevant
certification, and shrinks any failing game before reporting it. All
randomness flows from an explicit seed; the certifications exercise the
package's own checkers, so a failure means either a checker bug or a genuine
counterexample to a theorem (the latter should never happen). A sequential
game whose plays, or a stage whose profiles, exceed the budget is refused
before its payoffs are drawn.

Every value is drawn by ``_draw``, which reads a seed's ``random.Random``
exactly as one ``randint`` or ``choice`` call per value would, with one
``getrandbits`` call per try. ``run_fuzz`` draws each family's games as
plain values: move counts, integer payoffs in a float array, and each
round's kind, an index into ``_SEQ_KINDS``. It certifies them in stacks of
games of one shape, whose payoffs are one float array: one backward pass
per stack of sequential games, then one walk of its deviation tables, at
every history (optimality) or on each game's path (normal-form soundness),
and one BBC pair and reply-robustness check per stack of stages. Each
round of a stack takes one quantifier and one selection, as a round of one
game does. Where its games drew several kinds, their kernels run each drawn
kind's stock kernel on every row and keep, for each row, the answer of its
own game's kind; stock kernels treat rows independently, so that answer is
the one-game answer. A game object is built only when it is read: a failing
game, which the one-game certifiers shrink, or a game of the result's
corpus. The one-game certifiers run the same pass, walk and pairs on a
stack of one.
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
from .core import (Quantifier, SelectionFunction, argmax_selection,
                   argmin_selection, average_quantifier, max_quantifier,
                   min_quantifier, nearest_mean_selection, quiet)
from .errors import PRINTED_DIGITS, BudgetExceededError, StructuralError
from .sequential import SequentialGame
from .simultaneous import SimultaneousGame, move_labels, overflow_scale

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
    payoffs (integers, as a float array) and each round's index in
    ``kinds``. Plays of more than PRINTED_DIGITS digits even at
    ``min_moves`` per round, which the budget error writes as a power of
    two, are refused, as ``10 ** PRINTED_DIGITS``, before their slow
    product is formed."""
    n = _draw(rng, 1, max_rounds)
    if min_moves > 1 and n > PRINTED_DIGITS / math.log10(min_moves):
        check_budget(10 ** PRINTED_DIGITS, budget, "plays")
    counts = tuple(_draw(rng, min_moves, max_moves) for _ in range(n))
    plays = math.prod(counts)
    check_budget(plays, budget, "plays")
    lo, hi = payoff_range
    payoffs = np.array(_draw(rng, lo, hi, plays), dtype=float)
    # rng.choice(kinds), once per round.
    return counts, payoffs, _draw(rng, 0, len(kinds) - 1, n)


def _sequential(counts: tuple[int, ...], payoffs, rounds: list[int],
                kinds=_SEQ_KINDS) -> SequentialGame:
    """The game of these drawn values, each round with the ``_round_pair``
    of its kind."""
    quantifiers, selections = zip(*(_round_pair(kinds[k]) for k in rounds))
    return SequentialGame.from_tensor(counts, payoffs, quantifiers,
                                      selections)


def random_sequential_game(rng: random.Random, max_rounds: int = 4,
                           max_moves: int = 3, min_moves: int = 2,
                           payoff_range: tuple[int, int] = (-9, 9),
                           kinds=_SEQ_KINDS,
                           budget: int | None = None) -> SequentialGame:
    """Random sequential game with integer payoffs and one stock kind per
    round. Its plays are checked against the budget before any payoff is
    drawn, so a refused game costs only its shape."""
    return _sequential(*_draw_sequential(
        rng, max_rounds, max_moves, min_moves, payoff_range, kinds, budget),
        kinds)


def _draw_stage(rng: random.Random, max_moves: int, min_moves: int,
                payoff_range: tuple[int, int], budget: int | None):
    """The values of random_stage: move counts and row-major payoffs
    (integers, as a float array)."""
    counts = (_draw(rng, min_moves, max_moves),
              _draw(rng, min_moves, max_moves))
    profiles = counts[0] * counts[1]
    check_budget(profiles, budget, "profiles")
    lo, hi = payoff_range
    return counts, np.array(_draw(rng, lo, hi, profiles), dtype=float)


def _stage(counts: tuple[int, int], payoffs) -> SimultaneousGame:
    """The max/min stage with argmax/argmin selections and these payoffs."""
    grid = np.array(payoffs, dtype=float).reshape(counts)
    return SimultaneousGame(
        moves=move_labels(counts),
        payoffs=np.broadcast_to(grid, (2, *counts)),
        quantifiers=(max_quantifier(), min_quantifier()),
        single_outcome_space=True,
        selections=(argmax_selection(), argmin_selection()),
    )


def random_stage(rng: random.Random, max_moves: int = 4, min_moves: int = 2,
                 payoff_range: tuple[int, int] = (-9, 9),
                 budget: int | None = None) -> SimultaneousGame:
    """Random stage with max/min quantifiers and argmax/argmin selections.
    Its profiles are checked against the budget before any payoff is
    drawn."""
    return _stage(*_draw_stage(rng, max_moves, min_moves, payoff_range,
                               budget))


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


def _shrink(game, failing, candidates):
    """Greedy shrink: the first of ``candidates(game)``, smaller games in
    order, that still fails replaces the game, until none does."""
    while True:
        for candidate in candidates(game):
            if failing(candidate):
                game = candidate
                break
        else:
            return game


def shrink_sequential(g: SequentialGame, failing) -> SequentialGame:
    """Drop rounds (fixing their move to 0), drop moves, zero payoffs, as
    long as the certification keeps failing."""
    return _shrink(g, failing, _sequential_candidates)


def _sequential_candidates(g: SequentialGame):
    """Smaller games than ``g``, in the order shrink_sequential tries them.
    First, pin a round to its first move, last round first."""
    if g.rounds > 1:
        for r in range(g.rounds - 1, -1, -1):
            yield SequentialGame(
                g.moves[:r] + g.moves[r + 1:], g.payoffs.take(0, axis=r),
                g.quantifiers[:r] + g.quantifiers[r + 1:],
                g.selections[:r] + g.selections[r + 1:])
    # Drop the last move of a round.
    for r, m in enumerate(g.move_counts):
        if m > 1:
            yield replace(g, moves=g.moves[:r] + (g.moves[r][:-1],)
                          + g.moves[r + 1:],
                          payoffs=g.payoffs.take(range(m - 1), axis=r))
    # Zero a payoff.
    for idx in np.flatnonzero(g.payoffs):
        payoffs = g.payoffs.copy()
        payoffs.flat[idx] = 0
        yield replace(g, payoffs=payoffs)


def shrink_stage(stage: SimultaneousGame, failing) -> SimultaneousGame:
    """Drop the last row or column, zero outcomes, as long as the
    certification keeps failing."""
    return _shrink(stage, failing, _stage_candidates)


def _stage_candidates(stage: SimultaneousGame):
    """Smaller stages, in the order shrink_stage tries them."""
    outcomes = stage.payoffs[0]
    nx, ny = stage.move_counts
    if nx > 1:
        yield _stage_from_grid(stage, outcomes[:-1])
    if ny > 1:
        yield _stage_from_grid(stage, outcomes[:, :-1])
    for idx in np.flatnonzero(outcomes):
        grid = outcomes.copy()
        grid.flat[idx] = 0
        yield _stage_from_grid(stage, grid)


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
                              drawn: list[tuple], on_path: bool) -> np.ndarray:
    """certify_sequential (certify_normal_form if ``on_path``) on each drawn
    game of a stack with these move counts, without budget checks: one
    backward pass over all of them, then one walk of its deviation tables,
    at every history or only on each game's path."""
    flat, stack = payoffs.reshape(-1), len(drawn)
    pairs = [_round_pair(kind) for kind in _SEQ_KINDS]
    kinds = np.array([values[2] for values in drawn])
    quantifiers, selections = zip(*(_stacked_round(column, pairs)
                                    for column in kinds.T))
    reached = sequential._optimal_moves(flat, counts, stack, selections)[1]
    return sequential._strategy_verdicts(flat, quantifiers, reached, 0.0,
                                         on_path)


def _stacked_round(column: np.ndarray, pairs: list[tuple]) -> tuple:
    """The quantifier and selection of a round of a stack whose games drew
    the kinds ``column`` (indices into ``pairs``): the kind's own pair if
    every game drew it, else a pair whose kernels run each drawn kind's
    kernel on every row (rows go game by game, the same number per game)
    and keep, for each row, the answer of its game's kind."""
    drawn = np.flatnonzero(np.bincount(column, minlength=len(pairs)))
    if len(drawn) == 1:
        return pairs[drawn[0]]

    def row_chosen(call):
        def kernel(tables, *args):
            kind = np.repeat(column, len(tables) // len(column))
            out = call(pairs[drawn[0]], tables, *args)
            for k in drawn[1:]:
                own = kind == k
                out[own] = call(pairs[k], tables, *args)[own]
            return out
        return kernel

    phi, eps = pairs[drawn[0]]
    return (Quantifier(phi.kind, row_chosen(
                lambda pair, *args: pair[0].kernel(*args))),
            SelectionFunction(eps.kind, row_chosen(
                lambda pair, tables: pair[1].kernel(tables))))


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
            _sequential, partial(_certify_sequential_stack, on_path=False),
            _sequential_budget,
            certify_sequential, shrink_sequential),
        "normal-form": _Family(
            partial(_draw_sequential, max_rounds=min(max_rounds, 3),
                    max_moves=max_moves, min_moves=2,
                    payoff_range=payoff_range, kinds=_SEQ_KINDS,
                    budget=budget),
            _sequential, partial(_certify_sequential_stack, on_path=True),
            _normal_form_budget,
            certify_normal_form, shrink_sequential),
        # Max/min stages enumerate no reply functions.
        "bbc": _Family(
            partial(_draw_stage, max_moves=max_moves, min_moves=2,
                    payoff_range=payoff_range, budget=budget),
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
             budget: int | None = None) -> FuzzResult:
    """Certify ``count`` random games per family up to the first failure,
    which is shrunk before being recorded. Normal-form games have <= 3 rounds.

    Each family draws its games' values first, up to the first game the
    budget refuses, to draw or to certify. It certifies them in stacks of
    games of one shape, then walks them in index order: it makes each
    game's budget checks, records the game, and builds a failing one to
    shrink it with the one-game certifier. A refusal is raised at the game
    it refuses, after the games before it are recorded. The corpus builds
    each recorded game when it is read.

    The seed must be >= 0: random.Random seeds with a seed's absolute
    value, so a negative seed would repeat the seq games of its positive
    twin.
    """
    if seed < 0:
        raise StructuralError(f"fuzz seed must be >= 0, got {seed}")
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
            if not ok[index]:
                small = family.shrink(family.build(*values),
                                      lambda g: not family.certify(g, budget))
                result.failures.append(FuzzFailure(name, index, seed, small))
                return result
        if refused is not None:
            raise refused
    return result
