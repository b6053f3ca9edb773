"""Generalised simultaneous games over finite move sets.

A game assigns each player a finite move set, an outcome function over full
profiles, and a quantifier over their own moves. A profile is an equilibrium
when every player's realized outcome is acceptable to their quantifier on the
table of their unilateral deviations. With max quantifiers and scalar
outcomes this is exactly the classical Nash condition.

Outcome functions are stored as one read-only float64 array ``payoffs`` of
shape ``(players, *move_counts)``, with a trailing axis for vector outcomes;
``payoffs[i][profile]`` is player i's outcome at ``profile``. Payoffs must be
finite. The equilibrium tests pass slices of it to the quantifier kernels.

A game may also carry one selection function per player. A two-player stage
(see ``minimax``) is a 2-player single-outcome game with selections.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .budget import check_budget
from .core import (Outcome, OutcomeTable, Quantifier, SelectionFunction,
                   as_outcome, is_move, quiet)
from .errors import StructuralError

PureProfile = tuple[int, ...]


@functools.cache
def _default_players(n: int) -> tuple[str, ...]:
    return tuple(f"p{i}" for i in range(n))


@functools.cache
def default_move_labels(count: int) -> tuple[str, ...]:
    return tuple(f"m{i}" for i in range(count))


def move_labels(counts: Sequence[int],
                moves: Sequence[Sequence[str]] | None = None
                ) -> tuple[tuple[str, ...], ...]:
    """``moves`` as tuples, checked to have one label per move, or the
    default labels m0, m1, ... of each count when ``moves`` is None."""
    if moves is None:
        return tuple(map(default_move_labels, counts))
    moves = tuple(tuple(ms) for ms in moves)
    if any(len(ms) != c for ms, c in zip(moves, counts)):
        raise StructuralError("move labels must match move counts")
    return moves


class PayoffArray:
    """What both game classes do with their payoffs: hold them as one
    checked read-only array, and run the kernels on it inside
    ``g.quiet()``. ``payoff_peak`` is the largest |payoff|, and
    ``payoff_scale`` the exact power of two that brings it into [0.5, 1)
    if a kernel may overflow on these payoffs, else 1.0."""

    def _take_payoffs(self, counts: tuple[int, ...]) -> None:
        """Replace ``payoffs`` by a read-only float64 array of shape
        ``counts`` plus at most one trailing axis of vector outcomes (shared
        if read-only, else copied), refusing NaN and infinities, and decide
        once whether a kernel may overflow on it (``overflow_scale``)."""
        arr = np.asarray(self.payoffs, dtype=float)
        k = len(counts)
        if arr.shape[:k] != counts or arr.ndim > k + 1 or 0 in arr.shape[k:]:
            raise StructuralError(f"payoffs has shape {arr.shape}, expected "
                                  f"{counts} plus an optional outcome axis")
        peak = float(np.abs(arr).max())
        if not math.isfinite(peak):
            raise StructuralError("payoffs must be finite numbers")
        if arr.flags.writeable:
            arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "payoffs", arr)
        object.__setattr__(self, "payoff_peak", peak)
        object.__setattr__(self, "payoff_scale", overflow_scale(peak, counts))

    def quiet(self):
        """numpy's overflow and invalid warnings off if a kernel may
        overflow on these payoffs."""
        return quiet(self.payoff_scale != 1.0)


def overflow_scale(peak: float, counts: Sequence[int]) -> float:
    """The exact power of two that brings ``peak`` into [0.5, 1) if a kernel
    may overflow on payoffs of at most ``peak`` over these move counts, else
    1.0: no difference of outcomes, nor sum of m entries, overflows while
    ``peak`` is at most the largest float over 2 (m + 1)."""
    if peak * 2 * (max(counts) + 1) > sys.float_info.max:
        return math.ldexp(1.0, -math.frexp(peak)[1])
    return 1.0


def flat_tensor(tensor, counts: tuple[int, ...], what: str) -> np.ndarray:
    """A copy of a dense row-major tensor (first coordinate most significant)
    reshaped to ``counts``; vector outcomes keep a trailing axis. Entries
    are numbers, as ``real_array`` takes them."""
    size = math.prod(counts)
    if len(tensor) != size:
        raise StructuralError(f"{what} has {len(tensor)} entries, expected {size}")
    arr = real_array(tensor, what, "an outcome")
    return arr.reshape(counts + arr.shape[1:])


def real_array(values, what: str, entry: str) -> np.ndarray:
    """A float array copy of ``values``, whose entries are numbers: a bool,
    a string or bytes is refused, as core.as_outcome refuses it, and so is
    a number beyond the float range. Only a numeric numpy array is taken
    without a look at each entry."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise StructuralError(f"{what}: {exc}") from None
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        for v in np.asarray(values, dtype=object).flat:
            if isinstance(v, (bool, np.bool_, str, bytes)):
                raise StructuralError(f"{what}: not {entry}: {v!r}")
    return arr


@dataclass(frozen=True, eq=False)
class SimultaneousGame(PayoffArray):
    """Finite simultaneous game with per-player payoff tensors and
    quantifiers. ``single_outcome_space`` flags that all players share one
    outcome tensor (as normal forms of sequential games do); ``payoffs`` is
    then a zero-copy broadcast of it, and per-player tensors that differ
    are refused. ``selections``, when given, holds one selection function
    per player."""

    moves: tuple[tuple[str, ...], ...]
    payoffs: np.ndarray
    quantifiers: tuple[Quantifier, ...]
    players: tuple[str, ...] = ()
    single_outcome_space: bool = False
    selections: tuple[SelectionFunction, ...] | None = None
    move_counts: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.moves:
            raise StructuralError("a game needs at least one player")
        for i, ms in enumerate(self.moves):
            if not ms:
                raise StructuralError(f"player {i} has an empty move set")
        n = len(self.moves)
        object.__setattr__(self, "move_counts",
                           tuple(len(ms) for ms in self.moves))
        if len(self.quantifiers) != n:
            raise StructuralError(
                "moves and quantifiers must have one entry per player"
            )
        if self.selections is not None and len(self.selections) != n:
            raise StructuralError(
                "moves and selections must have one entry per player")
        self._take_payoffs((n, *self.move_counts))
        if self.single_outcome_space and self.payoffs.strides[0]:
            shared = self.payoffs[0]
            if any(not np.array_equal(t, shared) for t in self.payoffs[1:]):
                raise StructuralError(
                    "a single outcome space needs identical payoff tensors")
            object.__setattr__(self, "payoffs",
                               np.broadcast_to(shared, self.payoffs.shape))
        if not self.players:
            object.__setattr__(self, "players", _default_players(n))
        elif len(self.players) != n:
            raise StructuralError("player labels must match the number of players")

    @classmethod
    def from_tensors(cls, move_counts: Sequence[int],
                     payoffs: Sequence[Sequence[float]],
                     quantifiers: Sequence[Quantifier],
                     moves: Sequence[Sequence[str]] | None = None,
                     players: Sequence[str] | None = None,
                     single_outcome_space: bool = False) -> "SimultaneousGame":
        """Build a game from dense row-major payoff tensors, one per player
        (the first player's move varies slowest)."""
        counts = tuple(int(c) for c in move_counts)
        if len(payoffs) != len(counts):
            raise StructuralError("need one payoff tensor per player")
        tensors = [
            flat_tensor(t, counts, f"payoff tensor for player {i}")
            for i, t in enumerate(payoffs)
        ]
        stacked = np.stack(tensors)
        stacked.setflags(write=False)  # a fresh array: take it uncopied
        return cls(moves=move_labels(counts, moves), payoffs=stacked,
                   quantifiers=tuple(quantifiers),
                   players=tuple(players) if players else (),
                   single_outcome_space=single_outcome_space)

    @property
    def num_players(self) -> int:
        return len(self.moves)

    def profile_count(self) -> int:
        return math.prod(self.move_counts)

    def profiles(self):
        """All pure profiles in lexicographic order."""
        return itertools.product(*(range(c) for c in self.move_counts))

    def outcome(self, i: int, profile: PureProfile) -> Outcome:
        return as_outcome(self.payoffs[(i, *profile)])

    def validate_profile(self, profile: Sequence[int]) -> PureProfile:
        profile = tuple(profile)
        if len(profile) != self.num_players:
            raise StructuralError(
                f"profile has {len(profile)} moves for {self.num_players} players"
            )
        for i, (m, c) in enumerate(zip(profile, self.move_counts)):
            if not is_move(m, c):
                raise StructuralError(f"move {m} invalid for player {i} (size {c})")
        return profile


def unilateral_map(g: SimultaneousGame, i: int, profile: PureProfile) -> OutcomeTable:
    """Table of player i's outcomes under unilateral deviations from
    ``profile``; the entry at the profile's own move is the realized outcome."""
    return OutcomeTable(_deviations(g, i, g.validate_profile(profile)).tolist())


def _deviations(g: SimultaneousGame, i: int, profile: PureProfile) -> np.ndarray:
    """Player i's deviation table at ``profile``, a slice of the payoffs."""
    return g.payoffs[(i, *profile[:i], slice(None), *profile[i + 1:])]


def is_generalised_nash(g: SimultaneousGame, profile: PureProfile,
                        tol: float = 0.0) -> bool:
    """True iff every player's realized outcome is acceptable on their
    unilateral deviation table."""
    profile = g.validate_profile(profile)
    with g.quiet():
        for i, (phi, move) in enumerate(zip(g.quantifiers, profile)):
            table = _deviations(g, i, profile)[None]
            if not phi.kernel(table, table[:, move:move + 1], tol)[0, 0]:
                return False
    return True


def best_response_set(g: SimultaneousGame, profile: PureProfile,
                      tol: float = 0.0,
                      budget: int | None = None) -> list[PureProfile]:
    """All profiles whose per-player moves are acceptable responses to
    ``profile``. Only coordinate i is constrained by player i's condition, so
    the set is a product of per-player acceptable move sets; it is returned
    in lexicographic order."""
    profile = g.validate_profile(profile)
    check_budget(g.profile_count(), budget, "profiles")
    acceptable = []
    with g.quiet():
        for i, phi in enumerate(g.quantifiers):
            table = _deviations(g, i, profile)[None]
            acceptable.append(
                np.flatnonzero(phi.kernel(table, table, tol)[0]).tolist())
    return [tuple(choice) for choice in itertools.product(*acceptable)]


def enumerate_pure_equilibria(g: SimultaneousGame, tol: float = 0.0,
                              budget: int | None = None) -> list[PureProfile]:
    """All pure equilibria, in lexicographic order."""
    check_budget(g.profile_count(), budget, "profiles")
    return [p for p in g.profiles() if is_generalised_nash(g, p, tol)]
