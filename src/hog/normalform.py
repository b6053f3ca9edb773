"""Normal form of a sequential game.

Each round becomes a player whose moves are contingent strategies (dense
history -> move tables), the outcome function evaluates the original game on
the strategic play, and each round's quantifier is lifted so that membership
only consults the outcomes of constant contingent strategies. The normal
form is materialised as one dense outcome tensor over contingent-strategy
profiles only by to_normal_form. Optimal strategies of the sequential game
are equilibria of its normal form; the converse fails (equilibria may rest
on non-credible off-path behaviour). check_soundness tests this without the
normal form: it is the sequential optimality walk restricted to the
strategy's on-path histories, since a lifted quantifier reads only the
constant contingent strategies, whose outcomes are the one-round deviation
table there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .budget import check_budget
from .core import OutcomeTable, Quantifier, is_move
from .errors import StructuralError
from .sequential import (SeqStrategy, SequentialGame, _reached,
                         _strategy_verdicts, histories)
from .simultaneous import SimultaneousGame


@dataclass(frozen=True)
class ContingentMoveSet:
    """The move set of round ``round_index`` in the normal form: all dense
    tables from the round's history space to its base moves, enumerated in
    lexicographic (big-endian mixed-radix) order."""

    round_index: int
    base_move_count: int
    history_count: int

    @property
    def size(self) -> int:
        return self.base_move_count ** self.history_count

    def table(self, index: int) -> tuple[int, ...]:
        """Decode an index into a history table (first history most
        significant)."""
        if not is_move(index, self.size):
            raise StructuralError(
                f"contingent move {index} outside 0..{self.size - 1} in "
                f"round {self.round_index}")
        digits = []
        for _ in range(self.history_count):
            index, d = divmod(index, self.base_move_count)
            digits.append(d)
        return tuple(reversed(digits))

    def index(self, table) -> int:
        """Inverse of :meth:`table`."""
        if len(table) != self.history_count:
            raise StructuralError(
                f"table has {len(table)} entries, expected {self.history_count}"
            )
        idx = 0
        for move in table:
            if not is_move(move, self.base_move_count):
                raise StructuralError(
                    f"move {move} invalid in round {self.round_index}'s table")
            idx = idx * self.base_move_count + int(move)
        return idx

    def constant_index(self, move: int) -> int:
        """Index of the table that plays ``move`` at every history: the
        base-b repunit times ``move``, move * (b^h - 1) / (b - 1), and 0
        when b = 1."""
        b = self.base_move_count
        if not is_move(move, b):
            raise StructuralError(
                f"move {move} invalid in round {self.round_index}'s table")
        return int(move) * (self.size - 1) // (b - 1) if b > 1 else 0

    def all_tables(self) -> list[tuple[int, ...]]:
        return [self.table(k) for k in range(self.size)]


def lift_round_quantifier(phi: Quantifier, cms: ContingentMoveSet) -> Quantifier:
    """Quantifier over contingent strategies, of the round quantifier's kind:
    membership restricts the table to the constant contingent strategies
    and delegates to the round quantifier. Only those entries are ever
    consulted."""
    constant = [cms.constant_index(x) for x in range(cms.base_move_count)]

    def constants(size: int) -> list[int]:
        if size != cms.size:
            raise StructuralError(
                f"table has {size} entries, expected {cms.size} contingent moves"
            )
        return constant

    def restrict(p: OutcomeTable) -> OutcomeTable:
        return OutcomeTable([p[k] for k in constants(len(p))])

    def kernel(tables, values, tol: float):
        return phi.kernel(tables[:, constants(tables.shape[1])], values, tol)

    canonical = None
    if phi.canonical is not None:
        canonical = lambda p: phi.canonical(restrict(p))
    in_domain = None
    if phi.in_domain is not None:
        in_domain = lambda p, tol: phi.in_domain(restrict(p), tol)
    descriptor = None
    if phi.descriptor is not None:
        descriptor = {
            "kind": "seq_lift",
            "inner": dict(phi.descriptor),
            "base_moves": cms.base_move_count,
            "histories": cms.history_count,
        }
    return Quantifier(phi.kind, kernel, canonical, in_domain, descriptor)


def contingent_move_sets(g: SequentialGame) -> list[ContingentMoveSet]:
    return [
        ContingentMoveSet(i, g.move_counts[i], g.history_count(i))
        for i in range(g.rounds)
    ]


def _label_cells(cms: ContingentMoveSet, g: SequentialGame) -> list[list[str]]:
    """Per history of the round, the listing of each base move played there:
    ``"<history labels>><move label>"``, or the bare move label in round 0."""
    i = cms.round_index
    if i == 0:
        return [list(g.moves[0])]
    return [
        [f"{''.join(g.moves[j][h] for j, h in enumerate(hist))}>{move}"
         for move in g.moves[i]]
        for hist in histories(g.move_counts[:i])
    ]


def contingent_label(cms: ContingentMoveSet, g: SequentialGame, index: int) -> str:
    """Mixed-radix index plus a readable history -> move listing."""
    cells = _label_cells(cms, g)
    return f"{index}:" + ",".join(
        row[move] for row, move in zip(cells, cms.table(index)))


def to_normal_form(g: SequentialGame, budget: int | None = None) -> SimultaneousGame:
    """The simultaneous game whose players are the rounds and whose moves are
    contingent strategies, with a single shared outcome tensor. Refuses
    when the summed move-set sizes or the profile space exceed the budget."""
    sets = contingent_move_sets(g)
    check_budget(sum(c.size for c in sets), budget, "contingent moves")
    check_budget(math.prod(c.size for c in sets), budget, "normal-form profiles")
    # Play the strategic play of every profile at once: ``play`` is, per
    # profile, the mixed-radix index of the history so far, and round i's
    # move is the digit of its contingent index at that history (first
    # history most significant).
    grid = np.ix_(*(np.arange(c.size) for c in sets))
    play = np.zeros((1,) * len(sets), dtype=np.int64)
    for c, index in zip(sets, grid):
        digit = c.history_count - 1 - play
        play = play * c.base_move_count + (
            index // c.base_move_count ** digit) % c.base_move_count
    outcomes = g.flat_payoffs()[play]
    outcomes.setflags(write=False)
    # Every label of a round at once: the tables of a round are the product
    # of its per-history listings, in index order.
    labels = tuple(
        tuple(f"{k}:{','.join(t)}"
              for k, t in enumerate(itertools.product(*_label_cells(c, g))))
        for c in sets
    )
    return SimultaneousGame(
        moves=labels,
        payoffs=np.broadcast_to(outcomes, (len(sets), *outcomes.shape)),
        quantifiers=tuple(
            lift_round_quantifier(g.quantifiers[i], c)
            for i, c in enumerate(sets)
        ),
        players=tuple(f"round{i}" for i in range(g.rounds)),
        single_outcome_space=True,
    )


def strategy_to_profile(g: SequentialGame, strategy: SeqStrategy) -> tuple[int, ...]:
    """Reinterpret a sequential strategy as a pure profile of the normal form."""
    strategy = g.validate_strategy(strategy)
    return tuple(
        cms.index(table)
        for cms, table in zip(contingent_move_sets(g), strategy)
    )


def profile_to_strategy(g: SequentialGame, profile) -> SeqStrategy:
    return tuple(
        cms.table(k) for cms, k in zip(contingent_move_sets(g), profile)
    )


def check_soundness(g: SequentialGame, strategy: SeqStrategy, tol: float = 0.0,
                    budget: int | None = None) -> bool:
    """Whether the strategy, reinterpreted as a pure profile of the normal
    form, is a generalised Nash equilibrium there. Implied by optimality of
    the strategy; not conversely.

    The normal form is not built. Each round's lifted quantifier reads only
    the constant contingent strategies, and deviating to the constant x
    replays the strategy's on-path history up to that round, then x, then
    the strategy: the one-round deviation table at the on-path history. The
    budget counts the plays whose outcomes it reads."""
    check_budget(g.play_count(), budget, "plays")
    strategy = g.validate_strategy(strategy)
    with g.quiet():
        return bool(_strategy_verdicts(
            g.flat_payoffs(), g.quantifiers,
            _reached(g.move_counts, 1, lambda i, _: strategy[i]), tol,
            on_path=True)[0])
