import itertools
import math
import random
from typing import NamedTuple

import numpy as np
import pytest

from hog.budget import check_budget
from hog.core import (OutcomeTable, argmax_selection, argmin_selection,
                      average_quantifier, constant_selection,
                      custom_quantifier, custom_selection,
                      eps_ball_quantifier, fixed_point_quantifier,
                      fixed_point_witness, max_quantifier, min_quantifier,
                      nearest_mean_selection)
from hog.errors import BudgetExceededError, NoFixedPointError, StructuralError
from hog.fuzz import random_sequential_game
from hog.sequential import (SequentialGame, compute_optimal_play,
                            compute_optimal_strategy, is_optimal_strategy,
                            selection_product, strategic_play)


def two_round_2x_plus_y():
    # q(x, y) = 2x + y over {0,1}^2, both rounds maximizing.
    return SequentialGame.from_tensor(
        [2, 2], [0, 1, 2, 3], [max_quantifier()] * 2, [argmax_selection()] * 2
    )


def test_history_index_row_major():
    sizes = (2, 3)
    ranks = [history_index(sizes, h) for h in itertools.product(range(2), range(3))]
    assert ranks == list(range(6))


def test_strategic_play_single_round():
    g = SequentialGame.from_tensor([3], [5, 9, 1], [max_quantifier()],
                                   [argmax_selection()])
    assert strategic_play(g, ((2,),)) == (2,)


def test_strategic_play_unfolds_tables():
    g = two_round_2x_plus_y()
    assert strategic_play(g, ((1,), (0, 1))) == (1, 1)
    assert strategic_play(g, ((0,), (1, 0))) == (0, 1)


def test_strategic_play_constant_strategy():
    rng = random.Random(3)
    for _ in range(20):
        g = random_sequential_game(rng)
        consts = tuple(rng.randrange(c) for c in g.move_counts)
        strategy = tuple(
            (consts[i],) * g.history_count(i) for i in range(g.rounds)
        )
        assert strategic_play(g, strategy) == consts


def test_is_optimal_single_round_is_argmax_test():
    g = SequentialGame.from_tensor([3], [5, 9, 1], [max_quantifier()],
                                   [argmax_selection()])
    assert is_optimal_strategy(g, ((1,),))
    assert not is_optimal_strategy(g, ((0,),))


def test_is_optimal_quantifies_over_all_histories():
    g = two_round_2x_plus_y()
    assert is_optimal_strategy(g, ((1,), (1, 1)))
    # Optimal play still reached, but the second round misplays after x=0.
    assert strategic_play(g, ((1,), (0, 1))) == (1, 1)
    assert not is_optimal_strategy(g, ((1,), (0, 1)))


def test_selection_product_matching_pennies():
    # Oracle: hand evaluation. Replies: b_H = T, b_T = H; outer table is all
    # -1, tie-break gives a = H; result (H, T).
    q = [[1, -1], [-1, 1]]
    assert selection_product(argmax_selection(), argmin_selection(), q) == (0, 1)


def test_selection_product_constant_second():
    q = [[3, 0], [5, 2]]
    a, b = selection_product(argmax_selection(), constant_selection(1), q)
    # Reduces to the argmax of the y=1 column, which is [0, 2].
    assert (a, b) == (1, 1)
    assert argmax_selection().select(OutcomeTable([q[x][1] for x in range(2)])) == 1


def test_selection_product_monotone():
    q = [[0, 1], [1, 2]]
    assert selection_product(argmax_selection(), argmax_selection(), q) == (1, 1)


def _literal_product(eps, delta, q):
    """Independent transcription of the two defining equations."""
    replies = {x: delta.select(OutcomeTable(q[x])) for x in range(len(q))}
    outer = OutcomeTable([q[x][replies[x]] for x in range(len(q))])
    a = eps.select(outer)
    return a, replies[a]


def test_selection_product_matches_literal_formula_exhaustively():
    for grid in itertools.product([-1, 0, 1], repeat=4):
        q = [[grid[0], grid[1]], [grid[2], grid[3]]]
        for eps, delta in [
            (argmax_selection(), argmin_selection()),
            (argmax_selection(), argmax_selection()),
            (argmin_selection(), argmax_selection()),
        ]:
            assert selection_product(eps, delta, q) == _literal_product(eps, delta, q)


def test_optimal_play_single_round():
    g = SequentialGame.from_tensor([3], [5, 9, 1], [max_quantifier()],
                                   [argmax_selection()])
    assert compute_optimal_play(g) == (1,)


def test_optimal_play_2x_plus_y():
    g = two_round_2x_plus_y()
    play = compute_optimal_play(g)
    assert play == (1, 1)
    assert g.outcome(play) == 3


def test_optimal_play_max_min_is_backward_induction():
    # Oracle: explicit backward induction on the 2x2 grid.
    tensor = [4, -2, 1, 3]
    g = SequentialGame.from_tensor(
        [2, 2], tensor, [max_quantifier(), min_quantifier()],
        [argmax_selection(), argmin_selection()],
    )
    replies = [min(range(2), key=lambda y: tensor[x * 2 + y]) for x in range(2)]
    values = [tensor[x * 2 + replies[x]] for x in range(2)]
    first = max(range(2), key=lambda x: values[x])
    assert compute_optimal_play(g) == (first, replies[first])


def test_optimal_strategy_2x_plus_y():
    g = two_round_2x_plus_y()
    strategy = compute_optimal_strategy(g)
    assert strategy == ((1,), (1, 1))
    assert is_optimal_strategy(g, strategy)


def test_optimal_strategy_constant_game():
    g = SequentialGame.from_tensor([2, 2], [7, 7, 7, 7], [max_quantifier()] * 2,
                                   [argmax_selection()] * 2)
    strategy = compute_optimal_strategy(g)
    assert strategy == ((0,), (0, 0))  # tie-breaks to the lowest move
    assert is_optimal_strategy(g, strategy)


def test_random_games_product_equals_strategy_play_and_optimal():
    rng = random.Random(99)
    for _ in range(60):
        g = random_sequential_game(rng)
        play = _reference_compute_optimal_play(g)
        assert compute_optimal_play(g) == play
        strategy = compute_optimal_strategy(g)
        assert strategic_play(g, strategy) == play
        assert is_optimal_strategy(g, strategy, 0.0)


def test_first_round_membership_of_optimal_outcome():
    # The first-round instance of the optimality condition, checked directly.
    rng = random.Random(5)
    for _ in range(30):
        g = random_sequential_game(rng, kinds=("max", "min"))
        strategy = compute_optimal_strategy(g)
        play = strategic_play(g, strategy)
        deviations = OutcomeTable([
            g.outcome(_reference_extend_with_strategy(g, strategy, (x,)))
            for x in range(g.move_counts[0])
        ])
        assert g.quantifiers[0].contains(deviations, g.outcome(play), 0.0)


def test_determinism():
    rng = random.Random(123)
    g = random_sequential_game(rng)
    assert compute_optimal_play(g) == compute_optimal_play(g)
    assert compute_optimal_strategy(g) == compute_optimal_strategy(g)


def test_validation_and_budget():
    g = two_round_2x_plus_y()
    with pytest.raises(StructuralError):
        strategic_play(g, ((1,),))
    with pytest.raises(StructuralError):
        strategic_play(g, ((2,), (0, 0)))
    with pytest.raises(BudgetExceededError):
        compute_optimal_play(g, budget=2)
    with pytest.raises(StructuralError):
        selection_product(argmax_selection(), argmax_selection(), [[1], [2, 3]])


def test_play_budget_counts_plays_not_histories():
    # 2^19 plays fit the budget; the strategy's 2^20 - 2 histories do not.
    counts = [2] * 19
    payoffs = np.random.default_rng(0).random(2 ** 19)
    g = SequentialGame.from_tensor(counts, payoffs, [max_quantifier()] * 19,
                                   [argmax_selection()] * 19)
    play = compute_optimal_play(g, budget=10**6)
    # With distinct payoffs and every round maximising, the optimal play is
    # the play of the largest payoff.
    assert play == tuple(np.unravel_index(payoffs.argmax(), counts))
    with pytest.raises(BudgetExceededError) as err:
        compute_optimal_strategy(g, budget=10**6)
    assert str(err.value) == ("enumeration of 1048574 histories exceeds "
                              "budget 1000000")


def test_validate_strategy_messages():
    g = SequentialGame.from_tensor([2, 3, 2], list(range(12)),
                                   [max_quantifier()] * 3,
                                   [argmax_selection()] * 3)
    good = [(0,), (2, 1), (1, 0, 1, 1, 0, 0)]
    assert g.validate_strategy(good) == tuple(map(tuple, good))
    for strategy, message in (
            ([(0,), (2, 1), (1, 0, 1, 1, 0, 2)], "move 2 invalid in round 2"),
            ([(0,), (2, 1), (1, 0, 1, 1, 0, -1)], "move -1 invalid in round 2"),
            # The first bad move in table order is named.
            ([(0,), (2, 1), (1, -1, 1, 5, 0, 0)], "move -1 invalid in round 2"),
            ([(0,), (2, float("nan")), (1, 0, 1, 1, 0, 0)],
             "move nan invalid in round 1"),
            ([(0,), (2, 1, 0), (1, 0, 1, 1, 0, 0)],
             "round 1 table has 3 entries, expected 2"),
            ([(0,), (2, 1), (1, 0, 1, 1, 0)],
             "round 2 table has 5 entries, expected 6"),
            ([(0,), (2, 1)], "strategy has 2 tables for 3 rounds")):
        with pytest.raises(StructuralError) as err:
            g.validate_strategy(strategy)
        assert str(err.value) == message


def test_strategies_refuse_non_integer_moves():
    from hog.normalform import check_soundness
    g = SequentialGame.from_tensor([2, 2], [1, 2, 3, 4],
                                   [max_quantifier()] * 2,
                                   [argmax_selection()] * 2)
    for strategy, message in (
            (((1,), (1.5, 1)), "move 1.5 invalid in round 1"),
            (((True,), (1, 1)), "move True invalid in round 0"),
            # 1.0 and True equal 1, a valid move, so each type is tested.
            (((1,), (1, 1.0)), "move 1.0 invalid in round 1"),
            (((1,), (0, True)), "move True invalid in round 1"),
            (((1,), (np.float64(1.0), 1)), "move 1.0 invalid in round 1"),
            (((np.bool_(True),), (1, 1)), "move True invalid in round 0"),
            (((1,), ("1", 1)), "move 1 invalid in round 1")):
        for check in (strategic_play, is_optimal_strategy, check_soundness):
            with pytest.raises(StructuralError) as err:
                check(g, strategy)
            assert str(err.value) == message
    # numpy integers are moves.
    strategy = ((np.int64(1),), (np.int32(1), np.uint8(1)))
    assert strategic_play(g, strategy) == (1, 1)
    assert is_optimal_strategy(g, strategy)
    assert check_soundness(g, strategy)
    # A uint8 history index would wrap past 255.
    g = SequentialGame.from_tensor([20, 20, 2], list(range(800)),
                                   [max_quantifier()] * 3,
                                   [argmax_selection()] * 3)
    strategy = ((19,), (19,) * 20, tuple(int(h == 399) for h in range(400)))
    narrow = tuple(tuple(map(np.uint8, table)) for table in strategy)
    play = strategic_play(g, narrow)
    assert play == strategic_play(g, strategy) == (19, 19, 1)
    assert all(type(move) is int for move in play)


def test_selection_product_grid_checks():
    q = [[1, 2], [3, 4]]
    assert (selection_product(argmax_selection(), argmin_selection(),
                              np.array(q, dtype=float))
            == selection_product(argmax_selection(), argmin_selection(), q)
            == (1, 0))
    vector = [[(1, 0), (0, 1)], [(2, 2), (0, 0)]]
    last = custom_selection(lambda p: len(p) - 1)
    assert selection_product(last, last, vector) == (1, 1)
    for q, message in (([], "product table must be nonempty"),
                       ([[]], "product table must be nonempty"),
                       (np.zeros((2, 0)), "product table must be nonempty"),
                       ([[1], [2, 3]], "product table must be rectangular"),
                       ([[1, "a"]], "not an outcome: 'a'"),
                       ([[1, True]], "not an outcome: True"),
                       ([[1, 2], [(1, 2), 3]],
                        "mixed outcome dimensions in table"),
                       ([[(1, 2)]], "argmax requires scalar outcomes, got "
                                    "dimension 2"),
                       (np.zeros((2, 2, 2, 2)), "product table of shape "
                        "(2, 2, 2, 2) is not a grid of outcomes")):
        with pytest.raises(StructuralError) as err:
            selection_product(argmax_selection(), argmax_selection(), q)
        assert str(err.value) == message
    # Constant selections never look at the outcomes, so the grid's shape
    # is checked before they run.
    with pytest.raises(StructuralError) as err:
        selection_product(constant_selection(0), constant_selection(1),
                          np.zeros((2, 2, 2, 2)))
    assert str(err.value) == ("product table of shape (2, 2, 2, 2) is not "
                              "a grid of outcomes")


def history_index(sizes, history):
    """Mixed-radix rank of a history among all histories with the given
    per-round sizes (first coordinate most significant)."""
    idx = 0
    for size, move in zip(sizes, history):
        idx = idx * size + move
    return idx


def _reference_compute_optimal_play(g):
    """The right-nested iterated product of the per-round selections,
    recursing node by node with one selection call per history.
    compute_optimal_play must return the same play, or raise an error of the
    same type; it may meet another failing table first."""
    sizes = g.move_counts
    outcomes = g.flat_payoffs().tolist()

    def solve(prefix):
        i = len(prefix)
        if i == g.rounds:
            return ()
        tails = [solve(prefix + (x,)) for x in range(sizes[i])]
        a = g.selections[i].select(OutcomeTable([
            outcomes[history_index(sizes, prefix + (x,) + tail)]
            for x, tail in enumerate(tails)
        ]))
        return (a,) + tails[a]

    return solve(())


# Reference implementations: the per-history walkers that followed the
# strategy again for every entry of every deviation table. The module's
# backward pass must make the same quantifier and selection calls, with
# equal tables, in the same order.

def _reference_extend_with_strategy(g, strategy, prefix):
    play = tuple(prefix)
    sizes = g.move_counts
    while len(play) < g.rounds:
        i = len(play)
        play = play + (strategy[i][history_index(sizes[:i], play)],)
    return play


def _reference_is_optimal_strategy(g, strategy, tol=0.0, budget=None):
    strategy = g.validate_strategy(strategy)
    sizes = g.move_counts
    total = sum(g.history_count(i) * sizes[i] for i in range(g.rounds))
    check_budget(total, budget, "optimality checks")
    outcomes = g.flat_payoffs().tolist()
    for i in range(g.rounds):
        phi = g.quantifiers[i]
        for h, prefix in enumerate(itertools.product(*map(range, sizes[:i]))):
            table = OutcomeTable([
                outcomes[history_index(sizes, _reference_extend_with_strategy(
                    g, strategy, prefix + (x,)))]
                for x in range(sizes[i])
            ])
            if not phi.contains(table, table[strategy[i][h]], tol):
                return False
    return True


def _reference_compute_optimal_strategy(g, budget=None):
    sizes = g.move_counts
    total = sum(g.history_count(i) * sizes[i] for i in range(g.rounds))
    check_budget(total, budget, "histories")
    outcomes = g.flat_payoffs().tolist()
    tables = [()] * g.rounds
    for i in range(g.rounds - 1, -1, -1):
        choices = []
        for prefix in itertools.product(*map(range, sizes[:i])):
            table = OutcomeTable([
                outcomes[history_index(sizes, _reference_extend_with_strategy(
                    g, tables, prefix + (x,)))]
                for x in range(sizes[i])
            ])
            choices.append(g.selections[i].select(table))
        tables[i] = tuple(choices)
    return tuple(tables)


def _custom_round():
    """A quantifier and a selection that are neither max nor min: accept
    outcomes at least the table mean; pick the move whose outcome has the
    largest value of 7*outcome mod 5."""
    return (custom_quantifier(
                lambda p, r, tol: r + tol >= sum(p.entries) / len(p)),
            custom_selection(
                lambda p: max(range(len(p)), key=lambda m: (7 * p[m]) % 5)))


def _round(kind, rng, m):
    if kind == "max":
        return max_quantifier(), argmax_selection()
    if kind == "min":
        return min_quantifier(), argmin_selection()
    if kind == "average":
        return average_quantifier(), nearest_mean_selection()
    if kind == "fixed_point":
        return fixed_point_quantifier(), fixed_point_witness()
    if kind == "eps_ball":
        center = rng.randrange(m)
        return (eps_ball_quantifier(center, rng.choice([0.5, 1.5])),
                constant_selection(center))
    return _custom_round()


def _oracle_game(rng, kinds, dim=None):
    """1-4 rounds of 2-4 moves, integer payoffs in 0..3 (so fixed points
    occur and max/min ties are common), one random kind per round."""
    counts = tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 4)))
    shape = counts if dim is None else counts + (dim,)
    payoffs = [rng.randint(0, 3) for _ in range(math.prod(shape))]
    rounds = [_round(rng.choice(kinds), rng, m) for m in counts]
    return SequentialGame(
        moves=tuple(tuple(f"m{x}" for x in range(m)) for m in counts),
        payoffs=np.array(payoffs, dtype=float).reshape(shape),
        quantifiers=tuple(phi for phi, _ in rounds),
        selections=tuple(eps for _, eps in rounds))


def _recording(g, log):
    """``g`` with every quantifier and selection wrapped in a custom one
    that appends each call and its arguments to ``log``."""

    def quantifier(i, phi):
        def contains(p, r, tol):
            log.append(("contains", i, p.entries, r, tol))
            return phi.contains(p, r, tol)
        return custom_quantifier(contains)

    def selection(i, eps):
        def select(p):
            log.append(("select", i, p.entries))
            return eps.select(p)
        return custom_selection(select)

    return SequentialGame(
        moves=g.moves, payoffs=g.payoffs,
        quantifiers=tuple(quantifier(i, phi)
                          for i, phi in enumerate(g.quantifiers)),
        selections=tuple(selection(i, eps)
                         for i, eps in enumerate(g.selections)))


class _Raised(NamedTuple):
    error: type
    message: str


def _trace(fn, g, *args):
    """(result or _Raised, call log) of ``fn`` on a recording copy."""
    log = []
    try:
        result = fn(_recording(g, log), *args)
    except Exception as exc:
        result = _Raised(type(exc), str(exc))
    return result, log


def _assert_same_calls(new, reference, g, *args):
    result, log = _trace(new, g, *args)
    assert (result, log) == _trace(reference, g, *args)
    return result, log


_ORACLE_KINDS = ("max", "min", "average", "fixed_point", "eps_ball", "custom")


def test_backward_pass_matches_reference_walker():
    rng = random.Random(2024)
    games = [_oracle_game(rng, _ORACLE_KINDS) for _ in range(150)]
    games += [_oracle_game(rng, ("eps_ball",), dim=2) for _ in range(10)]
    raised, verdicts, failing_rounds = 0, [], set()
    for g in games:
        strategy, _ = _assert_same_calls(
            compute_optimal_strategy, _reference_compute_optimal_strategy, g)
        candidates = [tuple(
            tuple(rng.randrange(m) for _ in range(g.history_count(i)))
            for i, m in enumerate(g.move_counts)) for _ in range(4)]
        if isinstance(strategy, _Raised):
            raised += 1
        else:
            candidates.append(strategy)
        for candidate in candidates:
            for tol in (0.0, 2.0):
                verdict, log = _assert_same_calls(
                    is_optimal_strategy, _reference_is_optimal_strategy,
                    g, candidate, tol)
                verdicts.append(verdict)
                if verdict is False:
                    failing_rounds.add(log[-1][1])
    # The comparison covers raising selections, accepted and rejected
    # strategies, and rejections at different rounds.
    assert raised > 0
    assert verdicts.count(True) > 0 and verdicts.count(False) > len(verdicts) / 2
    assert failing_rounds == {0, 1, 2, 3}


def test_optimal_play_matches_reference_product():
    rng = random.Random(2024)
    games = [_oracle_game(rng, _ORACLE_KINDS) for _ in range(300)]
    games += [_oracle_game(rng, ("eps_ball",), dim=2) for _ in range(20)]
    raised = 0
    for g in games:
        try:
            expected = _reference_compute_optimal_play(g)
        except Exception as exc:
            with pytest.raises(type(exc)):
                compute_optimal_play(g)
            raised += 1
            continue
        assert compute_optimal_play(g) == expected
    assert 0 < raised < len(games) / 2


def test_backward_pass_raises_where_reference_raises():
    # Round 1's fixed-point witness finds none at history 1 ([1, 0]).
    g = SequentialGame.from_tensor(
        [2, 2], [0, 0, 1, 0], [max_quantifier(), fixed_point_quantifier()],
        [argmax_selection(), fixed_point_witness()])
    result, log = _assert_same_calls(
        compute_optimal_strategy, _reference_compute_optimal_strategy, g)
    assert result.error is NoFixedPointError
    assert [call[:2] for call in log] == [("select", 1)] * 2
    # Round 1's eps_ball centre 2 lies outside its 2-move tables.
    g = SequentialGame.from_tensor(
        [2, 2], [0, 1, 2, 3], [max_quantifier(), eps_ball_quantifier(2, 1.0)],
        [argmax_selection(), constant_selection(2)])
    for fn, reference, args in (
            (compute_optimal_strategy, _reference_compute_optimal_strategy, ()),
            (is_optimal_strategy, _reference_is_optimal_strategy,
             (((1,), (0, 0)), 0.0))):
        result, log = _assert_same_calls(fn, reference, g, *args)
        assert result.error is StructuralError
        assert "2 outside table of size 2" in result.message
        assert log[-1][:2] in (("select", 1), ("contains", 1))


def test_games_refuse_non_finite_payoffs():
    from hog.simultaneous import SimultaneousGame

    for bad in (float("nan"), float("inf"), float("-inf")):
        for build in (
                lambda: SequentialGame.from_tensor(
                    [2], [1.0, bad], [max_quantifier()], [argmax_selection()]),
                lambda: SimultaneousGame(
                    (("a", "b"),), np.array([[bad, 0.0]]), (max_quantifier(),)),
                lambda: SimultaneousGame(
                    (("a",), ("b",)), np.array([[[(0.0, bad)]]] * 2),
                    (eps_ball_quantifier(0, 1.0),) * 2)):
            with pytest.raises(StructuralError) as err:
                build()
            assert str(err.value) == "payoffs must be finite numbers"


@pytest.mark.parametrize("payoffs", [
    ["1", "2"], [True, False], [1, False], np.array([True, False]),
    np.array(["1", "2"]),
])
def test_from_tensor_refuses_bools_and_strings(payoffs):
    with pytest.raises(StructuralError, match="payoff tensor: not an outcome"):
        SequentialGame.from_tensor([2], payoffs, [max_quantifier()],
                                   [argmax_selection()])


def test_from_tensor_takes_numeric_arrays():
    for tensor in (np.array([3, 4]), np.array([3.0, 4.0])):
        g = SequentialGame.from_tensor([2], tensor, [max_quantifier()],
                                       [argmax_selection()])
        assert g.payoffs.tolist() == [3.0, 4.0]
