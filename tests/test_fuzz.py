import collections
import hashlib
import itertools
import json
import math
import random
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import hog.budget
import hog.core
import hog.mixed
import hog.simultaneous
from hog import fuzz, minimax, normalform, sequential
from hog.budget import resolve_budget
from hog.cli import _game_document, main
from hog.core import (argmax_selection, argmin_selection, fixed_point_quantifier,
                      max_quantifier, min_quantifier)
from hog.errors import BudgetExceededError, StructuralError
from hog.fuzz import (FAMILIES, FuzzFailure, FuzzResult, certify_sequential,
                      random_sequential_game, random_stage, run_fuzz,
                      shrink_sequential, shrink_stage)
from hog.gamefile import load_game
from hog.sequential import SequentialGame
from hog.simultaneous import PayoffArray
from test_minimax import stage_from
from test_sequential import _oracle_game


def test_generators_are_seed_deterministic():
    g1 = random_sequential_game(random.Random(5))
    g2 = random_sequential_game(random.Random(5))
    assert g1.move_counts == g2.move_counts
    plays = list(__import__("itertools").product(
        *(range(c) for c in g1.move_counts)))
    assert [g1.outcome(p) for p in plays] == [g2.outcome(p) for p in plays]
    s1 = random_stage(random.Random(5))
    s2 = random_stage(random.Random(5))
    assert np.array_equal(s1.payoffs[0], s2.payoffs[0])


def test_fuzz_corpus_is_pinned(tmp_path):
    # The files 'hog fuzz --family all --seed 5 --count 40 --out DIR' wrote
    # before the generators shared their stock quantifiers and selections:
    # their JSON values, and their bytes as the writer lays them out with
    # each list of numbers on one line.
    code = main(["fuzz", "--family", "all", "--seed", "5", "--count", "40",
                 "--out", str(tmp_path)])
    assert code == 0
    files = sorted(tmp_path.iterdir())
    assert len(files) == 120
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    assert digest.hexdigest() == (
        "74ab32a329a5bdec859ceb1dbf51ed3768fbf1cc611e73550302717d0d7ad12f")
    assert _digest([[path.name, json.loads(path.read_text())]
                    for path in files]) == (
        "b42e953982146d9acdaf78b41a696e6b7fe9393156f1be321418b8d8d7fed9ae")


def test_negative_seed_exits_2(tmp_path, capsys):
    # random.Random seeds with a seed's absolute value, so family seq (index
    # 0, seeded with seed * 7919) drew the same games for --seed -1 as for
    # --seed 1, and wrote the same seq_000*.json files.
    assert (random.Random(-1 * 7919 + 0).random()
            == random.Random(1 * 7919 + 0).random())
    positive, negative = tmp_path / "A", tmp_path / "B"
    positive.mkdir()
    negative.mkdir()
    assert main(["fuzz", "--seed", "1", "--count", "3", "--out",
                 str(positive)]) == 0
    assert len(list(positive.glob("seq_000*.json"))) == 3
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--seed", "-1", "--count", "3", "--out", str(negative)])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.endswith(
        "hog fuzz: error: argument --seed: not an integer >= 0: '-1'\n")
    assert not any(negative.iterdir())
    with pytest.raises(StructuralError, match="fuzz seed must be >= 0, got -1"):
        run_fuzz(-1, 3)


def test_run_fuzz_all_families_pass():
    result = run_fuzz(seed=1, count=10)
    assert result.ok
    assert result.checked == 30


def test_shrinker_reduces_failing_game():
    rng = random.Random(9)
    g = random_sequential_game(rng, max_rounds=4, max_moves=3)

    # A fake predicate: "fails" whenever the game has at least 2 rounds.
    def failing(game):
        return game.rounds >= 2

    small = shrink_sequential(g, failing)
    assert small.rounds == 2
    assert all(c == 1 for c in small.move_counts)
    plays = list(__import__("itertools").product(
        *(range(c) for c in small.move_counts)))
    assert all(small.outcome(p) == 0 for p in plays)


def test_stage_shrinker():
    stage = random_stage(random.Random(4), max_moves=4)

    def failing(s):
        return s.move_counts[0] * s.move_counts[1] >= 2

    small = shrink_stage(stage, failing)
    assert small.move_counts[0] * small.move_counts[1] == 2


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def test_shrunk_failures_are_pinned(monkeypatch):
    # Every failure of these sweeps, shrunk and serialised as 'hog fuzz'
    # writes it, as the two shrinkers gave them before they shared one loop.
    # run_fuzz stops at the first failure; the one-game reference sweep
    # goes on and shrinks every failing game.
    monkeypatch.setattr(fuzz, "_round_pair", _attains_nothing)
    failures = []
    for max_rounds in (2, 4):
        for seed in range(1, 5):
            result = _reference_run_fuzz(seed, 50, max_rounds=max_rounds,
                                         stop_on_failure=False)
            failures += [[f.family, f.index,
                          _game_document(f.family, f.game)]
                         for f in result.failures]
    assert len(failures) == 373
    assert _digest(failures) == (
        "c477ab2ed772dcac778af25a009ee9f72982146a39ec761ef0435edb081b7247")


def test_stage_shrinks_are_pinned():
    # shrink_stage on 200 stages of 1-5 moves a side, under two predicates
    # that drop rows, columns and outcomes, as before the shared loop.
    rng = random.Random(3)
    stages = [random_stage(rng, max_moves=5, min_moves=1) for _ in range(200)]
    predicates = (
        lambda s: s.payoffs[0].sum() >= 4,
        lambda s: (np.count_nonzero(s.payoffs[0]) >= 2
                   and s.payoffs[0].max() > 3))
    shrunk = [[shrink_stage(s, failing).payoffs[0].tolist() for s in stages]
              for failing in predicates]
    assert _digest(shrunk) == (
        "c2e17d57a1a2991ca2c58eddb31b1f1500ace042a7ccf79847e63f5c537c0a87")


def test_certifier_agrees_with_direct_checks():
    rng = random.Random(12)
    from hog.sequential import compute_optimal_strategy, is_optimal_strategy
    for _ in range(10):
        g = random_sequential_game(rng)
        assert certify_sequential(g) == is_optimal_strategy(
            g, compute_optimal_strategy(g))


def test_sequential_draw_checks_budget_before_payoffs():
    rng = random.Random(0)
    with pytest.raises(BudgetExceededError) as err:
        random_sequential_game(rng, max_rounds=40, budget=10**6)
    # Only the round count and the move counts were drawn.
    shape = random.Random(0)
    n = shape.randint(1, 40)
    counts = [shape.randint(2, 3) for _ in range(n)]
    assert rng.getstate() == shape.getstate()
    assert err.value.count == math.prod(counts)


@pytest.mark.parametrize("lo, hi", [
    (5, 5), (0, 1), (-9, 9),
    # 2**31 + 1 values: 32 bits a try. 2**32 values: 33 bits a try.
    (-2 ** 31, 0), (0, 2 ** 32 - 1),
    (-10 ** 308, 10 ** 308), (2 ** 60, 2 ** 60 + 10)],
    ids=["1", "2", "19", "2**31+1", "2**32", "2e308+1", "11-past-2**53"])
def test_draw_reads_the_stream_as_per_call_draws(lo, hi):
    kinds = fuzz._SEQ_KINDS
    for seed in range(300):
        calls, helper = random.Random(seed), random.Random(seed)
        for size in (0, 1, 7, 40):
            assert fuzz._draw(helper, lo, hi) == calls.randint(lo, hi)
            values = fuzz._draw(helper, lo, hi, size)
            assert values == [calls.randint(lo, hi) for _ in range(size)]
            assert all(type(v) is int for v in values)
            assert kinds[fuzz._draw(helper, 0, len(kinds) - 1)] == (
                calls.choice(kinds))
        assert helper.getstate() == calls.getstate()
        assert helper.random() == calls.random()
    with pytest.raises(ValueError):
        fuzz._draw(random.Random(0), hi + 1, hi, 3)


def _reference_run_fuzz(seed, count, families=FAMILIES, max_rounds=4,
                        max_moves=3, payoff_range=(-9, 9), budget=None,
                        stop_on_failure=True):
    """The sweep one game at a time: draw a game, certify it with the
    one-game certifier, record it, and shrink it if it fails. run_fuzz
    must give the same result, or raise the same error."""
    families = tuple(families)
    result = FuzzResult(seed, count, families)
    if count:
        budget = resolve_budget(budget)
    plan = {
        "seq": (partial(fuzz.random_sequential_game, max_rounds=max_rounds,
                        max_moves=max_moves, payoff_range=payoff_range,
                        budget=budget),
                fuzz.certify_sequential, fuzz.shrink_sequential),
        "normal-form": (partial(fuzz.random_sequential_game,
                                max_rounds=min(max_rounds, 3),
                                max_moves=max_moves,
                                payoff_range=payoff_range, budget=budget),
                        fuzz.certify_normal_form, fuzz.shrink_sequential),
        "bbc": (partial(fuzz.random_stage, max_moves=max_moves,
                        payoff_range=payoff_range, budget=budget),
                fuzz.certify_stage, fuzz.shrink_stage),
    }
    for family in families:
        if family not in plan:
            raise ValueError(f"unknown family {family!r}")
        draw, check, shrink = plan[family]
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


def _game_key(game):
    kinds = tuple(q.kind for q in game.quantifiers)
    if isinstance(game, SequentialGame):
        kinds += tuple(e.kind for e in game.selections)
    return game.payoffs.shape, game.payoffs.tolist(), kinds


def _sweep(run, *args, **kwargs):
    """What a sweep returns, or the type and message of what it raises."""
    try:
        result = run(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return (result.checked, result.ok,
            [(f.family, f.index, f.seed, _game_key(f.game))
             for f in result.failures],
            [(family, index, _game_key(game))
             for family, index, game in result.corpus])


def _assert_same_sweep(*args, **kwargs):
    got = _sweep(run_fuzz, *args, **kwargs)
    assert got == _sweep(_reference_run_fuzz, *args, **kwargs)
    return got


_round_pair = fuzz._round_pair


def _attains_nothing(kind):
    """A round pair whose max selection is argmin: it does not attain."""
    if kind == "max":
        return max_quantifier(), argmin_selection()
    return _round_pair(kind)


def test_stacked_sweep_matches_reference_loop():
    shapes = 0
    for seed, max_rounds, max_moves, count in itertools.product(
            (0, 3), (1, 2, 3, 4), (2, 3, 4), (0, 1, 50)):
        got = _assert_same_sweep(seed, count, max_rounds=max_rounds,
                                 max_moves=max_moves)
        assert got[1] is True and got[0] == 3 * count
        shapes += len({key[0] for _, _, key in got[3]})
    assert shapes > 100
    # Payoffs near the float range, where the kernels overflow quietly, and
    # integers that float64 rounds.
    for payoff_range in ((-10 ** 308, 10 ** 308), (2 ** 60, 2 ** 60 + 10)):
        got = _assert_same_sweep(4, 50, payoff_range=payoff_range)
        assert got[1] is True


def test_stacked_sweep_matches_reference_on_failures(monkeypatch):
    monkeypatch.setattr(fuzz, "_round_pair", _attains_nothing)
    failures = set()
    for seed, max_rounds, families in itertools.product(
            (1, 2), (1, 2, 4), (FAMILIES, ("normal-form", "bbc"))):
        got = _assert_same_sweep(seed, 50, families, max_rounds=max_rounds)
        assert got[1] is False
        failures.update(family for family, *_ in got[2])
    assert failures == {"seq", "normal-form"}


def test_corpus_games_are_built_when_read(monkeypatch):
    take = PayoffArray._take_payoffs
    built = []

    def counted(self, counts):
        built.append(self)
        take(self, counts)

    monkeypatch.setattr(PayoffArray, "_take_payoffs", counted)
    result = run_fuzz(3, 40, max_rounds=3)
    assert result.ok and not built
    read = [(family, index, _game_key(game))
            for family, index, game in result.corpus]
    assert len(built) == len(result.corpus) == 120
    assert read == [(family, index, _game_key(game))
                    for family, index, game in result.corpus]
    assert read == _sweep(_reference_run_fuzz, 3, 40, max_rounds=3)[3]
    family, index, game = result.corpus[-1]
    assert (family, index, _game_key(game)) == read[-1]
    assert [(f, i) for f, i, _ in result.corpus[40:43]] == [
        (f, i) for f, i, _ in read[40:43]]

    # A failing game is built and shrunk as it is walked; the corpus waits.
    monkeypatch.setattr(fuzz, "_round_pair", _attains_nothing)
    built.clear()
    result = run_fuzz(1, 50)
    assert not result.ok and built
    failure, = result.failures
    drawn = [game for family, index, game in result.corpus
             if (family, index) == (failure.family, failure.index)]
    assert failure.game.payoffs.size <= drawn[0].payoffs.size
    assert _sweep(run_fuzz, 1, 50) == _sweep(_reference_run_fuzz, 1, 50)


def test_stacked_sweep_refuses_where_reference_refuses(monkeypatch):
    refused, midway = set(), 0
    for budget, seed in itertools.product((8, 20, 40, 70, 100, 119),
                                          (0, 1, 2)):
        for patch in (False, True):
            if patch:
                monkeypatch.setattr(fuzz, "_round_pair", _attains_nothing)
            got = _assert_same_sweep(seed, 50, budget=budget)
            if got[0] is BudgetExceededError:
                refused.add(got[1].split()[3])
                midway += isinstance(_sweep(run_fuzz, seed, 1, budget=budget)[0],
                                     int)
            monkeypatch.undo()
    # Refused both when a game is drawn and when it is certified, and past
    # the first game of a family (8 of the 36 sweeps).
    assert refused == {"plays", "histories"}
    assert midway > 5
    # A stage's profiles are refused before its payoffs are drawn.
    for budget, seed, max_moves in itertools.product((100, 400), (0, 1),
                                                     (12, 40)):
        got = _assert_same_sweep(seed, 5, ("bbc",), max_moves=max_moves,
                                 budget=budget)
        if max_moves == 40:
            assert got[0] is BudgetExceededError
            assert got[1].split()[3] == "profiles"


def test_shared_stacks_sweep_matches_reference(monkeypatch):
    # seq and normal-form games share stacks, but each family is walked in
    # the order given, up to its first failure or refusal.
    assert _assert_same_sweep(3, 50, ("normal-form", "seq"))[1] is True
    # A duplicated family is drawn and walked twice.
    got = _assert_same_sweep(3, 20, ("seq", "seq"))
    assert got[0] == 40 and got[3][:20] == got[3][20:]
    # An unknown family raises where the walk reaches it.
    got = _assert_same_sweep(3, 20, ("seq", "bbc", "nope"))
    assert got == (ValueError, "unknown family 'nope'")
    assert _assert_same_sweep(3, 20, ("nope", "seq"))[0] is ValueError
    monkeypatch.setattr(fuzz, "_round_pair", _attains_nothing)
    # A failure before the unknown family is the result.
    assert _assert_same_sweep(1, 20, ("seq", "nope"))[1] is False
    # The first failure is a normal-form game's, after every seq game of
    # the sweep passed.
    got = _assert_same_sweep(15, 3, ("seq", "normal-form"),
                             payoff_range=(0, 1))
    assert got[0] > 3 and [f[:2] for f in got[2]] == [("normal-form", 1)]
    # seq refuses, when a game is drawn or certified, before the walk
    # reaches a normal-form game that fails.
    for budget, what in ((40, "plays"), (70, "histories")):
        got = _assert_same_sweep(0, 10, ("seq", "normal-form"),
                                 budget=budget)
        assert got[0] is BudgetExceededError and got[1].split()[3] == what
        alone = _assert_same_sweep(0, 10, ("normal-form",), budget=budget)
        assert alone[1] is False


def test_shared_stacks_pass_once_per_shape(monkeypatch):
    # One backward pass per move-count tuple drawn across seq and
    # normal-form, not one per family and tuple.
    inner, passes = sequential._optimal_moves, []

    def counted(flat, counts, stack, selections):
        passes.append(tuple(counts))
        return inner(flat, counts, stack, selections)

    monkeypatch.setattr(sequential, "_optimal_moves", counted)
    for seed in (1, 2):
        passes.clear()
        result = run_fuzz(seed, 100, ("seq", "normal-form"), max_rounds=2)
        assert result.ok and result.checked == 200
        shapes = {game.move_counts for _, _, game in result.corpus}
        assert sorted(passes) == sorted(shapes) and len(shapes) == 6


def test_budget_checks_of_passing_sweeps_are_pinned(monkeypatch):
    # Every check_budget call of seeded sweeps that end without a refusal,
    # as (count, label) with its multiplicity. Pinned when the walk made
    # each game's checks; they are now made when the game is drawn, once
    # per game as before, so the calls are the same.
    calls = collections.Counter()
    check = hog.budget.check_budget

    def counted(count, budget, what):
        calls[what, count] += 1
        return check(count, budget, what)

    for module in (fuzz, minimax, normalform, sequential, hog.core,
                   hog.mixed, hog.simultaneous):
        monkeypatch.setattr(module, "check_budget", counted)
    for seed, max_rounds in itertools.product((0, 1), (4, 2)):
        assert run_fuzz(seed, 50, max_rounds=max_rounds).ok
    by_label = {}
    for (what, count), n in calls.items():
        by_label.setdefault(what, {})[count] = n
    assert by_label == {
        "plays": {2: 120, 3: 124, 4: 64, 6: 119, 8: 10, 9: 57, 12: 40,
                  16: 2, 18: 32, 24: 6, 27: 10, 36: 6, 54: 7, 81: 3},
        "profiles": {4: 48, 6: 106, 9: 46},
        "reply functions": {0: 200},
        "histories": {2: 80, 3: 84, 6: 41, 8: 44, 9: 33, 12: 36, 14: 7,
                      18: 8, 20: 6, 21: 9, 26: 8, 27: 10, 30: 6, 38: 1,
                      39: 6, 42: 1, 44: 2, 45: 2, 54: 1, 57: 1, 63: 1,
                      66: 3, 80: 4, 81: 1, 93: 2, 120: 3},
        "optimality checks": {2: 40, 3: 44, 6: 18, 8: 22, 9: 13, 12: 15,
                              14: 4, 18: 1, 20: 2, 21: 3, 26: 2, 27: 7,
                              30: 5, 38: 1, 39: 2, 42: 1, 44: 2, 45: 2,
                              54: 1, 57: 1, 63: 1, 66: 3, 80: 4, 81: 1,
                              93: 2, 120: 3},
    }


def test_mixed_stacks_match_one_game_checks(games_dir):
    # Stacks that mix games tested at every history with games tested only
    # on their path: each verdict is is_optimal_strategy, or
    # check_soundness, of its game alone. Strategies are optimal, random,
    # and the threat game's, which is sound but not optimal; rounds of a
    # stack drew up to four stock kinds.
    rng = random.Random(41)
    games = [_oracle_game(rng, ("max", "min", "average", "eps_ball"))
             for _ in range(400)]
    threat = load_game(games_dir / "threat_game.json").game
    threat_strategy = tuple(map(tuple, json.loads(
        (games_dir / "threat_strategy.json").read_text())["strategy"]))
    assert normalform.check_soundness(threat, threat_strategy)
    assert not sequential.is_optimal_strategy(threat, threat_strategy)
    stacks = {}
    for g in games + [threat] * 6:
        stacks.setdefault(g.move_counts, []).append(g)
    verdicts, mixed, several = set(), 0, 0
    for counts, stack in stacks.items():
        flat = np.concatenate([g.flat_payoffs() for g in stack])
        quantifiers = tuple(map(_row_chosen,
                                zip(*(g.quantifiers for g in stack))))
        several += sum(phi not in stack[0].quantifiers for phi in quantifiers)
        optimal = [sequential.compute_optimal_strategy(g) for g in stack]
        randoms = [tuple(tuple(rng.randrange(m) for _ in range(
            g.history_count(i))) for i, m in enumerate(counts))
            for g in stack]
        chosen = [threat_strategy if g is threat else t
                  for g, t in zip(stack, randoms)]
        on_path = np.array([k % 2 == 1 or g is threat
                            for k, g in enumerate(stack)])
        mixed += on_path.any() and not on_path.all()
        for tables, tol in itertools.product((optimal, randoms, chosen),
                                             (0.0, 1.0)):
            moves = [np.concatenate([t[i] for t in tables])
                     for i in range(len(counts))]
            reached = sequential._reached(counts, len(stack),
                                          lambda i, _: moves[i])
            ok = sequential._strategy_verdicts(flat, quantifiers, reached,
                                               tol, on_path)
            want = [normalform.check_soundness(g, t, tol) if path
                    else sequential.is_optimal_strategy(g, t, tol)
                    for g, t, path in zip(stack, tables, on_path)]
            assert ok.tolist() == want
            verdicts.update(zip(on_path.tolist(), want))
    assert verdicts == {(p, v) for p in (True, False) for v in (True, False)}
    assert mixed > 20 and several > 20


def _row_chosen(objs):
    """One quantifier or selection for a round of a stack whose games use
    ``objs``, one each: its kernel runs each distinct object's kernel on
    every row (rows go game by game, the same number per game) and keeps
    the answer of each row's own game's object."""
    distinct = list({id(obj): obj for obj in objs}.values())
    if len(distinct) == 1:
        return distinct[0]
    which = np.array([[d is obj for d in distinct].index(True)
                      for obj in objs])

    def kernel(tables, *args):
        own = np.repeat(which, len(tables) // len(objs))
        out = distinct[0].kernel(tables, *args)
        for k, obj in enumerate(distinct[1:], 1):
            out[own == k] = obj.kernel(tables, *args)[own == k]
        return out

    return replace(distinct[0], kernel=kernel)


def test_stacks_match_one_game_functions(monkeypatch):
    # Stacks of games of one shape, each round with up to four stock kinds
    # and one row-chosen quantifier and selection. A custom test sees one
    # table at a time, up to its own game's first rejection, so a game
    # with a custom kind is a stack of one.
    rng = random.Random(77)
    kinds = ("max", "min", "average", "eps_ball", "custom")
    games = [_oracle_game(rng, kinds) for _ in range(400)]
    games += [_oracle_game(rng, ("eps_ball",), dim=2) for _ in range(40)]
    stacks = {}
    for g in games:
        custom = "custom" in [x.kind for x in g.quantifiers + g.selections]
        stacks.setdefault((g.move_counts, g.payoffs.shape,
                           id(g) if custom else None), []).append(g)
    verdicts, mixed = set(), 0
    for stack in stacks.values():
        flat = np.concatenate([g.flat_payoffs() for g in stack])
        counts = stack[0].move_counts
        selections = tuple(map(_row_chosen,
                               zip(*(g.selections for g in stack))))
        quantifiers = tuple(map(_row_chosen,
                                zip(*(g.quantifiers for g in stack))))
        mixed += sum(phi not in stack[0].quantifiers for phi in quantifiers)
        strategies = [sequential.compute_optimal_strategy(g) for g in stack]
        for tol in (0.0, 2.0):
            moves, reached = sequential._optimal_moves(
                flat, counts, len(stack), selections)
            ok = sequential._strategy_verdicts(flat, quantifiers, reached,
                                               tol)
            for b, (g, strategy) in enumerate(zip(stack, strategies)):
                assert tuple(tuple(m.reshape(len(stack), -1)[b].tolist())
                             for m in moves) == strategy
                assert ok[b] == sequential.is_optimal_strategy(g, strategy,
                                                               tol)
                verdicts.add(bool(ok[b]))
            # Soundness of the optimal and of random strategies.
            randoms = [tuple(tuple(rng.randrange(m) for _ in range(
                g.history_count(i))) for i, m in enumerate(counts))
                for g in stack]
            for tables in (strategies, randoms):
                moves = [np.concatenate([t[i] for t in tables])
                         for i in range(len(counts))]
                sound = sequential._strategy_verdicts(
                    flat, quantifiers,
                    sequential._reached(counts, len(stack),
                                        lambda i, _: moves[i]), tol,
                    on_path=True)
                assert sound.tolist() == [
                    normalform.check_soundness(g, t, tol)
                    for g, t in zip(stack, tables)]
                verdicts.update(sound.tolist())
    assert verdicts == {True, False}
    assert max(map(len, stacks.values())) > 20 and mixed > 20

    # The fuzz families, with a pair that does not attain in some games,
    # in stacks of at most 20 payoff entries: groups are cut, and games of
    # more entries are stacks of one. Each family alone, then all at once,
    # where seq and normal-form games share stacks.
    monkeypatch.setattr(fuzz, "_round_pair", _attains_nothing)
    monkeypatch.setattr(fuzz, "_STACK_ENTRIES", 20)
    plan = fuzz._families(3, 3, (-9, 9), 10**6)
    sweeps, wants = [], []
    for name, family in plan.items():
        rng = random.Random(5)
        drawn = [family.draw(rng) for _ in range(300)]
        want = [family.certify(family.build(*values), None)
                for values in drawn]
        assert fuzz._verdicts([(family, drawn)])[0].tolist() == want
        assert (name == "bbc") == all(want)
        sweeps.append((family, drawn))
        wants.append(want)
    assert [ok.tolist() for ok in fuzz._verdicts(sweeps)] == wants


def test_stage_stacks_match_one_stage_functions():
    rng = random.Random(31)
    kinds = (max_quantifier(), min_quantifier(), fixed_point_quantifier())
    verdicts = set()
    for nx, ny, phi, psi, selections in itertools.product(
            (1, 2, 3), (1, 2, 4), kinds, kinds,
            ((argmax_selection(), argmin_selection()),
             (argmin_selection(), argmax_selection()))):
        stages = [stage_from([rng.randrange(4) for _ in range(nx * ny)], nx,
                             ny, quantifiers=(phi, psi), selections=selections)
                  for _ in range(12)]
        q = np.stack([s.payoffs[0] for s in stages])
        pairs, products = minimax._pairs(q, *selections)
        for k, stage in enumerate(stages):
            report = minimax.compare_bbc_vs_product(stage)
            assert ((int(pairs[0][k]), int(pairs[1][k])) == minimax.bbc(stage)
                    == tuple(report["bbc"]["pair"]))
            assert [int(products[0][k]), int(products[1][k])] == (
                report["product"]["pair"])
        if {phi.kind, psi.kind} - set(minimax._WORST_CASE):
            continue
        for tol in (0.0, 1.0):
            a = np.array([rng.randrange(nx) for _ in stages])
            b = np.array([rng.randrange(ny) for _ in stages])
            for pair in (pairs, (a, b)):
                ok = minimax._reply_robust(q, pair, phi, psi, tol)
                assert ok.tolist() == [
                    minimax.is_psi_phi_profile(
                        s, (int(pair[0][k]), int(pair[1][k])), tol)
                    for k, s in enumerate(stages)]
                verdicts.update(ok.tolist())
    assert verdicts == {True, False}
