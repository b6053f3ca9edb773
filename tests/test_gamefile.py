import json

import pytest

from hog.errors import GameFileError
from hog.gamefile import (GameDocument, load_game, parse_game,
                          parse_mixed_profile, parse_pure_profile,
                          parse_strategy, serialize_game)
from hog.sequential import SequentialGame
from hog.simultaneous import SimultaneousGame


def test_load_all_shipped_games(games_dir):
    for path in sorted(games_dir.glob("*.json")):
        if path.name.endswith("_strategy.json"):
            continue
        document = load_game(path)
        assert document.kind in {"simultaneous", "sequential", "two_player_stage"}


def test_round_trip_is_identity_on_structured_form(games_dir):
    for path in sorted(games_dir.glob("*.json")):
        if path.name.endswith("_strategy.json"):
            continue
        first = serialize_game(load_game(path))
        second = serialize_game(parse_game(first))
        assert first == second, path.name


def test_simultaneous_parse_shapes(games_dir):
    document = load_game(games_dir / "matching_pennies.json")
    g = document.game
    assert isinstance(g, SimultaneousGame)
    assert g.players == ("row", "col")
    assert g.move_counts == (2, 2)
    assert g.outcome(0, (0, 0)) == 1.0
    assert g.outcome(1, (0, 0)) == -1.0


def test_sequential_parse(games_dir):
    document = load_game(games_dir / "seq_2x_plus_y.json")
    g = document.game
    assert isinstance(g, SequentialGame)
    assert g.outcome((1, 1)) == 3.0
    assert g.selections[0].descriptor == {"kind": "argmax"}


def test_stage_parse(games_dir):
    document = load_game(games_dir / "stage_matching_pennies.json")
    assert isinstance(document.game, SimultaneousGame)
    assert document.game.payoffs[0][0][0] == 1.0


def test_single_outcome_space_tensor():
    doc = {
        "version": 1,
        "kind": "simultaneous",
        "moves": [["a", "b"], ["a", "b"]],
        "single_outcome_space": True,
        "payoffs": [3, 1, 0, 2],
        "quantifiers": [{"kind": "max"}, {"kind": "min"}],
    }
    document = parse_game(doc)
    g = document.game
    assert g.single_outcome_space
    assert g.outcome(0, (0, 1)) == g.outcome(1, (0, 1)) == 1.0
    assert serialize_game(document)["payoffs"] == [3.0, 1.0, 0.0, 2.0]


def test_seq_lift_descriptor_round_trip(games_dir):
    from hog.gamefile import normal_form_document
    from hog.normalform import to_normal_form

    g = load_game(games_dir / "seq_2x_plus_y.json").game
    nf_doc = serialize_game(normal_form_document(to_normal_form(g)))
    assert nf_doc["quantifiers"][1]["kind"] == "seq_lift"
    reparsed = parse_game(nf_doc)
    from hog.simultaneous import enumerate_pure_equilibria
    assert enumerate_pure_equilibria(reparsed.game) == \
        enumerate_pure_equilibria(to_normal_form(g))


def test_bad_tensor_length():
    doc = {
        "version": 1,
        "kind": "simultaneous",
        "moves": [["a", "b"], ["a", "b"]],
        "payoffs": [[1, 2, 3], [1, 2, 3, 4]],
        "quantifiers": [{"kind": "max"}, {"kind": "max"}],
    }
    with pytest.raises(GameFileError) as err:
        parse_game(doc)
    assert "payoffs[0]" in str(err.value)


def test_non_finite_numbers_rejected():
    base = {
        "version": 1,
        "kind": "simultaneous",
        "moves": [["a", "b"], ["a", "b"]],
        "payoffs": [[1, 2, 3, 4], [1, 2, 3, 4]],
        "quantifiers": [{"kind": "max"}, {"kind": "max"}],
    }
    bad_docs = [
        dict(base, payoffs=[[1, 2, float("nan"), 4], [1, 2, 3, 4]]),
        dict(base, payoffs=[[1, 2, 3, 4], [float("-inf"), 2, 3, 4]]),
        dict(base, payoffs=[[10 ** 400, 2, 3, 4], [1, 2, 3, 4]]),
        dict(base, quantifiers=[
            {"kind": "eps_ball", "center": 0, "radius": float("nan")},
            {"kind": "max"}]),
        dict(base, quantifiers=[
            {"kind": "eps_ball", "center": 0, "radius": float("inf")},
            {"kind": "max"}]),
        dict(base, params={"tol": float("nan")}),
        dict(base, params={"tol": -0.5}),
        dict(base, params={"budget": "abc"}),
        dict(base, params={"budget": -1}),
        dict(base, params={"grid_depth": 2.5}),
    ]
    for doc in bad_docs:
        with pytest.raises(GameFileError):
            parse_game(doc)
    assert parse_game(dict(base, params={"budget": 1e6, "tol": 0})).params


def test_tensor_entry_messages():
    base = {
        "version": 1,
        "kind": "two_player_stage",
        "moves": [["a", "b"], ["a", "b"]],
        "quantifiers": [{"kind": "max"}, {"kind": "min"}],
        "selections": [{"kind": "argmax"}, {"kind": "argmin"}],
    }
    numbers = "tensor entries must be numbers"
    finite = "tensor entries must be finite"
    for payoffs, message in (
            ([1, "2", 3, 4], numbers),
            ([1, 2, True, 4], numbers),
            ([1, 2, 3, float("nan")], finite),
            ([1, 10 ** 400, 3, 4], finite),
            ([-(10 ** 400), 2, 3, 4], finite),
            ([float("nan"), True, 3, 4], finite),
            ([True, float("nan"), 3, 4], numbers),
            ([1, None, 10 ** 400, 4], numbers),
            ([1, 2, [3], 4], numbers)):
        with pytest.raises(GameFileError) as err:
            parse_game(dict(base, payoffs=payoffs))
        assert str(err.value) == f"payoffs: {message}"
    # Numbers are read exactly as float() reads them, signed zeros and
    # integers past 2**53 included.
    payoffs = [-0.0, 2 ** 53 + 1, 2 ** 70 + 1, 1.5]
    game = parse_game(dict(base, payoffs=payoffs)).game
    assert game.payoffs[0].ravel().tolist() == [float(v) for v in payoffs]
    assert str(game.payoffs[0][0, 0]) == "-0.0"


def test_unknown_version_and_kind():
    with pytest.raises(GameFileError):
        parse_game({"version": 2, "kind": "simultaneous"})
    with pytest.raises(GameFileError):
        parse_game({"version": 1, "kind": "weird"})


def test_bad_quantifier_descriptor():
    doc = {
        "version": 1,
        "kind": "simultaneous",
        "moves": [["a"], ["a"]],
        "payoffs": [[0], [0]],
        "quantifiers": [{"kind": "eps_ball", "center": 0}, {"kind": "max"}],
    }
    with pytest.raises(GameFileError) as err:
        parse_game(doc)
    assert "quantifiers[0]" in str(err.value)


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": 1,\n  "kind": oops}')
    with pytest.raises(GameFileError) as err:
        load_game(path)
    assert "line 2" in str(err.value)


def test_profile_parsing(games_dir):
    document = load_game(games_dir / "matching_pennies.json")
    assert parse_pure_profile(document, ["H", "T"]) == (0, 1)
    assert parse_pure_profile(document, [1, 0]) == (1, 0)
    with pytest.raises(GameFileError):
        parse_pure_profile(document, ["H"])
    with pytest.raises(GameFileError):
        parse_pure_profile(document, ["H", "X"])
    prof = parse_mixed_profile(document, [[0.5, 0.5], [0.25, 0.75]])
    assert list(prof[1]) == [0.25, 0.75]
    with pytest.raises(GameFileError):
        parse_mixed_profile(document, [[0.9, 0.9], [0.5, 0.5]])


def test_strategy_parsing(games_dir):
    document = load_game(games_dir / "seq_2x_plus_y.json")
    raw = json.loads((games_dir.parent / "games" / "threat_strategy.json").read_text())
    strategy = parse_strategy(document, raw)
    assert strategy == ((1,), (1, 1))
    with pytest.raises(GameFileError):
        parse_strategy(document, [[0]])
    assert parse_strategy(document, [["x1"], ["y0", "y1"]]) == ((1,), (0, 1))


def test_custom_quantifier_not_serializable():
    from hog.core import custom_quantifier

    g = SimultaneousGame.from_tensors(
        [2], [[0, 1]],
        [custom_quantifier(lambda p, r, tol: True)],
    )
    with pytest.raises(GameFileError):
        serialize_game(GameDocument("simultaneous", g))
