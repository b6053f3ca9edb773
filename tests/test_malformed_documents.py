"""Seeded sweeps of malformed game documents and profile arguments through
the CLI.

Each mutant replaces one leaf of a valid document with a value of the wrong
type or range, or deletes it, and runs the subcommands that apply to the
document's kind. Profile mutants do the same to a valid pure or mixed
``check-eq --profile`` argument. Every run must end in a documented exit
code; no exception may escape hog.cli.main.
"""

import json
import random

import pytest

from hog.cli import main
from hog.gamefile import load_game, normal_form_document, serialize_game
from hog.normalform import to_normal_form

BAD_VALUES = ("x", -1, 10 ** 400, 1.5, None, [], {}, True, float("nan"))
DELETE = object()
DOCUMENTED_EXITS = {0, 2, 3, 4, 5}
SAMPLE = 250
PROFILE_SAMPLE = 80


def _bases(games_dir):
    bases = {}
    for path in sorted(games_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        if "kind" in doc:
            bases[path.name] = doc
    stage = json.loads((games_dir / "stage_matching_pennies.json").read_text())
    stage["selections"][1] = {"kind": "constant", "move": 0}
    stage["params"] = {"tol": 1e-9, "budget": 1000, "grid_depth": 2}
    bases["constant_stage"] = stage
    # An exported normal form, whose quantifiers are seq_lift descriptors.
    seq = load_game(games_dir / "seq_2x_plus_y.json").game
    bases["normal_form"] = serialize_game(
        normal_form_document(to_normal_form(seq)))
    return bases


def _leaves(node, path=()):
    """Paths to every scalar and every empty container of a JSON value."""
    if isinstance(node, dict):
        children = list(node.items())
    elif isinstance(node, list):
        children = list(enumerate(node))
    else:
        children = []
    if not children:
        yield path
    for key, child in children:
        yield from _leaves(child, path + (key,))


def _mutate(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _commands(doc):
    """The subcommands that apply to the base document's kind."""
    if doc["kind"] == "sequential":
        return [["solve", "--mode", "seq"], ["normal-form"]]
    profile = json.dumps([0] * len(doc["moves"]))
    return [["check-eq", "--profile", profile], ["solve", "--mode", "pure"],
            ["solve", "--mode", "mixed"], ["bbc"]]


def test_malformed_documents_exit_with_documented_codes(capsys, games_dir,
                                                        tmp_path):
    bases = _bases(games_dir)
    population = [
        (name, path, value)
        for name, doc in bases.items()
        for path in _leaves(doc)
        for value in BAD_VALUES + (DELETE,)
    ]
    sample = random.Random(2026).sample(population, SAMPLE)
    game = tmp_path / "game.json"
    for n, (name, path, value) in enumerate(sample):
        doc = bases[name]
        game.write_text(json.dumps(_mutate(doc, path, value)))
        for command in _commands(doc):
            argv = [command[0], str(game), *command[1:]]
            if n % 2:
                argv.append("--json")
            try:
                code = main(argv)
            except Exception as exc:  # report the mutant, then fail
                pytest.fail(f"{name} {list(path)} <- {value!r}: {argv[0]} "
                            f"raised {exc!r}")
            capsys.readouterr()
            assert code in DOCUMENTED_EXITS, (name, path, value, argv)


def _profiles(games_dir):
    """A valid pure and a valid uniform mixed profile for every shipped
    simultaneous game and stage."""
    for path in sorted(games_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("kind") in ("simultaneous", "two_player_stage"):
            counts = [len(moves) for moves in doc["moves"]]
            yield path, [0] * len(counts)
            yield path, [[1 / c] * c for c in counts]


def test_malformed_profiles_exit_with_documented_codes(capsys, games_dir):
    population = [
        (path, profile, leaf, value)
        for path, profile in _profiles(games_dir)
        for leaf in _leaves(profile)
        for value in BAD_VALUES + (DELETE,)
    ]
    sample = random.Random(2027).sample(population, PROFILE_SAMPLE)
    for n, (path, profile, leaf, value) in enumerate(sample):
        argv = ["check-eq", str(path), "--profile",
                json.dumps(_mutate(profile, leaf, value))]
        if n % 2:
            argv.append("--json")
        try:
            code = main(argv)
        except Exception as exc:  # report the mutant, then fail
            pytest.fail(f"{path.name} {list(leaf)} <- {value!r}: raised {exc!r}")
        capsys.readouterr()
        assert code in DOCUMENTED_EXITS, (path.name, leaf, value)


DEEP = 100_000


def test_deeply_nested_game_file_exits_2(capsys, tmp_path):
    # Nesting past the parser's recursion limit ended in a RecursionError
    # traceback with exit 1.
    game = tmp_path / "deep.json"
    game.write_text("[" * DEEP + "]" * DEEP)
    assert main(["solve", str(game), "--mode", "mixed"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: invalid JSON: nested too deeply to parse\n"


@pytest.mark.parametrize("as_file", [True, False])
def test_deeply_nested_profile_exits_2(capsys, games_dir, tmp_path, as_file):
    profile = "[" * DEEP + "]" * DEEP
    if as_file:
        path = tmp_path / "deep_profile.json"
        path.write_text(profile)
        profile = str(path)
    assert main(["check-eq", str(games_dir / "matching_pennies.json"),
                 "--profile", profile]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: profile: invalid JSON: nested too deeply to parse\n"
