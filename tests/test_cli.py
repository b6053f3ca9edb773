import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hog.cli
import hog.errors
import hog.fuzz
import hog.gamefile
import hog.mixed
import hog.sequential
from hog.cli import main


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_eq_pure_not_equilibrium(capsys, games_dir):
    code, out, _ = run(capsys, [
        "check-eq", str(games_dir / "matching_pennies.json"),
        "--profile", "[0,0]",
    ])
    assert code == 3
    assert "equilibrium: False" in out


def test_check_eq_mixed_equilibrium(capsys, games_dir):
    code, out, _ = run(capsys, [
        "check-eq", str(games_dir / "matching_pennies.json"),
        "--profile", "[[0.5,0.5],[0.5,0.5]]", "--json",
    ])
    assert code == 0
    report = json.loads(out)
    assert report["equilibrium"] is True
    assert len(report["players"]) == 2


def test_check_eq_labels_and_profile_file(capsys, games_dir, tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text('["D", "D"]')
    code, out, _ = run(capsys, [
        "check-eq", str(games_dir / "prisoners_dilemma.json"),
        "--profile", str(profile),
    ])
    assert code == 0


@pytest.mark.parametrize("profile, code", [
    ("[[0.5,0.5],[0.5,0.5]]", 0), ("[0,0]", 3),
])
def test_check_eq_writes_its_report_to_out(capsys, games_dir, tmp_path,
                                           profile, code):
    # The artifact is the report printed with --json, which adds its path.
    artifact = tmp_path / "check.json"
    got, out, _ = run(capsys, [
        "check-eq", str(games_dir / "matching_pennies.json"),
        "--profile", profile, "--json", "--out", str(artifact),
    ])
    assert got == code
    report = json.loads(out)
    assert report.pop("artifact") == str(artifact)
    assert json.loads(artifact.read_text()) == report
    assert report["equilibrium"] is (code == 0)


def test_check_eq_malformed_tensor_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "version": 1, "kind": "simultaneous",
        "moves": [["a", "b"], ["a", "b"]],
        "payoffs": [[1, 2, 3], [1, 2, 3, 4]],
        "quantifiers": [{"kind": "max"}, {"kind": "max"}],
    }))
    code, _, err = run(capsys, ["check-eq", str(bad), "--profile", "[0,0]"])
    assert code == 2
    assert "payoffs" in err


def test_check_eq_rejects_sequential(capsys, games_dir):
    code, _, err = run(capsys, [
        "check-eq", str(games_dir / "seq_2x_plus_y.json"), "--profile", "[0,0]",
    ])
    assert code == 2
    assert "solve --mode seq" in err


def test_solve_pure_coordination(capsys, games_dir):
    code, out, _ = run(capsys, [
        "solve", str(games_dir / "coordination.json"), "--mode", "pure", "--json",
    ])
    assert code == 0
    report = json.loads(out)
    assert report["equilibria"] == [[0, 0], [1, 1]]


def test_solve_mixed_matching_pennies(capsys, games_dir, tmp_path):
    out_file = tmp_path / "result.json"
    code, out, _ = run(capsys, [
        "solve", str(games_dir / "matching_pennies.json"), "--mode", "mixed",
        "--json", "--out", str(out_file),
    ])
    assert code == 0
    report = json.loads(out)
    assert report["solver"] == "support_enumeration"
    assert report["count"] == 1
    profile = report["equilibria"][0]["profile"]
    assert profile == [[0.5, 0.5], [0.5, 0.5]]
    assert json.loads(out_file.read_text())["count"] == 1


def test_solve_mixed_exit_5_when_theorem_contradicted(capsys, games_dir, monkeypatch):
    monkeypatch.setattr(hog.mixed, "solve_support_enumeration_2p",
                        lambda g, tol, budget=None: [])
    code, _, err = run(capsys, [
        "solve", str(games_dir / "matching_pennies.json"), "--mode", "mixed",
    ])
    assert code == 5
    assert "existence theorem" in err


def test_solve_seq(capsys, games_dir):
    code, out, _ = run(capsys, [
        "solve", str(games_dir / "seq_2x_plus_y.json"), "--mode", "seq", "--json",
    ])
    assert code == 0
    report = json.loads(out)
    assert report["play"] == [1, 1]
    assert report["outcome"] == 3.0
    assert report["optimal"] is True


def test_solve_normal_form_sizes(capsys, games_dir, tmp_path):
    out_file = tmp_path / "nf.json"
    code, out, _ = run(capsys, [
        "normal-form", str(games_dir / "seq_three_rounds.json"),
        "--out", str(out_file), "--json",
    ])
    assert code == 0
    report = json.loads(out)
    assert report["move_set_sizes"] == [2, 4, 16]
    nf_doc = json.loads(out_file.read_text())
    assert nf_doc["kind"] == "simultaneous"
    assert len(nf_doc["moves"][2]) == 16
    # The exported file parses back.
    code2, out2, _ = run(capsys, [
        "solve", str(out_file), "--mode", "pure", "--json",
    ])
    assert code2 == 0


def test_bbc_command(capsys, games_dir):
    code, out, _ = run(capsys, [
        "bbc", str(games_dir / "stage_matching_pennies.json"), "--json",
    ])
    assert code == 0
    report = json.loads(out)
    assert report["pair"] == [0, 0]
    assert report["reply_robust"] is True
    assert report["comparison"]["product"]["pair"] == [0, 1]


def test_bbc_refuses_a_game_that_is_no_stage(capsys, games_dir, tmp_path):
    # Separate payoff tensors, a sequential game, and a single-outcome
    # game without selections: both commands name the CLI's mode field.
    want = ("error: mode: mode bbc requires a two-player stage (or a "
            "2-player single-outcome simultaneous game with selections)\n")
    no_selections = tmp_path / "no_selections.json"
    no_selections.write_text(json.dumps({
        "version": 1, "kind": "simultaneous",
        "moves": [["H", "T"], ["H", "T"]], "single_outcome_space": True,
        "payoffs": [1, -1, -1, 1],
        "quantifiers": [{"kind": "max"}, {"kind": "min"}],
    }))
    for game in (str(games_dir / "matching_pennies.json"),
                 str(games_dir / "seq_2x_plus_y.json"), str(no_selections)):
        for argv in (["bbc", game], ["solve", game, "--mode", "bbc"]):
            assert run(capsys, argv) == (2, "", want)


def test_bbc_warns_on_multi_valued(capsys, tmp_path):
    doc = {
        "version": 1, "kind": "two_player_stage",
        "moves": [["a", "b"], ["a", "b"]],
        "payoffs": [0, 1, 1, 0],
        "quantifiers": [{"kind": "max"},
                        {"kind": "eps_ball", "center": 0, "radius": 1.0}],
        "selections": [{"kind": "argmax"}, {"kind": "constant", "move": 0}],
    }
    path = tmp_path / "stage.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["bbc", str(path)])
    assert code == 0
    assert "not single-valued" in err


def test_budget_exit_4(capsys, games_dir):
    code, _, err = run(capsys, [
        "solve", str(games_dir / "seq_three_rounds.json"), "--mode",
        "normal-form", "--budget", "10",
    ])
    assert code == 4
    assert "exceeds budget" in err


def test_support_enumeration_budget_exit_4(capsys, games_dir):
    # Matching pennies has (2^2 - 1)(2^2 - 1) = 9 support pairs.
    code, out, err = run(capsys, [
        "solve", str(games_dir / "matching_pennies.json"), "--mode", "mixed",
        "--budget", "1",
    ])
    assert code == 4
    assert "exceeds budget" in err
    assert out == ""


def test_fuzz_small_run_passes_and_writes_corpus(capsys, tmp_path):
    code, out, _ = run(capsys, [
        "fuzz", "--seed", "42", "--count", "5", "--json",
        "--out", str(tmp_path),
    ])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["checked"] == 15
    assert report["corpus_size"] == 15
    corpus = sorted(tmp_path.glob("*.json"))
    assert len(corpus) == 15
    # Corpus files parse back as games, reproducibly.
    first = json.loads(corpus[0].read_text())
    assert first["kind"] in {"sequential", "two_player_stage"}
    code2, out2, _ = run(capsys, [
        "fuzz", "--seed", "42", "--count", "5", "--json",
        "--out", str(tmp_path),
    ])
    assert json.loads(corpus[0].read_text()) == first


def test_fuzz_shape_exceeding_budget_exits_4(capsys):
    # The normal-form family is budgeted by what it reads, not by the
    # worst-case normal form of its shape (5^31 profiles here).
    argv = ["fuzz", "--seed", "1", "--count", "1", "--family", "normal-form",
            "--max-moves", "5", "--json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["checked"] == 1
    code, _, err = run(capsys, argv + ["--budget", "1"])
    assert code == 4
    assert "exceeds budget" in err


def test_fuzz_mutation_self_test(capsys, tmp_path, monkeypatch):
    # Corrupt the optimality check that is_optimal_strategy and the stacked
    # sweep share: fuzz must detect it, shrink, and write the failing game.
    monkeypatch.setattr(hog.sequential, "_accepted",
                        lambda phi, stack, *a: np.zeros(stack, bool))
    out_dir = tmp_path / "corpus"
    out_dir.mkdir()
    code, out, _ = run(capsys, [
        "fuzz", "--seed", "7", "--count", "3", "--family", "seq",
        "--json", "--out", str(out_dir),
    ])
    assert code == 6
    report = json.loads(out)
    assert report["failures"]
    written = report["failures"][0]["file"]
    with open(written) as f:
        failing = json.load(f)
    assert failing["kind"] == "sequential"


def test_bbc_on_simultaneous_file_with_selections(capsys, tmp_path,
                                                  games_dir):
    doc = {
        "version": 1, "kind": "simultaneous",
        "moves": [["H", "T"], ["H", "T"]],
        "single_outcome_space": True,
        "payoffs": [1, -1, -1, 1],
        "quantifiers": [{"kind": "max"}, {"kind": "min"}],
        "selections": [{"kind": "argmax"}, {"kind": "argmin"}],
    }
    path = tmp_path / "pennies_single.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["bbc", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["pair"] == [0, 0]
    # The single-outcome twin reads exactly as the stage file does.
    stage = str(games_dir / "stage_matching_pennies.json")
    for command in (["bbc"], ["check-eq", "--profile", "[0,1]"],
                    ["check-eq", "--profile", "[[0.5,0.5],[0.5,0.5]]"],
                    ["solve", "--mode", "pure"], ["solve", "--mode", "mixed"]):
        for extra in ([], ["--json"]):
            twin = run(capsys, [command[0], str(path), *command[1:], *extra])
            assert twin == run(capsys, [command[0], stage, *command[1:],
                                        *extra])


def test_solve_mixed_on_max_min_stage(capsys, games_dir):
    # The stage's equilibrium (1/2, 1/2) is off the default depth-3 grid;
    # support enumeration, on the second player's negated payoffs, finds it.
    stage = str(games_dir / "stage_matching_pennies.json")
    code, out, err = run(capsys, ["solve", stage, "--mode", "mixed"])
    assert (code, err) == (0, "")
    assert "solver: support_enumeration" in out
    code, out, err = run(capsys, ["solve", stage, "--mode", "mixed", "--json"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["solver"] == "support_enumeration"
    assert [eq["profile"] for eq in report["equilibria"]] == [
        [[0.5, 0.5], [0.5, 0.5]]]
    assert report["equilibria"][0]["certification"]["equilibrium"] is True


def test_solve_mixed_generic_for_non_max_game(capsys, games_dir):
    code, out, _ = run(capsys, [
        "solve", str(games_dir / "eps_ball_demo.json"), "--mode", "mixed",
        "--grid-depth", "2", "--json",
    ])
    assert code == 0
    report = json.loads(out)
    assert report["solver"] == "grid"
    assert report["count"] >= 1
    for entry in report["equilibria"]:
        assert entry["certification"]["equilibrium"] is True


def test_env_var_budget(capsys, games_dir, monkeypatch):
    monkeypatch.setenv("HOG_BUDGET", "10")
    code, _, err = run(capsys, [
        "solve", str(games_dir / "seq_three_rounds.json"), "--mode",
        "normal-form",
    ])
    assert code == 4
    assert "exceeds budget 10" in err
    # The explicit flag beats the environment.
    code, _, _ = run(capsys, [
        "solve", str(games_dir / "seq_2x_plus_y.json"), "--mode", "seq",
        "--budget", "1000", "--json",
    ])
    assert code == 0


def test_solve_mode_incompatible_with_game_kind(capsys, games_dir):
    code, _, err = run(capsys, [
        "solve", str(games_dir / "seq_2x_plus_y.json"), "--mode", "pure",
    ])
    assert code == 2
    assert "incompatible" in err


def test_exit_codes_are_stable_contract():
    from hog import cli
    assert (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_NOT_EQUILIBRIUM,
            cli.EXIT_BUDGET, cli.EXIT_NO_SOLUTION, cli.EXIT_FUZZ_FAILED) == \
        (0, 2, 3, 4, 5, 6)


PENNIES = {
    "version": 1, "kind": "simultaneous",
    "moves": [["H", "T"], ["H", "T"]],
    "payoffs": [[1, -1, -1, 1], [-1, 1, 1, -1]],
    "quantifiers": [{"kind": "max"}, {"kind": "max"}],
}


def test_non_finite_payoff_exits_2(capsys, tmp_path):
    # Python's json reads NaN and Infinity; the mixed solver used to crash
    # on them with a LinAlgError traceback.
    for bad in (float("nan"), float("inf")):
        doc = json.loads(json.dumps(PENNIES))
        doc["payoffs"][0][0] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["solve", str(path), "--mode", "mixed"])
        assert code == 2
        assert "payoffs[0]" in err and "finite" in err
        assert out == ""


def test_eps_ball_nan_radius_exits_2(capsys, tmp_path):
    # A 400-digit radius used to raise OverflowError from math.isfinite.
    for radius in (float("nan"), 10 ** 400):
        doc = dict(PENNIES, quantifiers=[
            {"kind": "eps_ball", "center": 0, "radius": radius},
            {"kind": "max"}])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["solve", str(path), "--mode", "mixed"])
        assert code == 2
        assert "radius" in err


def test_constant_selection_non_integer_move_exits_2(capsys, games_dir,
                                                     tmp_path):
    # A string move used to end in a TypeError traceback from move < 0.
    doc = json.loads((games_dir / "stage_matching_pennies.json").read_text())
    for move in ("x", 1.5, True):
        doc["selections"][1] = {"kind": "constant", "move": move}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["bbc", str(path)])
        assert code == 2
        assert "selections" in err
        assert out == ""


def test_inline_profile_longer_than_a_file_name(capsys, games_dir):
    # Path(raw).exists() raises ENAMETOOLONG past 255 characters; such an
    # argument is inline JSON.
    half = "0.5" + "0" * 300
    code, out, _ = run(capsys, [
        "check-eq", str(games_dir / "matching_pennies.json"),
        "--profile", f"[[{half},{half}],[{half},{half}]]", "--json",
    ])
    assert code == 0
    assert json.loads(out)["equilibrium"] is True


def test_out_in_missing_directory_exits_2(capsys, games_dir, tmp_path):
    code, out, err = run(capsys, [
        "solve", str(games_dir / "coordination.json"), "--mode", "pure",
        "--out", str(tmp_path / "missing" / "x.json"),
    ])
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


@pytest.mark.parametrize("flag", ["game", "profile"])
def test_file_that_is_not_utf8_exits_2(capsys, games_dir, tmp_path, flag):
    # Both ended in a UnicodeDecodeError traceback with exit 1.
    if flag == "game":
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff\xfe{"version": 1}')
        argv = ["solve", str(path), "--mode", "pure"]
    else:
        path = tmp_path / "badprof.json"
        path.write_bytes(b"[\xff]")
        argv = ["check-eq", str(games_dir / "matching_pennies.json"),
                "--profile", str(path)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"cannot read {path}" in err and "can't decode byte 0xff" in err


def test_game_file_line_endings_and_bom(capsys, games_dir, tmp_path):
    # Game files are read as UTF-8 bytes. CRLF and lone CR line endings
    # read as LF does, and a parse error's line and column count either as
    # a line end; a UTF-8 byte order mark is refused.
    game = games_dir / "matching_pennies.json"
    text = game.read_bytes()
    want = run(capsys, ["solve", str(game), "--mode", "mixed", "--json"])
    assert want[0] == 0
    for name, data in (("crlf", text.replace(b"\n", b"\r\n")),
                       ("cr", text.replace(b"\n", b"\r"))):
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        assert run(capsys, ["solve", str(path), "--mode", "mixed",
                            "--json"]) == want
    for name, data in (("crlf_bad", b'{\r\n"a":\r\n\r\n 1,\r\n\r\n  x}'),
                       ("cr_bad", b'{\r"a":\r\r 1,\r\r\n  x}')):
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        assert run(capsys, ["solve", str(path), "--mode", "pure"]) == (
            2, "", "error: invalid JSON at line 6, column 3: Expecting "
            "property name enclosed in double quotes\n")
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + text)
    assert run(capsys, ["solve", str(path), "--mode", "pure"]) == (
        2, "", "error: invalid JSON at line 1, column 1: Unexpected UTF-8 "
        "BOM (decode using utf-8-sig)\n")


def test_malformed_env_var_budget_exits_2(capsys, games_dir, monkeypatch):
    monkeypatch.setenv("HOG_BUDGET", "abc")
    code, out, err = run(capsys, [
        "solve", str(games_dir / "matching_pennies.json"), "--mode", "pure",
    ])
    assert code == 2
    assert "HOG_BUDGET" in err
    assert out == ""


@pytest.mark.parametrize("env, count, code, message", [
    # With nothing to certify, HOG_BUDGET is never read.
    ("abc", "0", 0, ""),
    ("abc", "1", 2, "error: HOG_BUDGET must be an integer, got 'abc'\n"),
    ("5", "3", 4, "error: enumeration of 54 plays exceeds budget 5\n"),
])
def test_fuzz_env_var_budget(capsys, monkeypatch, env, count, code, message):
    monkeypatch.setenv("HOG_BUDGET", env)
    got, _, err = run(capsys, ["fuzz", "--count", count])
    assert got == code
    assert err == message


def test_negative_env_var_budget_exits_2(capsys, games_dir, monkeypatch):
    # Exited 4, reporting that the game exceeds budget -3.
    monkeypatch.setenv("HOG_BUDGET", "-3")
    code, out, err = run(capsys, [
        "solve", str(games_dir / "matching_pennies.json"), "--mode", "pure",
    ])
    assert code == 2
    assert "HOG_BUDGET must be >= 0" in err
    assert out == ""


def test_invalid_flag_values_exit_2(capsys, games_dir):
    # --grid-depth 0 used to be replaced by the default depth 3, --tol nan
    # made every membership test false, and --budget -1 exited 4, reporting
    # that the game exceeds budget -1.
    solve = ["solve", str(games_dir / "eps_ball_demo.json"), "--mode", "mixed"]
    for command, flag, value in (
            (solve, "--grid-depth", "0"), (solve, "--tol", "nan"),
            (solve, "--tol", "-1"), (solve, "--budget", "-1"),
            (["fuzz", "--count", "1"], "--budget", "-1")):
        with pytest.raises(SystemExit) as exc:
            main([*command, flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--max-rounds", "0"], "--max-rounds: not an integer >= 1"),
    (["--max-moves", "1"], "--max-moves: not an integer >= 2"),
    (["--payoff-min", "5", "--payoff-max", "1"], "must be >= --payoff-min"),
    (["--count", "-1"], "--count: not an integer >= 0"),
    # Bounds past the float range were an OverflowError traceback from the
    # game constructor.
    (["--payoff-max", str(10 ** 400)], "--payoff-max: must be within the float"),
    (["--family", "bbc", "--payoff-max", str(10 ** 400)],
     "--payoff-max: must be within the float"),
    (["--payoff-min", str(-10 ** 400)], "--payoff-min: must be within the float"),
])
def test_fuzz_rejects_empty_ranges(capsys, flags, message):
    # The first three ended in a ValueError traceback from randrange, and
    # --count -1 exited 0 having checked nothing.
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--count", "2", *flags])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "hog fuzz: error:" in out.err and message in out.err
    assert "Traceback" not in out.err


@pytest.mark.parametrize("profile, message", [
    # float(10**400) overflows: this was an OverflowError traceback.
    ([[10 ** 400, 0], [1, 0]], "profile[0]: probabilities must be finite"),
    # JSON booleans were read as the probabilities 1 and 0.
    ([[True, False], [False, True]],
     "profile[0]: mixed strategies are lists of probabilities"),
], ids=["oversized-integer", "booleans"])
def test_mixed_profile_with_oversized_integer_exits_2(capsys, games_dir,
                                                      profile, message):
    code, out, err = run(capsys, [
        "check-eq", str(games_dir / "matching_pennies.json"),
        "--profile", json.dumps(profile),
    ])
    assert code == 2
    assert out == ""
    assert message in err


# numpy reports an overflow as a warning, which pytest would capture
# before it reached stderr.
@pytest.mark.filterwarnings("error")
def test_solve_mixed_on_huge_payoffs_prints_no_warning(capsys, tmp_path):
    # The grid screen and the certificate of these max/min games take
    # differences of +-1.7e308, which overflow to inf.
    big = 1.7e308
    games = {
        "two": ([[big, -big, 0, 0], [-big, big, 0, 0]],
                ["max", "min"]),
        "three": ([[big, -big, 0, 0, 0, 0, -big, big],
                   [-big, big, 0, 0, big, 0, 0, -big],
                   [0, 0, big, -big, 0, big, -big, 0]],
                  ["max", "min", "max"]),
    }
    for name, (payoffs, kinds) in games.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "version": 1, "kind": "simultaneous",
            "moves": [["a", "b"]] * len(kinds), "payoffs": payoffs,
            "quantifiers": [{"kind": kind} for kind in kinds]}))
        code, out, err = run(capsys, ["solve", str(path), "--mode", "mixed"])
        assert (code, err) == (0, "")
        assert "equilibrium: True" in out


@pytest.mark.filterwarnings("error")
def test_solve_mixed_on_huge_max_payoffs_finds_pure_equilibria(capsys,
                                                               tmp_path):
    # 3x3 max/max games with payoffs near +-1.7e308: rounding alone exceeds
    # the absolute residual tolerance of support enumeration there, and its
    # residuals and regrets overflow. Files 2, 3, 4, 7 and 8 of this draw
    # each have a pure equilibrium, which support enumeration must report,
    # certified.
    rng = np.random.default_rng(5)
    draws = [rng.choice([1.7e308, -1.7e308, 1e308, -1e308, 0.0], (2, 3, 3))
             for _ in range(10)]
    paths = []
    for n, draw in enumerate(draws):
        paths.append(tmp_path / f"huge{n}.json")
        paths[n].write_text(json.dumps({
            "version": 1, "kind": "simultaneous",
            "moves": [["a", "b", "c"]] * 2,
            "payoffs": [draw[0].ravel().tolist(), draw[1].ravel().tolist()],
            "quantifiers": [{"kind": "max"}] * 2}))
    for n in (2, 3, 4, 7, 8):
        path = paths[n]
        code, out, err = run(capsys, ["solve", str(path), "--mode", "pure",
                                      "--json"])
        assert (code, err) == (0, "")
        pure = json.loads(out)["equilibria"]
        assert pure
        code, out, err = run(capsys, ["solve", str(path), "--mode", "mixed",
                                      "--json"])
        assert (code, err) == (0, "")
        found = json.loads(out)["equilibria"]
        assert all(eq["certification"]["equilibrium"] for eq in found)
        vertices = [[s.index(1.0) for s in eq["profile"]] for eq in found
                    if all(sorted(s)[-2:] == [0.0, 1.0]
                           for s in eq["profile"])]
        assert all(profile in vertices for profile in pure), n
    # File 1's one equilibrium, on supports {a, c} and {b, c}, is certified
    # only from the solve on the unscaled payoffs.
    code, out, err = run(capsys, ["solve", str(paths[1]), "--mode", "mixed",
                                  "--json"])
    assert (code, err) == (0, "")
    [eq] = json.loads(out)["equilibria"]
    assert eq["certification"]["equilibrium"]
    assert [[p > 0 for p in s] for s in eq["profile"]] == [
        [True, False, True], [False, True, True]]


def test_solve_mixed_lists_only_certified_profiles(capsys, tmp_path):
    # At tol 0 the solver certified a profile validated once more than the
    # one its report certified; on this game the two readings disagreed on
    # ((1), (0.2, 0.6, 0.2)), which was listed with equilibrium false.
    path = tmp_path / "one_by_three.json"
    path.write_text(json.dumps({
        "version": 1, "kind": "simultaneous",
        "moves": [["m0"], ["m0", "m1", "m2"]],
        "payoffs": [[-1, 0, -1], [-1, -1, -1]],
        "quantifiers": [{"kind": "min"}, {"kind": "max"}]}))
    code, out, _ = run(capsys, ["solve", str(path), "--mode", "mixed",
                                "--tol", "0", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 6
    assert all(eq["certification"]["equilibrium"]
               for eq in report["equilibria"])


def _certification_games(rng):
    """Seeded 2-player max/min games with 1-5 moves a side, and 3-player
    2x2x2 max/min games, with continuous payoffs and with small integers
    (whose ties make degenerate games)."""
    kinds = [{"kind": "max"}, {"kind": "min"}]
    games = [[m0, m1] for m0 in range(1, 6) for m1 in range(1, 6)
             for _ in range(2)] + [[2, 2, 2]] * 12
    for n, counts in enumerate(games):
        size = int(np.prod(counts))
        if n % 2:
            payoffs = rng.integers(-1, 2, (len(counts), size)).astype(float)
        else:
            payoffs = rng.uniform(-1, 1, (len(counts), size))
        yield {"version": 1, "kind": "simultaneous",
               "moves": [[f"m{j}" for j in range(c)] for c in counts],
               "payoffs": payoffs.tolist(),
               "quantifiers": [kinds[k] for k in
                               rng.integers(0, 2, len(counts))]}


def test_check_eq_at_tol_0_accepts_what_solve_lists(capsys, tmp_path):
    # On this 4x5 game check-eq normalised one listed profile a second
    # time, read other bits than the certificate 'solve' printed, and
    # exited 3.
    doc = list(_certification_games(np.random.default_rng(13)))[39]
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["solve", str(path), "--mode", "mixed",
                                "--tol", "0", "--json"])
    assert code == 0
    listed = json.loads(out)["equilibria"]
    assert listed
    for eq in listed:
        code, out, _ = run(capsys, ["check-eq", str(path), "--tol", "0",
                                    "--profile", json.dumps(eq["profile"])])
        assert code == 0


def test_solve_mixed_report_is_the_certificate(capsys, tmp_path):
    # Every listed profile passes is_mixed_nash, and its report prints what
    # the public functions give at the listed profile, bit for bit.
    listed = 0
    for n, doc in enumerate(_certification_games(np.random.default_rng(17))):
        path = tmp_path / f"game{n}.json"
        path.write_text(json.dumps(doc))
        g = hog.gamefile.load_game(path).game
        for tol in (1e-9, 0.0):
            code, out, _ = run(capsys, ["solve", str(path), "--mode", "mixed",
                                        "--tol", repr(tol), "--json"])
            # At tol 0 support enumeration may find nothing (exit 5).
            assert code in (0, 5)
            for eq in json.loads(out)["equilibria"]:
                listed += 1
                profile = [np.array(s) for s in eq["profile"]]
                assert hog.mixed.is_mixed_nash(g, profile, tol)
                cert = eq["certification"]
                assert cert["equilibrium"] is True
                for i, player in enumerate(cert["players"]):
                    table = hog.mixed.mixed_unilateral_table(g, i, profile)
                    value = hog.mixed.expected_outcome(g, i, profile)
                    assert player["deviation_table"] == list(table.entries)
                    assert player["value"] == value
                    assert player["acceptable"] is g.quantifiers[i].contains(
                        table, value, tol)
    assert listed > 100


def test_solve_mixed_certifies_each_profile_once(capsys, games_dir, tmp_path,
                                                 monkeypatch):
    # Each profile that reaches certification gets one player_certificates
    # call, inside is_mixed_nash; the report prints the rows of the call
    # that accepted it instead of certifying the profile again. Both
    # solvers, at two tols.
    certified, checked = [], []
    certificates = hog.mixed.player_certificates
    nash = hog.mixed.is_mixed_nash

    def counting_certificates(g, profile, tol=1e-9):
        certified.append(profile)
        return certificates(g, profile, tol)

    def counting_nash(g, profile, tol=1e-9):
        checked.append(profile)
        return nash(g, profile, tol)

    monkeypatch.setattr(hog.mixed, "player_certificates", counting_certificates)
    monkeypatch.setattr(hog.mixed, "is_mixed_nash", counting_nash)
    rng = np.random.default_rng(3)
    three = tmp_path / "three.json"
    three.write_text(json.dumps({
        "version": 1, "kind": "simultaneous", "moves": [["a", "b"]] * 3,
        "payoffs": rng.integers(-1, 2, (3, 8)).tolist(),
        "quantifiers": [{"kind": "max"}] * 3}))
    cases = [(games_dir / "coordination.json", "support_enumeration"),
             (games_dir / "rock_paper_scissors.json", "support_enumeration"),
             (games_dir / "eps_ball_demo.json", "grid"),
             (three, "grid")]
    for path, solver in cases:
        for tol in ("1e-9", "0"):
            certified.clear()
            checked.clear()
            code, out, _ = run(capsys, ["solve", str(path), "--mode", "mixed",
                                        "--tol", tol, "--json"])
            assert code == 0
            report = json.loads(out)
            assert report["solver"] == solver
            assert report["count"] >= 1
            assert len(certified) == len(checked) >= report["count"]


def _pinned_commands(doc):
    """The commands the pinned-output test runs on a shipped game: the
    flags after the game path, and whether the command writes an artifact."""
    if doc["kind"] == "sequential":
        return [(["solve", "--mode", "seq"], True),
                (["solve", "--mode", "normal-form"], True),
                (["normal-form"], True)]
    counts = [len(moves) for moves in doc["moves"]]
    pure = json.dumps([0] * len(counts))
    uniform = json.dumps([[1 / c] * c for c in counts])
    return [(["check-eq", "--profile", pure], False),
            (["check-eq", "--profile", uniform], False),
            *((["solve", "--mode", mode], True)
              for mode in ("pure", "mixed", "bbc")),
            (["bbc"], True)]


def _json_or_text(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def test_shipped_games_output_is_pinned(capsys, games_dir, tmp_path):
    # Exit code, stdout, stderr and every --out artifact of each command on
    # each shipped game, in text and --json, as one digest: the reader and
    # the report writer may change shape, but not what a user sees. A second
    # digest reads each JSON output as its value, which the layout of the
    # JSON writer does not change.
    records, values = [], []
    for path in sorted(games_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        if "kind" not in doc:
            continue
        for (command, *flags), writes in _pinned_commands(doc):
            for as_json in ([], ["--json"]):
                for out in ([[], ["--out"]] if writes else [[]]):
                    out_dir = tmp_path / str(len(records))
                    argv = [command, str(path), *flags, *as_json, *out]
                    if out:
                        out_dir.mkdir()
                        argv.append(str(out_dir))
                    code, stdout, stderr = run(capsys, argv)
                    files = sorted(out_dir.glob("*"))
                    artifacts = [
                        (f.name, hashlib.sha256(f.read_bytes()).hexdigest())
                        for f in files]
                    command_line = [command, path.name, *flags, *as_json,
                                    *out, *(["OUT"] if out else [])]
                    stdout = stdout.replace(str(out_dir), "OUT")
                    stderr = stderr.replace(str(out_dir), "OUT")
                    records.append([command_line, code, stdout, stderr,
                                    artifacts])
                    values.append([command_line, code, _json_or_text(stdout),
                                   stderr, [(f.name, json.loads(f.read_text()))
                                            for f in files]])
    assert len(records) == 156
    digest = hashlib.sha256(
        json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == (
        "779934698d6ad8661c6c0d04e4c5e2457cd3a3f136e73176aca5a7c1b976f272")
    digest = hashlib.sha256(
        json.dumps(values, sort_keys=True).encode()).hexdigest()
    assert digest == (
        "0c8a3221dfd7d918ffcb97bae2b3ad5ee7f76cee31a6dc2a4fb3022ead2cfbc3")


# A number as json.dumps writes it, NaN and the infinities included.
_NUMBER = r"-?(?:Infinity|NaN|\d[\d.eE+-]*)"
_NUMBER_LIST = re.compile(rf"\[\n *({_NUMBER}(?:,\n *{_NUMBER})*)\n *\]")


def _documented_layout(value) -> str:
    """json.dumps(value, indent=2, sort_keys=True) with each list whose
    entries are all numbers joined onto one line, as the README documents
    the --json layout."""
    return _NUMBER_LIST.sub(
        lambda m: "[" + re.sub(r",\n *", ", ", m.group(1)) + "]",
        json.dumps(value, indent=2, sort_keys=True))


def test_json_writer_puts_number_lists_on_one_line(capsys, games_dir,
                                                   tmp_path, monkeypatch):
    # Every --json report, --out artifact, normal-form document and fuzz
    # corpus file: the JSON value of json.dumps(value, indent=2,
    # sort_keys=True), in its layout except that each list of numbers sits
    # on one line.
    written = {}
    dump = hog.cli._dump

    def recording(value, *pad):
        text = dump(value, *pad)
        if not pad:
            indented = json.dumps(value, indent=2, sort_keys=True)
            assert json.loads(text) == json.loads(indented)
            assert text == _documented_layout(value)
            written[text + "\n"] = indented.count("\n") - text.count("\n")
        return text

    monkeypatch.setattr(hog.cli, "_dump", recording)
    outputs = []
    for path in sorted(games_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        if "kind" not in doc:
            continue
        for (command, *flags), _ in _pinned_commands(doc):
            for out in ([], ["--json"], ["--json", "--out"]):
                out_dir = tmp_path / str(len(outputs))
                out_dir.mkdir()
                argv = [command, str(path), *flags, *out]
                code, stdout, _ = run(capsys, argv + (
                    [str(out_dir)] if "--out" in out else []))
                outputs.append((argv, code, stdout,
                                [f.read_text() for f in out_dir.glob("*")]))
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    argv = ["fuzz", "--seed", "3", "--count", "5", "--json", "--out",
            str(corpus)]
    code, stdout, _ = run(capsys, argv)
    outputs.append((argv, code, stdout,
                    [f.read_text() for f in corpus.glob("*")]))
    reports = files = 0
    for argv, code, stdout, artifacts in outputs:
        if code in (0, 3) and ("--json" in argv or "normal-form" in argv
                               and "--out" not in argv):
            assert stdout in written, argv
            reports += 1
        for artifact in artifacts:
            assert artifact in written, argv
            files += 1
    assert (reports, files) == (77, 50)
    # Every document but the fuzz report and the pure reports of the games
    # with no pure equilibrium has a list of numbers to join: payoffs,
    # tables, profiles, plays or strategies.
    assert len(written) == 80
    assert sum(saved > 0 for saved in written.values()) == 75


def test_json_writer_lays_out_adversarial_leaves():
    # The rule above on leaves no shipped report holds: escapes, booleans
    # and null among numbers, integers past 64 bits, the smallest subnormal,
    # negative zero, empty containers, a tuple and keys that are not
    # strings.
    value = {
        "text": ["café ☃ \U0001F600", "\x00\x1f\"\\/\t\n", ""],
        "flags": [True, False, None],
        "mixed": [1, True, 2.5, None, "1", -0.0],
        "numbers": [2 ** 70, -2 ** 70, -0.0, 5e-324, 1.7976931348623157e308,
                    0, -1],
        "leaves": [True, False, None, 2 ** 70, -0.0, 5e-324, "é"],
        "empty": {"dict": {}, "list": [], "nested": [[], {}, [[]]]},
        "tuple": (1, "a", (2.5, 3), ()),
        "keys": {3: "int", 2.5: "float", False: "bool", -1: [1, 2]},
        "null key": {None: [None, 0.5]},
        "bool leaf": True,
        "int leaf": 2 ** 70,
        "null leaf": None,
        "float leaf": 5e-324,
    }
    text = hog.cli._dump(value)
    assert text == _documented_layout(value)
    assert json.loads(text) == json.loads(
        json.dumps(value, indent=2, sort_keys=True))
    for leaf in (True, False, None, 0, -2 ** 70, "é\x00", -0.0, 5e-324,
                 [], {}, ()):
        assert hog.cli._dump(leaf) == json.dumps(leaf, indent=2,
                                                 sort_keys=True)


# What the command-line edge prints on usage errors and help, as argparse
# lays it out on a terminal 80 columns wide: exit code, stdout, stderr.
_TOP_USAGE = "usage: hog [-h] {check-eq,solve,normal-form,bbc,fuzz} ...\n"
_BBC_USAGE = ("usage: hog bbc [-h] [--tol TOL] [--budget BUDGET] [--json] "
              "[--out OUT] game\n")
_ARGV_EDGES = {
    "no arguments": (
        [], 2, "",
        _TOP_USAGE + "hog: error: the following arguments are required: "
        "command\n"),
    "unknown command": (
        ["nope"], 2, "",
        _TOP_USAGE + "hog: error: argument command: invalid choice: 'nope' "
        "(choose from 'check-eq', 'solve', 'normal-form', 'bbc', 'fuzz')\n"),
    "command without its game": (
        ["bbc"], 2, "",
        _BBC_USAGE + "hog bbc: error: the following arguments are required: "
        "game\n"),
    "unrecognized flag": (
        ["bbc", "GAME", "--bogus"], 2, "",
        _TOP_USAGE + "hog: error: unrecognized arguments: --bogus\n"),
    "refused flag value": (
        ["bbc", "GAME", "--tol=-1"], 2, "",
        _BBC_USAGE + "hog bbc: error: argument --tol: not a finite number "
        ">= 0: '-1'\n"),
    "missing required flag": (
        ["solve", "PENNIES"], 2, "",
        "usage: hog solve [-h] [--tol TOL] [--budget BUDGET] [--json] "
        "[--out OUT]\n"
        "                 --mode {pure,mixed,seq,bbc,normal-form}\n"
        "                 [--grid-depth GRID_DEPTH]\n"
        "                 game\n"
        "hog solve: error: the following arguments are required: --mode\n"),
    "top-level help": (
        ["-h"], 0,
        _TOP_USAGE + "\n"
        "Build, solve, transform, and verify higher-order games.\n"
        "\n"
        "positional arguments:\n"
        "  {check-eq,solve,normal-form,bbc,fuzz}\n"
        "    check-eq            certify a profile as an equilibrium\n"
        "    solve               solve a game\n"
        "    normal-form         export the normal form of a sequential game\n"
        "    bbc                 run the independent-pair functional\n"
        "    fuzz                certify random games against the checkers\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n", ""),
    "command help": (
        ["bbc", "-h"], 0,
        _BBC_USAGE + "\n"
        "positional arguments:\n"
        "  game             path to a game file (JSON)\n"
        "\n"
        "options:\n"
        "  -h, --help       show this help message and exit\n"
        "  --tol TOL        membership tolerance (default from file, else "
        "1e-9)\n"
        "  --budget BUDGET  enumeration budget (default 10^6 or HOG_BUDGET)\n"
        "  --json           emit the report as JSON\n"
        "  --out OUT        write the result artifact to this path\n", ""),
    "check-eq takes no budget": (
        ["check-eq", "PENNIES", "--profile", "[0, 0]", "--budget", "5"], 2, "",
        _TOP_USAGE + "hog: error: unrecognized arguments: --budget 5\n"),
    "refused count": (
        ["fuzz", "--count", "-1"], 2, "",
        "usage: hog fuzz [-h] [--seed SEED] [--count COUNT]\n"
        "                [--family {all,seq,normal-form,bbc}] "
        "[--max-rounds MAX_ROUNDS]\n"
        "                [--max-moves MAX_MOVES] [--payoff-min PAYOFF_MIN]\n"
        "                [--payoff-max PAYOFF_MAX] [--budget BUDGET] "
        "[--json]\n"
        "                [--out OUT]\n"
        "hog fuzz: error: argument --count: not an integer >= 0: '-1'\n"),
}


def _exit_and_streams(capsys, call):
    """Exit code, stdout and stderr of a call of main that may exit."""
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _edge_argv(argv, games_dir):
    paths = {"GAME": games_dir / "stage_matching_pennies.json",
             "PENNIES": games_dir / "matching_pennies.json"}
    return [str(paths.get(arg, arg)) for arg in argv]


@pytest.mark.parametrize("argv, code, out, err", _ARGV_EDGES.values(),
                         ids=_ARGV_EDGES.keys())
def test_argv_edges_are_pinned(capsys, games_dir, monkeypatch, argv, code,
                               out, err):
    monkeypatch.setenv("COLUMNS", "80")
    argv = _edge_argv(argv, games_dir)
    assert _exit_and_streams(capsys, lambda: main(argv)) == (code, out, err)
    # main() reads sys.argv past the program name.
    monkeypatch.setattr(sys, "argv", ["hog", *argv])
    assert _exit_and_streams(capsys, main) == (code, out, err)


def test_main_reads_sys_argv(capsys, games_dir, monkeypatch):
    argv = ["bbc", str(games_dir / "stage_matching_pennies.json"), "--json"]
    want = _exit_and_streams(capsys, lambda: main(argv))
    assert want[0] == 0 and json.loads(want[1])["mode"] == "bbc"
    monkeypatch.setattr(sys, "argv", ["hog", *argv])
    assert _exit_and_streams(capsys, main) == want


def test_version_true_exits_2(capsys, games_dir, tmp_path):
    # bool is a subclass of int, but true is no version number.
    doc = json.loads((games_dir / "matching_pennies.json").read_text())
    game = tmp_path / "game.json"
    game.write_text(json.dumps(dict(doc, version=True)))
    assert run(capsys, ["solve", str(game), "--mode", "pure"]) == (
        2, "", "error: version: unexpected type bool\n")


@pytest.mark.parametrize("name, key, index, labels, command", [
    ("matching_pennies.json", "moves", 0, ["H", "H"],
     ["check-eq", "--profile", '["H", "H"]']),
    ("matching_pennies.json", "moves", 1, [1, "1"], ["solve", "--mode", "pure"]),
    ("stage_matching_pennies.json", "moves", 1, ["T", "T"], ["bbc"]),
    ("seq_2x_plus_y.json", "rounds", 1, ["y", "y"], ["solve", "--mode", "seq"]),
])
def test_repeated_move_labels_exit_2(capsys, games_dir, tmp_path, name, key,
                                     index, labels, command):
    # A repeated label would name only the first of its moves; labels are
    # compared as the strings they load as.
    doc = json.loads((games_dir / name).read_text())
    doc[key][index] = labels
    game = tmp_path / "game.json"
    game.write_text(json.dumps(doc))
    assert run(capsys, [command[0], str(game), *command[1:]]) == (
        2, "", f"error: {key}[{index}]: move labels must be distinct\n")


@pytest.mark.parametrize("name, edit, command, field", [
    ("matching_pennies.json", None,
     ["check-eq", "--profile", "not json"], "profile"),
    ("matching_pennies.json", None, ["check-eq", "--profile", "{}"], "profile"),
    ("matching_pennies.json", None, ["check-eq", "--profile", "[]"], "profile"),
    ("matching_pennies.json", None, ["solve", "--mode", "seq"], "mode"),
    ("matching_pennies.json", None, ["solve", "--mode", "normal-form"], "mode"),
    ("matching_pennies.json", None, ["normal-form"], "mode"),
    ("matching_pennies.json", ("quantifiers", [1, {"kind": "max"}]),
     ["solve", "--mode", "pure"], "quantifiers[0]"),
    ("matching_pennies.json", ("quantifiers", [{"kind": "max"}]),
     ["solve", "--mode", "pure"], "quantifiers"),
])
def test_refused_inputs_exit_2_naming_the_field(capsys, games_dir, tmp_path,
                                                name, edit, command, field):
    doc = json.loads((games_dir / name).read_text())
    if edit:
        doc[edit[0]] = edit[1]
    game = tmp_path / "game.json"
    game.write_text(json.dumps(doc))
    code, out, err = run(capsys, [command[0], str(game), *command[1:]])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {field}: ") and "Traceback" not in err


def test_check_eq_profile_whose_sum_overflows_exits_2(capsys, games_dir):
    # A strategy whose probabilities sum past the largest float is refused
    # by the sum check, with no numpy warning on stderr (nor an error from
    # one, as pytest turns RuntimeWarning into).
    code, out, err = run(capsys, [
        "check-eq", str(games_dir / "matching_pennies.json"),
        "--profile", "[[1e308, 1e308], [0.5, 0.5]]"])
    assert (code, out) == (2, "")
    assert err == "error: profile: probabilities sum to inf, expected 1\n"


def test_grid_matrices_beyond_the_budget_exit_4(capsys, tmp_path):
    # 1100 grid profiles at depth 1, but the third player's grid matrix
    # alone has 1100 x 1100 entries: refused before any grid is built.
    game = tmp_path / "game.json"
    game.write_text(json.dumps({
        "version": 1, "kind": "simultaneous",
        "moves": [["a"], ["a"], [f"m{k}" for k in range(1100)]],
        "payoffs": [[0] * 1100] * 3,
        "quantifiers": [{"kind": "max"}] * 3,
    }))
    code, out, err = run(capsys, ["solve", str(game), "--mode", "mixed",
                                  "--grid-depth", "1"])
    assert (code, out) == (4, "")
    assert err == ("error: enumeration of 1210002 grid matrix entries "
                   "exceeds budget 1000000\n")


def _hog(*argv, timeout=60, digits=None):
    """The CLI in a process of its own, where nothing but the program
    installs a logging handler, and a traceback reaches stderr. With
    ``digits``, the interpreter's limit on int-to-decimal conversion is set
    to it through PYTHONINTMAXSTRDIGITS (0: no limit)."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    env.pop("HOG_BUDGET", None)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    if digits is not None:
        env["PYTHONINTMAXSTRDIGITS"] = str(digits)
    return subprocess.run([sys.executable, "-m", "hog.cli", *map(str, argv)],
                          capture_output=True, text=True, timeout=timeout,
                          env=env)


def test_budget_counts_too_long_to_print_exit_4(tmp_path):
    # Each count has more digits than str() prints by default: 2^16384
    # contingent moves of one 15-round player, (2^15000 - 1) support pairs,
    # and the plays of a game of tens of thousands of rounds. The message is
    # the same when the interpreter prints ints of any size.
    rounds = 15
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({
        "version": 1, "kind": "sequential", "rounds": [["a", "b"]] * rounds,
        "payoffs": [0] * 2 ** rounds,
        "quantifiers": [{"kind": "max"}] * rounds,
        "selections": [{"kind": "argmax"}] * rounds}))
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({
        "version": 1, "kind": "simultaneous",
        "moves": [[f"m{k}" for k in range(15000)], ["a"]],
        "payoffs": [[0] * 15000] * 2, "quantifiers": [{"kind": "max"}] * 2}))
    for argv, err in [
            (["normal-form", seq], "at least 2^16384 contingent moves"),
            (["solve", wide, "--mode", "mixed"], "at least 2^14999 support pairs"),
            (["fuzz", "--family", "seq", "--max-rounds", "100000", "--count",
              "3", "--seed", "1"], "at least 2^14284 plays")]:
        for digits in (None, 0):
            done = _hog(*argv, digits=digits)
            assert (done.returncode, done.stdout, done.stderr) == (
                4, "", f"error: enumeration of {err} exceeds budget 1000000\n")
    # The count itself stays exact.
    exc = hog.errors.BudgetExceededError(3 ** 9100, 5, "plays")
    assert exc.count == 3 ** 9100
    assert str(exc) == "enumeration of at least 2^14423 plays exceeds budget 5"
    # Up to 4300 digits a count is written out in full, whatever the limit
    # of the interpreter it runs in; from 4301 digits it never is.
    for count in (0, 10 ** 600 - 1, 10 ** 600, 7 ** 3000, 10 ** 4300 - 1):
        # The count is passed in hex, which the limit does not cover.
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from hog.errors import "
             "BudgetExceededError as E; print(E(int(sys.argv[1], 16), 5))",
             hex(count)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONINTMAXSTRDIGITS="640",
                     PYTHONPATH=str(Path(hog.errors.__file__).parent.parent)))
        assert done.stdout == f"enumeration of {count} items exceeds budget 5\n"
    assert str(hog.errors.BudgetExceededError(10 ** 4300, 5)) == (
        "enumeration of at least 2^14284 items exceeds budget 5")


def test_fuzz_of_millions_of_rounds_is_refused_at_once():
    # The fewest plays of the drawn rounds already have more digits than
    # str() prints by default, so the sweep refuses before it draws a move
    # count, also when the interpreter prints ints of any size.
    for digits in (None, 0):
        done = _hog("fuzz", "--family", "seq", "--max-rounds", "3000000",
                    "--count", "3", "--seed", "1", timeout=10, digits=digits)
        assert (done.returncode, done.stdout, done.stderr) == (
            4, "", "error: enumeration of at least 2^14284 plays exceeds "
            "budget 1000000\n")


def test_exit_5_reports_once(tmp_path):
    # At tol 0 support enumeration certifies nothing on this game; the
    # solver's warning goes to the package's logger, and only the CLI's
    # own error line reaches stderr.
    rng = np.random.default_rng(0)
    payoffs = [rng.uniform(-1, 1, (2, 9)) for _ in range(3)][-1]
    game = tmp_path / "game.json"
    game.write_text(json.dumps({
        "version": 1, "kind": "simultaneous", "moves": [["a", "b", "c"]] * 2,
        "payoffs": payoffs.tolist(), "quantifiers": [{"kind": "max"}] * 2}))
    done = _hog("solve", game, "--mode", "mixed", "--tol", "0")
    assert done.returncode == 5
    assert done.stderr == (
        "error: no equilibrium found although the existence theorem "
        "guarantees one for this game; this indicates a solver bug\n")
