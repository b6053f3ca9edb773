import json

import numpy as np
import pytest

import hog.cli
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
    # Corrupt the optimality checker: fuzz must detect it, shrink, and write
    # the failing game.
    monkeypatch.setattr(hog.sequential, "is_optimal_strategy",
                        lambda *a, **k: False)
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
