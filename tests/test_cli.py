import json

import hog.cli
import hog.fuzz
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
    code, _, err = run(capsys, [
        "fuzz", "--seed", "1", "--count", "1", "--family", "normal-form",
        "--max-moves", "5",
    ])
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
    failing = json.loads(open(written).read())
    assert failing["kind"] == "sequential"


def test_bbc_on_simultaneous_file_with_selections(capsys, tmp_path):
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
