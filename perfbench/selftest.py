"""Self-tests of the benchmark's answer checks and input oracles.

Run from the repository root:  python3 perfbench/selftest.py

The checks must accept ``hog``'s answers on the shipped ``games/`` examples,
agree with the answers known for them, and reject a deliberately perturbed
answer. Exits 1 if any test fails.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import traceback
from pathlib import Path

import numpy as np

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
GAMES = ROOT / "games"
sys.path.insert(0, str(ROOT / "src"))

import hog.cli  # noqa: E402


def run_cli(argv: list[str]) -> tuple[dict, int]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = hog.cli.main(argv)
    return json.loads(buf.getvalue()), rc


def load(name: str) -> tuple[str, dict]:
    path = GAMES / name
    return str(path), json.loads(path.read_text())


def solve_mixed(name: str) -> tuple[dict, int, list[np.ndarray]]:
    path, doc = load(name)
    report, rc = run_cli(["solve", path, "--mode", "mixed", "--json"])
    return report, rc, checks.payoff_tensors(doc)


def with_profile(report: dict, profile) -> dict:
    bad = copy.deepcopy(report)
    bad["equilibria"][0]["profile"] = profile
    return bad


def check_2p(report, rc, payoffs):
    return checks.check_mixed(report, rc, payoffs, "support_enumeration", True)


def test_matching_pennies_uniform():
    report, rc, payoffs = solve_mixed("matching_pennies.json")
    assert check_2p(report, rc, payoffs) == ([], 1)
    assert np.allclose(report["equilibria"][0]["profile"], 0.5)
    errors, _ = check_2p(with_profile(report, [[0.6, 0.4], [0.5, 0.5]]), rc, payoffs)
    assert any("regret" in e for e in errors), errors


def test_rock_paper_scissors_uniform():
    report, rc, payoffs = solve_mixed("rock_paper_scissors.json")
    assert check_2p(report, rc, payoffs) == ([], 1)
    assert np.allclose(report["equilibria"][0]["profile"], 1 / 3)
    bad = with_profile(report, [[0.5, 0.25, 0.25], [1 / 3, 1 / 3, 1 / 3]])
    errors, _ = check_2p(bad, rc, payoffs)
    assert any("regret" in e for e in errors), errors


def test_prisoners_dilemma_single_pure():
    report, rc, payoffs = solve_mixed("prisoners_dilemma.json")
    assert checks.pure_equilibria(payoffs) == [(1, 1)]
    assert check_2p(report, rc, payoffs) == ([], 1)
    assert np.allclose(report["equilibria"][0]["profile"], [[0, 1], [0, 1]])
    errors, _ = check_2p(with_profile(report, [[1.0, 0.0], [1.0, 0.0]]), rc, payoffs)
    assert any("regret" in e for e in errors), errors
    dropped = dict(report, equilibria=[], count=0)
    errors, _ = check_2p(dropped, rc, payoffs)
    assert any("missing" in e for e in errors), errors
    assert any("must be odd" in e for e in errors), errors
    errors, _ = checks.check_mixed(report, rc, payoffs, "grid", False)
    assert any("solver" in e for e in errors), errors


def test_bimatrix_oracle_counts():
    counts = {"matching_pennies.json": 1, "prisoners_dilemma.json": 1,
              "coordination.json": 3,
              # Degenerate: some support systems are singular.
              "rock_paper_scissors.json": None}
    for name, want in counts.items():
        a, b = checks.payoff_tensors(load(name)[1])
        assert workloads.bimatrix_equilibrium_count(a, b) == want, name


def test_grid_check_three_players():
    # All three players score 1 when they all match, else 0: the pure
    # equilibria are (0,0,0) and (1,1,1).
    match = np.zeros((2, 2, 2))
    match[0, 0, 0] = match[1, 1, 1] = 1.0
    payoffs = [match] * 3
    assert checks.pure_equilibria(payoffs) == [(0, 0, 0), (1, 1, 1)]
    vertex = lambda m: [[1.0 - m, float(m)]] * 3  # noqa: E731
    report = {"solver": "grid", "count": 2,
              "equilibria": [{"profile": vertex(0)}, {"profile": vertex(1)}]}
    assert checks.check_mixed(report, 0, payoffs, "grid", False) == ([], 2)
    bad = with_profile(report, [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    errors, _ = checks.check_mixed(bad, 0, payoffs, "grid", False)
    assert any("regret" in e for e in errors), errors
    dropped = dict(report, equilibria=report["equilibria"][1:], count=1)
    errors, _ = checks.check_mixed(dropped, 0, payoffs, "grid", False)
    assert any("missing" in e for e in errors), errors


def test_stage_matching_pennies_pair():
    path, doc = load("stage_matching_pennies.json")
    payoff = np.asarray(doc["payoffs"], dtype=float).reshape(2, 2)
    report, rc = run_cli(["bbc", path, "--json"])
    assert report["pair"] == [0, 0]
    assert checks.check_stage(report, rc, payoff) == ([], 1)
    assert workloads.planned_reply_functions(payoff) == 2
    for key, value in (("pair", [1, 0]), ("outcome", -1.0), ("reply_robust", False)):
        errors, _ = checks.check_stage(dict(report, **{key: value}), rc, payoff)
        assert errors, key
    bad = copy.deepcopy(report)
    bad["comparison"]["product"]["pair"] = [1, 1]
    errors, _ = checks.check_stage(bad, rc, payoff)
    assert any("product" in e for e in errors), errors


def test_fuzz_report():
    report, rc = run_cli(workloads.fuzz_argv(7, count=2))
    assert checks.check_fuzz(report, rc, 2) == ([], 6)
    assert checks.check_fuzz(dict(report, ok=False), rc, 2)[0]
    assert checks.check_fuzz(dict(report, checked=5), rc, 2)[0]
    assert checks.check_fuzz(report, 6, 2)[0]


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception:  # report every failing test, then exit non-zero
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
