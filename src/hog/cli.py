"""Batch command-line front end.

Subcommands: check-eq, solve, normal-form, bbc, fuzz. Exit codes:

    0   success (check-eq: the profile is an equilibrium)
    2   parse or shape error, or a file that cannot be read or written
    3   check-eq: not an equilibrium
    4   enumeration budget exceeded
    5   solver found nothing where the existence theorem guarantees one
    6   fuzz certification failure (the minimized game is written out)

Reports go to stdout as text, or as JSON with --json. The enumeration budget
defaults to 10**6 and can be overridden with --budget or HOG_BUDGET.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import fuzz as fuzz_mod
from . import gamefile, minimax, mixed, normalform, sequential, simultaneous
from .core import as_outcome
from .errors import (BudgetExceededError, GameFileError, HogError,
                     StructuralError)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_EQUILIBRIUM = 3
EXIT_BUDGET = 4
EXIT_NO_SOLUTION = 5
EXIT_FUZZ_FAILED = 6


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    for line in _text_lines(report):
        print(line)


def _text_lines(report: dict, indent: int = 0):
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            yield f"{pad}{key}:"
            yield from _text_lines(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            yield f"{pad}{key}:"
            for item in value:
                yield f"{pad}  -"
                yield from _text_lines(item, indent + 2)
        else:
            yield f"{pad}{key}: {value}"


def _read_profile_arg(raw: str):
    """A profile argument is inline JSON or a path to a JSON file."""
    candidate = Path(raw)
    try:
        is_file = candidate.exists()
    except OSError:
        # Inline JSON can be too long to be a path (ENAMETOOLONG).
        is_file = False
    if is_file:
        raw = candidate.read_text()
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise GameFileError(f"profile is neither a file nor valid JSON: {exc.msg}",
                            "profile")


def _membership_report(game, profile, mixed_mode: bool, tol: float) -> dict:
    if mixed_mode:
        # The certificate is_mixed_nash reads, at the same validated profile.
        rows = (([as_outcome(v) for v in table.tolist()],
                 as_outcome(value.tolist()), ok)
                for table, value, ok in mixed.player_certificates(game, profile,
                                                                  tol))
    else:
        tables = (simultaneous.unilateral_map(game, i, profile)
                  for i in range(game.num_players))
        rows = ((list(t.entries), t[m], phi.contains(t, t[m], tol))
                for t, m, phi in zip(tables, profile, game.quantifiers))
    players = [{"player": name, "deviation_table": table, "value": value,
                "acceptable": ok}
               for name, (table, value, ok) in zip(game.players, rows)]
    return {"players": players, "equilibrium": all(p["acceptable"] for p in players)}


def cmd_check_eq(args) -> int:
    document = gamefile.load_game(args.game)
    if document.kind == "sequential":
        raise GameFileError(
            "check-eq verifies simultaneous games; use 'solve --mode seq' "
            "for sequential games", "kind")
    game = document.game
    raw = _read_profile_arg(args.profile)
    if not isinstance(raw, list) or not raw:
        raise GameFileError("profile must be a nonempty JSON list", "profile")
    mixed_mode = all(isinstance(v, list) for v in raw)
    if mixed_mode:
        profile = gamefile.parse_mixed_profile(document, raw)
    else:
        profile = gamefile.parse_pure_profile(document, raw)
    tol = _tol(args, document)
    # A mixed profile is certified as given, once it is known valid, so it
    # is normalised once, as the certificate of a profile 'solve' lists is.
    report = _membership_report(game, raw if mixed_mode else profile,
                                mixed_mode, tol)
    if mixed_mode:
        report["profile"] = [[float(x) for x in s] for s in profile]
    else:
        report["profile"] = list(profile)
    report["mixed"] = mixed_mode
    _emit(report, args.json)
    return EXIT_OK if report["equilibrium"] else EXIT_NOT_EQUILIBRIUM


def _tol(args, document) -> float:
    if args.tol is not None:
        return args.tol
    return float(document.params.get("tol", 1e-9))


def _budget(args, document) -> int | None:
    if args.budget is not None:
        return args.budget
    if "budget" in document.params:
        return int(document.params["budget"])
    return None


def _write_artifact(args, payload: dict, default_name: str) -> str | None:
    if not args.out:
        return None
    out = Path(args.out)
    if out.is_dir():
        out = out / default_name
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return str(out)


def cmd_solve(args) -> int:
    document = gamefile.load_game(args.game)
    mode = args.mode
    tol = _tol(args, document)
    budget = _budget(args, document)
    if mode == "pure":
        return _solve_pure(args, document, tol, budget)
    if mode == "mixed":
        return _solve_mixed(args, document, tol, budget)
    if mode == "seq":
        return _solve_seq(args, document, tol, budget)
    if mode == "bbc":
        return _solve_bbc(args, document, tol, budget)
    if mode == "normal-form":
        return _solve_normal_form(args, document, budget)
    raise GameFileError(f"unknown mode {mode!r}", "mode")


def _as_simultaneous(document) -> simultaneous.SimultaneousGame:
    if document.kind == "sequential":
        raise GameFileError(
            f"mode incompatible with {document.kind} games", "mode")
    return document.game


def _solve_pure(args, document, tol, budget) -> int:
    game = _as_simultaneous(document)
    equilibria = simultaneous.enumerate_pure_equilibria(game, tol, budget)
    report = {
        "mode": "pure",
        "equilibria": [list(p) for p in equilibria],
        "count": len(equilibria),
    }
    path = _write_artifact(args, report, "pure_equilibria.json")
    if path:
        report["artifact"] = path
    _emit(report, args.json)
    return EXIT_OK


def _solve_mixed(args, document, tol, budget) -> int:
    game = _as_simultaneous(document)
    support_eligible = mixed.support_enumeration_applies(game)
    if support_eligible:
        solver = "support_enumeration"
        profiles = mixed.solve_support_enumeration_2p(game, tol, budget)
    else:
        solver = "grid"
        depth = args.grid_depth or int(document.params.get("grid_depth", 3))
        profiles = mixed.solve_generic(game, depth, tol, budget)
    results = []
    for profile in profiles:
        cert = _membership_report(game, profile, True, tol)
        results.append({
            "profile": [[float(x) for x in s] for s in profile],
            "certification": cert,
        })
    report = {
        "mode": "mixed",
        "solver": solver,
        "equilibria": results,
        "count": len(results),
    }
    path = _write_artifact(args, report, "mixed_equilibria.json")
    if path:
        report["artifact"] = path
    _emit(report, args.json)
    if support_eligible and not results:
        print("error: no equilibrium found although the existence theorem "
              "guarantees one for this game; this indicates a solver bug",
              file=sys.stderr)
        return EXIT_NO_SOLUTION
    return EXIT_OK


def _solve_seq(args, document, tol, budget) -> int:
    if document.kind != "sequential":
        raise GameFileError("mode seq requires a sequential game", "mode")
    game = document.game
    play = sequential.compute_optimal_play(game, budget)
    strategy = sequential.compute_optimal_strategy(game, budget)
    report = {
        "mode": "seq",
        "play": list(play),
        "play_moves": [game.moves[i][m] for i, m in enumerate(play)],
        "outcome": game.outcome(play),
        "strategy": [list(t) for t in strategy],
        "strategic_play_matches": sequential.strategic_play(game, strategy) == play,
        "optimal": sequential.is_optimal_strategy(game, strategy, tol, budget),
    }
    path = _write_artifact(args, report, "optimal_play.json")
    if path:
        report["artifact"] = path
    _emit(report, args.json)
    return EXIT_OK


def _solve_bbc(args, document, tol, budget) -> int:
    stage = document.game
    try:
        minimax.stage_outcomes(stage, True)
    except StructuralError:
        raise GameFileError(
            "mode bbc requires a two-player stage (or a 2-player "
            "single-outcome simultaneous game with selections)",
            "mode") from None
    if not all(phi.single_valued for phi in stage.quantifiers):
        print("warning: a quantifier is not single-valued; the reply-"
              "robustness guarantee does not apply", file=sys.stderr)
    comparison = minimax.compare_bbc_vs_product(stage)
    pair = tuple(comparison["bbc"]["pair"])
    report = {
        "mode": "bbc",
        "pair": list(pair),
        "moves": comparison["bbc"]["moves"],
        "outcome": comparison["bbc"]["outcome"],
        "reply_robust": minimax.is_psi_phi_profile(stage, pair, tol, budget),
        "comparison": comparison,
    }
    path = _write_artifact(args, report, "bbc.json")
    if path:
        report["artifact"] = path
    _emit(report, args.json)
    return EXIT_OK


def _solve_normal_form(args, document, budget) -> int:
    if document.kind != "sequential":
        raise GameFileError("mode normal-form requires a sequential game", "mode")
    nf = normalform.to_normal_form(document.game, budget)
    nf_doc = gamefile.serialize_game(gamefile.normal_form_document(nf))
    report = {
        "mode": "normal-form",
        "move_set_sizes": list(nf.move_counts),
        "players": list(nf.players),
    }
    path = _write_artifact(args, nf_doc, "normal_form.json")
    if path:
        report["artifact"] = path
        _emit(report, args.json)
    else:
        print(json.dumps(nf_doc, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_normal_form(args) -> int:
    document = gamefile.load_game(args.game)
    return _solve_normal_form(args, document, _budget(args, document))


def cmd_bbc(args) -> int:
    document = gamefile.load_game(args.game)
    return _solve_bbc(args, document, _tol(args, document),
                      _budget(args, document))


def cmd_fuzz(args) -> int:
    if args.payoff_min > args.payoff_max:
        args.parser.error("argument --payoff-max: must be >= --payoff-min "
                          f"({args.payoff_min})")
    families = fuzz_mod.FAMILIES if args.family == "all" else (args.family,)
    result = fuzz_mod.run_fuzz(
        seed=args.seed, count=args.count, families=families,
        max_rounds=args.max_rounds, max_moves=args.max_moves,
        payoff_range=(args.payoff_min, args.payoff_max), budget=args.budget,
    )
    report = {
        "mode": "fuzz",
        "seed": result.seed,
        "count": result.count,
        "families": list(result.families),
        "checked": result.checked,
        "ok": result.ok,
        "failures": [],
    }
    if args.out and Path(args.out).is_dir():
        corpus_dir = Path(args.out)
        for family, index, game in result.corpus:
            doc = _game_document(family, game)
            name = f"{family.replace('-', '_')}_{index:04d}.json"
            (corpus_dir / name).write_text(
                json.dumps(doc, indent=2, sort_keys=True) + "\n")
        report["corpus_dir"] = str(corpus_dir)
        report["corpus_size"] = len(result.corpus)
    for failure in result.failures:
        doc = _game_document(failure.family, failure.game)
        out = Path(args.out) if args.out else Path("fuzz_failure.json")
        if out.is_dir():
            out = out / f"fuzz_failure_{failure.family}_{failure.index}.json"
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        report["failures"].append({
            "family": failure.family,
            "index": failure.index,
            "file": str(out),
        })
    _emit(report, args.json)
    return EXIT_OK if result.ok else EXIT_FUZZ_FAILED


def _game_document(family: str, game) -> dict:
    kind = "two_player_stage" if family == "bbc" else "sequential"
    return gamefile.serialize_game(gamefile.GameDocument(kind, game))


def _tolerance(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"not a finite number >= 0: {raw!r}")
    return value


def _int_at_least(low: int):
    """An argparse type for integers >= ``low``."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"not an integer >= {low}: {raw!r}")
        return value

    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hog",
        description="Build, solve, transform, and verify higher-order games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, game_arg: bool = True):
        if game_arg:
            p.add_argument("game", help="path to a game file (JSON)")
        p.add_argument("--tol", type=_tolerance, default=None,
                       help="membership tolerance (default from file, else 1e-9)")
        p.add_argument("--budget", type=_int_at_least(0), default=None,
                       help="enumeration budget (default 10^6 or HOG_BUDGET)")
        p.add_argument("--json", action="store_true",
                       help="emit the report as JSON")
        p.add_argument("--out", default=None,
                       help="write the result artifact to this path")

    p_check = sub.add_parser("check-eq", help="certify a profile as an equilibrium")
    common(p_check)
    p_check.add_argument("--profile", required=True,
                         help="pure profile [0,1], mixed profile [[..],[..]], "
                              "inline JSON or a file path")
    p_check.set_defaults(fn=cmd_check_eq)

    p_solve = sub.add_parser("solve", help="solve a game")
    common(p_solve)
    p_solve.add_argument("--mode", required=True,
                         choices=["pure", "mixed", "seq", "bbc", "normal-form"])
    p_solve.add_argument("--grid-depth", type=_int_at_least(1), default=None,
                         help="simplex grid denominator for the generic solver")
    p_solve.set_defaults(fn=cmd_solve)

    p_nf = sub.add_parser("normal-form",
                          help="export the normal form of a sequential game")
    common(p_nf)
    p_nf.set_defaults(fn=cmd_normal_form)

    p_bbc = sub.add_parser("bbc", help="run the independent-pair functional")
    common(p_bbc)
    p_bbc.set_defaults(fn=cmd_bbc)

    p_fuzz = sub.add_parser("fuzz", help="certify random games against the checkers")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--count", type=_int_at_least(0), default=50)
    p_fuzz.add_argument("--family", default="all",
                        choices=["all", *fuzz_mod.FAMILIES])
    p_fuzz.add_argument("--max-rounds", type=_int_at_least(1), default=4)
    # The random games give every player or round at least 2 moves.
    p_fuzz.add_argument("--max-moves", type=_int_at_least(2), default=3)
    p_fuzz.add_argument("--payoff-min", type=int, default=-9)
    p_fuzz.add_argument("--payoff-max", type=int, default=9)
    p_fuzz.add_argument("--budget", type=_int_at_least(0), default=None)
    p_fuzz.add_argument("--json", action="store_true")
    p_fuzz.add_argument("--out", default=None,
                        help="directory or file for failing games")
    p_fuzz.set_defaults(fn=cmd_fuzz, parser=p_fuzz)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (HogError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
