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
from .budget import check_budget
from .errors import (BudgetExceededError, GameFileError, HogError,
                     StructuralError)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_EQUILIBRIUM = 3
EXIT_BUDGET = 4
EXIT_NO_SOLUTION = 5
EXIT_FUZZ_FAILED = 6


def _c_encoder():
    """json.JSONEncoder(sort_keys=True).encode, as the C encoder that the
    method builds on every call, built once with the same settings; the
    method itself where the C accelerator is missing. A failed encoding
    leaves entries in the circular-reference markers, so it clears them."""
    encoder = json.JSONEncoder(sort_keys=True)
    if json.encoder.c_make_encoder is None:
        return encoder.encode
    markers: dict = {}
    chunks = json.encoder.c_make_encoder(
        markers, encoder.default, json.encoder.encode_basestring_ascii,
        encoder.indent, encoder.key_separator, encoder.item_separator,
        encoder.sort_keys, encoder.skipkeys, encoder.allow_nan)

    def encode(value) -> str:
        try:
            return "".join(chunks(value, 0))
        except BaseException:
            markers.clear()
            raise

    return encode


_encode = _c_encoder()
_encode_key = json.encoder.encode_basestring_ascii


_NUMBER_TYPES = frozenset({int, float})


def _numbers(values) -> bool:
    """Whether every entry of a list is an int or a float (a bool is
    neither)."""
    return _NUMBER_TYPES.issuperset(map(type, values))


# The text of each leaf type that needs no encoder call, as the C encoder
# writes it: a str escaped to ASCII, and an int by int.__repr__.
_LEAVES = {str: _encode_key, bool: {True: "true", False: "false"}.__getitem__,
           int: int.__repr__, type(None): {None: "null"}.__getitem__}


def _dump(value, pad: str = "\n") -> str:
    """The one JSON writer: reports, artifacts and game files. The layout
    of json.dumps(value, indent=2, sort_keys=True), except that a list whose
    entries are all numbers goes on one line through the C encoder; the
    JSON value is the same. str, bool, int and None leaves are written from
    _LEAVES, with the encoder's bytes, and every other leaf by the
    encoder."""
    leaf = _LEAVES.get(type(value))
    if leaf is not None:
        return leaf(value)
    inner = pad + "  "
    if isinstance(value, dict) and value:
        return "{" + ",".join([
            f"{inner}{_encode_key(key if isinstance(key, str) else _encode(key))}"
            f": {_dump(item, inner)}"
            for key, item in sorted(value.items())]) + pad + "}"
    if isinstance(value, (list, tuple)) and not _numbers(value):
        return ("[" + ",".join([inner + _dump(item, inner) for item in value])
                + pad + "]")
    return _encode(value)


def _write(path: Path, value) -> None:
    path.write_text(_dump(value) + "\n")


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(_dump(report))
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
    try:
        if is_file:
            return gamefile.read_json(candidate, "profile")
        return gamefile.parse_json(raw, "profile")
    except json.JSONDecodeError as exc:
        raise GameFileError(f"profile is neither a file nor valid JSON: {exc.msg}",
                            "profile")


def _mixed_rows(certificates):
    """Report rows of player_certificates' (table, value, ok) arrays. Game
    files hold scalar outcomes only, so tolist() gives a list of floats and
    a float, as core.as_outcome would."""
    return ((table.tolist(), value.tolist(), ok)
            for table, value, ok in certificates)


def _membership_report(game, rows) -> dict:
    """One (deviation table, value, acceptable) row per player."""
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
    tol = _tol(args, document)
    mixed_mode = all(isinstance(v, list) for v in raw)
    if mixed_mode:
        shown = [s.tolist() for s in gamefile.parse_mixed_profile(document, raw)]
        # The profile is certified as given, once it is known valid, so it
        # is normalised once, as the certificate of a profile 'solve' lists
        # is.
        rows = _mixed_rows(mixed.player_certificates(game, raw, tol))
    else:
        profile = gamefile.parse_pure_profile(document, raw)
        tables = (simultaneous.unilateral_map(game, i, profile)
                  for i in range(game.num_players))
        rows = ((list(t.entries), t[m], phi.contains(t, t[m], tol))
                for t, m, phi in zip(tables, profile, game.quantifiers))
        shown = list(profile)
    report = {**_membership_report(game, rows), "profile": shown,
              "mixed": mixed_mode}
    _finish(args, report, "check_eq.json")
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
    _write(out, payload)
    return str(out)


def _finish(args, report: dict, default_name: str) -> None:
    """Write the report as the --out artifact, then print it."""
    path = _write_artifact(args, report, default_name)
    if path:
        report["artifact"] = path
    _emit(report, args.json)


def cmd_solve(args) -> int:
    """'solve --mode M', and the 'bbc' and 'normal-form' subcommands."""
    document = gamefile.load_game(args.game)
    return _MODES[args.mode](args, document, _tol(args, document),
                             _budget(args, document))


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
    _finish(args, report, "pure_equilibria.json")
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
    # Each profile carries the certificate with which the solver accepted
    # it (mixed.ListedProfile), so it is not certified a second time.
    for profile in profiles:
        results.append({
            "profile": [[float(x) for x in s] for s in profile],
            "certification": _membership_report(
                game, _mixed_rows(profile.certificates)),
        })
    report = {
        "mode": "mixed",
        "solver": solver,
        "equilibria": results,
        "count": len(results),
    }
    _finish(args, report, "mixed_equilibria.json")
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
    # One backward pass gives the strategy and its play; plays are checked
    # against the budget before histories, as compute_optimal_play would.
    check_budget(game.play_count(), budget, "plays")
    strategy = sequential.compute_optimal_strategy(game, budget)
    play = sequential.strategic_play(game, strategy)
    report = {
        "mode": "seq",
        "play": list(play),
        "play_moves": [game.moves[i][m] for i, m in enumerate(play)],
        "outcome": game.outcome(play),
        "strategy": [list(t) for t in strategy],
        # The play is the strategy's own, so this holds by construction.
        "strategic_play_matches": True,
        "optimal": sequential.is_optimal_strategy(game, strategy, tol, budget),
    }
    _finish(args, report, "optimal_play.json")
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
    _finish(args, report, "bbc.json")
    return EXIT_OK


def _solve_normal_form(args, document, tol, budget) -> int:
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
        print(_dump(nf_doc))
    return EXIT_OK


_MODES = {"pure": _solve_pure, "mixed": _solve_mixed, "seq": _solve_seq,
          "bbc": _solve_bbc, "normal-form": _solve_normal_form}


def cmd_fuzz(args) -> int:
    for flag, bound in (("--payoff-min", args.payoff_min),
                        ("--payoff-max", args.payoff_max)):
        # Exact for integers of any size; the games hold float64 payoffs.
        if abs(bound) > sys.float_info.max:
            args.parser.error(f"argument {flag}: must be within the float "
                              f"range (at most {sys.float_info.max!r} in size)")
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
            _write(corpus_dir / name, doc)
        report["corpus_dir"] = str(corpus_dir)
        report["corpus_size"] = len(result.corpus)
    for failure in result.failures:
        doc = _game_document(failure.family, failure.game)
        out = Path(args.out) if args.out else Path("fuzz_failure.json")
        if out.is_dir():
            out = out / f"fuzz_failure_{failure.family}_{failure.index}.json"
        _write(out, doc)
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
def _parser_tree():
    """The parser, built once, and its subcommands' parsers by name."""
    parser = argparse.ArgumentParser(
        prog="hog",
        description="Build, solve, transform, and verify higher-order games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget: bool = True):
        p.add_argument("game", help="path to a game file (JSON)")
        p.add_argument("--tol", type=_tolerance, default=None,
                       help="membership tolerance (default from file, else 1e-9)")
        if budget:
            p.add_argument("--budget", type=_int_at_least(0), default=None,
                           help="enumeration budget (default 10^6 or HOG_BUDGET)")
        p.add_argument("--json", action="store_true",
                       help="emit the report as JSON")
        p.add_argument("--out", default=None,
                       help="write the result artifact to this path")

    p_check = sub.add_parser("check-eq", help="certify a profile as an equilibrium")
    common(p_check, budget=False)
    p_check.add_argument("--profile", required=True,
                         help="pure profile [0,1], mixed profile [[..],[..]], "
                              "inline JSON or a file path")
    p_check.set_defaults(fn=cmd_check_eq)

    p_solve = sub.add_parser("solve", help="solve a game")
    common(p_solve)
    p_solve.add_argument("--mode", required=True, choices=list(_MODES))
    p_solve.add_argument("--grid-depth", type=_int_at_least(1), default=None,
                         help="simplex grid denominator for the generic solver")
    p_solve.set_defaults(fn=cmd_solve)

    for mode, text in (("normal-form",
                        "export the normal form of a sequential game"),
                       ("bbc", "run the independent-pair functional")):
        p_mode = sub.add_parser(mode, help=text)
        common(p_mode)
        p_mode.set_defaults(fn=cmd_solve, mode=mode)

    p_fuzz = sub.add_parser("fuzz", help="certify random games against the checkers")
    # random.Random seeds with a seed's absolute value, so a negative seed
    # would repeat games of its positive twin.
    p_fuzz.add_argument("--seed", type=_int_at_least(0), default=0)
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

    return parser, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """The top-level parser's parse_args(argv), with the same namespace,
    output and exit. The top-level parser hands every argument after a
    command's name to that command's parser and refuses what it leaves
    over, so when argv starts with a command's name, its parser takes the
    rest directly and the leftovers go to the top-level parser's error."""
    parser, commands = _parser_tree()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
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
