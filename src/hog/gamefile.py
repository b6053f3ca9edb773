"""JSON game file format.

One document describes one game, and one reader reads every kind. Fields:

    version       the integer 1
    kind          "simultaneous" | "sequential" | "two_player_stage"
    moves         per-player move label lists ("rounds" in a sequential game)
    payoffs       dense row-major tensors: one per player, or a single one
                  in a sequential game, a stage, or a simultaneous game with
                  "single_outcome_space": true
    quantifiers   one descriptor per player or round
    selections    one descriptor per player or round; optional only in a
                  simultaneous game
    players       optional player names (simultaneous games only)
    params        optional solver defaults: tol, grid_depth, budget; a
                  "seed" is accepted and ignored

Labels are compared as strings and must be distinct within one move set. A
two-player stage is the simultaneous layout restricted to 2 players with a
single shared tensor and required selections; it parses to a 2-player
single-outcome ``SimultaneousGame`` with selections. Parsed games hold each
tensor as one read-only float64 array; serializing writes the same layout
back, each array flattened to a row-major list. Outcomes are scalars: a game
with vector outcomes is refused, by the reader and the writer alike.

Quantifier descriptors: {"kind": "max"}, {"kind": "min"},
{"kind": "fixed_point"}, {"kind": "average"},
{"kind": "eps_ball", "center": 0, "radius": 0.1}, and
{"kind": "seq_lift", "inner": ..., "base_moves": m, "histories": h} for
exported normal forms. Selection descriptors: argmax, argmin,
fixed_point_witness, nearest_mean, and {"kind": "constant", "move": 0}.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import make_standard_quantifier, make_standard_selection
from .errors import GameFileError, StructuralError
from .normalform import ContingentMoveSet, lift_round_quantifier
from .sequential import SequentialGame
from .simultaneous import SimultaneousGame
from .mixed import MixedProfile, mixed_profile

FORMAT_VERSION = 1

_KINDS = ("simultaneous", "sequential", "two_player_stage")

_PARAM_KEYS = {"tol", "grid_depth", "budget", "seed"}


@dataclass
class GameDocument:
    """A parsed game file: the game value plus solver parameters."""

    kind: str
    game: SimultaneousGame | SequentialGame
    params: dict = field(default_factory=dict)


def _expect(cond: bool, message: str, fieldname: str | None = None) -> None:
    if not cond:
        raise GameFileError(message, fieldname)


def _get(doc: dict, key: str, types, required: bool = True, default=None):
    if key not in doc:
        _expect(not required, "missing required field", key)
        return default
    value = doc[key]
    # bool is a subclass of int, but true is no version number.
    if not isinstance(value, types) or (types is int
                                        and isinstance(value, bool)):
        raise GameFileError(f"unexpected type {type(value).__name__}", key)
    return value


def _parse_descriptor(desc, fieldname: str, what: str, moves: int = 0):
    """A stock quantifier or selection from its descriptor: the kind, plus
    the kind's parameters under their own names. A seq_lift quantifier must
    range over base_moves ** histories moves, which is tested without
    building a power larger than moves ** moves.bit_length(): for
    base_moves >= 2, a power equal to ``moves`` has fewer histories than
    that bit length."""
    if not (isinstance(desc, dict) and "kind" in desc):
        raise GameFileError(
            f"{what} descriptor must be an object with a 'kind'", fieldname)
    kind = desc["kind"]
    try:
        if what == "quantifier" and kind == "seq_lift":
            base, hist = desc["base_moves"], desc["histories"]
            _expect(all(type(v) is int and v >= 1 for v in (base, hist)),
                    "seq_lift base_moves and histories must be integers >= 1")
            _expect(base <= moves
                    and base ** min(hist, moves.bit_length()) == moves,
                    f"seq_lift base_moves ** histories must equal the "
                    f"{moves} moves it ranges over")
            inner = _parse_descriptor(desc["inner"], fieldname + ".inner",
                                      "quantifier", base)
            return lift_round_quantifier(inner,
                                         ContingentMoveSet(0, base, hist))
        make = (make_standard_quantifier if what == "quantifier"
                else make_standard_selection)
        return make(**desc)
    except KeyError as exc:
        raise GameFileError(f"missing {what} parameter {exc}", fieldname)
    except (StructuralError, ValueError) as exc:
        raise GameFileError(str(exc), fieldname)


def _serialize_descriptors(items, key: str) -> list[dict]:
    """The descriptors of a game's quantifiers or selections."""
    if any(item.descriptor is None for item in items):
        raise GameFileError(
            f"custom {key[:-1]} has no serializable descriptor", key)
    return [dict(item.descriptor) for item in items]


def _check_tensor(tensor, counts: tuple[int, ...], fieldname: str) -> np.ndarray:
    """A flat tensor of finite JSON numbers as a float array of shape
    ``counts``. Numbers are checked in one pass; only a tensor that fails it
    is walked entry by entry, so the error names the first bad entry's
    fault."""
    size = math.prod(counts)
    _expect(isinstance(tensor, list), "payoff tensor must be a list", fieldname)
    if len(tensor) != size:
        raise GameFileError(f"tensor has {len(tensor)} entries, expected "
                            f"{size}", fieldname)
    if {int, float}.issuperset(map(type, tensor)):
        try:
            out = np.array(tensor, dtype=float)
        except OverflowError:  # an integer too large for a float
            out = None
        if out is not None and np.isfinite(out).all():
            return out.reshape(counts)
    for v in tensor:
        _expect(isinstance(v, (int, float)) and not isinstance(v, bool),
                "tensor entries must be numbers", fieldname)
        _expect(_finite(v), "tensor entries must be finite", fieldname)
    # Only finite numbers of a subclass of int or float get here.
    return np.array([float(v) for v in tensor]).reshape(counts)


def _finite(v: int | float) -> bool:
    """Whether a parsed JSON number is a finite float: Python's json reads
    NaN, Infinity and -Infinity, and integers too large for a float."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _parse_move_labels(raw, fieldname: str) -> tuple[tuple[str, ...], ...]:
    _expect(isinstance(raw, list) and raw, "must be a nonempty list", fieldname)
    out = []
    for i, labels in enumerate(raw):
        if not (isinstance(labels, list) and labels):
            raise GameFileError(
                "each move set must be a nonempty list of labels",
                f"{fieldname}[{i}]")
        labels = tuple(map(str, labels))
        if len(set(labels)) < len(labels):
            # A repeated label would name only its first move.
            raise GameFileError("move labels must be distinct",
                                f"{fieldname}[{i}]")
        out.append(labels)
    return tuple(out)


def _parse_each(doc: dict, key: str, counts: tuple[int, ...], what: str,
                required: bool = True):
    """The per-player or per-round list of ``what`` descriptors under
    ``key``, each read with its player's or round's move count."""
    raw = _get(doc, key, list, required)
    if raw is None:
        return None
    if len(raw) != len(counts):
        raise GameFileError(f"need {len(counts)} {key}, got {len(raw)}", key)
    return tuple([_parse_descriptor(d, f"{key}[{i}]", what, c)
                  for i, (d, c) in enumerate(zip(raw, counts))])


def _parse_params(doc: dict) -> dict:
    params = _get(doc, "params", dict, required=False, default={})
    unknown = set(params) - _PARAM_KEYS
    if unknown:
        raise GameFileError(f"unknown solver parameters {sorted(unknown)}",
                            "params")
    for key, value in params.items():
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if key == "tol":
            _expect(number and _finite(value) and value >= 0,
                    "must be a finite number >= 0", f"params.{key}")
        else:
            _expect(number and _finite(value) and float(value).is_integer(),
                    "must be an integer", f"params.{key}")
            _expect(key != "budget" or value >= 0, "must be >= 0",
                    f"params.{key}")
    return dict(params)


def parse_game(doc: dict) -> GameDocument:
    _expect(isinstance(doc, dict), "game file must be a JSON object", None)
    version = _get(doc, "version", int)
    if version != FORMAT_VERSION:
        raise GameFileError(f"unsupported version {version}", "version")
    kind = _get(doc, "kind", str)
    if kind not in _KINDS:
        raise GameFileError(f"unknown game kind {kind!r}", "kind")
    sequential = kind == "sequential"
    simultaneous = kind == "simultaneous"
    key = "rounds" if sequential else "moves"
    moves = _parse_move_labels(_get(doc, key, list), key)
    _expect(kind != "two_player_stage" or len(moves) == 2,
            "a stage has exactly 2 players", "moves")
    n, counts = len(moves), tuple(map(len, moves))
    shared = not simultaneous or _get(doc, "single_outcome_space", bool,
                                      required=False, default=False)
    raw = _get(doc, "payoffs", list)
    if shared:
        payoffs = _check_tensor(raw, counts, "payoffs")
    else:
        if len(raw) != n:
            raise GameFileError(f"need {n} payoff tensors, got {len(raw)}",
                                "payoffs")
        payoffs = np.stack([_check_tensor(t, counts, f"payoffs[{i}]")
                            for i, t in enumerate(raw)])
    payoffs.setflags(write=False)  # a fresh array: the game takes it uncopied
    quantifiers = _parse_each(doc, "quantifiers", counts, "quantifier")
    players = _get(doc, "players", list, required=False) if simultaneous else None
    selections = _parse_each(doc, "selections", counts, "selection",
                             required=not simultaneous)
    if sequential:
        game = SequentialGame(moves, payoffs, quantifiers, selections)
    else:
        game = SimultaneousGame(
            moves=moves, quantifiers=quantifiers, selections=selections,
            payoffs=np.broadcast_to(payoffs, (n, *counts)) if shared else payoffs,
            players=tuple(map(str, players or ())), single_outcome_space=shared)
    return GameDocument(kind, game, _parse_params(doc))


def read_json(path, fieldname: str | None = None):
    """The JSON value in a file: its bytes, decoded once as UTF-8, then
    parsed. Bytes that are not UTF-8 raise GameFileError, and so does a
    value nested too deeply for the parser; an OSError and a
    json.JSONDecodeError propagate."""
    with open(path, "rb", buffering=0) as file:
        data = file.read()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise GameFileError(f"cannot read {path}: {exc}", fieldname)
    return parse_json(text, fieldname)


def parse_json(text: str, fieldname: str | None = None):
    """json.loads, except that a value nested deeper than the parser's
    recursion reaches raises GameFileError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise GameFileError("invalid JSON: nested too deeply to parse",
                            fieldname) from None


def _position(exc: json.JSONDecodeError) -> str:
    """The line and column of a parse error, counted in universal newlines
    mode: a lone carriage return ends a line, as CRLF and LF do."""
    before = exc.doc[:exc.pos]
    if "\r" in before:
        before = before.replace("\r\n", "\n").replace("\r", "\n")
    line = before.count("\n") + 1
    column = len(before) - before.rfind("\n")
    return f"line {line}, column {column}"


def load_game(path) -> GameDocument:
    """Parse a game file from disk."""
    try:
        doc = read_json(path)
    except OSError as exc:
        raise GameFileError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise GameFileError(f"invalid JSON at {_position(exc)}: {exc.msg}")
    return parse_game(doc)


def serialize_game(document: GameDocument) -> dict:
    """Reconstruct the JSON document for a parsed game, in the layout
    parse_game reads; payoff tensors are the games' stored arrays, flattened
    row-major. The format holds scalar outcomes only, so a game with vector
    outcomes is refused."""
    game, kind = document.game, document.kind
    sequential = kind == "sequential"
    _expect(game.payoffs.ndim == len(game.moves) + (not sequential),
            "vector outcomes cannot be written to a game file", "payoffs")
    out: dict = {"version": FORMAT_VERSION, "kind": kind,
                 "rounds" if sequential else "moves":
                     [list(ms) for ms in game.moves]}
    if kind == "simultaneous":
        out["players"] = list(game.players)
        out["single_outcome_space"] = game.single_outcome_space
    if sequential:
        out["payoffs"] = game.payoffs.ravel().tolist()
    elif game.single_outcome_space:
        out["payoffs"] = game.payoffs[0].ravel().tolist()
    else:
        out["payoffs"] = [tensor.ravel().tolist() for tensor in game.payoffs]
    out["quantifiers"] = _serialize_descriptors(game.quantifiers, "quantifiers")
    if game.selections is not None:
        out["selections"] = _serialize_descriptors(game.selections,
                                                   "selections")
    if document.params:
        out["params"] = dict(document.params)
    return out


def normal_form_document(nf: SimultaneousGame) -> GameDocument:
    return GameDocument("simultaneous", nf, {})


def resolve_move(label_or_index, labels: Sequence[str], fieldname: str) -> int:
    if isinstance(label_or_index, bool):
        raise GameFileError("moves must be indices or labels", fieldname)
    if isinstance(label_or_index, int):
        _expect(0 <= label_or_index < len(labels),
                f"move index {label_or_index} outside 0..{len(labels) - 1}",
                fieldname)
        return label_or_index
    if isinstance(label_or_index, str):
        try:
            return labels.index(label_or_index)
        except ValueError:
            raise GameFileError(f"unknown move label {label_or_index!r}", fieldname)
    raise GameFileError("moves must be indices or labels", fieldname)


def parse_pure_profile(document: GameDocument, raw) -> tuple[int, ...]:
    game = document.game
    moves = game.moves
    _expect(isinstance(raw, list) and len(raw) == len(moves),
            f"profile needs one move per player ({len(moves)})", "profile")
    return tuple(
        resolve_move(v, list(moves[i]), f"profile[{i}]") for i, v in enumerate(raw)
    )


def parse_mixed_profile(document: GameDocument, raw) -> MixedProfile:
    game = document.game
    _expect(isinstance(raw, list) and len(raw) == game.num_players,
            f"profile needs one strategy per player ({game.num_players})",
            "profile")
    for i, vec in enumerate(raw):
        _expect(isinstance(vec, list) and
                all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in vec),
                "mixed strategies are lists of probabilities", f"profile[{i}]")
        _expect(all(_finite(v) for v in vec), "probabilities must be finite",
                f"profile[{i}]")
    try:
        return mixed_profile(game, [np.asarray(v, dtype=float) for v in raw])
    except StructuralError as exc:
        raise GameFileError(str(exc), "profile")


def parse_strategy(document: GameDocument, raw) -> tuple[tuple[int, ...], ...]:
    game = document.game
    if isinstance(raw, dict) and "strategy" in raw:
        raw = raw["strategy"]
    _expect(isinstance(raw, list) and len(raw) == game.rounds,
            f"strategy needs one table per round ({game.rounds})", "strategy")
    tables = []
    for i, table in enumerate(raw):
        _expect(isinstance(table, list), "each round table is a list",
                f"strategy[{i}]")
        tables.append(tuple(
            resolve_move(v, list(game.moves[i]), f"strategy[{i}][{h}]")
            for h, v in enumerate(table)
        ))
    try:
        return game.validate_strategy(tables)
    except StructuralError as exc:
        raise GameFileError(str(exc), "strategy")
