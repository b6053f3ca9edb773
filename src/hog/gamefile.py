"""JSON game file format.

One document describes one game. Common fields:

    version       format version (currently 1)
    kind          "simultaneous" | "sequential" | "two_player_stage"
    params        optional solver defaults: tol, grid_depth, budget, seed

Simultaneous games carry per-player move label lists under "moves", dense
row-major payoff tensors under "payoffs" (a list of tensors, or a single
tensor when "single_outcome_space" is true), and per-player quantifier
descriptors; "selections" is optional. Sequential games use "rounds" for
per-round move labels, a single payoff tensor over plays, and per-round
quantifier and selection descriptors. Two-player stages are the simultaneous
layout restricted to 2 players with a single shared tensor and required
selections; they parse to a 2-player single-outcome ``SimultaneousGame``
with selections. Parsed games hold each tensor as one read-only float64
array; serializing flattens those arrays back to row-major lists.

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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (Quantifier, SelectionFunction, make_standard_quantifier,
                   make_standard_selection)
from .errors import GameFileError, StructuralError
from .normalform import ContingentMoveSet, lift_round_quantifier
from .sequential import SequentialGame
from .simultaneous import SimultaneousGame, flat_tensor
from .mixed import MixedProfile, mixed_profile

FORMAT_VERSION = 1

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
    _expect(isinstance(value, types), f"unexpected type {type(value).__name__}", key)
    return value


def parse_quantifier(desc, fieldname: str = "quantifiers") -> Quantifier:
    _expect(isinstance(desc, dict) and "kind" in desc,
            "quantifier descriptor must be an object with a 'kind'", fieldname)
    kind = desc["kind"]
    try:
        if kind == "eps_ball":
            return make_standard_quantifier("eps_ball", center=desc["center"],
                                            radius=desc["radius"])
        if kind == "seq_lift":
            inner = parse_quantifier(desc["inner"], fieldname + ".inner")
            cms = ContingentMoveSet(0, int(desc["base_moves"]),
                                    int(desc["histories"]))
            return lift_round_quantifier(inner, cms)
        return make_standard_quantifier(kind)
    except KeyError as exc:
        raise GameFileError(f"missing quantifier parameter {exc}", fieldname)
    except (StructuralError, ValueError) as exc:
        raise GameFileError(str(exc), fieldname)


def parse_selection(desc, fieldname: str = "selections") -> SelectionFunction:
    _expect(isinstance(desc, dict) and "kind" in desc,
            "selection descriptor must be an object with a 'kind'", fieldname)
    kind = desc["kind"]
    try:
        if kind == "constant":
            return make_standard_selection("constant", move=desc["move"])
        return make_standard_selection(kind)
    except KeyError as exc:
        raise GameFileError(f"missing selection parameter {exc}", fieldname)
    except (StructuralError, ValueError) as exc:
        raise GameFileError(str(exc), fieldname)


def _serialize_quantifier(phi: Quantifier) -> dict:
    if phi.descriptor is None:
        raise GameFileError("custom quantifier has no serializable descriptor",
                            "quantifiers")
    return dict(phi.descriptor)


def _serialize_selection(eps: SelectionFunction) -> dict:
    if eps.descriptor is None:
        raise GameFileError("custom selection has no serializable descriptor",
                            "selections")
    return dict(eps.descriptor)


def _check_tensor(tensor, size: int, fieldname: str) -> np.ndarray:
    """A flat tensor of finite JSON numbers as a float array. Numbers are
    checked in one pass; only a tensor that fails it is walked entry by
    entry, so the error names the first bad entry's fault."""
    _expect(isinstance(tensor, list), "payoff tensor must be a list", fieldname)
    _expect(len(tensor) == size,
            f"tensor has {len(tensor)} entries, expected {size}", fieldname)
    if {int, float}.issuperset(map(type, tensor)):
        try:
            out = np.array(tensor, dtype=float)
        except OverflowError:  # an integer too large for a float
            out = None
        if out is not None and np.isfinite(out).all():
            return out
    for v in tensor:
        _expect(isinstance(v, (int, float)) and not isinstance(v, bool),
                "tensor entries must be numbers", fieldname)
        _expect(_finite(v), "tensor entries must be finite", fieldname)
    # Only finite numbers of a subclass of int or float get here.
    return np.array([float(v) for v in tensor])


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
        _expect(isinstance(labels, list) and labels,
                "each move set must be a nonempty list of labels",
                f"{fieldname}[{i}]")
        out.append(tuple(str(l) for l in labels))
    return tuple(out)


def _parse_params(doc: dict) -> dict:
    params = _get(doc, "params", dict, required=False, default={})
    unknown = set(params) - _PARAM_KEYS
    _expect(not unknown, f"unknown solver parameters {sorted(unknown)}", "params")
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
    _expect(version == FORMAT_VERSION, f"unsupported version {version}", "version")
    kind = _get(doc, "kind", str)

    if kind == "simultaneous":
        return _parse_simultaneous(doc)
    if kind == "sequential":
        return _parse_sequential(doc)
    if kind == "two_player_stage":
        return _parse_stage(doc)
    raise GameFileError(f"unknown game kind {kind!r}", "kind")


def _parse_simultaneous(doc: dict) -> GameDocument:
    moves = _parse_move_labels(_get(doc, "moves", list), "moves")
    counts = [len(ms) for ms in moves]
    size = math.prod(counts)
    single = _get(doc, "single_outcome_space", bool, required=False, default=False)
    payoffs_raw = _get(doc, "payoffs", list)
    if single:
        tensors = [_check_tensor(payoffs_raw, size, "payoffs")] * len(moves)
    else:
        _expect(len(payoffs_raw) == len(moves),
                f"need {len(moves)} payoff tensors, got {len(payoffs_raw)}",
                "payoffs")
        tensors = [
            _check_tensor(t, size, f"payoffs[{i}]")
            for i, t in enumerate(payoffs_raw)
        ]
    q_raw = _get(doc, "quantifiers", list)
    _expect(len(q_raw) == len(moves), "one quantifier per player", "quantifiers")
    quantifiers = [
        parse_quantifier(d, f"quantifiers[{i}]") for i, d in enumerate(q_raw)
    ]
    players = _get(doc, "players", list, required=False)
    selections = _parse_optional_selections(doc, len(moves))
    game = SimultaneousGame.from_tensors(
        counts, tensors, quantifiers, moves=moves,
        players=[str(p) for p in players] if players else None,
        single_outcome_space=bool(single),
    )
    if selections is not None:
        game = replace(game, selections=selections)
    return GameDocument("simultaneous", game, _parse_params(doc))


def _parse_optional_selections(doc: dict, n: int):
    raw = _get(doc, "selections", list, required=False)
    if raw is None:
        return None
    _expect(len(raw) == n, f"need {n} selections, got {len(raw)}", "selections")
    return tuple(
        parse_selection(d, f"selections[{i}]") for i, d in enumerate(raw)
    )


def _parse_sequential(doc: dict) -> GameDocument:
    rounds = _parse_move_labels(_get(doc, "rounds", list), "rounds")
    counts = [len(ms) for ms in rounds]
    tensor = _check_tensor(_get(doc, "payoffs", list), math.prod(counts),
                           "payoffs")
    q_raw = _get(doc, "quantifiers", list)
    _expect(len(q_raw) == len(rounds), "one quantifier per round", "quantifiers")
    quantifiers = [
        parse_quantifier(d, f"quantifiers[{i}]") for i, d in enumerate(q_raw)
    ]
    s_raw = _get(doc, "selections", list)
    _expect(len(s_raw) == len(rounds), "one selection per round", "selections")
    selections = [
        parse_selection(d, f"selections[{i}]") for i, d in enumerate(s_raw)
    ]
    game = SequentialGame.from_tensor(counts, tensor, quantifiers, selections,
                                      moves=rounds)
    return GameDocument("sequential", game, _parse_params(doc))


def _parse_stage(doc: dict) -> GameDocument:
    moves = _parse_move_labels(_get(doc, "moves", list), "moves")
    _expect(len(moves) == 2, "a stage has exactly 2 players", "moves")
    size = len(moves[0]) * len(moves[1])
    tensor = _check_tensor(_get(doc, "payoffs", list), size, "payoffs")
    q_raw = _get(doc, "quantifiers", list)
    _expect(len(q_raw) == 2, "a stage has exactly 2 quantifiers", "quantifiers")
    quantifiers = [
        parse_quantifier(d, f"quantifiers[{i}]") for i, d in enumerate(q_raw)
    ]
    s_raw = _get(doc, "selections", list)
    _expect(len(s_raw) == 2, "a stage has exactly 2 selections", "selections")
    selections = [
        parse_selection(d, f"selections[{i}]") for i, d in enumerate(s_raw)
    ]
    grid = flat_tensor(tensor, (len(moves[0]), len(moves[1])), "payoffs")
    stage = SimultaneousGame(
        moves=moves, payoffs=np.broadcast_to(grid, (2, *grid.shape)),
        quantifiers=tuple(quantifiers), single_outcome_space=True,
        selections=tuple(selections))
    return GameDocument("two_player_stage", stage, _parse_params(doc))


def load_game(path) -> GameDocument:
    """Parse a game file from disk."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GameFileError(f"cannot read {path}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFileError(f"invalid JSON at line {exc.lineno}, column "
                            f"{exc.colno}: {exc.msg}")
    return parse_game(doc)


def _flat(tensor: np.ndarray, axes: int) -> list:
    """A payoff array as the file's row-major list over its first ``axes``
    axes (vector outcomes stay lists)."""
    return tensor.reshape(-1, *tensor.shape[axes:]).tolist()


def serialize_game(document: GameDocument) -> dict:
    """Reconstruct the JSON document for a parsed game; payoff tensors are
    the games' stored arrays, flattened row-major."""
    game = document.game
    out: dict = {"version": FORMAT_VERSION, "kind": document.kind}
    if document.kind == "sequential":
        out["rounds"] = [list(ms) for ms in game.moves]
        out["payoffs"] = game.play_outcomes()
        out["quantifiers"] = [_serialize_quantifier(q) for q in game.quantifiers]
        out["selections"] = [_serialize_selection(s) for s in game.selections]
    else:
        out["moves"] = [list(ms) for ms in game.moves]
        if document.kind == "simultaneous":
            out["players"] = list(game.players)
            out["single_outcome_space"] = game.single_outcome_space
        n = game.num_players
        if game.single_outcome_space:
            out["payoffs"] = _flat(game.payoffs[0], n)
        else:
            out["payoffs"] = [_flat(tensor, n) for tensor in game.payoffs]
        out["quantifiers"] = [_serialize_quantifier(q) for q in game.quantifiers]
        if game.selections is not None:
            out["selections"] = [
                _serialize_selection(s) for s in game.selections
            ]
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
