"""Seeded inputs for the four workloads.

Each workload is one kind of ``hog`` CLI operation on one input shape. Its
corpus is a fixed list of operations made from the workload seed; a run times
whole passes over that list. The generators use numpy only and never call
``hog``: where a corpus is conditioned on a property of its games (the
number of equilibria, the planned reply-function count), the benchmark
computes that property itself.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# Per-slot equilibrium counts. Conditioning each slot on a count computed
# here keeps ``equilibria_found`` the same for every seed, so the metric
# moves only when the program's answers change. The mix follows the
# frequencies seen in unconditioned draws of each shape.
BIMATRIX_SHAPE = (6, 6)
BIMATRIX_EQUILIBRIA = (1, 3, 5, 3, 1, 3, 5, 7)
GRID_SHAPE = (2, 2, 2)
GRID_DEPTH = 2
GRID_PURE_EQUILIBRIA = (1, 0, 2)
FUZZ_OPS = 20
FUZZ_COUNT = 100
FUZZ_MAX_ROUNDS = 2
STAGE_SHAPE = (8, 8)
STAGE_VALUES = 3
STAGE_REPLY_BAND = (5000, 6000)
STAGE_OPS = 30

Check = Callable[[dict, int], tuple[list[str], int]]


@dataclass(frozen=True)
class Op:
    """One CLI call, how many games it certifies, and its answer check."""

    argv: list[str]
    games: int
    check: Check


def _simultaneous_doc(payoffs: np.ndarray) -> dict:
    counts = payoffs.shape[1:]
    return {
        "version": 1,
        "kind": "simultaneous",
        "moves": [[f"m{j}" for j in range(c)] for c in counts],
        "payoffs": [p.ravel().tolist() for p in payoffs],
        "quantifiers": [{"kind": "max"}] * len(counts),
    }


def _stage_doc(payoff: np.ndarray) -> dict:
    nx, ny = payoff.shape
    return {
        "version": 1,
        "kind": "two_player_stage",
        "moves": [[f"x{i}" for i in range(nx)], [f"y{j}" for j in range(ny)]],
        "payoffs": payoff.ravel().tolist(),
        "quantifiers": [{"kind": "max"}, {"kind": "min"}],
        "selections": [{"kind": "argmax"}, {"kind": "argmin"}],
    }


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def bimatrix_equilibrium_count(a: np.ndarray, b: np.ndarray,
                               tol: float = 1e-9) -> int | None:
    """Number of Nash equilibria of a nondegenerate bimatrix game, by
    enumerating equal-size support pairs and solving both indifference
    systems in one batched ``np.linalg.solve`` per support size. Returns
    None when a system is singular (the game is degenerate)."""
    m, n = a.shape
    total = 0
    for k in range(1, min(m, n) + 1):
        rows = np.array(list(itertools.combinations(range(m), k)))
        cols = np.array(list(itertools.combinations(range(n), k)))
        r = np.repeat(rows, len(cols), axis=0)
        c = np.tile(cols, (len(rows), 1))
        # Column mix y on c equalises the row player's payoff on r, and
        # row mix x on r equalises the column player's payoff on c.
        sys_y = np.zeros((len(r), k + 1, k + 1))
        sys_y[:, :k, :k] = a[r[:, :, None], c[:, None, :]]
        sys_x = np.zeros((len(r), k + 1, k + 1))
        sys_x[:, :k, :k] = b[r[:, :, None], c[:, None, :]].transpose(0, 2, 1)
        for s in (sys_y, sys_x):
            s[:, :k, k] = -1.0
            s[:, k, :k] = 1.0
        rhs = np.zeros((len(r), k + 1, 1))
        rhs[:, k, 0] = 1.0
        try:
            sol_y = np.linalg.solve(sys_y, rhs)[:, :, 0]
            sol_x = np.linalg.solve(sys_x, rhs)[:, :, 0]
        except np.linalg.LinAlgError:
            return None
        y = np.zeros((len(r), n))
        np.put_along_axis(y, c, sol_y[:, :k], axis=1)
        x = np.zeros((len(r), m))
        np.put_along_axis(x, r, sol_x[:, :k], axis=1)
        ok = (sol_y[:, :k] > tol).all(axis=1) & (sol_x[:, :k] > tol).all(axis=1)
        ok &= ((y @ a.T) <= sol_y[:, k:] + tol).all(axis=1)
        ok &= ((x @ b) <= sol_x[:, k:] + tol).all(axis=1)
        total += int(ok.sum())
    return total


def _uniform_payoffs(rng: np.random.Generator, shape) -> np.ndarray:
    """Continuous payoffs on [-1, 1), written with six decimals."""
    return np.round(rng.uniform(-1.0, 1.0, shape), 6)


def bimatrix_corpus(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for slot, want in enumerate(BIMATRIX_EQUILIBRIA):
        while True:
            payoffs = _uniform_payoffs(rng, (2, *BIMATRIX_SHAPE))
            if bimatrix_equilibrium_count(*payoffs) == want:
                break
        path = _write(workdir / f"bimatrix_{slot:02d}.json", _simultaneous_doc(payoffs))
        ops.append(Op(["solve", path, "--mode", "mixed", "--json"], 1,
                      _mixed_check(payoffs, "support_enumeration", True)))
    return ops


def grid_corpus(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for slot, want in enumerate(GRID_PURE_EQUILIBRIA):
        while True:
            payoffs = _uniform_payoffs(rng, (len(GRID_SHAPE), *GRID_SHAPE))
            if len(checks.pure_equilibria(list(payoffs))) == want:
                break
        path = _write(workdir / f"grid_{slot:02d}.json", _simultaneous_doc(payoffs))
        ops.append(Op(_grid_argv(path), 1, _mixed_check(payoffs, "grid", False)))
    return ops


def _grid_argv(path: str) -> list[str]:
    return ["solve", path, "--mode", "mixed", "--grid-depth", str(GRID_DEPTH),
            "--json"]


def _mixed_check(payoffs: np.ndarray, solver: str, odd: bool) -> Check:
    tensors = list(payoffs)
    return lambda report, rc: checks.check_mixed(report, rc, tensors, solver, odd)


def fuzz_corpus(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    seeds = rng.integers(0, 2**31, FUZZ_OPS)
    return [Op(fuzz_argv(int(s)), 3 * FUZZ_COUNT,
               lambda report, rc: checks.check_fuzz(report, rc, FUZZ_COUNT))
            for s in seeds]


def fuzz_argv(seed: int, count: int = FUZZ_COUNT) -> list[str]:
    return ["fuzz", "--family", "all", "--seed", str(seed), "--count",
            str(count), "--max-rounds", str(FUZZ_MAX_ROUNDS), "--json"]


def planned_reply_functions(payoff: np.ndarray) -> int:
    """Reply functions ``hog``'s reply-robustness check enumerates on a
    max/min stage: the product over rows of each row's minimisers plus the
    product over columns of each column's maximisers."""
    row_min = (payoff == payoff.min(axis=1, keepdims=True)).sum(axis=1)
    col_max = (payoff == payoff.max(axis=0, keepdims=True)).sum(axis=0)
    return int(np.prod(row_min)) + int(np.prod(col_max))


def stage_corpus(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 4])
    lo, hi = STAGE_REPLY_BAND
    ops = []
    for slot in range(STAGE_OPS):
        while True:
            payoff = rng.integers(0, STAGE_VALUES, STAGE_SHAPE)
            if lo <= planned_reply_functions(payoff) <= hi:
                break
        path = _write(workdir / f"stage_{slot:02d}.json", _stage_doc(payoff))
        ops.append(Op(["bbc", path, "--json"], 1,
                      lambda report, rc, p=payoff: checks.check_stage(report, rc, p)))
    return ops


def bimatrix_warmup(workdir: Path) -> list[str]:
    payoffs = np.array([[[3.0, 0.0], [0.0, 2.0]], [[2.0, 0.0], [0.0, 3.0]]])
    return ["solve", _write(workdir / "warmup.json", _simultaneous_doc(payoffs)),
            "--mode", "mixed", "--json"]


def grid_warmup(workdir: Path) -> list[str]:
    # Constant payoffs make every grid point an equilibrium, so the warm-up
    # runs the grid solver's whole report path without the refine step.
    payoffs = np.zeros((len(GRID_SHAPE), *GRID_SHAPE))
    return _grid_argv(_write(workdir / "warmup.json", _simultaneous_doc(payoffs)))


def fuzz_warmup(workdir: Path) -> list[str]:
    return fuzz_argv(0, count=1)


def stage_warmup(workdir: Path) -> list[str]:
    payoff = np.array([[1, -1], [-1, 1]])
    return ["bbc", _write(workdir / "warmup.json", _stage_doc(payoff)), "--json"]


# name -> (corpus maker, warm-up maker)
WORKLOADS = {
    "bimatrix": (bimatrix_corpus, bimatrix_warmup),
    "grid-3p": (grid_corpus, grid_warmup),
    "fuzz": (fuzz_corpus, fuzz_warmup),
    "stages": (stage_corpus, stage_warmup),
}
