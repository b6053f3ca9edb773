"""Independent answer checks for the benchmark's operations.

Every check recomputes what it needs with numpy from the benchmark's own copy
of the input, or tests a property a theorem guarantees. None of them calls a
``hog`` checker or compares against a stored copy of an earlier output.

Each check returns ``(errors, found)``: a list of human-readable reasons the
answer is wrong (empty when it is right) and the number of certified answers
the operation produced (equilibria, reply-robust pairs or certified games).
"""

from __future__ import annotations

import itertools
import string

import numpy as np

# Regret tolerance. ``hog`` certifies at 1e-9; payoffs here lie in [-1, 1],
# so 1e-8 leaves room only for float summation order.
REGRET_TOL = 1e-8
# Two reported profiles closer than this (max-abs) are the same equilibrium.
SAME_PROFILE_TOL = 1e-6


def payoff_tensors(doc: dict) -> list[np.ndarray]:
    """Per-player payoff tensors of a simultaneous game document, shaped
    ``move_counts`` (first player's move most significant)."""
    counts = tuple(len(ms) for ms in doc["moves"])
    return [np.asarray(p, dtype=float).reshape(counts) for p in doc["payoffs"]]


def deviation_values(payoffs: list[np.ndarray], profile, i: int) -> np.ndarray:
    """Player i's expected payoff for each pure deviation, the others playing
    their mixed strategies in ``profile``."""
    letters = string.ascii_lowercase[:len(payoffs)]
    operands = [payoffs[i]] + [profile[j] for j in range(len(payoffs)) if j != i]
    spec = (letters + "," + ",".join(c for j, c in enumerate(letters) if j != i)
            + "->" + letters[i])
    return np.einsum(spec, *operands)


def max_regret(payoffs: list[np.ndarray], profile) -> float:
    """Largest gain any player gets from a pure deviation."""
    worst = 0.0
    for i in range(len(payoffs)):
        dev = deviation_values(payoffs, profile, i)
        worst = max(worst, float(dev.max() - profile[i] @ dev))
    return worst


def pure_equilibria(payoffs: list[np.ndarray]) -> list[tuple[int, ...]]:
    """Pure Nash equilibria by best-response enumeration."""
    shape = payoffs[0].shape
    best = [u == u.max(axis=i, keepdims=True) for i, u in enumerate(payoffs)]
    return [p for p in itertools.product(*(range(c) for c in shape))
            if all(b[p] for b in best)]


def _distinct(profiles: list[list[np.ndarray]]) -> int:
    kept: list[np.ndarray] = []
    for prof in profiles:
        flat = np.concatenate(prof)
        if not any(np.max(np.abs(flat - k)) <= SAME_PROFILE_TOL for k in kept):
            kept.append(flat)
    return len(kept)


def check_mixed(report: dict, rc: int, payoffs: list[np.ndarray],
                solver: str, odd_count: bool) -> tuple[list[str], int]:
    """``hog solve --mode mixed``: zero regret for every reported profile,
    every pure equilibrium reported, the expected solver, and, for
    nondegenerate bimatrix games, an odd number of equilibria."""
    errors = []
    if rc != 0:
        errors.append(f"exit code {rc}")
    if report.get("solver") != solver:
        errors.append(f"solver {report.get('solver')!r}, expected {solver!r}")
    shape = payoffs[0].shape
    profiles = []
    for k, entry in enumerate(report.get("equilibria", [])):
        prof = [np.asarray(s, dtype=float) for s in entry["profile"]]
        if [len(s) for s in prof] != list(shape):
            errors.append(f"profile {k} has shape {[len(s) for s in prof]}")
            continue
        if any(np.any(s < -1e-12) or abs(s.sum() - 1.0) > 1e-9 for s in prof):
            errors.append(f"profile {k} is not a product of distributions")
            continue
        regret = max_regret(payoffs, prof)
        if regret > REGRET_TOL:
            errors.append(f"profile {k} has regret {regret:.3g}")
            continue
        profiles.append(prof)
    for pure in pure_equilibria(payoffs):
        if not any(all(s[m] >= 1.0 - 1e-9 for s, m in zip(prof, pure))
                   for prof in profiles):
            errors.append(f"pure equilibrium {pure} missing")
    found = _distinct(profiles)
    if report.get("count") != len(report.get("equilibria", [])):
        errors.append("count disagrees with the equilibria listed")
    if odd_count and found % 2 == 0:
        errors.append(f"{found} equilibria in a nondegenerate game (must be odd)")
    return errors, (0 if errors else found)


def check_stage(report: dict, rc: int, payoff: np.ndarray) -> tuple[list[str], int]:
    """``hog bbc`` on a max/min stage with argmax/argmin selections: the pair
    is (first argmax of the row minima, first argmin of the column maxima),
    reply-robust, and the product pair is (a, first argmin of row a)."""
    errors = []
    if rc != 0:
        errors.append(f"exit code {rc}")
    a = int(np.argmax(payoff.min(axis=1)))
    b = int(np.argmin(payoff.max(axis=0)))
    if report.get("pair") != [a, b]:
        errors.append(f"pair {report.get('pair')}, expected {[a, b]}")
    if report.get("outcome") != float(payoff[a, b]):
        errors.append(f"outcome {report.get('outcome')}, expected {payoff[a, b]}")
    if report.get("reply_robust") is not True:
        errors.append("pair not reported reply-robust")
    product = report.get("comparison", {}).get("product", {}).get("pair")
    expected = [a, int(np.argmin(payoff[a]))]
    if product != expected:
        errors.append(f"product pair {product}, expected {expected}")
    return errors, (0 if errors else 1)


def check_fuzz(report: dict, rc: int, count: int) -> tuple[list[str], int]:
    """``hog fuzz --family all``: by the soundness and reply-robustness
    theorems no certification can fail, so every game of the three families
    is checked and certified."""
    errors = []
    if rc != 0:
        errors.append(f"exit code {rc}")
    if report.get("ok") is not True:
        errors.append(f"ok is {report.get('ok')!r}")
    if report.get("checked") != 3 * count:
        errors.append(f"checked {report.get('checked')}, expected {3 * count}")
    return errors, (0 if errors else report["checked"])
