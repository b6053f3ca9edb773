"""Span and counter tracing of ``hog``'s layers from outside the package.

``Tracer.install`` replaces the listed public functions with wrappers in
every ``hog`` module that binds them, so calls between modules and within a
module both go through the wrapper. Each wrapped call records a span (name,
start, end, parent) in memory; a function's self time is its span minus the
spans of its wrapped children. ``uninstall`` restores the originals.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# Functions that get a span, as ``<module>.<function>`` under ``hog``.
SPANNED = (
    "cli.main",
    "gamefile.load_game",
    "mixed.expected_outcome",
    "mixed.mixed_unilateral_table",
    "mixed.is_mixed_nash",
    "mixed.solve_support_enumeration_2p",
    "mixed.solve_generic",
    "normalform.to_normal_form",
    "normalform.check_soundness",
    "normalform.contingent_label",
    "simultaneous.is_generalised_nash",
    "simultaneous.unilateral_map",
    "sequential.compute_optimal_play",
    "sequential.compute_optimal_strategy",
    "sequential.is_optimal_strategy",
    "fuzz.random_sequential_game",
    "fuzz.random_stage",
    "fuzz.certify_sequential",
    "fuzz.certify_normal_form",
    "fuzz.certify_stage",
    "minimax.bbc",
    "minimax.is_psi_phi_profile",
    "minimax.compare_bbc_vs_product",
)
# Functions whose calls are counted without a span: they are called so often
# that a span would cost more than their own work.
COUNTED = ("mixed.mixed_profile",)
# The ``what`` labels the workloads' commands pass to ``check_budget``.
BUDGET_LABELS = ("grid profiles", "reply functions", "plays", "histories",
                 "optimality checks")


def budget_metric(what: str) -> str:
    return f"budget.{what.replace(' ', '_')}.planned"


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in SPANNED:
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_ms", "ms", "lower"))
    specs += [(f"{name}.calls", "count", "lower") for name in COUNTED]
    specs.append(("core.OutcomeTable.created", "count", "lower"))
    specs.append(("mixed.is_mixed_nash.accept_ratio", "ratio", "higher"))
    specs += [(budget_metric(w), "count", "lower") for w in BUDGET_LABELS]
    specs.append(("cli.main.total_ms", "ms", "lower"))
    specs.append(("trace.unwrapped_pct", "%", "lower"))
    specs.append(("trace.overhead_pct", "%", "lower"))
    return specs


def _hog_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "hog" or n.startswith("hog."))]


class Tracer:
    """Records spans and counts while installed. Not thread-safe: the
    benchmark drives ``hog`` from one thread."""

    def __init__(self):
        self.spans: list[tuple[int, float, float, int, str]] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.planned: Counter = Counter()
        self.nash_accepted = 0
        self.tables = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, on_result=None):
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                spans.append((sid, start, end, parent, name))
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _budget(self, fn):
        planned = self.planned

        def check_budget(count, budget, what):
            planned[what] += count
            return fn(count, budget, what)

        return check_budget

    def _accept(self, result) -> None:
        if result:
            self.nash_accepted += 1

    def _replace(self, original, replacement) -> None:
        """Rebind ``original`` to ``replacement`` wherever a hog module binds it."""
        for module in _hog_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        import hog.budget
        import hog.core

        for name in SPANNED:
            module, func = name.split(".")
            original = getattr(sys.modules[f"hog.{module}"], func)
            on_result = self._accept if name == "mixed.is_mixed_nash" else None
            self._replace(original, self._span(name, original, on_result))
        for name in COUNTED:
            module, func = name.split(".")
            original = getattr(sys.modules[f"hog.{module}"], func)
            self._replace(original, self._count(name, original))
        self._replace(hog.budget.check_budget, self._budget(hog.budget.check_budget))

        table_cls = hog.core.OutcomeTable
        init = table_cls.__init__

        def counted_init(table, entries):
            self.tables += 1
            init(table, entries)

        self._restore.append((table_cls, "__init__", init))
        table_cls.__init__ = counted_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per corpus pass, all but the tracing overhead,
        which needs untraced passes to compare with."""
        out = {}
        for name in SPANNED:
            out[f"{name}.calls"] = self.calls[name] / passes
            out[f"{name}.self_ms"] = 1e3 * self.self_s[name] / passes
        for name in COUNTED:
            out[f"{name}.calls"] = self.calls[name] / passes
        out["core.OutcomeTable.created"] = self.tables / passes
        checked = self.calls["mixed.is_mixed_nash"]
        out["mixed.is_mixed_nash.accept_ratio"] = (
            self.nash_accepted / checked if checked else 0.0)
        for what in BUDGET_LABELS:
            out[budget_metric(what)] = self.planned[what] / passes
        total_s = sum(end - start for _, start, end, parent, _ in self.spans
                      if parent == -1)
        out["cli.main.total_ms"] = 1e3 * total_s / passes
        out["trace.unwrapped_pct"] = 100.0 * self.self_s["cli.main"] / total_s
        return out

    def accounted_s(self) -> float:
        """Sum of all self times; equals the root spans' total by construction."""
        return sum(self.self_s.values())

    def write(self, path: Path) -> None:
        """Write the spans as ``[id, start_s, end_s, parent_id, name]`` rows."""
        with path.open("w") as f:
            json.dump({"fields": ["id", "start_s", "end_s", "parent", "name"],
                       "spans": self.spans}, f)
