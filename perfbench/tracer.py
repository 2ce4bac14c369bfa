"""Per-layer spans and counts from wrappers around the engine's functions.

While a ``traced()`` block runs, each function in ``TRACED`` is replaced
in every qalam module that holds it, which is the name its callers
resolve at call time: ``qalam.justify.place_diacritics``,
``qalam.shaper.position_marks``, ``qalam.kashida.enumerate_sites`` and so
on. The engine itself is not changed. Every wrapper is removed again in a
``finally``, so no untraced timing can run through one.

A function's self time is its span minus the spans of traced functions
it called, directly or through untraced code.
"""

from __future__ import annotations

import importlib
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from time import perf_counter_ns
from typing import Callable, Iterator

from qalam import justify

#: Traced functions by layer (the qalam module that defines them).
TRACED = {
    "fontmodel": ("load_font",),
    "textmodel": ("decompose",),
    "lookups": ("apply_gsub_tracked", "position_marks"),
    "shaper": ("shape_word", "word_variants"),
    "kashida": ("enumerate_sites", "word_capacity", "allocate", "apply_plan"),
    "justify": ("break_optimum", "break_greedy", "line_candidate"),
    "diacritics": ("place_diacritics", "with_marks"),
    "layout": ("shaped_document", "justified_document", "dumps", "loads", "validate_document"),
    "svg": ("render_svg",),
    "cli": ("main",),
}


@dataclass
class FunctionStats:
    calls: int = 0
    self_ns: int = 0


def _engine_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "qalam" or name.startswith("qalam."))
    ]


def _patch_everywhere(original: Callable, replacement: Callable, undo: list) -> None:
    """Replace ``original`` in every qalam module; record how to undo it."""
    for module in _engine_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, value))
                setattr(module, attr, replacement)


def _restore(undo: list) -> None:
    while undo:
        module, attr, value = undo.pop()
        setattr(module, attr, value)


def _shape_key(args, kwargs) -> tuple:
    features = args[2] if len(args) > 2 else kwargs.get("features", ())
    return tuple(args[0]), frozenset(features)


class Tracer:
    """Calls and self time per traced function, plus per-layer counts."""

    def __init__(self) -> None:
        self.stats = {
            f"{layer}.{name}": FunctionStats() for layer, names in TRACED.items() for name in names
        }
        self.counts: Counter[str] = Counter()
        self.shaped: set[tuple] = set()
        self._stack: list[int] = []

    def _on_result(self, key: str, args, kwargs, result) -> None:
        counts = self.counts
        if key == "textmodel.decompose":
            counts["textmodel.clusters"] += sum(len(word) for word in result)
        elif key == "shaper.shape_word":
            self.shaped.add(_shape_key(args, kwargs))
        elif key == "shaper.word_variants":
            counts["shaper.variants"] += len(result)
        elif key == "justify.line_candidate":
            counts["justify.line_candidate.feasible"] += result.badness < justify.INF
        elif key in ("justify.break_optimum", "justify.break_greedy"):
            counts["justify.lines"] += len(result.lines)
        elif key == "diacritics.place_diacritics":
            counts["diacritics.unresolvable_overlaps"] += sum(
                d.code == "unresolvable-overlap" for d in result[1]
            )
        elif key in ("layout.dumps", "svg.render_svg"):
            counts[f"{key}.bytes"] += len(result.encode())

    def wrap(self, key: str, fn: Callable) -> Callable:
        stats, stack = self.stats[key], self._stack

        @wraps(fn)
        def traced_call(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            end = None
            try:
                result = fn(*args, **kwargs)
                end = perf_counter_ns()
                self._on_result(key, args, kwargs, result)
                return result
            finally:
                # Time spent counting is charged to no function.
                now = perf_counter_ns()
                children = stack.pop()
                stats.calls += 1
                stats.self_ns += (now if end is None else end) - start - children
                if stack:
                    stack[-1] += now - start

        return traced_call

    def metrics(self) -> dict[str, float]:
        """Every per-function and per-layer figure this tracer can give."""
        out: dict[str, float] = {}
        for key, stats in self.stats.items():
            out[f"{key}.calls"] = stats.calls
            out[f"{key}.self_ms"] = stats.self_ns / 1e6
        out.update(self.counts)
        out["shaper.variants_per_word"] = _ratio(
            self.counts["shaper.variants"], out["shaper.word_variants.calls"]
        )
        out["shaper.distinct_word_ratio"] = _ratio(len(self.shaped), out["shaper.shape_word.calls"])
        out["justify.line_candidate.feasible_ratio"] = _ratio(
            self.counts["justify.line_candidate.feasible"], out["justify.line_candidate.calls"]
        )
        for name in ("textmodel.clusters", "justify.lines", "diacritics.unresolvable_overlaps",
                     "layout.dumps.bytes", "svg.render_svg.bytes"):
            out.setdefault(name, 0)
        return out

    def self_ns_total(self) -> int:
        return sum(stats.self_ns for stats in self.stats.values())


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


@contextmanager
def traced() -> Iterator[Tracer]:
    """Wrap every function in ``TRACED`` for the duration of the block."""
    tracer = Tracer()
    undo: list = []
    try:
        for layer, names in TRACED.items():
            module = importlib.import_module(f"qalam.{layer}")
            for name in names:
                original = getattr(module, name)
                _patch_everywhere(original, tracer.wrap(f"{layer}.{name}", original), undo)
        yield tracer
    finally:
        _restore(undo)


@contextmanager
def break_optimum_peaks() -> Iterator[list[int]]:
    """Record the tracemalloc peak, in bytes, of each ``break_optimum`` call."""
    original = justify.break_optimum
    peaks: list[int] = []

    @wraps(original)
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    undo: list = []
    try:
        _patch_everywhere(original, measured, undo)
        yield peaks
    finally:
        _restore(undo)
