"""Spans for the traced benchmark run, recorded from outside the program.

The traced run rebinds public ``itkrm`` functions, in every ``itkrm``
module that holds them, to wrappers that record one span per call: name,
start, end, parent span and a few counts taken from the call's arguments
and result.  Spans stay in memory; the child writes them out at the end.
A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _iteration_shape(args, kwargs, result):
    dico = _arg(args, kwargs, 0, "dico")
    batch = _arg(args, kwargs, 1, "batch")
    return {"d": dico.d, "K": dico.K, "N": batch.n}


# (module, function, counts taken from (args, kwargs, result) or None).
# The names are the layer boundaries of the per-layer metrics.
LAYERS = (
    ("signals", "generate_batch", None),
    ("engine", "run_learning", None),
    ("engine", "run_iteration", _iteration_shape),
    ("engine", "top_s_indices", None),
    ("candidates", "draw_candidates", lambda a, k, r: {"drawn": r.L}),
    ("candidates", "normalize_subbatch", None),
    ("candidates", "replace_coherent", lambda a, k, r: {"installed": r[3]}),
    ("candidates", "replace_unused", lambda a, k, r: {"installed": r[1]}),
    ("adaptive", "run_adaptive", None),
    ("adaptive", "prune_coherent", None),
    ("adaptive", "prune_unused", None),
    ("adaptive", "add_atoms",
     lambda a, k, r: {"offered": _arg(a, k, 2, "cands").L, "added": r[2]}),
    ("adaptive", "update_sparsity", None),
    ("linalg", "solve_normal_equations", None),
    ("linalg", "asym_distance", None),
    ("linalg", "mean_atom_distance", None),
    ("linalg", "recovery_rate", None),
    ("approx", "approximation_power", None),
    ("images", "load_image_gray", None),
    ("images", "extract_patches", None),
    ("experiments", "write_trajectory_csv", None),
    ("container", "write_dictionary",
     lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))}),
)

ROOT = "bench.pass"

# Metrics beyond calls/self_s/share, in output order.
EXTRA_METRICS = (
    ("engine.run_iteration.gemm_equiv", "ratio"),
    ("engine.run_iteration.solve_fallbacks", "count"),
    ("candidates.installed_per_drawn", "ratio"),
    ("adaptive.add_atoms.accept_ratio", "ratio"),
    ("container.write_dictionary.bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
)


def layer_name(module: str, function: str) -> str:
    return f"{module}.{function}"


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for module, function, _ in LAYERS:
        prefix = layer_name(module, function)
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
        units[f"{prefix}.share"] = "ratio"
    units.update(EXTRA_METRICS)
    return units


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans of one thread; parents follow the call nesting."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index].end = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable, count=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                self.spans[index].counts.update(count(args, kwargs, result))
            return result
        return traced


@contextmanager
def rebound(tracer: Tracer):
    """Rebind every LAYERS function in each loaded ``itkrm`` module that
    holds it, and restore the originals on exit."""
    wrappers = {}
    for module, function, count in LAYERS:
        original = getattr(sys.modules[f"itkrm.{module}"], function)
        wrappers[id(original)] = (original, tracer.wrap(
            layer_name(module, function), original, count))
    swapped = []
    try:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or (mod_name != "itkrm"
                               and not mod_name.startswith("itkrm.")):
                continue
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    swapped.append((mod, attr, value))
        yield
    finally:
        for mod, attr, value in swapped:
            setattr(mod, attr, value)


def _union_length(intervals) -> float:
    total = 0.0
    lo = hi = None
    for start, end in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered = _union_length(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children[index])
        out.append((span.end - span.start) - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans: list[Span], gemm_seconds: Callable[[int, int, int], float]) -> dict:
    """Per-layer metrics of one traced pass whose root span is ROOT.

    ``gemm_seconds(d, K, N)`` times one bare ``atoms.T @ Y`` at that shape;
    ``gemm_equiv`` is the median over iterations of the iteration's self
    time in those units.
    """
    roots = [i for i, s in enumerate(spans) if s.name == ROOT and s.parent is None]
    if len(roots) != 1:
        raise ValueError("a traced pass has exactly one root span")
    root = roots[0]
    wall = spans[root].end - spans[root].start
    selfs = self_times(spans)
    metrics = {}
    for module, function, _ in LAYERS:
        name = layer_name(module, function)
        mine = [i for i, s in enumerate(spans) if s.name == name]
        self_s = sum(selfs[i] for i in mine)
        metrics[f"{name}.calls"] = len(mine)
        metrics[f"{name}.self_s"] = self_s
        metrics[f"{name}.share"] = _ratio(self_s, wall)

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    iterations = [i for i, s in enumerate(spans) if s.name == "engine.run_iteration"]
    ratios = [selfs[i] / gemm_seconds(spans[i].counts["d"], spans[i].counts["K"],
                                      spans[i].counts["N"]) for i in iterations]
    metrics["engine.run_iteration.gemm_equiv"] = statistics.median(ratios) if ratios else 0.0
    metrics["engine.run_iteration.solve_fallbacks"] = sum(
        1 for s in spans if s.name == "linalg.solve_normal_equations"
        and s.parent is not None and spans[s.parent].name == "engine.run_iteration")
    installed = (total("candidates.replace_coherent", "installed")
                 + total("candidates.replace_unused", "installed"))
    metrics["candidates.installed_per_drawn"] = _ratio(
        installed, total("candidates.draw_candidates", "drawn"))
    metrics["adaptive.add_atoms.accept_ratio"] = _ratio(
        total("adaptive.add_atoms", "added"), total("adaptive.add_atoms", "offered"))
    metrics["container.write_dictionary.bytes"] = total("container.write_dictionary", "bytes")
    metrics["trace.unattributed_frac"] = _ratio(selfs[root], wall)
    return metrics
