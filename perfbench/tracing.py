"""In-memory span tracer for the traced benchmark run.

The tracer wraps the entry point of each layer by replacing a module or class
attribute for the duration of a ``with install(tracer):`` block; no file of
the package is changed.  A name that another module imports by value is
wrapped where that module looks it up (``is_solvable`` inside
``solvcover.solvabilizer``; ``build``, ``reduce_instance`` and
``solve_exact`` inside ``solvcover.cover``; ``build`` inside
``solvcover.cli``), so every call path into a layer passes one wrapper.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span in the same pass (-1 at top level) and ``op`` the id of the
benchmark op that caused it.  Spans stay in memory and are written out when
the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from pathlib import Path

#: Span names, one per wrapped entry point, in report order.
SPANS = (
    "constructions.build",
    "group.closure",
    "group.radical",
    "group.classes",
    "solvabilizer.sol",
    "solvabilizer.solvable",
    "solvabilizer.universe",
    "solvabilizer.reduce",
    "cover.solve_alpha",
    "cover.search",
    "theorems.verify",
)

#: Spans that open child spans on some workload; each gets a ``.self_s`` metric.
SELF_SPANS = (
    "constructions.build",
    "group.radical",
    "solvabilizer.sol",
    "solvabilizer.solvable",
    "solvabilizer.universe",
    "solvabilizer.reduce",
    "cover.solve_alpha",
    "theorems.verify",
)

#: Primitives that the pipeline stages call; the stage shares charge their
#: time to the calling stage.
PRIMITIVES = ("group.closure", "solvabilizer.solvable")

#: Counters, as reported.  ``*_calls`` count spans of one name; the rest are
#: filled by the hooks in ``install``.
COUNTERS = (
    "constructions.build_calls",
    "group.closure_calls",
    "group.closure_cut",
    "solvabilizer.sol_classes",
    "solvabilizer.solvable_tests",
    "solvabilizer.solvable_true",
    "solvabilizer.universe_size",
    "solvabilizer.candidates",
    "cover.nodes",
    "theorems.verify_calls",
)

_CALL_COUNTERS = {
    "constructions.build_calls": "constructions.build",
    "group.closure_calls": "group.closure",
    "solvabilizer.solvable_tests": "solvabilizer.solvable",
    "theorems.verify_calls": "theorems.verify",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"bench.pass_s": "s", "bench.pass.self_s": "s"}
    for name in SPANS:
        units[f"{name}_s"] = "s"
        if name in SELF_SPANS:
            units[f"{name}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "count"
    units["cover.nodes_per_s"] = "1/s"
    return units


class Tracer:
    """Records spans and counters while ``active``; inert otherwise."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def take(self) -> tuple[list[tuple], Counter]:
        """Spans and counters recorded so far; the tracer starts empty again."""
        taken = (self.spans, self.counts)
        self.spans, self.counts = [], Counter()
        return taken

    def wrap(self, name: str, fn, count=None, before=None):
        """``fn`` inside a span called ``name``.

        ``before(args)`` runs ahead of the call.  ``count(counts, args,
        result, state)`` runs only when the call returns normally; ``state``
        is what ``before`` returned.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.op)
            if count is not None:
                count(tracer.counts, args, result, state)
            return result

        return traced


def _closure_count(counts, args, result, state):
    if result is None:
        counts["group.closure_cut"] += 1


def _sol_before(args):
    # rep_sol memoizes per class; a class missing from its memo is computed now.
    incidence, cid = args[0], args[1]
    return cid not in incidence._rep_sol


def _sol_count(counts, args, result, missed):
    if missed:
        counts["solvabilizer.sol_classes"] += 1


def _solvable_count(counts, args, result, state):
    if result:
        counts["solvabilizer.solvable_true"] += 1


def _universe_count(counts, args, result, state):
    counts["solvabilizer.universe_size"] += len(result)


def _reduce_count(counts, args, result, state):
    counts["solvabilizer.candidates"] += len(result.candidates)


def _search_count(counts, args, result, state):
    counts["cover.nodes"] += result.nodes


@contextlib.contextmanager
def install(tracer: Tracer):
    """Wrap every layer entry point for the duration of the block."""
    from solvcover import cli, constructions, cover, group, solvabilizer, theorems

    saved = []

    def patch(owners, attr, name, **hooks):
        wrapped = tracer.wrap(name, getattr(owners[0], attr), **hooks)
        for owner in owners:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

    patch([constructions, cli, cover], "build", "constructions.build")
    patch([group.GroupTable], "closure_indices", "group.closure", count=_closure_count)
    patch([group.GroupTable], "solvable_radical_set", "group.radical")
    patch([group.GroupTable], "conjugacy_classes", "group.classes")
    patch([solvabilizer.SolvabilizerIncidence], "rep_sol", "solvabilizer.sol",
          before=_sol_before, count=_sol_count)
    patch([solvabilizer], "is_solvable", "solvabilizer.solvable", count=_solvable_count)
    patch([solvabilizer], "maximal_cyclic_generators", "solvabilizer.universe",
          count=_universe_count)
    patch([cover], "reduce_instance", "solvabilizer.reduce", count=_reduce_count)
    patch([cover], "solve_alpha", "cover.solve_alpha")
    patch([cover], "solve_exact", "cover.search", count=_search_count)
    patch([theorems], "verify_certificate", "theorems.verify")
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def pass_metrics(spans: list[tuple], counts: Counter, pass_s: float) -> dict[str, float]:
    """Per-layer totals of one pass.

    ``<name>_s`` sums the spans of one name that have no enclosing span of the
    same name; ``<name>.self_s`` subtracts the time covered by child spans
    (children of one span never overlap: the run is single-threaded).
    """
    child = _child_time(spans)
    total = dict.fromkeys(SPANS, 0.0)
    self_time = dict.fromkeys(SPANS, 0.0)
    calls = Counter()
    top_level = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        self_time[name] += end - start - child[i]
        if parent < 0:
            top_level += end - start
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] += end - start
    out = {"bench.pass_s": pass_s, "bench.pass.self_s": pass_s - top_level}
    for name in SPANS:
        out[f"{name}_s"] = total[name]
        if name in SELF_SPANS:
            out[f"{name}.self_s"] = self_time[name]
    for name in COUNTERS:
        span = _CALL_COUNTERS.get(name)
        out[name] = calls[span] if span else counts[name]
    search_s = total["cover.search"]
    out["cover.nodes_per_s"] = counts["cover.nodes"] / search_s if search_s > 0 else 0.0
    return out


def _child_time(spans: list[tuple]) -> list[float]:
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return child


def stage_shares(spans: list[tuple], pass_s: float) -> dict[str, float]:
    """Share of one pass spent in each stage.

    Every span's self time goes to its nearest enclosing span that is not a
    primitive (or to itself when there is none), so the shares of the
    stages and of ``bench`` (time outside every span) add up to 1.
    """
    child = _child_time(spans)
    shares = Counter()
    top_level = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent < 0:
            top_level += end - start
        stage, p = name, i
        while stage in PRIMITIVES and spans[p][3] >= 0:
            p = spans[p][3]
            stage = spans[p][0]
        shares[stage] += (end - start - child[i]) / pass_s
    shares["bench"] = (pass_s - top_level) / pass_s
    return dict(shares)


def write_spans(path: Path, passes: list[list[tuple]], meta: dict):
    """Write every pass's spans as JSON (times in seconds from the pass's first span)."""
    out = []
    for spans in passes:
        t0 = spans[0][1] if spans else 0.0
        out.append([[n, round(s - t0, 7), round(e - t0, 7), p, op] for n, s, e, p, op in spans])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"meta": meta, "fields": ["name", "start", "end", "parent", "op"],
                                "passes": out}, separators=(",", ":")))
