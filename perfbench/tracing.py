"""Spans around eqsat's public entry points, kept in memory and written out
when the run ends.

A span is (name, start, end, parent span, request id).  A layer's self time
is its spans' durations minus the time their child spans cover; the layer
spans of a request cover it except for the benchmark's own few statements
and uninstrumented helpers such as ``EGraph.add_leaf``.
"""
from __future__ import annotations

import json
import struct
import sys
import time
from array import array

REQUEST = "request"

# span name -> layer whose self time it counts towards
LAYER_OF = {
    "language.parse_term": "language.parse_s",
    "language.print_term": "language.print_s",
    "egraph.add_term": "egraph.add_s",
    "egraph.merge": "egraph.merge_s",
    "egraph.rebuild": "egraph.rebuild_s",
    "analysis.make": "analysis.s",
    "analysis.join": "analysis.s",
    "analysis.modify": "analysis.s",
    "analysis.canonical_data": "analysis.s",
    "pattern.search": "pattern.search_s",
    "rewrite.apply": "rewrite.apply_s",
    "runner.run": "runner.self_s",
    "runner.check_equiv": "runner.self_s",
    "extraction.build": "extraction.s",
    "extraction.best": "extraction.s",
}


class Tracer:
    def __init__(self, eqsat):
        self.eqsat = eqsat
        self.names: list[str] = [REQUEST]
        self._ids = {REQUEST: 0}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.request_id = -1
        self.rules: dict[str, dict] = {}
        self.counts = {"matches": 0, "applied": 0, "join_changed": 0,
                       "parse_nodes": 0, "extraction_classes": 0}
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording

    def open(self, name_id: int) -> int:
        span = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.request.append(self.request_id)
        self.stack.append(span)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return span

    def close(self, span: int) -> float:
        now = time.perf_counter()
        self.end[span] = now
        self.stack.pop()
        return now - self.start[span]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        name_id = self.name_id(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            span = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(span)

        return traced

    def request_span(self, request_id: int):
        self.request_id = request_id
        return self.open(0)

    # ------------------------------------------------------------------
    # installation

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        eqsat = self.eqsat
        runner = eqsat.runner
        counts = self.counts

        parse = eqsat.parse_term
        parse_span = self.wrap("language.parse_term", parse)

        def parse_term(text, lang):
            term = parse_span(text, lang)
            counts["parse_nodes"] += len(term)
            return term

        self._patch(eqsat, "parse_term", parse_term)
        self._patch(eqsat, "print_term",
                    self.wrap("language.print_term", eqsat.print_term))

        EGraph = eqsat.EGraph
        for attr in ("add_term", "merge", "rebuild"):
            self._patch(EGraph, attr, self.wrap(f"egraph.{attr}", getattr(EGraph, attr)))

        self._patch(eqsat.Rewrite, "search", self._search(eqsat.Rewrite.search))
        self._patch(runner, "apply_rewrite", self._apply(runner.apply_rewrite))

        run_span = self.wrap("runner.run", runner.run)
        self._patch(runner, "run", run_span)
        self._patch(eqsat, "run", run_span)
        self._patch(eqsat, "check_equiv",
                    self.wrap("runner.check_equiv", eqsat.check_equiv))

        Extractor = eqsat.Extractor
        build = self.wrap("extraction.build", Extractor.__init__)

        def extractor_init(extractor, *args, **kwargs):
            build(extractor, *args, **kwargs)
            counts["extraction_classes"] += len(extractor.costs)

        self._patch(Extractor, "__init__", extractor_init)
        self._patch(Extractor, "best", self.wrap("extraction.best", Extractor.best))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _rule(self, name: str) -> dict:
        stats = self.rules.get(name)
        if stats is None:
            stats = self.rules[name] = {
                "search_s": 0.0, "searches": 0, "matches": 0,
                "apply_s": 0.0, "applies": 0, "applied": 0,
            }
        return stats

    def _search(self, search):
        name_id = self.name_id("pattern.search")
        counts = self.counts

        def traced(rewrite, egraph):
            span = self.open(name_id)
            try:
                found = search(rewrite, egraph)
            finally:
                seconds = self.close(span)
            matches = sum(len(m.substs) for m in found)
            stats = self._rule(rewrite.name)
            stats["search_s"] += seconds
            stats["searches"] += 1
            stats["matches"] += matches
            counts["matches"] += matches
            return found

        return traced

    def _apply(self, apply_rewrite):
        name_id = self.name_id("rewrite.apply")
        counts = self.counts

        def traced(egraph, rewrite, matches):
            span = self.open(name_id)
            try:
                applied = apply_rewrite(egraph, rewrite, matches)
            finally:
                seconds = self.close(span)
            stats = self._rule(rewrite.name)
            stats["apply_s"] += seconds
            stats["applies"] += 1
            stats["applied"] += applied
            counts["applied"] += applied
            return applied

        return traced

    def analysis(self, inner):
        """A delegating analysis that records a span around every hook."""
        tracer = self
        counts = self.counts
        join_span = self.wrap("analysis.join", inner.join)

        class TracedAnalysis(self.eqsat.Analysis):
            make = staticmethod(tracer.wrap("analysis.make", inner.make))
            modify = staticmethod(tracer.wrap("analysis.modify", inner.modify))
            canonical_data = staticmethod(
                tracer.wrap("analysis.canonical_data", inner.canonical_data)
            )
            show = staticmethod(inner.show)

            @staticmethod
            def join(into, other):
                result = join_span(into, other)
                if result[1]:
                    counts["join_changed"] += 1
                return result

        return TracedAnalysis()

    # ------------------------------------------------------------------
    # reduction and output

    def summary(self) -> dict:
        """Self time per span name and per layer, span counts, and the share
        of request time the layer spans cover."""
        n = len(self.start)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(n):
            self_s[name[i]] += end[i] - start[i] - child[i]
            calls[name[i]] += 1
        by_span = {
            span_name: {"self_s": self_s[i], "calls": calls[i]}
            for i, span_name in enumerate(self.names)
        }
        layers: dict[str, float] = {}
        for span_name, layer in LAYER_OF.items():
            if span_name in by_span:
                layers[layer] = layers.get(layer, 0.0) + by_span[span_name]["self_s"]
        request_s = sum(end[i] - start[i] for i in range(n) if name[i] == 0)
        return {
            "spans": n,
            "request_s": request_s,
            "coverage": 1.0 - self_s[0] / request_s if request_s else 0.0,
            "layer_shares": {
                layer: seconds / request_s if request_s else 0.0
                for layer, seconds in sorted(layers.items())
            },
            "by_span": by_span,
            "layers": layers,
            "rules": self.rules,
            "counts": dict(self.counts),
        }

    def write(self, stem, summary: dict) -> None:
        """``<stem>.json`` holds the summary and the span-name table;
        ``<stem>.spans`` holds the span count (int64) and then the spans as
        columns: name, parent, request (int32 each), start and end (float64
        each, ``perf_counter`` seconds), all in the byte order the header
        names."""
        header = dict(summary, names=self.names, byteorder=sys.byteorder,
                      span_columns=[["name", "i4"], ["parent", "i4"],
                                    ["request", "i4"], ["start", "f8"],
                                    ["end", "f8"]])
        with open(f"{stem}.json", "w", encoding="utf-8") as handle:
            json.dump(header, handle, indent=1, sort_keys=True)
        with open(f"{stem}.spans", "wb") as handle:
            n = len(self.start)
            handle.write(struct.pack("=q", n))
            for column in (self.name, self.parent, self.request, self.start, self.end):
                handle.write(column.tobytes())
