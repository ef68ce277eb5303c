"""Spans around the library's public functions, recorded from outside.

`Tracer.installed()` replaces each traced function on every module attribute
through which another layer (or the benchmark) looks it up, for example
`outerfa.graphred.reach` and `outerfa.svfa.segment_reach`, so nested calls
get spans of their own.  A span records its id, name, start, end, parent span
and the id of the benchmark item it belongs to.  Spans stay in memory until
`write` saves them; the originals are put back when the block exits.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from collections import defaultdict
from time import perf_counter

# (span name, function name, modules whose attribute is replaced).  Lookups
# inside the defining module of reach are left alone, so a call to `reach`
# does not get a second span for the `segment_reach` it delegates to.
TARGETS = (
    ("fileformat.parse", "parse", ("fileformat", "cli")),
    ("normalform.normalize", "normalize_onfa", ("normalform", "cli")),
    ("normalform.normalize", "normalize_oafa", ("normalform", "cli")),
    ("reach.build_controller", "build_controller", ("graphred", "detsim", "svfa", "cli")),
    ("reach.segment", "reach", ("graphred", "detsim", "cli")),
    ("reach.segment", "segment_reach", ("svfa",)),
    ("graphred.build_graph", "build_segment_graph", ("graphred", "cli")),
    ("graphred.gap", "gap_decide", ("graphred", "cli")),
    ("graphred.agap", "agap_decide", ("graphred",)),
    ("graphred.oafa", "oafa_decide", ("graphred", "cli")),
    ("svfa.decide", "svfa_decide", ("svfa", "cli")),
    ("detsim.decide", "decide_det", ("detsim", "cli")),
    ("core.oracle", "accepts_oracle", ("core", "cli")),
    ("core.alt_oracle", "alternating_accepts_oracle", ("core", "cli")),
    ("cli.run", "main", ("cli",)),
)


class Tracer:
    def __init__(self):
        self.item = "setup"
        # finished spans: (id, name, start, end, parent id, item id, self seconds)
        self.spans: list[tuple] = []
        self.graph_edges: list[tuple[str, int]] = []  # (item id, edge count)
        self._stack: list[list] = []  # open spans: [id, child seconds]
        self._next_id = 0

    def _wrap(self, name: str, func):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans.append((span_id, name, start, end, parent, self.item,
                                   end - start - frame[1]))
            if name == "graphred.build_graph":
                self.graph_edges.append((self.item, len(result.edges)))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for name, attr, modules in TARGETS:
                for module_name in modules:
                    module = importlib.import_module(f"outerfa.{module_name}")
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self, items: set[str]) -> tuple[dict[str, int], dict[str, float]]:
        """Span counts and self seconds by name, over spans of the given item ids."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for (_, name, _, _, _, item, own) in self.spans:
            if item in items:
                calls[name] += 1
                self_s[name] += own
        return calls, self_s

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for (span_id, name, start, end, parent, item, _) in self.spans:
                handle.write(json.dumps([span_id, name, start, end, parent, item]) + "\n")
