"""Per-input segment graphs and their reachability decisions.

For a fixed word, draw an edge from state p to state q whenever the machine
has a computation segment from p to q.  Acceptance of the word then becomes
plain directed reachability from the initial to the accepting state; for
machines with a universal/existential partition it becomes alternating
reachability, the least fixpoint of the usual and-or path predicate,
computed by the linear worklist solver `core.and_or_reach` that the
alternating oracle also runs.

The graph is the word's return table as `reach.return_table` returns it:
row p lists where each of p's left-endmarker choices ends, None for a
choice whose run never comes back to the left endmarker.  Both deciders
read the rows as they are.  A self-entry or a dead choice cannot change
plain reachability.  Under the least fixpoint, a universal state with a
dead choice, or with no choice at all, can never be part of an accepting
tree, just as such a machine state never is.  The edge set is a view
derived from the rows, for display.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import TwoWayAutomaton, and_or_reach
from .normalform import require_normal_form
from .reach import return_table
from .reach import build_controller, reach  # noqa: F401  (perfbench/tracing.py wraps them here)


@dataclass(frozen=True)
class SegmentGraph:
    """Directed graph over the states of one machine on one fixed word.

    Row p of `rows` holds one entry per choice of p: the state q of a
    segment p -> q, or None for a choice with no segment.
    """

    state_names: tuple[str, ...]
    rows: tuple[tuple[int | None, ...], ...]
    universal: frozenset[int] | None  # None: no partition attached
    source: int
    target: int

    @property
    def n(self) -> int:
        return len(self.state_names)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The rows as an edge set, for display.

        A plain graph drops self-loops.  A partitioned graph keeps them and
        locks each universal state with a dead or absent choice by a
        self-loop, so that textbook alternating reachability over this set
        agrees with `agap_decide`.
        """
        if self.universal is None:
            return frozenset((p, q) for p, row in enumerate(self.rows) for q in row
                             if q is not None and q != p)
        edges = {(p, q) for p, row in enumerate(self.rows) for q in row if q is not None}
        edges.update((p, p) for p in self.universal if not self.rows[p] or None in self.rows[p])
        return frozenset(edges)


def build_segment_graph(automaton: TwoWayAutomaton, word: str,
                        alternating: bool | None = None) -> SegmentGraph:
    """The machine's segment graph on `word`: its return table, with no pass over the rows.

    Partitioned mode, the default for a machine with universal states,
    attaches the universal set.  The machine must be in the relaxed normal
    form.
    """
    if alternating is None:
        alternating = bool(automaton.universal)
    final = require_normal_form(automaton, alternating=True)
    return SegmentGraph(
        state_names=tuple(automaton.state_names),
        rows=return_table(automaton, word),
        universal=automaton.universal if alternating else None,
        source=automaton.initial,
        target=final,
    )


def gap_decide(graph: SegmentGraph) -> bool:
    """Plain directed reachability from source to target (the empty path counts).

    A breadth-first search over the rows; None starts out seen, so a dead
    choice leads nowhere.  It reads a partitioned graph the same way.
    """
    if graph.source == graph.target:
        return True
    rows = graph.rows
    seen = {None, graph.source}
    queue = deque([graph.source])
    while queue:
        for q in rows[queue.popleft()]:
            if q not in seen:
                if q == graph.target:
                    return True
                seen.add(q)
                queue.append(q)
    return False


def agap_decide(graph: SegmentGraph) -> bool:
    """Alternating reachability: least fixpoint of the and-or path predicate.

    A vertex reaches the target if it is the target; an existential vertex
    needs some choice that reaches it, a universal vertex needs at least
    one choice, all of them reaching it.  A dead choice ends in None, which
    never does.  `and_or_reach` solves this in time linear in the graph.
    """
    if graph.universal is None:
        raise ValueError("the graph carries no existential/universal partition")
    succs = dict(enumerate(graph.rows))
    succs[None] = ()
    return graph.source in and_or_reach(succs, [graph.target], graph.universal.__contains__)


def oafa_decide(automaton: TwoWayAutomaton, word: str) -> bool:
    """Acceptance of a partitioned outer-choice machine via its segment graph."""
    return agap_decide(build_segment_graph(automaton, word, alternating=True))


def segment_graph_to_dot(graph: SegmentGraph) -> str:
    """Graphviz rendering: boxes for universal states, source bold, target doubled."""

    def quote(name: str) -> str:
        return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph segments {", "  rankdir=LR;"]
    universal = graph.universal or frozenset()
    for v, name in enumerate(graph.state_names):
        attrs = ["shape=box" if v in universal else "shape=ellipse"]
        if v == graph.target:
            attrs = ["shape=doubleoctagon" if v in universal else "shape=doublecircle"]
        if v == graph.source:
            attrs.append("style=bold")
        lines.append(f"  {quote(name)} [{', '.join(attrs)}];")
    for (p, q) in sorted(graph.edges):
        lines.append(f"  {quote(graph.state_names[p])} -> {quote(graph.state_names[q])};")
    lines.append("}")
    return "\n".join(lines) + "\n"
