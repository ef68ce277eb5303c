"""Per-input segment graphs and their reachability decisions.

For a fixed word, draw an edge from state p to state q whenever the machine
has a computation segment from p to q.  Acceptance of the word then becomes
plain directed reachability from the initial to the accepting state; for
machines with a universal/existential partition it becomes alternating
reachability, evaluated as the least fixpoint of the usual and-or path
predicate.

Both kinds of graph are read off the word's return table, one edge per
left-endmarker choice.  Plain graphs omit self-loops: they cannot change
reachability.  Partitioned graphs need more than the bare segment
relation, because a universal state with a choice whose run never comes
back to the left endmarker can never be part of an accepting tree.  Such a
state gets a self-loop, which under the least fixpoint pins its and-clause
to false; states whose choices all return get exactly their outcome edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import TwoWayAutomaton
from .reach import return_table
from .reach import build_controller, reach  # noqa: F401  (perfbench/tracing.py wraps them here)


@dataclass(frozen=True)
class SegmentGraph:
    """Directed graph over the states of one machine on one fixed word."""

    state_names: tuple[str, ...]
    edges: frozenset[tuple[int, int]]
    universal: frozenset[int] | None  # None: no partition attached
    source: int
    target: int

    @property
    def n(self) -> int:
        return len(self.state_names)


def build_segment_graph(automaton: TwoWayAutomaton, word: str,
                        alternating: bool | None = None) -> SegmentGraph:
    """Segment edges of the machine on `word`, one per left-endmarker choice.

    Each choice of p adds the edge from p to the state its segment ends in,
    as read off the word's return table.  Plain mode drops self-loops.
    Partitioned mode keeps them and marks universal states owning a dead or
    absent choice with a self-loop.  The machine must be in the relaxed
    normal form.
    """
    if alternating is None:
        alternating = bool(automaton.universal)
    table = return_table(automaton, word)
    edges: set[tuple[int, int]] = set()
    for p in range(automaton.n):
        outcomes = table.outcomes(p)
        edges.update((p, q) for q in outcomes if q is not None and (alternating or q != p))
        if alternating and p in automaton.universal and (not outcomes or None in outcomes):
            edges.add((p, p))
    q_final = next(iter(automaton.accepting))
    return SegmentGraph(
        state_names=tuple(automaton.state_names),
        edges=frozenset(edges),
        universal=automaton.universal if alternating else None,
        source=automaton.initial,
        target=q_final,
    )


def gap_decide(graph: SegmentGraph) -> bool:
    """Plain directed reachability from source to target (the empty path counts)."""
    if graph.source == graph.target:
        return True
    seen = {graph.source}
    queue = deque([graph.source])
    succs: dict[int, list[int]] = {}
    for (p, q) in graph.edges:
        succs.setdefault(p, []).append(q)
    while queue:
        v = queue.popleft()
        for q in succs.get(v, ()):
            if q == graph.target:
                return True
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return False


def agap_decide(graph: SegmentGraph) -> bool:
    """Alternating reachability: least fixpoint of the and-or path predicate.

    A vertex reaches the target if it is the target; an existential vertex
    needs some successor that reaches it, a universal vertex needs every
    successor to reach it, vacuously so when it has no successors at all.
    """
    if graph.universal is None:
        raise ValueError("the graph carries no existential/universal partition")
    succs: dict[int, list[int]] = {v: [] for v in range(graph.n)}
    for (p, q) in graph.edges:
        succs[p].append(q)
    good = set()
    changed = True
    while changed:
        changed = False
        for v in range(graph.n):
            if v in good:
                continue
            if v == graph.target:
                ok = True
            elif v in graph.universal:
                ok = all(q in good for q in succs[v])
            else:
                ok = any(q in good for q in succs[v])
            if ok:
                good.add(v)
                changed = True
    return graph.source in good


def oafa_decide(automaton: TwoWayAutomaton, word: str) -> bool:
    """Acceptance of a partitioned outer-choice machine via its segment graph."""
    return agap_decide(build_segment_graph(automaton, word, alternating=True))


def segment_graph_to_dot(graph: SegmentGraph) -> str:
    """Graphviz rendering: boxes for universal states, source bold, target doubled."""

    def quote(name: str) -> str:
        return '"' + name.replace('"', '\\"') + '"'

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
