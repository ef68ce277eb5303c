"""Independent acceptance evaluator for `Spec` machines.

It follows the semantics stated in the library's `core` docstrings without
calling the library: position 0 holds the left endmarker, |w| + 1 the right
one, and an undefined transition halts the path.  A machine without
universal states accepts when some configuration with an accepting state is
reachable from (initial, 0) (breadth-first search).  With universal states
acceptance is the least fixpoint of the and-or predicate: an accepting
configuration is accepted outright, an existential one needs one accepted
successor, a universal one needs at least one successor and all of them
accepted; loops are rejecting.  The fixpoint is computed by a worklist over
reverse edges with a pending-successor counter per universal configuration,
so it is linear in the size of the configuration graph.
"""

from __future__ import annotations

from collections import deque

from families import LEFT_END, RIGHT_END, Spec


def _successors(spec: Spec, state: int, head: int, word: str) -> list[tuple[int, int]]:
    if head == 0:
        symbol = LEFT_END
    elif head == len(word) + 1:
        symbol = RIGHT_END
    else:
        symbol = word[head - 1]
    return [(p, head + d) for (p, d) in spec.delta.get((state, symbol), ())]


def accepts(spec: Spec, word: str) -> bool:
    """Expected verdict of every decision method on `word`."""
    if spec.universal:
        return _and_or_accepts(spec, word)
    start = (spec.initial, 0)
    if spec.initial in spec.accepting:
        return True
    seen = {start}
    queue = deque([start])
    while queue:
        for succ in _successors(spec, *queue.popleft(), word):
            if succ[0] in spec.accepting:
                return True
            if succ not in seen:
                seen.add(succ)
                queue.append(succ)
    return False


def _and_or_accepts(spec: Spec, word: str) -> bool:
    configs = [(s, h) for s in range(spec.n) for h in range(len(word) + 2)]
    preds: dict[tuple[int, int], list[tuple[int, int]]] = {c: [] for c in configs}
    pending: dict[tuple[int, int], int] = {}
    for c in configs:
        succs = _successors(spec, *c, word)
        pending[c] = len(succs)
        for succ in succs:
            preds[succ].append(c)
    accepted = {c for c in configs if c[0] in spec.accepting}
    work = deque(accepted)
    while work:
        c = work.popleft()
        for x in preds[c]:
            if x in accepted:
                continue
            pending[x] -= 1
            if x[0] not in spec.universal or pending[x] == 0:
                accepted.add(x)
                work.append(x)
    return (spec.initial, 0) in accepted
