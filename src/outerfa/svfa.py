"""Halting self-verifying simulation by inductive counting.

The decision procedure replays one nondeterministic branch per choice
trace.  It counts, for every segment budget t, how many ports the machine
reaches at the left endmarker with chains of exactly t segments out of the
initial state, regenerating that set by guessing its members in increasing
port order.  The ports (`reach.machine_index`) are the states with a choice
at `<` and the initial and accepting states: every state of a chain but the
last starts a segment, and the last is the accepting state, so a state that
is not a port starts no segment, and dropping it from a level changes no
later level.  With k ports a shortest chain has at most k - 1 segments, so
the levels stop there.  Each guess is checked by the backward search (a
wrong guess aborts the branch in the don't-know verdict), then the next
level is probed one segment further.  Reaching the accepting state stops a branch with
ACCEPT; surviving every level without meeting it stops with REJECT.  Every
branch halts, at most one of the two definite verdicts is realizable for a
given word, and the realizable one matches plain acceptance.

Branches are driven through an explicit state machine whose snapshots sit
between choice points, stepped by one function (`_advance`) that gives
every child of a snapshot, one per pick.  One driver replays a single
trace (`svfa_run`); the other decides over the distinct snapshots of the
word (`svfa_decide`), expanding each once and memoizing its subtree's leaf
counts, since the simulation is a finite machine and many branches pass
through the same snapshot.  The replay steps the backward searches' choice
points in the controller's walk order and reads the one-segment relation
off those walks too, not off a return table.  The decider needs no order:
a search's keep-or-emit chain has one subtree per listed candidate plus
one don't-know leaf, so the verdicts realized and the leaf counts depend
only on which candidates there are.  It gives each search one point
listing them all, read off the rows of the word's return table without
building the controller.  A snapshot is exactly the simulation's state,
nine fields: six port-bounded counting variables, the chain check's
counter and the two-field backward-search cursor, which is what
`svfa_state_accounting` prices out; the equivalent single transition table
is astronomically large and is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import BudgetExceeded, InvariantViolation, TwoWayAutomaton, Verdict
from .normalform import require_normal_form
from .reach import _check_call, _walk, machine_index, return_table
# perfbench/tracing.py wraps these here by name
from .reach import build_controller, segment_reach  # noqa: F401


@dataclass(frozen=True)
class DecisionReport:
    """Aggregate over all computation branches for one word.

    The counts are leaves of the branch tree: a branch is counted once
    however many snapshots it shares with others.  `snapshots` is the
    number of distinct snapshots expanded, 0 when the initial state accepts
    before the first choice.  `all_halting` says that the enumeration
    finished with no snapshot repeating on a branch, so every branch halts
    (a repeat raises InvariantViolation instead); it is False exactly on
    the partial report that BudgetExceeded carries, whose enumeration
    stopped early.
    """

    verdict_exists_yes: bool
    verdict_exists_no: bool
    dont_know_count: int
    branches_explored: int
    all_halting: bool
    snapshots: int = 0


# The distinct snapshots one self-verifying decision may expand by default.
SVFA_BUDGET = 10**6


@dataclass(frozen=True)
class SvfaStateAccounting:
    """State budget of the self-verifying simulator, by component.

    Six simulation variables each range over at most n + 1 values; the
    chain checker adds a counter bounded by n times the guessing cursor's
    4n - 4 states, with the plain backward search recycling that space.
    The product is therefore on the order of n**8.  Given the machine's k
    ports, `port_total` prices the simulation `svfa_decide` runs, whose
    counts, levels and guesses range over the ports alone: six variables
    over k + 1 values and a chain counter bounded by k, while the cursor
    still ranges over the 4n - 4 controller states, so
    (k + 1)**6 * k * (4n - 4).  It is None when k is not given.
    """

    n: int
    variables_factor: int
    treach_factor: int
    total: int
    n8: int
    ratio: float
    degenerate: bool
    k: int | None = None
    port_total: int | None = None


class _SimContext:
    """Per-(machine, word) tables shared by every replayed branch.

    `ports` lists the machine's ports in state order; the counts, levels
    and guesses range over them, and a snapshot's q_target and q_prev are
    indices into it.  `rows` is the word's one-segment relation by state:
    q is one segment away from p exactly when q is in `rows[p]`, which the
    chain check tests directly.  `scripts[q]` lists the choice points of
    the guessing search for segments into the port q, each as the states
    that may be emitted there, every one of them a port, since it starts a
    segment; the searches into other states are never run.  A replayed
    trace (`replay`) needs them in the order of the controller's walk, and
    reads both off the walks of the machine's one controller into the k
    ports, which it takes through the searches' gate: a segment runs from p
    to the port q exactly when some point of the walk into q lists p.  It
    reads no return table, so it can audit one.  The decider reads the
    word's return table for the rows and its candidates for the scripts
    (`_decider_scripts`).
    """

    def __init__(self, automaton: TwoWayAutomaton, word: str, replay: bool):
        self.final = require_normal_form(automaton, alternating=False)
        self.initial = automaton.initial
        self.ports = machine_index(automaton).ports
        if replay:
            controller = _check_call(automaton, word)  # rejects foreign letters
            self.scripts = [[] for _ in range(automaton.n)]
            self.rows = [set() for _ in range(automaton.n)]
            for q in self.ports:
                self.scripts[q] = list(_walk(controller, word, q))
                for point in self.scripts[q]:
                    for p in point:
                        self.rows[p].add(q)
        else:
            self.rows = return_table(automaton, word)  # rejects foreign letters
            self.scripts = _decider_scripts(self.rows)


def _decider_scripts(rows: tuple[tuple[int | None, ...], ...]) -> list[list[list[int]]]:
    """Each target's search choice points for the decider: one point listing every candidate.

    The point for q lists p once per entry q of `rows[p]`, in state order;
    a target without candidates has no point.  Each such entry is one
    rightward choice of p whose run first returns in q, or p's stationary
    move into q: one listing of p in the controller's walk into q.  A
    keep-or-emit chain roots one subtree per candidate and ends in one
    don't-know leaf however its candidates are spread over points, so the
    report is the walk's.
    """
    candidates: list[list[int]] = [[] for _ in rows]
    for p, row in enumerate(rows):
        for q in row:
            if q is not None:
                candidates[q].append(p)
    return [[point] if point else [] for point in candidates]


# A branch pauses at a snapshot, a 9-tuple, and ends in a Verdict.  A
# snapshot is the state `svfa_state_accounting` prices: the six counting
# variables (t, m, m_new, q_target, i, q_prev), then the chain check's
# counter `owed` and the guessing-search cursor (cur, idx).  Level t holds m
# ports, m_new of level t + 1 are counted so far, q_target is the index
# among the ports of the cell's target and i the rank of the level-t port
# being guessed, whose index is above q_prev (-1 before the first guess).
# `owed` is the number of backward walks still owed, cur the state whose
# walk is in progress and idx its position.  Picks are made only while
# walks are owed, so owed == 0 marks a state guess.
ACCEPT, REJECT, DONT_KNOW = Verdict.ACCEPT, Verdict.REJECT, Verdict.DONT_KNOW


def _next_cell(ctx: _SimContext, t: int, m: int, m_new: int, q_target: int):
    """Move to the next (level, target-port) cell; an empty level rejects at once."""
    k = len(ctx.ports)
    if q_target == k:  # the level is finished: open the next one
        t, m, m_new, q_target = t + 1, m_new, 0, 0
        if t >= k - 1 or m == 0:
            return REJECT
    return (t, m, m_new, q_target, 1, -1, 0, 0, 0)


def _start(ctx: _SimContext):
    # exactly one state is reachable with zero segments: the initial one
    if ctx.initial == ctx.final:
        return ACCEPT
    return _next_cell(ctx, 0, 1, 0, 0)


def _verified(ctx: _SimContext, t: int, m: int, m_new: int, q_target: int, i: int, q_prev: int):
    """Go on once the guessed port q_prev passed the chain check: is the target a segment away?"""
    target = ctx.ports[q_target]
    if target in ctx.rows[ctx.ports[q_prev]]:
        if target == ctx.final:
            return ACCEPT
        return _next_cell(ctx, t, m, m_new + 1, q_target + 1)
    if i < m:
        return (t, m, m_new, q_target, i + 1, q_prev, 0, 0, 0)
    return _next_cell(ctx, t, m, m_new, q_target + 1)


def _advance(ctx: _SimContext, snapshot) -> list:
    """Every child of a paused branch, one per pick, each run to its next snapshot or a verdict.

    At a state guess pick q guesses the q-th port, and guesses come in
    increasing port order, so the first q_prev + 1 picks abort.  Inside a
    backward walk pick 0 ignores the launch states listed at the cursor and
    keeps searching, and pick j emits the j-th of them.  A walk that runs
    out of points, and a chain check that ends anywhere but the initial
    state, abort in don't-know.
    """
    t, m, m_new, q_target, i, q_prev, owed, cur, idx = snapshot
    scripts = ctx.scripts
    initial = ctx.initial
    if owed == 0:
        ports = ctx.ports
        children = [DONT_KNOW] * (q_prev + 1)
        if t:  # the guess owes t backward walks, starting at its own search
            for q in range(q_prev + 1, len(ports)):
                state = ports[q]
                children.append((t, m, m_new, q_target, i, q, t, state, 0) if scripts[state]
                                else DONT_KNOW)
        else:  # level 0 holds the initial state alone
            for q in range(q_prev + 1, len(ports)):
                children.append(_verified(ctx, t, m, m_new, q_target, i, q) if ports[q] == initial
                                else DONT_KNOW)
        return children
    script = scripts[cur]
    children = [(t, m, m_new, q_target, i, q_prev, owed, cur, idx + 1) if idx + 1 < len(script)
                else DONT_KNOW]
    if owed > 1:
        for p in script[idx]:
            children.append((t, m, m_new, q_target, i, q_prev, owed - 1, p, 0) if scripts[p]
                            else DONT_KNOW)
    else:  # the last walk owed: emitting p ends the chain check, passed only by the initial state
        for p in script[idx]:
            children.append(_verified(ctx, t, m, m_new, q_target, i, q_prev) if p == initial
                            else DONT_KNOW)
    return children


class TraceUnderflow(Exception):
    """The choice trace ran out; `options` says how many choices were open."""

    def __init__(self, options: int):
        super().__init__(f"trace exhausted with {options} choices open")
        self.options = options


def svfa_run(automaton: TwoWayAutomaton, word: str, trace: Sequence[int]) -> Verdict:
    """Replay one branch of the self-verifying simulation under `trace`.

    Choice points are the state guesses of the counting loop, pick q
    guessing the q-th port, and the keep-searching/emit decisions inside
    the backward searches, in execution order.  The run always halts, with one of the three verdicts;
    an out-of-range selector aborts in don't-know and a trace shorter than
    the branch raises TraceUnderflow.  The replay context depends on the
    machine and the word alone, so the machine keeps the last word's and
    the replays of one word share it; a new word builds it again through
    the searches' gate.
    """
    cached = automaton._replay
    if cached is not None and cached[0] == word:
        ctx = cached[1]
    else:
        ctx = _SimContext(automaton, word, replay=True)
        automaton._replay = (word, ctx)
    state = _start(ctx)
    position = 0
    while not isinstance(state, Verdict):
        children = _advance(ctx, state)
        if position >= len(trace):
            raise TraceUnderflow(len(children))
        pick = trace[position]
        position += 1
        if not 0 <= pick < len(children):
            return DONT_KNOW
        state = children[pick]
    return state


# Marks a snapshot in the memo whose subtree is still open on the DFS stack.
_OPEN = object()


def svfa_decide(automaton: TwoWayAutomaton, word: str, budget: int = SVFA_BUDGET) -> DecisionReport:
    """Aggregate the verdicts of every branch, expanding each distinct snapshot once.

    The branches form a tree whose nodes are snapshots, and many nodes
    share one snapshot, whose subtree is then the same.  One depth-first
    pass over the distinct snapshots memoizes each one's (accepts,
    rejects, don't-knows) leaf counts, so the report's counts are the
    tree's at the cost of the snapshots.  A snapshot met again while its
    own subtree is open is a branch that does not halt, which raises
    InvariantViolation.  Each search has at most one choice point, listing
    every candidate the controller's walk spreads over its points
    (`_decider_scripts`), which changes neither the verdicts realized nor
    the leaf counts.  `budget` caps the distinct snapshots expanded;
    exceeding it raises BudgetExceeded carrying the partial report, whose
    counts are the leaves tallied so far.  A negative budget raises
    ValueError.
    """
    if budget < 0:
        raise ValueError("the snapshot budget must be at least 0")
    ctx = _SimContext(automaton, word, replay=False)
    advance = _advance
    memo: dict = {}
    stack: list = []
    # the frame is (snapshot, children, pos, accepts, rejects, dont_knows);
    # the bottom one has no snapshot and one child, the start of every branch
    snapshot, children, pos, accepts, rejects, dont_knows = None, [_start(ctx)], 0, 0, 0, 0
    while True:
        if pos < len(children):
            child = children[pos]
            pos += 1
            if child is DONT_KNOW:
                dont_knows += 1
            elif child is ACCEPT:
                accepts += 1
            elif child is REJECT:
                rejects += 1
            else:
                tally = memo.get(child)
                if tally is None:
                    if len(memo) >= budget:
                        stack.append((snapshot, children, pos, accepts, rejects, dont_knows))
                        raise BudgetExceeded("snapshot budget exceeded",
                                             _partial_report(stack, len(memo)))
                    memo[child] = _OPEN
                    stack.append((snapshot, children, pos, accepts, rejects, dont_knows))
                    snapshot, children, pos, accepts, rejects, dont_knows = (
                        child, advance(ctx, child), 0, 0, 0, 0)
                elif tally is _OPEN:
                    raise InvariantViolation("a snapshot repeats on a branch, which never halts")
                else:
                    accepts += tally[0]
                    rejects += tally[1]
                    dont_knows += tally[2]
            continue
        if not stack:
            break
        memo[snapshot] = tally = (accepts, rejects, dont_knows)
        snapshot, children, pos, accepts, rejects, dont_knows = stack.pop()
        accepts += tally[0]
        rejects += tally[1]
        dont_knows += tally[2]
    if accepts and rejects:
        raise InvariantViolation("self-verification violated: both definite verdicts realizable")
    return _report(accepts, rejects, dont_knows, len(memo), all_halting=True)


def _partial_report(stack: list, snapshots: int) -> DecisionReport:
    """The leaves tallied so far: every frame on the DFS stack holds its finished children's."""
    accepts, rejects, dont_knows = (sum(frame[k] for frame in stack) for k in (3, 4, 5))
    return _report(accepts, rejects, dont_knows, snapshots, all_halting=False)


def _report(accepts: int, rejects: int, dont_knows: int, snapshots: int,
            all_halting: bool) -> DecisionReport:
    """The report on a tally of leaves: which definite verdicts occur, and how many leaves in all."""
    return DecisionReport(accepts > 0, rejects > 0, dont_knows, accepts + rejects + dont_knows,
                          all_halting, snapshots)


def svfa_state_accounting(n: int, k: int | None = None) -> SvfaStateAccounting:
    """Multiplicative state budget of the simulator for an n-state machine with k ports.

    k outside 1 ... n raises ValueError; without k the port form is None.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if k is not None and not 1 <= k <= n:
        raise ValueError("k must be between 1 and n")
    cursor = max(4 * n - 4, 0)
    variables = (n + 1) ** 6
    treach = n * cursor
    total = variables * treach
    n8 = n ** 8
    return SvfaStateAccounting(
        n=n,
        variables_factor=variables,
        treach_factor=treach,
        total=total,
        n8=n8,
        ratio=total / n8,
        degenerate=n < 2,
        k=k,
        port_total=None if k is None else (k + 1) ** 6 * k * cursor,
    )
