"""Halting self-verifying simulation by inductive counting.

The decision procedure replays one nondeterministic branch per choice
trace.  It counts, for every segment budget t, how many states the machine
reaches at the left endmarker with chains of exactly t segments out of the
initial state, regenerating that set by guessing its members in increasing
state order.  Each guess is checked by the backward search (a wrong guess
aborts the branch in the don't-know verdict), then the next level is probed
one segment further.  Reaching the accepting state stops a branch with
ACCEPT; surviving every level without meeting it stops with REJECT.  Every
branch halts, at most one of the two definite verdicts is realizable for a
given word, and the realizable one matches plain acceptance.

Branches are driven through an explicit state machine whose snapshots sit
between choice points, stepped by one function (`_advance`), so one driver
replays a single trace (`svfa_run`) and another walks the whole choice tree
without re-running shared prefixes (`svfa_decide`).  The replay steps the
backward searches' choice points in the controller's walk order and reads
the one-segment relation off those walks too, not off a return table.  The
tree walk needs no order: a search's keep-or-emit chain has one subtree per
listed candidate plus one don't-know leaf, so the verdicts realized and
the leaf counts depend only on which candidates there are.  The walk gives
each search one point listing them all, read off the rows of the word's
return table without building the controller.  A snapshot is exactly the
simulation's state, nine fields: six state-bounded counting variables, the
chain check's counter and the two-field backward-search cursor, which is
what `svfa_state_accounting` prices out; the equivalent single transition
table is astronomically large and is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import BudgetExceeded, InvariantViolation, TwoWayAutomaton, Verdict, check_word
from .normalform import require_normal_form
from .reach import TraceUnderflow, _walk, build_controller, return_table
from .reach import segment_reach  # noqa: F401  (perfbench/tracing.py wraps it here by name)


@dataclass(frozen=True)
class DecisionReport:
    """Aggregate over all enumerated computation branches for one word."""

    verdict_exists_yes: bool
    verdict_exists_no: bool
    dont_know_count: int
    branches_explored: int
    all_halting: bool
    complete: bool = True


# The branch points one self-verifying decision may visit by default.
SVFA_BUDGET = 10**6


@dataclass(frozen=True)
class SvfaStateAccounting:
    """State budget of the self-verifying simulator, by component.

    Six simulation variables each range over at most n + 1 values; the
    chain checker adds a counter bounded by n times the guessing cursor's
    4n - 4 states, with the plain backward search recycling that space.
    The product is therefore on the order of n**8.
    """

    n: int
    variables_factor: int
    treach_factor: int
    total: int
    n8: int
    ratio: float
    degenerate: bool


class _SimContext:
    """Per-(machine, word) tables shared by every replayed branch.

    `rows` is the word's one-segment relation: q is one segment away from
    p exactly when q is in `rows[p]`, which the chain check tests directly.
    `scripts[q]` lists the choice points of the guessing search for
    segments into q, each as the states that may be emitted there.  A
    replayed trace (`replay`) needs them in the order of the controller's
    walk, and reads both off the walks alone: a segment runs from p to q
    exactly when some point of the walk into q lists p.  It reads no return
    table, so it can audit one.  The decider reads the word's return table
    for the rows and its candidates for the scripts (`_decider_scripts`).
    """

    def __init__(self, automaton: TwoWayAutomaton, word: str, replay: bool):
        self.final = require_normal_form(automaton, alternating=False)
        self.n = automaton.n
        self.initial = automaton.initial
        if replay:
            check_word(automaton, word)
            controller = build_controller(automaton)
            self.scripts = [list(_walk(controller, word, q)) for q in range(automaton.n)]
            self.rows = [{q for q, script in enumerate(self.scripts) for point in script if p in point}
                         for p in range(automaton.n)]
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


# A paused branch is ("choice", snapshot, options); a finished one is
# ("done", verdict).  A snapshot is the state `svfa_state_accounting` prices:
# the six counting variables (t, m, m_new, q_target, i, q_prev), then the
# chain check's counter k and the guessing-search cursor (cur, idx).  Level t
# holds m states, m_new of level t + 1 are counted so far, q_target is the
# cell's target and i the rank of the level-t state being guessed, above
# q_prev (-1 before the first guess).  k is the number of backward walks
# still owed, cur the state whose walk is in progress and idx its position.
# Picks are made only while walks are owed, so k == 0 marks a state guess.


def _next_cell(ctx: _SimContext, t: int, m: int, m_new: int, q_target: int):
    """Move to the next (level, target-state) cell; an empty level rejects at once."""
    if q_target == ctx.n:  # the level is finished: open the next one
        t, m, m_new, q_target = t + 1, m_new, 0, 0
        if t >= ctx.n - 1 or m == 0:
            return ("done", Verdict.REJECT)
    return ("choice", (t, m, m_new, q_target, 1, -1, 0, 0, 0), ctx.n)


def _start(ctx: _SimContext):
    # exactly one state is reachable with zero segments: the initial one
    if ctx.initial == ctx.final:
        return ("done", Verdict.ACCEPT)
    return _next_cell(ctx, 0, 1, 0, 0)


def _advance(ctx: _SimContext, snapshot, choice: int):
    """Apply `choice` at a paused branch, then run it to its next choice point or a verdict."""
    t, m, m_new, q_target, i, q_prev, k, cur, idx = snapshot
    if k == 0:  # guesses come in increasing state order
        if choice <= q_prev:
            return ("done", Verdict.DONT_KNOW)
        q_prev, k, cur, idx = choice, t, choice, 0
    elif choice == 0:  # ignore these launch states and keep searching backward
        idx += 1
    else:
        k, cur, idx = k - 1, ctx.scripts[cur][idx][choice - 1], 0
    if k:
        script = ctx.scripts[cur]
        if idx >= len(script):
            return ("done", Verdict.DONT_KNOW)  # backward tree exhausted
        return ("choice", (t, m, m_new, q_target, i, q_prev, k, cur, idx), 1 + len(script[idx]))
    if cur != ctx.initial:
        return ("done", Verdict.DONT_KNOW)
    # the guessed state survived the filter; is the target one segment away?
    if q_target in ctx.rows[q_prev]:
        if q_target == ctx.final:
            return ("done", Verdict.ACCEPT)
        return _next_cell(ctx, t, m, m_new + 1, q_target + 1)
    if i < m:
        return ("choice", (t, m, m_new, q_target, i + 1, q_prev, 0, 0, 0), ctx.n)
    return _next_cell(ctx, t, m, m_new, q_target + 1)


def svfa_run(automaton: TwoWayAutomaton, word: str, trace: Sequence[int]) -> Verdict:
    """Replay one branch of the self-verifying simulation under `trace`.

    Choice points are the state guesses of the counting loop and the
    keep-searching/emit decisions inside the backward searches, in
    execution order.  The run always halts, with one of the three verdicts;
    an out-of-range selector aborts in don't-know and a trace shorter than
    the branch raises TraceUnderflow.
    """
    ctx = _SimContext(automaton, word, replay=True)
    state = _start(ctx)
    position = 0
    while state[0] == "choice":
        _, snapshot, options = state
        if position >= len(trace):
            raise TraceUnderflow(options)
        pick = trace[position]
        position += 1
        if not 0 <= pick < options:
            return Verdict.DONT_KNOW
        state = _advance(ctx, snapshot, pick)
    return state[1]


def svfa_decide(automaton: TwoWayAutomaton, word: str, budget: int = SVFA_BUDGET) -> DecisionReport:
    """Exhaust every choice trace depth-first and aggregate the verdicts.

    The enumeration is finite because every branch halts.  Each search
    has at most one choice point, listing every candidate the controller's
    walk spreads over its points (`_decider_scripts`), which changes
    neither the verdicts realized nor the leaf counts.  A budget of the
    branch points so visited guards against misuse on oversized machines;
    exceeding it raises BudgetExceeded carrying the partial report.  A
    negative budget raises ValueError.
    """
    if budget < 0:
        raise ValueError("the branch budget must be at least 0")
    ctx = _SimContext(automaton, word, replay=False)
    accepts = rejects = dont_knows = 0

    def report(complete: bool) -> DecisionReport:
        return DecisionReport(
            verdict_exists_yes=accepts > 0,
            verdict_exists_no=rejects > 0,
            dont_know_count=dont_knows,
            branches_explored=accepts + rejects + dont_knows,
            all_halting=complete,
            complete=complete,
        )

    nodes = 0
    stack = [_start(ctx)]
    while stack:
        state = stack.pop()
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded("trace enumeration budget exceeded", report(complete=False))
        if state[0] == "done":
            if state[1] is Verdict.DONT_KNOW:
                dont_knows += 1
            elif state[1] is Verdict.ACCEPT:
                accepts += 1
            else:
                rejects += 1
            continue
        _, snapshot, options = state
        stack.extend(_advance(ctx, snapshot, pick) for pick in reversed(range(options)))
    if accepts and rejects:
        raise InvariantViolation("self-verification violated: both definite verdicts realizable")
    return report(complete=True)


def complement_decide(automaton: TwoWayAutomaton, word: str, budget: int = SVFA_BUDGET) -> bool:
    """Membership in the complement language: does a rejecting branch exist?"""
    return svfa_decide(automaton, word, budget=budget).verdict_exists_no


def svfa_state_accounting(n: int) -> SvfaStateAccounting:
    """Multiplicative state budget of the simulator for an n-state machine."""
    if n < 1:
        raise ValueError("n must be positive")
    variables = (n + 1) ** 6
    treach = n * max(4 * n - 4, 0)
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
    )
