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
between choice points, so one driver replays a single trace (`svfa_run`)
and another walks the whole choice tree without re-running shared prefixes
(`svfa_decide`).  The simulation itself needs only six state-bounded
variables plus the backward-search cursor, which is what
`svfa_state_accounting` prices out; the equivalent single transition table
is astronomically large and is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import InvariantViolation, TwoWayAutomaton, Verdict, _normal_form_flags
from .normalform import NotNormalForm
from .reach import (
    ReachController,
    TraceUnderflow,
    _scripts_for,
    build_controller,
    return_table,
)
from .reach import segment_reach  # noqa: F401  (perfbench/tracing.py wraps it here by name)


class BudgetExceeded(Exception):
    """Branch enumeration hit its budget; `report` holds the partial tallies."""

    def __init__(self, report: "DecisionReport"):
        super().__init__("trace enumeration budget exceeded")
        self.report = report


@dataclass(frozen=True)
class DecisionReport:
    """Aggregate over all enumerated computation branches for one word."""

    verdict_exists_yes: bool
    verdict_exists_no: bool
    dont_know_count: int
    branches_explored: int
    all_halting: bool
    complete: bool = True


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

    `segment[p]` holds the states one segment away from p, from the word's
    return table.  `scripts`, the guessing search's choice points, come from
    the controller walk, whose order fixes how a trace replays them.
    """

    def __init__(self, automaton: TwoWayAutomaton, word: str,
                 controller: ReachController | None = None):
        if controller is None:
            controller = build_controller(automaton)
        self.n = automaton.n
        self.initial = automaton.initial
        self.final = controller.final_state
        self.scripts = _scripts_for(automaton, controller, word)
        table = return_table(automaton, word)
        self.segment = [frozenset(table.outcomes(p)) for p in range(automaton.n)]


def _require_svfa_form(automaton: TwoWayAutomaton) -> None:
    if automaton.universal:
        raise NotNormalForm("the self-verifying simulation takes machines without universal states")
    if not all(_normal_form_flags(automaton, alternating=False)):
        raise NotNormalForm("the self-verifying simulation requires the strict normal form")
    if automaton.initial in automaton.accepting:
        raise NotNormalForm("the initial state must not be the accepting state")


# A paused branch is ("choice", snapshot, options); a finished one is
# ("done", verdict).  Snapshots hold the six counting variables plus the
# guessing-search cursor: (phase, t, m, m_new, q_target, i, q_prev, k, cur, idx)
# where phase distinguishes a state guess from a keep-or-emit pick, k is the
# number of backward walks still owed by the chain check, cur the state whose
# walk is in progress, and idx its position.

_GUESS = 0
_PICK = 1


def _next_cell(ctx: _SimContext, t: int, m: int, m_new: int, q_target: int):
    """Move to the next (level, target-state) cell; levels with m = 0 are empty."""
    n = ctx.n
    while True:
        if q_target < n:
            if m >= 1:
                return ("choice", (_GUESS, t, m, m_new, q_target, 1, -1, 0, 0, 0), n)
            q_target += 1
            continue
        t += 1
        if t >= n - 1:
            return ("done", Verdict.REJECT)
        m, m_new, q_target = m_new, 0, 0


def _start(ctx: _SimContext):
    # exactly one state is reachable with zero segments: the initial one
    return _next_cell(ctx, 0, 1, 0, 0)


def _drive(ctx: _SimContext, t: int, m: int, m_new: int, q_target: int,
           i: int, q_prev: int, k: int, cur: int, idx: int):
    """Run the chain check forward to its next choice point or a verdict."""
    if k == 0:
        if cur != ctx.initial:
            return ("done", Verdict.DONT_KNOW)
        # the guessed state survived the filter; is the target one segment away?
        if q_target in ctx.segment[q_prev]:
            if q_target == ctx.final:
                return ("done", Verdict.ACCEPT)
            return _next_cell(ctx, t, m, m_new + 1, q_target + 1)
        if i < m:
            return ("choice", (_GUESS, t, m, m_new, q_target, i + 1, q_prev, 0, 0, 0), ctx.n)
        return _next_cell(ctx, t, m, m_new, q_target + 1)
    script = ctx.scripts[cur]
    if idx >= len(script):
        return ("done", Verdict.DONT_KNOW)  # backward tree exhausted
    return ("choice", (_PICK, t, m, m_new, q_target, i, q_prev, k, cur, idx),
            1 + len(script[idx]))


def _advance(ctx: _SimContext, snapshot, choice: int):
    phase, t, m, m_new, q_target, i, q_prev, k, cur, idx = snapshot
    if phase == _GUESS:
        if i > 1 and choice <= q_prev:
            return ("done", Verdict.DONT_KNOW)
        return _drive(ctx, t, m, m_new, q_target, i, choice, t, choice, 0)
    candidates = ctx.scripts[cur][idx]
    if choice == 0:  # ignore these launch states and keep searching backward
        return _drive(ctx, t, m, m_new, q_target, i, q_prev, k, cur, idx + 1)
    return _drive(ctx, t, m, m_new, q_target, i, q_prev, k - 1, candidates[choice - 1], 0)


def svfa_run(automaton: TwoWayAutomaton, word: str, trace: Sequence[int]) -> Verdict:
    """Replay one branch of the self-verifying simulation under `trace`.

    Choice points are the state guesses of the counting loop and the
    keep-searching/emit decisions inside the backward searches, in
    execution order.  The run always halts, with one of the three verdicts;
    an out-of-range selector aborts in don't-know and a trace shorter than
    the branch raises TraceUnderflow.
    """
    _require_svfa_form(automaton)
    ctx = _SimContext(automaton, word)
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


def svfa_decide(automaton: TwoWayAutomaton, word: str, budget: int = 10**6,
                controller: ReachController | None = None) -> DecisionReport:
    """Exhaust every choice trace depth-first and aggregate the verdicts.

    The enumeration is finite because every branch halts.  A budget of
    visited branch points guards against misuse on oversized machines;
    exceeding it raises BudgetExceeded carrying the partial report.
    """
    _require_svfa_form(automaton)
    ctx = _SimContext(automaton, word, controller)
    tally = {Verdict.ACCEPT: 0, Verdict.REJECT: 0, Verdict.DONT_KNOW: 0}

    def report(complete: bool) -> DecisionReport:
        return DecisionReport(
            verdict_exists_yes=tally[Verdict.ACCEPT] > 0,
            verdict_exists_no=tally[Verdict.REJECT] > 0,
            dont_know_count=tally[Verdict.DONT_KNOW],
            branches_explored=sum(tally.values()),
            all_halting=complete,
            complete=complete,
        )

    nodes = 0
    stack = [_start(ctx)]
    while stack:
        state = stack.pop()
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(report(complete=False))
        if state[0] == "done":
            tally[state[1]] += 1
            continue
        _, snapshot, options = state
        stack.extend(_advance(ctx, snapshot, pick) for pick in reversed(range(options)))
    if tally[Verdict.ACCEPT] and tally[Verdict.REJECT]:
        raise InvariantViolation("self-verification violated: both definite verdicts realizable")
    return report(complete=True)


def complement_decide(automaton: TwoWayAutomaton, word: str, budget: int = 10**6) -> bool:
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
