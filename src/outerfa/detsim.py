"""Deterministic simulation by divide and conquer over segment chains.

Whether some chain of at most t segments joins two states splits into two
half-length questions through a guessed midpoint, so acceptance (a chain of
at most n - 1 segments from the initial to the accepting state) resolves
with a stack whose height is only ceil(log2(n - 1)).  One explicit stack
machine, `_divide`, does this work for both users.  `reachable` (and so
`decide_det`) runs it to a verdict, answering each base case from the
word's return table.  `materialize_dfa` mints it into an actual
deterministic two-way machine: its leaf answers only the base cases that
need no tape, so the machine suspends at the others, and each emitted state
packs the suspended stack together with the backward-search cursor that
answers that base case on the tape.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, log2
from typing import Callable

from .core import LEFT_ENDMARKER, STAY, InvariantViolation, TwoWayAutomaton
from .normalform import require_normal_form
from .reach import (
    ACCEPT,
    ControllerState,
    DONE_LEFT,
    _check_states,
    _tape_free_segment,
    build_controller,
    return_table,
)
from .reach import reach  # noqa: F401  (perfbench/tracing.py wraps it here by name)


class TooLarge(ValueError):
    """The materialized machine would exceed the configured state ceiling."""


@dataclass
class ReachableStats:
    """Observed behavior of one reachable() evaluation."""

    max_stack_height: int = 0
    base_calls: int = 0


@dataclass(frozen=True)
class BoundReport:
    """State-count formulas for the simulating deterministic machine.

    `stack_configurations_bound` prices the machine when the input is
    already in normal form; `rough_bound` first pays the 3n conversion.
    `c_exponent` is the honest excess exponent c with
    rough_bound = n ** (log2(n) + c); it drifts down toward (and around) 6
    only for astronomically large n.
    """

    n: int
    normal_form_assumed: bool
    stack_configurations_bound: int
    rough_bound: int
    c_exponent: float


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


def _divide(stack: list[list[int]], height: int, n: int,
            leaf: Callable[[int, int], bool | None], answer: bool | None = None,
            stats: ReachableStats | None = None) -> bool | None:
    """Run the divide-and-conquer stack machine to a verdict or a suspended leaf.

    Each frame [q, p, r, phase] asks for a chain from q to p through the
    midpoint r: phase 1 poses its first half (q, r), phase 2 its second half
    (r, p).  The bottom frame [q, p, q, 2] poses the root question (q, p)
    itself and is never stepped; the frames above it are the halvings, at
    most `height` of them, and the questions posed by the top frame at that
    height are base cases, answered by `leaf`.  With `answer` None the top
    frame's question is still open; otherwise it has just been answered.
    Returns the root verdict, or None, leaving the stack as it is, when
    `leaf` answers None; resume by calling again with that base case's answer.
    """
    while True:
        frame = stack[-1]
        if answer is None:
            q, p, r, phase = frame
            if phase == 1:
                p = r
            else:
                q = r
            if len(stack) > height:
                answer = leaf(q, p)
                if answer is None:
                    return None
            else:
                stack.append([q, p, 0, 1])
                if stats is not None:
                    stats.max_stack_height = max(stats.max_stack_height, len(stack) - 1)
        elif len(stack) == 1:
            return answer
        elif answer and frame[3] == 2:
            stack.pop()  # both halves hold, so does the frame's question
        elif answer:
            frame[3] = 2
            answer = None
        elif frame[2] + 1 < n:
            frame[2] += 1
            frame[3] = 1
            answer = None
        else:
            stack.pop()  # no midpoint works


def reachable(automaton: TwoWayAutomaton, word: str, q: int, p: int, t: int,
              stats: ReachableStats | None = None) -> bool:
    """Is there a chain of at most t segments from q to p on `word`?

    t = 1 asks for equality or a single segment; larger budgets try every
    midpoint with two ceil(t/2) sub-questions.  The evaluation runs the
    stack machine `_divide`, whose observed height never exceeds
    ceil(log2(t)).  Base cases look the segment up in the word's return
    table, computed once per call.  State ids outside range(n) raise
    ValueError.
    """
    if t < 1:
        raise ValueError("the segment budget t must be at least 1")
    require_normal_form(automaton, alternating=False)
    _check_states(automaton, q, p)
    return _reachable(automaton, word, q, p, t, stats)


def _reachable(automaton: TwoWayAutomaton, word: str, q: int, p: int, t: int,
               stats: ReachableStats | None) -> bool:
    """The body of `reachable`, for callers that have already checked the machine and ids."""
    table = return_table(automaton, word)
    targets = [frozenset(table.outcomes(a)) for a in range(automaton.n)]

    def base(a: int, b: int) -> bool:
        if stats is not None:
            stats.base_calls += 1
        return a == b or b in targets[a]

    return _divide([[q, p, q, 2]], _ceil_log2(t), automaton.n, base, stats=stats)


def decide_det(automaton: TwoWayAutomaton, word: str,
               stats: ReachableStats | None = None) -> bool:
    """Deterministic acceptance: a chain of at most n - 1 segments reaches the accepting state.

    A machine whose initial state is the accepting one accepts at once.
    """
    require_normal_form(automaton, alternating=False)
    q_final = next(iter(automaton.accepting))
    if automaton.initial == q_final:
        return True
    return _reachable(automaton, word, automaton.initial, q_final, automaton.n - 1, stats)


def dfa_state_bound(n: int, normal_form: bool) -> BoundReport:
    """Exact integer evaluation of the simulating machine's size formulas."""
    if n < 2:
        raise ValueError("n must be at least 2")
    stack_bound = 4 * n * (2 * n) ** _ceil_log2(n - 1)
    rough = 4 * (3 * n) ** (_ceil_log2(3 * n - 1) + 2)
    c_exponent = log(rough) / log(n) - log2(n)
    return BoundReport(
        n=n,
        normal_form_assumed=normal_form,
        stack_configurations_bound=stack_bound,
        rough_bound=rough,
        c_exponent=c_exponent,
    )


def materialize_dfa(automaton: TwoWayAutomaton, max_states: int = 10**6) -> TwoWayAutomaton:
    """Emit the simulating deterministic two-way machine as a real automaton.

    States are (stack configuration, backward-search cursor) pairs plus two
    terminals; all bookkeeping between base cases happens in stationary
    moves at the left endmarker, where the backward search starts and ends.
    Guarded to tiny sources; the state count never exceeds
    4n * (2n) ** ceil(log2(n - 1)).
    """
    require_normal_form(automaton, alternating=False)
    n = automaton.n
    if not 2 <= n <= 5:
        raise ValueError("materialization is guarded to machines with 2 to 5 states")
    height = _ceil_log2(n - 1)
    bound = 4 * n * (2 * n) ** height
    if bound > max_states:
        raise TooLarge(f"state bound {bound} exceeds the ceiling {max_states}")
    controller = build_controller(automaton)
    q_final = controller.final_state

    def leaf_without_tape(q: int, p: int) -> bool | None:
        """Resolve a base case without touching the tape, if possible; None needs a search."""
        return True if q == p else _tape_free_segment(controller, q, p)

    ids: dict[object, int] = {}
    names: list[str] = []
    worklist: list[tuple] = []

    def state_id(key, name_hint: str) -> int:
        if key not in ids:
            ids[key] = len(names)
            names.append(name_hint)
            if isinstance(key, tuple):
                worklist.append(key)
        return ids[key]

    accept_id = state_id("accept", "acc")
    reject_id = state_id("reject", "rej")

    def resume(stack: list[list[int]], answer: bool | None) -> int:
        """The state after running the stack machine to its next tape-bound base case."""
        verdict = _divide(stack, height, n, leaf_without_tape, answer)
        if verdict is not None:
            return accept_id if verdict else reject_id
        q, p, r, phase = stack[-1]
        frames = tuple(map(tuple, stack))
        return state_id((frames, ControllerState(DONE_LEFT, r if phase == 1 else p)),
                        f"s{len(names)}")

    symbols = automaton.symbols()
    delta: dict[tuple[int, str], list[tuple[int, int]]] = {}
    initial_id = resume([[automaton.initial, q_final, automaton.initial, 2]], None)
    while worklist:
        key = worklist.pop()
        frames, ctrl = key
        sid = ids[key]
        q, p, r, phase = frames[-1]
        q_from = q if phase == 1 else r  # the base case's first endpoint
        for sym in symbols:
            entry = controller.entry(ctrl, sym, q_from)
            if entry is not None:
                nxt, d = entry
                target = state_id((frames, nxt), f"s{len(names)}")
                delta[(sid, sym)] = [(target, d)]
            elif sym == LEFT_ENDMARKER:
                # The backward search only ever halts at the left endmarker.
                target = resume([list(f) for f in frames], ctrl.kind == ACCEPT)
                delta[(sid, sym)] = [(target, STAY)]

    result = TwoWayAutomaton(
        state_names=names,
        alphabet=automaton.alphabet,
        delta=delta,
        initial=initial_id,
        accepting=[accept_id],
        declared_flavor="dfa",
    )
    if result.n > bound:
        raise InvariantViolation(
            f"materialized machine has {result.n} states, over its bound {bound}")
    return result
