"""Deterministic simulation by divide and conquer over segment chains.

Whether some chain of at most 2^h segments joins two states splits into two
questions about 2^(h-1) segments through a guessed midpoint, so acceptance
(a chain of at most n - 1 segments from the initial to the accepting state)
resolves with a stack whose height is only ceil(log2(n - 1)).  One explicit
stack machine, `_divide`, does this work for its only two entries,
`decide_det` and `materialize_dfa`.  It reads the base cases off bit rows
of the base-case relation (`_BaseRows`): a set bit in a true row holds, one
in an open row needs the tape.  A frame one level above the bottom, whose
questions each split into two base cases, scans its midpoints in one inline
loop: it settles each such bottom question with a few big-integer
operations, counts the base cases the midpoint-by-midpoint scan would have
asked, and pushes a bottom frame only where a half suspends.  `decide_det`
runs it to a verdict, with rows built from the word's return table and no
open bits, under a budget of base cases (`DIVIDE_BUDGET` by default) past
which it raises BudgetExceeded.  `materialize_dfa` mints it into an actual
deterministic two-way machine: its rows settle only the base cases that
need no tape, so the machine suspends at the others, and each emitted state
packs the suspended stack together with the backward-search cursor that
answers that base case on the tape.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, log, log2

from .core import (
    LEFT_ENDMARKER,
    RIGHT,
    STAY,
    BudgetExceeded,
    InvariantViolation,
    TwoWayAutomaton,
    check_word,
)
from .normalform import require_normal_form
from .reach import build_controller, return_table
from .reach import reach  # noqa: F401  (perfbench/tracing.py wraps it here by name)


@dataclass
class ReachableStats:
    """Work of the stack machine, accumulated over every run it is passed to.

    `base_calls` counts the base cases a midpoint-by-midpoint scan asks;
    `max_stack_height` is the highest stack of halvings.
    """

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
    stack_configurations_bound: int
    rough_bound: int
    c_exponent: float
    degenerate: bool


# The base cases one divide-and-conquer decision may ask by default.  The
# benchmark's costliest item asks about 2.0 * 10**6; a mod-(5, 7, 11) sweeper
# (28 states) rejecting a^31 would ask 17.9 * 10**6.
DIVIDE_BUDGET = 10**7

# The states `materialize_dfa` may emit by default: about 1.5 GB while it runs.
MAX_STATES = 10**6


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


def _stack_height(n: int) -> int:
    """Halvings for a chain of at most n - 1 segments: ceil(log2(n - 1)), and 0 for n <= 2."""
    return _ceil_log2(max(n - 1, 1))


# The stack machine's base-case relation over range(n), as four lists of bit
# rows (true_rows, open_rows, true_cols, open_cols): bit b of true_rows[a]
# says the base case (a, b) holds, bit b of open_rows[a] that it needs the
# tape, and a base case with neither fails.  The cols are the transposes.
# A plain tuple: every decision builds one, and a NamedTuple's constructor cost
# about 3% of the time of a decision on a machine with 2 to 4 states.
_BaseRows = tuple[list[int], list[int], list[int], list[int]]


def _base_rows(cells: list[list[bool | None]]) -> _BaseRows:
    """Bit rows of an n x n table of base-case answers, None where the tape is needed."""
    n = len(cells)
    true_rows, open_rows, true_cols, open_cols = ([0] * n for _ in range(4))
    for a, row in enumerate(cells):
        for b, cell in enumerate(row):
            if cell is None:
                open_rows[a] |= 1 << b
                open_cols[b] |= 1 << a
            elif cell:
                true_rows[a] |= 1 << b
                true_cols[b] |= 1 << a
    return true_rows, open_rows, true_cols, open_cols


def _segment_rows(automaton: TwoWayAutomaton, word: str) -> _BaseRows:
    """Base cases on `word`: a equals b, or one segment runs from a to b.

    Read off the word's return table in O(n + segments); none needs the tape.
    """
    n = automaton.n
    rows = [1 << a for a in range(n)]
    cols = rows.copy()
    for a, outcomes in enumerate(return_table(automaton, word)):
        for b in outcomes:
            if b is not None:
                rows[a] |= 1 << b
                cols[b] |= 1 << a
    zeros = [0] * n
    return rows, zeros, cols, zeros


def _divide(stack: list[list[int]], height: int, rows: _BaseRows, answer: bool | None = None,
            stats: ReachableStats | None = None, budget: float = inf) -> bool | None:
    """Run the divide-and-conquer stack machine to a verdict or a suspended base case.

    Each frame [q, p, r, phase] asks for a chain from q to p through the
    midpoint r: phase 1 poses its first half (q, r), phase 2 its second half
    (r, p).  The root frame [q, p, q, 2] poses the root question (q, p)
    itself and is never stepped; the frames above it are the halvings, at
    most `height` of them, and the questions posed by the top frame at that
    height are base cases, read off `rows`.  A next-to-bottom frame, one at
    stack length `height` >= 1, poses bottom questions, each of which a
    bottom frame would split into two base cases: a halving poses (q, r)
    and (r, p) for each of its remaining midpoints, and the root its one
    question (q, p).  It settles them in one local loop with a few
    big-integer operations each: for the question (a, b), with the rows of
    a and the columns of b, stops = open_a | (true_a & (open_b | true_b))
    marks the midpoints where the midpoint-by-midpoint scan would suspend
    (on an open half) or succeed, its lowest bit is the stop the scan
    reaches first, and with no bit set no midpoint works.  No frame is
    pushed unless a half suspends.  A frame above that, a height-0 root or
    a bottom frame reached on resume, settles the one base case it poses,
    and the answers move it on one midpoint at a time.  `stats` gets the
    base cases the midpoint-by-midpoint scan asks, by popcount, and the
    highest stack of halvings.  With `answer` None the top frame's question
    is still open; otherwise it has just been answered.  Returns the root
    verdict, or None, leaving the stack as that scan would, at a base case
    with an open bit; resume by calling again with that base case's
    answer.  Base cases past `budget` raise BudgetExceeded when a frame
    settles, never mid-scan.
    """
    true_rows, open_rows, true_cols, open_cols = rows
    n = len(true_rows)
    calls = top = 0
    try:
        while True:
            frame = stack[-1]
            if answer is None:
                q, p, r, phase = frame
                depth = len(stack)
                if depth < height:
                    if depth > top:
                        top = depth  # the height of halvings after this push
                    stack.append([q, r, 0, 1] if phase == 1 else [r, p, 0, 1])
                    continue
                if depth == height:  # a next-to-bottom frame: scan its midpoints from r
                    top = height
                    last = n if depth > 1 else r + 1  # a root poses its one half (q, p)
                    true_q, open_q = true_rows[q], open_rows[q]
                    open_p = open_cols[p]
                    ends_p = open_p | true_cols[p]
                    while True:  # settle one bottom question from its midpoint 0
                        if phase == 1:  # the first half (q, r)
                            true_a, open_a, open_b = true_q, open_q, open_cols[r]
                            stops = open_a | true_a & (open_b | true_cols[r])
                        else:  # the second half (r, p)
                            true_a, open_a, open_b = true_rows[r], open_rows[r], open_p
                            stops = open_a | true_a & ends_p
                        if not stops:
                            calls += n + true_a.bit_count()
                            r += 1
                            if r == last:
                                answer = False
                                break
                            phase = 1
                            continue
                        k = (stops & -stops).bit_length() - 1
                        calls += k + (true_a & ((1 << k) - 1)).bit_count() + 1
                        if open_a >> k & 1:
                            frame[2], frame[3] = r, phase
                            stack.append([q, r, k, 1] if phase == 1 else [r, p, k, 1])
                            return None
                        calls += 1
                        if open_b >> k & 1:
                            frame[2], frame[3] = r, phase
                            stack.append([q, r, k, 2] if phase == 1 else [r, p, k, 2])
                            return None
                        if phase == 2:
                            answer = True
                            break
                        phase = 2
                    if depth > 1:
                        stack.pop()
                    continue
                # the one base case posed: a height-0 root, or a resumed bottom frame
                a, b = (q, r) if phase == 1 else (r, p)
                calls += 1
                if open_rows[a] >> b & 1:
                    return None
                answer = bool(true_rows[a] >> b & 1)
            elif calls > budget:
                raise BudgetExceeded("the stack machine ran past its budget of base cases")
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
    finally:
        if stats is not None:
            stats.base_calls += calls
            stats.max_stack_height = max(stats.max_stack_height, top)


def decide_det(automaton: TwoWayAutomaton, word: str,
               stats: ReachableStats | None = None, budget: int = DIVIDE_BUDGET) -> bool:
    """Deterministic acceptance: a chain of at most n - 1 segments reaches the accepting state.

    One run of `_divide` at height ceil(log2(n - 1)) answers it: its chains
    of at most 2^height >= n - 1 segments reach no further, as a shortest
    chain repeats no state.  A machine whose initial state is the accepting
    one accepts at once, once the word has passed the alphabet check.  A
    run that asks more than `budget` base cases raises BudgetExceeded; a
    negative budget raises ValueError.
    """
    if budget < 0:
        raise ValueError("the base-call budget must be at least 0")
    q_init, q_final = automaton.initial, require_normal_form(automaton, alternating=False)
    check_word(automaton, word)
    if q_init == q_final:
        return True
    return _divide([[q_init, q_final, q_init, 2]], _stack_height(automaton.n),
                   _segment_rows(automaton, word), stats=stats, budget=budget)


def dfa_state_bound(n: int) -> BoundReport:
    """Exact integer evaluation of the simulating machine's size formulas.

    A 1-state machine accepts at once; its report is flagged `degenerate`,
    and its `c_exponent`, which no power of n = 1 can fit, reads 0.0.
    """
    if n < 1:
        raise ValueError("n must be positive")
    stack_bound = 4 * n * (2 * n) ** _stack_height(n)
    rough = 4 * (3 * n) ** (_ceil_log2(3 * n - 1) + 2)
    c_exponent = log(rough) / log(n) - log2(n) if n > 1 else 0.0
    return BoundReport(
        n=n,
        stack_configurations_bound=stack_bound,
        rough_bound=rough,
        c_exponent=c_exponent,
        degenerate=n < 2,
    )


def materialize_dfa(automaton: TwoWayAutomaton, max_states: int = MAX_STATES) -> TwoWayAutomaton:
    """Emit the simulating deterministic two-way machine as a real automaton.

    States 0 and 1 are the terminals `acc` and `rej`; every other state is a
    (stack configuration, backward-search cursor) pair, the cursor being one
    of the controller's numbered states, and is minted by one rule: the
    next free id, s2, s3, ..., the first time the worklist meets its key.
    All bookkeeping between base cases happens in stationary moves at the
    left endmarker, where the backward search starts and ends.  A base
    case is settled without the tape off the controller's launch index,
    `controller.launchers`, wherever it can be: an equal pair or a
    stationary launch holds, and a start without a rightward launch, or an
    end at the accepting state, fails; the cursor answers the rest.  The
    worklist mints only the states reachable from the start, and a machine
    needing more than `max_states` states, the two terminals included,
    raises BudgetExceeded, so a ceiling below 2 fits none; the count never
    exceeds `dfa_state_bound(n).stack_configurations_bound`, 4n *
    (2n) ** ceil(log2(n - 1)).  The ceiling counts states, not memory: each
    emitted state costs about 1.5 kB while the call runs (E1's 12-state
    normal form emits 345 439 states at about 530 MB peak RSS), so the
    default, `MAX_STATES`, lets one call grow to roughly 1.5 GB.  A 1-state
    machine yields the machine that accepts at once.  A negative
    `max_states` raises ValueError.
    """
    if max_states < 0:
        raise ValueError("the state ceiling must be at least 0")
    require_normal_form(automaton, alternating=False)
    if max_states < 2:  # acc and rej alone fill the ceiling
        raise BudgetExceeded(f"the machine needs more than {max_states} states")
    n = automaton.n
    height = _stack_height(n)
    controller = build_controller(automaton)
    q_final, accept, launchers = controller.final_state, controller.accept, controller.launchers
    rightward = {q for (_, d), qs in launchers.items() if d == RIGHT for q in qs}

    def base_case(q: int, p: int) -> bool | None:
        """Whether a chain of at most one segment joins q to p; None when only the tape can tell.

        The controller's launch index settles it as `_walk`'s first point
        does: a stationary launch of p by q is a segment, and a rightward
        launch of q leaves it to the tape unless p is the accepting state.
        """
        if q == p or q in launchers.get((p, STAY), ()):
            return True
        if p != q_final and q in rightward:
            return None
        return False

    rows = _base_rows([[base_case(q, p) for p in range(n)] for q in range(n)])

    ids: dict[tuple, int] = {}
    worklist: list[tuple] = []

    def state_id(key: tuple) -> int:
        """The id of a (stack configuration, cursor) state, minting it on first sight."""
        sid = ids.get(key)
        if sid is None:
            sid = len(ids) + 2  # after acc and rej
            if sid >= max_states:
                raise BudgetExceeded(f"the machine needs more than {max_states} states")
            ids[key] = sid
            worklist.append(key)
        return sid

    def resume(stack: list[list[int]], answer: bool | None) -> int:
        """The state after running the stack machine to its next tape-bound base case."""
        verdict = _divide(stack, height, rows, answer)
        if verdict is not None:
            return 0 if verdict else 1
        q, p, r, phase = stack[-1]
        return state_id((tuple(map(tuple, stack)), controller.start(r if phase == 1 else p)))

    symbols = automaton.symbols()
    delta: dict[tuple[int, str], list[tuple[int, int]]] = {}
    initial_id = resume([[automaton.initial, q_final, automaton.initial, 2]], None)
    while worklist:
        key = worklist.pop()
        frames, cursor = key
        sid = ids[key]
        q, p, r, phase = frames[-1]
        q_from = q if phase == 1 else r  # the base case's first endpoint
        for sym in symbols:
            entry = controller.entry(cursor, sym, q_from)
            if entry is not None:
                nxt, d = entry
                delta[(sid, sym)] = [(state_id((frames, nxt)), d)]
            elif sym == LEFT_ENDMARKER:
                # The backward search only ever halts at the left endmarker.
                target = resume([list(f) for f in frames], cursor == accept)
                delta[(sid, sym)] = [(target, STAY)]

    result = TwoWayAutomaton(
        state_names=["acc", "rej"] + [f"s{i}" for i in range(2, len(ids) + 2)],
        alphabet=automaton.alphabet,
        delta=delta,
        initial=initial_id,
        accepting=[0],
        declared_flavor="dfa",
    )
    bound = dfa_state_bound(n).stack_configurations_bound
    if result.n > bound:
        raise InvariantViolation(
            f"materialized machine has {result.n} states, over its bound {bound}")
    return result
