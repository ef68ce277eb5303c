"""Deterministic simulation by divide and conquer over segment chains.

Whether some chain of at most 2^h segments joins two states splits into two
questions about 2^(h-1) segments through a guessed midpoint, so acceptance
(a chain of segments from the initial to the accepting state) resolves with
a stack of logarithmic height.  The midpoints are guessed among the ports
alone: the states with a choice at the left endmarker, plus the initial and
the accepting state, which `reach.machine_index` lists once per machine.
Every state of a chain but the last starts a segment with a choice at `<`,
and the last is the accepting state, so with k ports a shortest chain has at
most k - 1 segments and the stack is ceil(log2(k - 1)) halvings high, where
guessing among all n states would need ceil(log2(n - 1)).  One explicit
stack machine, `_divide`, does this work for its only two entries,
`decide_det` and `materialize_dfa`.  It reads the base cases off bit rows
of the base-case relation over the ports (`_BaseRows`): a set bit in a true
row holds, one in an open row needs the tape.  Both entries make those rows
with one builder, `_base_rows`, which reads rows of end states indexed by
state and is the one place where they are narrowed to the ports.  A frame
one level above the bottom, whose questions each split into two base
cases, scans its midpoints in one inline loop: it settles each such bottom
question with a few big-integer operations, counts the base cases the
midpoint-by-midpoint scan would have asked, and pushes a bottom frame only
where a half suspends.  `decide_det` runs it to a verdict, with rows built
from the word's return table as it stands and no open bits, under a budget
of base cases (`DIVIDE_BUDGET` by default) past which it raises
BudgetExceeded.  `materialize_dfa` mints it into an actual deterministic
two-way machine: its rows, built from each state's left-endmarker choices,
settle only the base cases that need no tape, so the machine suspends at
the others, and each emitted state packs the suspended stack together with
the backward-search cursor that answers that base case on the tape.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, log, log2
from typing import Sequence

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
from .reach import build_controller, machine_index, return_table
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
    only for astronomically large n.  Given the machine's k ports,
    `port_stack_configurations_bound` prices the machine `materialize_dfa`
    emits, whose halvings guess their midpoints among the ports alone; it
    is None when k is not given.
    """

    n: int
    stack_configurations_bound: int
    rough_bound: int
    c_exponent: float
    degenerate: bool
    k: int | None = None
    port_stack_configurations_bound: int | None = None


# The base cases one divide-and-conquer decision may ask by default.  Over
# ports, the benchmark's costliest item asks 1 062 and a mod-(5, 7, 11)
# sweeper (28 states, 5 ports) rejecting a^31 asks 32; a ring of 28 states,
# each of them a port, rejecting a word would ask 22.4 * 10**6.
DIVIDE_BUDGET = 10**7

# The states `materialize_dfa` may emit by default.  Each costs about 1.5 kB
# while the call runs on a machine of one or two letters, so about 1.5 GB in
# all, and more with more letters: about 12 kB on a machine of 30.
MAX_STATES = 10**6


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


def _stack_height(k: int) -> int:
    """Halvings for a chain of at most k - 1 segments: ceil(log2(k - 1)), and 0 for k <= 2."""
    return _ceil_log2(max(k - 1, 1))


# The stack machine's base-case relation over the k ports, as four lists of bit
# rows (true_rows, open_rows, true_cols, open_cols): bit b of true_rows[a]
# says the base case (a, b) holds, bit b of open_rows[a] that it needs the
# tape, and a base case with neither fails.  The cols are the transposes.
# One builder, `_base_rows`, reads them off rows of end states for both
# entries.  A plain tuple: every decision builds one, and a NamedTuple's
# constructor cost about 3% of the time of a decision on a machine with 2
# to 4 states.
_BaseRows = tuple[list[int], list[int], list[int], list[int]]


def _base_rows(ports: Sequence[int], port_of: dict[int | None, int | None],
               ends: Sequence[Sequence[int | None]],
               open_ends: Sequence[Sequence[int]] = ()) -> _BaseRows:
    """Bit rows of the base cases over the ports: (a, a) and (a, b) for b in row a of `ends` hold.

    The rows are indexed by port, `port_of` each state's index in `ports`
    (None for a state that is not a port, and for None).  Row q of `ends`
    lists end states of q's choices, in `return_table`'s shape, None where
    a choice ends in no segment.  A pair (a, b) of ports with b in row a's
    state of `open_ends` needs the tape unless it already holds; every other
    pair fails.  An end that is not a port is dropped, as no chain goes on
    from it.
    """
    k = len(ports)
    true_rows = [1 << a for a in range(k)]
    true_cols = true_rows.copy()
    open_rows = [0] * k
    open_cols = open_rows.copy()
    for a, q in enumerate(ports):
        for b in ends[q]:
            b = port_of[b]
            if b is not None:
                true_rows[a] |= 1 << b
                true_cols[b] |= 1 << a
    if open_ends:
        for a, q in enumerate(ports):
            for b in open_ends[q]:
                b = port_of[b]
                if b is not None and not true_rows[a] >> b & 1:
                    open_rows[a] |= 1 << b
                    open_cols[b] |= 1 << a
    return true_rows, open_rows, true_cols, open_cols


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
    """Deterministic acceptance: a chain of at most k - 1 segments reaches the accepting state.

    k counts the machine's ports, the only states a chain stands on.  One
    run of `_divide` over the ports, at height ceil(log2(k - 1)), answers
    it: its chains of at most 2^height >= k - 1 segments reach no further,
    as a shortest chain repeats no port.  An initial state with no choice
    at `<` that is not the accepting one starts no chain, so every word is
    rejected.  A machine whose initial state is the accepting one accepts
    at once, once the word has passed the alphabet check.  A run that asks
    more than `budget` base cases raises BudgetExceeded; a negative budget
    raises ValueError.
    """
    if budget < 0:
        raise ValueError("the base-call budget must be at least 0")
    q_init, q_final = automaton.initial, require_normal_form(automaton, alternating=False)
    check_word(automaton, word)
    if q_init == q_final:
        return True
    index = machine_index(automaton)
    start = index.port_of[q_init]
    return _divide([[start, index.port_of[q_final], start, 2]], _stack_height(len(index.ports)),
                   _base_rows(index.ports, index.port_of, return_table(automaton, word)),
                   stats=stats, budget=budget)


def dfa_state_bound(n: int, k: int | None = None) -> BoundReport:
    """Exact integer evaluation of the simulating machine's size formulas.

    The stack configurations bound, 4n * (2n) ** ceil(log2(n - 1)), counts
    a midpoint and a phase, 2n choices, at each of ceil(log2(n - 1))
    halvings below a fixed root, times 4n for the cursor's 4n - 3
    controller states and the two terminals.  Its k-form, given the k
    ports among which `materialize_dfa` guesses midpoints, has
    ceil(log2(k - 1)) halvings of 2k choices each, while the cursor still
    ranges over every controller state: 4n * (2k) ** ceil(log2(k - 1)).
    It never exceeds the n-form.  A 1-state machine accepts at once; its
    report is flagged `degenerate`, and its `c_exponent`, which no power of
    n = 1 can fit, reads 0.0.  k outside 1 ... n raises ValueError.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if k is not None and not 1 <= k <= n:
        raise ValueError("k must be between 1 and n")
    stack_bound = 4 * n * (2 * n) ** _stack_height(n)
    rough = 4 * (3 * n) ** (_ceil_log2(3 * n - 1) + 2)
    c_exponent = log(rough) / log(n) - log2(n) if n > 1 else 0.0
    return BoundReport(
        n=n,
        stack_configurations_bound=stack_bound,
        rough_bound=rough,
        c_exponent=c_exponent,
        degenerate=n < 2,
        k=k,
        port_stack_configurations_bound=None if k is None else 4 * n * (2 * k) ** _stack_height(k),
    )


def materialize_dfa(automaton: TwoWayAutomaton, max_states: int = MAX_STATES) -> TwoWayAutomaton:
    """Emit the simulating deterministic two-way machine as a real automaton.

    States 0 and 1 are the terminals `acc` and `rej`; every other state is a
    (stack configuration, backward-search cursor) pair, the cursor being one
    of the controller's numbered states, and is minted by one rule: the
    next free id, s2, s3, ..., the first time the worklist meets its key.
    All bookkeeping between base cases happens in stationary moves at the
    left endmarker, where the backward search starts and ends.  A base
    case is settled without the tape off each state's left-endmarker
    choices, in the machine's one move index, wherever it can be: an equal
    pair or a stationary choice's target holds, and a start without a
    rightward choice, or an end at the accepting state, fails; the cursor
    answers the rest.  The stack guesses its midpoints among the ports
    alone, so its frames hold port indices, mapped back through the port
    list wherever the cursor needs a state; an initial state with no
    choice at `<` that is not accepting yields the machine that rejects at
    once.  The worklist mints only the states reachable from the start,
    and a machine needing more than `max_states` states, the two terminals
    included, raises BudgetExceeded, so a ceiling below 2 fits none; the
    count is checked against both forms of `dfa_state_bound`, the
    paper's 4n * (2n) ** ceil(log2(n - 1)) and its k-form over k ports,
    4n * (2k) ** ceil(log2(k - 1)).  The ceiling counts states, not memory:
    each emitted state costs about 1.5 kB while the call runs on a machine
    of one or two letters, and more with more letters (E1's 12-state normal
    form, 9 ports, emits 13 056 states in about 0.1 s and 21 MB; a 30-letter
    machine paid about 12 kB a state), so the default, `MAX_STATES`, lets
    one call grow to roughly 1.5 GB on two letters.  A 1-state machine
    yields the machine that accepts at once.  A negative `max_states`
    raises ValueError.
    """
    if max_states < 0:
        raise ValueError("the state ceiling must be at least 0")
    require_normal_form(automaton, alternating=False)
    if max_states < 2:  # acc and rej alone fill the ceiling
        raise BudgetExceeded(f"the machine needs more than {max_states} states")
    controller = build_controller(automaton)
    q_final, accept = controller.final_state, controller.accept
    index = machine_index(automaton)
    ports, port_of = index.ports, index.port_of
    height = _stack_height(len(ports))
    # a stationary choice is a segment; a rightward one leaves every port but
    # the accepting state, which only a stationary launch reaches, to the tape
    tape = [b for b in ports if b != q_final]
    rows = _base_rows(ports, port_of, [[x for x, d in row if d == STAY] for row in index.choices],
                      [tape if any(d == RIGHT for _, d in row) else () for row in index.choices])

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
        return state_id((tuple(map(tuple, stack)), controller.start(ports[r if phase == 1 else p])))

    symbols = automaton.symbols()
    delta: dict[tuple[int, str], list[tuple[int, int]]] = {}
    start = port_of[automaton.initial]
    initial_id = resume([[start, port_of[q_final], start, 2]], None)
    while worklist:
        key = worklist.pop()
        frames, cursor = key
        sid = ids[key]
        q, p, r, phase = frames[-1]
        q_from = ports[q if phase == 1 else r]  # the base case's first endpoint
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
    report = dfa_state_bound(automaton.n, len(ports))
    for bound in (report.stack_configurations_bound, report.port_stack_configurations_bound):
        if result.n > bound:
            raise InvariantViolation(
                f"materialized machine has {result.n} states, over its bound {bound}")
    return result
