"""Reference code the test suite checks the library against.

Small hand-built machines used across the suite (E1 is also committed as
`tests/data/e1.2wa`); the stepping model one configuration at a time
(`Configuration`, `symbol_at`, `step`); and reference oracles built on
that model, which the integer-id oracles of `outerfa.core` are compared
with.  The step-based oracles build a set of `Configuration` tuples per
step, and the alternating one runs the and-or solver over all
n * (|w| + 2) configurations, reachable or not.  The visit-bounded oracle
exists only here, and so does the branch-by-branch walk of the
self-verifying simulation's tree (`reference_svfa_tree`), which
`svfa_decide`'s pass over distinct snapshots is checked against.  The
guessing chain searches over the backward controller's walk (`_chain`,
`n_reach` and its iterated form `t_reach`, driven by choice traces) are the
reference for the chain check inside `svfa._advance`.  `exhaust` runs a
trace-driven search (`n_reach`, `t_reach`, `svfa_run`) over every choice
trace and counts each result.
"""

from collections import Counter, deque
from typing import NamedTuple, Sequence

from outerfa.core import (
    LEFT,
    LEFT_ENDMARKER,
    RIGHT,
    RIGHT_ENDMARKER,
    STAY,
    BudgetExceeded,
    NotApplicable,
    TwoWayAutomaton,
    Verdict,
    _check_states,
    and_or_reach,
    check_word,
)
from outerfa.reach import ReachController, _check_call, _walk
from outerfa.svfa import TraceUnderflow, _advance, _SimContext, _start

Q_I, P_A, P_B, R_A, R_B, Q_F = range(6)


def build_e1() -> TwoWayAutomaton:
    """Two-branch sweeper accepting a* | b*.

    From the left endmarker the machine launches either the a-branch or the
    b-branch; the chosen branch sweeps right over its letter, u-turns at the
    right endmarker, sweeps back, and accepts with a stationary move at the
    left endmarker.  Both branch states can also relaunch themselves from
    the left endmarker, so every state except the accepting one starts
    segments of its own.  The machine already has choices only at the left
    endmarker, a unique halting accepting state entered there by a
    stationary move, and no other stationary moves.
    """
    delta = {
        (Q_I, LEFT_ENDMARKER): [(P_A, RIGHT), (P_B, RIGHT)],
        (P_A, LEFT_ENDMARKER): [(P_A, RIGHT)],
        (P_A, "a"): [(P_A, RIGHT)],
        (P_A, RIGHT_ENDMARKER): [(R_A, LEFT)],
        (R_A, "a"): [(R_A, LEFT)],
        (R_A, LEFT_ENDMARKER): [(Q_F, STAY)],
        (P_B, LEFT_ENDMARKER): [(P_B, RIGHT)],
        (P_B, "b"): [(P_B, RIGHT)],
        (P_B, RIGHT_ENDMARKER): [(R_B, LEFT)],
        (R_B, "b"): [(R_B, LEFT)],
        (R_B, LEFT_ENDMARKER): [(Q_F, STAY)],
    }
    return TwoWayAutomaton(
        state_names=["qI", "pa", "pb", "ra", "rb", "qF"],
        alphabet="ab",
        delta=delta,
        initial=Q_I,
        accepting=[Q_F],
        declared_flavor="onfa",
    )


def build_e2() -> TwoWayAutomaton:
    """build_e1 with the launch choice made universal: accepts a* & b* = {empty word}."""
    e1 = build_e1()
    return TwoWayAutomaton(
        state_names=e1.state_names,
        alphabet=e1.alphabet,
        delta=e1.delta,
        initial=e1.initial,
        accepting=e1.accepting,
        universal=[Q_I],
        declared_flavor="oafa",
    )


def build_ea() -> TwoWayAutomaton:
    """The single-branch restriction of build_e1 to {qI, pa, ra, qF}: accepts a*."""
    qi, pa, ra, qf = range(4)
    delta = {
        (qi, LEFT_ENDMARKER): [(pa, RIGHT)],
        (pa, LEFT_ENDMARKER): [(pa, RIGHT)],
        (pa, "a"): [(pa, RIGHT)],
        (pa, RIGHT_ENDMARKER): [(ra, LEFT)],
        (ra, "a"): [(ra, LEFT)],
        (ra, LEFT_ENDMARKER): [(qf, STAY)],
    }
    return TwoWayAutomaton(
        state_names=["qI", "pa", "ra", "qF"],
        alphabet="a",
        delta=delta,
        initial=qi,
        accepting=[qf],
        declared_flavor="onfa",
    )


def build_trivial_empty(alphabet: str = "ab") -> TwoWayAutomaton:
    """Two states, no transitions: the empty language, already in normal form."""
    return TwoWayAutomaton(
        state_names=["qI", "qF"],
        alphabet=alphabet,
        delta={},
        initial=0,
        accepting=[1],
        declared_flavor="onfa",
    )


def build_trivial_all(alphabet: str = "ab") -> TwoWayAutomaton:
    """Two states accepting every word by one stationary move at the left endmarker."""
    return TwoWayAutomaton(
        state_names=["qI", "qF"],
        alphabet=alphabet,
        delta={(0, LEFT_ENDMARKER): [(1, STAY)]},
        initial=0,
        accepting=[1],
        declared_flavor="onfa",
    )


class Configuration(NamedTuple):
    """A (state, head position) pair; position 0 is the left endmarker."""

    state: int
    head: int


def symbol_at(word: str, position: int) -> str:
    """Tape symbol under the head: endmarkers at 0 and len(word)+1.

    A position off the tape raises ValueError.
    """
    if not 0 <= position <= len(word) + 1:
        raise ValueError(f"position {position} is off the tape of a {len(word)}-letter word")
    if position == 0:
        return LEFT_ENDMARKER
    if position == len(word) + 1:
        return RIGHT_ENDMARKER
    return word[position - 1]


def step(automaton: TwoWayAutomaton, config: Configuration, word: str) -> set[Configuration]:
    """All successor configurations of `config` on `word`.

    An empty set means the path halts; validation keeps every move on the
    tape.  An unknown state id raises ValueError, a letter outside the
    alphabet NotApplicable, and a head off the tape ValueError from
    `symbol_at`.
    """
    _check_states(automaton, config.state)
    check_word(automaton, word)
    symbol = symbol_at(word, config.head)
    return {Configuration(p, config.head + d)
            for (p, d) in automaton.successors(config.state, symbol)}


def reference_accepts(automaton, word):
    check_word(automaton, word)
    start = Configuration(automaton.initial, 0)
    if start.state in automaton.accepting:
        return True
    seen = {start}
    queue = deque([start])
    while queue:
        config = queue.popleft()
        for succ in step(automaton, config, word):
            if succ in seen:
                continue
            if succ.state in automaton.accepting:
                return True
            seen.add(succ)
            queue.append(succ)
    return False


def reference_bounded_visits(automaton, word, k):
    """Acceptance by a path whose configurations sit at the left endmarker at most k times.

    The initial configuration already counts as one visit, so k = 0 never
    accepts.  With k = n this agrees with `accepts_oracle`: a shortest
    accepting path never repeats a state at an endmarker.
    """
    if automaton.universal:
        raise NotApplicable("machine has universal states; use alternating_accepts_oracle")
    check_word(automaton, word)
    if k <= 0:
        return False
    start = (automaton.initial, 0, 1)
    if automaton.initial in automaton.accepting:
        return True
    seen = {start}
    queue = deque([start])
    while queue:
        state, head, visits = queue.popleft()
        for succ in step(automaton, Configuration(state, head), word):
            v = visits + (1 if succ.head == 0 else 0)
            if v > k:
                continue
            node = (succ.state, succ.head, v)
            if node in seen:
                continue
            if succ.state in automaton.accepting:
                return True
            seen.add(node)
            queue.append(node)
    return False


def reference_segment(automaton, word, p, q):
    check_word(automaton, word)
    end = Configuration(q, 0)
    frontier = deque()
    seen = set()
    for succ in step(automaton, Configuration(p, 0), word):
        if succ.head == 0:
            if succ == end:
                return True
        elif succ not in seen:
            seen.add(succ)
            frontier.append(succ)
    while frontier:
        config = frontier.popleft()
        for succ in step(automaton, config, word):
            if succ.head == 0:
                if succ == end:
                    return True
                continue
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return False


def reference_alternating(automaton, word):
    check_word(automaton, word)
    configs = [Configuration(s, h) for s in range(automaton.n) for h in range(len(word) + 2)]
    succs = {c: step(automaton, c, word) for c in configs}
    accepting = [c for c in configs if c.state in automaton.accepting]
    universal = automaton.universal
    good = and_or_reach(succs, accepting, lambda c: c.state in universal)
    return Configuration(automaton.initial, 0) in good


def _chain(controller: ReachController, word: str, q: int, t: int,
           trace: Sequence[int]) -> int | None:
    """Run t guessing searches backward from q, each from the state the last one emitted.

    At every choice point, option 0 keeps searching and option j >= 1 emits
    the j-th candidate.  Returns the last state emitted, or None if a search
    exhausts its backward tree or the trace picks a candidate that does not
    exist.  A too-short trace raises TraceUnderflow.
    """
    pos = 0
    for _ in range(t):
        for candidates in _walk(controller, word, q):
            if pos == len(trace):
                raise TraceUnderflow(1 + len(candidates))
            pick = trace[pos]
            pos += 1
            if not 0 <= pick <= len(candidates):
                return None
            if pick:
                q = candidates[pick - 1]
                break
        else:
            return None
    return q


def n_reach(automaton: TwoWayAutomaton, word: str, q_to: int,
            trace: Sequence[int]) -> int | Verdict:
    """Emit some state with a segment into q_to, as directed by `trace`.

    At every choice point, option 0 keeps searching backward and option
    j >= 1 emits the j-th candidate in state order.  Exhausting the
    backward tree, or demanding a candidate that does not exist, yields
    Verdict.DONT_KNOW.  A too-short trace raises TraceUnderflow.
    """
    result = _chain(_check_call(automaton, word, q_to), word, q_to, 1, trace)
    return Verdict.DONT_KNOW if result is None else result


def t_reach(automaton: TwoWayAutomaton, word: str, q: int, t: int,
            trace: Sequence[int]) -> bool | Verdict:
    """Check a chain of exactly t segments from the initial state down to q.

    The check walks backward: t guessing searches, each feeding the next,
    must end exactly at the initial state.  Any abort or mismatch is a
    don't-know, not a refusal.  With t = 0 the answer is simply whether q
    is the initial state, once the machine has passed the same normal-form
    gate as for t >= 1; a negative t raises ValueError.
    """
    if t < 0:
        raise ValueError("the chain length t must be at least 0")
    controller = _check_call(automaton, word, q)
    if t == 0:
        return q == automaton.initial
    return True if _chain(controller, word, q, t, trace) == automaton.initial else Verdict.DONT_KNOW


def exhaust(func) -> Counter:
    """Every result of a trace-driven callable over all of its traces, with its count."""
    results: Counter = Counter()
    stack = [()]
    while stack:
        trace = stack.pop()
        try:
            result = func(trace)
        except TraceUnderflow as stop:
            stack.extend(trace + (j,) for j in range(stop.options))
            continue
        results[result] += 1
    return results


def reference_svfa_tree(automaton, word, budget):
    """(accepts, rejects, don't-knows) over the self-verifying simulation's tree, leaf by leaf.

    Walks the tree depth-first through `svfa._advance`, expanding a
    snapshot again every time a branch reaches it.  `budget` caps the
    nodes visited, leaves included; past it the walk raises BudgetExceeded.
    """
    ctx = _SimContext(automaton, word, replay=False)
    tallies = {verdict: 0 for verdict in Verdict}
    nodes = 0
    stack = [_start(ctx)]
    while stack:
        state = stack.pop()
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded("tree walk budget exceeded")
        if isinstance(state, Verdict):
            tallies[state] += 1
        else:
            stack.extend(reversed(_advance(ctx, state)))
    return tallies[Verdict.ACCEPT], tallies[Verdict.REJECT], tallies[Verdict.DONT_KNOW]
