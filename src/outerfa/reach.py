"""Segment detection by deterministic backward search.

A segment runs from the left endmarker to the left endmarker without
touching it in between.  Testing whether a segment from q_from to q_to
exists is done without ever simulating the possibly-looping machine
forward: because the machine is deterministic away from the left endmarker,
the predecessor relation restricted to positions >= 1 forms a tree under
every halting configuration, and a depth-first search of the tree rooted at
(q_to, 0) terminates on every input.

The search is materialized as a deterministic finite-state controller with
exactly 4n - 3 states, walking the input tape.  Each tree node (q, i) is
handled in two modes: first the predecessors one cell to the left, then the
predecessors one cell to the right, with one start and one finish state per
mode.  Only the rows read at the left endmarker depend on the q_from
parameter; they are kept in a separate per-parameter table.

On top of the controller sit a guessing variant (`n_reach`) that emits some
state with a segment into q_to, and its iterated form (`t_reach`) checking
a chain of exactly t segments out of the initial state.  Both are driven by
explicit choice traces so that callers can replay or exhaust them.

The controller is the paper's constant-memory device.  The deciders, which
may spend memory linear in the tape, instead read the whole segment
relation of one word off `return_table`: the same backward-search argument
read forward, one memoized pass over the configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .core import (
    LEFT,
    LEFT_ENDMARKER,
    RIGHT,
    RIGHT_ENDMARKER,
    STAY,
    InvariantViolation,
    TwoWayAutomaton,
    Verdict,
    symbol_at,
    _normal_form_flags,
)
from .normalform import NotNormalForm

SCAN_LEFT = "scan_left"
DONE_LEFT = "done_left"
SCAN_RIGHT = "scan_right"
DONE_RIGHT = "done_right"
ACCEPT = "accept"

_KIND_ORDER = {SCAN_LEFT: 0, DONE_LEFT: 1, SCAN_RIGHT: 2, DONE_RIGHT: 3, ACCEPT: 4}


class TraceUnderflow(Exception):
    """The choice trace ran out; `options` says how many choices were open."""

    def __init__(self, options: int):
        super().__init__(f"trace exhausted with {options} choices open")
        self.options = options


class _AbortBranch(Exception):
    """Internal: the trace selected a choice index that does not exist."""


class _TraceCursor:
    """Sequential reader of a choice trace."""

    def __init__(self, trace: Sequence[int]):
        self._trace = trace
        self._pos = 0

    def choose(self, options: int) -> int:
        if self._pos >= len(self._trace):
            raise TraceUnderflow(options)
        value = self._trace[self._pos]
        self._pos += 1
        if not 0 <= value < options:
            raise _AbortBranch
        return value


class ControllerState(NamedTuple):
    """One control state of the backward-search machine."""

    kind: str
    state: int | None

    def label(self, names: list[str]) -> str:
        if self.kind == ACCEPT:
            return "ACCEPT"
        return f"{self.kind.upper()}({names[self.state]})"


ACCEPT_STATE = ControllerState(ACCEPT, None)

Entry = tuple[ControllerState, int]


@dataclass(frozen=True)
class ReachController:
    """Materialized backward-search controller for one machine.

    `fixed_table` never depends on the segment endpoints; `left_end_rows`
    holds, for every possible q_from parameter, the row consulted when a
    scan-left state reads the left endmarker.  Every entry is deterministic
    and the controller is immutable, so it can be shared across runs.
    """

    automaton: TwoWayAutomaton
    final_state: int
    states: tuple[ControllerState, ...]
    fixed_table: dict[tuple[ControllerState, str], Entry]
    left_end_rows: dict[int, dict[int, Entry]]

    @property
    def state_count(self) -> int:
        return len(self.states)

    def dump(self) -> str:
        """Human-readable table, parameter-independent part first."""
        names = self.automaton.state_names
        dirs = {LEFT: "L", STAY: "S", RIGHT: "R"}
        lines = [f"controller states: {self.state_count}"]
        for (cs, sym), (nxt, d) in sorted(
            self.fixed_table.items(),
            key=lambda item: (_KIND_ORDER[item[0][0].kind], item[0][0].state, item[0][1]),
        ):
            lines.append(f"  {cs.label(names)} {sym} -> {nxt.label(names)} {dirs[d]}")
        for q_from in sorted(self.left_end_rows):
            lines.append(f"parameter q_from={names[q_from]}:")
            for q, (nxt, d) in sorted(self.left_end_rows[q_from].items()):
                lines.append(
                    f"  {ControllerState(SCAN_LEFT, q).label(names)} {LEFT_ENDMARKER} "
                    f"-> {nxt.label(names)} {dirs[d]}"
                )
        return "\n".join(lines)


def _require_normal_form(automaton: TwoWayAutomaton) -> int:
    # The relaxed variant suffices: segments only need determinism away
    # from the left endmarker plus the halting accepting-state shape.
    if not all(_normal_form_flags(automaton, alternating=True)):
        raise NotNormalForm("segment detection requires the structured normal form")
    return next(iter(automaton.accepting))


def build_controller(automaton: TwoWayAutomaton) -> ReachController:
    """Fill in the 4n - 3 state transition table for the backward search."""
    q_final = _require_normal_form(automaton)
    n = automaton.n
    letters = automaton.alphabet
    searchable = [q for q in range(n) if q != q_final]

    states: list[ControllerState] = []
    for kind in (SCAN_LEFT, DONE_LEFT, SCAN_RIGHT, DONE_RIGHT):
        states.extend(ControllerState(kind, q) for q in searchable)
    states.append(ACCEPT_STATE)
    if len(states) != 4 * n - 3:
        raise InvariantViolation(f"controller has {len(states)} states, not 4n - 3 = {4 * n - 3}")

    def row(p: int, sym: str) -> tuple[tuple[int, int], ...]:
        return automaton.successors(p, sym)

    table: dict[tuple[ControllerState, str], Entry] = {}
    for q in searchable:
        scan_left = ControllerState(SCAN_LEFT, q)
        done_left = ControllerState(DONE_LEFT, q)
        scan_right = ControllerState(SCAN_RIGHT, q)
        done_right = ControllerState(DONE_RIGHT, q)

        # Mode 1: predecessors one cell to the left of (q, i); the head sits
        # at i - 1.  The left endmarker row lives in the parameter table and
        # the right endmarker is unreachable here.
        for a in letters:
            preds = [p for p in range(n) if row(p, a) == ((q, RIGHT),)]
            if preds:
                table[(scan_left, a)] = (ControllerState(SCAN_LEFT, min(preds)), LEFT)
            else:
                table[(scan_left, a)] = (done_left, RIGHT)

        # Mode 1 finished: move right onto (q, i) itself and open Mode 2,
        # unless the head already scans the right endmarker, in which case
        # (q, i) has no right predecessors at all.
        for sym in letters + (LEFT_ENDMARKER,):
            table[(done_left, sym)] = (scan_right, RIGHT)
        table[(done_left, RIGHT_ENDMARKER)] = (done_right, STAY)

        # Mode 2: predecessors one cell to the right; the head sits at i + 1.
        for sym in letters + (RIGHT_ENDMARKER,):
            preds = [p for p in range(n) if row(p, sym) == ((q, LEFT),)]
            if preds:
                table[(scan_right, sym)] = (ControllerState(SCAN_LEFT, min(preds)), LEFT)
            else:
                table[(scan_right, sym)] = (done_right, LEFT)

        # Both modes done: (q, i) and its whole subtree are exhausted.  Find
        # the next sibling predecessor of the unique successor of (q, i), or
        # close the parent's mode.  At the left endmarker the search is back
        # at the root with nothing left, which rejects by halting here.
        for sym in letters + (RIGHT_ENDMARKER,):
            succs = row(q, sym)
            if not succs:
                continue  # never reached backward; left undefined
            (r, d) = succs[0]
            if d == STAY:
                raise InvariantViolation("stationary move away from the left endmarker")
            siblings = [p for p in range(q + 1, n) if row(p, sym) == ((r, d),)]
            if siblings:
                table[(done_right, sym)] = (ControllerState(SCAN_LEFT, min(siblings)), LEFT)
            elif d == RIGHT:
                table[(done_right, sym)] = (ControllerState(DONE_LEFT, r), RIGHT)
            else:
                table[(done_right, sym)] = (ControllerState(DONE_RIGHT, r), LEFT)

    left_rows: dict[int, dict[int, Entry]] = {}
    for q_from in range(n):
        launches = row(q_from, LEFT_ENDMARKER)
        left_rows[q_from] = {
            q: (ACCEPT_STATE, STAY) if (q, RIGHT) in launches
            else (ControllerState(DONE_LEFT, q), RIGHT)
            for q in searchable
        }

    return ReachController(
        automaton=automaton,
        final_state=q_final,
        states=tuple(states),
        fixed_table=table,
        left_end_rows=left_rows,
    )


def _run_controller(controller: ReachController, word: str, q_from: int, q_to: int) -> bool:
    """Execute the backward search; True means it halted in the accept state."""
    automaton = controller.automaton
    bound = controller.state_count * (len(word) + 2)
    param_row = controller.left_end_rows[q_from]
    cs = ControllerState(DONE_LEFT, q_to)
    pos = 0
    for _ in range(bound + 1):
        if cs.kind == ACCEPT:
            return True
        sym = symbol_at(word, pos)
        if cs.kind == SCAN_LEFT and sym == LEFT_ENDMARKER:
            entry = param_row[cs.state]
        else:
            entry = controller.fixed_table.get((cs, sym))
        if entry is None:
            return False
        cs, d = entry
        pos += d
    raise InvariantViolation(
        f"backward search exceeded its {bound}-step termination bound on {automaton!r}")


def _choice_script(controller: ReachController, word: str, q_to: int) -> tuple[tuple[int, ...], ...]:
    """Choice points of the guessing search, in execution order.

    The walk behaves as if "keep searching" were chosen at every left
    endmarker encounter, which visits every choice point of the backward
    tree exactly once.  Each recorded entry lists, in state order, the
    states that may be emitted there.
    """
    automaton = controller.automaton
    bound = controller.state_count * (len(word) + 2)
    script: list[tuple[int, ...]] = []
    cs = ControllerState(DONE_LEFT, q_to)
    pos = 0
    for _ in range(bound + 1):
        sym = symbol_at(word, pos)
        if cs.kind == SCAN_LEFT and sym == LEFT_ENDMARKER:
            q = cs.state
            script.append(tuple(
                p for p in range(automaton.n)
                if (q, RIGHT) in automaton.successors(p, LEFT_ENDMARKER)
            ))
            entry = (ControllerState(DONE_LEFT, q), RIGHT)
        else:
            entry = controller.fixed_table.get((cs, sym))
        if entry is None:
            return tuple(script)
        cs, d = entry
        pos += d
    raise InvariantViolation("backward search exceeded its termination bound")


def _check_states(automaton: TwoWayAutomaton, *states: int) -> None:
    for q in states:
        if not 0 <= q < automaton.n:
            raise ValueError(f"unknown state id {q}: the machine has states 0 to {automaton.n - 1}")


def reach(automaton: TwoWayAutomaton, word: str, q_from: int, q_to: int,
          controller: ReachController | None = None) -> bool:
    """Does the machine have a segment from q_from to q_to on `word`?

    Equal endpoints answer yes immediately.  A stationary move at the left
    endmarker into q_to is the shortest real segment and also answers yes;
    this covers every segment into the accepting state.  A state with no
    way off the left endmarker starts no segment.  Everything else runs the
    backward controller, which always halts.  State ids outside range(n)
    raise ValueError.
    """
    _check_states(automaton, q_from, q_to)
    if q_from == q_to:
        return True
    return segment_reach(automaton, word, q_from, q_to, controller)


def segment_reach(automaton: TwoWayAutomaton, word: str, q_from: int, q_to: int,
                  controller: ReachController | None = None) -> bool:
    """Like `reach` but without the equal-endpoints shortcut: a real segment must exist."""
    _check_states(automaton, q_from, q_to)
    if controller is None:
        controller = build_controller(automaton)
    launches = automaton.successors(q_from, LEFT_ENDMARKER)
    if (q_to, STAY) in launches:
        return True
    if not launches:
        return False
    if q_to == controller.final_state:
        return False
    return _run_controller(controller, word, q_from, q_to)


_UNSEEN = -1


@dataclass(frozen=True)
class ReturnTable:
    """`returns[x]`: the state in which the run from (x, 1) first reaches position 0, on one word.

    None if that run halts or loops first, or if no choice launches x rightward.
    """

    automaton: TwoWayAutomaton
    returns: tuple[int | None, ...]

    def outcomes(self, p: int) -> tuple[int | None, ...]:
        """End state of each left-endmarker choice of p, or None; p -> q iff q is one."""
        _check_states(self.automaton, p)
        return tuple(x if d == STAY else self.returns[x]
                     for (x, d) in self.automaton.successors(p, LEFT_ENDMARKER))


def return_table(automaton: TwoWayAutomaton, word: str) -> ReturnTable:
    """The segment relation of one word, by one memoized forward pass.

    Away from the left endmarker the machine is deterministic, so each
    configuration at position >= 1 has one fate.  A launch walks forward
    until it meets a configuration whose fate is known, or one on its own
    path (a loop), then records the fate along its path.  No configuration
    is walked twice: O(n * |w|) steps and n * (|w| + 2) memo slots.
    """
    _require_normal_form(automaton)
    n = automaton.n
    tape = word + RIGHT_ENDMARKER
    get = automaton.delta.get  # the table stores no empty successor tuples
    moves = {sym: [get((q, sym), (None,))[0] for q in range(n)] for sym in set(tape)}
    rows = [None] + [moves[sym] for sym in tape]  # position 0 is never read
    fate: list[int | None] = [_UNSEEN] * (n * len(rows))
    fate[:n] = range(n)  # back at position 0, in the current state
    returns: list[int | None] = [None] * n
    for x in {x for p in range(n)
              for (x, d) in automaton.successors(p, LEFT_ENDMARKER) if d == RIGHT}:
        path, q, pos, key = [], x, 1, n + x
        while fate[key] == _UNSEEN:
            fate[key] = None  # met again on this walk: a loop
            path.append(key)
            if rows[pos][q] is None:
                break  # the run halts
            q, d = rows[pos][q]
            pos += d
            key = pos * n + q
        out = fate[key]
        for key in path:
            fate[key] = out
        returns[x] = out
    return ReturnTable(automaton, tuple(returns))


def _scripts_for(automaton: TwoWayAutomaton, controller: ReachController,
                 word: str) -> dict[int, tuple[tuple[int, ...], ...]]:
    """Guessing-search scripts for every possible target state."""
    scripts = {}
    for q_to in range(automaton.n):
        if q_to == controller.final_state:
            cands = tuple(
                p for p in range(automaton.n)
                if (q_to, STAY) in automaton.successors(p, LEFT_ENDMARKER)
            )
            scripts[q_to] = (cands,) if cands else ()
        else:
            scripts[q_to] = _choice_script(controller, word, q_to)
    return scripts


def _n_reach_on_script(script: tuple[tuple[int, ...], ...], cursor: _TraceCursor) -> int | None:
    """Walk one guessing search; None encodes the don't-know abort."""
    for candidates in script:
        pick = cursor.choose(1 + len(candidates))
        if pick > 0:
            return candidates[pick - 1]
    return None


def n_reach(automaton: TwoWayAutomaton, word: str, q_to: int, trace: Sequence[int],
            controller: ReachController | None = None) -> int | Verdict:
    """Emit some state with a segment into q_to, as directed by `trace`.

    At every choice point, option 0 keeps searching backward and option
    j >= 1 emits the j-th candidate in state order.  Exhausting the
    backward tree, or demanding a candidate that does not exist, yields
    Verdict.DONT_KNOW.  A too-short trace raises TraceUnderflow.
    """
    _check_states(automaton, q_to)
    if controller is None:
        controller = build_controller(automaton)
    scripts = _scripts_for(automaton, controller, word)
    cursor = _TraceCursor(trace)
    try:
        result = _n_reach_on_script(scripts[q_to], cursor)
    except _AbortBranch:
        return Verdict.DONT_KNOW
    return Verdict.DONT_KNOW if result is None else result


def _t_reach_inner(q: int, t: int, initial: int,
                   scripts: dict[int, tuple[tuple[int, ...], ...]],
                   cursor: _TraceCursor) -> bool | None:
    cur = q
    for _ in range(t):
        cur = _n_reach_on_script(scripts[cur], cursor)
        if cur is None:
            return None
    return True if cur == initial else None


def t_reach(automaton: TwoWayAutomaton, word: str, q: int, t: int, trace: Sequence[int],
            controller: ReachController | None = None) -> bool | Verdict:
    """Check a chain of exactly t segments from the initial state down to q.

    The check walks backward: t guessing searches, each feeding the next,
    must end exactly at the initial state.  Any abort or mismatch is a
    don't-know, not a refusal.  With t = 0 the answer is simply whether q
    is the initial state.
    """
    _check_states(automaton, q)
    if t == 0:
        return q == automaton.initial
    if controller is None:
        controller = build_controller(automaton)
    scripts = _scripts_for(automaton, controller, word)
    cursor = _TraceCursor(trace)
    try:
        result = _t_reach_inner(q, t, automaton.initial, scripts, cursor)
    except _AbortBranch:
        return Verdict.DONT_KNOW
    return True if result else Verdict.DONT_KNOW
