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
mode.  Only one move depends on the q_from parameter: SCAN_LEFT(q) on the
left endmarker accepts exactly when a choice of q_from launches q
rightward, which the controller reads off one reverse launch index.

One stepper, `_walk`, is the only source of the search's choice points: it
first lists the stationary launchers of q_to, then runs the controller over
a tape and reports the launch candidates of each scan-left visit to the
left endmarker.  The plain search (`segment_reach`) stops at the first
point listing its q_from.  The guessing variant (`n_reach`) takes every
point as a choice and emits some state with a segment into q_to;
its iterated form (`t_reach`) checks a chain of exactly t segments out of
the initial state, and `n_reach` is its one-segment case.  Both are driven
by explicit choice traces so that callers can replay or exhaust them.

The controller is the paper's constant-memory device.  The deciders, which
may spend memory linear in the tape, instead read the whole segment
relation of one word off `return_table`: the same backward-search argument
read forward, one memoized pass over the configurations.  It is the only
per-word pass.  The self-verifying simulation's decider reads its
candidates off the table's rows as well, one choice point per target, as
its report does not depend on how the walk spreads them over points.
Replaying one of its choice traces, whose order matters, walks the
controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .core import (
    LEFT,
    LEFT_ENDMARKER,
    RIGHT,
    RIGHT_ENDMARKER,
    STAY,
    InvariantViolation,
    TwoWayAutomaton,
    Verdict,
    _check_states,
    check_word,
)
from .normalform import require_normal_form

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

    `fixed_table` never depends on the segment endpoints.  `launchers` is
    the reverse launch index: `launchers[(q, d)]` lists, in state order, the
    states with a left-endmarker choice into q moving in direction d (RIGHT
    or STAY).  It fixes the one parameter-dependent move, which `scan_left`
    owns: SCAN_LEFT(q) on the left endmarker accepts in the search for
    segments out of q_from iff q_from is among `launchers[(q, RIGHT)]`, and
    otherwise keeps searching.  Every entry is deterministic and the
    controller is immutable, so it can be shared across runs.
    """

    automaton: TwoWayAutomaton
    final_state: int
    states: tuple[ControllerState, ...]
    fixed_table: dict[tuple[ControllerState, str], Entry]
    launchers: dict[tuple[int, int], tuple[int, ...]]

    @property
    def state_count(self) -> int:
        return len(self.states)

    def scan_left(self, q: int) -> tuple[tuple[int, ...], Entry]:
        """SCAN_LEFT(q) on `<`: the starts whose search accepts there, and the move for the rest."""
        return self.launchers.get((q, RIGHT), ()), (ControllerState(DONE_LEFT, q), RIGHT)

    def entry(self, cs: ControllerState, sym: str, q_from: int) -> Entry | None:
        """The move of `cs` on `sym` in the search for segments out of q_from; None halts."""
        if cs.kind == SCAN_LEFT and sym == LEFT_ENDMARKER:
            candidates, miss = self.scan_left(cs.state)
            return (ACCEPT_STATE, STAY) if q_from in candidates else miss
        return self.fixed_table.get((cs, sym))

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
        for q_from in range(self.automaton.n):
            lines.append(f"parameter q_from={names[q_from]}:")
            for cs in self.states:
                if cs.kind == SCAN_LEFT:
                    nxt, d = self.entry(cs, LEFT_ENDMARKER, q_from)
                    lines.append(
                        f"  {cs.label(names)} {LEFT_ENDMARKER} -> {nxt.label(names)} {dirs[d]}")
        return "\n".join(lines)


def build_controller(automaton: TwoWayAutomaton) -> ReachController:
    """Fill in the 4n - 3 state transition table for the backward search."""
    # The relaxed variant suffices: segments only need determinism away
    # from the left endmarker plus the halting accepting-state shape.
    q_final = require_normal_form(automaton, alternating=True)
    n = automaton.n
    letters = automaton.alphabet
    searchable = [q for q in range(n) if q != q_final]

    states: list[ControllerState] = []
    for kind in (SCAN_LEFT, DONE_LEFT, SCAN_RIGHT, DONE_RIGHT):
        states.extend(ControllerState(kind, q) for q in searchable)
    states.append(ACCEPT_STATE)
    if len(states) != 4 * n - 3:
        raise InvariantViolation(f"controller has {len(states)} states, not 4n - 3 = {4 * n - 3}")

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
            preds = [p for p in range(n) if automaton.successors(p, a) == ((q, RIGHT),)]
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
            preds = [p for p in range(n) if automaton.successors(p, sym) == ((q, LEFT),)]
            if preds:
                table[(scan_right, sym)] = (ControllerState(SCAN_LEFT, min(preds)), LEFT)
            else:
                table[(scan_right, sym)] = (done_right, LEFT)

        # Both modes done: (q, i) and its whole subtree are exhausted.  Find
        # the next sibling predecessor of the unique successor of (q, i), or
        # close the parent's mode.  At the left endmarker the search is back
        # at the root with nothing left, which rejects by halting here.
        for sym in letters + (RIGHT_ENDMARKER,):
            succs = automaton.successors(q, sym)
            if not succs:
                continue  # never reached backward; left undefined
            (r, d) = succs[0]
            if d == STAY:
                raise InvariantViolation("stationary move away from the left endmarker")
            siblings = [p for p in range(q + 1, n) if automaton.successors(p, sym) == ((r, d),)]
            if siblings:
                table[(done_right, sym)] = (ControllerState(SCAN_LEFT, min(siblings)), LEFT)
            elif d == RIGHT:
                table[(done_right, sym)] = (ControllerState(DONE_LEFT, r), RIGHT)
            else:
                table[(done_right, sym)] = (ControllerState(DONE_RIGHT, r), LEFT)

    launchers: dict[tuple[int, int], list[int]] = {}
    for p in range(n):
        for move in automaton.successors(p, LEFT_ENDMARKER):
            launchers.setdefault(move, []).append(p)

    return ReachController(
        automaton=automaton,
        final_state=q_final,
        states=tuple(states),
        fixed_table=table,
        launchers={move: tuple(ps) for move, ps in launchers.items()},
    )


def _walk(controller: ReachController, word: str, q_to: int) -> Iterator[tuple[int, ...]]:
    """The choice points of the backward search for segments into q_to, in execution order.

    Each point lists in state order the starts of segments into q_to found
    there.  The first point, when there are any, lists the stationary
    launchers of q_to: a stationary move at the left endmarker is a segment
    by itself, and the only kind into the accepting state.  Every further
    point is a visit to the left endmarker in SCAN_LEFT(q), the only move
    that depends on the segment's start; its candidates, which
    `controller.scan_left` lists, are the starts whose search accepts there.
    The plain search stops consuming at the first point listing its q_from.
    The walk itself always keeps searching, which visits every such point of
    the backward tree exactly once, and halts within (4n - 3)(|w| + 2) steps.
    """
    stationary = controller.launchers.get((q_to, STAY))
    if stationary:
        yield stationary
    table = controller.fixed_table
    bound = controller.state_count * (len(word) + 2)
    tape = LEFT_ENDMARKER + word + RIGHT_ENDMARKER
    cs = ControllerState(DONE_LEFT, q_to)
    pos = 0
    for _ in range(bound + 1):
        if pos == 0 and cs.kind == SCAN_LEFT:
            candidates, entry = controller.scan_left(cs.state)
            yield candidates
        else:
            entry = table.get((cs, tape[pos]))
        if entry is None:
            return
        cs, d = entry
        pos += d
    raise InvariantViolation(
        f"backward search exceeded its {bound}-step termination bound on {controller.automaton!r}")


def _check_call(automaton: TwoWayAutomaton, word: str, controller: ReachController | None,
                *states: int) -> ReachController:
    """The controller for one search, built when None, which checks the normal form.

    Rejects unknown state ids, foreign letters and a controller built for
    another machine.
    """
    _check_states(automaton, *states)
    check_word(automaton, word)
    if controller is None:
        return build_controller(automaton)
    if controller.automaton is not automaton:
        raise ValueError("the controller was built for a different machine")
    return controller


def reach(automaton: TwoWayAutomaton, word: str, q_from: int, q_to: int,
          controller: ReachController | None = None) -> bool:
    """Does the machine have a segment from q_from to q_to on `word`?

    Equal endpoints answer yes without a search, once the machine has
    passed the normal-form gate.  Everything else runs the backward
    controller's walk, which always halts; its first point lists the
    stationary launches into q_to, the shortest segments and the only ones
    into the accepting state.  State ids outside range(n) and a controller
    built for another machine raise ValueError, letters outside the
    alphabet NotApplicable, a machine outside the normal form NotNormalForm.
    """
    if q_from != q_to:
        return segment_reach(automaton, word, q_from, q_to, controller)
    _check_call(automaton, word, controller, q_from)
    return True


def segment_reach(automaton: TwoWayAutomaton, word: str, q_from: int, q_to: int,
                  controller: ReachController | None = None) -> bool:
    """Like `reach` but without the equal-endpoints shortcut: a real segment must exist."""
    controller = _check_call(automaton, word, controller, q_from, q_to)
    return any(q_from in candidates for candidates in _walk(controller, word, q_to))


_UNSEEN = -1


@dataclass(frozen=True)
class ReturnTable:
    """The segment relation of one word: `rows[p]` is `outcomes(p)` for every state p, built once.

    A rightward choice into x ends in the state in which the run from
    (x, 1) first reaches position 0, or in None if that run halts or loops
    first; a stationary choice into x ends in x.  `final` is the machine's
    accepting state, as the normal-form gate returned it.
    """

    automaton: TwoWayAutomaton
    rows: tuple[tuple[int | None, ...], ...]
    final: int

    def outcomes(self, p: int) -> tuple[int | None, ...]:
        """End state of each left-endmarker choice of p, or None; p -> q iff q is one."""
        _check_states(self.automaton, p)
        return self.rows[p]


def return_table(automaton: TwoWayAutomaton, word: str) -> ReturnTable:
    """The segment relation of one word, by one memoized forward pass.

    Away from the left endmarker the machine is deterministic, so each
    configuration at position >= 1 has one fate.  A launch walks forward
    until it meets a configuration whose fate is known, or one on its own
    path (a loop), then records the fate along its path.  No configuration
    is walked twice: O(n * |w|) steps and n * (|w| + 2) memo slots.
    A letter outside the alphabet raises NotApplicable.
    """
    q_final = require_normal_form(automaton, alternating=True)
    check_word(automaton, word)
    n = automaton.n
    tape = word + RIGHT_ENDMARKER
    get = automaton.delta.get  # the table stores no empty successor tuples
    moves = {sym: [get((q, sym), (None,))[0] for q in range(n)] for sym in set(tape)}
    steps = [None] + [moves[sym] for sym in tape]  # position 0 is never read
    fate: list[int | None] = [_UNSEEN] * (n * len(steps))
    fate[:n] = range(n)  # back at position 0, in the current state
    returns: list[int | None] = [None] * n
    for x in {x for p in range(n)
              for (x, d) in automaton.successors(p, LEFT_ENDMARKER) if d == RIGHT}:
        path, q, pos, key = [], x, 1, n + x
        while fate[key] == _UNSEEN:
            fate[key] = None  # met again on this walk: a loop
            path.append(key)
            if steps[pos][q] is None:
                break  # the run halts
            q, d = steps[pos][q]
            pos += d
            key = pos * n + q
        out = fate[key]
        for key in path:
            fate[key] = out
        returns[x] = out
    # built from lists: a tuple filled from a generator is resized as it grows,
    # and in long benchmark runs that made peak RSS creep up pass after pass
    rows = tuple([tuple([x if d == STAY else returns[x] for (x, d) in get((p, LEFT_ENDMARKER), ())])
                  for p in range(n)])
    return ReturnTable(automaton, rows, q_final)


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


def n_reach(automaton: TwoWayAutomaton, word: str, q_to: int, trace: Sequence[int],
            controller: ReachController | None = None) -> int | Verdict:
    """Emit some state with a segment into q_to, as directed by `trace`.

    At every choice point, option 0 keeps searching backward and option
    j >= 1 emits the j-th candidate in state order.  Exhausting the
    backward tree, or demanding a candidate that does not exist, yields
    Verdict.DONT_KNOW.  A too-short trace raises TraceUnderflow.
    """
    controller = _check_call(automaton, word, controller, q_to)
    result = _chain(controller, word, q_to, 1, trace)
    return Verdict.DONT_KNOW if result is None else result


def t_reach(automaton: TwoWayAutomaton, word: str, q: int, t: int, trace: Sequence[int],
            controller: ReachController | None = None) -> bool | Verdict:
    """Check a chain of exactly t segments from the initial state down to q.

    The check walks backward: t guessing searches, each feeding the next,
    must end exactly at the initial state.  Any abort or mismatch is a
    don't-know, not a refusal.  With t = 0 the answer is simply whether q
    is the initial state, once the machine has passed the same normal-form
    gate as for t >= 1; a negative t raises ValueError.
    """
    if t < 0:
        raise ValueError("the chain length t must be at least 0")
    controller = _check_call(automaton, word, controller, q)
    if t == 0:
        return q == automaton.initial
    return True if _chain(controller, word, q, t, trace) == automaton.initial else Verdict.DONT_KNOW
