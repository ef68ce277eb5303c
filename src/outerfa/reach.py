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
mode.  The table is built from the backward tree in first-child/next-sibling
form, with one rule: a scan state goes to the first child of its node in
state order, a finished node to its next sibling, and either, with none
left, closes its mode.  The states are the integers 0 ... 4n - 4: four kinds
times the n - 1 states other than the accepting one, then ACCEPT.  Their
fixed moves fill one flat table indexed by state and symbol column.  Only
one move depends on the q_from parameter: SCAN_LEFT(q) on the left
endmarker accepts exactly when a choice of q_from launches q rightward,
which the controller reads off one reverse launch index; the table holds
the move for every other start.  Only this module knows the numbering.

One stepper, `_walk`, is the only source of the search's choice points: it
first lists the stationary launchers of q_to, then runs the controller over
a tape, mapped to columns once, and reports the launch candidates of each
scan-left visit to the left endmarker.  The plain search (`segment_reach`)
stops at the first point listing its q_from; the self-verifying
simulation's replay takes every point as a choice.  The controller depends
on the machine alone, so every search takes just the machine: its one gate,
`_check_call`, builds the controller on the machine's first search and
keeps it on the machine.  What the controller and the per-word pass read of
a machine, its moves, launches and ports, is one index, `machine_index`,
built once per machine.

The controller is the paper's constant-memory device.  The deciders, which
may spend memory linear in the tape, instead read the whole segment
relation of one word off `return_table`: the same backward-search argument
read forward, one memoized pass over the maximal runs of one letter, each
crossed by its state cycle in O(n) steps whatever its length.  It is the
only per-word pass.  The self-verifying simulation's decider reads its
candidates off the table's rows as well, one choice point per target, as
its report does not depend on how the walk spreads them over points.
Replaying one of its choice traces, whose order matters, walks the
controller.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .core import (
    LEFT,
    LEFT_ENDMARKER,
    RIGHT,
    RIGHT_ENDMARKER,
    STAY,
    InvariantViolation,
    TwoWayAutomaton,
    _check_states,
    check_word,
)
from .normalform import require_normal_form

_KINDS = ("SCAN_LEFT", "DONE_LEFT", "SCAN_RIGHT", "DONE_RIGHT")
_SCAN_LEFT, _DONE_LEFT, _SCAN_RIGHT, _DONE_RIGHT = range(4)

Move = tuple[int, int]
Launchers = dict[Move, tuple[int, ...]]  # (q, d): the states launching q in direction d


def _rank(q: int, q_final: int) -> int:
    """q's place among the n - 1 states other than the accepting one."""
    return q - (q > q_final)


@dataclass(frozen=True)
class ReachController:
    """Materialized backward-search controller for one machine.

    Its states are the integers 0 ... 4n - 4.  Kind k of state q, in the
    order SCAN_LEFT, DONE_LEFT, SCAN_RIGHT, DONE_RIGHT, is
    k * (n - 1) + rank(q), where rank orders the n - 1 states other than
    the accepting one, and 4n - 4 is ACCEPT.  `table` holds the fixed
    moves, (next state, direction) or None to halt, at
    `state * width + column[symbol]`; ACCEPT's row is all None.  It never
    depends on the segment endpoints.  `launchers` is the machine's reverse
    launch index, the one `machine_index` keeps and `return_table` reads:
    `launchers[(q, d)]` lists, in state order, the states with a
    left-endmarker choice into q moving in direction d (RIGHT or STAY).
    It fixes the one parameter-dependent move: SCAN_LEFT(q) on the left
    endmarker accepts in the search for segments out of q_from iff q_from
    is among `hits`, `launchers[(q, RIGHT)]`; the table's cell holds the
    move for every other start, (DONE_LEFT(q), RIGHT).  Every entry is
    deterministic and the controller is immutable, so it can be shared
    across runs.
    """

    automaton: TwoWayAutomaton
    final_state: int
    column: dict[str, int]
    table: tuple[Move | None, ...]
    launchers: Launchers

    @property
    def accept(self) -> int:
        return 4 * (self.automaton.n - 1)

    @property
    def state_count(self) -> int:
        return self.accept + 1

    def searched(self, s: int) -> int:
        """The machine state that controller state s below ACCEPT handles."""
        r = s % (self.automaton.n - 1)
        return r + (r >= self.final_state)

    def start(self, q: int) -> int:
        """DONE_LEFT(q), where the search for segments into q begins at the left endmarker."""
        return self.automaton.n - 1 + _rank(q, self.final_state)

    def hits(self, s: int) -> tuple[int, ...]:
        """The starts whose search accepts in SCAN_LEFT state s on `<`."""
        return self.launchers.get((self.searched(s), RIGHT), ())

    def entry(self, s: int, sym: str, q_from: int) -> Move | None:
        """The move of state s on `sym` in the search for segments out of q_from; None halts."""
        if sym == LEFT_ENDMARKER and s < self.automaton.n - 1 and q_from in self.hits(s):
            return (self.accept, STAY)
        return self.table[s * len(self.column) + self.column[sym]]

    def dump(self) -> str:
        """Human-readable table, parameter-independent part first."""
        names = self.automaton.state_names
        dirs = {LEFT: "L", STAY: "S", RIGHT: "R"}
        m = self.automaton.n - 1  # the SCAN_LEFT states are 0 ... m - 1

        def label(s: int) -> str:
            return "ACCEPT" if s == self.accept else f"{_KINDS[s // m]}({names[self.searched(s)]})"

        lines = [f"controller states: {self.state_count}"]
        for s in range(self.accept):
            for sym in sorted(self.column):
                move = self.table[s * len(self.column) + self.column[sym]]
                if move and not (s < m and sym == LEFT_ENDMARKER):
                    lines.append(f"  {label(s)} {sym} -> {label(move[0])} {dirs[move[1]]}")
        for q_from in range(self.automaton.n):
            lines.append(f"parameter q_from={names[q_from]}:")
            for s in range(m):
                nxt, d = self.entry(s, LEFT_ENDMARKER, q_from)
                lines.append(f"  {label(s)} {LEFT_ENDMARKER} -> {label(nxt)} {dirs[d]}")
        return "\n".join(lines)


class MachineIndex(NamedTuple):
    """What the searches, the return table and the deciders read of a machine.

    `moves[sym][q]` is q's one move on sym away from the left endmarker, of
    which the relaxed normal form allows at most one (None halts).
    `launchers` is the reverse launch index, whose entry (q, d) lists in
    state order the states with a left-endmarker choice into q moving in
    direction d, and `launched` the states it launches rightward, in order.
    `choices[p]` are p's left-endmarker choices, in the order of
    `successors(p, "<")`, and `runs` a pattern matching the maximal runs of
    one symbol.  `ports` are, in state order, the states with a
    left-endmarker choice and the initial and accepting states: every state
    of a segment chain but its last starts a segment, so with a choice at
    `<`, and the last is the accepting state.  `port_of` gives each state's
    index among the ports, None for a state that is not one and for None
    itself.
    """

    moves: dict[str, list[Move | None]]
    launchers: Launchers
    launched: tuple[int, ...]
    choices: tuple[tuple[Move, ...], ...]
    runs: re.Pattern[str]
    ports: tuple[int, ...]
    port_of: dict[int | None, int | None]


def machine_index(automaton: TwoWayAutomaton) -> MachineIndex:
    """The machine's `MachineIndex`, cached on the machine, which is immutable.

    `build_controller` and `return_table` take their moves and launches
    from it, the controller shares its launch index as `launchers`, and the
    divide-and-conquer stack machine and the self-verifying simulation
    guess among its ports.
    """
    if automaton._index is None:
        n = automaton.n
        symbols = automaton.alphabet + (RIGHT_ENDMARKER,)
        moves = {sym: [(automaton.successors(q, sym) or (None,))[0] for q in range(n)]
                 for sym in symbols}
        choices = tuple(automaton.successors(p, LEFT_ENDMARKER) for p in range(n))
        launchers: dict[Move, list[int]] = {}
        for p, row in enumerate(choices):
            for move in row:
                launchers.setdefault(move, []).append(p)
        # one repeat per symbol: a backreference `(.)\1*` matched a long run 80 times slower
        runs = re.compile("|".join(re.escape(sym) + "+" for sym in symbols))
        launched = tuple(sorted(x for (x, d) in launchers if d == RIGHT))
        ports = tuple(sorted({automaton.initial, *automaton.accepting,
                              *(p for p, row in enumerate(choices) if row)}))
        port_of: dict[int | None, int | None] = dict.fromkeys([*range(n), None])
        port_of.update((q, i) for i, q in enumerate(ports))
        automaton._index = MachineIndex(
            moves, {move: tuple(ps) for move, ps in launchers.items()}, launched, choices, runs,
            ports, port_of)
    return automaton._index


def build_controller(automaton: TwoWayAutomaton) -> ReachController:
    """Fill in the 4n - 3 state transition table for the backward search."""
    # The relaxed variant suffices: segments only need determinism away
    # from the left endmarker plus the halting accepting-state shape.
    q_final = require_normal_form(automaton, alternating=True)
    n = automaton.n
    letters = automaton.alphabet
    column = {sym: c for c, sym in enumerate((LEFT_ENDMARKER, RIGHT_ENDMARKER) + letters)}
    accept = 4 * (n - 1)

    def state(kind: int, q: int) -> int:
        return kind * (n - 1) + _rank(q, q_final)

    index = machine_index(automaton)
    # The backward tree in first-child/next-sibling form, from one pass in
    # reverse state order: first_child[(sym, move)] is the first state whose
    # one move on sym is `move`, and next_sibling[(sym, p)] the next state
    # after p with p's move on sym, or None.
    first_child: dict[tuple[str, Move], int] = {}
    next_sibling: dict[tuple[str, int], int | None] = {}
    for sym, row in index.moves.items():
        for p in reversed(range(n)):
            if row[p] is not None:
                next_sibling[(sym, p)] = first_child.get((sym, row[p]))
                first_child[(sym, row[p])] = p

    def scan(child: int | None, kind: int, q: int, d: int) -> Move:
        """The search's one rule: scan the subtree of `child` one cell left, or else close a mode.

        With no child left, the search goes to kind(q) moving in direction d.
        """
        return (state(kind, q), d) if child is None else (state(_SCAN_LEFT, child), LEFT)

    rows: dict[int, list[Move | None]] = {accept: [None] * len(column)}
    for q in (q for q in range(n) if q != q_final):
        scan_left, done_left, scan_right, done_right = (
            rows.setdefault(state(kind, q), [None] * len(column)) for kind in range(4))

        # Mode 1: predecessors one cell to the left of (q, i); the head sits
        # at i - 1.  The left endmarker, where no state has a first child,
        # takes the move of a search that does not accept there (see `hits`);
        # the right endmarker is unreachable here.  Once Mode 1 is done, move
        # right onto (q, i) itself and open Mode 2, unless the head already
        # scans the right endmarker, in which case (q, i) has no right
        # predecessors at all.
        for sym in letters + (LEFT_ENDMARKER,):
            scan_left[column[sym]] = scan(first_child.get((sym, (q, RIGHT))), _DONE_LEFT, q, RIGHT)
            done_left[column[sym]] = (state(_SCAN_RIGHT, q), RIGHT)
        done_left[column[RIGHT_ENDMARKER]] = (state(_DONE_RIGHT, q), STAY)

        # Mode 2: predecessors one cell to the right; the head sits at i + 1.
        for sym in letters + (RIGHT_ENDMARKER,):
            scan_right[column[sym]] = scan(first_child.get((sym, (q, LEFT))), _DONE_RIGHT, q, LEFT)

        # Both modes done: (q, i) and its whole subtree are exhausted.  Scan
        # the next sibling predecessor of the unique successor of (q, i), or
        # close the parent's mode.  At the left endmarker the search is back
        # at the root with nothing left, which rejects by halting here.
        for sym, row in index.moves.items():
            if row[q] is None:
                continue  # never reached backward; left undefined
            (r, d) = row[q]
            if d == STAY:
                raise InvariantViolation("stationary move away from the left endmarker")
            closed = _DONE_LEFT if d == RIGHT else _DONE_RIGHT  # the parent's mode
            done_right[column[sym]] = scan(next_sibling[(sym, q)], closed, r, d)

    table = tuple(move for s in sorted(rows) for move in rows[s])
    if len(table) != (4 * n - 3) * len(column) or any(move and move[0] >= accept for move in table):
        raise InvariantViolation(
            f"controller table does not number 4n - 3 = {4 * n - 3} states, ACCEPT last")

    return ReachController(
        automaton=automaton,
        final_state=q_final,
        column=column,
        table=table,
        launchers=index.launchers,
    )


def _walk(controller: ReachController, word: str, q_to: int) -> Iterator[tuple[int, ...]]:
    """The choice points of the backward search for segments into q_to, in execution order.

    Each point lists in state order the starts of segments into q_to found
    there.  The first point, when there are any, lists the stationary
    launchers of q_to: a stationary move at the left endmarker is a segment
    by itself, and the only kind into the accepting state, which has no
    controller states of its own.  Every further point is a visit to the
    left endmarker in a SCAN_LEFT state, the only move that depends on the
    segment's start; its candidates, `controller.hits`, are the starts whose
    search accepts there.  The plain search stops consuming at the first
    point listing its q_from.  The walk itself always keeps searching, which
    visits every such point of the backward tree exactly once, and halts
    within (4n - 3)(|w| + 2) steps.
    """
    stationary = controller.launchers.get((q_to, STAY))
    if stationary:
        yield stationary
    if q_to == controller.final_state:
        return
    table, width = controller.table, len(controller.column)
    scans = controller.automaton.n - 1  # the SCAN_LEFT states are 0 ... n - 2
    bound = controller.state_count * (len(word) + 2)
    cols = [controller.column[sym] for sym in LEFT_ENDMARKER + word + RIGHT_ENDMARKER]
    s = controller.start(q_to)
    pos = 0
    for _ in range(bound + 1):
        if pos == 0 and s < scans:
            yield controller.hits(s)
        move = table[s * width + cols[pos]]
        if move is None:
            return
        s, d = move
        pos += d
    raise InvariantViolation(
        f"backward search exceeded its {bound}-step termination bound on {controller.automaton!r}")


def _check_call(automaton: TwoWayAutomaton, word: str, *states: int) -> ReachController:
    """The one gate of every search: the machine's controller, once the call checks out.

    Rejects unknown state ids and foreign letters.  The controller depends
    on the machine alone, so the machine's first search builds it, which
    checks the normal form, and keeps it on the machine, which is
    immutable; a machine outside the normal form keeps none and fails the
    check on every call.
    """
    _check_states(automaton, *states)
    check_word(automaton, word)
    if automaton._controller is None:
        automaton._controller = build_controller(automaton)
    return automaton._controller


def reach(automaton: TwoWayAutomaton, word: str, q_from: int, q_to: int) -> bool:
    """Does the machine have a segment from q_from to q_to on `word`?

    Equal endpoints answer yes without a search, once the machine has
    passed the normal-form gate.  Everything else runs the walk of the
    machine's backward controller, built on its first search, which always
    halts; its first point lists the stationary launches into q_to, the
    shortest segments and the only ones into the accepting state.  State
    ids outside range(n) raise ValueError, letters outside the alphabet
    NotApplicable, a machine outside the normal form NotNormalForm.
    """
    if q_from != q_to:
        return segment_reach(automaton, word, q_from, q_to)
    _check_call(automaton, word, q_from)
    return True


def segment_reach(automaton: TwoWayAutomaton, word: str, q_from: int, q_to: int) -> bool:
    """Like `reach` but without the equal-endpoints shortcut: a real segment must exist."""
    controller = _check_call(automaton, word, q_from, q_to)
    return any(q_from in candidates for candidates in _walk(controller, word, q_to))


_UNSEEN = object()


def _cross(moves: list[Move | None], length: int, at: int, q: int) -> Move | None:
    """The step off a run of `length` copies of one symbol, entered at offset `at` in state q.

    Inside the run the machine is the map from each state to its single
    move in `moves`, so the state orbit of q enters a cycle within
    n = len(moves) steps, and every lap of that cycle shifts the head by
    the same drift.  The crossing takes those n steps, one lap to measure
    the drift and the span of offsets a lap visits, skips every further
    whole lap that stays inside the run, and finishes within one more lap:
    O(n) steps, whatever the length.  Returns the (state, direction) of
    the step that leaves the run, or None if the machine halts inside it
    or loops there, which a lap of zero drift does.
    """
    for _ in range(len(moves)):
        move = moves[q]
        if move is None:
            return None
        q, d = move
        at += d
        if not 0 <= at < length:
            return move
    cycle, drift, low, high = q, 0, 0, 0  # offsets relative to the lap's start
    while True:
        q, d = moves[q]
        drift += d
        if not 0 <= at + drift < length:
            return q, d
        low, high = min(low, drift), max(high, drift)
        if q == cycle:
            break
    if drift == 0:
        return None
    at += drift
    room = length - 1 - high - at if drift > 0 else at + low
    at += max(0, room // abs(drift) + 1) * drift  # the laps from `at` that stay inside
    while True:
        q, d = moves[q]
        at += d
        if not 0 <= at < length:
            return q, d


def return_table(automaton: TwoWayAutomaton, word: str) -> tuple[tuple[int | None, ...], ...]:
    """The segment relation of one word, by one memoized pass over its runs of one letter.

    Row p holds the end state of each of p's left-endmarker choices, in
    the order of `successors(p, "<")`, so p -> q is a segment iff q is in
    row p.  A rightward choice into x ends in the state in which the run
    from (x, 1) first reaches position 0, or in None if that run halts or
    loops first; a stationary choice into x ends in x.

    Away from the left endmarker the machine is deterministic, so a
    configuration entering a maximal run of one symbol (the right endmarker
    is a run of its own) at either end has one fate.  The tape is split
    into runs once, in O(|w|).  A launch walks from run to run until it
    meets an entry whose fate is known, or one on its own path (a loop),
    then records the fate along its path, so each (run, end, state) entry
    is crossed at most once per table: a run of length 1 by the move
    itself, a longer one by `_cross` in O(n) steps.  That makes O(n) steps
    per entry walked, and O(n^2) on a word of one letter.
    A letter outside the alphabet raises NotApplicable.
    """
    require_normal_form(automaton, alternating=True)
    check_word(automaton, word)
    n = automaton.n
    index = machine_index(automaton)
    moves, launched, choices = index.moves, index.launched, index.choices
    runs = index.runs.findall(word + RIGHT_ENDMARKER)
    # fate[slot * n + q]: where entering slot 2j + 1 + e, run j at its left
    # (e = 0) or right (e = 1) end, in state q leads; slot 0 is back at the
    # left endmarker, in the state q itself
    fate: list = [_UNSEEN] * (n * (2 * len(runs) + 1))
    fate[:n] = range(n)
    for x in launched:
        path, slot, q, key = [], 1, x, n + x
        while fate[key] is _UNSEEN:
            fate[key] = None  # met again on this walk: a loop
            path.append(key)
            j, end = divmod(slot - 1, 2)
            run = runs[j]
            length = len(run)
            out = moves[run][q] if length == 1 else _cross(moves[run[0]], length, end * (length - 1), q)
            if out is None:
                break  # the machine halts or loops inside the run
            q, d = out
            # into the next run at its left end, or the previous one at its right end
            slot = 2 * j + (3 if d == RIGHT else 0)
            key = slot * n + q
        out = fate[key]
        for key in path:
            fate[key] = out
    # built from lists: a tuple filled from a generator is resized as it grows,
    # and in long benchmark runs that made peak RSS creep up pass after pass
    return tuple([tuple([x if d == STAY else fate[n + x] for (x, d) in row]) for row in choices])
