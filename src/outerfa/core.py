"""Two-way finite automata on endmarked tapes.

The machine model: a finite-state control with a two-way head over the input
word, which is stored between a left and a right endmarker.  States are dense
integer ids; the id order is also the fixed linear order used by every
construction that needs one.  The transition function maps (state, symbol)
to a finite set of (state, direction) pairs and may be partial: an undefined
entry simply halts that computation path.

Besides the data model, this module holds the executable ground truth the
rest of the package is checked against: an acceptance oracle over the
(finite) configuration graph, an and-or oracle for machines with universal
states, and a restricted-path oracle for computation segments (left
endmarker to left endmarker, with no left-endmarker visit in between; the
right endmarker may be crossed freely).  Every oracle rejects a word with a
letter outside the machine's alphabet (`check_word`).  The oracles index a
configuration (state, head) as the integer head * n + state on the
endmarked tape and step it through one successor table per machine, whose
row for (symbol, state) holds the offsets from a configuration's id to its
successors' (`_tape_rule`).  The machines of the paper choose only at the
endmarkers, so away from them almost every configuration has exactly one
successor.  The acceptance oracle follows such a configuration at once
instead of queueing it, and the and-or oracle contracts each chain of them
into one edge, so both pay queue and graph work only for the
configurations where a computation branches, halts or accepts.

`and_or_reach` is the package's one and-or reachability solver: the least
fixpoint of the and-or path predicate by a worklist over reverse edges, in
time linear in nodes plus edges.  The alternating oracle runs it over the
contracted configurations reachable from the start and
`graphred.agap_decide` over segment graphs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Callable, Collection, Hashable, Iterable, Mapping, TypeVar

LEFT_ENDMARKER = "<"
RIGHT_ENDMARKER = ">"

LEFT = -1
STAY = 0
RIGHT = +1

DIRECTIONS = (LEFT, STAY, RIGHT)


class MalformedAutomaton(ValueError):
    """The automaton description violates a structural invariant."""


class NotApplicable(ValueError):
    """The operation does not apply to this kind of automaton."""


class BudgetExceeded(Exception):
    """A work budget ran out; `report` holds the partial tallies, where the caller keeps any."""

    def __init__(self, message: str, report: object = None):
        super().__init__(message)
        self.report = report


class InvariantViolation(AssertionError):
    """A bound or property the constructions guarantee failed to hold.

    Raised explicitly, so the check survives `python -O`; it subclasses
    AssertionError so handlers written for failed assertions still catch it.
    """


class Verdict(Enum):
    """Three-valued outcome of a self-verifying computation path."""

    ACCEPT = "accept"
    REJECT = "reject"
    DONT_KNOW = "dont_know"


@dataclass(frozen=True)
class FlavorReport:
    """Structural classification of a machine's use of choice."""

    is_deterministic: bool
    is_outer: bool
    is_outer_left: bool
    is_alternating: bool
    satisfies_normal_form: bool


class TwoWayAutomaton:
    """A two-way automaton over an endmarked tape.

    `delta` maps (state id, symbol) to an iterable of (state id, direction)
    pairs and is exposed as a read-only view; symbols are the
    single-character alphabet letters plus the two endmarker tokens.
    Optional `rejecting` states make the machine self-verifying, optional
    `universal` states make it alternating.  Instances are treated as
    immutable after construction and may be shared freely across threads.
    """

    def __init__(
        self,
        state_names: Iterable[str],
        alphabet: Iterable[str],
        delta: Mapping[tuple[int, str], Iterable[tuple[int, int]]],
        initial: int,
        accepting: Iterable[int],
        rejecting: Iterable[int] = (),
        universal: Iterable[int] = (),
        declared_flavor: str | None = None,
    ):
        self.state_names = list(state_names)
        self.alphabet = tuple(alphabet)
        self.initial = initial
        self.accepting = frozenset(accepting)
        self.rejecting = frozenset(rejecting)
        self.universal = frozenset(universal)
        self.declared_flavor = declared_flavor
        self._delta = {
            key: tuple(sorted(set(succs)))
            for key, succs in delta.items()
            if succs
        }
        self._validate()
        # the symbols some state has a choice on; `classify` and the normal-form flags read it
        self._choice_symbols = frozenset(sym for (_, sym), succs in self._delta.items()
                                         if len(succs) > 1)
        self._form_flags: list = [None, None]  # normal-form flags, by `alternating`
        # `reach.machine_index`: the moves, launch index and ports the controller, the
        # return table and the deciders read, built on first use
        self._index = None
        self._controller = None  # `reach._check_call`: the searches' controller, built on first use
        self._offsets = None  # `_tape_rule`: the oracles' successor table, built on first use
        self._replay = None  # `svfa.svfa_run`: (word, context) of the last replayed word
        self._letters = "".join(self.alphabet)  # for check_word; a set per machine slowed set-up

    @property
    def n(self) -> int:
        return len(self.state_names)

    @property
    def delta(self) -> Mapping[tuple[int, str], tuple[tuple[int, int], ...]]:
        """Read-only view of the transition table; copy it with dict() to derive a variant."""
        return MappingProxyType(self._delta)

    def successors(self, state: int, symbol: str) -> tuple[tuple[int, int], ...]:
        """All (state, direction) pairs defined for (state, symbol)."""
        return self._delta.get((state, symbol), ())

    def symbols(self) -> tuple[str, ...]:
        return self.alphabet + (LEFT_ENDMARKER, RIGHT_ENDMARKER)

    def _validate(self) -> None:
        n = self.n
        if n < 1:
            raise MalformedAutomaton("at least one state is required")
        if len(set(self.state_names)) != n:
            raise MalformedAutomaton("duplicate state names")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise MalformedAutomaton("duplicate alphabet letters")
        for letter in self.alphabet:
            if len(letter) != 1:
                raise MalformedAutomaton(f"alphabet letters are single characters: {letter!r}")
            if letter in (LEFT_ENDMARKER, RIGHT_ENDMARKER):
                raise MalformedAutomaton(f"endmarker token {letter!r} cannot be an alphabet letter")
        if not 0 <= self.initial < n:
            raise MalformedAutomaton(f"initial state {self.initial} out of range")
        for name, group in (("accepting", self.accepting),
                            ("rejecting", self.rejecting),
                            ("universal", self.universal)):
            for q in group:
                if not 0 <= q < n:
                    raise MalformedAutomaton(f"{name} state {q} out of range")
        if self.accepting & self.rejecting:
            raise MalformedAutomaton("accepting and rejecting state sets overlap")
        valid_symbols = set(self.symbols())
        for (q, sym), succs in self._delta.items():
            if not 0 <= q < n:
                raise MalformedAutomaton(f"transition from unknown state {q}")
            if sym not in valid_symbols:
                raise MalformedAutomaton(f"transition on unknown symbol {sym!r}")
            for (p, d) in succs:
                if not 0 <= p < n:
                    raise MalformedAutomaton(f"transition into unknown state {p}")
                if d not in DIRECTIONS:
                    raise MalformedAutomaton(f"bad direction {d}")
                if sym == LEFT_ENDMARKER and d == LEFT:
                    raise MalformedAutomaton(
                        f"state {self.state_names[q]} moves left off the left endmarker")
                if sym == RIGHT_ENDMARKER and d == RIGHT:
                    raise MalformedAutomaton(
                        f"state {self.state_names[q]} moves right off the right endmarker")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TwoWayAutomaton):
            return NotImplemented
        return (self.state_names == other.state_names
                and self.alphabet == other.alphabet
                and self._delta == other._delta
                and self.initial == other.initial
                and self.accepting == other.accepting
                and self.rejecting == other.rejecting
                and self.universal == other.universal
                and self.declared_flavor == other.declared_flavor)

    __hash__ = None

    def __repr__(self) -> str:
        return (f"TwoWayAutomaton(n={self.n}, alphabet={''.join(self.alphabet)!r}, "
                f"transitions={sum(len(v) for v in self._delta.values())}, "
                f"flavor={self.declared_flavor!r})")


def check_word(automaton: TwoWayAutomaton, word: str) -> str:
    """Return `word` if all its letters are in the machine's alphabet, else raise NotApplicable."""
    if word.strip(automaton._letters):  # one C pass; empty iff every letter is in the alphabet
        letter = next(c for c in word if c not in automaton._letters)
        raise NotApplicable(f"letter {letter!r} is not in the machine's alphabet")
    return word


def _check_states(automaton: TwoWayAutomaton, *states: int) -> None:
    """Raise ValueError for any state id outside range(n)."""
    for q in states:
        if not 0 <= q < automaton.n:
            raise ValueError(f"unknown state id {q}: the machine has states 0 to {automaton.n - 1}")


def _normal_form_flags(automaton: TwoWayAutomaton, alternating: bool) -> tuple[bool, bool, bool, bool]:
    """The four structural normal-form properties, in order.

    1. choices only while scanning the left endmarker;
    2. a unique accepting state that is halting;
    3. that state entered only at the left endmarker by stationary moves;
    4. stationary moves only at the left endmarker (and, unless
       `alternating`, only into the unique accepting state).

    Machines are immutable, so each one computes its flags once per variant.
    """
    flags = automaton._form_flags[alternating]
    if flags is not None:
        return flags
    prop1 = automaton._choice_symbols <= {LEFT_ENDMARKER}

    unique_final = len(automaton.accepting) == 1
    q_final = next(iter(automaton.accepting)) if unique_final else None
    prop2 = unique_final and all(
        not automaton.successors(q_final, sym) for sym in automaton.symbols()
    )

    prop3 = unique_final
    prop4 = True
    for (q, sym), succs in automaton.delta.items():
        for (p, d) in succs:
            if unique_final and p == q_final:
                if sym != LEFT_ENDMARKER or d != STAY:
                    prop3 = False
            if d == STAY:
                if sym != LEFT_ENDMARKER:
                    prop4 = False
                elif not alternating and p != q_final:
                    prop4 = False
    flags = automaton._form_flags[alternating] = (prop1, prop2, prop3, prop4)
    return flags


def classify(automaton: TwoWayAutomaton) -> FlavorReport:
    """Report where choice can occur, from the symbols some state has a choice on."""
    choice = automaton._choice_symbols
    alternating = bool(automaton.universal)
    flags = _normal_form_flags(automaton, alternating=alternating)
    return FlavorReport(
        is_deterministic=not choice,
        is_outer=choice.isdisjoint(automaton.alphabet),
        is_outer_left=choice <= {LEFT_ENDMARKER},
        is_alternating=alternating,
        satisfies_normal_form=all(flags),
    )


def _tape_rule(automaton: TwoWayAutomaton, word: str) -> tuple[int, str, dict]:
    """The one successor rule every oracle steps configurations by, as (n, tape, table).

    A configuration (state, head) is the integer c = head * n + state, so
    head 0 holds exactly the ids below n, and `tape` is the endmarked word,
    `tape[head]` the symbol under the head.  Row `table[sym][q]` is the
    tuple of offsets d * n + p - q, one for each move (p, d) of q on sym,
    so the successors of c are c + offset for each offset in
    `table[tape[head]][state]`.  The table depends on the machine alone:
    the machine's first oracle call builds it and keeps it on the machine,
    so set-up does not pay for it.  Validation keeps every move on the
    tape.  A letter outside the alphabet raises NotApplicable.
    """
    check_word(automaton, word)
    n = automaton.n
    table = automaton._offsets
    if table is None:
        get = automaton._delta.get
        table = automaton._offsets = {
            sym: [tuple(d * n + p - q for (p, d) in get((q, sym), ())) for q in range(n)]
            for sym in automaton.symbols()}
    return n, LEFT_ENDMARKER + word + RIGHT_ENDMARKER, table


def accepts_oracle(automaton: TwoWayAutomaton, word: str) -> bool:
    """Ground truth: is some accepting state reachable from (initial, 0)?

    A depth-first search over configurations with a `bytearray` as its
    visited set.  A configuration with exactly one successor is not pushed:
    the inner loop follows it at once, until it meets a visited
    configuration, a branch, a dead end or an accepting state.  The
    successors of a branch are tested for acceptance as they are pushed,
    so the search stops at the first accepting configuration it meets.
    """
    if automaton.universal:
        raise NotApplicable("machine has universal states; use alternating_accepts_oracle")
    n, tape, table = _tape_rule(automaton, word)
    accepting = automaton.accepting
    start = automaton.initial  # (initial, 0)
    if start in accepting:
        return True
    seen = bytearray(n * len(tape))
    seen[start] = 1
    stack = [start]
    while stack:
        c = stack.pop()
        while True:  # chase c's stretch of one-successor configurations
            head, state = divmod(c, n)
            if state in accepting:
                return True
            offsets = table[tape[head]][state]
            if len(offsets) != 1:
                for offset in offsets:
                    succ = c + offset
                    if not seen[succ]:
                        if succ % n in accepting:
                            return True
                        seen[succ] = 1
                        stack.append(succ)
                break
            c += offsets[0]
            if seen[c]:
                break
            seen[c] = 1
    return False


def segment_exists_oracle(automaton: TwoWayAutomaton, word: str,
                          p: int, q: int) -> bool:
    """Is there a computation segment from p to q on `word`?

    A segment is a path of at least one step from (p, 0) to (q, 0) whose
    intermediate configurations never sit at position 0.  Crossing or
    turning at the right endmarker in the middle is allowed.  A single
    stationary move at the left endmarker is the shortest possible segment.
    The existential/universal partition is ignored; only delta matters.
    """
    n, tape, table = _tape_rule(automaton, word)
    _check_states(automaton, p, q)
    # (p, 0) and (q, 0) are the ids p and q; an id below n sits at position 0
    seen = bytearray(n * len(tape))
    stack = [p]
    while stack:
        c = stack.pop()
        head, state = divmod(c, n)
        for offset in table[tape[head]][state]:
            succ = c + offset
            if succ < n:
                if succ == q:
                    return True
                continue  # touching the left endmarker mid-path is not a segment
            if not seen[succ]:
                seen[succ] = 1
                stack.append(succ)
    return False


Node = TypeVar("Node", bound=Hashable)


def and_or_reach(succs: Mapping[Node, Collection[Node]], goals: Iterable[Node],
                 is_universal: Callable[[Node], bool]) -> set[Node]:
    """Least fixpoint of the and-or path predicate: the nodes that can force `goals`.

    A goal is good.  Any other node is good if it is existential and some
    successor is good, or universal and it has successors, all of them
    good; so a dead node that is not a goal is bad, and so is a node that
    can only loop.  `succs` has every node as a key, successors included;
    a successor listed twice is two edges, each counted once.

    One worklist pass over reverse edges, with a count of successors not yet
    good per node: O(nodes + edges), as in linear-time Horn satisfiability.
    """
    preds: dict[Node, list[Node]] = {v: [] for v in succs}
    pending = {}
    for v, out in succs.items():
        pending[v] = len(out)
        for u in out:
            preds[u].append(v)
    good = set(goals)
    queue = deque(good)
    while queue:
        v = queue.popleft()
        for u in preds[v]:
            if u in good:
                continue
            if is_universal(u):
                pending[u] -= 1
                if pending[u]:
                    continue
            good.add(u)
            queue.append(u)
    return good


def alternating_accepts_oracle(automaton: TwoWayAutomaton, word: str) -> bool:
    """Least-fixpoint acceptance for machines with universal states.

    A configuration whose state is accepting is a leaf and accepted
    outright.  Otherwise an existential configuration needs one accepted
    successor and a universal configuration needs at least one successor
    with all of them accepted; in particular a dead non-accepting
    configuration of either kind is rejecting, and so is any loop.

    The fixpoint is `and_or_reach` over a contraction of the closure of
    (initial, 0): the configurations reachable from it without stepping out
    of an accepting leaf.  Its nodes are the start, the accepting
    configurations (the goals, with no successors), the configurations
    with 0 or at least 2 successors, and one configuration of each loop of
    one-successor configurations.  Each successor of a node is replaced by
    where its maximal chain of one-successor configurations ends: the first
    node on it, or, if the chain closes on itself, the configuration where
    it closes, which becomes a node whose one successor is itself.

    This is exact.  The least fixpoint is the union of rounds G_0 = goals,
    G_(i+1) = G_i plus every node whose rule holds over G_i, and the rule
    for a node reads only its own successors.  By induction on i, a node's
    membership in G_i depends only on the nodes it can reach, and every
    one of them is in the closure with the same successors; a leaf's
    successors are never read, since a goal is in every round.  So the
    fixpoint L over the closure decides the start as the fixpoint over all
    n * (|w| + 2) configurations does.  The contraction keeps L on its
    nodes.  A non-accepting configuration x with one successor y enters
    G_(i+1) exactly when y is in G_i, existential or universal alike; so a
    chain is in L exactly when its end is, a loop of such configurations
    never is, since no round adds the first of them, and neither is the
    self-loop node that stands for it.  Then a node's rule holds over L
    read through the original successors exactly when it holds read
    through their chain ends, and by induction on the rounds of either
    graph, a node added in one is in the fixpoint of the other.  The cost
    is one step per configuration of the closure, with queue and graph
    work only for the nodes.
    """
    n, tape, table = _tape_rule(automaton, word)
    accepting = automaton.accepting
    start = automaton.initial  # (initial, 0)
    if start in accepting:  # a leaf
        return True
    succs: dict[int, list[int]] = {}
    goals = []
    # where the chain through each configuration ends: a node stands for
    # itself, -1 marks a configuration not met yet, -2 one on the chain being chased
    ends = [-1] * (n * len(tape))
    ends[start] = start
    stack = [(start, table[LEFT_ENDMARKER][start])]
    path: list[int] = []
    while stack:
        node, offsets = stack.pop()
        out = succs[node] = []
        for offset in offsets:
            c = node + offset
            while True:  # chase c's chain to its end
                end = ends[c]
                if end != -1:
                    if end == -2:  # the chain closed on itself at c, which stands for its loop
                        end = c
                        succs[c] = [c]
                    break
                head, state = divmod(c, n)
                if state in accepting:
                    goals.append(c)
                    succs[c] = []
                    end = c
                    break
                row = table[tape[head]][state]
                if len(row) != 1:
                    stack.append((c, row))
                    end = c
                    break
                ends[c] = -2
                path.append(c)
                c += row[0]
            ends[c] = end
            for x in path:
                ends[x] = end
            path.clear()
            out.append(end)
    universal = automaton.universal
    return start in and_or_reach(succs, goals, lambda c: c % n in universal)


def all_words(alphabet: Iterable[str], max_len: int) -> Iterable[str]:
    """Every word up to max_len, shortest first, lexicographic within a length."""
    from itertools import product

    letters = list(alphabet)
    if not letters:  # the empty word is the only one
        max_len = min(max_len, 0)
    for length in range(max_len + 1):
        for tup in product(letters, repeat=length):
            yield "".join(tup)
