"""Two-way finite automata on endmarked tapes.

The machine model: a finite-state control with a two-way head over the input
word, which is stored between a left and a right endmarker.  States are dense
integer ids; the id order is also the fixed linear order used by every
construction that needs one.  The transition function maps (state, symbol)
to a finite set of (state, direction) pairs and may be partial: an undefined
entry simply halts that computation path.

Besides the data model, this module holds the executable ground truth the
rest of the package is checked against: breadth-first acceptance oracles
over the (finite) configuration graph, a visit-bounded variant, an and-or
fixpoint oracle for machines with universal states, and a restricted-path
oracle for computation segments (left endmarker to left endmarker, with no
left-endmarker visit in between; the right endmarker may be crossed freely).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

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


class Configuration(NamedTuple):
    """A (state, head position) pair; position 0 is the left endmarker."""

    state: int
    head: int


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
        self._form_flags: list = [None, None]  # normal-form flags, by `alternating`

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


def symbol_at(word: str, position: int) -> str:
    """Tape symbol under the head: endmarkers at 0 and len(word)+1."""
    if position == 0:
        return LEFT_ENDMARKER
    if position == len(word) + 1:
        return RIGHT_ENDMARKER
    return word[position - 1]


def step(automaton: TwoWayAutomaton, config: Configuration, word: str) -> set[Configuration]:
    """All successor configurations of `config` on `word`.

    An empty set means the path halts.  A successor that would leave the
    tape indicates a malformed (unvalidated) machine and raises.
    """
    if not 0 <= config.head <= len(word) + 1:
        raise MalformedAutomaton(f"head position {config.head} outside the tape")
    symbol = symbol_at(word, config.head)
    out = set()
    for (p, d) in automaton.successors(config.state, symbol):
        pos = config.head + d
        if not 0 <= pos <= len(word) + 1:
            raise MalformedAutomaton("transition moves the head off the tape")
        out.add(Configuration(p, pos))
    return out


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
    interior = automaton.alphabet + (RIGHT_ENDMARKER,)
    prop1 = all(
        len(automaton.successors(q, sym)) <= 1
        for q in range(automaton.n)
        for sym in interior
    )

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
    """Scan the transition table and report where choice can occur."""
    letters = automaton.alphabet
    deterministic = all(
        len(automaton.successors(q, sym)) <= 1
        for q in range(automaton.n)
        for sym in automaton.symbols()
    )
    outer = all(
        len(automaton.successors(q, a)) <= 1
        for q in range(automaton.n)
        for a in letters
    )
    outer_left = outer and all(
        len(automaton.successors(q, RIGHT_ENDMARKER)) <= 1
        for q in range(automaton.n)
    )
    alternating = bool(automaton.universal)
    flags = _normal_form_flags(automaton, alternating=alternating)
    return FlavorReport(
        is_deterministic=deterministic,
        is_outer=outer,
        is_outer_left=outer_left,
        is_alternating=alternating,
        satisfies_normal_form=all(flags),
    )


def accepts_oracle(automaton: TwoWayAutomaton, word: str) -> bool:
    """BFS ground truth: is some accepting state reachable from (initial, 0)?"""
    if automaton.universal:
        raise NotApplicable("machine has universal states; use alternating_accepts_oracle")
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


def accepts_bounded_visits(automaton: TwoWayAutomaton, word: str, k: int) -> bool:
    """Acceptance by a path whose configurations sit at the left endmarker at most k times.

    The initial configuration already counts as one visit, so k = 0 never
    accepts.  With k = n this agrees with `accepts_oracle`: a shortest
    accepting path never repeats a state at an endmarker.
    """
    if automaton.universal:
        raise NotApplicable("machine has universal states; use alternating_accepts_oracle")
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


def segment_exists_oracle(automaton: TwoWayAutomaton, word: str,
                          p: int, q: int) -> bool:
    """Is there a computation segment from p to q on `word`?

    A segment is a path of at least one step from (p, 0) to (q, 0) whose
    intermediate configurations never sit at position 0.  Crossing or
    turning at the right endmarker in the middle is allowed.  A single
    stationary move at the left endmarker is the shortest possible segment.
    The existential/universal partition is ignored; only delta matters.
    """
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
                continue  # touching the left endmarker mid-path is not a segment
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return False


def alternating_accepts_oracle(automaton: TwoWayAutomaton, word: str) -> bool:
    """Least-fixpoint acceptance for machines with universal states.

    A configuration whose state is accepting is a leaf and accepted
    outright.  Otherwise an existential configuration needs one accepted
    successor and a universal configuration needs at least one successor
    with all of them accepted; in particular a dead non-accepting
    configuration of either kind is rejecting, and so is any loop.
    """
    length = len(word) + 2
    configs = [Configuration(s, h) for s in range(automaton.n) for h in range(length)]
    succs = {c: step(automaton, c, word) for c in configs}
    accepted = {c for c in configs if c.state in automaton.accepting}
    changed = True
    while changed:
        changed = False
        for c in configs:
            if c in accepted:
                continue
            out = succs[c]
            if c.state in automaton.universal:
                ok = bool(out) and all(s in accepted for s in out)
            else:
                ok = any(s in accepted for s in out)
            if ok:
                accepted.add(c)
                changed = True
    return Configuration(automaton.initial, 0) in accepted


def all_words(alphabet: Iterable[str], max_len: int) -> Iterable[str]:
    """Every word up to max_len, shortest first, lexicographic within a length."""
    from itertools import product

    letters = list(alphabet)
    for length in range(max_len + 1):
        for tup in product(letters, repeat=length):
            yield "".join(tup)
