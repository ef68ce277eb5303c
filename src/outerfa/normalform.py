"""Conversion of outer-choice machines into the structured 3n-state form.

The target shape, verified by `check_normal_form`:

1. choices (existential or universal) happen only at the left endmarker;
2. there is a unique accepting state and it halts;
3. that state is entered only at the left endmarker, by stationary moves;
4. no other stationary moves exist anywhere, except that machines with a
   universal/existential partition may keep stationary moves at the left
   endmarker into arbitrary states.

The construction keeps the original states, adds a leftward travelling copy
and a rightward travelling copy per state where needed, and one fresh
accepting state, so the result never exceeds three times the input size.
It runs in three steps:

1. halt the final states, and turn every stationary move into a final state
   into a moving one (left at the right endmarker, right elsewhere);
2. close stationary chains, on every symbol for the plain form and on the
   letters only with a partition;
3. mint the back copies, the forward copies and `qAcc` by one rule (the
   next id, the name primed until unique) and wire them: a back copy walks
   to the left endmarker and there does what its source did at the right
   one, a forward copy walks to the right endmarker and steps left from it
   in its source state.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    LEFT,
    LEFT_ENDMARKER,
    RIGHT,
    RIGHT_ENDMARKER,
    STAY,
    InvariantViolation,
    TwoWayAutomaton,
    NotApplicable,
    _normal_form_flags,
    classify,
)


class NotOuter(ValueError):
    """The machine branches while scanning an ordinary input symbol."""


class NotNormalForm(ValueError):
    """The operation requires a machine in the structured normal form."""


@dataclass(frozen=True)
class NormalFormReport:
    """Result of the structural normal-form scan."""

    property1: bool  # choices only at the left endmarker
    property2: bool  # unique halting accepting state
    property3: bool  # accepting state entered only at the left endmarker, stationary
    property4: bool  # stationary moves confined to the left endmarker

    @property
    def all_properties(self) -> bool:
        return self.property1 and self.property2 and self.property3 and self.property4


def check_normal_form(automaton: TwoWayAutomaton, alternating: bool = False) -> NormalFormReport:
    """Purely structural scan of the transition table; nothing is executed.

    The scan ignores the universal/existential partition: a machine with
    universal states can pass with `alternating=False`, where
    `require_normal_form` refuses it.
    """
    return NormalFormReport(*_normal_form_flags(automaton, alternating=alternating))


def require_normal_form(automaton: TwoWayAutomaton, alternating: bool) -> int:
    """The machine's unique accepting state; NotNormalForm unless it is in the normal form.

    Without `alternating` that is the strict form, on a machine without
    universal states; with it, the relaxed form, universal states allowed.
    Either form has exactly one accepting state, which every construction
    that passes this gate reads from here.
    """
    if not alternating and automaton.universal:
        raise NotNormalForm("this operation takes machines without universal states")
    if not all(_normal_form_flags(automaton, alternating)):
        variant = "relaxed" if alternating else "strict"
        raise NotNormalForm(f"this operation requires the {variant} normal form")
    return next(iter(automaton.accepting))


def _stationary_closure(rows: dict, q: int, symbol: str) -> set[tuple[int, int]]:
    """Moving transitions reachable from (q, symbol) through stationary chains.

    A chain that cycles without ever moving contributes nothing: that path
    was a non-halting rejection, and dropping it keeps the language.
    """
    out: set[tuple[int, int]] = set()
    visited = {q}
    stack = [q]
    while stack:
        x = stack.pop()
        for (p, d) in rows.get((x, symbol), ()):
            if d != STAY:
                out.add((p, d))
            elif p not in visited:
                visited.add(p)
                stack.append(p)
    return out


def _normalize(automaton: TwoWayAutomaton, alternating: bool) -> TwoWayAutomaton:
    flavor = "oafa" if alternating else "onfa"
    if not classify(automaton).is_outer:
        raise NotOuter("choices occur away from the endmarkers")
    if automaton.universal and not alternating:
        raise NotApplicable("machine has universal states; use normalize_oafa")

    alphabet = automaton.alphabet
    n = automaton.n
    finals = automaton.accepting

    if not finals:
        return TwoWayAutomaton(
            state_names=["qI", "qF"],
            alphabet=alphabet,
            delta={},
            initial=0,
            accepting=[1],
            declared_flavor=flavor,
        )

    # Working copy of the table, finals made halting.  Stationary moves into a
    # final state become moving ones; the machine has already accepted the
    # moment it enters that state, so the direction only has to keep the head
    # on the tape.
    rows: dict[tuple[int, str], set[tuple[int, int]]] = {}
    for (q, sym), succs in automaton.delta.items():
        if q not in finals:
            bounce = RIGHT if sym != RIGHT_ENDMARKER else LEFT
            rows[(q, sym)] = {(p, bounce if (p in finals and d == STAY) else d) for (p, d) in succs}

    # Collapse stationary chains.  For the plain nondeterministic form every
    # symbol is closed; with a partition the left endmarker keeps its
    # stationary moves (collapsing them could merge distinct choice points)
    # and the right endmarker's stationary moves are rerouted below instead.
    closed: dict[tuple[int, str], set[tuple[int, int]]] = {}
    for (q, sym), succs in rows.items():
        if sym in alphabet or not alternating:
            succs = _stationary_closure(rows, q, sym)
        if succs:
            closed[(q, sym)] = succs

    # Which travelling copies are needed: a back copy for every state that
    # acts at the right endmarker, every target of a stationary move there
    # (never a final: those moves were bounced), every final entered
    # elsewhere and a final initial state; a forward copy
    # for every non-final target of a leftward move at the right endmarker.
    needs_back = {automaton.initial} & finals
    needs_forward: set[int] = set()
    for (q, sym), succs in closed.items():
        if sym == RIGHT_ENDMARKER:
            needs_back.add(q)
            needs_back.update(p for (p, d) in succs if d == STAY)
            needs_forward.update(p for (p, d) in succs if d == LEFT and p not in finals)
        else:
            needs_back.update(p for (p, _) in succs if p in finals)

    # Every new state is minted by one rule, in the order back copies,
    # forward copies, qAcc: its name primed until unique, its id the next one.
    names = list(automaton.state_names)
    taken = set(names)

    def fresh(base: str) -> int:
        name = base
        while name in taken:
            name += "'"
        taken.add(name)
        names.append(name)
        return len(names) - 1

    back_ids = {q: fresh(f"bk_{names[q]}") for q in sorted(needs_back)}
    fw_ids = {q: fresh(f"fw_{names[q]}") for q in sorted(needs_forward)}
    q_acc = fresh("qAcc")

    delta: dict[tuple[int, str], set[tuple[int, int]]] = {}

    for (q, sym), succs in closed.items():
        if sym == RIGHT_ENDMARKER:
            # Head about to act at the right endmarker: travel back first.
            delta[(q, sym)] = {(back_ids[q], LEFT)}
        else:
            delta[(q, sym)] = {((back_ids[p], d) if p in finals else (p, d)) for (p, d) in succs}

    for q, bid in back_ids.items():
        for sym in (*alphabet, RIGHT_ENDMARKER):
            delta[(bid, sym)] = {(bid, LEFT)}
        # At the left endmarker a back copy accepts for a final source, and
        # otherwise acts as its source did at the right endmarker: a leftward
        # move re-crosses the tape on a forward copy, a stationary one (kept
        # only with a partition) hands over to the target's back copy.
        image = {(q_acc, STAY)} if q in finals else {
            (q_acc, STAY) if p in finals else (fw_ids[p], RIGHT) if d == LEFT else (back_ids[p], STAY)
            for (p, d) in closed.get((q, RIGHT_ENDMARKER), ())
        }
        if image:
            delta[(bid, LEFT_ENDMARKER)] = image

    for p, fid in fw_ids.items():
        for letter in alphabet:
            delta[(fid, letter)] = {(fid, RIGHT)}
        delta[(fid, RIGHT_ENDMARKER)] = {(p, LEFT)}

    # A back copy is the branch point of its source's rerouted choice, so it
    # must carry the same quantifier.  Forward copies have a single successor
    # everywhere and stay existential.  Without a partition both sets are
    # empty: normalize_onfa refused universal states above.
    universal = {q for q in automaton.universal if q not in finals}
    universal |= {bid for q, bid in back_ids.items() if q in automaton.universal}

    result = TwoWayAutomaton(
        state_names=names,
        alphabet=alphabet,
        delta=delta,
        initial=back_ids[automaton.initial] if automaton.initial in finals else automaton.initial,
        accepting=[q_acc],
        universal=universal,
        declared_flavor=flavor,
    )
    if result.n > 3 * n:
        raise InvariantViolation(f"normal form has {result.n} states, above the 3n budget {3 * n}")
    return result


def normalize_onfa(automaton: TwoWayAutomaton) -> TwoWayAutomaton:
    """Equivalent machine, at most 3n states, all four normal-form properties."""
    return _normalize(automaton, alternating=False)


def normalize_oafa(automaton: TwoWayAutomaton) -> TwoWayAutomaton:
    """As normalize_onfa for partitioned machines; left-endmarker stationary moves survive."""
    return _normalize(automaton, alternating=True)
