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
    state_count: int
    bound_3n: int

    @property
    def all_properties(self) -> bool:
        return self.property1 and self.property2 and self.property3 and self.property4


def check_normal_form(automaton: TwoWayAutomaton, alternating: bool = False) -> NormalFormReport:
    """Purely structural scan of the transition table; nothing is executed."""
    p1, p2, p3, p4 = _normal_form_flags(automaton, alternating=alternating)
    return NormalFormReport(
        property1=p1,
        property2=p2,
        property3=p3,
        property4=p4,
        state_count=automaton.n,
        bound_3n=3 * automaton.n,
    )


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

    # Working copy of the table, finals made halting.
    rows: dict[tuple[int, str], set[tuple[int, int]]] = {}
    for (q, sym), succs in automaton.delta.items():
        if q in finals:
            continue
        rows[(q, sym)] = set(succs)

    # Stationary moves into a final state become moving ones; the machine has
    # already accepted the moment it enters that state, so the direction only
    # has to keep the head on the tape.
    for key, succs in rows.items():
        _, sym = key
        bounce = RIGHT if sym != RIGHT_ENDMARKER else LEFT
        rows[key] = {
            (p, bounce if (p in finals and d == STAY) else d)
            for (p, d) in succs
        }

    # Collapse stationary chains.  For the plain nondeterministic form every
    # symbol is closed; with a partition the left endmarker keeps its
    # stationary moves (collapsing them could merge distinct choice points)
    # and the right endmarker's stationary moves are rerouted below instead.
    if alternating:
        closure_symbols = set(alphabet)
    else:
        closure_symbols = set(alphabet) | {LEFT_ENDMARKER, RIGHT_ENDMARKER}
    closed: dict[tuple[int, str], set[tuple[int, int]]] = {}
    for (q, sym) in list(rows):
        if sym in closure_symbols:
            succs = _stationary_closure(rows, q, sym)
        else:
            succs = rows[(q, sym)]
        if succs:
            closed[(q, sym)] = succs

    # Which travelling copies are needed.
    needs_back: set[int] = set()
    needs_forward: set[int] = set()
    for (q, sym), succs in closed.items():
        if sym == RIGHT_ENDMARKER:
            needs_back.add(q)
            for (p, d) in succs:
                if d == STAY and p not in finals:
                    needs_back.add(p)
                elif d == LEFT and p not in finals:
                    needs_forward.add(p)
        else:
            for (p, _) in succs:
                if p in finals:
                    needs_back.add(p)
    if automaton.initial in finals:
        needs_back.add(automaton.initial)

    back_ids = {q: i for i, q in enumerate(sorted(needs_back), start=n)}
    fw_ids = {q: i for i, q in enumerate(sorted(needs_forward), start=n + len(back_ids))}
    q_acc = n + len(back_ids) + len(fw_ids)

    names = list(automaton.state_names)
    taken = set(names)

    def fresh(base: str) -> str:
        name = base
        while name in taken:
            name += "'"
        taken.add(name)
        return name

    for q in sorted(needs_back):
        names.append(fresh(f"bk_{automaton.state_names[q]}"))
    for q in sorted(needs_forward):
        names.append(fresh(f"fw_{automaton.state_names[q]}"))
    names.append(fresh("qAcc"))

    def redirect(p: int, d: int) -> tuple[int, int]:
        return (back_ids[p], d) if p in finals else (p, d)

    delta: dict[tuple[int, str], set[tuple[int, int]]] = {}

    for (q, sym), succs in closed.items():
        if sym == RIGHT_ENDMARKER:
            # Head about to act at the right endmarker: travel back first.
            delta[(q, sym)] = {(back_ids[q], LEFT)}
        else:
            delta[(q, sym)] = {redirect(p, d) for (p, d) in succs}

    for q, bid in back_ids.items():
        for letter in alphabet:
            delta[(bid, letter)] = {(bid, LEFT)}
        delta[(bid, RIGHT_ENDMARKER)] = {(bid, LEFT)}
        if q in finals:
            delta[(bid, LEFT_ENDMARKER)] = {(q_acc, STAY)}
            continue
        image: set[tuple[int, int]] = set()
        for (p, d) in closed.get((q, RIGHT_ENDMARKER), ()):
            if d == LEFT:
                image.add((q_acc, STAY) if p in finals else (fw_ids[p], RIGHT))
            else:  # stationary at the right endmarker, kept only with a partition
                image.add((back_ids[p], STAY))
        if image:
            delta[(bid, LEFT_ENDMARKER)] = image

    for p, fid in fw_ids.items():
        for letter in alphabet:
            delta[(fid, letter)] = {(fid, RIGHT)}
        delta[(fid, RIGHT_ENDMARKER)] = {(p, LEFT)}

    universal: set[int] = set()
    if alternating:
        universal = {q for q in automaton.universal if q not in finals}
        # A back copy is the branch point of its source's rerouted choice,
        # so it must carry the same quantifier.  Forward copies have a
        # single successor everywhere and stay existential.
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
