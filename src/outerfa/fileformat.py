"""Line-oriented text format for two-way automata.

A document is a sequence of `key: value` lines plus repeated transition
lines; `#` starts a comment anywhere.  State and letter tokens are
whitespace-separated; the endmarkers are written `<` and `>` and are
reserved, so they can never be alphabet letters.  Directions are L, S, R.

    type: onfa
    alphabet: a b
    states: qI pa qF
    initial: qI
    accepting: qF
    trans: qI < pa R
    trans: pa a pa R

Serialization is canonical (states in declaration order, transitions
sorted), so equal machines produce byte-identical documents and parsing a
serialized machine reproduces it structurally.
"""

from __future__ import annotations

import warnings

from .core import (
    LEFT,
    LEFT_ENDMARKER,
    RIGHT,
    RIGHT_ENDMARKER,
    STAY,
    MalformedAutomaton,
    TwoWayAutomaton,
    classify,
)

_DIR_FROM_LETTER = {"L": LEFT, "S": STAY, "R": RIGHT}
_DIR_TO_LETTER = {LEFT: "L", STAY: "S", RIGHT: "R"}

_SCALAR_KEYS = ("type", "alphabet", "states", "initial", "accepting", "rejecting", "universal")
_REQUIRED_KEYS = ("type", "alphabet", "states", "initial", "accepting")
_FLAVORS = ("dfa", "onfa", "nfa", "svfa", "oafa", "afa")  # narrowest first


class ParseError(ValueError):
    """Malformed document; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class FlavorMismatch(ValueError):
    """The declared machine type contradicts the transition structure."""


class DuplicateTransitionWarning(UserWarning):
    pass


def _fitting_types(automaton: TwoWayAutomaton) -> dict[str, bool]:
    """Whether the machine's structure fits each type; rejecting states fit any of them."""
    report = classify(automaton)
    existential = not automaton.universal
    return {
        "dfa": report.is_deterministic and existential,
        "onfa": report.is_outer and existential,
        "nfa": existential,
        "svfa": existential,
        "oafa": report.is_outer,
        "afa": True,
    }


def _check_flavor(automaton: TwoWayAutomaton) -> None:
    flavor = automaton.declared_flavor
    if not _fitting_types(automaton)[flavor]:
        raise FlavorMismatch(f"machine structure contradicts declared type {flavor!r}")


def parse(text: str) -> TwoWayAutomaton:
    """Parse and validate a document; the declared type is checked for real."""
    fields: dict[str, tuple[str, int]] = {}
    transitions: list[tuple[str, str, str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected 'key: value'", lineno)
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "trans":
            tokens = value.split()
            if len(tokens) != 4:
                raise ParseError("transition needs: source symbol target direction", lineno)
            transitions.append((*tokens, lineno))
        elif key in _SCALAR_KEYS:
            if key in fields:
                raise ParseError(f"duplicate key {key!r}", lineno)
            fields[key] = (value, lineno)
        else:
            raise ParseError(f"unknown key {key!r}", lineno)

    for key in _REQUIRED_KEYS:
        if key not in fields:
            raise ParseError(f"missing required key {key!r}")

    flavor, lineno = fields["type"]
    if flavor not in _FLAVORS:
        raise ParseError(f"unknown machine type {flavor!r}", lineno)

    alphabet = fields["alphabet"][0].split()
    names = fields["states"][0].split()
    if not names:
        raise ParseError("at least one state is required", fields["states"][1])
    if len(set(names)) != len(names):
        raise ParseError("duplicate state names", fields["states"][1])
    index = {name: i for i, name in enumerate(names)}

    def state(token: str, lineno: int) -> int:
        if token not in index:
            raise ParseError(f"unknown state {token!r}", lineno)
        return index[token]

    def state_set(key: str) -> list[int]:
        if key not in fields:
            return []
        value, lineno = fields[key]
        return [state(token, lineno) for token in value.split()]

    symbols = set(alphabet) | {LEFT_ENDMARKER, RIGHT_ENDMARKER}
    delta: dict[tuple[int, str], list[tuple[int, int]]] = {}
    seen_rules: set[tuple[str, str, str, str]] = set()
    for (src, sym, dst, direction, lineno) in transitions:
        if sym not in symbols:
            raise ParseError(f"symbol {sym!r} is not in the alphabet", lineno)
        if direction not in _DIR_FROM_LETTER:
            raise ParseError(f"direction must be one of L, S, R, not {direction!r}", lineno)
        rule = (src, sym, dst, direction)
        if rule in seen_rules:
            warnings.warn(
                f"line {lineno}: duplicate transition {' '.join(rule)} collapsed",
                DuplicateTransitionWarning,
                stacklevel=2,
            )
            continue
        seen_rules.add(rule)
        key = (state(src, lineno), sym)
        delta.setdefault(key, []).append((state(dst, lineno), _DIR_FROM_LETTER[direction]))

    initial_value, initial_line = fields["initial"]
    initial_tokens = initial_value.split()
    if len(initial_tokens) != 1:
        raise ParseError("exactly one initial state is required", initial_line)

    try:
        automaton = TwoWayAutomaton(
            state_names=names,
            alphabet=alphabet,
            delta=delta,
            initial=state(initial_tokens[0], initial_line),
            accepting=state_set("accepting"),
            rejecting=state_set("rejecting"),
            universal=state_set("universal"),
            declared_flavor=flavor,
        )
    except MalformedAutomaton as exc:
        raise ParseError(str(exc)) from exc
    _check_flavor(automaton)
    return automaton


def _infer_flavor(automaton: TwoWayAutomaton) -> str:
    """`svfa` for a fitting machine with rejecting states, else the narrowest fitting type."""
    fits = _fitting_types(automaton)
    order = ("svfa",) + _FLAVORS if automaton.rejecting else _FLAVORS
    return next(flavor for flavor in order if fits[flavor])


def serialize(automaton: TwoWayAutomaton) -> str:
    """Canonical document for the machine; stable down to the byte.

    The format splits tokens at whitespace and cuts comments at `#`, so an
    empty state name, or a name or letter holding whitespace or `#`, cannot
    be written and raises ValueError.
    """
    names = automaton.state_names
    for token in (*names, *automaton.alphabet):
        if token.split() != [token] or "#" in token:
            raise ValueError(f"cannot write {token!r}: tokens are nonempty, without whitespace or '#'")
    lines = [
        f"type: {automaton.declared_flavor or _infer_flavor(automaton)}",
        f"alphabet: {' '.join(automaton.alphabet)}".rstrip(),
        f"states: {' '.join(names)}",
        f"initial: {names[automaton.initial]}",
        f"accepting: {' '.join(names[q] for q in sorted(automaton.accepting))}".rstrip(),
    ]
    if automaton.rejecting:
        lines.append(f"rejecting: {' '.join(names[q] for q in sorted(automaton.rejecting))}")
    if automaton.universal:
        lines.append(f"universal: {' '.join(names[q] for q in sorted(automaton.universal))}")
    # rules by source, then symbol in `symbols()` order, then (target, direction),
    # the order `successors` keeps
    lines.extend(f"trans: {names[src]} {sym} {names[dst]} {_DIR_TO_LETTER[d]}"
                 for src in range(automaton.n) for sym in automaton.symbols()
                 for (dst, d) in automaton.successors(src, sym))
    return "\n".join(lines) + "\n"
