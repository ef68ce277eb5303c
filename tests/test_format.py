"""Text format: round trips, validation, canonical output."""

import re

import pytest

from outerfa import (
    DuplicateTransitionWarning,
    FlavorMismatch,
    ParseError,
    TwoWayAutomaton,
    parse,
    serialize,
)

from conftest import random_nf_oafa, random_nf_onfa, random_oafa, random_onfa
from reference import build_e1, build_e2, build_ea, build_trivial_empty

FIXTURES = [build_e1(), build_e2(), build_ea(), build_trivial_empty()]


def test_round_trip_on_fixtures():
    for machine in FIXTURES:
        assert parse(serialize(machine)) == machine


def test_round_trip_on_random_machines():
    machines = (
        [random_onfa(seed) for seed in range(40)]
        + [random_oafa(seed) for seed in range(40, 70)]
        + [random_nf_onfa(seed) for seed in range(2000, 2020)]
        + [random_nf_oafa(seed) for seed in range(3000, 3010)]
    )
    for machine in machines:
        assert parse(serialize(machine)) == machine


def test_serialization_is_byte_deterministic():
    one = serialize(build_e1())
    two = serialize(parse(serialize(build_e1())))
    assert one == two


def test_comments_and_blank_lines_are_ignored():
    text = serialize(build_e1())
    noisy = "# header\n\n" + text.replace("initial: qI", "initial: qI  # start here")
    assert parse(noisy) == build_e1()


def test_missing_initial_is_an_error():
    text = "\n".join(
        line for line in serialize(build_e1()).splitlines() if not line.startswith("initial")
    )
    with pytest.raises(ParseError):
        parse(text)


def test_unknown_key_is_an_error():
    with pytest.raises(ParseError) as info:
        parse("type: onfa\nbogus: 1\nalphabet: a\nstates: q\ninitial: q\naccepting:\n")
    assert info.value.line == 2


def test_bad_direction_and_unknown_state():
    base = "type: onfa\nalphabet: a\nstates: q\ninitial: q\naccepting: q\n"
    with pytest.raises(ParseError):
        parse(base + "trans: q a q X\n")
    with pytest.raises(ParseError):
        parse(base + "trans: q a nope R\n")
    with pytest.raises(ParseError):
        parse(base + "trans: q z q R\n")


@pytest.mark.parametrize("old, new, message, line", [
    ("trans: q a q R", "trans: q a q", "transition needs: source symbol target direction", 6),
    ("type: onfa", "type: pda", "unknown machine type 'pda'", 1),
    ("states: q", "states:", "at least one state is required", 3),
    ("states: q", "states: q q", "duplicate state names", 3),
    ("initial: q", "initial: q q", "exactly one initial state is required", 4),
], ids=["short_transition", "unknown_type", "no_states", "duplicate_states", "two_initials"])
def test_parse_rejects_malformed_documents(old, new, message, line):
    base = "type: onfa\nalphabet: a\nstates: q\ninitial: q\naccepting: q\ntrans: q a q R\n"
    assert parse(base).n == 1
    with pytest.raises(ParseError, match=f"^line {line}: {re.escape(message)}$"):
        parse(base.replace(old, new))


def test_duplicate_scalar_key_is_an_error():
    text = serialize(build_e1()) + "initial: qI\n"
    with pytest.raises(ParseError):
        parse(text)


def test_duplicate_transition_warns_and_collapses():
    text = serialize(build_e1())
    doubled = text + "trans: pa a pa R\n"
    with pytest.warns(DuplicateTransitionWarning):
        machine = parse(doubled)
    assert machine == build_e1()


def test_flavor_mismatch_dfa_with_branching():
    text = serialize(build_e1()).replace("type: onfa", "type: dfa")
    with pytest.raises(FlavorMismatch):
        parse(text)


def test_flavor_mismatch_universal_under_nfa():
    text = serialize(build_e2()).replace("type: oafa", "type: nfa")
    with pytest.raises(FlavorMismatch):
        parse(text)


def test_endmarker_tokens_are_reserved():
    with pytest.raises(ParseError):
        parse("type: onfa\nalphabet: <\nstates: q\ninitial: q\naccepting:\n")


def test_svfa_flavor_round_trip():
    machine = TwoWayAutomaton(["q", "yes", "no"], "a",
                              {(0, "<"): [(1, 1), (2, 1)]}, 0, [1],
                              rejecting=[2], declared_flavor="svfa")
    assert parse(serialize(machine)) == machine


# machines over states q, f, r with accepting f: the type serialize infers for each,
# its table and its rejecting and universal states
UNDECLARED = [
    ("dfa", {(0, "<"): [(0, 1)], (0, "a"): [(1, 1)]}, (), ()),
    ("onfa", {(0, "<"): [(0, 1), (1, 1)]}, (), ()),
    ("nfa", {(0, "a"): [(0, 1), (1, 1)]}, (), ()),
    ("svfa", {(0, "<"): [(1, 1), (2, 1)]}, [2], ()),
    ("oafa", {(0, "<"): [(0, 1), (1, 1)]}, (), [0]),
    ("afa", {(0, "a"): [(0, 1), (1, 1)]}, (), [0]),
]


@pytest.mark.parametrize("flavor, delta, rejecting, universal", UNDECLARED)
def test_serialize_infers_an_undeclared_type(flavor, delta, rejecting, universal):
    machine = TwoWayAutomaton(["q", "f", "r"], "a", delta, 0, [1],
                              rejecting=rejecting, universal=universal)
    text = serialize(machine)
    assert text.startswith(f"type: {flavor}\n")
    back = parse(text)
    assert back.declared_flavor == flavor
    assert back == TwoWayAutomaton(["q", "f", "r"], "a", delta, 0, [1], rejecting=rejecting,
                                   universal=universal, declared_flavor=flavor)


@pytest.mark.parametrize("machine, accepted", list(zip(
    UNDECLARED + [("oafa", {(0, "<"): [(1, 1), (2, 1)]}, [2], [0])],
    [
        {"dfa", "onfa", "nfa", "svfa", "oafa", "afa"},
        {"onfa", "nfa", "svfa", "oafa", "afa"},
        {"nfa", "svfa", "afa"},
        {"onfa", "nfa", "svfa", "oafa", "afa"},
        {"oafa", "afa"},
        {"afa"},
        {"oafa", "afa"},
    ],
)), ids=["dfa", "onfa", "nfa", "svfa", "oafa", "afa", "oafa_rejecting"])
def test_parse_accepts_exactly_the_fitting_types(machine, accepted):
    flavor, delta, rejecting, universal = machine
    text = serialize(TwoWayAutomaton(["q", "f", "r"], "a", delta, 0, [1],
                                     rejecting=rejecting, universal=universal))
    assert text.startswith(f"type: {flavor}\n")
    fits = set()
    for declared in ("dfa", "onfa", "nfa", "svfa", "oafa", "afa"):
        try:
            back = parse(text.replace(f"type: {flavor}\n", f"type: {declared}\n", 1))
        except FlavorMismatch as exc:
            assert str(exc) == f"machine structure contradicts declared type {declared!r}"
        else:
            assert back.declared_flavor == declared
            fits.add(declared)
    assert fits == accepted


def test_empty_alphabet_round_trip():
    machine = TwoWayAutomaton(["q", "f"], "", {(0, "<"): [(1, 0)]}, 0, [1],
                              declared_flavor="onfa")
    assert parse(serialize(machine)) == machine


@pytest.mark.parametrize("names, alphabet", [
    (["q 0", "qF"], "a"),
    (["x#1", "qF"], "a"),
    (["q#", "qF"], "a"),
    (["", "qF"], "a"),
    (["q\n", "qF"], "a"),
    (["q", "qF"], "a#"),
    (["q", "qF"], "a "),
], ids=["space", "hash", "trailing_hash", "empty", "newline", "hash_letter", "space_letter"])
def test_serialize_refuses_untokenizable_names(names, alphabet):
    # parse would reject or misread such a document, so none is written
    machine = TwoWayAutomaton(names, alphabet, {(0, "<"): [(1, 0)]}, 0, [1],
                              declared_flavor="onfa")
    with pytest.raises(ValueError, match="cannot write"):
        serialize(machine)
