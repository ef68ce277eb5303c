"""Model semantics, brute-force oracles and the and-or solver."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outerfa import (
    MalformedAutomaton,
    NotApplicable,
    TwoWayAutomaton,
    accepts_oracle,
    all_words,
    alternating_accepts_oracle,
    and_or_reach,
    check_word,
    classify,
    oafa_decide,
    segment_exists_oracle,
)
from outerfa import core

from conftest import mod_p_sweeper, random_onfa, universal_twin
from reference import (
    P_A,
    P_B,
    Q_F,
    Q_I,
    R_A,
    R_B,
    Configuration,
    build_e1,
    build_e2,
    build_trivial_empty,
    reference_bounded_visits,
    step,
    symbol_at,
)

E1 = build_e1()
E2 = build_e2()


def test_step_initial_choice():
    assert step(E1, Configuration(Q_I, 0), "aa") == {
        Configuration(P_A, 1),
        Configuration(P_B, 1),
    }


def test_step_undefined_entry_halts():
    assert step(E1, Configuration(Q_F, 1), "aa") == set()


def test_step_interior_sweep():
    assert step(E1, Configuration(P_A, 1), "aa") == {Configuration(P_A, 2)}


def test_step_rejects_off_tape_positions():
    # a bad head is a bad argument, read through symbol_at like any position
    for head in (-1, 4, 9):
        with pytest.raises(ValueError, match="off the tape") as info:
            step(E1, Configuration(Q_I, head), "aa")
        assert not isinstance(info.value, MalformedAutomaton)


@pytest.mark.parametrize("state", [99, E1.n, -1])
def test_step_rejects_unknown_state_ids(state):
    with pytest.raises(ValueError, match="unknown state id"):
        step(E1, Configuration(state, 0), "a")


def test_step_rejects_foreign_letters():
    with pytest.raises(NotApplicable, match="not in the machine's alphabet"):
        step(E1, Configuration(P_A, 1), "z")
    with pytest.raises(NotApplicable):  # also when the head is elsewhere
        step(E1, Configuration(Q_I, 0), "az")


def test_symbol_at_reads_only_the_tape():
    assert [symbol_at("ab", i) for i in range(4)] == ["<", "a", "b", ">"]
    for position in (-1, 4, 7):
        with pytest.raises(ValueError, match="off the tape"):
            symbol_at("ab", position)


def test_validation_rejects_moves_off_the_tape():
    with pytest.raises(MalformedAutomaton):
        TwoWayAutomaton(["q"], "a", {(0, "<"): [(0, -1)]}, 0, [0])
    with pytest.raises(MalformedAutomaton):
        TwoWayAutomaton(["q"], "a", {(0, ">"): [(0, +1)]}, 0, [0])


@pytest.mark.parametrize("change, message", [
    ({"state_names": []}, "at least one state is required"),
    ({"state_names": ["q", "q"]}, "duplicate state names"),
    ({"alphabet": ["a", "a"]}, "duplicate alphabet letters"),
    ({"alphabet": ["ab"]}, "single characters: 'ab'"),
    ({"initial": 2}, "initial state 2 out of range"),
    ({"initial": -1}, "initial state -1 out of range"),
    ({"accepting": [2]}, "accepting state 2 out of range"),
    ({"rejecting": [5]}, "rejecting state 5 out of range"),
    ({"universal": [-1]}, "universal state -1 out of range"),
    ({"delta": {(2, "a"): [(0, 1)]}}, "transition from unknown state 2"),
    ({"delta": {(0, "b"): [(1, 1)]}}, "transition on unknown symbol 'b'"),
    ({"delta": {(0, "a"): [(2, 1)]}}, "transition into unknown state 2"),
    ({"delta": {(0, "a"): [(1, 2)]}}, "bad direction 2"),
], ids=["no_states", "duplicate_names", "duplicate_letters", "long_letter", "initial",
        "negative_initial", "accepting", "rejecting", "universal", "source", "symbol", "target",
        "direction"])
def test_validation_rejects_malformed_parts(change, message):
    parts = {"state_names": ["q", "f"], "alphabet": "a", "delta": {(0, "a"): [(1, 1)]},
             "initial": 0, "accepting": [1], **change}
    with pytest.raises(MalformedAutomaton, match=re.escape(message)):
        TwoWayAutomaton(**parts)


def test_validation_rejects_overlapping_accept_reject():
    with pytest.raises(MalformedAutomaton):
        TwoWayAutomaton(["q", "p"], "a", {}, 0, [1], rejecting=[1])


def test_validation_rejects_endmarker_letters():
    with pytest.raises(MalformedAutomaton):
        TwoWayAutomaton(["q"], ["<"], {}, 0, [])


def test_classify_e1():
    report = classify(E1)
    assert report.is_outer_left
    assert not report.is_deterministic
    assert report.satisfies_normal_form
    assert not report.is_alternating


def test_delta_is_read_only():
    with pytest.raises(TypeError):
        E1.delta[(P_A, "b")] = ((P_A, 1),)
    with pytest.raises(TypeError):
        del E1.delta[(P_A, "a")]
    with pytest.raises(AttributeError):
        E1.delta = {}
    assert (P_A, "b") not in E1.delta
    # a dict() copy is an ordinary mutable table that builds a mutant
    delta = dict(E1.delta)
    delta[(P_A, "b")] = [(P_B, 1)]
    mutant = TwoWayAutomaton(E1.state_names, E1.alphabet, delta, E1.initial, E1.accepting)
    assert mutant.successors(P_A, "b") == ((P_B, 1),)
    assert E1.successors(P_A, "b") == ()
    assert mutant != E1


def test_machines_are_unequal_to_other_types():
    assert E1.__eq__(5) is NotImplemented
    assert build_e1() != 5


def test_classify_empty_table_is_deterministic():
    report = classify(build_trivial_empty())
    assert report.is_deterministic


def test_classify_interior_choice_is_not_outer():
    delta = dict(E1.delta)
    delta[(P_A, "a")] = [(P_A, 1), (P_B, 1)]
    noisy = TwoWayAutomaton(E1.state_names, E1.alphabet, delta, E1.initial, E1.accepting)
    assert not classify(noisy).is_outer


def test_accepts_oracle_examples():
    assert accepts_oracle(E1, "aa")
    assert not accepts_oracle(E1, "ab")
    assert accepts_oracle(E1, "")
    assert accepts_oracle(E1, "bbb")


def test_accepts_oracle_refuses_universal_machines():
    with pytest.raises(NotApplicable):
        accepts_oracle(E2, "aa")


def test_bounded_visits_examples():
    assert reference_bounded_visits(E1, "aa", 6)
    assert reference_bounded_visits(E1, "aa", 6) == accepts_oracle(E1, "aa")
    assert not reference_bounded_visits(E1, "ab", 6)
    assert not reference_bounded_visits(E1, "aa", 0)


def test_bounded_visits_refuses_universal_machines():
    with pytest.raises(NotApplicable, match="universal states"):
        reference_bounded_visits(E2, "aa", 3)


def test_bounded_visits_matches_oracle_at_n(raw_corpus):
    for machine in raw_corpus[:60]:
        for word in all_words(machine.alphabet, 4):
            assert reference_bounded_visits(machine, word, machine.n) == \
                accepts_oracle(machine, word)


def test_segment_oracle_examples():
    assert segment_exists_oracle(E1, "aa", P_A, R_A)
    assert not segment_exists_oracle(E1, "aa", P_B, R_B)
    assert segment_exists_oracle(E1, "aa", Q_I, R_A)
    # a stationary move at the left endmarker is a one-step segment
    assert segment_exists_oracle(E1, "aa", R_A, Q_F)
    # zero-step paths are not segments
    assert not segment_exists_oracle(E1, "aa", Q_F, Q_F)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    source=st.integers(0, 4),
    target=st.integers(0, 4),
    stay=st.booleans(),
)
def test_segment_oracle_monotone_under_transition_addition(seed, source, target, stay):
    machine = random_onfa(seed, n_max=4)
    n = machine.n
    delta = {key: list(val) for key, val in machine.delta.items()}
    delta.setdefault((source % n, "<"), []).append((target % n, 0 if stay else 1))
    bigger = TwoWayAutomaton(machine.state_names, machine.alphabet, delta,
                             machine.initial, machine.accepting)
    for word in ["", "a", "ab", "ba"]:
        for p in range(n):
            for q in range(n):
                if segment_exists_oracle(machine, word, p, q):
                    assert segment_exists_oracle(bigger, word, p, q)


def test_alternating_oracle_collapses_to_plain_without_universal(raw_corpus):
    for machine in raw_corpus[:40]:
        for word in all_words(machine.alphabet, 3):
            assert alternating_accepts_oracle(machine, word) == accepts_oracle(machine, word)


def test_alternating_oracle_e2():
    assert not alternating_accepts_oracle(E2, "aa")
    assert alternating_accepts_oracle(E2, "")
    assert not alternating_accepts_oracle(E2, "ab")


def test_dead_universal_configuration_rejects():
    # universal initial state with no successors anywhere and not accepting
    machine = TwoWayAutomaton(["u", "f"], "a", {}, 0, [1], universal=[0])
    assert not alternating_accepts_oracle(machine, "a")
    # but a dead *accepting* universal configuration is a leaf
    machine2 = TwoWayAutomaton(["u"], "a", {}, 0, [0], universal=[0])
    assert alternating_accepts_oracle(machine2, "a")


def naive_and_or(succs, goals, universal):
    """Reference: re-scan every node until no node changes."""
    good = set(goals)
    changed = True
    while changed:
        changed = False
        for v, out in succs.items():
            if v in good:
                continue
            if v in universal:
                ok = bool(out) and all(u in good for u in out)
            else:
                ok = any(u in good for u in out)
            if ok:
                good.add(v)
                changed = True
    return good


def random_and_or_graph(seed):
    """Up to 8 nodes, self-loops and dead nodes included, each edge listed once."""
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    density = rng.choice((0.1, 0.25, 0.5))
    succs = {v: [u for u in range(n) if rng.random() < density] for v in range(n)}
    universal = {v for v in range(n) if rng.random() < 0.5}
    goals = {v for v in range(n) if rng.random() < 0.2}
    return succs, goals, universal


def test_and_or_reach_matches_naive_fixpoint():
    dead_universal_seeded = dead_universal_unseeded = self_loops = 0
    for seed in range(400):
        succs, goals, universal = random_and_or_graph(seed)
        calls = []

        def is_universal(v):
            calls.append(v)
            return v in universal

        good = and_or_reach(succs, goals, is_universal)
        assert good == naive_and_or(succs, goals, universal), seed
        # each edge is examined at most once: the work is linear
        assert len(calls) <= sum(len(out) for out in succs.values())
        for v, out in succs.items():
            if v in universal and not out:
                if v in goals:
                    dead_universal_seeded += 1
                else:
                    dead_universal_unseeded += 1
                    assert v not in good
            self_loops += v in out
    assert min(dead_universal_seeded, dead_universal_unseeded, self_loops) >= 10


def test_and_or_reach_small_cases():
    universal = {0}.__contains__
    # a self-loop alone never proves anything, for either kind of node
    assert and_or_reach({0: [0], 1: []}, [1], universal) == {1}
    assert and_or_reach({0: [0], 1: []}, [1], lambda v: False) == {1}
    # a universal node needs all of its successors, an existential one any
    assert and_or_reach({0: [1, 2], 1: [], 2: []}, [1], universal) == {1}
    assert and_or_reach({0: [1, 2], 1: [], 2: []}, [1, 2], universal) == {0, 1, 2}
    assert and_or_reach({0: [1, 2], 1: [], 2: []}, [1], lambda v: False) == {0, 1}
    # a successor listed twice is two edges, both needed by a universal node
    assert and_or_reach({0: [1, 1], 1: []}, [1], universal) == {0, 1}
    assert and_or_reach({0: [1, 1, 2], 1: [], 2: []}, [1], universal) == {1}
    # a dead universal node is good only when seeded as a goal
    assert and_or_reach({0: []}, [], universal) == set()
    assert and_or_reach({0: []}, [0], universal) == {0}


def test_alternating_oracle_on_long_words(monkeypatch):
    # the re-scanning fixpoint took seconds per word at this length; the
    # solver's work is bounded by the contracted graph's edge count, and
    # each counter's sweep is one edge from the start to where it ends
    periods = (3, 5, 7)
    machine = universal_twin(mod_p_sweeper(periods))
    real = core.and_or_reach
    work = []

    def counted(succs, goals, is_universal):
        calls = []
        good = real(succs, goals, lambda v: calls.append(v) or is_universal(v))
        work.append((len(calls), sum(len(out) for out in succs.values()), len(succs)))
        return good

    monkeypatch.setattr(core, "and_or_reach", counted)
    # 105 | 1050; 1005 is a multiple of 3 and 5 only; 1000 of 5 only
    for length in (1050, 1005, 1000):
        word = "a" * length
        expected = all(length % p == 0 for p in periods)
        assert alternating_accepts_oracle(machine, word) == expected
        assert oafa_decide(machine, word) == expected
    assert all(calls <= edges == len(periods) for calls, edges, _ in work)
    # the start, (qF, 0) and one dead end per period that does not divide the length
    assert [nodes for _, _, nodes in work] == [2, 3, 4]


@pytest.mark.parametrize("oracle, machine, args", [
    (accepts_oracle, E1, ()),
    (reference_bounded_visits, E1, (3,)),
    (segment_exists_oracle, E1, (Q_I, Q_F)),
    (alternating_accepts_oracle, E2, ()),
], ids=["accepts_oracle", "reference_bounded_visits", "segment_exists_oracle",
        "alternating_accepts_oracle"])
def test_oracles_reject_foreign_letters(oracle, machine, args):
    for word in ("ac", "a<", ">"):
        with pytest.raises(NotApplicable, match="not in the machine's alphabet"):
            oracle(machine, word, *args)


def test_check_word():
    assert check_word(E1, "abba") == "abba"
    assert check_word(E1, "") == ""
    with pytest.raises(NotApplicable, match="'c'"):
        check_word(E1, "abc")


def test_all_words_without_letters_is_the_empty_word():
    # one word for any length, at once: the lengths past 0 are not walked
    assert list(all_words("", 10**12)) == [""]
    assert list(all_words("", -1)) == []
    assert list(all_words("ab", 2)) == ["", "a", "b", "aa", "ab", "ba", "bb"]
