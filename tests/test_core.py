"""Model semantics and brute-force oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outerfa import (
    Configuration,
    MalformedAutomaton,
    NotApplicable,
    TwoWayAutomaton,
    accepts_bounded_visits,
    accepts_oracle,
    all_words,
    alternating_accepts_oracle,
    classify,
    segment_exists_oracle,
    step,
)
from outerfa.fixtures import Q_F, Q_I, P_A, P_B, R_A, R_B, build_e1, build_e2, build_trivial_empty

from conftest import random_onfa

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
    with pytest.raises(MalformedAutomaton):
        step(E1, Configuration(Q_I, 9), "aa")


def test_validation_rejects_moves_off_the_tape():
    with pytest.raises(MalformedAutomaton):
        TwoWayAutomaton(["q"], "a", {(0, "<"): [(0, -1)]}, 0, [0])
    with pytest.raises(MalformedAutomaton):
        TwoWayAutomaton(["q"], "a", {(0, ">"): [(0, +1)]}, 0, [0])


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
    assert accepts_bounded_visits(E1, "aa", 6)
    assert accepts_bounded_visits(E1, "aa", 6) == accepts_oracle(E1, "aa")
    assert not accepts_bounded_visits(E1, "ab", 6)
    assert not accepts_bounded_visits(E1, "aa", 0)


def test_bounded_visits_matches_oracle_at_n(raw_corpus):
    for machine in raw_corpus[:60]:
        for word in all_words(machine.alphabet, 4):
            assert accepts_bounded_visits(machine, word, machine.n) == \
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
