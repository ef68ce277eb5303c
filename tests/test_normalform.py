"""Normal-form conversion: state budget, structure, language preservation."""

import hashlib

import pytest

from outerfa import (
    LEFT,
    LEFT_ENDMARKER,
    RIGHT,
    RIGHT_ENDMARKER,
    STAY,
    InvariantViolation,
    NotApplicable,
    NotNormalForm,
    NotOuter,
    TwoWayAutomaton,
    accepts_oracle,
    all_words,
    alternating_accepts_oracle,
    check_normal_form,
    classify,
    decide_det,
    materialize_dfa,
    normalize_oafa,
    normalize_onfa,
    require_normal_form,
    serialize,
    svfa_run,
)

from conftest import random_oafa, random_onfa
from reference import P_A, Q_F, Q_I, build_e1, build_e2

E1 = build_e1()
E2 = build_e2()


def languages_equal(a, b, max_len, oracle=accepts_oracle):
    return all(oracle(a, w) == oracle(b, w) for w in all_words(a.alphabet, max_len))


def test_normal_form_checks_the_3n_budget(monkeypatch):
    """The 3n bound is checked on the built machine, not assumed to hold."""
    # qI guesses at the left endmarker and turns at the right one: it needs a
    # back and a forward copy, the final qF a back copy, so 2 + 2 + 1 + qAcc = 3n
    tight = TwoWayAutomaton(["qI", "qF"], "a", {
        (0, LEFT_ENDMARKER): [(0, RIGHT), (1, RIGHT)],
        (0, "a"): [(0, RIGHT)],
        (0, RIGHT_ENDMARKER): [(0, LEFT)],
    }, 0, [1])
    assert normalize_onfa(tight).n == 6

    class OneStateTooMany(TwoWayAutomaton):
        def __init__(self, state_names, *args, **kwargs):
            super().__init__([*state_names, "extra"], *args, **kwargs)

    monkeypatch.setattr("outerfa.normalform.TwoWayAutomaton", OneStateTooMany)
    with pytest.raises(InvariantViolation, match="7 states, above the 3n budget 6"):
        normalize_onfa(tight)


def test_empty_accepting_set_collapses_to_two_states():
    machine = TwoWayAutomaton(["x", "y", "z"], "ab", {(0, "<"): [(1, 1)]}, 0, [])
    out = normalize_onfa(machine)
    assert out.n == 2
    assert not out.delta
    assert not any(accepts_oracle(out, w) for w in all_words("ab", 4))


def test_e1_stays_equivalent_and_in_form():
    out = normalize_onfa(E1)
    assert out.n <= 3 * E1.n
    assert check_normal_form(out).all_properties
    assert languages_equal(E1, out, 6)
    # the conversion can be applied again without losing the language
    again = normalize_onfa(out)
    assert again.n <= 3 * out.n
    assert languages_equal(out, again, 5)


def test_right_endmarker_choice_gets_rerouted():
    # four states, a branching decision at the right endmarker
    delta = {
        (0, "<"): [(1, 1)],
        (1, "a"): [(1, 1)],
        (1, ">"): [(2, -1), (3, -1)],
        (2, "a"): [(2, -1)],
        (2, "<"): [(3, 0)],
    }
    machine = TwoWayAutomaton(["s", "w", "b", "f"], "a", delta, 0, [3],
                              declared_flavor="onfa")
    out = normalize_onfa(machine)
    assert out.n <= 12
    assert check_normal_form(out).all_properties
    assert languages_equal(machine, out, 6)


def test_initial_state_accepting_collapses_to_accept_all():
    machine = TwoWayAutomaton(["i", "x"], "ab", {(0, "a"): [(1, 1)]}, 0, [0])
    out = normalize_onfa(machine)
    assert check_normal_form(out).all_properties
    assert all(accepts_oracle(out, w) for w in all_words("ab", 4))


def test_stationary_cycle_entry_becomes_undefined():
    # the a-row spins in place forever: dropping it preserves the language
    delta = {
        (0, "<"): [(1, 1)],
        (1, "a"): [(1, 0)],
        (1, ">"): [(2, -1)],
        (2, "<"): [(2, 0)],
    }
    machine = TwoWayAutomaton(["i", "m", "f"], "a", delta, 0, [2], declared_flavor="onfa")
    out = normalize_onfa(machine)
    assert check_normal_form(out).all_properties
    assert languages_equal(machine, out, 5)


def test_normalize_rejects_interior_choice():
    delta = {(0, "a"): [(0, 1), (1, 1)]}
    machine = TwoWayAutomaton(["p", "q"], "a", delta, 0, [1])
    with pytest.raises(NotOuter):
        normalize_onfa(machine)


def test_normalize_onfa_rejects_universal_states():
    with pytest.raises(NotApplicable):
        normalize_onfa(E2)


def test_check_normal_form_examples():
    report = check_normal_form(E1)
    assert report.all_properties
    assert report.bound_3n == 18
    # a stationary interior move breaks property 4
    delta = dict(E1.delta)
    delta[(P_A, "a")] = [(P_A, 0)]
    bent = TwoWayAutomaton(E1.state_names, E1.alphabet, delta, E1.initial, E1.accepting)
    assert not check_normal_form(bent).property4


def test_corpus_normalization(raw_corpus):
    for machine in raw_corpus[:40]:
        out = normalize_onfa(machine)
        assert out.n <= 3 * machine.n
        assert check_normal_form(out).all_properties
        assert languages_equal(machine, out, 5)


def test_normal_forms_are_pinned():
    """The construction fixes every normal form; sizes and text must not drift."""
    digest = hashlib.sha256()
    total = 0
    for seed in range(400):
        raw, alt = random_onfa(seed), random_oafa(seed)
        for out in (normalize_onfa(raw), normalize_oafa(raw), normalize_oafa(alt)):
            total += out.n
            digest.update(serialize(out).encode("utf-8"))
    assert total == 7207
    assert digest.hexdigest() == "08de6b412de9eb1cb9577ce1da186cd0aa4f4633f0979b39a952519dc976216f"


def test_oafa_normalization_e2():
    out = normalize_oafa(E2)
    assert out.n <= 18
    assert check_normal_form(out, alternating=True).all_properties
    assert languages_equal(E2, out, 5, oracle=alternating_accepts_oracle)


def test_oafa_empty_accepting_collapses():
    machine = TwoWayAutomaton(["x", "y"], "ab", {(0, "<"): [(1, 1)]}, 0, [],
                              universal=[0])
    out = normalize_oafa(machine)
    assert out.n == 2 and not out.delta


def test_oafa_normalization_agrees_with_plain_on_unpartitioned_input(raw_corpus):
    for machine in raw_corpus[:15]:
        plain = normalize_onfa(machine)
        alt = normalize_oafa(machine)
        assert all(
            accepts_oracle(plain, w) == alternating_accepts_oracle(alt, w)
            for w in all_words(machine.alphabet, 5)
        )


def test_oafa_corpus_normalization(raw_alt_corpus):
    for machine in raw_alt_corpus:
        out = normalize_oafa(machine)
        assert out.n <= 3 * machine.n
        assert check_normal_form(out, alternating=True).all_properties
        assert languages_equal(machine, out, 4, oracle=alternating_accepts_oracle)


def test_universal_choice_at_right_endmarker_keeps_quantifier(raw_alt_corpus):
    # a universal state branching at the right endmarker must still demand
    # both branches after the choice is rerouted to the left endmarker
    delta = {
        (0, "<"): [(1, 1)],
        (1, "a"): [(1, 1)],
        (1, ">"): [(2, -1), (3, -1)],
        (2, "a"): [(2, -1)],
        (2, "<"): [(4, 0)],
        (3, "a"): [(3, -1)],
    }
    machine = TwoWayAutomaton(["i", "u", "good", "bad", "f"], "a", delta, 0, [4],
                              universal=[1], declared_flavor="oafa")
    out = normalize_oafa(machine)
    assert check_normal_form(out, alternating=True).all_properties
    assert languages_equal(machine, out, 5, oracle=alternating_accepts_oracle)
    # sanity: the bad branch really kills every nonempty word
    assert not any(alternating_accepts_oracle(machine, w) for w in all_words("a", 4))


def e1_variant(changes=(), universal=()):
    """E1 with some rows replaced and some states made universal."""
    delta = dict(E1.delta)
    delta.update(changes)
    return TwoWayAutomaton(E1.state_names, E1.alphabet, delta, E1.initial, E1.accepting,
                           universal=universal)


OUTSIDE_STRICT_FORM = {
    "stationary_on_letter": e1_variant({(P_A, "a"): [(P_A, STAY)]}),
    # the relaxed form allows this stationary move, the strict form does not
    "stationary_into_non_final": e1_variant({(Q_I, LEFT_ENDMARKER): [(P_A, STAY)]}),
    "universal_states": e1_variant(universal=[Q_I]),
}


def test_require_normal_form():
    # the gate returns the unique accepting state
    assert require_normal_form(E1, alternating=False) == Q_F
    assert require_normal_form(E1, alternating=True) == Q_F
    assert require_normal_form(E2, alternating=True) == Q_F
    relaxed_only = OUTSIDE_STRICT_FORM["stationary_into_non_final"]
    assert require_normal_form(relaxed_only, alternating=True) == Q_F
    for machine in OUTSIDE_STRICT_FORM.values():
        with pytest.raises(NotNormalForm):
            require_normal_form(machine, alternating=False)
    with pytest.raises(NotNormalForm, match="relaxed normal form"):
        require_normal_form(OUTSIDE_STRICT_FORM["stationary_on_letter"], alternating=True)


@pytest.mark.parametrize("machine", OUTSIDE_STRICT_FORM.values(), ids=OUTSIDE_STRICT_FORM.keys())
@pytest.mark.parametrize("call", [
    lambda m: decide_det(m, "ab"),
    lambda m: materialize_dfa(m),
    lambda m: svfa_run(m, "ab", [0]),
], ids=["decide_det", "materialize_dfa", "svfa_run"])
def test_strict_simulations_reject_other_machines(machine, call):
    with pytest.raises(NotNormalForm):
        call(machine)
