"""Divide-and-conquer simulation, size formulas, materialization."""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outerfa import (
    NotApplicable,
    ReachableStats,
    TooLarge,
    accepts_oracle,
    all_words,
    classify,
    decide_det,
    dfa_state_bound,
    materialize_dfa,
    reachable,
    segment_exists_oracle,
    serialize,
)
from outerfa.fixtures import P_B, Q_F, Q_I, build_e1, build_ea, build_trivial_empty

from conftest import random_nf_onfa

E1 = build_e1()
EA = build_ea()


def chain_reachable(machine, word, q, p, t):
    """Oracle: membership in the <=t-step closure of the segment relation."""
    n = machine.n
    seg = [[segment_exists_oracle(machine, word, a, b) for b in range(n)] for a in range(n)]
    frontier = {q}
    for _ in range(t):
        frontier |= {b for a in frontier for b in range(n) if seg[a][b]}
    return p in frontier


def test_reachable_base_cases():
    assert reachable(E1, "aa", P_B, P_B, 1)  # equal endpoints, no segment needed
    assert reachable(E1, "aa", Q_I, Q_F, 2)
    assert not reachable(E1, "ab", Q_I, Q_F, 5)
    with pytest.raises(ValueError):
        reachable(E1, "aa", Q_I, Q_F, 0)


def test_reachable_matches_chain_oracle(nf_corpus):
    for machine in nf_corpus[:10]:
        for word in all_words(machine.alphabet, 3):
            for t in (1, 2, 3, machine.n - 1) if machine.n > 2 else (1,):
                for q in range(machine.n):
                    for p in range(machine.n):
                        assert reachable(machine, word, q, p, t) == \
                            chain_reachable(machine, word, q, p, t)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(2000, 2100), t=st.integers(1, 4))
def test_reachable_monotone_in_budget(seed, t):
    machine = random_nf_onfa(seed)
    for word in ("", "a", "ab"):
        for q in range(machine.n):
            for p in range(machine.n):
                if reachable(machine, word, q, p, t):
                    assert reachable(machine, word, q, p, t + 1)
                    assert reachable(machine, word, q, p, t + 3)


def test_decide_det_examples():
    assert decide_det(E1, "aa")
    assert not decide_det(E1, "ba")
    assert decide_det(E1, "")


def test_decide_det_matches_oracle(nf_corpus):
    for machine in nf_corpus:
        for word in all_words(machine.alphabet, 4):
            assert decide_det(machine, word) == accepts_oracle(machine, word)


def test_stack_height_stays_logarithmic(nf_corpus):
    for machine in list(nf_corpus[:10]) + [build_ea(), build_trivial_empty()]:
        limit = math.ceil(math.log2(machine.n - 1)) if machine.n > 2 else 0
        for word in all_words(machine.alphabet, 3):
            stats = ReachableStats()
            decide_det(machine, word, stats=stats)
            assert stats.max_stack_height <= limit


def test_bound_formulas():
    assert dfa_state_bound(5, True).stack_configurations_bound == 2000
    assert dfa_state_bound(2, True).stack_configurations_bound == 8
    assert dfa_state_bound(5, False).rough_bound == 45562500
    report = dfa_state_bound(5, False)
    # the excess exponent is self-consistent: rough = n ** (log2 n + c)
    rebuilt = 5 ** (math.log2(5) + report.c_exponent)
    assert math.isclose(rebuilt, report.rough_bound, rel_tol=1e-9)


def test_materialize_ea():
    machine = materialize_dfa(EA)
    assert machine.n <= 4 * 4 * 8 ** math.ceil(math.log2(3))
    assert classify(machine).is_deterministic
    for word in all_words("a", 6):
        assert accepts_oracle(machine, word) == accepts_oracle(EA, word)


def test_materialize_trivial():
    machine = materialize_dfa(build_trivial_empty())
    assert machine.n <= 8
    assert classify(machine).is_deterministic
    assert not any(accepts_oracle(machine, w) for w in all_words("ab", 4))


def test_materialize_corpus_machines(nf_corpus):
    for machine in nf_corpus[:6]:
        emitted = materialize_dfa(machine)
        height = math.ceil(math.log2(machine.n - 1)) if machine.n > 2 else 0
        assert emitted.n <= 4 * machine.n * (2 * machine.n) ** height
        assert classify(emitted).is_deterministic
        for word in all_words(machine.alphabet, 4):
            assert accepts_oracle(emitted, word) == accepts_oracle(machine, word)


def test_materialized_machines_are_pinned():
    """The construction fixes every emitted machine; sizes and text must not drift."""
    digest = hashlib.sha256()
    total = 0
    for seed in range(400):
        emitted = materialize_dfa(random_nf_onfa(seed))
        total += emitted.n
        digest.update(serialize(emitted).encode("utf-8"))
    assert total == 30294
    assert digest.hexdigest() == "db728d156769aa467e7fa226643060786ccd22c8bd973d66af296e5f7f5b5fb9"


def test_materialize_respects_ceiling():
    with pytest.raises(TooLarge):
        materialize_dfa(build_ea(), max_states=10)


def test_materialize_guards_size():
    from outerfa import normalize_onfa

    blown = normalize_onfa(build_e1())  # 12 states, above the guard
    with pytest.raises(ValueError):
        materialize_dfa(blown)


def test_foreign_letters_raise():
    with pytest.raises(NotApplicable, match="not in the machine's alphabet"):
        decide_det(E1, "ac")
    with pytest.raises(NotApplicable, match="not in the machine's alphabet"):
        reachable(E1, "ca", Q_I, Q_F, 2)
