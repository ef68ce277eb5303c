"""Backward-search controller, guessing searches, chain checks."""

import pytest

from outerfa import (
    LEFT,
    RIGHT,
    STAY,
    TraceUnderflow,
    TwoWayAutomaton,
    Verdict,
    all_words,
    build_controller,
    n_reach,
    normalize_oafa,
    normalize_onfa,
    reach,
    return_table,
    segment_exists_oracle,
    segment_reach,
    t_reach,
)
from outerfa.normalform import NotNormalForm
from outerfa.fixtures import (
    P_A,
    P_B,
    Q_F,
    Q_I,
    R_A,
    R_B,
    build_e1,
    build_trivial_empty,
)

E1 = build_e1()


def enumerate_outcomes(func, options_of_first_call=None):
    """Exhaust every trace of a trace-driven callable; returns verdict -> traces."""
    outcomes = {}
    stack = [()]
    while stack:
        trace = stack.pop()
        try:
            result = func(trace)
        except TraceUnderflow as stop:
            stack.extend(trace + (j,) for j in range(stop.options))
            continue
        outcomes.setdefault(result, []).append(trace)
    return outcomes


def test_controller_state_counts():
    assert build_controller(E1).state_count == 4 * 6 - 3
    assert build_controller(build_trivial_empty()).state_count == 4 * 2 - 3


def test_controller_requires_normal_form():
    bent = build_e1()
    delta = dict(bent.delta)
    delta[(P_A, "a")] = [(P_A, 0)]
    import outerfa

    machine = outerfa.TwoWayAutomaton(bent.state_names, bent.alphabet, delta,
                                      bent.initial, bent.accepting)
    with pytest.raises(NotNormalForm):
        build_controller(machine)


def test_reach_wrapper_cases():
    for word in ("", "a", "ba"):
        assert reach(E1, word, P_A, P_A)  # equal endpoints
        assert reach(E1, word, R_A, Q_F)  # stationary move at the left endmarker
        assert not reach(E1, word, Q_I, Q_F)  # no such stationary move, target accepting
    assert reach(E1, "aa", P_A, R_A)
    assert not reach(E1, "aa", P_B, R_B)


def test_reach_agrees_with_segment_oracle_on_e1():
    controller = build_controller(E1)
    for word in all_words("ab", 5):
        for p in range(E1.n):
            for q in range(E1.n):
                expected = p == q or segment_exists_oracle(E1, word, p, q)
                assert reach(E1, word, p, q, controller) == expected


def test_reach_agreement_on_corpus(nf_corpus):
    for machine in nf_corpus[:12]:
        controller = build_controller(machine)
        for word in all_words(machine.alphabet, 4):
            for p in range(machine.n):
                for q in range(machine.n):
                    expected = p == q or segment_exists_oracle(machine, word, p, q)
                    assert reach(machine, word, p, q, controller) == expected


def test_n_reach_examples():
    # first candidate-bearing choice point on "aa" offers qI and pa
    assert n_reach(E1, "aa", R_A, [0, 1]) == Q_I
    assert n_reach(E1, "aa", R_A, [0, 2]) == P_A
    # demanding a candidate where none exists aborts
    assert n_reach(E1, "aa", R_A, [5]) is Verdict.DONT_KNOW
    # no segment ever enters rb on "aa"
    outcomes = enumerate_outcomes(lambda tr: n_reach(E1, "aa", R_B, tr))
    assert set(outcomes) == {Verdict.DONT_KNOW}
    # an empty backward tree aborts without consuming the trace:
    # nothing moves left into pa, so (pa, 0) has no predecessors on "b"
    assert n_reach(E1, "b", P_A, []) is Verdict.DONT_KNOW


def test_n_reach_trace_underflow():
    with pytest.raises(TraceUnderflow):
        n_reach(E1, "aa", R_A, [0])


def test_n_reach_outcomes_match_segment_oracle(nf_corpus):
    for machine in list(nf_corpus[:10]) + [E1]:
        controller = build_controller(machine)
        for word in all_words(machine.alphabet, 3):
            for q_to in range(machine.n):
                if q_to == controller.final_state:
                    continue
                outcomes = enumerate_outcomes(
                    lambda tr: n_reach(machine, word, q_to, tr, controller))
                emitted = {v for v in outcomes if isinstance(v, int)}
                expected = {
                    p for p in range(machine.n)
                    if segment_exists_oracle(machine, word, p, q_to)
                }
                assert emitted == expected


def test_t_reach_examples():
    assert t_reach(E1, "aa", R_A, 1, [0, 1]) is True
    assert t_reach(E1, "aa", Q_I, 0, []) is True
    assert t_reach(E1, "aa", P_B, 0, []) is False
    outcomes = enumerate_outcomes(lambda tr: t_reach(E1, "aa", R_B, 1, tr))
    assert set(outcomes) == {Verdict.DONT_KNOW}


def test_t_reach_matches_chain_oracle(nf_corpus):
    for machine in nf_corpus[:8]:
        controller = build_controller(machine)
        n = machine.n
        for word in all_words(machine.alphabet, 3):
            seg = [
                [segment_exists_oracle(machine, word, p, q) for q in range(n)]
                for p in range(n)
            ]
            chain = {machine.initial}  # states with a chain of exactly t segments
            for t in range(3):
                if t:
                    chain = {q for q in range(n) if any(seg[p][q] for p in chain)}
                for q in range(n):
                    outcomes = enumerate_outcomes(
                        lambda tr: t_reach(machine, word, q, t, tr, controller))
                    assert (True in outcomes) == (q in chain)


def test_runs_stay_within_the_step_bound(nf_corpus):
    # the runner raises AssertionError past (4n-3)(|w|+2) steps; a clean pass
    # over machines and words is the halting guarantee
    for machine in list(nf_corpus) + [normalize_onfa(E1)]:
        for word in all_words(machine.alphabet, 4):
            for p in range(machine.n):
                for q in range(machine.n):
                    reach(machine, word, p, q)


@pytest.mark.parametrize("call", [
    lambda bad: reach(E1, "aa", 0, bad),
    lambda bad: reach(E1, "aa", bad, 1),
    lambda bad: segment_reach(E1, "aa", 0, bad),
    lambda bad: segment_reach(E1, "aa", bad, 1),
    lambda bad: n_reach(E1, "aa", bad, [0, 1]),
    lambda bad: t_reach(E1, "aa", bad, 0, []),
    lambda bad: t_reach(E1, "aa", bad, 1, [0, 1]),
    lambda bad: return_table(E1, "aa").outcomes(bad),
], ids=["reach_to", "reach_from", "segment_reach_to", "segment_reach_from",
        "n_reach", "t_reach_zero", "t_reach", "return_table"])
def test_unknown_state_ids_raise(call):
    for bad in (99, E1.n, -1):
        with pytest.raises(ValueError, match="unknown state id"):
            call(bad)


def assert_table_matches(machine, words):
    """The return table's relation equals the controller's and the path oracle's."""
    controller = build_controller(machine)
    for word in words:
        table = return_table(machine, word)
        for p in range(machine.n):
            outcomes = table.outcomes(p)
            for q in range(machine.n):
                expected = segment_exists_oracle(machine, word, p, q)
                assert (q in outcomes) == expected, (machine, word, p, q)
                assert segment_reach(machine, word, p, q, controller) == expected


def test_return_table_on_normal_form_corpora(nf_corpus, alt_nf_corpus):
    for machine in list(nf_corpus) + list(alt_nf_corpus) + [E1]:
        assert_table_matches(machine, all_words(machine.alphabet, 5))


def test_return_table_on_normalized_raw_machines(raw_corpus, raw_alt_corpus):
    machines = [normalize_onfa(m) for m in raw_corpus[:15]]
    machines += [normalize_oafa(m) for m in raw_alt_corpus[:10]]
    for machine in machines:
        assert_table_matches(machine, all_words(machine.alphabet, 4))


def test_return_table_marks_loops_with_none():
    # p sweeps right, r steps back one cell and relaunches p: on a nonempty
    # word the two bounce forever at the right end and never return
    q_i, p, r, b, q_f = range(5)
    machine = TwoWayAutomaton(
        ["qI", "p", "r", "b", "qF"], "a",
        {
            (q_i, "<"): [(p, RIGHT), (b, RIGHT)],
            (p, "a"): [(p, RIGHT)],
            (p, ">"): [(r, LEFT)],
            (r, "a"): [(p, RIGHT)],
            (r, "<"): [(q_f, STAY)],
            (b, "a"): [(b, LEFT)],
            (b, "<"): [(q_f, STAY)],
        },
        q_i, [q_f],
    )
    assert return_table(machine, "").returns[p] == r
    for word in ("a", "aa", "aaa"):
        table = return_table(machine, word)
        assert table.returns[p] is None
        assert table.returns[b] == b
        assert table.outcomes(q_i) == (None, b)
    assert_table_matches(machine, all_words("a", 4))


def test_return_table_on_long_mod3_sweeper():
    # c0, c1, c2 count letters mod 3 going right; only c0 turns at the right
    # endmarker, and `back` returns to accept or to relaunch the count at c1
    q_i, c0, c1, c2, back, q_f = range(6)
    machine = TwoWayAutomaton(
        ["qI", "c0", "c1", "c2", "back", "qF"], "a",
        {
            (q_i, "<"): [(c0, RIGHT)],
            (c0, "a"): [(c1, RIGHT)],
            (c1, "a"): [(c2, RIGHT)],
            (c2, "a"): [(c0, RIGHT)],
            (c0, ">"): [(back, LEFT)],
            (back, "a"): [(back, LEFT)],
            (back, "<"): [(c1, RIGHT), (q_f, STAY)],
        },
        q_i, [q_f],
    )
    words = ["a" * k for k in (498, 499, 500)]
    for word in words:
        table = return_table(machine, word)
        assert table.returns[c0] == (back if len(word) % 3 == 0 else None)
        assert table.returns[c1] == (back if len(word) % 3 == 2 else None)
    assert_table_matches(machine, words)
