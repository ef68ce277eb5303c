"""Divide-and-conquer simulation, size formulas, materialization."""

import dataclasses
import hashlib
import math
import random

import pytest

from outerfa import (
    BudgetExceeded,
    InvariantViolation,
    NotApplicable,
    ReachableStats,
    accepts_oracle,
    all_words,
    classify,
    decide_det,
    dfa_state_bound,
    materialize_dfa,
    normalize_onfa,
    parse,
    serialize,
)
from outerfa.detsim import _base_rows, _ceil_log2, _divide, _stack_height
from outerfa.reach import machine_index, return_table

from conftest import INITIAL_ACCEPTING, chain_sweeper, mod_p_sweeper, port_ring, random_nf_onfa
from reference import build_e1, build_ea, build_trivial_empty, reference_segment_ends

E1 = build_e1()
EA = build_ea()


def word_rows(machine, word):
    """`decide_det`'s base rows on one word, over the machine's ports."""
    index = machine_index(machine)
    return _base_rows(index.ports, index.port_of, return_table(machine, word))


def chain_reachable(ends, q, p, t):
    """Oracle: membership in the <=t-step closure of the segment relation.

    `ends[a]` is the set of every end of a segment from a on the word.
    """
    frontier = {q}
    for _ in range(t):
        frontier |= {b for a in frontier for b in ends[a]}
    return p in frontier


def reference_divide(stack, height, n, leaf, answer=None, stats=None):
    """The stack machine with a per-question leaf callback, one midpoint at a time.

    Reference for `_divide`: the same frames and phases, with every base case
    asked of `leaf` (None suspends) as the sequential midpoint scan reaches it.
    """
    while True:
        frame = stack[-1]
        if answer is None:
            q, p, r, phase = frame
            if phase == 1:
                p = r
            else:
                q = r
            if len(stack) > height:
                answer = leaf(q, p)
                if answer is None:
                    return None
            else:
                stack.append([q, p, 0, 1])
                if stats is not None:
                    stats.max_stack_height = max(stats.max_stack_height, len(stack) - 1)
        elif len(stack) == 1:
            return answer
        elif answer and frame[3] == 2:
            stack.pop()
        elif answer:
            frame[3] = 2
            answer = None
        elif frame[2] + 1 < n:
            frame[2] += 1
            frame[3] = 1
            answer = None
        else:
            stack.pop()


def counted_leaf(cells, stats):
    """A leaf callback over a table of answers that counts its calls in `stats`."""
    def leaf(a, b):
        stats.base_calls += 1
        return cells[a][b]
    return leaf


def cell_rows(cells):
    """`_divide`'s bit rows of an n x n table of answers, None where the tape is needed.

    Unlike `_base_rows`, it can leave a diagonal base case false or open.
    """
    n = len(cells)
    true_rows, open_rows, true_cols, open_cols = ([0] * n for _ in range(4))
    for a, row in enumerate(cells):
        for b, cell in enumerate(row):
            if cell is None:
                open_rows[a] |= 1 << b
                open_cols[b] |= 1 << a
            elif cell:
                true_rows[a] |= 1 << b
                true_cols[b] |= 1 << a
    return true_rows, open_rows, true_cols, open_cols


def test_divide_matches_the_callback_machine_on_segments():
    """Bit rows settle each bottom frame as the midpoint scan does: same verdicts and counters."""
    for seed in range(24):
        machine = random_nf_onfa(seed, n_max=9)
        ports = machine_index(machine).ports
        k = len(ports)
        heights = {_ceil_log2(t) for t in range(1, machine.n)}
        for word in all_words(machine.alphabet, 2):
            table = return_table(machine, word)
            rows = word_rows(machine, word)
            cells = [[a == b or b in table[a] for b in ports] for a in ports]
            for height in heights:
                for q in range(k):
                    for p in range(k):
                        want, got = ReachableStats(), ReachableStats()
                        verdict = reference_divide([[q, p, q, 2]], height, k,
                                                   counted_leaf(cells, want), stats=want)
                        assert _divide([[q, p, q, 2]], height, rows, stats=got) == verdict
                        assert got == want, (seed, word, height, q, p)


@pytest.mark.parametrize("seed", range(40))
def test_divide_suspends_and_resumes_like_the_callback_machine(seed):
    """Open bits suspend at the stacks the midpoint scan suspends at, and resumption agrees.

    Each seed's cells run at every height from 0 to 4: a height-0 root
    suspends at its one base case, a height-1 root scans as a next-to-bottom
    frame, and heights 2 to 4 suspend inside the halvings' inline scans too.
    """
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    cells = [[rng.choice((True, False, None)) for _ in range(n)] for _ in range(n)]
    rows = cell_rows(cells)
    q, p = rng.randrange(n), rng.randrange(n)
    for height in range(5):
        want, got = ReachableStats(), ReachableStats()
        leaf = counted_leaf(cells, want)
        expected, actual = [[q, p, q, 2]], [[q, p, q, 2]]
        answer = None
        for _ in range(10**4):
            verdict = reference_divide(expected, height, n, leaf, answer, stats=want)
            assert _divide(actual, height, rows, answer, stats=got) == verdict
            assert actual == expected, height
            assert got == want, height
            if verdict is not None:
                break
            answer = rng.random() < 0.5
        else:
            pytest.fail(f"the stack machine did not reach a verdict at height {height}")


def test_divide_counters_are_pinned(nf_corpus):
    """The paper's cost measures for divide: base calls and stack height must not be redefined."""
    calls, heights = [], []
    for machine in nf_corpus:
        for word in all_words(machine.alphabet, 4):
            stats = ReachableStats()
            decide_det(machine, word, stats=stats)
            calls.append(stats.base_calls)
            heights.append(stats.max_stack_height)
    assert len(calls) == 1860
    assert (sum(calls), max(calls)) == (27512, 38)
    assert (sum(heights), max(heights)) == (3007, 2)


@pytest.mark.parametrize("periods, calls, height", [
    ((2, 3, 5), 32, 2),
    ((3, 5, 7), 32, 2),
], ids=["mod_2_3_5", "mod_3_5_7"])
def test_rejected_sweepers_are_pinned(periods, calls, height):
    """Rejections: a^31 fits no period, so every midpoint of every frame is scanned.

    Each sweeper has 5 ports, its initial, accepting and three return
    states, whatever its 15 or 20 states, so the stack is 2 halvings high.
    """
    stats = ReachableStats()
    assert not decide_det(mod_p_sweeper(periods), "a" * 31, stats=stats)
    assert (stats.base_calls, stats.max_stack_height) == (calls, height)


def test_divide_budget_counts_base_cases():
    """The budget bounds base cases, checked as frames settle; the default refuses 28 ports."""
    machine = port_ring(14)
    assert not decide_det(machine, "a" * 31, budget=54_902)
    with pytest.raises(BudgetExceeded):
        decide_det(machine, "a" * 31, budget=54_901)
    stats = ReachableStats()
    with pytest.raises(BudgetExceeded, match="budget of base cases"):
        decide_det(port_ring(28), "a" * 31, stats=stats)  # 22 378 415 to finish
    assert 10**7 < stats.base_calls < 10**7 + 10**4
    with pytest.raises(ValueError, match="at least 0"):
        decide_det(machine, "a", budget=-1)


def test_reachable_matches_chain_oracle(nf_corpus):
    """At height e the stack machine answers whether at most 2^e segments join its root's ends.

    Its rows range over the ports alone, which holds every state a chain
    stands on at `<`: each segment starts with a choice there.
    """
    cases = [(machine, 3) for machine in nf_corpus[:10]]
    # machines with up to 9 states, whose stacks grow to height 3, on shorter words
    cases += [(random_nf_onfa(seed, n_max=9), 2) for seed in (7, 9, 11, 83)]
    for machine, max_len in cases:
        ports = machine_index(machine).ports
        for word in all_words(machine.alphabet, max_len):
            rows = word_rows(machine, word)
            ends = [reference_segment_ends(machine, word, a) for a in range(machine.n)]
            for e in range(_stack_height(machine.n) + 1):
                for q, a in enumerate(ports):
                    for p, b in enumerate(ports):
                        assert _divide([[q, p, q, 2]], e, rows) == \
                            chain_reachable(ends, a, b, 2**e), (machine, word, e, a, b)


def test_decide_det_examples():
    assert decide_det(E1, "aa")
    assert not decide_det(E1, "ba")
    assert decide_det(E1, "")


def test_decide_det_matches_oracle(nf_corpus):
    for machine in nf_corpus:
        for word in all_words(machine.alphabet, 4):
            assert decide_det(machine, word) == accepts_oracle(machine, word)


def test_stack_height_stays_logarithmic(nf_corpus):
    """The stack of halvings stays within ceil(log2(k - 1)) for the machine's k ports."""
    sweepers = [chain_sweeper(3), mod_p_sweeper((2, 3, 5))]
    for machine in list(nf_corpus[:10]) + [build_ea(), build_trivial_empty()] + sweepers:
        k = len(machine_index(machine).ports)
        limit = math.ceil(math.log2(k - 1)) if k > 2 else 0
        assert _stack_height(k) == limit
        for word in all_words(machine.alphabet, 3):
            stats = ReachableStats()
            decide_det(machine, word, stats=stats)
            assert stats.max_stack_height <= limit


def test_bound_formulas():
    assert dfa_state_bound(5).stack_configurations_bound == 2000
    assert not dfa_state_bound(2).degenerate
    assert dfa_state_bound(1).degenerate
    with pytest.raises(ValueError):
        dfa_state_bound(0)
    assert dfa_state_bound(2).stack_configurations_bound == 8
    report = dfa_state_bound(5)
    assert report.rough_bound == 45562500
    # the excess exponent is self-consistent: rough = n ** (log2 n + c)
    rebuilt = 5 ** (math.log2(5) + report.c_exponent)
    assert math.isclose(rebuilt, report.rough_bound, rel_tol=1e-9)
    # over k ports, 4n * (2k) ** ceil(log2(k - 1)); with k = n it is the bound above
    assert report.k is None and report.port_stack_configurations_bound is None
    assert dfa_state_bound(5, 5).port_stack_configurations_bound == 2000
    assert dfa_state_bound(12, 9).port_stack_configurations_bound == 4 * 12 * 18**3
    assert dfa_state_bound(17, 2).port_stack_configurations_bound == 4 * 17
    for k in (0, 6):
        with pytest.raises(ValueError, match="k must be"):
            dfa_state_bound(5, k)


def test_an_initial_state_without_a_choice_rejects_at_once():
    """An initial state with no choice at `<` that is not accepting starts no chain.

    Every word is rejected, and the emitted machine settles the root at the
    start, with no tape: its initial state is `rej`, and it mints no other
    state.
    """
    machine = parse("type: onfa\nalphabet: a b\nstates: qI q qF\ninitial: qI\naccepting: qF\n"
                    "trans: q < qF S\ntrans: q a q R\ntrans: qI a qI R\n")
    for word in all_words(machine.alphabet, 4):
        assert not accepts_oracle(machine, word)
        assert not decide_det(machine, word)
    emitted = materialize_dfa(machine)
    assert (emitted.initial, emitted.state_names) == (1, ["acc", "rej"])
    assert not any(accepts_oracle(emitted, word) for word in all_words(machine.alphabet, 4))


def test_emitted_base_cases_agree_with_the_segment_oracle(nf_corpus, monkeypatch):
    """The base cases `materialize_dfa` settles without the tape hold on every word.

    Both entries' rows range over the ports, bit b of row a standing for
    the pair (ports[a], ports[b]).  A true bit is an equal pair or a segment
    on every word, and a base case with neither bit set is a segment on no
    word; only an open bit needs the tape.  `decide_det`'s rows on each word
    lie between the two: each of the emitter's true bits is true in them,
    and each of their true bits is true or open in the emitter's.
    """
    passed = []

    def capture(stack, height, rows, *args, **kwargs):
        passed.append(rows)
        return _divide(stack, height, rows, *args, **kwargs)

    monkeypatch.setattr("outerfa.detsim._divide", capture)
    for machine in nf_corpus:
        passed.clear()
        materialize_dfa(machine)
        true_rows, open_rows = passed[0][:2]
        ports = machine_index(machine).ports
        assert len(true_rows) == len(ports)
        words = list(all_words(machine.alphabet, 4))
        ends = [[reference_segment_ends(machine, word, q) for q in ports] for word in words]
        for a, q in enumerate(ports):
            for b, p in enumerate(ports):
                segments = [p in row[a] for row in ends]
                if true_rows[a] >> b & 1:
                    assert q == p or all(segments), (machine, q, p)
                elif not open_rows[a] >> b & 1:
                    assert not any(segments), (machine, q, p)
        for word in words:
            passed.clear()
            decide_det(machine, word)
            if not passed:  # the initial state accepts at once
                continue
            word_rows = passed[0][0]
            for a in range(len(ports)):
                assert true_rows[a] & ~word_rows[a] == 0, (machine, word, a)
                assert word_rows[a] & ~(true_rows[a] | open_rows[a]) == 0, (machine, word, a)


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


def test_materialize_one_state_machine():
    """A 1-state machine accepts every word at once, and so does its materialization."""
    machine = parse(INITIAL_ACCEPTING["one_state"])
    emitted = materialize_dfa(machine)
    assert classify(emitted).is_deterministic
    assert emitted.n <= dfa_state_bound(1).stack_configurations_bound
    assert all(accepts_oracle(emitted, word) for word in all_words("a", 4))


def test_materialized_machines_are_pinned():
    """The construction fixes every emitted machine; sizes and text must not drift."""
    digest = hashlib.sha256()
    total = 0
    for seed in range(400):
        emitted = materialize_dfa(random_nf_onfa(seed))
        total += emitted.n
        digest.update(serialize(emitted).encode("utf-8"))
    assert total == 25338
    assert digest.hexdigest() == "d04b2d25bd3a6b511ca0ade82513373fb97f2505be9d8c6b359fabf30e61ede4"


def test_materialize_respects_ceiling():
    with pytest.raises(BudgetExceeded):
        materialize_dfa(build_ea(), max_states=10)


@pytest.mark.parametrize("build, states", [
    (build_e1, 1120),
    (lambda: chain_sweeper(2), 93),
    (lambda: chain_sweeper(3), 185),
    (lambda: mod_p_sweeper((2, 3)), 152),
    (lambda: normalize_onfa(build_e1()), 13_056),
    (lambda: mod_p_sweeper((3, 4, 5)), 380),
], ids=["E1", "chain_sweeper_2", "chain_sweeper_3", "mod_p_sweeper_2_3", "E1_normal_form",
        "mod_p_sweeper_3_4_5"])
def test_materialize_sources_above_five_states(build, states):
    """Only the states the worklist emits count: 6- to 17-state sources materialize.

    The halvings guess midpoints among the ports alone, so the counts stay
    within the k-form of the state bound: E1's 12-state normal form has 9
    ports, the sweepers 4 or 5.
    """
    machine = build()
    assert machine.n > 5
    emitted = materialize_dfa(machine)
    assert emitted.n == states
    assert classify(emitted).is_deterministic
    report = dfa_state_bound(machine.n, len(machine_index(machine).ports))
    assert emitted.n <= report.port_stack_configurations_bound <= report.stack_configurations_bound
    for word in all_words(machine.alphabet, 6):
        assert accepts_oracle(emitted, word) == accepts_oracle(machine, word), word


def test_materialize_stops_at_the_ceiling():
    blown = normalize_onfa(build_e1())  # 12 states; the worklist would emit 13 056
    with pytest.raises(BudgetExceeded, match="more than 1000 states"):
        materialize_dfa(blown, max_states=1000)
    # the ceiling bounds the emitted machine itself: E1's emits 1 120 states
    assert materialize_dfa(E1, max_states=1120).n == 1120
    with pytest.raises(BudgetExceeded):
        materialize_dfa(E1, max_states=1119)


def test_materialize_checks_the_state_bound(monkeypatch):
    """The emitted machine is checked against the paper's state bound and its k-form.

    Neither is assumed to hold: a report tightened to 1 in either field fails the call.
    """
    for field in ("stack_configurations_bound", "port_stack_configurations_bound"):
        def tight_bound(n, k=None, field=field):
            return dataclasses.replace(dfa_state_bound(n, k), **{field: 1})

        monkeypatch.setattr("outerfa.detsim.dfa_state_bound", tight_bound)
        with pytest.raises(InvariantViolation, match="over its bound 1"):
            materialize_dfa(EA)


def test_materialize_rejects_a_negative_ceiling():
    with pytest.raises(ValueError, match="at least 0") as info:
        materialize_dfa(EA, max_states=-1)
    assert not isinstance(info.value, BudgetExceeded)
    # acc and rej are reserved up front: a ceiling below 2 fits no machine,
    # not even one that decides without reading the tape
    one_state = parse(INITIAL_ACCEPTING["one_state"])
    for ceiling in (0, 1):
        for machine in (EA, one_state):
            with pytest.raises(BudgetExceeded, match=f"more than {ceiling} states"):
                materialize_dfa(machine, max_states=ceiling)
    assert materialize_dfa(one_state, max_states=2).state_names == ["acc", "rej"]


def test_materialize_names_its_states_in_minting_order():
    """Ids 0 and 1 are acc and rej; the worklist mints s2, s3, ... after them."""
    emitted = materialize_dfa(E1)
    assert emitted.state_names == ["acc", "rej"] + [f"s{i}" for i in range(2, emitted.n)]
    assert emitted.accepting == {0}


def test_foreign_letters_raise():
    with pytest.raises(NotApplicable, match="not in the machine's alphabet"):
        decide_det(E1, "ac")
    # the initial state is the accepting one: the alphabet check still comes first
    for text in INITIAL_ACCEPTING.values():
        with pytest.raises(NotApplicable, match="not in the machine's alphabet"):
            decide_det(parse(text), "zz")
