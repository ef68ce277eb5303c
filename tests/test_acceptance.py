"""Acceptance suite: one test per criterion, each printing a pass line.

Scoping: the raw corpus is the seeded family of 220 outer-choice machines
(n <= 5, two letters).  Suites that operate on normal-form machines run on
the seeded normal-form family (n <= 5) plus normalized raw machines and
the hand-built machines of `reference.py`; the alternating suite runs on
the seeded relaxed normal-form family (n <= 4).  Every check is exact; run
with -s to see the pass lines.
"""

import math
import time

from outerfa import (
    accepts_oracle,
    all_words,
    alternating_accepts_oracle,
    build_controller,
    build_segment_graph,
    check_normal_form,
    classify,
    complement_decide,
    decide_det,
    dfa_state_bound,
    gap_decide,
    materialize_dfa,
    normalize_onfa,
    oafa_decide,
    parse,
    reach,
    segment_exists_oracle,
    segment_graph_to_dot,
    serialize,
    svfa_decide,
    ReachableStats,
)
from outerfa.cli import main as cli_main

from conftest import assert_dot_wellformed, random_nf_oafa, random_nf_onfa, random_oafa, random_onfa
from reference import (
    build_e1,
    build_e2,
    build_ea,
    build_trivial_all,
    build_trivial_empty,
    reference_bounded_visits,
)


def _passline(number: int, detail: str) -> None:
    print(f"ACCEPTANCE {number}: PASS ({detail})")


def test_criterion_1_normal_form_suite(raw_corpus):
    started = time.perf_counter()
    assert len(raw_corpus) >= 200
    for machine in raw_corpus:
        out = normalize_onfa(machine)
        assert out.n <= 3 * machine.n
        report = check_normal_form(out)
        assert report.property1 and report.property2
        assert report.property3 and report.property4
        for word in all_words(machine.alphabet, 6):
            assert accepts_oracle(out, word) == accepts_oracle(machine, word)
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    _passline(1, f"{len(raw_corpus)} machines, words to length 6, {elapsed:.1f}s")


def test_criterion_2_reach_suite(raw_corpus, nf_corpus):
    started = time.perf_counter()
    normalized = [normalize_onfa(machine) for machine in raw_corpus]
    sweep_machines = list(nf_corpus) + [normalize_onfa(build_e1())]
    for machine in sweep_machines + normalized:
        assert build_controller(machine).state_count == 4 * machine.n - 3

    checked = 0
    # a clean sweep is also the halting proof: the runner raises once a run
    # passes the (4n - 3) * (|w| + 2) step bound
    for machine in sweep_machines:
        n = machine.n
        for word in all_words(machine.alphabet, 5):
            oracle = [
                [segment_exists_oracle(machine, word, p, q) for q in range(n)]
                for p in range(n)
            ]
            for p in range(n):
                for q in range(n):
                    expected = p == q or oracle[p][q]
                    assert reach(machine, word, p, q) == expected
                    checked += 1
    for machine in normalized[:40]:
        n = machine.n
        for word in all_words(machine.alphabet, 4):
            for p in range(n):
                for q in range(n):
                    expected = p == q or segment_exists_oracle(machine, word, p, q)
                    assert reach(machine, word, p, q) == expected
                    checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    _passline(2, f"counts on {len(sweep_machines) + len(normalized)} machines, "
                 f"{checked} reach calls vs oracle, {elapsed:.1f}s")


def test_criterion_3_visit_bound_suite(raw_corpus):
    pairs = 0
    for machine in raw_corpus:
        for word in all_words(machine.alphabet, 5):
            assert reference_bounded_visits(machine, word, machine.n) == \
                accepts_oracle(machine, word)
            pairs += 1
    for machine in raw_corpus[:60]:
        for word in all_words(machine.alphabet, 6):
            assert reference_bounded_visits(machine, word, machine.n) == \
                accepts_oracle(machine, word)
    _passline(3, f"{pairs} machine/word pairs at the n-visit bound")


def test_criterion_4_svfa_suite(nf_corpus):
    started = time.perf_counter()
    machines = list(nf_corpus) + [build_e1(), build_trivial_empty(), build_trivial_all()]
    branches = 0
    for machine in machines:
        for word in all_words(machine.alphabet, 5):
            expected = accepts_oracle(machine, word)
            report = svfa_decide(machine, word)
            assert report.verdict_exists_yes == expected
            assert report.verdict_exists_no == (not expected)
            assert not (report.verdict_exists_yes and report.verdict_exists_no)
            assert report.all_halting
            branches += report.branches_explored
            assert complement_decide(machine, word) == (not expected)
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    _passline(4, f"{len(machines)} machines, words to length 5, "
                 f"{branches} halting branches, {elapsed:.1f}s")


def test_criterion_5_divide_and_conquer_suite(nf_corpus):
    for machine in nf_corpus:
        limit = math.ceil(math.log2(machine.n - 1)) if machine.n > 2 else 0
        for word in all_words(machine.alphabet, 6):
            stats = ReachableStats()
            assert decide_det(machine, word, stats=stats) == accepts_oracle(machine, word)
            assert stats.max_stack_height <= limit

    assert dfa_state_bound(5).stack_configurations_bound == 2000
    assert dfa_state_bound(2).stack_configurations_bound == 8

    ea = build_ea()
    emitted = materialize_dfa(ea)
    assert emitted.n <= 1024
    assert classify(emitted).is_deterministic
    for word in all_words("a", 6):
        assert accepts_oracle(emitted, word) == accepts_oracle(ea, word)
    _passline(5, f"{len(nf_corpus)} machines to length 6, bounds 2000/8, "
                 f"emitted machine has {emitted.n} states")


def test_criterion_6_graph_reduction_suite(nf_corpus, alt_nf_corpus):
    edges_checked = 0
    for machine in nf_corpus:
        n = machine.n
        for word in all_words(machine.alphabet, 5):
            graph = build_segment_graph(machine, word)
            expected = {
                (p, q)
                for p in range(n)
                for q in range(n)
                if p != q and segment_exists_oracle(machine, word, p, q)
            }
            assert graph.edges == frozenset(expected)
            edges_checked += len(expected)
            assert gap_decide(graph) == accepts_oracle(machine, word)

    alt_machines = list(alt_nf_corpus) + [build_e2()]
    for machine in alt_machines:
        for word in all_words(machine.alphabet, 4):
            assert oafa_decide(machine, word) == alternating_accepts_oracle(machine, word)

    for machine in list(nf_corpus[:5]) + list(alt_nf_corpus[:5]):
        for word in ("", "ab", "ba"):
            assert_dot_wellformed(segment_graph_to_dot(build_segment_graph(machine, word)))
    _passline(6, f"{edges_checked} oracle-checked edges, "
                 f"{len(alt_machines)} alternating machines to length 4")


def test_criterion_7_format_suite(tmp_path, capsys):
    fixtures = [build_e1(), build_e2(), build_ea(), build_trivial_empty(), build_trivial_all()]
    randoms = (
        [random_onfa(seed) for seed in range(40)]
        + [random_oafa(seed) for seed in range(40, 70)]
        + [random_nf_onfa(seed) for seed in range(2000, 2020)]
        + [random_nf_oafa(seed) for seed in range(3000, 3010)]
    )
    assert len(randoms) >= 100
    for machine in fixtures + randoms:
        assert parse(serialize(machine)) == machine

    # a single redirected transition must be caught with a counterexample
    e1 = build_e1()
    delta = {key: list(val) for key, val in e1.delta.items()}
    delta[(3, "a")] = [(3, 1)]
    from outerfa import TwoWayAutomaton

    mutant = TwoWayAutomaton(e1.state_names, e1.alphabet, delta, e1.initial,
                             e1.accepting, declared_flavor="onfa")
    original = tmp_path / "orig.2wa"
    mutated = tmp_path / "mut.2wa"
    original.write_text(serialize(e1))
    mutated.write_text(serialize(mutant))
    assert cli_main(["equiv", str(original), str(mutated), "--max-len", "6"]) == 5
    out = capsys.readouterr().out
    assert "counterexample:" in out
    _passline(7, f"{len(fixtures) + len(randoms)} round trips, mutation caught: "
                 f"{out.strip().splitlines()[-1]}")


def test_criterion_8_cross_method_agreement(nf_corpus):
    from outerfa.cli import _decide

    started = time.perf_counter()
    pairs = 0
    machines = list(nf_corpus) + [build_e1(), build_trivial_empty()]
    for machine in machines:
        for word in all_words(machine.alphabet, 5):
            results = {
                method: _decide(machine, word, method, budget=10**6)[0]
                for method in ("oracle", "svfa", "divide", "gap")
            }
            assert len(set(results.values())) == 1, (machine, word, results)
            pairs += 1
    elapsed = time.perf_counter() - started
    _passline(8, f"{pairs} machine/word pairs, four methods, zero discrepancies, "
                 f"{elapsed:.1f}s")
