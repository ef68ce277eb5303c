"""Machines whose accepting state is not the last id.

Every corpus puts the accepting state at n - 1, while the backward-search
controller numbers the n - 1 other states by skipping it.  These tests move
it to id 0 and to a middle id and check every construction that walks the
controller against the brute-force oracles.
"""

import pytest

from outerfa import (
    TraceUnderflow,
    Verdict,
    accepts_oracle,
    all_words,
    build_controller,
    materialize_dfa,
    n_reach,
    segment_exists_oracle,
    segment_reach,
    svfa_decide,
    svfa_run,
    t_reach,
)

from conftest import accepting_at, mod_p_sweeper
from reference import build_e1


def exhaust(func):
    """Every result of a trace-driven callable over all of its traces, with its count."""
    results = {}
    stack = [()]
    while stack:
        trace = stack.pop()
        try:
            result = func(trace)
        except TraceUnderflow as stop:
            stack.extend(trace + (j,) for j in range(stop.options))
            continue
        results[result] = results.get(result, 0) + 1
    return results


@pytest.fixture(scope="module")
def moved(nf_corpus):
    """E1, a mod-p sweeper and a few corpus machines, the accepting state at 0 and mid-way."""
    sources = [build_e1(), mod_p_sweeper((2, 3))] + [nf_corpus[i] for i in (0, 3, 7, 11)]
    machines = []
    for machine in sources:
        for position in (0, machine.n // 2):
            moved = accepting_at(machine, position)
            assert moved.accepting == {position}
            machines.append(moved)
    return machines


def test_segment_reach_matches_the_oracle(moved):
    for machine in moved:
        assert build_controller(machine).final_state != machine.n - 1
        for word in all_words(machine.alphabet, 3):
            for p in range(machine.n):
                for q in range(machine.n):
                    assert (segment_reach(machine, word, p, q)
                            == segment_exists_oracle(machine, word, p, q)), (machine, word, p, q)


def test_guessing_searches_match_the_oracle(moved):
    for machine in moved:
        n = machine.n
        for word in all_words(machine.alphabet, 3):
            seg = [[segment_exists_oracle(machine, word, p, q) for q in range(n)]
                   for p in range(n)]
            for q in range(n):
                emitted = {v for v in exhaust(lambda tr: n_reach(machine, word, q, tr))
                           if isinstance(v, int)}
                assert emitted == {p for p in range(n) if seg[p][q]}, (machine, word, q)
            chain = {machine.initial}  # states with a chain of exactly t segments
            for t in range(3):
                if t:
                    chain = {q for q in range(n) if any(seg[p][q] for p in chain)}
                for q in range(n):
                    outcomes = exhaust(lambda tr: t_reach(machine, word, q, t, tr))
                    assert (True in outcomes) == (q in chain), (machine, word, q, t)


def test_svfa_replay_matches_the_decider(moved):
    for machine in moved:
        for word in all_words(machine.alphabet, 3):
            tallies = exhaust(lambda tr: svfa_run(machine, word, tr))
            report = svfa_decide(machine, word)
            assert report.verdict_exists_yes == (Verdict.ACCEPT in tallies)
            assert report.verdict_exists_no == (Verdict.REJECT in tallies)
            assert report.dont_know_count == tallies.get(Verdict.DONT_KNOW, 0)
            assert report.branches_explored == sum(tallies.values())
            assert report.verdict_exists_yes == accepts_oracle(machine, word)


def test_materialized_machines_match_the_oracle(moved):
    for machine in moved:
        emitted = materialize_dfa(machine)
        for word in all_words(machine.alphabet, 4):
            assert accepts_oracle(emitted, word) == accepts_oracle(machine, word), (machine, word)
