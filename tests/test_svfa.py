"""Self-verifying simulation: verdict soundness, halting, accounting."""

import hashlib

import pytest

from outerfa import (
    BudgetExceeded,
    DecisionReport,
    InvariantViolation,
    NotApplicable,
    TraceUnderflow,
    Verdict,
    accepts_oracle,
    all_words,
    build_controller,
    build_segment_graph,
    complement_decide,
    decide_det,
    gap_decide,
    oafa_decide,
    parse,
    svfa_decide,
    svfa_run,
    svfa_state_accounting,
)
from outerfa.normalform import NotNormalForm
from outerfa.reach import _walk

from conftest import INITIAL_ACCEPTING, chain_sweeper, mod_p_sweeper, random_nf_onfa
from reference import build_e1, build_e2, build_trivial_all, build_trivial_empty

E1 = build_e1()

# level 1 is {y}, which launches nothing, so level 2 is empty at t = 2 < n - 1
EMPTY_LEVEL = parse("""type: onfa
alphabet: a
states: qI x y z qF
initial: qI
accepting: qF
trans: qI < x R
trans: x a x R
trans: x > y L
trans: y a y L
""")


def test_run_examples_on_e1():
    # some trace accepts "aa"; none rejects it (and vice versa for "ab")
    aa = svfa_decide(E1, "aa")
    assert aa.verdict_exists_yes and not aa.verdict_exists_no
    ab = svfa_decide(E1, "ab")
    assert ab.verdict_exists_no and not ab.verdict_exists_yes
    assert aa.all_halting and ab.all_halting


def test_run_ordering_violation_aborts():
    # two states are reachable in one segment, so the second-level loop
    # guesses twice and must do so in increasing order
    from outerfa import TwoWayAutomaton

    machine = TwoWayAutomaton(
        ["qI", "x", "y", "qF"], "a",
        {
            (0, "<"): [(1, 1), (2, 1)],
            (1, ">"): [(1, -1)],
            (2, ">"): [(2, -1)],
        },
        0, [3], declared_flavor="onfa",
    )
    # level 0 guesses qI four times, then level 1 guesses y (checked by one
    # emit choice) and x: decreasing, so the branch aborts
    assert svfa_run(machine, "", [0, 0, 0, 0, 2, 1, 1]) is Verdict.DONT_KNOW
    # the increasing variant survives past the check
    assert svfa_run(machine, "", [0, 0, 0, 0, 1, 1, 2, 1, 0, 0]) in (
        Verdict.ACCEPT, Verdict.REJECT, Verdict.DONT_KNOW)
    # a malformed selector aborts rather than crashing
    assert svfa_run(E1, "aa", [99]) is Verdict.DONT_KNOW


def test_run_underflow():
    with pytest.raises(TraceUnderflow):
        svfa_run(E1, "aa", [])


def test_trivial_machines():
    empty = build_trivial_empty()
    for word in all_words("ab", 3):
        report = svfa_decide(empty, word)
        assert report.verdict_exists_no and not report.verdict_exists_yes
    allm = build_trivial_all()
    for word in all_words("ab", 3):
        report = svfa_decide(allm, word)
        assert report.verdict_exists_yes and not report.verdict_exists_no


def test_requires_strict_normal_form():
    with pytest.raises(NotNormalForm):
        svfa_decide(build_e2(), "a")


def test_corpus_verdicts_match_oracle(nf_corpus):
    for machine in nf_corpus[:15]:
        for word in all_words(machine.alphabet, 4):
            report = svfa_decide(machine, word)
            expected = accepts_oracle(machine, word)
            assert report.verdict_exists_yes == expected
            assert report.verdict_exists_no == (not expected)
            assert report.all_halting and report.complete


def test_decide_matches_trace_replay_enumeration(nf_corpus):
    # dual route: exhaustively replaying traces through svfa_run must land on
    # exactly the tallies the direct tree walk of svfa_decide reports, also
    # where the decider's one point for a target merges two or more of the
    # walk's points (nf_corpus[2], n = 4, on "a" into state 2 is one)
    machines = list(nf_corpus[:4]) + [build_trivial_all(), mod_p_sweeper((2, 3)), chain_sweeper(2)]
    merged = 0
    for machine in machines:
        controller = build_controller(machine)
        for word in all_words(machine.alphabet, 3):
            merged += any(sum(1 for point in _walk(controller, word, q) if point) >= 2
                          for q in range(machine.n))
            tallies = {verdict: 0 for verdict in Verdict}
            stack = [()]
            while stack:
                trace = stack.pop()
                try:
                    verdict = svfa_run(machine, word, trace)
                except TraceUnderflow as stop:
                    stack.extend(trace + (j,) for j in range(stop.options))
                    continue
                tallies[verdict] += 1
            report = svfa_decide(machine, word)
            assert report.verdict_exists_yes == (tallies[Verdict.ACCEPT] > 0)
            assert report.verdict_exists_no == (tallies[Verdict.REJECT] > 0)
            assert report.dont_know_count == tallies[Verdict.DONT_KNOW]
            assert report.branches_explored == sum(tallies.values())
    assert merged >= 1


def test_complement_examples():
    assert complement_decide(E1, "ab")
    assert not complement_decide(E1, "aa")
    assert complement_decide(build_trivial_empty(), "")


def test_complement_matches_negated_oracle(nf_corpus):
    for machine in nf_corpus[:8]:
        for word in all_words(machine.alphabet, 3):
            assert complement_decide(machine, word) == (not accepts_oracle(machine, word))


def test_budget_exhaustion_reports_partial():
    with pytest.raises(BudgetExceeded) as info:
        svfa_decide(E1, "aa", budget=3)
    report = info.value.report
    assert not report.complete
    assert report.branches_explored <= 3


def test_negative_budgets_raise():
    for decide in (svfa_decide, complement_decide):
        with pytest.raises(ValueError, match="at least 0"):
            decide(E1, "aa", budget=-1)
        with pytest.raises(BudgetExceeded):  # a budget of 0 still admits no branch point
            decide(E1, "aa", budget=0)


def test_accounting_values():
    record = svfa_state_accounting(2)
    assert record.variables_factor == 729
    assert record.treach_factor == 8
    assert record.total == 5832
    assert not record.degenerate

    degenerate = svfa_state_accounting(1)
    assert degenerate.degenerate
    assert degenerate.total == 0


@pytest.mark.parametrize("n", [0, -1])
def test_accounting_refuses_machines_without_states(n):
    with pytest.raises(ValueError, match="n must be positive"):
        svfa_state_accounting(n)


def test_accounting_growth_is_degree_eight():
    for k in (4, 8, 16, 64, 256):
        ratio = svfa_state_accounting(2 * k).total / svfa_state_accounting(k).total
        assert ratio <= 2**8 * 1.5
    # asymptotically the ratio settles at 2**8
    big = svfa_state_accounting(2**20).total / svfa_state_accounting(2**19).total
    assert abs(big - 2**8) < 1.0


def _both_verdicts(ctx, snapshot, choice):
    # the first choice point splits into one accepting and one rejecting branch
    return ("done", Verdict.ACCEPT if choice == 0 else Verdict.REJECT)


def test_both_verdicts_raise_invariant_violation(monkeypatch):
    from outerfa import svfa

    monkeypatch.setattr(svfa, "_advance", _both_verdicts)
    with pytest.raises(InvariantViolation, match="both definite verdicts"):
        svfa_decide(E1, "aa")


def test_both_verdicts_check_survives_optimize_flag():
    # `python -O` strips assert statements; the typed check must still fire
    import os
    import subprocess
    import sys
    from pathlib import Path

    import outerfa

    script = "\n".join([
        "import pytest",
        "from outerfa import InvariantViolation, svfa",
        "from reference import build_e1",
        "from test_svfa import _both_verdicts",
        "svfa._advance = _both_verdicts",
        "with pytest.raises(InvariantViolation):",
        "    svfa.svfa_decide(build_e1(), 'aa')",
    ])
    path = os.pathsep.join([str(Path(outerfa.__file__).parents[1]), str(Path(__file__).parent)])
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr


def test_foreign_letters_raise():
    for call in (svfa_decide, complement_decide, lambda m, w: svfa_run(m, w, [0])):
        with pytest.raises(NotApplicable, match="not in the machine's alphabet"):
            call(E1, "ac")


def _refuse_controller(automaton):
    raise RuntimeError("svfa built a backward-search controller")


def _refuse_table(automaton, word):
    raise RuntimeError("svfa read a return table")


@pytest.mark.parametrize("machine, word, report, trace, verdict", [
    (E1, "aa", (True, False, 84, 85), (0,) * 6 + (3, 0, 1) * 6, Verdict.ACCEPT),
    (E1, "ab", (False, True, 30, 31), (0,) * 6, Verdict.REJECT),
    (mod_p_sweeper((2, 3)), "a" * 4, (True, False, 171, 172), (0,) * 9 + (3, 0, 1) * 9,
     Verdict.ACCEPT),
    (mod_p_sweeper((2, 3)), "a" * 5, (False, True, 72, 73), (0,) * 9, Verdict.REJECT),
    (chain_sweeper(2), "aa", (True, False, 138, 139),
     (0,) * 6 + (2, 0, 1) * 6 + (4, 0, 1, 0, 1) * 6, Verdict.ACCEPT),
    (chain_sweeper(2), "aab", (False, True, 72, 73), (0,) * 6 + (2, 0, 1) * 6, Verdict.REJECT),
    (EMPTY_LEVEL, "a", (False, True, 45, 46), (0,) * 5 + (2, 0, 1) * 5, Verdict.REJECT),
], ids=["e1_aa", "e1_ab", "mod23_accept", "mod23_reject", "chain_accept", "chain_reject",
        "empty_level"])
def test_decisions_build_no_controller(monkeypatch, machine, word, report, trace, verdict):
    # the decider reads its choice points off the return table; the reports
    # are the ones the controller walks gave, and a trace still replays
    # through the walk's order, which reads no return table
    import importlib

    from outerfa import svfa

    reach = importlib.import_module("outerfa.reach")  # the package's `reach` is a function
    with monkeypatch.context() as refusal:
        refusal.setattr(reach, "build_controller", _refuse_controller)
        refusal.setattr(svfa, "build_controller", _refuse_controller)
        decided = svfa_decide(machine, word)
        assert (decided.verdict_exists_yes, decided.verdict_exists_no,
                decided.dont_know_count, decided.branches_explored) == report
        assert decided.all_halting and decided.complete
        assert complement_decide(machine, word) == (verdict is Verdict.REJECT)
    with monkeypatch.context() as refusal:
        refusal.setattr(reach, "return_table", _refuse_table)
        refusal.setattr(svfa, "return_table", _refuse_table)
        assert svfa_run(machine, word, trace) is verdict
        with pytest.raises(NotApplicable, match="not in the machine's alphabet"):
            svfa_run(machine, word + "c", trace)


@pytest.mark.parametrize("name", sorted(INITIAL_ACCEPTING))
def test_initial_accepting_state_accepts_at_once(name):
    # every method agrees with the oracle; svfa accepts before its first choice
    machine = parse(INITIAL_ACCEPTING[name])
    for word in all_words(machine.alphabet, 2):
        assert accepts_oracle(machine, word)
        assert svfa_decide(machine, word) == DecisionReport(True, False, 0, 1, True)
        assert svfa_run(machine, word, []) is Verdict.ACCEPT
        assert not complement_decide(machine, word)
        assert decide_det(machine, word)
        assert gap_decide(build_segment_graph(machine, word, alternating=False))
        assert oafa_decide(machine, word)


def test_decision_reports_are_pinned():
    """Every report on small normal-form machines; verdicts and leaf counts must not drift."""
    digest = hashlib.sha256()
    refused = []
    branches = dont_knows = 0
    for seed in range(200):
        machine = random_nf_onfa(seed)
        for word in all_words(machine.alphabet, 3):
            try:
                report = svfa_decide(machine, word, budget=10**5)
            except BudgetExceeded:
                refused.append((seed, word))
                digest.update(repr((seed, word, "budget")).encode("utf-8"))
                continue
            branches += report.branches_explored
            dont_knows += report.dont_know_count
            digest.update(repr((seed, word, report.verdict_exists_yes, report.verdict_exists_no,
                                report.dont_know_count, report.branches_explored)).encode("utf-8"))
    assert refused == [(65, "bbb")]
    assert (branches, dont_knows) == (249088, 200449)
    assert digest.hexdigest() == "7c3261fc62b226fca9a0a262930a0f4992b7b3cf0a9d7c72fb62482c3bc566f9"
