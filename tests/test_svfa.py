"""Self-verifying simulation: verdict soundness, halting, accounting."""

import pytest

from outerfa import (
    BudgetExceeded,
    InvariantViolation,
    TraceUnderflow,
    Verdict,
    accepts_oracle,
    all_words,
    complement_decide,
    svfa_decide,
    svfa_run,
    svfa_state_accounting,
)
from outerfa.normalform import NotNormalForm
from outerfa.fixtures import build_e1, build_e2, build_trivial_all, build_trivial_empty

E1 = build_e1()


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
    # exactly the tallies the direct tree walk of svfa_decide reports
    for machine in list(nf_corpus[:4]) + [build_trivial_all()]:
        for word in all_words(machine.alphabet, 3):
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


def test_accounting_values():
    record = svfa_state_accounting(2)
    assert record.variables_factor == 729
    assert record.treach_factor == 8
    assert record.total == 5832
    assert not record.degenerate

    degenerate = svfa_state_accounting(1)
    assert degenerate.degenerate
    assert degenerate.total == 0


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
        "from outerfa.fixtures import build_e1",
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
