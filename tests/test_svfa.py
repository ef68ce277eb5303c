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
    decide_det,
    gap_decide,
    normalize_onfa,
    oafa_decide,
    parse,
    svfa_decide,
    svfa_run,
    svfa_state_accounting,
)
from outerfa import svfa
from outerfa.normalform import NotNormalForm
from outerfa.reach import _walk

from conftest import (INITIAL_ACCEPTING, chain_sweeper, mod_p_sweeper, port_ring, random_nf_onfa,
                      random_onfa)
from reference import (build_e1, build_e2, build_trivial_all, build_trivial_empty, exhaust,
                       reference_svfa_tree, t_reach)

E1 = build_e1()

# the ports are qI, y, z and qF; level 1 is {y}, whose one launch halts on
# an a, so level 2 is empty at t = 2 < k - 1
EMPTY_LEVEL = parse("""type: onfa
alphabet: a
states: qI x y z qF
initial: qI
accepting: qF
trans: qI < x R
trans: x a x R
trans: x > y L
trans: y a y L
trans: y < z R
trans: z < z R
""")


def test_run_examples_on_e1():
    # some trace accepts "aa"; none rejects it (and vice versa for "ab")
    aa = svfa_decide(E1, "aa")
    assert aa.verdict_exists_yes and not aa.verdict_exists_no
    ab = svfa_decide(E1, "ab")
    assert ab.verdict_exists_no and not ab.verdict_exists_yes
    assert aa.all_halting and ab.all_halting
    assert (aa.snapshots, ab.snapshots) == (24, 6)


def test_run_ordering_violation_aborts():
    # two ports are reachable in one segment, so the second-level loop
    # guesses twice and must do so in increasing port order
    from outerfa import TwoWayAutomaton

    machine = TwoWayAutomaton(
        ["qI", "x", "y", "qF"], "a",
        {
            (0, "<"): [(1, 1), (2, 1)],
            (1, "<"): [(3, 0)],
            (1, ">"): [(1, -1)],
            (2, "<"): [(3, 0)],
            (2, ">"): [(2, -1)],
        },
        0, [3], declared_flavor="onfa",
    )
    # level 0 guesses qI once per port, four times, then level 1 guesses y
    # (checked by one emit choice) and x: decreasing, so the branch aborts
    assert svfa_run(machine, "", [0, 0, 0, 0, 2, 1, 1]) is Verdict.DONT_KNOW
    # the increasing variant, x then y, passes both checks in the cells of
    # qI, x and y; in qF's cell x alone, one segment before qF, accepts
    assert svfa_run(machine, "", [0, 0, 0, 0] + [1, 1, 2, 1] * 3 + [1, 1]) is Verdict.ACCEPT
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
            assert report.all_halting


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
            tallies = exhaust(lambda trace: svfa_run(machine, word, trace))
            report = svfa_decide(machine, word)
            assert report.verdict_exists_yes == (tallies[Verdict.ACCEPT] > 0)
            assert report.verdict_exists_no == (tallies[Verdict.REJECT] > 0)
            assert report.dont_know_count == tallies[Verdict.DONT_KNOW]
            assert report.branches_explored == sum(tallies.values())
    assert merged >= 1


def test_replays_of_one_word_share_one_context(monkeypatch):
    # the context walks the controller once per port; E1's 6 states are all
    # ports, and a fresh machine keeps no context yet
    walks = []
    real = svfa._walk
    monkeypatch.setattr(svfa, "_walk", lambda *args: walks.append(args[2]) or real(*args))
    machine = build_e1()
    tallies = exhaust(lambda trace: svfa_run(machine, "aa", trace))
    assert tallies == {Verdict.ACCEPT: 1, Verdict.DONT_KNOW: 84}
    assert walks == list(range(machine.n))
    # a new word builds its own context, through the gate that rejects foreign letters
    assert exhaust(lambda trace: svfa_run(machine, "ab", trace)) == \
        {Verdict.REJECT: 1, Verdict.DONT_KNOW: 30}
    assert len(walks) == 2 * machine.n
    with pytest.raises(NotApplicable, match="'c'"):
        svfa_run(machine, "ac", [0])
    assert exhaust(lambda trace: svfa_run(machine, "aa", trace)) == tallies


def test_complement_examples():
    assert svfa_decide(E1, "ab").verdict_exists_no
    assert not svfa_decide(E1, "aa").verdict_exists_no
    assert svfa_decide(build_trivial_empty(), "").verdict_exists_no


def test_complement_matches_negated_oracle(nf_corpus):
    for machine in nf_corpus[:8]:
        for word in all_words(machine.alphabet, 3):
            assert svfa_decide(machine, word).verdict_exists_no == (not accepts_oracle(machine, word))


def test_budget_exhaustion_reports_partial():
    # the partial report adds up the leaves of the subtrees finished so far
    # and the tallies still held on the DFS stack
    with pytest.raises(BudgetExceeded) as info:
        svfa_decide(E1, "aa", budget=12)
    report = info.value.report
    assert not report.all_halting
    assert (report.snapshots, report.branches_explored, report.dont_know_count) == (12, 12, 12)
    assert report.branches_explored <= svfa_decide(E1, "aa").branches_explored
    # 330 distinct snapshots decide a 6-state ring, every state a port, on
    # "a"; one fewer does not
    machine = port_ring(6)
    assert svfa_decide(machine, "a", budget=330).snapshots == 330
    with pytest.raises(BudgetExceeded) as info:
        svfa_decide(machine, "a", budget=329)
    report = info.value.report
    assert (report.snapshots, report.all_halting) == (329, False)
    assert 0 < report.branches_explored < 451


def test_negative_budgets_raise():
    with pytest.raises(ValueError, match="at least 0"):
        svfa_decide(E1, "aa", budget=-1)
    with pytest.raises(BudgetExceeded):  # a budget of 0 admits no snapshot
        svfa_decide(E1, "aa", budget=0)


def test_accounting_values():
    record = svfa_state_accounting(2)
    assert record.variables_factor == 729
    assert record.treach_factor == 8
    assert record.total == 5832
    assert not record.degenerate

    degenerate = svfa_state_accounting(1)
    assert degenerate.degenerate
    assert degenerate.total == 0


def test_accounting_over_ports():
    # (k + 1)**6 * k * (4n - 4): six variables and the chain counter over the
    # k ports, the cursor over the controller's states; with k = n it is the n-form
    record = svfa_state_accounting(6)
    assert (record.k, record.port_total) == (None, None)
    e1 = svfa_state_accounting(6, 6)
    assert e1.port_total == e1.total == 14117880
    # E1's 12-state normal form has 9 ports
    normal = svfa_state_accounting(12, 9)
    assert normal.total == 13**6 * 12 * 44 == 2548555152
    assert normal.port_total == 10**6 * 9 * 44 == 396000000
    assert svfa_state_accounting(1, 1).port_total == 0
    for k in (0, 7):
        with pytest.raises(ValueError, match="k must be"):
            svfa_state_accounting(6, k)


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


def test_guesses_range_over_ports(monkeypatch):
    # the mod-(3, 4, 5) sweeper has 17 states but 5 ports: qI, r3, r4, r5
    # and qF, so every state guess has at most k children and the levels
    # stop below k - 1
    from outerfa import svfa
    from outerfa.reach import machine_index

    machine = mod_p_sweeper((3, 4, 5))
    k = len(machine_index(machine).ports)
    assert (machine.n, k) == (17, 5)
    guesses, levels = [], set()
    step = svfa._advance

    def spy(ctx, snapshot):
        children = step(ctx, snapshot)
        levels.add(snapshot[0])
        if snapshot[6] == 0:  # no walk owed: a state guess
            guesses.append(len(children))
        return children

    monkeypatch.setattr(svfa, "_advance", spy)
    for word in ("a" * 7, "a" * 12):
        report = svfa_decide(machine, word)
        assert report.verdict_exists_yes == accepts_oracle(machine, word)
    assert max(guesses) == k
    assert max(levels) < k - 1


def test_chain_check_matches_the_reference_chain(nf_corpus, monkeypatch):
    # the chain check inside `_advance` passes, reaching `_verified`, on some
    # branch exactly when the reference's t guessing searches back from q can
    # end at the initial state; both drivers' contexts are checked
    from outerfa import svfa

    passed = object()
    monkeypatch.setattr(svfa, "_verified", lambda *args: passed)
    for machine in nf_corpus[:8]:
        for word in all_words(machine.alphabet, 3):
            for replay in (False, True):
                ctx = svfa._SimContext(machine, word, replay)
                for t in (1, 2):
                    # the guess of each port at level t, before any other: the
                    # snapshot owing its t walks, or don't-know without a search
                    guesses = svfa._advance(ctx, (t, 1, 0, 0, 1, -1, 0, 0, 0))
                    for q, start in zip(ctx.ports, guesses):
                        stack, reached = [start], False
                        while stack and not reached:
                            state = stack.pop()
                            reached = state is passed
                            if not (reached or isinstance(state, Verdict)):
                                stack.extend(svfa._advance(ctx, state))
                        expected = True in exhaust(lambda tr: t_reach(machine, word, q, t, tr))
                        assert reached == expected, (machine, word, replay, q, t)


def _both_verdicts(ctx, snapshot):
    # the first choice point splits into one accepting and one rejecting branch
    return [Verdict.ACCEPT, Verdict.REJECT]


def _repeats_itself(ctx, snapshot):
    # the one branch comes back to the snapshot it left, so it never halts
    return [snapshot]


def test_both_verdicts_raise_invariant_violation(monkeypatch):
    from outerfa import svfa

    monkeypatch.setattr(svfa, "_advance", _both_verdicts)
    with pytest.raises(InvariantViolation, match="both definite verdicts"):
        svfa_decide(E1, "aa")


def test_repeated_snapshot_raises_invariant_violation(monkeypatch):
    from outerfa import svfa

    monkeypatch.setattr(svfa, "_advance", _repeats_itself)
    with pytest.raises(InvariantViolation, match="repeats on a branch"):
        svfa_decide(E1, "aa")


def test_both_verdicts_check_survives_optimize_flag():
    # `python -O` strips assert statements; the typed checks, this one and the
    # repeated-snapshot check, must still fire
    import os
    import subprocess
    import sys
    from pathlib import Path

    import outerfa

    script = "\n".join([
        "import pytest",
        "from outerfa import InvariantViolation, svfa",
        "from reference import build_e1",
        "from test_svfa import _both_verdicts, _repeats_itself",
        "svfa._advance = _both_verdicts",
        "with pytest.raises(InvariantViolation, match='both definite verdicts'):",
        "    svfa.svfa_decide(build_e1(), 'aa')",
        "svfa._advance = _repeats_itself",
        "with pytest.raises(InvariantViolation, match='repeats on a branch'):",
        "    svfa.svfa_decide(build_e1(), 'aa')",
    ])
    path = os.pathsep.join([str(Path(outerfa.__file__).parents[1]), str(Path(__file__).parent)])
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr


def test_foreign_letters_raise():
    for call in (svfa_decide, lambda m, w: svfa_run(m, w, [0])):
        with pytest.raises(NotApplicable, match="not in the machine's alphabet"):
            call(E1, "ac")


def _refuse_controller(automaton):
    raise RuntimeError("svfa built a backward-search controller")


def _refuse_table(automaton, word):
    raise RuntimeError("svfa read a return table")


@pytest.mark.parametrize("machine, word, report, trace, verdict", [
    (E1, "aa", (True, False, 84, 85), (0,) * 6 + (3, 0, 1) * 6, Verdict.ACCEPT),
    (E1, "ab", (False, True, 30, 31), (0,) * 6, Verdict.REJECT),
    (mod_p_sweeper((2, 3)), "a" * 4, (True, False, 36, 37), (0,) * 4 + (1, 0, 1) * 4,
     Verdict.ACCEPT),
    (mod_p_sweeper((2, 3)), "a" * 5, (False, True, 12, 13), (0,) * 4, Verdict.REJECT),
    (chain_sweeper(2), "aa", (True, False, 68, 69),
     (0,) * 4 + (1, 0, 1) * 4 + (2, 0, 1, 0, 1) * 4, Verdict.ACCEPT),
    (chain_sweeper(2), "aab", (False, True, 32, 33), (0,) * 4 + (1, 0, 1) * 4, Verdict.REJECT),
    (EMPTY_LEVEL, "a", (False, True, 28, 29), (0,) * 4 + (1, 0, 1) * 4, Verdict.REJECT),
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
        assert decided.all_halting
        assert decided.verdict_exists_no == (verdict is Verdict.REJECT)
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
    assert refused == []
    assert (branches, dont_knows) == (152034, 131852)
    assert digest.hexdigest() == "5e9c7343bce907de1fe68607100916c3c8677ed4667af843c94091a0c7d653a0"


def test_decisions_match_the_tree_walk():
    """Exact reports against the branch-by-branch tree walk, wherever that walk finishes."""
    refused = 0
    largest = 0
    for seed in range(300):
        machine = random_nf_onfa(seed)
        for word in all_words(machine.alphabet, 3):
            report = svfa_decide(machine, word)
            largest = max(largest, report.snapshots)
            try:
                accepts, rejects, dont_knows = reference_svfa_tree(machine, word, budget=10**5)
            except BudgetExceeded:
                refused += 1
                continue
            assert (report.verdict_exists_yes, report.verdict_exists_no, report.dont_know_count,
                    report.branches_explored) == (accepts > 0, rejects > 0, dont_knows,
                                                  accepts + rejects + dont_knows), (seed, word)
    assert refused == 12
    assert largest <= 10**4


@pytest.mark.parametrize("machine, word, report", [
    (random_nf_onfa(65), "bbb", DecisionReport(False, True, 2502, 2758, True, 44)),
    (normalize_onfa(random_onfa(156)), "b", DecisionReport(
        False, True, 1392555074, 1432368194, True, 440)),
], ids=["nf65_bbb", "raw156_b"])
def test_large_trees_are_pinned(machine, word, report):
    # thousands of branches and more, over a few hundred distinct snapshots
    assert svfa_decide(machine, word) == report
