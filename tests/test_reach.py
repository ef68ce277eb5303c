"""Backward-search controller, guessing searches, chain checks."""

import dataclasses
import hashlib
import importlib
import re
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from outerfa import (
    InvariantViolation,
    LEFT,
    LEFT_ENDMARKER,
    NotApplicable,
    RIGHT,
    RIGHT_ENDMARKER,
    STAY,
    TraceUnderflow,
    TwoWayAutomaton,
    Verdict,
    accepts_oracle,
    all_words,
    build_controller,
    build_segment_graph,
    classify,
    decide_det,
    gap_decide,
    materialize_dfa,
    normalize_oafa,
    normalize_onfa,
    parse,
    reach,
    return_table,
    segment_reach,
    svfa_decide,
    svfa_run,
)
from outerfa import cli, core, detsim, svfa
from outerfa.normalform import NotNormalForm
from outerfa.reach import ReachController, _cross, _walk, machine_index
from outerfa.svfa import _decider_scripts

from conftest import accepting_at, chain_sweeper, mod_p_sweeper, random_nf_oafa, random_nf_onfa
from reference import (
    P_A,
    P_B,
    Q_F,
    Q_I,
    R_A,
    R_B,
    build_e1,
    build_trivial_empty,
    exhaust,
    n_reach,
    reference_segment_ends,
    t_reach,
)

reach_module = importlib.import_module("outerfa.reach")  # the package's `reach` is a function

E1 = build_e1()


def test_controller_state_counts():
    assert build_controller(E1).state_count == 4 * 6 - 3
    assert build_controller(build_trivial_empty()).state_count == 4 * 2 - 3


@pytest.mark.parametrize("rank", [
    lambda q, q_final: q,
    lambda q, q_final: q - (q > q_final) + 1,
], ids=["without_skip", "shifted"])
def test_controller_checks_its_numbering(monkeypatch, rank):
    """A numbering that merges two states or runs into ACCEPT fails the 4n - 3 check."""
    # the package's `reach` is the function, which shadows the module
    monkeypatch.setattr(sys.modules["outerfa.reach"], "_rank", rank)
    with pytest.raises(InvariantViolation, match="4n - 3 = 21 states"):
        build_controller(accepting_at(E1, 0))


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["e1", "nf65"])
def test_controller_dump_is_pinned(name):
    """A whole table, parameter rows included, as `reach --dump-controller` prints it.

    nf65's has a move to a next sibling, DONE_RIGHT(q0) on a to SCAN_LEFT(q2); E1's has none.
    """
    machine = parse((DATA / f"{name}.2wa").read_text(encoding="utf-8"))
    golden = DATA / f"{name}_controller_dump.txt"
    assert build_controller(machine).dump() == golden.read_text(encoding="utf-8").rstrip("\n")


def test_controllers_are_pinned(nf_corpus, alt_nf_corpus, raw_corpus, raw_alt_corpus):
    """Every corpus machine's, sweeper's and committed machine's table, as one digest of their dumps."""
    machines = (nf_corpus + alt_nf_corpus + [normalize_onfa(m) for m in raw_corpus]
                + [normalize_oafa(m) for m in raw_alt_corpus]
                + [mod_p_sweeper(periods) for periods in ((2, 3), (3, 4, 5), (2, 3, 5, 7))]
                + [chain_sweeper(k) for k in range(1, 5)]
                + [parse(path.read_text(encoding="utf-8")) for path in sorted(DATA.glob("*.2wa"))])
    dumps = "\n".join(build_controller(machine).dump() for machine in machines)
    # moves to a next sibling, the ones E1's golden dump lacks
    siblings = len(re.findall(r"^  DONE_RIGHT\(\w+\) \S -> SCAN_LEFT", dumps, re.MULTILINE))
    assert (len(machines), siblings, hashlib.sha256(dumps.encode()).hexdigest()) == (
        373, 713, "7b2cfdc2b2a6a76ecf460913b5c1c28b36ad833cf562c24fbc08a1b6b71a88e2")


def test_controller_shares_the_machines_launch_index(nf_corpus, alt_nf_corpus):
    """The controller's launch index is the machine's one index, which `return_table` reads."""
    for machine in [E1] + nf_corpus + alt_nf_corpus:
        launchers = build_controller(machine).launchers
        assert launchers is machine_index(machine).launchers
        # (q, d) lists in state order the states with a choice into q moving in direction d
        choices = [machine.successors(p, LEFT_ENDMARKER) for p in range(machine.n)]
        assert launchers == {move: tuple(p for p in range(machine.n) if move in choices[p])
                             for move in set().union(*choices)}


def bent_e1() -> TwoWayAutomaton:
    """E1 with a stationary move on a letter: outside even the relaxed normal form."""
    delta = dict(E1.delta)
    delta[(P_A, "a")] = [(P_A, STAY)]
    return TwoWayAutomaton(E1.state_names, E1.alphabet, delta, E1.initial, E1.accepting)


def test_controller_checks_for_stationary_moves(monkeypatch):
    """Past a gate that lets it through, a stationary move on a letter still fails the build."""
    monkeypatch.setattr(sys.modules["outerfa.reach"], "require_normal_form",
                        lambda automaton, alternating: Q_F)
    with pytest.raises(InvariantViolation, match="stationary move away from the left endmarker"):
        build_controller(bent_e1())


def test_controller_requires_normal_form():
    machine = bent_e1()
    with pytest.raises(NotNormalForm):
        build_controller(machine)
    with pytest.raises(NotNormalForm):  # equal endpoints need no search, but the same gate
        reach(machine, "a", Q_I, Q_I)


def test_walk_checks_its_step_bound():
    """A controller that never halts is caught at (4n - 3)(|w| + 2) steps, not run forever."""
    controller = build_controller(E1)
    width = len(controller.column)
    # every move the table defines stays put in the same state
    stuck = dataclasses.replace(controller, table=tuple(
        move and (i // width, STAY) for i, move in enumerate(controller.table)))
    with pytest.raises(InvariantViolation, match="termination bound"):
        list(_walk(stuck, "ab", R_B))


def test_t_reach_gates_every_chain_length():
    machine = bent_e1()
    for t, trace in ((0, []), (1, [0, 1])):
        with pytest.raises(NotNormalForm):
            t_reach(machine, "a", Q_I, t, trace)


def test_reach_wrapper_cases():
    for word in ("", "a", "ba"):
        assert reach(E1, word, P_A, P_A)  # equal endpoints
        assert reach(E1, word, R_A, Q_F)  # stationary move at the left endmarker
        assert not reach(E1, word, Q_I, Q_F)  # no such stationary move, target accepting
    assert reach(E1, "aa", P_A, R_A)
    assert not reach(E1, "aa", P_B, R_B)


def test_reach_agrees_with_segment_oracle_on_e1():
    for word in all_words("ab", 5):
        for p in range(E1.n):
            ends = reference_segment_ends(E1, word, p)
            for q in range(E1.n):
                assert reach(E1, word, p, q) == (p == q or q in ends)


def test_reach_agreement_on_corpus(nf_corpus):
    for machine in nf_corpus[:12]:
        for word in all_words(machine.alphabet, 4):
            for p in range(machine.n):
                ends = reference_segment_ends(machine, word, p)
                for q in range(machine.n):
                    assert reach(machine, word, p, q) == (p == q or q in ends)


def test_n_reach_examples():
    # first candidate-bearing choice point on "aa" offers qI and pa
    assert n_reach(E1, "aa", R_A, [0, 1]) == Q_I
    assert n_reach(E1, "aa", R_A, [0, 2]) == P_A
    # demanding a candidate where none exists aborts
    assert n_reach(E1, "aa", R_A, [5]) is Verdict.DONT_KNOW
    # no segment ever enters rb on "aa"
    outcomes = exhaust(lambda tr: n_reach(E1, "aa", R_B, tr))
    assert set(outcomes) == {Verdict.DONT_KNOW}
    # an empty backward tree aborts without consuming the trace:
    # nothing moves left into pa, so (pa, 0) has no predecessors on "b"
    assert n_reach(E1, "b", P_A, []) is Verdict.DONT_KNOW
    # in the relaxed normal form a stationary launch into a non-accepting
    # state is a segment: here the only one into p
    q_i, p, r, q_f = range(4)
    machine = TwoWayAutomaton(
        ["qI", "p", "r", "qF"], "a",
        {
            (q_i, "<"): [(p, STAY), (r, RIGHT)],
            (r, "a"): [(r, RIGHT)],
            (r, ">"): [(r, LEFT)],
            (r, "<"): [(q_f, STAY)],
            (p, "<"): [(q_f, STAY)],
        },
        q_i, [q_f],
    )
    for word in ("", "a", "aa"):
        assert p in reference_segment_ends(machine, word, q_i)
        assert segment_reach(machine, word, q_i, p)
        outcomes = exhaust(lambda tr: n_reach(machine, word, p, tr))
        assert set(outcomes) == {q_i, Verdict.DONT_KNOW}
        # the stationary launchers are the search's first choice point
        assert n_reach(machine, word, p, [1]) == q_i
        assert t_reach(machine, word, p, 1, [1]) is True


def test_n_reach_trace_underflow():
    with pytest.raises(TraceUnderflow):
        n_reach(E1, "aa", R_A, [0])


def test_n_reach_outcomes_match_segment_oracle(nf_corpus, alt_nf_corpus):
    for machine in list(nf_corpus[:10]) + list(alt_nf_corpus[:10]) + [E1]:
        for word in all_words(machine.alphabet, 3):
            ends = [reference_segment_ends(machine, word, p) for p in range(machine.n)]
            for q_to in range(machine.n):
                outcomes = exhaust(
                    lambda tr: n_reach(machine, word, q_to, tr))
                emitted = {v for v in outcomes if isinstance(v, int)}
                assert emitted == {p for p in range(machine.n) if q_to in ends[p]}


def test_t_reach_examples():
    assert t_reach(E1, "aa", R_A, 1, [0, 1]) is True
    assert t_reach(E1, "aa", Q_I, 0, []) is True
    assert t_reach(E1, "aa", P_B, 0, []) is False
    outcomes = exhaust(lambda tr: t_reach(E1, "aa", R_B, 1, tr))
    assert set(outcomes) == {Verdict.DONT_KNOW}


def test_t_reach_rejects_negative_chain_length():
    with pytest.raises(ValueError, match="at least 0"):
        t_reach(E1, "aa", Q_I, -1, [])


def _searches(machine):
    """One call of each search and of the svfa replay on E1-shaped `machine`, in a fixed order."""
    return [  # on E1 they answer SEARCH_ANSWERS
        lambda: reach(machine, "aa", P_A, R_A),
        lambda: reach(machine, "ab", Q_I, Q_I),
        lambda: segment_reach(machine, "ba", Q_I, R_B),
        lambda: n_reach(machine, "aa", R_A, [0, 1]),
        lambda: t_reach(machine, "aa", R_A, 1, [0, 1]),
        lambda: t_reach(machine, "", Q_I, 0, []),
        lambda: svfa_run(machine, "ab", [0] * 6),
    ]


SEARCH_ANSWERS = [True, True, False, Q_I, True, True, Verdict.REJECT]


@pytest.mark.parametrize("first", range(7))
def test_each_machine_builds_one_controller(monkeypatch, first):
    """The searches take the machine alone: its first search builds the controller and keeps it."""
    built = []

    def counting(automaton):
        built.append(automaton)
        return build_controller(automaton)

    # by module, as the package's `reach` is a function; svfa re-exports the builder, so
    # counting there too shows that its replay builds none of its own
    for module in ("outerfa.reach", "outerfa.svfa"):
        monkeypatch.setattr(sys.modules[module], "build_controller", counting)
    machine = build_e1()  # fresh: no search has run on it yet
    calls = _searches(machine)
    calls = calls[first:] + calls[:first]
    for _ in range(2):
        assert [call() for call in calls] == SEARCH_ANSWERS[first:] + SEARCH_ANSWERS[:first]
    assert built == [machine]
    assert [kept.automaton for kept in _kept_controllers(machine)] == [machine]
    # a machine outside the relaxed normal form fails the gate on every call and keeps no controller
    bent = bent_e1()
    for call in _searches(bent) * 2:
        with pytest.raises(NotNormalForm):
            call()
        assert _kept_controllers(bent) == []


def _kept_controllers(machine):
    """The controllers the machine's memo keeps."""
    return [kept for kept in machine._derived.values() if isinstance(kept, ReachController)]


def test_one_machine_builds_each_derivation_once(monkeypatch):
    """The searches, the svfa replay, the emitter and `classify` share what the machine keeps.

    On a fresh machine, each builder of its memo runs once, the replay
    context once per word, and `materialize_dfa` walks the searches'
    controller rather than building its own.
    """
    builds = Counter()

    def counting(module, name):
        build = getattr(module, name)

        def counted(*args, **kwargs):
            builds[name] += 1
            return build(*args, **kwargs)
        return counted

    monkeypatch.setattr(core, "_structure", counting(core, "_structure"))
    monkeypatch.setattr(reach_module, "_build_index", counting(reach_module, "_build_index"))
    monkeypatch.setattr(svfa, "_SimContext", counting(svfa, "_SimContext"))
    # the emitter and the CLI hold the builder under its own name too (perfbench wraps it there)
    controller_builds = counting(reach_module, "build_controller")
    for module in (reach_module, detsim, cli):
        monkeypatch.setattr(module, "build_controller", controller_builds)
    machine = build_e1()  # fresh: nothing derived yet
    for _ in range(2):
        assert reach(machine, "aa", P_A, R_A)
        assert not segment_reach(machine, "ba", Q_I, R_B)
    for word, trace, verdict in (("aa", (0,) * 6 + (3, 0, 1) * 6, Verdict.ACCEPT),
                                 ("ab", (0,) * 6, Verdict.REJECT)):
        for _ in range(2):
            assert svfa_run(machine, word, trace) is verdict
    emitted = materialize_dfa(machine)
    assert emitted.n == 1120
    assert classify(machine).satisfies_normal_form
    assert builds == {"_structure": 1, "_build_index": 1, "build_controller": 1, "_SimContext": 2}
    assert len(_kept_controllers(machine)) == 1
    assert emitted._derived == {}  # a machine's constructor derives nothing


def test_a_shared_machine_gives_every_thread_the_sequential_verdicts():
    """Machines may be shared across threads: four threads on one fresh machine agree with one."""
    traces = {"aa": (0,) * 6 + (3, 0, 1) * 6, "ab": (0,) * 6}

    def verdicts(machine, words):
        return ([reach(machine, w, p, q) for w in ("aa", "ab", "ba") for p in range(machine.n)
                 for q in range(machine.n)],
                [segment_reach(machine, "aab", p, R_A) for p in range(machine.n)],
                [svfa_run(machine, word, traces[word]) for word in words],
                materialize_dfa(machine), classify(machine),
                [accepts_oracle(machine, w) for w in all_words(machine.alphabet, 3)])

    words = ["aa", "ab"] * 50  # alternated, so the replay context changes hands
    expected = verdicts(build_e1(), words)
    shared = build_e1()
    start = threading.Barrier(4, timeout=60)

    def worker(turn):
        start.wait()
        return verdicts(shared, words[turn % 2:] + words[:turn % 2])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that first calls race
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(worker, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for turn, result in enumerate(results):
        assert result[:2] == expected[:2] and result[3:] == expected[3:]
        assert result[2] == expected[2][turn % 2:] + expected[2][:turn % 2]
    assert len(_kept_controllers(shared)) == 1


def test_t_reach_matches_chain_oracle(nf_corpus, alt_nf_corpus):
    for machine in list(nf_corpus[:8]) + list(alt_nf_corpus[:8]):
        n = machine.n
        for word in all_words(machine.alphabet, 3):
            ends = [reference_segment_ends(machine, word, p) for p in range(n)]
            chain = {machine.initial}  # states with a chain of exactly t segments
            for t in range(3):
                if t:
                    chain = {q for p in chain for q in ends[p]}
                for q in range(n):
                    outcomes = exhaust(
                        lambda tr: t_reach(machine, word, q, t, tr))
                    assert (True in outcomes) == (q in chain)


def test_runs_stay_within_the_step_bound(nf_corpus):
    # the walk raises InvariantViolation past (4n-3)(|w|+2) steps; a clean pass
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
], ids=["reach_to", "reach_from", "segment_reach_to", "segment_reach_from",
        "n_reach", "t_reach_zero", "t_reach"])
def test_unknown_state_ids_raise(call):
    for bad in (99, E1.n, -1):
        with pytest.raises(ValueError, match="unknown state id"):
            call(bad)


@pytest.mark.parametrize("call", [
    lambda word: return_table(E1, word),
    lambda word: reach(E1, word, Q_I, Q_I),
    lambda word: reach(E1, word, Q_I, R_A),
    lambda word: segment_reach(E1, word, Q_I, R_A),
    lambda word: n_reach(E1, word, R_A, [0, 1]),
    lambda word: t_reach(E1, word, Q_I, 0, []),
    lambda word: t_reach(E1, word, R_A, 1, [0, 1]),
], ids=["return_table", "reach_equal", "reach", "segment_reach", "n_reach",
        "t_reach_zero", "t_reach"])
def test_foreign_letters_raise(call):
    for word in ("ac", "a<", "b>a"):
        with pytest.raises(NotApplicable, match="not in the machine's alphabet"):
            call(word)


def launch_fate(machine, tape, x):
    """Where the run from (x, 1) first reaches head 0, by single steps; None if it halts or loops."""
    state, head, seen = x, 1, set()
    while head and (state, head) not in seen:
        seen.add((state, head))
        succs = machine.successors(state, tape[head])
        if not succs:
            break
        ((state, move),) = succs  # away from the left endmarker the machine is deterministic
        head += move
    return None if head else state


def assert_table_matches(machine, words):
    """Each row entry is its launch's fate; the relation equals the controller's and the reference's."""
    launches = [machine.successors(p, LEFT_ENDMARKER) for p in range(machine.n)]
    for word in words:
        table = return_table(machine, word)
        tape = LEFT_ENDMARKER + word + RIGHT_ENDMARKER
        fates = {x: launch_fate(machine, tape, x) for row in launches for (x, d) in row if d == RIGHT}
        for p in range(machine.n):
            outcomes = table[p]
            assert outcomes == tuple(x if d == STAY else fates[x] for (x, d) in launches[p]), (
                machine, word, p)
            ends = reference_segment_ends(machine, word, p)
            assert set(outcomes) - {None} == ends, (machine, word, p)
            for q in range(machine.n):
                assert segment_reach(machine, word, p, q) == (q in ends), (machine, word, p, q)


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
    # qI's two choices launch p and b, in that order
    assert return_table(machine, "")[q_i] == (r, None)
    for word in ("a", "aa", "aaa"):
        assert return_table(machine, word)[q_i] == (None, b)
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
        # qI launches c0; back relaunches c1 or moves into qF
        assert table[q_i] == (back if len(word) % 3 == 0 else None,)
        assert table[back] == (back if len(word) % 3 == 2 else None, q_f)
    assert_table_matches(machine, words)


def orbit_machine(spec: str) -> TwoWayAutomaton:
    """qI launches orbit states rightward; `spec` gives their moves on a.

    `spec` lists, for orbit states 0 ... m - 1 in turn, a target and a
    direction ("2R", "0L"), or "-" to halt.  Orbit state i's partner is
    state i + m/2 mod m.  On the right endmarker each orbit state turns
    left into its partner; on b, even states pass right and odd ones turn
    back left, each into its partner, so words a^k b a^j make runs of a's
    be entered at both ends.  At the left endmarker qI launches every
    orbit state, and each orbit state launches itself or accepts, so its
    row names the state its launch comes back in.  Most specs give the
    partners of a cycle drifting right a drift to the left, so a launch
    that leaves a run on the right mostly comes back, in a state that
    depends on where and in which state it left.
    """
    moves = spec.split()
    m = len(moves)
    q_i, q_f = 0, m + 1
    delta = {(q_i, "<"): [(1 + i, RIGHT) for i in range(m)]}
    for i, move in enumerate(moves):
        q, partner = 1 + i, 1 + (i + m // 2) % m
        if move != "-":
            delta[(q, "a")] = [(1 + int(move[:-1]), RIGHT if move[-1] == "R" else LEFT)]
        delta[(q, "b")] = [(partner, LEFT if i % 2 else RIGHT)]
        delta[(q, ">")] = [(partner, LEFT)]
        delta[(q, "<")] = [(q, RIGHT), (q_f, STAY)]
    return TwoWayAutomaton(["qI"] + [f"o{i}" for i in range(m)] + ["qF"], "ab", delta, q_i, [q_f])


ORBITS = {
    # R, R, L: drift +1 per lap, span 2; its partners L, L drift -2
    "right_drift_with_left_excursion": "1R 2R 0L 4L 3L",
    # L, R, L: drift -1 per lap; its partners R, R drift +2
    "left_drift": "1L 2R 0L 4R 3R",
    # R, R, L, R: drift +2, so the state leaving a run depends on its parity
    "right_drift_by_two": "1R 2R 3L 0R 4L",
    # R, L and L, R: a lap of zero drift loops inside any run it fits in
    "zero_drift": "1R 0L 3L 2R 4L",
    # two steps right, or one step left, then no move on a
    "halt_mid_run": "1R 2R - 4L -",
    # a three-step tail into a cycle of drift +2, longer than the shortest runs
    "long_tail": "1R 2L 3R 4R 3R",
}


def _cross_by_steps(moves, length, at, q):
    """The step off a run, found one step at a time; None on a halt or a repeated configuration."""
    seen = set()
    while (q, at) not in seen:
        seen.add((q, at))
        if moves[q] is None:
            return None
        q, d = moves[q]
        at += d
        if not 0 <= at < length:
            return q, d
    return None


@pytest.mark.parametrize("spec", ORBITS.values(), ids=ORBITS.keys())
def test_run_crossings_skip_whole_laps(spec):
    # every state entering a run of a's at either end, for runs up to 3n + 3
    # long: past the n-step tail, the measured lap and some skipped laps
    machine = orbit_machine(spec)
    n = machine.n
    moves = machine_index(machine).moves["a"]
    for length in range(1, 3 * n + 4):
        for at in (0, length - 1):
            for q in range(n):
                assert _cross(moves, length, at, q) == _cross_by_steps(moves, length, at, q), (
                    spec, length, at, q)


@pytest.mark.parametrize("spec", ORBITS.values(), ids=ORBITS.keys())
def test_return_table_on_runs_of_one_letter(spec):
    machine = orbit_machine(spec)
    lengths = range(3 * machine.n + 4)
    # words that repeat one run shape enter equal runs in the same states
    assert_table_matches(machine, ["a" * k for k in lengths]
                         + ["a" * k + "b" + "a" * j for k in lengths for j in lengths]
                         + [("a" * k + "b") * 3 for k in lengths]
                         + [("a" * k + "bb") * 3 for k in lengths])


@seed(2011)
@settings(max_examples=60, deadline=None)
@given(machine_seed=st.integers(0, 10_000), strict=st.booleans(), letters=st.sampled_from(("ab", "ba")),
       lengths=st.lists(st.integers(1, 400), min_size=1, max_size=4))
def test_return_table_on_long_runs(machine_seed, strict, letters, lengths):
    # 1 to 4 runs, the letters alternating
    machine = (random_nf_onfa if strict else random_nf_oafa)(machine_seed, n_max=8)
    assert_table_matches(machine, ["".join(letters[i % 2] * k for i, k in enumerate(lengths))])


def test_return_table_scales_with_runs_not_letters():
    # each run is crossed in O(n) steps, so a million letters take milliseconds
    mod_p = mod_p_sweeper((3, 4, 5))
    for k in (10**6, 10**6 + 1, 10**6 + 2):
        expected = any(k % p == 0 for p in (3, 4, 5))
        word = "a" * k
        assert gap_decide(build_segment_graph(mod_p, word)) == expected
        assert decide_det(mod_p, word) == expected
        report = svfa_decide(mod_p, word)
        assert (report.verdict_exists_yes, report.verdict_exists_no) == (expected, not expected)
    # the last rightward sweep halts on the b
    chain = chain_sweeper(3)
    assert not gap_decide(build_segment_graph(chain, "a" * 500000 + "b" + "a" * 500000))
    # a million letters in 2 000 runs of one shape; with a b, the machine rejects
    word = ("a" * 999 + "b") * 1000
    assert not gap_decide(build_segment_graph(chain, word))
    assert not decide_det(chain, word)
    report = svfa_decide(chain, word)
    assert (report.verdict_exists_yes, report.verdict_exists_no) == (False, True)


def assert_scripts_match(machine, words):
    """svfa's one choice point per target, read off the return table, lists the walk's candidates."""
    controller = build_controller(machine)
    for word in words:
        scripts = _decider_scripts(return_table(machine, word))
        assert len(scripts) == machine.n
        for q in range(machine.n):
            assert len(scripts[q]) <= 1 and all(scripts[q]), (machine, word, q)
            walked = [p for point in _walk(controller, word, q) for p in point]
            listed = [p for point in scripts[q] for p in point]
            assert sorted(listed) == sorted(walked), (machine, word, q)


def test_choice_scripts_on_normal_form_corpora(nf_corpus, alt_nf_corpus):
    for machine in list(nf_corpus) + list(alt_nf_corpus) + [E1]:
        assert_scripts_match(machine, all_words(machine.alphabet, 4))


def test_choice_scripts_on_normalized_raw_machines(raw_corpus, raw_alt_corpus):
    machines = [normalize_onfa(m) for m in raw_corpus[:15]]
    machines += [normalize_oafa(m) for m in raw_alt_corpus[:10]]
    for machine in machines:
        assert_scripts_match(machine, all_words(machine.alphabet, 4))


def test_choice_scripts_on_long_sweepers():
    lengths = (498, 499, 500)
    mod_p = mod_p_sweeper((3, 4, 5))
    assert_scripts_match(mod_p, ["a" * k for k in lengths])
    # the last rightward sweep halts on the b, cutting its backward tree short
    assert_scripts_match(chain_sweeper(3), ["a" * (k - 250) + "b" + "a" * 249 for k in lengths]
                         + ["ab" * 250])
    # qI launches c3_0, c4_0 and c5_0; only the counts mod 4 and mod 5 return, to r4 and r5
    r3, r4, r5 = 4, 9, 15
    scripts = _decider_scripts(return_table(mod_p, "a" * 500))
    assert [[0] in scripts[r] for r in (r3, r4, r5)] == [False, True, True]
