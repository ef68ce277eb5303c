"""Segment graphs, plain and alternating reachability decisions."""

import random

import pytest

from outerfa import (
    BudgetExceeded,
    NotApplicable,
    SegmentGraph,
    accepts_oracle,
    agap_decide,
    all_words,
    alternating_accepts_oracle,
    build_segment_graph,
    gap_decide,
    normalize_oafa,
    oafa_decide,
    parse,
    segment_exists_oracle,
    segment_graph_to_dot,
)
from outerfa import graphred
from outerfa.cli import METHODS, _decide
from outerfa.normalform import NotNormalForm

from conftest import gap_machine, gap_pairs
from reference import Q_I, R_A, build_e1, build_e2, build_trivial_empty

E1 = build_e1()
E2 = build_e2()


def test_e1_edge_set_on_aa():
    graph = build_segment_graph(E1, "aa")
    names = graph.state_names
    labelled = {(names[p], names[q]) for (p, q) in graph.edges}
    assert ("qI", "ra") in labelled
    assert ("ra", "qF") in labelled
    assert ("pb", "rb") not in labelled
    # plain graphs never store self-loops
    assert not any(p == q for (p, q) in graph.edges)


def test_plain_edges_match_segment_oracle(nf_corpus):
    for machine in nf_corpus[:12]:
        for word in all_words(machine.alphabet, 4):
            graph = build_segment_graph(machine, word)
            expected = {
                (p, q)
                for p in range(machine.n)
                for q in range(machine.n)
                if p != q and segment_exists_oracle(machine, word, p, q)
            }
            assert graph.edges == frozenset(expected)


def test_gap_examples():
    assert gap_decide(build_segment_graph(E1, "aa"))
    assert not gap_decide(build_segment_graph(E1, "ab"))
    loop = SegmentGraph(("s",), ((),), None, 0, 0)
    assert gap_decide(loop)  # source equals target: the empty path


def test_gap_matches_oracle(nf_corpus):
    for machine in nf_corpus:
        for word in all_words(machine.alphabet, 4):
            assert gap_decide(build_segment_graph(machine, word)) == \
                accepts_oracle(machine, word)


def test_agap_base_and_empty_row_cases():
    same = SegmentGraph(("a", "b"), ((1,), ()), frozenset(), 1, 1)
    assert agap_decide(same)  # source equals target
    # a universal vertex with an empty row rejects, as a universal machine
    # state without a choice does; the edge view locks it with a self-loop
    empty = SegmentGraph(("u", "t"), ((), ()), frozenset({0}), 0, 1)
    assert not agap_decide(empty)
    assert empty.edges == {(0, 0)}
    # requires a partition
    with pytest.raises(ValueError):
        agap_decide(SegmentGraph(("a",), ((),), None, 0, 0))


def test_agap_on_all_existential_partition_equals_gap(nf_corpus):
    for machine in nf_corpus[:10]:
        for word in all_words(machine.alphabet, 3):
            plain = build_segment_graph(machine, word)
            partitioned = SegmentGraph(plain.state_names, plain.rows,
                                       frozenset(), plain.source, plain.target)
            assert agap_decide(partitioned) == gap_decide(plain)


def test_universal_vertex_with_dead_branch_gets_locked():
    graph = build_segment_graph(E2, "aa", alternating=True)
    # the b-branch dies on "aa", so the universal launch state is locked
    assert (Q_I, Q_I) in graph.edges
    assert not agap_decide(graph)
    # with both branches alive there is no lock and the word is accepted
    graph_empty = build_segment_graph(E2, "", alternating=True)
    assert (Q_I, Q_I) not in graph_empty.edges
    assert agap_decide(graph_empty)


def test_universal_state_without_a_choice_rejects():
    # qI launches u by a stationary move, and u has no move at all: a dead
    # universal configuration rejects, so only the p-branch, which accepts
    # a*, can make qI accept
    machine = parse("""type: oafa
alphabet: a b
states: qI u p r qF
initial: qI
accepting: qF
universal: u
trans: qI < u S
trans: qI < p R
trans: p a p R
trans: p > r L
trans: r a r L
trans: r < qF S
""")
    graph = build_segment_graph(machine, "b")
    assert graph.rows[0][0] == 1 and graph.rows[1] == ()
    assert (1, 1) in graph.edges
    for word in all_words(machine.alphabet, 3):
        assert oafa_decide(machine, word) == alternating_accepts_oracle(machine, word) \
            == ("b" not in word), word


def test_rows_are_the_return_table(monkeypatch):
    # the graph stores the table itself, with no pass over its rows
    sentinel = object()
    monkeypatch.setattr(graphred, "return_table", lambda machine, word: sentinel)
    assert build_segment_graph(E1, "aa").rows is sentinel
    assert build_segment_graph(E2, "aa").rows is sentinel


def test_oafa_decide_examples():
    assert not oafa_decide(E2, "aa")
    assert oafa_decide(E2, "")
    normalized = normalize_oafa(E2)
    assert not oafa_decide(normalized, "aa")
    assert oafa_decide(normalized, "")


def test_oafa_decide_matches_oracle(alt_nf_corpus):
    for machine in alt_nf_corpus:
        for word in all_words(machine.alphabet, 4):
            assert oafa_decide(machine, word) == \
                alternating_accepts_oracle(machine, word)


def test_oafa_decide_requires_normal_form():
    bent = build_e2()
    import outerfa

    delta = dict(bent.delta)
    delta[(R_A, "a")] = [(R_A, 0)]  # interior stationary move
    machine = outerfa.TwoWayAutomaton(bent.state_names, bent.alphabet, delta,
                                      bent.initial, bent.accepting,
                                      universal=bent.universal)
    with pytest.raises(NotNormalForm):
        oafa_decide(machine, "a")


def test_empty_language_machine_has_no_accepting_path():
    machine = build_trivial_empty()
    for word in all_words("ab", 4):
        assert not gap_decide(build_segment_graph(machine, word))


def test_dot_export_parses(nf_corpus, alt_nf_corpus):
    from conftest import assert_dot_wellformed

    assert_dot_wellformed(segment_graph_to_dot(build_segment_graph(E1, "aa")))
    assert_dot_wellformed(segment_graph_to_dot(build_segment_graph(E2, "", alternating=True)))
    for machine in list(nf_corpus[:4]) + list(alt_nf_corpus[:4]):
        graph = build_segment_graph(machine, "ab")
        assert_dot_wellformed(segment_graph_to_dot(graph))
    # a state name may end in a backslash, which must not escape the closing quote
    backslash = parse(r"""type: onfa
alphabet: a
states: q\ x qF
initial: q\
accepting: qF
trans: q\ < x R
trans: x > x L
trans: x < qF S
""")
    assert_dot_wellformed(segment_graph_to_dot(build_segment_graph(backslash, "")))


@pytest.mark.parametrize("decide", [
    lambda machine, word: gap_decide(build_segment_graph(machine, word, alternating=False)),
    lambda machine, word: agap_decide(build_segment_graph(machine, word, alternating=True)),
    oafa_decide,
], ids=["gap", "agap", "oafa_decide"])
def test_foreign_letters_raise(decide):
    for machine in (E1, E2):
        with pytest.raises(NotApplicable, match="not in the machine's alphabet"):
            decide(machine, "ac")


def _reachable(edges: set, source: int) -> set:
    """The vertices a breadth-first search reaches from `source`."""
    seen, frontier = {source}, [source]
    while frontier:
        frontier = [j for i in frontier for (k, j) in edges if k == i and j not in seen]
        seen.update(frontier)
    return seen


@pytest.mark.parametrize("m", range(2, 8))
def test_gap_machine_matches_bfs_on_the_decoded_graph(m):
    """Every method decides every word under its default budget, and agrees with a BFS.

    Ten words of up to 2m edges, then twenty of 2m.  svfa counts and
    guesses among the m + 1 ports, so it decides each m = 7 word within
    10^4 snapshots; among all m^2 + 1 states some of them ask more than
    10^6.
    """
    machine = gap_machine(m)
    q_final = machine.n - 1
    letter_edge = dict(zip(machine.alphabet, gap_pairs(m)))
    rng = random.Random(7)
    words = ["".join(rng.choice(machine.alphabet) for _ in range(rng.randint(0, 2 * m)))
             for _ in range(10)]
    words += ["".join(rng.choice(machine.alphabet) for _ in range(2 * m)) for _ in range(20)]
    accepted = 0
    for word in words:
        edges = {letter_edge[letter] for letter in word}
        # the segment graph is the graph the word lists, plus v_{m-1}'s step into qF
        assert build_segment_graph(machine, word).edges == edges | {(m - 1, q_final)}
        expected = m - 1 in _reachable(edges, 0)
        accepted += expected
        for method in METHODS:
            assert _decide(machine, word, method, None)[0] == expected, (m, word, method)
    assert 0 < accepted < len(words)


def _textbook_agap(graph: SegmentGraph) -> bool:
    """Round-robin least fixpoint over `graph.edges`, the vacuous rule included."""
    succs = {v: [q for (p, q) in graph.edges if p == v] for v in range(graph.n)}
    good, changed = {graph.target}, True
    while changed:
        changed = False
        for v, out in succs.items():
            if v not in good and (all if v in graph.universal else any)(q in good for q in out):
                good.add(v)
                changed = True
    return graph.source in good


def test_rows_deciders_match_textbook_reachability_over_edges():
    """gap and agap on random rows graphs equal BFS and textbook AGAP over the edge view.

    Rows of 0 to 3 entries drawn from the states and None; a universal
    vertex with an empty row or a None entry carries the lock in `edges`,
    so the vacuous rule never meets one.
    """
    rng = random.Random(33)
    empty_universal = dead_universal = accepted = 0
    for _ in range(2000):
        n = rng.randint(1, 7)
        rows = tuple(tuple(rng.choice([*range(n), None]) for _ in range(rng.randint(0, 3)))
                     for _ in range(n))
        universal = frozenset(v for v in range(n) if rng.random() < 0.5)
        names = tuple(f"s{v}" for v in range(n))
        source, target = rng.randrange(n), rng.randrange(n)
        plain = SegmentGraph(names, rows, None, source, target)
        partitioned = SegmentGraph(names, rows, universal, source, target)
        expected = target in _reachable(plain.edges, source)
        assert gap_decide(plain) == gap_decide(partitioned) == expected, rows
        verdict = agap_decide(partitioned)
        assert verdict == _textbook_agap(partitioned), (rows, universal, source, target)
        accepted += verdict
        empty_universal += any(not rows[v] for v in universal)
        dead_universal += any(None in rows[v] for v in universal)
    assert min(empty_universal, dead_universal, accepted, 2000 - accepted) >= 100
