"""The integer-id oracles of `core` against their `Configuration`/`step` originals.

The reference oracles live in `reference.py`: they are the oracles as they
were before `core` indexed configurations as integers.
"""

import ast
import importlib
import inspect

import pytest

from outerfa import (
    LEFT,
    RIGHT,
    STAY,
    TwoWayAutomaton,
    accepts_oracle,
    all_words,
    alternating_accepts_oracle,
    segment_exists_oracle,
)
from outerfa import core

from conftest import mod_p_sweeper, universal_twin
from reference import reference_accepts, reference_alternating, reference_segment

reach = importlib.import_module("outerfa.reach")  # the package also exports a function `reach`

PERIODS = (3, 5, 7)


def test_accepts_oracle_matches_reference(raw_corpus, nf_corpus):
    checked = accepted = 0
    for machine in raw_corpus + nf_corpus:
        for word in all_words(machine.alphabet, 3):
            verdict = accepts_oracle(machine, word)
            assert verdict == reference_accepts(machine, word), (machine, word)
            checked += 1
            accepted += verdict
    assert 0 < accepted < checked


def test_segment_oracle_matches_reference(raw_corpus, nf_corpus, raw_alt_corpus, alt_nf_corpus):
    found = 0
    for machine in raw_corpus + nf_corpus + raw_alt_corpus + alt_nf_corpus:
        for word in all_words(machine.alphabet, 3):
            for p in range(machine.n):
                for q in range(machine.n):
                    verdict = segment_exists_oracle(machine, word, p, q)
                    assert verdict == reference_segment(machine, word, p, q), (machine, word, p, q)
                    found += verdict
    assert found


def test_segment_oracle_rejects_unknown_states(nf_corpus):
    machine = nf_corpus[0]
    for p, q in ((machine.n, 0), (0, machine.n), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="unknown state id"):
            segment_exists_oracle(machine, "ab", p, q)


def test_alternating_oracle_matches_reference(raw_corpus, nf_corpus, raw_alt_corpus,
                                              alt_nf_corpus):
    for machine in raw_corpus + nf_corpus + raw_alt_corpus + alt_nf_corpus:
        for word in all_words(machine.alphabet, 3):
            assert alternating_accepts_oracle(machine, word) == \
                reference_alternating(machine, word), (machine, word)


def test_oracles_stay_independent_of_the_constructions(monkeypatch, nf_corpus, alt_nf_corpus):
    # the oracles are the ground truth the constructions are checked
    # against, so they must reach none of them: no import from the package,
    # no call into the machine index, the controller or the return table,
    # and nothing kept in the machine's memo but their own successor table
    imports = [node for node in ast.walk(ast.parse(inspect.getsource(core)))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not [node for node in imports if isinstance(node, ast.ImportFrom) and node.level]
    assert not [node for node in imports
                if "outerfa" in (getattr(node, "module", None) or "")
                or any("outerfa" in alias.name for alias in node.names)]

    def refusing(name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"an oracle called reach.{name}")
        return refuse

    for name in ("return_table", "machine_index", "build_controller"):
        monkeypatch.setattr(reach, name, refusing(name))
    for source in nf_corpus[:8] + alt_nf_corpus[:8]:
        machine = TwoWayAutomaton(source.state_names, source.alphabet, source.delta,
                                  source.initial, source.accepting, universal=source.universal)
        for word in all_words(machine.alphabet, 3):
            if not machine.universal:
                assert accepts_oracle(machine, word) == reference_accepts(machine, word)
            assert alternating_accepts_oracle(machine, word) == \
                reference_alternating(machine, word), (machine, word)
            for p in range(machine.n):
                for q in range(machine.n):
                    assert segment_exists_oracle(machine, word, p, q) == \
                        reference_segment(machine, word, p, q)
        assert list(machine._derived) == [core._offset_table]  # the oracles' own table alone


def sweeper_lengths():
    """Every length through two periods of 105, then multiples of 105 and their neighbours."""
    long = {m + e for m in range(315, 1001, 105) for e in (-1, 0, 1)}
    return sorted(set(range(211)) | {x for x in long if x <= 1000} | {1000})


def test_sweepers_match_closed_forms():
    existential = mod_p_sweeper(PERIODS)
    universal = universal_twin(existential)
    for length in sweeper_lengths():
        word = "a" * length
        assert alternating_accepts_oracle(universal, word) == \
            all(length % p == 0 for p in PERIODS), length
        assert accepts_oracle(existential, word) == any(length % p == 0 for p in PERIODS), length
    for length in (0, 1, 5, 15, 21, 35, 104, 105, 945, 1000):
        word = "a" * length
        assert alternating_accepts_oracle(universal, word) == reference_alternating(universal, word)
        assert accepts_oracle(existential, word) == reference_accepts(existential, word)


def dead_end_oafa():
    """qI universally launches x and u; u dies on a b, x always returns; l1, l2 loop unreached.

    Accepts exactly the words without a b.  The universal state u has no
    move on b, so (u, i) under a b is a dead universal configuration; the
    loop (l1, 0) -> (l2, 1) -> (l1, 0) could accept through its exit to qF,
    but nothing reaches it from (qI, 0).
    """
    names = ["qI", "x", "u", "r", "qF", "l1", "l2"]
    q_i, x, u, r, q_f, l1, l2 = range(len(names))
    delta = {
        (q_i, "<"): [(x, RIGHT), (u, RIGHT)],
        (x, "a"): [(x, RIGHT)],
        (x, "b"): [(x, RIGHT)],
        (x, ">"): [(r, LEFT)],
        (u, "a"): [(u, RIGHT)],
        (u, ">"): [(r, LEFT)],
        (r, "a"): [(r, LEFT)],
        (r, "b"): [(r, LEFT)],
        (r, "<"): [(q_f, STAY)],
        (l1, "<"): [(l2, RIGHT), (q_f, STAY)],
        (l2, "a"): [(l1, LEFT)],
        (l2, "b"): [(l1, LEFT)],
    }
    return TwoWayAutomaton(names, "ab", delta, q_i, [q_f], universal=[q_i, u, l2])


def solved_graph(monkeypatch, machine, word):
    """The successor lists `and_or_reach` solves when the alternating oracle decides `word`."""
    graphs = []
    solver = core.and_or_reach

    def recording(succs, goals, is_universal):
        graphs.append(succs)
        return solver(succs, goals, is_universal)

    monkeypatch.setattr(core, "and_or_reach", recording)
    verdict = alternating_accepts_oracle(machine, word)
    monkeypatch.setattr(core, "and_or_reach", solver)
    assert verdict == reference_alternating(machine, word)
    succs, = graphs
    return succs


def test_alternating_oracle_on_dead_end_and_unreached_loop(monkeypatch):
    machine = dead_end_oafa()
    n = machine.n
    u, l1, l2 = (machine.state_names.index(name) for name in ("u", "l1", "l2"))
    # started at (l1, 0), the loop's exit accepts whatever the word
    moved = TwoWayAutomaton(machine.state_names, machine.alphabet, machine.delta, l1,
                            machine.accepting, universal=machine.universal)
    for word in all_words("ab", 4):
        expected = "b" not in word
        assert alternating_accepts_oracle(machine, word) == \
            reference_alternating(machine, word) == expected, word
        assert alternating_accepts_oracle(moved, word) and reference_alternating(moved, word)

    succs = solved_graph(monkeypatch, machine, "aba")
    states = {c % n for c in succs}
    assert l1 not in states and l2 not in states  # the unreached loop is left out
    dead = 2 * n + u  # (u, 2): u under the b of "aba"
    assert succs[dead] == []
    # x's sweep contracts into one edge to (qF, 0), u's run into one to (u, 2)
    q_f = machine.state_names.index("qF")
    assert succs == {machine.initial: [q_f, dead], q_f: [], dead: []}


def named_machine(names, delta, universal=(), accepting=("qF",)):
    """A machine over "ab" from transitions between state names; qI is initial."""
    ids = {name: i for i, name in enumerate(names)}
    return TwoWayAutomaton(
        names, "ab",
        {(ids[q], sym): [(ids[p], d) for (p, d) in moves] for (q, sym), moves in delta.items()},
        ids["qI"], [ids[q] for q in accepting], universal=[ids[q] for q in universal])


def on(states, symbols, move):
    """The same move for each state in `states` on each symbol in `symbols`."""
    return {(q, sym): [move] for q in states.split() for sym in symbols}


SWEEP_BACK = {**on("r", "ab", ("r", LEFT)), ("r", "<"): [("qF", STAY)]}

# Each machine puts one shape of one-move chain under the contraction; the
# graph is the one `and_or_reach` solves for "ab", whose tape is "<ab>", with
# configurations written (state, head).
CONTRACTIONS = {
    # y sweeps right and z steps back onto the b: (y, 2) -> (z, 3) -> (y, 2)
    # loops through universal configurations with one successor each
    "loop_under_universal": (
        named_machine(["qI", "x", "r", "y", "z", "qF"], {
            ("qI", "<"): [("x", RIGHT), ("y", RIGHT)],
            **on("x", "ab", ("x", RIGHT)), ("x", ">"): [("r", LEFT)], **SWEEP_BACK,
            ("y", "a"): [("y", RIGHT)], ("y", "b"): [("z", RIGHT)], ("y", ">"): [("r", LEFT)],
            **on("z", "ab>", ("y", LEFT)),
        }, universal=["qI", "y", "z"]),
        lambda w: "b" not in w, lambda w: True,
        {("qI", 0): [("qF", 0), ("y", 2)], ("qF", 0): [], ("y", 2): [("y", 2)]}),
    # x and y both step onto (t, 2) on a first a, so y's chain ends where x's does
    "merging_chains": (
        named_machine(["qI", "x", "y", "t", "r", "qF"], {
            ("qI", "<"): [("x", RIGHT), ("y", RIGHT)],
            ("x", "a"): [("t", RIGHT)], **on("y", "ab", ("t", RIGHT)),
            **on("t", "ab", ("t", RIGHT)), ("t", ">"): [("r", LEFT)], **SWEEP_BACK,
        }, universal=["qI"]),
        lambda w: w[:1] == "a", lambda w: w != "",
        {("qI", 0): [("qF", 0), ("qF", 0)], ("qF", 0): []}),
    # u is universal with one move per letter and none on b
    "universal_single_successor": (
        named_machine(["qI", "u", "v", "r", "qF"], {
            ("qI", "<"): [("u", RIGHT), ("v", RIGHT)],
            ("u", "a"): [("u", RIGHT)], ("u", ">"): [("r", LEFT)], **SWEEP_BACK,
            **on("v", "ab", ("v", RIGHT)),
        }, universal=["u"]),
        lambda w: "b" not in w, lambda w: "b" not in w,
        {("qI", 0): [("u", 2), ("v", 3)], ("u", 2): [], ("v", 3): []}),
    # x's sweep back dies on the last b; qI also steps straight into qF
    "chain_into_dead_end": (
        named_machine(["qI", "x", "y", "qF"], {
            ("qI", "<"): [("x", RIGHT), ("qF", STAY)],
            **on("x", "ab", ("x", RIGHT)), ("x", ">"): [("y", LEFT)],
            ("y", "a"): [("y", LEFT)], ("y", "<"): [("qF", STAY)],
        }, universal=["qI"]),
        lambda w: "b" not in w, lambda w: True,
        {("qI", 0): [("y", 2), ("qF", 0)], ("y", 2): [], ("qF", 0): []}),
    # x passes through the accepting f on a b; past it x dies at ">"
    "accepting_mid_chain": (
        named_machine(["qI", "x", "z", "r", "f"], {
            ("qI", "<"): [("x", RIGHT), ("z", RIGHT)],
            ("x", "a"): [("x", RIGHT)], ("x", "b"): [("f", RIGHT)], **on("f", "ab", ("x", RIGHT)),
            **on("z", "ab", ("z", RIGHT)), ("z", ">"): [("r", LEFT)],
            **on("r", "ab", ("r", LEFT)), ("r", "<"): [("f", STAY)],
        }, universal=["qI"], accepting=["f"]),
        lambda w: "b" in w, lambda w: True,
        {("qI", 0): [("f", 3), ("f", 0)], ("f", 3): [], ("f", 0): []}),
    # qI's one move starts x's sweep; on a b universal x also sends y back
    # to the left endmarker, where y steps into qI again
    "start_re_entered": (
        named_machine(["qI", "x", "y", "qF"], {
            ("qI", "<"): [("x", RIGHT)],
            ("x", "a"): [("x", RIGHT)], ("x", "b"): [("x", RIGHT), ("y", LEFT)],
            ("x", ">"): [("qF", STAY)],
            **on("y", "ab", ("y", LEFT)), ("y", "<"): [("qI", STAY)],
        }, universal=["x"]),
        lambda w: "b" not in w, lambda w: True,
        {("qI", 0): [("x", 2)], ("x", 2): [("qF", 3), ("qI", 0)], ("qF", 3): []}),
}


@pytest.mark.parametrize("case", CONTRACTIONS)
def test_alternating_oracle_contracts_one_move_chains(case, monkeypatch):
    machine, alternating, existential, graph = CONTRACTIONS[case]
    plain = TwoWayAutomaton(machine.state_names, machine.alphabet, machine.delta,
                            machine.initial, machine.accepting)
    for word in all_words("ab", 5):
        assert alternating_accepts_oracle(machine, word) == \
            reference_alternating(machine, word) == alternating(word), word
        assert accepts_oracle(plain, word) == alternating_accepts_oracle(plain, word) == \
            reference_accepts(plain, word) == existential(word), word

    succs = solved_graph(monkeypatch, machine, "ab")
    n = machine.n
    named = {(machine.state_names[c % n], c // n): [(machine.state_names[s % n], s // n)
                                                    for s in out]
             for c, out in succs.items()}
    assert named == graph
