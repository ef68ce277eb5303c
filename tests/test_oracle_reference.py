"""The integer-id oracles of `core` against their `Configuration`/`step` originals.

The reference oracles live in `reference.py`: they are the oracles as they
were before `core` indexed configurations as integers.
"""

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

    graphs = []
    solver = core.and_or_reach

    def recording(succs, goals, is_universal):
        graphs.append(succs)
        return solver(succs, goals, is_universal)

    monkeypatch.setattr(core, "and_or_reach", recording)
    assert not alternating_accepts_oracle(machine, "aba")
    succs, = graphs
    states = {c % n for c in succs}
    assert l1 not in states and l2 not in states  # the unreached loop is left out
    dead = 2 * n + u  # (u, 2): u under the b of "aba"
    assert succs[dead] == []
    assert len(succs) < n * (len("aba") + 2)
