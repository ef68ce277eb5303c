"""Shared corpora of randomly generated machines, and two scalable sweepers.

Three random families: raw outer-choice machines (arbitrary stationary
moves and endmarker choices, accepting sets sometimes empty), machines
generated directly in the strict normal form, and partitioned machines
generated in the relaxed normal form.  All generators are seeded, so every
run of the suite sees the same corpus.  The sweepers (`mod_p_sweeper`,
`chain_sweeper`) are strict-normal-form machines whose backward trees run
the whole length of long words.  Every state of `port_ring` is a port (it
has a choice at `<`, or accepts), so the stack machine guesses midpoints
among all of them.  `gap_machine(m)` decides reachability in the graph its
word lists, so its segment graphs are arbitrary graphs on m vertices.
`INITIAL_ACCEPTING` holds two strict-normal-form documents whose initial
state is the accepting one.
Every generator puts the accepting state last; `accepting_at` renumbers a
machine to move it elsewhere, and `universal_twin` makes its initial state
universal.
"""

import random
import re
import string

import pytest

from outerfa.core import LEFT, LEFT_ENDMARKER, RIGHT, RIGHT_ENDMARKER, STAY, TwoWayAutomaton
from outerfa.normalform import check_normal_form


INITIAL_ACCEPTING = {
    "one_state": "type: onfa\nalphabet: a\nstates: q\ninitial: q\naccepting: q\n",
    "two_states": ("type: onfa\nalphabet: a\nstates: q x\ninitial: q\naccepting: q\n"
                   "trans: x < q S\n"),
}


def assert_dot_wellformed(text: str) -> None:
    """Minimal DOT grammar check: header, quoted ids, node/edge statements."""
    lines = text.strip().splitlines()
    assert lines[0] == "digraph segments {"
    assert lines[-1] == "}"
    quoted = r'"(?:[^"\\]|\\.)*"'
    node = re.compile(rf"^  {quoted} \[[a-z]+=[a-z]+(?:, [a-z]+=[a-z]+)*\];$")
    edge = re.compile(rf"^  {quoted} -> {quoted};$")
    attr = re.compile(r"^  [a-z]+=[A-Za-z]+;$")
    for line in lines[1:-1]:
        assert node.match(line) or edge.match(line) or attr.match(line), line


def mod_p_sweeper(periods: tuple[int, ...]) -> TwoWayAutomaton:
    """Pick p at the left endmarker, count letters mod p going right, accept iff p divides |w|."""
    n = 2 + sum(periods) + len(periods)
    q_final = n - 1
    names = ["qI"]
    delta = {(0, LEFT_ENDMARKER): []}
    for p in periods:
        base = len(names)
        back = base + p
        names += [f"c{p}_{i}" for i in range(p)] + [f"r{p}"]
        delta[(0, LEFT_ENDMARKER)].append((base, RIGHT))
        for i in range(p):
            delta[(base + i, "a")] = [(base + (i + 1) % p, RIGHT)]
        delta[(base, RIGHT_ENDMARKER)] = [(back, LEFT)]
        delta[(back, "a")] = [(back, LEFT)]
        delta[(back, LEFT_ENDMARKER)] = [(q_final, STAY)]
    return TwoWayAutomaton(names + ["qF"], "a", delta, 0, [q_final], declared_flavor="onfa")


def chain_sweeper(k: int) -> TwoWayAutomaton:
    """k right-and-back sweeps in a row; the k-th rightward sweep halts on a b."""
    q_final = 2 * k + 1
    names = ["qI"] + [f"{kind}{j}" for j in range(1, k + 1) for kind in "fb"] + ["qF"]
    delta = {(0, LEFT_ENDMARKER): [(1, RIGHT)]}
    for j in range(1, k + 1):
        fwd, back = 2 * j - 1, 2 * j
        for letter in ("a" if j == k else "ab"):
            delta[(fwd, letter)] = [(fwd, RIGHT)]
        for letter in "ab":
            delta[(back, letter)] = [(back, LEFT)]
        delta[(fwd, RIGHT_ENDMARKER)] = [(back, LEFT)]
        delta[(back, LEFT_ENDMARKER)] = [(q_final, STAY) if j == k else (fwd + 2, RIGHT)]
    return TwoWayAutomaton(names, "ab", delta, 0, [q_final], declared_flavor="onfa")


def port_ring(n: int) -> TwoWayAutomaton:
    """n - 1 states in a ring, each launching the next at `<`, and an accepting state none reaches.

    Each launch steps back onto `<` at once, so on every word the segments
    run q_i -> q_(i+1 mod n-1) and the machine rejects.  Every state is a
    port, so the stack machine scans every midpoint of every frame over all
    n states.
    """
    m = n - 1
    delta = {}
    for i in range(m):
        delta[(i, LEFT_ENDMARKER)] = [((i + 1) % m, RIGHT)]
        delta[(i, "a")] = delta[(i, RIGHT_ENDMARKER)] = [(i, LEFT)]
    return TwoWayAutomaton([f"q{i}" for i in range(m)] + ["qF"], "a", delta, 0, [m],
                           declared_flavor="onfa")


def gap_pairs(m: int) -> list[tuple[int, int]]:
    """The edges (i, j), i != j, of `gap_machine(m)`, in the order of its letters."""
    return [(i, j) for i in range(m) for j in range(m) if i != j]


def gap_machine(m: int) -> TwoWayAutomaton:
    """Graph reachability: accept iff vertex m - 1 is reachable from vertex 0.

    The word is a list of edges, one letter e(i, j) per ordered pair i != j
    (a-z then A-Z, so m <= 7).  At `<` v_i guesses an edge (i, j) and scans
    right as c(i, j); on e(i, j) it walks back left as v_j, and on `>` it
    halts.  v_{m-1} may also enter qF.  n = m^2 + 1, in strict normal form as
    built, and the segment graph of a word is the graph the word lists.
    """
    pairs = gap_pairs(m)
    letters = string.ascii_letters[:len(pairs)]
    if len(letters) < len(pairs):
        raise ValueError("gap_machine has single-letter edges only up to m = 7")
    c = {pair: m + index for index, pair in enumerate(pairs)}
    q_final = m + len(pairs)
    delta = {(i, LEFT_ENDMARKER): [(c[(i, j)], RIGHT) for j in range(m) if j != i]
             for i in range(m)}
    delta[(m - 1, LEFT_ENDMARKER)].append((q_final, STAY))
    for v in range(m):
        for letter in letters:
            delta[(v, letter)] = [(v, LEFT)]
    for (i, j), letter in zip(pairs, letters):
        for other in letters:
            delta[(c[(i, j)], other)] = [(j, LEFT) if other == letter else (c[(i, j)], RIGHT)]
    names = [f"v{i}" for i in range(m)] + [f"c{i}_{j}" for (i, j) in pairs] + ["qF"]
    return TwoWayAutomaton(names, letters, delta, 0, [q_final], declared_flavor="onfa")


def universal_twin(machine: TwoWayAutomaton) -> TwoWayAutomaton:
    """The same machine with its initial state universal: a mod-p sweeper's twin picks every p at once."""
    return TwoWayAutomaton(machine.state_names, machine.alphabet, machine.delta,
                           machine.initial, machine.accepting, universal=[machine.initial])


def permute_states(machine: TwoWayAutomaton, order: list[int]) -> TwoWayAutomaton:
    """The same machine with its states renumbered: its state order[i] becomes state i."""
    new = {old: i for i, old in enumerate(order)}
    return TwoWayAutomaton(
        state_names=[machine.state_names[q] for q in order],
        alphabet=machine.alphabet,
        delta={(new[q], sym): [(new[p], d) for (p, d) in succs]
               for (q, sym), succs in machine.delta.items()},
        initial=new[machine.initial],
        accepting=[new[q] for q in machine.accepting],
        rejecting=[new[q] for q in machine.rejecting],
        universal=[new[q] for q in machine.universal],
        declared_flavor=machine.declared_flavor,
    )


def accepting_at(machine: TwoWayAutomaton, position: int) -> TwoWayAutomaton:
    """A normal-form machine renumbered so that its one accepting state has id `position`."""
    (q_final,) = machine.accepting
    order = [q for q in range(machine.n) if q != q_final]
    order.insert(position, q_final)
    return permute_states(machine, order)


def random_onfa(seed: int, n_max: int = 5, alphabet: str = "ab") -> TwoWayAutomaton:
    """Outer-choice machine with unconstrained stationary moves and finals."""
    rng = random.Random(seed)
    n = rng.randint(2, n_max)
    delta = {}
    for q in range(n):
        for a in alphabet:
            if rng.random() < 0.7:
                delta[(q, a)] = [(rng.randrange(n), rng.choice((LEFT, STAY, RIGHT)))]
        left = set()
        for _ in range(rng.choice((0, 1, 1, 2))):
            left.add((rng.randrange(n), rng.choice((STAY, RIGHT))))
        if left:
            delta[(q, LEFT_ENDMARKER)] = sorted(left)
        right = set()
        for _ in range(rng.choice((0, 1, 1, 2))):
            right.add((rng.randrange(n), rng.choice((LEFT, STAY))))
        if right:
            delta[(q, RIGHT_ENDMARKER)] = sorted(right)
    accepting = [q for q in range(n) if rng.random() < 0.35]
    return TwoWayAutomaton(
        state_names=[f"q{i}" for i in range(n)],
        alphabet=alphabet,
        delta=delta,
        initial=0,
        accepting=accepting,
        declared_flavor="onfa",
    )


def random_oafa(seed: int, n_max: int = 4, alphabet: str = "ab") -> TwoWayAutomaton:
    """Outer-choice machine with a random universal set on top."""
    base = random_onfa(seed, n_max=n_max, alphabet=alphabet)
    rng = random.Random(seed ^ 0x5F5F)
    universal = [q for q in range(base.n) if rng.random() < 0.4]
    return TwoWayAutomaton(
        state_names=base.state_names,
        alphabet=base.alphabet,
        delta=base.delta,
        initial=base.initial,
        accepting=base.accepting,
        universal=universal,
        declared_flavor="oafa",
    )


def random_nf_onfa(seed: int, n_max: int = 5, alphabet: str = "ab") -> TwoWayAutomaton:
    """Machine generated directly in the strict normal form."""
    rng = random.Random(seed)
    n = rng.randint(2, n_max)
    q_final = n - 1
    delta = {}
    for q in range(n - 1):
        for a in alphabet:
            if rng.random() < 0.7:
                delta[(q, a)] = [(rng.randrange(n - 1), rng.choice((LEFT, RIGHT)))]
        left = set()
        for _ in range(rng.choice((0, 1, 1, 2))):
            left.add((rng.randrange(n - 1), RIGHT))
        if rng.random() < 0.35:
            left.add((q_final, STAY))
        if left:
            delta[(q, LEFT_ENDMARKER)] = sorted(left)
        if rng.random() < 0.6:
            delta[(q, RIGHT_ENDMARKER)] = [(rng.randrange(n - 1), LEFT)]
    machine = TwoWayAutomaton(
        state_names=[f"q{i}" for i in range(n)],
        alphabet=alphabet,
        delta=delta,
        initial=0,
        accepting=[q_final],
        declared_flavor="onfa",
    )
    assert check_normal_form(machine, alternating=False).all_properties
    return machine


def random_nf_oafa(seed: int, n_max: int = 4, alphabet: str = "ab") -> TwoWayAutomaton:
    """Partitioned machine generated directly in the relaxed normal form."""
    rng = random.Random(seed)
    n = rng.randint(2, n_max)
    q_final = n - 1
    delta = {}
    for q in range(n - 1):
        for a in alphabet:
            if rng.random() < 0.7:
                delta[(q, a)] = [(rng.randrange(n - 1), rng.choice((LEFT, RIGHT)))]
        left = set()
        for _ in range(rng.choice((0, 1, 2, 2))):
            if rng.random() < 0.3:
                left.add((rng.randrange(n), STAY))  # stationary at the left endmarker
            else:
                left.add((rng.randrange(n - 1), RIGHT))
        if left:
            delta[(q, LEFT_ENDMARKER)] = sorted(left)
        if rng.random() < 0.6:
            delta[(q, RIGHT_ENDMARKER)] = [(rng.randrange(n - 1), LEFT)]
    universal = [q for q in range(n - 1) if rng.random() < 0.4]
    machine = TwoWayAutomaton(
        state_names=[f"q{i}" for i in range(n)],
        alphabet=alphabet,
        delta=delta,
        initial=0,
        accepting=[q_final],
        universal=universal,
        declared_flavor="oafa",
    )
    assert check_normal_form(machine, alternating=True).all_properties
    return machine


def _has_mixed_language(machine: TwoWayAutomaton, oracle) -> bool:
    """Both an accepted and a rejected word among the short ones."""
    from outerfa.core import all_words

    seen = set()
    for word in all_words(machine.alphabet, 3):
        seen.add(oracle(machine, word))
        if len(seen) == 2:
            return True
    return False


def _filtered(generator, seeds, oracle, want: int) -> list[TwoWayAutomaton]:
    picked = []
    for seed in seeds:
        machine = generator(seed)
        if _has_mixed_language(machine, oracle):
            picked.append(machine)
            if len(picked) == want:
                return picked
    raise RuntimeError("seed range exhausted before the corpus filled up")


@pytest.fixture(scope="session")
def raw_corpus() -> list[TwoWayAutomaton]:
    """220 raw machines: mostly with mixed languages, a tail of degenerate ones."""
    from outerfa.core import accepts_oracle

    mixed = _filtered(random_onfa, range(10_000), accepts_oracle, 170)
    return mixed + [random_onfa(seed) for seed in range(50)]


@pytest.fixture(scope="session")
def raw_alt_corpus() -> list[TwoWayAutomaton]:
    from outerfa.core import alternating_accepts_oracle

    mixed = _filtered(random_oafa, range(1000, 9000), alternating_accepts_oracle, 30)
    return mixed + [random_oafa(seed) for seed in range(1000, 1010)]


@pytest.fixture(scope="session")
def nf_corpus() -> list[TwoWayAutomaton]:
    from outerfa.core import accepts_oracle

    mixed = _filtered(random_nf_onfa, range(2000, 9000), accepts_oracle, 54)
    return mixed + [random_nf_onfa(seed) for seed in range(2000, 2006)]


@pytest.fixture(scope="session")
def alt_nf_corpus() -> list[TwoWayAutomaton]:
    from outerfa.core import alternating_accepts_oracle

    mixed = _filtered(random_nf_oafa, range(3000, 9000), alternating_accepts_oracle, 34)
    return mixed + [random_nf_oafa(seed) for seed in range(3000, 3006)]
