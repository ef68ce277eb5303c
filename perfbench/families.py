"""Machine families the benchmark feeds to the library, as plain data.

A `Spec` is the benchmark's own description of a two-way automaton: it is
written out in the library's text format (`Spec.text`) and read by the
independent evaluator in `reference`, so neither the inputs nor the expected
verdicts pass through the code under test.

Scalable families, each with a closed-form language over words a^k or {a, b}*:

- `mod_p_sweeper(P)`: accepts a^k iff p | k for some p in P;
  n = 2 + sum(P) + |P|, strict normal form.
- `mod_p_sweeper(P, universal=True)`: the same table with a universal qI;
  accepts a^k iff p | k for every p in P.
- `chain_sweeper(k)`: n = 2k + 2, deterministic, makes k full sweeps and
  accepts with a stationary move iff the word has no b (only the last sweep
  looks at the letters).  It has no restart choices at the left endmarker:
  with them the self-verifying simulation explores more than 10^6 branches
  already at k = 3, |w| = 100.

Random families, mirroring the seeded corpora of the test suite:
`random_onfa` (raw), `random_oafa` (raw with a universal set),
`random_nf_onfa` (strict normal form) and `random_nf_oafa` (relaxed normal
form with universal states).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

L, S, R = -1, 0, 1
LEFT_END, RIGHT_END = "<", ">"
_DIR_LETTER = {L: "L", S: "S", R: "R"}


@dataclass
class Spec:
    """A two-way automaton as data: delta maps (state, symbol) to (state, move) pairs."""

    name: str
    flavor: str
    alphabet: str
    states: list[str]
    initial: int
    accepting: frozenset[int]
    universal: frozenset[int] = frozenset()
    delta: dict[tuple[int, str], tuple[tuple[int, int], ...]] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.states)

    def text(self) -> str:
        """The machine in the library's `key: value` text format."""
        names = self.states
        lines = [
            f"type: {self.flavor}",
            f"alphabet: {' '.join(self.alphabet)}",
            f"states: {' '.join(names)}",
            f"initial: {names[self.initial]}",
            f"accepting: {' '.join(names[q] for q in sorted(self.accepting))}",
        ]
        if self.universal:
            lines.append(f"universal: {' '.join(names[q] for q in sorted(self.universal))}")
        for (q, sym), succs in sorted(self.delta.items()):
            for (p, d) in succs:
                lines.append(f"trans: {names[q]} {sym} {names[p]} {_DIR_LETTER[d]}")
        return "\n".join(lines) + "\n"


def _freeze(delta: dict) -> dict[tuple[int, str], tuple[tuple[int, int], ...]]:
    return {key: tuple(sorted(set(succs))) for key, succs in delta.items() if succs}


def mod_p_sweeper(periods: tuple[int, ...], universal: bool = False) -> Spec:
    """Pick p at the left endmarker, count mod p going right, return left to accept."""
    names = ["qI"]
    delta: dict[tuple[int, str], list[tuple[int, int]]] = {}
    launches = []
    for p in periods:
        base = len(names)
        names.extend(f"c{p}_{i}" for i in range(p))
        names.append(f"r{p}")
        back = base + p
        launches.append((base, R))
        for i in range(p):
            delta[(base + i, "a")] = [(base + (i + 1) % p, R)]
        delta[(base, RIGHT_END)] = [(back, L)]
        delta[(back, "a")] = [(back, L)]
    q_final = len(names)
    names.append("qF")
    for p_index, p in enumerate(periods):
        back = launches[p_index][0] + p
        delta[(back, LEFT_END)] = [(q_final, S)]
    delta[(0, LEFT_END)] = launches
    tag = "all" if universal else "any"
    return Spec(
        name=f"modp_{tag}_{'_'.join(map(str, periods))}",
        flavor="oafa" if universal else "onfa",
        alphabet="a",
        states=names,
        initial=0,
        accepting=frozenset([q_final]),
        universal=frozenset([0]) if universal else frozenset(),
        delta=_freeze(delta),
    )


def mod_p_accepts(periods: tuple[int, ...], universal: bool, length: int) -> bool:
    """Closed-form language of `mod_p_sweeper` on a^length."""
    hits = [length % p == 0 for p in periods]
    return all(hits) if universal else any(hits)


def mod_p_size(periods: tuple[int, ...]) -> int:
    return 2 + sum(periods) + len(periods)


def chain_sweeper(k: int) -> Spec:
    """k right-and-back sweeps in a row; the k-th rightward sweep halts on a b."""
    names = ["qI"]
    for j in range(1, k + 1):
        names += [f"f{j}", f"b{j}"]
    q_final = len(names)
    names.append("qF")
    delta: dict[tuple[int, str], list[tuple[int, int]]] = {(0, LEFT_END): [(1, R)]}
    for j in range(1, k + 1):
        fwd, back = 2 * j - 1, 2 * j
        letters = "a" if j == k else "ab"
        for letter in letters:
            delta[(fwd, letter)] = [(fwd, R)]
        for letter in "ab":
            delta[(back, letter)] = [(back, L)]
        delta[(fwd, RIGHT_END)] = [(back, L)]
        delta[(back, LEFT_END)] = [(q_final, S)] if j == k else [(fwd + 2, R)]
    return Spec(
        name=f"chain_{k}",
        flavor="onfa",
        alphabet="ab",
        states=names,
        initial=0,
        accepting=frozenset([q_final]),
        delta=_freeze(delta),
    )


def chain_accepts(word: str) -> bool:
    """Closed-form language of `chain_sweeper`: words without a b."""
    return "b" not in word


def random_onfa(rng: random.Random, n: int, alphabet: str = "ab") -> Spec:
    """Outer-choice machine with unconstrained stationary moves and accepting set."""
    delta: dict[tuple[int, str], list[tuple[int, int]]] = {}
    for q in range(n):
        for a in alphabet:
            if rng.random() < 0.7:
                delta[(q, a)] = [(rng.randrange(n), rng.choice((L, S, R)))]
        delta[(q, LEFT_END)] = [(rng.randrange(n), rng.choice((S, R)))
                                for _ in range(rng.choice((0, 1, 1, 2)))]
        delta[(q, RIGHT_END)] = [(rng.randrange(n), rng.choice((L, S)))
                                 for _ in range(rng.choice((0, 1, 1, 2)))]
    accepting = frozenset(q for q in range(n) if rng.random() < 0.35)
    return Spec("raw_onfa", "onfa", alphabet, [f"q{i}" for i in range(n)], 0,
                accepting, delta=_freeze(delta))


def random_oafa(rng: random.Random, n: int, alphabet: str = "ab") -> Spec:
    """`random_onfa` with a random universal set on top."""
    base = random_onfa(rng, n, alphabet)
    base.name, base.flavor = "raw_oafa", "oafa"
    base.universal = frozenset(q for q in range(base.n) if rng.random() < 0.4)
    return base


def random_nf_onfa(rng: random.Random, n: int, alphabet: str = "ab") -> Spec:
    """Machine generated directly in the strict normal form."""
    q_final = n - 1
    delta: dict[tuple[int, str], list[tuple[int, int]]] = {}
    for q in range(n - 1):
        for a in alphabet:
            if rng.random() < 0.7:
                delta[(q, a)] = [(rng.randrange(n - 1), rng.choice((L, R)))]
        left = [(rng.randrange(n - 1), R) for _ in range(rng.choice((0, 1, 1, 2)))]
        if rng.random() < 0.35:
            left.append((q_final, S))
        delta[(q, LEFT_END)] = left
        if rng.random() < 0.6:
            delta[(q, RIGHT_END)] = [(rng.randrange(n - 1), L)]
    return Spec("nf_onfa", "onfa", alphabet, [f"q{i}" for i in range(n)], 0,
                frozenset([q_final]), delta=_freeze(delta))


def random_nf_oafa(rng: random.Random, n: int, alphabet: str = "ab") -> Spec:
    """Partitioned machine generated directly in the relaxed normal form."""
    q_final = n - 1
    delta: dict[tuple[int, str], list[tuple[int, int]]] = {}
    for q in range(n - 1):
        for a in alphabet:
            if rng.random() < 0.7:
                delta[(q, a)] = [(rng.randrange(n - 1), rng.choice((L, R)))]
        left = []
        for _ in range(rng.choice((0, 1, 2, 2))):
            if rng.random() < 0.3:
                left.append((rng.randrange(n), S))
            else:
                left.append((rng.randrange(n - 1), R))
        delta[(q, LEFT_END)] = left
        if rng.random() < 0.6:
            delta[(q, RIGHT_END)] = [(rng.randrange(n - 1), L)]
    universal = frozenset(q for q in range(n - 1) if rng.random() < 0.4)
    return Spec("nf_oafa", "oafa", alphabet, [f"q{i}" for i in range(n)], 0,
                frozenset([q_final]), universal=universal, delta=_freeze(delta))
