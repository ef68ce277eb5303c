"""The four benchmark workloads, generated from a seed.

A workload is a list of machines (`Spec`s plus which normal forms their
methods need) and a list of decision items (machine, word, method, expected
verdict).  Machine sizes and word lengths are stratified over fixed grids,
and only the choices inside each stratum come from the seed, so different
seeds give workloads with the same cost profile.  Expected verdicts come
from the closed-form languages for the scalable families and from the
independent evaluator in `reference` for the random corpora; the closed
forms are cross-checked against the evaluator on short words every time a
workload is built.

Why each workload exists:

- sweep_long: mod-p sweepers (n <= 17) and a chain sweeper (k = 3) on
  words of 200 to 1000 letters, a third accepted, all five methods.  The per-word segment
  relation (n^2 backward searches of O(n |w|) steps each) dominates gap and
  svfa, while a divide rejection is still cheap below n = 18.
- divide_deep: sweepers with n = 10..18 on words of at most 30 letters,
  mostly rejected, all five methods.  detsim's stack machine does 10^4 to
  10^6 base calls per rejection (its height steps from 4 to 5 at n = 18)
  while the segment relation is cheap, so a faster segment relation should
  leave divide latency flat here.
- alt_long: mod-p sweepers with a universal qI and random relaxed-normal-
  form alternating machines on words of 50 to 300 letters, decided by the
  oracle and agap.  The quadratic and-or fixpoint in `core` dominates the
  oracle, while graphred builds partitioned graphs without the controller.
  The existential twin of each universal sweeper is decided by gap, svfa and
  divide on the same words plus one more, so every method has latency
  samples here too.
- corpus_small: the seeded random raw onfa (n <= 5), strict-normal-form
  onfa (n <= 4) and raw oafa (n <= 4) corpora, about a thousand machines,
  with every word up to length 2 (svfa and divide on the normal-form
  corpus, as in the test suite).  Per-call costs dominate: parse,
  normalize, the controller built inside each decide call and the
  normal-form checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from math import lcm

import reference
from families import (
    Spec,
    chain_accepts,
    chain_sweeper,
    mod_p_accepts,
    mod_p_size,
    mod_p_sweeper,
    random_nf_oafa,
    random_nf_onfa,
    random_oafa,
    random_onfa,
)

METHODS = ("oracle", "gap", "svfa", "divide", "agap")
NONDET_METHODS = ("gap", "svfa", "divide")
MIN_DECISIONS = 100  # per method, so a 90th percentile has ten samples above it


@dataclass
class Machine:
    spec: Spec
    needs_nondet_form: bool  # gap, svfa and divide run on the strict normal form
    needs_alt_form: bool  # agap runs on the relaxed normal form


@dataclass(frozen=True)
class Item:
    machine: int
    word: str
    method: str
    expected: bool


@dataclass
class Workload:
    name: str
    machines: list[Machine]
    items: list[Item]


def _periods_by_size(max_n: int) -> dict[int, list[tuple[int, ...]]]:
    catalog: dict[int, list[tuple[int, ...]]] = {}
    for size in (2, 3):
        for periods in combinations(range(2, 13), size):
            n = mod_p_size(periods)
            if n <= max_n:
                catalog.setdefault(n, []).append(periods)
    return catalog


_CATALOG = _periods_by_size(18)


def _strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One length drawn from each of `count` equal slices of [lo, hi]."""
    width = (hi - lo + 1) / count
    bounds = [(lo + int(j * width), lo + int((j + 1) * width) - 1) for j in range(count)]
    return [rng.randint(a, max(a, b)) for (a, b) in bounds]


def _lengths(rng: random.Random, lo: int, hi: int, machines: int, per_machine: int) -> list[list[int]]:
    """Ascending word lengths per machine, every machine spanning [lo, hi].

    The lengths come from machines * per_machine equal slices, and machine i
    gets slices i, i + machines, ..., so the seed moves each length only
    within a narrow slice.
    """
    lengths = _strata(rng, lo, hi, machines * per_machine)
    return [lengths[i::machines] for i in range(machines)]


def _unary_word(periods: tuple[int, ...], length: int, accept: bool, step: int) -> str:
    """a^k near `length`: k a multiple of `step` if `accept`, else divisible by no p in P."""
    if accept:
        return "a" * max(step, round(length / step) * step)
    while any(length % p == 0 for p in periods):
        length += 1
    return "a" * length


def _chain_word(rng: random.Random, length: int, accept: bool) -> str:
    if accept:
        return "a" * length
    at = rng.randrange(length)
    return "a" * at + "b" + "a" * (length - at - 1)


def _cross_check(spec: Spec, closed_form, words) -> None:
    for word in words:
        if closed_form(word) != reference.accepts(spec, word):
            raise RuntimeError(f"closed form of {spec.name} disagrees with the evaluator on {word!r}")


def _mod_p(periods: tuple[int, ...], universal: bool = False) -> Spec:
    spec = mod_p_sweeper(periods, universal)
    _cross_check(spec, lambda w: mod_p_accepts(periods, universal, len(w)),
                 ("a" * k for k in range(lcm(*periods) + 2)))
    return spec


def _chain(k: int) -> Spec:
    spec = chain_sweeper(k)
    _cross_check(spec, chain_accepts,
                 ("".join(t) for length in range(6) for t in product("ab", repeat=length)))
    return spec


class _Collector:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.machines: list[Machine] = []
        self.items: list[Item] = []

    def machine(self, spec: Spec, methods: tuple[str, ...]) -> int:
        self.machines.append(Machine(
            spec,
            needs_nondet_form=any(m in NONDET_METHODS for m in methods),
            needs_alt_form="agap" in methods,
        ))
        return len(self.machines) - 1

    def decide(self, machine: int, word: str, expected: bool, methods: tuple[str, ...]) -> None:
        self.items.extend(Item(machine, word, m, expected) for m in methods)

    def done(self) -> Workload:
        for method in METHODS:
            count = sum(item.method == method for item in self.items)
            if count < MIN_DECISIONS:
                raise RuntimeError(f"{self.name} has {count} {method} decisions, "
                                   f"fewer than {MIN_DECISIONS}")
        self.rng.shuffle(self.items)
        return Workload(self.name, self.machines, self.items)


def _sweepers(b: _Collector, modp_sizes, chain_ks, length_range, accept_pattern) -> None:
    """Mod-p and chain sweepers, one word per entry of `accept_pattern`."""
    seen: dict[int, int] = {}
    specs = []
    for n in modp_sizes:  # the period sets of one size in turn, independent of the seed
        seen[n] = seen.get(n, -1) + 1
        periods = _CATALOG[n][seen[n] % len(_CATALOG[n])]
        specs.append((_mod_p(periods), periods))
    specs += [(_chain(k), None) for k in chain_ks]
    rows = _lengths(b.rng, *length_range, len(specs), len(accept_pattern))
    for (spec, periods), row in zip(specs, rows):
        index = b.machine(spec, METHODS)
        for length, accept in zip(row, accept_pattern):
            if periods is None:
                word = _chain_word(b.rng, length, accept)
                expected = chain_accepts(word)
            else:
                word = _unary_word(periods, length, accept, min(periods))
                expected = mod_p_accepts(periods, False, len(word))
            b.decide(index, word, expected, METHODS)


def sweep_long(seed: int) -> Workload:
    b = _Collector("sweep_long", seed)
    # A third of the words are accepted: with half, the median divide latency
    # would sit on the cliff between cheap acceptances and full rejections.
    # One chain sweeper only: its long words are the costliest oracle and agap
    # decisions, and with two, their twelve items made up exactly the top
    # tenth, so the 90th percentile sat on the cliff below them.
    _sweepers(b, (9, 11, 13, 15, 16, 17) * 3, (3,), (200, 1000), (True, False, False) * 2)
    return b.done()


def divide_deep(seed: int) -> Workload:
    b = _Collector("divide_deep", seed)
    _sweepers(b, tuple(range(10, 18)) * 3, (4, 5, 6, 7), (1, 30), (False, True, False, False))
    # Mod-p only at n = 18: their rejections all cost the same stack walk,
    # whereas an 18-state chain costs about twice as much.
    _sweepers(b, (18, 18), (), (1, 30), (False, True))
    return b.done()


def alt_long(seed: int) -> Workload:
    b = _Collector("alt_long", seed)
    # The period sets are fixed per slot: an accepted word must be a multiple
    # of lcm(P), and the oracle's cost grows with the square of its length.
    # The universal machine decides the shortest (accepted) and the longest
    # (rejected) of three words, its twin all three.  Three quarters of the
    # oracle decisions are on sweepers, so both percentiles sit among them.
    slots = [periods for n in (9, 11) for periods in _CATALOG[n]] * 13
    for periods, row in zip(slots[:38], _lengths(b.rng, 50, 300, 38, 3)):
        universal = b.machine(_mod_p(periods, universal=True), ("oracle", "agap"))
        twin = b.machine(_mod_p(periods), NONDET_METHODS)
        for j, length in enumerate(row):
            word = _unary_word(periods, length, j < 2, lcm(*periods))
            if j != 1:
                b.decide(universal, word, mod_p_accepts(periods, True, len(word)),
                         ("oracle", "agap"))
            b.decide(twin, word, mod_p_accepts(periods, False, len(word)), NONDET_METHODS)
    for n in tuple(range(4, 10)) * 2:
        spec = random_nf_oafa(b.rng, n)
        index = b.machine(spec, ("oracle", "agap"))
        for length in _strata(b.rng, 50, 300, 2):
            word = "".join(b.rng.choice(spec.alphabet) for _ in range(length))
            b.decide(index, word, reference.accepts(spec, word), ("oracle", "agap"))
    return b.done()


def corpus_small(seed: int) -> Workload:
    b = _Collector("corpus_small", seed)
    words = ["".join(t) for length in range(3) for t in product("ab", repeat=length)]
    # As in the test suite, svfa and divide run on the strict-normal-form
    # corpus: the normal forms of raw 5-state machines reach 15 states, where
    # a divide rejection is a 20 ms stack walk and some svfa decisions need
    # more than the default 10^6 branch points.  The normal-form corpus stops
    # at n = 4 because some 5-state machines exceed that budget as well.
    # The latencies of random machines rise steeply around their median, so
    # the corpus has about a thousand machines: with a quarter of that, the
    # seed alone moved gap_ms_p50 and oracle_ms_p50 by 10%.
    for generator, sizes, methods in (
            (random_onfa, (2, 3, 4, 5) * 128, ("oracle", "gap", "agap")),
            (random_nf_onfa, (2, 3, 4) * 88, METHODS),
            (random_oafa, (2, 3, 4) * 80, ("oracle", "agap"))):
        for n in sizes:
            spec = generator(b.rng, n)
            index = b.machine(spec, methods)
            for word in words:
                b.decide(index, word, reference.accepts(spec, word), methods)
    return b.done()


WORKLOADS = {
    "sweep_long": sweep_long,
    "divide_deep": divide_deep,
    "alt_long": alt_long,
    "corpus_small": corpus_small,
}
