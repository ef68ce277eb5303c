"""Deterministic simulation by divide and conquer over segment chains.

Whether some chain of at most t segments joins two states splits into two
half-length questions through a guessed midpoint, so acceptance (a chain of
at most n - 1 segments from the initial to the accepting state) resolves
with a stack whose height is only ceil(log2(n - 1)); the stack discipline
is kept explicit here so the same control structure can be minted into an
actual deterministic two-way machine (`materialize_dfa`), whose states pack
the stack configuration together with the backward-search cursor.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, log2

from .core import (
    LEFT_ENDMARKER,
    RIGHT,
    STAY,
    InvariantViolation,
    TwoWayAutomaton,
    _normal_form_flags,
)
from .normalform import NotNormalForm
from .reach import (
    ACCEPT,
    ControllerState,
    DONE_LEFT,
    SCAN_LEFT,
    build_controller,
    return_table,
)
from .reach import reach  # noqa: F401  (perfbench/tracing.py wraps it here by name)


class TooLarge(ValueError):
    """The materialized machine would exceed the configured state ceiling."""


@dataclass
class ReachableStats:
    """Observed behavior of one reachable() evaluation."""

    max_stack_height: int = 0
    base_calls: int = 0


@dataclass(frozen=True)
class BoundReport:
    """State-count formulas for the simulating deterministic machine.

    `stack_configurations_bound` prices the machine when the input is
    already in normal form; `rough_bound` first pays the 3n conversion.
    `c_exponent` is the honest excess exponent c with
    rough_bound = n ** (log2(n) + c); it drifts down toward (and around) 6
    only for astronomically large n.
    """

    n: int
    normal_form_assumed: bool
    stack_configurations_bound: int
    rough_bound: int
    c_exponent: float


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


def _require_det_form(automaton: TwoWayAutomaton) -> None:
    if automaton.universal:
        raise NotNormalForm("deterministic simulation takes machines without universal states")
    if not all(_normal_form_flags(automaton, alternating=False)):
        raise NotNormalForm("deterministic simulation requires the strict normal form")


def reachable(automaton: TwoWayAutomaton, word: str, q: int, p: int, t: int,
              stats: ReachableStats | None = None) -> bool:
    """Is there a chain of at most t segments from q to p on `word`?

    t = 1 asks for equality or a single segment; larger budgets try every
    midpoint with two ceil(t/2) sub-questions.  The evaluation runs over an
    explicit stack of (endpoint, endpoint, midpoint, phase) frames with the
    base cases folded into their parent, so the observed stack height never
    exceeds ceil(log2(t)).  Base cases look the segment up in the word's
    return table, computed once per call.
    """
    if t < 1:
        raise ValueError("the segment budget t must be at least 1")
    _require_det_form(automaton)
    n = automaton.n
    table = return_table(automaton, word)
    targets = [frozenset(table.outcomes(a)) for a in range(n)]

    def base(a: int, b: int) -> bool:
        if stats is not None:
            stats.base_calls += 1
        return a == b or b in targets[a]

    height = _ceil_log2(t)  # halvings of t down to single segments
    if height == 0:
        return base(q, p)

    stack: list[list[int]] = [[q, p, 0, 1]]
    if stats is not None:
        stats.max_stack_height = max(stats.max_stack_height, 1)
    retval: bool | None = None
    while True:
        if retval is None:
            frame = stack[-1]
            fq, fp, r, phase = frame
            cq, cp = (fq, r) if phase == 1 else (r, fp)
            if len(stack) == height:
                retval = base(cq, cp)
            else:
                stack.append([cq, cp, 0, 1])
                if stats is not None:
                    stats.max_stack_height = max(stats.max_stack_height, len(stack))
            continue
        frame = stack[-1]
        if retval and frame[3] == 2:
            stack.pop()
            retval = True
        elif retval and frame[3] == 1:
            frame[3] = 2
            retval = None
        elif frame[2] + 1 < n:
            frame[2] += 1
            frame[3] = 1
            retval = None
        else:
            stack.pop()
            retval = False
        if not stack:
            return retval


def decide_det(automaton: TwoWayAutomaton, word: str,
               stats: ReachableStats | None = None) -> bool:
    """Deterministic acceptance: a chain of at most n - 1 segments reaches the accepting state."""
    _require_det_form(automaton)
    if automaton.n < 2:
        raise ValueError("the machine needs at least two states")
    q_final = next(iter(automaton.accepting))
    return reachable(automaton, word, automaton.initial, q_final,
                     automaton.n - 1, stats=stats)


def dfa_state_bound(n: int, normal_form: bool) -> BoundReport:
    """Exact integer evaluation of the simulating machine's size formulas."""
    if n < 2:
        raise ValueError("n must be at least 2")
    stack_bound = 4 * n * (2 * n) ** _ceil_log2(n - 1)
    rough = 4 * (3 * n) ** (_ceil_log2(3 * n - 1) + 2)
    c_exponent = log(rough) / log(n) - log2(n)
    return BoundReport(
        n=n,
        normal_form_assumed=normal_form,
        stack_configurations_bound=stack_bound,
        rough_bound=rough,
        c_exponent=c_exponent,
    )


class _Materializer:
    """Builds the genuine deterministic two-way machine for a tiny source."""

    def __init__(self, automaton: TwoWayAutomaton):
        self.automaton = automaton
        self.n = automaton.n
        self.controller = build_controller(automaton)
        self.q_final = self.controller.final_state
        self.height = _ceil_log2(self.n - 1)

    def _derive(self, cfg: list[tuple[int, int]]) -> tuple[int, int]:
        q, p = self.automaton.initial, self.q_final
        for (r, phase) in cfg:
            q, p = (q, r) if phase == 1 else (r, p)
        return q, p

    def _leaf_trivial(self, q: int, p: int) -> bool | None:
        """Resolve a base case without touching the tape, if possible."""
        if q == p:
            return True
        launches = self.automaton.successors(q, LEFT_ENDMARKER)
        if (p, STAY) in launches:
            return True
        if not any(d == RIGHT for (_, d) in launches):
            return False
        if p == self.q_final:
            return False
        return None  # a backward search over the tape is required

    def advance(self, cfg: list[tuple[int, int]], depth: int, result: bool | None):
        """Run the stack machine until the next tape-bound base case or a verdict.

        `result is None` means the call at `depth` still has to be
        evaluated; otherwise it just returned `result`.  Returns either
        ('launch', frozen cfg, q, p) or ('accept'|'reject', None, None, None).
        """
        n, h = self.n, self.height
        while True:
            if result is None:
                if depth == h:
                    q, p = self._derive(cfg)
                    trivial = self._leaf_trivial(q, p)
                    if trivial is None:
                        return ("launch", tuple(cfg), q, p)
                    result = trivial
                    continue
                cfg[depth] = (0, 1)
                depth += 1
                continue
            if depth == 0:
                return ("accept" if result else "reject", None, None, None)
            r, phase = cfg[depth - 1]
            if result and phase == 2:
                depth -= 1
                result = True
            elif result and phase == 1:
                cfg[depth - 1] = (r, 2)
                result = None
            elif r + 1 < n:
                cfg[depth - 1] = (r + 1, 1)
                result = None
            else:
                depth -= 1
                result = False


def materialize_dfa(automaton: TwoWayAutomaton, max_states: int = 10**6) -> TwoWayAutomaton:
    """Emit the simulating deterministic two-way machine as a real automaton.

    States are (stack configuration, backward-search cursor) pairs plus two
    terminals; all bookkeeping between base cases happens in stationary
    moves at the left endmarker, where the backward search starts and ends.
    Guarded to tiny sources; the state count never exceeds
    4n * (2n) ** ceil(log2(n - 1)).
    """
    _require_det_form(automaton)
    n = automaton.n
    if not 2 <= n <= 5:
        raise ValueError("materialization is guarded to machines with 2 to 5 states")
    mat = _Materializer(automaton)
    bound = 4 * n * (2 * n) ** mat.height
    if bound > max_states:
        raise TooLarge(f"state bound {bound} exceeds the ceiling {max_states}")

    symbols = automaton.symbols()
    fixed = mat.controller.fixed_table
    left_rows = mat.controller.left_end_rows

    ids: dict[object, int] = {}
    names: list[str] = []
    worklist: list[tuple] = []

    def state_id(key, name_hint: str) -> int:
        if key not in ids:
            ids[key] = len(names)
            names.append(name_hint)
            if isinstance(key, tuple):
                worklist.append(key)
        return ids[key]

    accept_id = state_id("accept", "acc")
    reject_id = state_id("reject", "rej")

    def outcome_id(outcome) -> int:
        kind, cfg, q, p = outcome
        if kind == "accept":
            return accept_id
        if kind == "reject":
            return reject_id
        start = ControllerState(DONE_LEFT, p)
        return state_id((cfg, start), f"s{len(names)}")

    delta: dict[tuple[int, str], list[tuple[int, int]]] = {}
    initial_id = outcome_id(mat.advance([(0, 1)] * mat.height, 0, None))
    while worklist:
        key = worklist.pop()
        cfg, ctrl = key
        sid = ids[key]
        q_from, _ = mat._derive(list(cfg))
        for sym in symbols:
            if ctrl.kind == SCAN_LEFT and sym == LEFT_ENDMARKER:
                entry = left_rows[q_from][ctrl.state]
            else:
                entry = fixed.get((ctrl, sym))
            if entry is not None:
                nxt, d = entry
                target = state_id((cfg, nxt), f"s{len(names)}")
                delta[(sid, sym)] = [(target, d)]
            elif sym == LEFT_ENDMARKER:
                # The backward search only ever halts at the left endmarker.
                finished = ctrl.kind == ACCEPT
                target = outcome_id(mat.advance(list(cfg), mat.height, finished))
                delta[(sid, sym)] = [(target, STAY)]

    result = TwoWayAutomaton(
        state_names=names,
        alphabet=automaton.alphabet,
        delta=delta,
        initial=initial_id,
        accepting=[accept_id],
        declared_flavor="dfa",
    )
    if result.n > bound:
        raise InvariantViolation(
            f"materialized machine has {result.n} states, over its bound {bound}")
    return result
