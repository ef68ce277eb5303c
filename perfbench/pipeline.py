"""The library calls behind `outerfa run --method M`, plus the bound checks.

Every library function is looked up on its module at call time (for example
`graphred.build_segment_graph`, not a name bound at import), so the wrappers
that `tracing` installs on those module attributes see each call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
from dataclasses import dataclass

from outerfa import cli, core, detsim, fileformat, graphred, normalform, svfa
from workloads import Item, Machine

reach = importlib.import_module("outerfa.reach")  # the package also exports a function `reach`

SVFA_BUDGET = 10**6  # the `run --budget` default


@dataclass
class Prepared:
    """One machine after set-up: as parsed, and in the forms its methods need."""

    raw: core.TwoWayAutomaton
    nondet: core.TwoWayAutomaton | None
    alt: core.TwoWayAutomaton | None


def prepare(text: str, machine: Machine) -> Prepared:
    """Parse one machine text and normalize it where its methods need it."""
    raw = fileformat.parse(text)
    nondet = alt = None
    if machine.needs_nondet_form:
        strict = normalform.check_normal_form(raw, alternating=False).all_properties
        nondet = raw if strict else normalform.normalize_onfa(raw)
    if machine.needs_alt_form:
        relaxed = normalform.check_normal_form(raw, alternating=True).all_properties
        alt = raw if relaxed else normalform.normalize_oafa(raw)
    return Prepared(raw, nondet, alt)


def decide(prep: Prepared, word: str, method: str,
           stats: detsim.ReachableStats | None = None):
    """(verdict, svfa report or None) through the pipeline of `method`."""
    if method == "oracle":
        if prep.raw.universal:
            return core.alternating_accepts_oracle(prep.raw, word), None
        return core.accepts_oracle(prep.raw, word), None
    if method == "agap":
        return graphred.oafa_decide(prep.alt, word), None
    if method == "divide":
        return detsim.decide_det(prep.nondet, word, stats=stats), None
    if method == "gap":
        graph = graphred.build_segment_graph(prep.nondet, word, alternating=False)
        return graphred.gap_decide(graph), None
    report = svfa.svfa_decide(prep.nondet, word, budget=SVFA_BUDGET)
    return report.verdict_exists_yes, report


@dataclass
class MachineBounds:
    """Paper bounds checked on one prepared machine."""

    size_ratio: float  # normalized states / 3n, 0 when nothing was normalized
    controller_ok: bool | None  # 4n - 3 controller states; None when not built

    @property
    def ok(self) -> bool:
        return self.size_ratio <= 1 and self.controller_ok is not False


def machine_bounds(prep: Prepared) -> MachineBounds:
    ratio = max((form.n / (3 * prep.raw.n) for form in (prep.nondet, prep.alt)
                 if form is not None and form is not prep.raw), default=0.0)
    controller_ok = None
    if prep.nondet is not None:
        controller_ok = reach.build_controller(prep.nondet).state_count == 4 * prep.nondet.n - 3
    return MachineBounds(ratio, controller_ok)


def svfa_bounds_ok(report: svfa.DecisionReport) -> bool:
    """Never both definite verdicts, and every branch halted."""
    return not (report.verdict_exists_yes and report.verdict_exists_no) and report.all_halting


def stack_bound(n: int) -> int:
    """ceil(log2(n - 1)), the paper's stack height for a chain of n - 1 segments."""
    return (n - 2).bit_length()


def run_cli(path: str, item: Item) -> bool:
    """`outerfa run PATH --word W --method M --json` in-process; returns its verdict."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["run", path, "--word", item.word, "--method", item.method, "--json"])
    if code != 0:
        raise RuntimeError(f"outerfa run exited with code {code}")
    return json.loads(out.getvalue())["result"]
