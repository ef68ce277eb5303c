"""Command-line front end.

Every subcommand reads machines in the text format of `fileformat`, runs
one library operation, and emits a line-oriented `key: value` report (or
JSON with --json).  Exit codes classify failures: 2 for input or output
files that cannot be read, written or parsed, 3 for violated preconditions,
4 for exhausted budgets or size ceilings, 5 when `equiv` finds a
counterexample, and 6 when a bound or property the constructions guarantee
fails to hold (an `InvariantViolation`, which signals a defect in the
library rather than in the input).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict

from .core import (
    BudgetExceeded,
    InvariantViolation,
    MalformedAutomaton,
    NotApplicable,
    TwoWayAutomaton,
    accepts_oracle,
    all_words,
    alternating_accepts_oracle,
    classify,
)
from .detsim import DIVIDE_BUDGET, MAX_STATES, decide_det, dfa_state_bound, materialize_dfa
from .fileformat import FlavorMismatch, ParseError, parse, serialize
from .graphred import build_segment_graph, gap_decide, oafa_decide, segment_graph_to_dot
from .normalform import (
    NotNormalForm,
    NotOuter,
    check_normal_form,
    normalize_oafa,
    normalize_onfa,
    require_normal_form,
)
from .reach import build_controller  # noqa: F401  (perfbench/tracing.py wraps it here by name)
from .reach import machine_index, reach
from .svfa import SVFA_BUDGET, svfa_decide, svfa_state_accounting

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4
EXIT_MISMATCH = 5
EXIT_INVARIANT = 6

METHODS = ("oracle", "svfa", "divide", "gap", "agap")

# The words `equiv` may compare, all lengths together: each costs two oracle
# calls, and E1's 2**17 - 1 words up to length 16 took about 0.7 s.
EQUIV_WORDS = 10**6


def _load(path: str) -> TwoWayAutomaton:
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


def _emit(pairs: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(pairs, indent=2, default=str))
    else:
        for key, value in pairs.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            print(f"{key}: {value}")


def _ensure_normal_form(automaton: TwoWayAutomaton, alternating: bool) -> TwoWayAutomaton:
    """The machine itself if it is in the normal form, else its normalization."""
    if automaton.universal and not alternating:
        raise NotApplicable("this method takes machines without universal states")
    try:
        require_normal_form(automaton, alternating)
    except NotNormalForm:
        return normalize_oafa(automaton) if alternating else normalize_onfa(automaton)
    return automaton


def _decide(automaton: TwoWayAutomaton, word: str, method: str, budget: int | None):
    """Boolean acceptance through one of the decision pipelines.

    The oracle is the alternating one when the machine has universal states.
    `budget` bounds svfa's distinct snapshots and divide's base cases; None
    keeps each method's library default.
    """
    extras: dict = {}
    if method == "oracle":
        oracle = alternating_accepts_oracle if automaton.universal else accepts_oracle
        return oracle(automaton, word), extras
    if method == "agap":
        return oafa_decide(_ensure_normal_form(automaton, alternating=True), word), extras
    machine = _ensure_normal_form(automaton, alternating=False)
    if method == "gap":
        return gap_decide(build_segment_graph(machine, word, alternating=False)), extras
    limit = {} if budget is None else {"budget": budget}
    if method == "divide":
        return decide_det(machine, word, **limit), extras
    report = svfa_decide(machine, word, **limit)
    # the state budget over all n states, and over the k ports it counts and guesses among
    accounting = svfa_state_accounting(machine.n, len(machine_index(machine).ports))
    extras = {
        "accept_branch_exists": report.verdict_exists_yes,
        "reject_branch_exists": report.verdict_exists_no,
        "dont_know_branches": report.dont_know_count,
        "branches_explored": report.branches_explored,
        "all_halting": report.all_halting,
        "snapshots": report.snapshots,
        "svfa_state_bound": accounting.total,
        "svfa_port_state_bound": accounting.port_total,
    }
    return report.verdict_exists_yes, extras


def _cmd_classify(args) -> int:
    report = classify(_load(args.file))
    _emit(asdict(report), args.json)
    return EXIT_OK


def _cmd_run(args) -> int:
    if args.budget is not None and args.budget < 0:
        raise ValueError("the work budget must be at least 0")
    automaton = _load(args.file)
    started = time.perf_counter()
    result, extras = _decide(automaton, args.word, args.method, args.budget)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    _emit({"result": result, **extras, "elapsed_ms": round(elapsed_ms, 3)}, args.json)
    return EXIT_OK


def _cmd_normalize(args) -> int:
    automaton = _load(args.file)
    if args.alternating:
        normalized = normalize_oafa(automaton)
    else:
        normalized = normalize_onfa(automaton)
    # the budget is the input's: 3n for the machine that was normalized
    report = {**asdict(check_normal_form(normalized, alternating=args.alternating)),
              "state_count": normalized.n, "bound_3n": 3 * automaton.n}
    document = serialize(normalized)
    if args.json:
        _emit({"machine": document, "report": report}, True)
    else:
        sys.stdout.write(document)
        for key, value in report.items():
            print(f"# {key}: {value}")
    return EXIT_OK


def _state_id(automaton: TwoWayAutomaton, name: str) -> int:
    try:
        return automaton.state_names.index(name)
    except ValueError:
        raise NotApplicable(f"unknown state {name!r}") from None


def _cmd_reach(args) -> int:
    automaton = _load(args.file)
    result = reach(automaton, args.word, _state_id(automaton, args.from_state),
                   _state_id(automaton, args.to_state))
    controller = automaton._controller  # the one reach's gate built and keeps on the machine
    payload = {"result": result, "controller_states": controller.state_count}
    if args.dump_controller and args.json:
        payload["controller"] = controller.dump()
    _emit(payload, args.json)
    if args.dump_controller and not args.json:
        print(controller.dump())
    return EXIT_OK


def _cmd_segment_graph(args) -> int:
    automaton = _load(args.file)
    graph = build_segment_graph(automaton, args.word)
    dot = segment_graph_to_dot(graph)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(dot)
    edges = sorted(graph.edges)
    payload = {
        "vertices": graph.n,
        "edges": len(edges),
        "edge_list": " ".join(
            f"{graph.state_names[p]}->{graph.state_names[q]}" for (p, q) in edges),
    }
    if args.dot:
        payload["dot"] = args.dot
    _emit(payload, args.json)
    return EXIT_OK


def _cmd_complement(args) -> int:
    # a word is in the complement when some svfa branch rejects it
    _, extras = _decide(_load(args.file), args.word, "svfa", args.budget)
    _emit({"result": extras["reject_branch_exists"]}, args.json)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    automaton = _load(args.file)
    normal = check_normal_form(automaton, alternating=bool(automaton.universal)).all_properties
    # the port count, and the bound over ports, only for a machine in the normal form
    ports = len(machine_index(automaton).ports) if normal else None
    bound = asdict(dfa_state_bound(automaton.n, ports))
    payload = {"dfa_n": bound.pop("n"), "dfa_normal_form_assumed": normal}
    payload.update({f"dfa_{k}": v for k, v in bound.items() if v is not None})
    accounting = asdict(svfa_state_accounting(automaton.n, ports))
    payload.update({f"svfa_{k}": v for k, v in accounting.items() if v is not None})
    _emit(payload, args.json)
    return EXIT_OK


def _cmd_emit_dfa(args) -> int:
    automaton = _load(args.file)
    machine = _ensure_normal_form(automaton, alternating=False)
    # an unwritable --out fails here, before a build that can take seconds;
    # opening to append truncates nothing, and a file made only to test is removed
    existed = os.path.exists(args.out)
    open(args.out, "a", encoding="utf-8").close()
    if not existed:
        os.remove(args.out)
    result = materialize_dfa(machine, max_states=args.max_states)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(serialize(result))
    _emit({"states": result.n, "out": args.out}, args.json)
    return EXIT_OK


def _cmd_equiv(args) -> int:
    if args.max_len < 0:
        raise ValueError("--max-len must be at least 0")
    left = _load(args.file1)
    right = _load(args.file2)
    if set(left.alphabet) != set(right.alphabet):
        raise NotApplicable("the two machines use different alphabets")
    # without letters only the empty word; the count below still loops over each length
    max_len = args.max_len if left.alphabet else 0
    words = length_words = 1
    for _ in range(max_len):
        length_words *= len(left.alphabet)
        words += length_words
        if words > EQUIV_WORDS:
            raise BudgetExceeded(f"--max-len {args.max_len} asks for more than equiv's ceiling "
                                 f"of {EQUIV_WORDS:,} words")
    for word in all_words(left.alphabet, max_len):
        if _decide(left, word, "oracle", None)[0] != _decide(right, word, "oracle", None)[0]:
            _emit({"equivalent": False, "counterexample": word}, args.json)
            return EXIT_MISMATCH
    _emit({"equivalent": True, "max_len": args.max_len}, args.json)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="outerfa",
        description="Toolkit for two-way automata whose choices happen only at the endmarkers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON instead of key: value lines")
        p.set_defaults(func=func)
        return p

    p = add("classify", _cmd_classify, "report where the machine uses choice")
    p.add_argument("file")

    p = add("run", _cmd_run, "decide one word with a chosen method")
    p.add_argument("file")
    p.add_argument("--word", required=True)
    p.add_argument("--method", choices=METHODS, default="oracle")
    p.add_argument("--budget", type=int, default=None,
                   help=f"work budget: distinct snapshots for --method svfa (default "
                        f"{SVFA_BUDGET:,}), base cases for --method divide (default "
                        f"{DIVIDE_BUDGET:,}); exhausting it exits 4, the other methods ignore it, "
                        "and negative is an error")

    p = add("normalize", _cmd_normalize, "convert into the structured normal form")
    p.add_argument("file")
    p.add_argument("--alternating", action="store_true")

    p = add("reach", _cmd_reach, "test for a segment between two states")
    p.add_argument("file")
    p.add_argument("--word", required=True)
    p.add_argument("--from", dest="from_state", required=True)
    p.add_argument("--to", dest="to_state", required=True)
    p.add_argument("--dump-controller", action="store_true")

    p = add("segment-graph", _cmd_segment_graph, "build the per-word segment graph")
    p.add_argument("file")
    p.add_argument("--word", required=True)
    p.add_argument("--dot")

    p = add("complement", _cmd_complement, "decide membership in the complement language")
    p.add_argument("file")
    p.add_argument("--word", required=True)
    p.add_argument("--budget", type=int, default=None,
                   help=f"distinct svfa snapshots (default {SVFA_BUDGET:,}); exhausting it exits "
                        "4, and negative is an error")

    p = add("bounds", _cmd_bounds, "state-count formulas for this machine's size")
    p.add_argument("file")

    p = add("emit-dfa", _cmd_emit_dfa, "materialize the simulating deterministic machine")
    p.add_argument("file")
    p.add_argument("--out", required=True)
    p.add_argument("--max-states", type=int, default=MAX_STATES,
                   help=f"emitted states past which it exits 4 (default {MAX_STATES:,}); each "
                        "costs about 1.5 kB of memory on two letters, more with more letters, "
                        "while the machine is built")

    p = add("equiv", _cmd_equiv, "brute-force language comparison up to a length")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--max-len", type=int, required=True,
                   help=f"longest word compared; more than {EQUIV_WORDS:,} words in all exits 4")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    # before ValueError: a file that is not UTF-8 is unreadable input, not a bad argument
    except (ParseError, FlavorMismatch, MalformedAutomaton, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (NotOuter, NotNormalForm, NotApplicable, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InvariantViolation as exc:
        print(f"error: invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
