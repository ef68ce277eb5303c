"""Command-line surface: dispatch, output shape, exit codes."""

import json
import sys
from pathlib import Path

import pytest

from outerfa import (
    NotNormalForm,
    STAY,
    TwoWayAutomaton,
    all_words,
    alternating_accepts_oracle,
    normalize_onfa,
    parse,
    require_normal_form,
    serialize,
)
from outerfa.cli import METHODS, main
from outerfa.reach import build_controller

from conftest import (
    INITIAL_ACCEPTING,
    chain_sweeper,
    gap_machine,
    mod_p_sweeper,
    port_ring,
    random_nf_onfa,
    random_oafa,
    universal_twin,
)
from reference import build_e1, build_e2, build_ea


E1_FILE = Path(__file__).parent / "data" / "e1.2wa"


@pytest.fixture()
def e1_file():
    return str(E1_FILE)


# the machine files CI's cli-smoke job reads, by what they serialize; the
# alternating ones are decided only by the oracle and agap
COMMITTED = {
    "e1.2wa": build_e1,
    "mod_p_3_4.2wa": lambda: mod_p_sweeper((3, 4)),
    "chain_2.2wa": lambda: chain_sweeper(2),
    "nf65.2wa": lambda: random_nf_onfa(65),
    "gap4.2wa": lambda: gap_machine(4),
}
COMMITTED_ALTERNATING = {
    "mod_p_3_4_all.2wa": lambda: universal_twin(mod_p_sweeper((3, 4))),
}


@pytest.mark.parametrize("name", [*COMMITTED, *COMMITTED_ALTERNATING])
def test_committed_machine_file_is_serialized(name):
    # CI reads the same bytes, so it runs the machines the tests build
    build = {**COMMITTED, **COMMITTED_ALTERNATING}[name]
    assert (E1_FILE.parent / name).read_bytes() == serialize(build()).encode("utf-8")


@pytest.fixture()
def e2_file(tmp_path):
    path = tmp_path / "e2.2wa"
    path.write_text(serialize(build_e2()))
    return str(path)


def test_classify(e1_file, capsys):
    assert main(["classify", e1_file]) == 0
    out = capsys.readouterr().out
    assert "is_outer: true" in out
    assert "is_deterministic: false" in out


def test_run_methods_agree(e1_file, capsys):
    for word, expected in (("aa", "true"), ("ab", "false"), ("", "true")):
        for method in ("oracle", "svfa", "divide", "gap"):
            assert main(["run", e1_file, "--word", word, "--method", method]) == 0
            assert f"result: {expected}" in capsys.readouterr().out


def test_run_svfa_reports_branches(e1_file, capsys):
    assert main(["run", e1_file, "--word", "ab", "--method", "svfa"]) == 0
    out = capsys.readouterr().out
    assert "result: false" in out
    assert "accept_branch_exists: false" in out
    assert "reject_branch_exists: true" in out
    # the distinct snapshots expanded, next to the simulation's state bound for E1's 6 states
    assert main(["run", e1_file, "--word", "aa", "--method", "svfa", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["branches_explored"], payload["snapshots"]) == (85, 24)
    assert payload["svfa_state_bound"] == 14117880
    # every one of E1's states is a port, so the bound over ports is the same
    assert payload["svfa_port_state_bound"] == 14117880
    assert payload["all_halting"] is True


def test_run_agap_on_alternating_input(e2_file, capsys):
    assert main(["run", e2_file, "--word", "", "--method", "agap"]) == 0
    assert "result: true" in capsys.readouterr().out
    assert main(["run", e2_file, "--word", "aa", "--method", "agap"]) == 0
    assert "result: false" in capsys.readouterr().out


@pytest.mark.parametrize("method", ["gap", "svfa", "divide"])
def test_run_refuses_universal_states_for_existential_methods(e2_file, method, capsys):
    assert main(["run", e2_file, "--word", "", "--method", method]) == 3
    assert "takes machines without universal states" in capsys.readouterr().err


def test_run_oracle_on_alternating_input(e2_file, capsys):
    for word in ("", "a", "ab", "aa"):
        assert main(["run", e2_file, "--word", word, "--method", "oracle"]) == 0
        expected = alternating_accepts_oracle(build_e2(), word)
        assert f"result: {str(expected).lower()}" in capsys.readouterr().out


def test_run_agap_normalizes_an_oafa_outside_the_relaxed_form(tmp_path, capsys):
    machine = random_oafa(23)  # 3 states, universal ones, accepts some words of length <= 3
    assert machine.universal
    with pytest.raises(NotNormalForm):
        require_normal_form(machine, alternating=True)
    path = tmp_path / "raw.2wa"
    path.write_text(serialize(machine))
    verdicts = set()
    for word in all_words(machine.alphabet, 3):
        assert main(["run", str(path), "--word", word, "--method", "agap"]) == 0
        expected = alternating_accepts_oracle(machine, word)
        assert f"result: {str(expected).lower()}" in capsys.readouterr().out, word
        verdicts.add(expected)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", sorted(INITIAL_ACCEPTING))
def test_initial_accepting_state_via_cli(name, tmp_path, capsys):
    path = tmp_path / f"{name}.2wa"
    path.write_text(INITIAL_ACCEPTING[name])
    for method in METHODS:
        assert main(["run", str(path), "--word", "a", "--method", method]) == 0, method
        assert "result: true" in capsys.readouterr().out
    assert main(["complement", str(path), "--word", "a"]) == 0
    assert "result: false" in capsys.readouterr().out
    # the accept-at-once shortcut still refuses a foreign letter
    for method in METHODS:
        assert main(["run", str(path), "--word", "zz", "--method", method]) == 3, method
        assert "not in the machine's alphabet" in capsys.readouterr().err


def test_run_json_output(e1_file, capsys):
    assert main(["run", e1_file, "--word", "aa", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] is True
    assert "elapsed_ms" in payload


def test_run_rejects_foreign_letters(e1_file, capsys):
    assert main(["run", e1_file, "--word", "ax"]) == 3


@pytest.mark.parametrize("argv", [
    ["run", "--method", "svfa"],
    ["run", "--method", "divide"],
    ["run", "--method", "gap"],
    ["run", "--method", "agap"],
    ["reach", "--from", "qI", "--to", "qI"],
    ["segment-graph"],
    ["complement"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv[::2]))
def test_commands_reject_foreign_letters(e1_file, argv, capsys):
    assert main([argv[0], e1_file, "--word", "ax", *argv[1:]]) == 3
    assert "not in the machine's alphabet" in capsys.readouterr().err


def test_invariant_violation_exit_code(e1_file, capsys, monkeypatch):
    from outerfa import svfa
    from test_svfa import _both_verdicts

    monkeypatch.setattr(svfa, "_advance", _both_verdicts)
    assert main(["run", e1_file, "--word", "aa", "--method", "svfa"]) == 6
    err = capsys.readouterr().err
    assert err.startswith("error: invariant violated:")
    assert "both definite verdicts" in err


def test_normalize_emits_parseable_machine(e1_file, capsys):
    assert main(["normalize", e1_file]) == 0
    out = capsys.readouterr().out
    machine = parse(out)  # report lines are comments
    assert machine.n <= 18
    assert "# property4: True" in out
    # the budget is 3n for the 6-state input, not for the 12-state output
    assert "# state_count: 12" in out
    assert "# bound_3n: 18" in out


def test_normalize_json(e1_file, capsys):
    assert main(["normalize", e1_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert parse(payload["machine"]) == normalize_onfa(build_e1())
    report = payload["report"]
    assert [report[f"property{i}"] for i in range(1, 5)] == [True] * 4
    assert report["state_count"] == 12 <= 3 * build_e1().n
    assert report["bound_3n"] == 18


def test_normalized_machine_is_equivalent_via_cli(e1_file, tmp_path, capsys):
    assert main(["normalize", e1_file]) == 0
    normalized = tmp_path / "e1-normal.2wa"
    normalized.write_text(capsys.readouterr().out)
    assert main(["equiv", e1_file, str(normalized), "--max-len", "6"]) == 0
    assert "equivalent: true" in capsys.readouterr().out


def test_reach_and_dump(e1_file, capsys):
    assert main(["reach", e1_file, "--word", "aa", "--from", "pa", "--to", "ra"]) == 0
    assert "result: true" in capsys.readouterr().out
    assert main(["reach", e1_file, "--word", "aa", "--from", "pb", "--to", "rb",
                 "--dump-controller"]) == 0
    out = capsys.readouterr().out
    assert "result: false" in out
    assert "controller_states: 21" in out
    assert "SCAN_LEFT(pa)" in out


@pytest.mark.parametrize("dump", [[], ["--dump-controller"]], ids=["plain", "dump"])
def test_reach_builds_one_controller(e1_file, dump, monkeypatch, capsys):
    """The verdict, the state count and the dump all read the controller reach's gate keeps."""
    builds = []

    def counted(automaton):
        builds.append(automaton)
        return build_controller(automaton)

    # by module, as the package's `reach` is a function
    for module in ("outerfa.cli", "outerfa.reach"):
        monkeypatch.setattr(sys.modules[module], "build_controller", counted)
    assert main(["reach", e1_file, "--word", "aa", "--from", "pa", "--to", "ra", *dump]) == 0
    assert "controller_states: 21" in capsys.readouterr().out
    assert len(builds) == 1


@pytest.mark.parametrize("ends", [["nowhere", "qF"], ["qI", "nowhere"]], ids=["from", "to"])
def test_reach_rejects_unknown_state_names(e1_file, ends, capsys):
    assert main(["reach", e1_file, "--word", "ab", "--from", ends[0], "--to", ends[1]]) == 3
    assert "unknown state 'nowhere'" in capsys.readouterr().err


def test_reach_refuses_a_machine_outside_the_normal_form(tmp_path, capsys):
    e1 = build_e1()
    delta = dict(e1.delta)
    delta[(1, "a")] = [(1, STAY)]  # pa stays put on a letter
    path = tmp_path / "bent.2wa"
    path.write_text(serialize(TwoWayAutomaton(e1.state_names, e1.alphabet, delta, e1.initial,
                                              e1.accepting)))
    for ends in (["qI", "ra"], ["qI", "qI"]):
        assert main(["reach", str(path), "--word", "aa", "--from", ends[0], "--to", ends[1]]) == 3
        assert "relaxed normal form" in capsys.readouterr().err


def test_reach_dumps_the_controller_as_json(e1_file, capsys):
    assert main(["reach", e1_file, "--word", "ab", "--from", "qI", "--to", "qF",
                 "--dump-controller", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] is False
    assert payload["controller_states"] == 21
    golden = Path(__file__).parent / "data" / "e1_controller_dump.txt"
    assert payload["controller"] + "\n" == golden.read_text()


def test_segment_graph_dot(e1_file, tmp_path, capsys):
    dot = tmp_path / "graph.dot"
    assert main(["segment-graph", e1_file, "--word", "aa", "--dot", str(dot)]) == 0
    assert "edges: 4" in capsys.readouterr().out
    assert dot.read_text().startswith("digraph segments {")


def test_complement(e1_file, capsys):
    assert main(["complement", e1_file, "--word", "ab"]) == 0
    assert "result: true" in capsys.readouterr().out
    assert main(["complement", e1_file, "--word", "aa"]) == 0
    assert "result: false" in capsys.readouterr().out


def test_complement_prints_the_reject_side_of_svfa(nf_corpus, tmp_path, capsys):
    files = [str(E1_FILE.parent / name) for name in COMMITTED]
    for index, machine in enumerate(nf_corpus[:10]):
        path = tmp_path / f"nf{index}.2wa"
        path.write_text(serialize(machine))
        files.append(str(path))
    refused = 0
    for path in files:
        for word in all_words(parse(Path(path).read_text()).alphabet, 2):
            for budget in ([], ["--budget", "50"]):
                code = main(["run", path, "--word", word, "--method", "svfa", "--json", *budget])
                run = capsys.readouterr()
                assert main(["complement", path, "--word", word, "--json", *budget]) == code
                complement = capsys.readouterr()
                if code == 0:
                    expected = {"result": json.loads(run.out)["reject_branch_exists"]}
                    assert json.loads(complement.out) == expected, (path, word, budget)
                else:
                    assert code == 4 and complement.err == run.err, (path, word, budget)
                    refused += 1
    # 50 snapshots refuse 10 of the 251 words, so both exits are compared
    assert refused == 10


def test_bounds(e1_file, tmp_path, capsys):
    assert main(["bounds", e1_file]) == 0
    out = capsys.readouterr().out
    assert "dfa_stack_configurations_bound: 41472" in out
    assert "svfa_total: 14117880" in out
    # every one of E1's 6 states is a port, so the bound over ports is the paper's
    assert "\ndfa_k: 6\ndfa_port_stack_configurations_bound: 41472\n" in out
    assert "\nsvfa_k: 6\nsvfa_port_total: 14117880\n" in out
    # its 12-state normal form has 9 ports: 4n * (2k) ** ceil(log2(k - 1)) = 48 * 18 ** 3
    normal = tmp_path / "e1-normal.2wa"
    normal.write_text(serialize(normalize_onfa(build_e1())))
    assert main(["bounds", str(normal)]) == 0
    out = capsys.readouterr().out
    assert "dfa_stack_configurations_bound: 15925248" in out
    assert "\ndfa_k: 9\ndfa_port_stack_configurations_bound: 279936\n" in out
    # (n + 1) ** 6 * n * (4n - 4) = 13 ** 6 * 12 * 44 beside (k + 1) ** 6 * k * (4n - 4)
    assert "svfa_total: 2548555152\n" in out
    assert "\nsvfa_k: 9\nsvfa_port_total: 396000000\n" in out
    # a machine outside the normal form prints no ports
    raw = tmp_path / "raw.2wa"
    raw.write_text(serialize(random_oafa(1000)))
    assert main(["bounds", str(raw)]) == 0
    out = capsys.readouterr().out
    assert "dfa_normal_form_assumed: false" in out
    assert "dfa_k" not in out and "dfa_port" not in out
    assert "svfa_k" not in out and "svfa_port" not in out


def test_one_state_machine_bounds_and_emit_dfa(tmp_path, capsys):
    path = tmp_path / "one.2wa"
    path.write_text(INITIAL_ACCEPTING["one_state"])
    assert main(["bounds", str(path)]) == 0
    out = capsys.readouterr().out
    assert "dfa_degenerate: true" in out
    assert "svfa_degenerate: true" in out
    out_path = tmp_path / "one-dfa.2wa"
    assert main(["emit-dfa", str(path), "--out", str(out_path)]) == 0
    machine = parse(out_path.read_text())
    assert machine.declared_flavor == "dfa"
    assert main(["run", str(out_path), "--word", "aa", "--method", "oracle"]) == 0
    assert "result: true" in capsys.readouterr().out


def test_emit_dfa(tmp_path, capsys):
    src = tmp_path / "ea.2wa"
    src.write_text(serialize(build_ea()))
    out_path = tmp_path / "ea-dfa.2wa"
    assert main(["emit-dfa", str(src), "--out", str(out_path)]) == 0
    machine = parse(out_path.read_text())
    assert machine.declared_flavor == "dfa"


def test_emit_dfa_budget_exit_code(tmp_path, capsys):
    src = tmp_path / "ea.2wa"
    src.write_text(serialize(build_ea()))
    assert main(["emit-dfa", str(src), "--out", str(tmp_path / "x"),
                 "--max-states", "10"]) == 4
    # a negative ceiling is a bad argument, not an exhausted budget
    assert main(["emit-dfa", str(src), "--out", str(tmp_path / "x"),
                 "--max-states", "-1"]) == 3
    assert "ceiling must be at least 0" in capsys.readouterr().err


def test_emit_dfa_on_e1(e1_file, tmp_path, capsys):
    """E1 has 6 states; only the 1 120 states the worklist emits count against the ceiling."""
    out_path = tmp_path / "e1-dfa.2wa"
    assert main(["emit-dfa", e1_file, "--out", str(out_path)]) == 0
    assert "states: 1120" in capsys.readouterr().out
    assert main(["equiv", e1_file, str(out_path), "--max-len", "6"]) == 0
    assert main(["emit-dfa", e1_file, "--out", str(tmp_path / "x"), "--max-states", "100"]) == 4
    assert "more than 100 states" in capsys.readouterr().err
    # a build over the ceiling leaves the output path as it was: absent, or with its bytes
    assert not (tmp_path / "x").exists()
    emitted = out_path.read_bytes()
    assert main(["emit-dfa", e1_file, "--out", str(out_path), "--max-states", "100"]) == 4
    assert out_path.read_bytes() == emitted


@pytest.mark.parametrize("name, states", [("chain_2.2wa", 93), ("mod_p_3_4.2wa", 192)])
def test_emit_dfa_on_the_committed_sweepers(name, states, tmp_path, capsys):
    """CI's cli-smoke job emits both sweepers' machines and pins these counts."""
    source, out_path = str(E1_FILE.parent / name), tmp_path / "dfa.2wa"
    assert main(["emit-dfa", source, "--out", str(out_path)]) == 0
    assert f"states: {states}\n" in capsys.readouterr().out
    assert main(["equiv", source, str(out_path), "--max-len", "6"]) == 0


@pytest.mark.parametrize("method", METHODS)
def test_run_every_method_on_the_committed_gap_machine(method, capsys):
    """CI's cli-smoke job runs these words: "aei" is a path 0->1->2->3, "aeg" a cycle missing 3."""
    path = str(E1_FILE.parent / "gap4.2wa")
    for word, expected in (("aei", "true"), ("aeg", "false")):
        assert main(["run", path, "--word", word, "--method", method]) == 0
        assert f"result: {expected}\n" in capsys.readouterr().out


def test_run_budget_exit_code(e1_file, capsys):
    assert main(["run", e1_file, "--word", "aa", "--method", "svfa", "--budget", "2"]) == 4
    # svfa decides seed 65 on "bbb" over 44 distinct snapshots
    nf65 = str(E1_FILE.parent / "nf65.2wa")
    assert main(["run", nf65, "--word", "bbb", "--method", "svfa", "--budget", "44"]) == 0
    assert main(["run", nf65, "--word", "bbb", "--method", "svfa", "--budget", "43"]) == 4
    # a negative budget is a bad argument, not an exhausted budget
    assert main(["run", e1_file, "--word", "aa", "--method", "svfa", "--budget", "-5"]) == 3
    assert main(["complement", e1_file, "--word", "aa", "--budget", "-1"]) == 3
    assert capsys.readouterr().err.count("budget must be at least 0") == 2


def test_run_divide_budget_exit_code(tmp_path, capsys):
    """divide counts base cases against --budget, by default against its own 10^7."""
    deep, deeper = tmp_path / "ring-18.2wa", tmp_path / "ring-28.2wa"
    deep.write_text(serialize(port_ring(18)))
    deeper.write_text(serialize(port_ring(28)))
    deep, deeper, word = str(deep), str(deeper), "a" * 31
    # 3 304 713 base cases over 18 ports: past svfa's default of 10^6, within divide's own
    assert main(["run", deep, "--word", word, "--method", "divide"]) == 0
    assert "result: false" in capsys.readouterr().out
    assert main(["run", deep, "--word", word, "--method", "divide", "--budget", "1000"]) == 4
    # 28 ports would ask 22 378 415
    assert main(["run", deeper, "--word", word, "--method", "divide"]) == 4
    assert capsys.readouterr().err.count("budget of base cases") == 2


@pytest.mark.parametrize("method", ["oracle", "svfa", "divide", "gap", "agap"])
def test_run_rejects_a_negative_budget_for_every_method(e1_file, method, capsys):
    assert main(["run", e1_file, "--word", "aa", "--method", method, "--budget", "-5"]) == 3
    assert "budget must be at least 0" in capsys.readouterr().err


def test_equiv_identical(e1_file, capsys):
    assert main(["equiv", e1_file, e1_file, "--max-len", "5"]) == 0
    assert "equivalent: true" in capsys.readouterr().out


def test_equiv_detects_seeded_mutation(e1_file, tmp_path, capsys):
    e1 = build_e1()
    delta = {key: list(val) for key, val in e1.delta.items()}
    delta[(3, "a")] = [(3, 1)]  # the returning sweep now runs the wrong way
    from outerfa import TwoWayAutomaton

    mutant = TwoWayAutomaton(e1.state_names, e1.alphabet, delta, e1.initial,
                             e1.accepting, declared_flavor="onfa")
    path = tmp_path / "mutant.2wa"
    path.write_text(serialize(mutant))
    assert main(["equiv", e1_file, str(path), "--max-len", "6"]) == 5
    out = capsys.readouterr().out
    assert "equivalent: false" in out
    assert "counterexample:" in out


def test_equiv_ignores_the_order_of_alphabet_letters(e1_file, tmp_path, capsys):
    text = serialize(build_e1())
    assert "alphabet: a b\n" in text
    path = tmp_path / "e1_ba.2wa"
    path.write_text(text.replace("alphabet: a b\n", "alphabet: b a\n"))
    assert parse(path.read_text()).alphabet == ("b", "a")
    assert main(["equiv", e1_file, str(path), "--max-len", "4"]) == 0
    assert "equivalent: true" in capsys.readouterr().out
    # a different letter set is still refused
    other = tmp_path / "e1_abc.2wa"
    other.write_text(text.replace("alphabet: a b\n", "alphabet: a b c\n"))
    assert main(["equiv", e1_file, str(other), "--max-len", "4"]) == 3
    assert "different alphabets" in capsys.readouterr().err


def test_equiv_rejects_a_negative_length(e1_file, capsys):
    assert main(["equiv", e1_file, e1_file, "--max-len", "-3"]) == 3
    captured = capsys.readouterr()
    assert "equivalent" not in captured.out
    assert "--max-len" in captured.err


def test_equiv_refuses_more_words_than_its_ceiling(e1_file, tmp_path, capsys, monkeypatch):
    # 2**41 - 1 words: refused at once, before any word is decided
    monkeypatch.setattr("outerfa.cli._decide", None)
    assert main(["equiv", e1_file, e1_file, "--max-len", "40"]) == 4
    captured = capsys.readouterr()
    assert "equivalent" not in captured.out
    assert "ceiling of 1,000,000 words" in captured.err
    monkeypatch.undo()
    # without letters there is one word, whatever the length
    empty = tmp_path / "empty.2wa"
    empty.write_text(INITIAL_ACCEPTING["one_state"].replace("alphabet: a", "alphabet:"))
    assert main(["equiv", str(empty), str(empty), "--max-len", str(10**12)]) == 0
    # the ceiling counts every length: 31 words of E1's two letters, or of one letter, pass
    monkeypatch.setattr("outerfa.cli.EQUIV_WORDS", 31)
    unary = str(E1_FILE.parent / "mod_p_3_4.2wa")
    for path, fits in ((e1_file, 4), (unary, 30)):
        assert main(["equiv", path, path, "--max-len", str(fits)]) == 0
        assert main(["equiv", path, path, "--max-len", str(fits + 1)]) == 4
    assert capsys.readouterr().err.count("ceiling of 31 words") == 2


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.2wa"
    bad.write_text("type: onfa\nstates q\n")
    assert main(["classify", str(bad)]) == 2


def test_directory_as_input_exit_code(tmp_path, capsys):
    assert main(["classify", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _refuse_build(*args, **kwargs):
    raise RuntimeError("emit-dfa built the machine before checking --out")


def test_directory_as_output_exit_code(tmp_path, capsys, monkeypatch):
    src = tmp_path / "ea.2wa"
    src.write_text(serialize(build_ea()))
    # an output path that cannot be written is refused before the build
    monkeypatch.setattr("outerfa.cli.materialize_dfa", _refuse_build)
    for out in (tmp_path, tmp_path / "missing" / "x.2wa"):
        assert main(["emit-dfa", str(src), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_non_utf8_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "latin1.2wa"
    bad.write_bytes(serialize(build_e1()).replace("qF", "q\xe9").encode("latin-1"))
    assert main(["classify", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_normalize_alternating(e2_file, capsys):
    assert main(["normalize", e2_file, "--alternating"]) == 0
    out = capsys.readouterr().out
    machine = parse(out)
    assert machine.universal
    assert machine.n <= 18
