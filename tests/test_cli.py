import argparse
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from polymu.cli import _build_parser, _split_path, main
from polymu.graphs import FiniteTree, LabeledGraph, Signature, power, read_graph, write_graph

DATA = Path(__file__).parent / "data"

EX1_JSON = (
    '{"actions":["a"],"colors":["f"],'
    '"edges":[["0","a","1"],["1","a","2"],["2","a","1"]],'
    '"nodes":[{"colors":[],"id":"0"},{"colors":["f"],"id":"1"},{"colors":[],"id":"2"}],'
    '"root":"0"}'
)


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture
def ex1(tmp_path):
    p = tmp_path / "ex1.json"
    p.write_text(EX1_JSON)
    return str(p)


@pytest.fixture
def pow2(tmp_path, ex1):
    p = tmp_path / "pow2.json"
    p.write_text(write_graph(power(read_graph(EX1_JSON), 2)))
    return str(p)


@pytest.fixture
def chain(tmp_path):
    sig = Signature(("a",), ("f",))
    n = 20
    nodes = [f"v{k}" for k in range(n)]
    edges = [(f"v{k}", "a", f"v{k + 1}") for k in range(n - 1)]
    labels = {f"v{k}": ("f",) for k in range(0, n, 3)}
    p = tmp_path / "chain.json"
    p.write_text(write_graph(FiniteTree(sig, nodes, "v0", edges, labels)))
    return str(p), ",".join(nodes)


def test_gen_fixtures(capsys):
    code, out, _ = run(capsys, "gen", "ex1")
    assert code == 0
    assert out.strip() == EX1_JSON
    code, again, _ = run(capsys, "gen", "ex1")
    assert (code, again) == (0, out)

    code, out, _ = run(capsys, "gen", "power-ex1")
    assert code == 0
    assert out.strip() == write_graph(power(read_graph(EX1_JSON), 2))
    assert len(json.loads(out)["nodes"]) == 9

    code, out, _ = run(capsys, "gen", "rword")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["nodes"]) == 7
    assert sorted(n["id"] for n in doc["nodes"] if n["colors"]) == [
        "n.0.0", "n.0.1", "n.1.0", "n.1.1",
    ]

    code, _, err = run(capsys, "gen", "nope")
    assert code == 2 and "unknown fixture" in err


def test_gen_out_flag(capsys, tmp_path):
    dest = tmp_path / "g.json"
    code, out, _ = run(capsys, "gen", "ex1", "-o", str(dest))
    assert code == 0 and out == ""
    assert dest.read_text().strip() == EX1_JSON


def test_mc_example_pair(capsys, ex1):
    # the two-push variant holds; with a single second-component push the
    # box lands on the colorless right node and the formula fails
    code, out, _ = run(capsys, "mc", "--graph", ex1, "--arity", "2",
                       "--formula", "<a@0>(f@0 & <a@1>[a@1]f@1)")
    assert (code, out.strip()) == (0, "false")
    code, out, _ = run(capsys, "mc", "--graph", ex1, "--arity", "2",
                       "--formula", "<a@0>(f@0 & <a@1><a@1>[a@1]f@1)")
    assert (code, out.strip()) == (0, "true")


def test_mc_formula_from_file(capsys, ex1, tmp_path):
    f = tmp_path / "phi.txt"
    f.write_text("mu X. f | <a>X\n")
    code, out, _ = run(capsys, "mc", "--graph", ex1, "--formula", f"@{f}")
    assert (code, out.strip()) == (0, "true")


def test_mc_monofied_agrees(capsys, ex1, pow2):
    phi = "%{2,1,2}(<a@0>f@0 & <a@1>f@1)"
    code, base_out, _ = run(capsys, "mc", "--graph", ex1, "--arity", "3", "--formula", phi)
    assert code == 0
    code, mono_text, _ = run(capsys, "mono", "--graph", ex1, "-d", "2", "--formula", phi)
    assert code == 0
    code, lifted_out, _ = run(capsys, "mc", "--graph", pow2, "--formula", mono_text.strip())
    assert code == 0
    assert base_out == lifted_out


def test_mono_poly_round_trip(capsys, pow2):
    phi = "%{2,1,2}(<a@0>f@0 & mu X. f@1 | <a@1>X)"
    code, mono_text, _ = run(capsys, "mono", "--graph", pow2, "--formula", phi)
    assert code == 0
    code, back, _ = run(capsys, "poly", "--graph", pow2, "--formula", mono_text.strip())
    assert code == 0
    code, forth, _ = run(capsys, "mono", "--graph", pow2, "--formula", back.strip())
    assert (code, forth) == (0, mono_text)


def test_mono_needs_dimension(capsys, ex1):
    code, _, err = run(capsys, "mono", "--graph", ex1, "--formula", "f@0")
    assert code == 2 and "-d is required" in err


@pytest.mark.parametrize("cmd", ["mono", "poly"])
def test_mono_and_poly_refuse_a_dimension_the_graph_does_not_have(capsys, tmp_path, cmd):
    graph = tmp_path / "power-ex1.json"
    graph.write_text(run(capsys, "gen", "power-ex1")[1])
    assert run(capsys, cmd, "--graph", str(graph), "-d", "3", "--formula", "f@0") == \
        (2, "", f"error: {cmd}: graph has dimension 2, -d says 3\n")


def test_bisim_and_quotient(capsys, ex1, tmp_path):
    code, out, _ = run(capsys, "bisim", "--graph", ex1, "--graph2", ex1)
    assert (code, out.strip()) == (0, "true")
    nof = tmp_path / "nof.json"
    nof.write_text(EX1_JSON.replace('{"colors":["f"],"id":"1"}', '{"colors":[],"id":"1"}'))
    code, out, _ = run(capsys, "bisim", "--graph", ex1, "--graph2", str(nof))
    assert (code, out.strip()) == (0, "false")

    code, out, _ = run(capsys, "quotient", "--graph", ex1)
    assert code == 0
    q = json.loads(out)
    assert len(q["nodes"]) == 2  # 0 and 2 collapse
    qp = tmp_path / "q.json"
    qp.write_text(out)
    code, out, _ = run(capsys, "bisim", "--graph", ex1, "--graph2", str(qp))
    assert (code, out.strip()) == (0, "true")


def test_dbisim_output(capsys, pow2):
    code, out, _ = run(capsys, "dbisim", "--graph", pow2, "--i", "0", "--j", "0")
    lines = out.splitlines()
    assert code == 0
    assert "((0,0),(0,0))" in lines
    assert all(line.startswith("((") for line in lines)

    code, out, _ = run(capsys, "dbisim", "--graph", pow2)
    assert code == 0
    heads = [line for line in out.splitlines() if line.startswith("rel ")]
    assert heads == ["rel 0 0", "rel 0 1", "rel 1 0", "rel 1 1"]

    code, _, err = run(capsys, "dbisim", "--graph", pow2, "--i", "0")
    assert code == 2 and "go together" in err
    code, _, err = run(capsys, "dbisim", "--graph", pow2, "--i", "0", "--j", "5")
    assert code == 2 and "0..1" in err


def test_dbisim_output_is_stable(capsys, pow2, tmp_path):
    # every rel(i, j) of a 2-fold and a 3-fold power, as committed
    two = LabeledGraph(
        Signature(["a"], ["f"]), ["p", "q"], "p", [("p", "a", "q"), ("q", "a", "q")], {"q": ["f"]}
    )
    pow3 = tmp_path / "pow3.json"
    pow3.write_text(write_graph(power(two, 3)))
    for path, golden in ((pow2, "dbisim_pow2_ex1.txt"), (str(pow3), "dbisim_pow3_two.txt")):
        code, out, _ = run(capsys, "dbisim", "--graph", path)
        assert code == 0
        assert out == (DATA / golden).read_text(), golden


def test_builder_output_is_stable(capsys, ex1, pow2, tmp_path):
    # every graph builder behind the CLI, on ex1, its power and two trees
    two = tmp_path / "two.json"
    two.write_text(write_graph(LabeledGraph(
        Signature(["a"], ["f"]), ["p", "q"], "p", [("p", "a", "q"), ("q", "a", "q")], {"q": ["f"]}
    )))
    rword = tmp_path / "rword.json"
    code, out, _ = run(capsys, "gen", "rword")
    rword.write_text(out)
    for argv, golden in [
        (["gen", "power-ex1"], "build_gen_power_ex1.txt"),
        (["power", "--graph", str(two), "-d", "3"], "build_power3_two.txt"),
        (["product", "--graph", ex1, "--graph2", str(two)], "build_product_ex1_two.txt"),
        (["quotient", "--graph", ex1], "build_quotient_ex1.txt"),
        (["quotient", "--graph", pow2], "build_quotient_pow2_ex1.txt"),
        (["unfold", "--graph", ex1, "--depth", "3"], "build_unfold3_ex1.txt"),
        (["unfold", "--graph", pow2, "--depth", "3"], "build_unfold3_pow2_ex1.txt"),
        (["factor", "--graph", pow2, "--component", "0"], "build_factor0_pow2_ex1.txt"),
        (["factor", "--graph", pow2, "--component", "1"], "build_factor1_pow2_ex1.txt"),
        (["pump", "--graph", str(rword), "--path", "n,n.0,n.0.0", "--i", "1", "--j", "2",
          "--k", "2"], "build_pump_rword.txt"),
    ]:
        code, out, _ = run(capsys, *argv)
        assert code == 0, golden
        assert out == (DATA / golden).read_text(), golden


def test_apt_and_mc_verdicts_are_stable(capsys, tmp_path):
    # apt_verdicts.txt holds a "# fixture command formula" line before each
    # verdict: the modelcheck pattern shapes and a nu binder of priority 0
    # under a mu, on both gen fixtures and on the unfoldings of power-ex1 at
    # depths 5 and 6 (1,365 and 5,461 nodes, on both sides of the evaluator's
    # mask bound), through the automaton and the evaluator
    lines = (DATA / "apt_verdicts.txt").read_text().splitlines()
    graphs = {}
    for name in ("ex1", "power-ex1"):
        graphs[name] = tmp_path / f"{name}.json"
        graphs[name].write_text(run(capsys, "gen", name)[1])
    for depth in (5, 6):
        name = f"power-ex1-depth{depth}"
        graphs[name] = tmp_path / f"{name}.json"
        graphs[name].write_text(run(capsys, "unfold", "--graph", str(graphs["power-ex1"]),
                                    "--depth", str(depth))[1])
    for head, want in zip(lines[::2], lines[1::2]):
        _, name, cmd, phi = head.split(" ", 3)
        assert run(capsys, cmd, "--graph", str(graphs[name]), "--formula", phi) == \
            (0, want + "\n", ""), head
    assert len(lines) == 4 * 2 * 2 * 7
    assert {"true", "false"} == set(lines[1::2])


def test_detect_power_and_factor(capsys, ex1, pow2, tmp_path):
    code, out, _ = run(capsys, "detect-power", "--graph", pow2, "-d", "2",
                       "--method", "both")
    assert (code, out.strip()) == (0, "true")
    code, _, err = run(capsys, "detect-power", "--graph", pow2, "-d", "3")
    assert code == 2 and "dimension" in err

    fp = tmp_path / "f0.json"
    code, out, _ = run(capsys, "factor", "--graph", pow2, "--component", "0",
                       "-o", str(fp))
    assert code == 0
    code, out, _ = run(capsys, "bisim", "--graph", ex1, "--graph2", str(fp))
    assert (code, out.strip()) == (0, "true")


def test_power_product_unfold(capsys, ex1):
    code, out, _ = run(capsys, "power", "--graph", ex1, "-d", "1")
    assert code == 0
    assert json.loads(out)["root"] == "(0)"

    code, out, _ = run(capsys, "product", "--graph", ex1, "--graph2", ex1)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["nodes"]) == 9
    assert doc["root"] == "(0,0)"

    code, out, _ = run(capsys, "unfold", "--graph", ex1, "--depth", "2")
    assert code == 0
    assert len(json.loads(out)["nodes"]) == 3


def test_nonuniv_verdicts(capsys, ex1, pow2, tmp_path):
    code, out, _ = run(capsys, "nonuniv1", "--graph", ex1)
    assert (code, out.strip()) == (
        0, '{"exhausted_bound":false,"member":true,"witness":0}')

    code, out, _ = run(capsys, "nonuniv1-lifted", "--graph", pow2)
    assert (code, out.strip()) == (
        0, '{"exhausted_bound":false,"member":true,"witness":0}')

    code, _, err = run(capsys, "nonuniv1-lifted", "--graph", pow2, "-d", "3")
    assert code == 2 and "dimension" in err

    code, _, err = run(capsys, "nonuniv2", "--graph", ex1)
    assert code == 2 and "2 action(s)" in err

    two = tmp_path / "two.json"
    two.write_text(json.dumps({
        "actions": ["a", "b"], "colors": ["f"],
        "nodes": [{"id": "0", "colors": ["f"]}, {"id": "1", "colors": []}],
        "root": "0",
        "edges": [["0", "a", "0"], ["0", "b", "1"], ["1", "a", "1"], ["1", "b", "1"]],
    }))
    code, out, _ = run(capsys, "nonuniv2", "--graph", str(two))
    assert (code, out.strip()) == (
        0, '{"exhausted_bound":false,"member":true,"witness":"b"}')
    twop = tmp_path / "twop.json"
    code, out, _ = run(capsys, "power", "--graph", str(two), "-d", "2", "-o", str(twop))
    assert code == 0
    code, out, _ = run(capsys, "nonuniv2-lifted", "--graph", str(twop))
    assert (code, out.strip()) == (
        0, '{"exhausted_bound":false,"member":true,"witness":"b"}')


def test_pump_and_pump_find(capsys, chain):
    path_file, path = chain
    code, out, _ = run(capsys, "pump-find", "--graph", path_file,
                       "--formula", "mu X. f | <a>X", "--path", path)
    assert (code, out.strip()) == (0, "1 2")

    code, out, _ = run(capsys, "pump", "--graph", path_file, "--path", path,
                       "--i", "1", "--j", "2", "--k", "0")
    assert code == 0
    assert len(json.loads(out)["nodes"]) == 19

    code, out, _ = run(capsys, "pump", "--graph", path_file, "--path", path,
                       "--i", "1", "--j", "2", "--k", "3")
    assert code == 0
    assert len(json.loads(out)["nodes"]) == 22

    code, _, err = run(capsys, "pump", "--graph", path_file, "--path", "v0,v5",
                       "--i", "1", "--j", "2", "--k", "1")
    assert code == 2 and "root path" in err


def test_split_path_parenthesized_ids():
    assert _split_path("r,(x,1),z") == ["r", "(x,1)", "z"]
    assert _split_path("(0,0),(0,1)") == ["(0,0)", "(0,1)"]
    assert _split_path("v0") == ["v0"]
    assert _split_path("v0,,v1") == ["v0", "v1"]


def test_apt_dump_and_verdict(capsys, ex1):
    code, out, _ = run(capsys, "apt", "--formula", "mu X. f | <a>X")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "states 4 initial q0"
    assert lines[1] == "q0 p1 = q1 | q1  (mu X. f@0 | <a@0>X)"

    code, out, _ = run(capsys, "apt", "--formula", "mu X. f | <a>X", "--graph", ex1)
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(capsys, "apt", "--formula", "nu X. f & [a]X", "--graph", ex1)
    assert (code, out.strip()) == (0, "false")

    code, _, err = run(capsys, "apt", "--formula", "mu X. X | tt")
    assert code == 2 and "no colors" in err


def test_xcheck_report_and_determinism(capsys):
    code, out, _ = run(capsys, "xcheck", "--seed", "11", "--iters", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "xcheck seed=11 iterations=3"
    assert len(lines) == 14
    assert lines[-1] == "12 checks, 0 failures"
    assert all(" ok   " in line for line in lines[1:-1])

    code, again, _ = run(capsys, "xcheck", "--seed", "11", "--iters", "3")
    assert (code, again) == (0, out)


def test_xcheck_failure_exit_code(capsys, monkeypatch):
    from polymu import cli
    from polymu.xcheck import CheckResult

    monkeypatch.setattr(
        cli, "run_all", lambda cfg: [CheckResult(1, "stub", False, "boom")])
    code, out, _ = run(capsys, "xcheck")
    assert code == 3
    assert "FAIL stub: boom" in out
    assert "1 checks, 1 failures" in out


def test_input_error_exit_codes(capsys, tmp_path):
    code, _, err = run(capsys, "mc", "--graph", str(tmp_path / "none.json"),
                       "--formula", "f")
    assert code == 2 and "No such file" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "nonuniv1", "--graph", str(bad))
    assert code == 2 and "invalid JSON" in err

    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--graph", "x.json"])  # missing --formula
    assert exc.value.code == 2


def test_undecodable_input_files_are_input_errors(capsys, tmp_path, ex1):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(EX1_JSON.replace('"0"', '"é"').encode("latin-1"))
    for argv in (("mc", "--graph", str(latin1), "--formula", "tt"),
                 ("pump", "--graph", str(latin1), "--path", "0", "--i", "0", "--j", "0", "--k", "2"),
                 ("mc", "--graph", ex1, "--formula", f"@{latin1}")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {latin1}: invalid UTF-8: "), argv
        assert err.count("\n") == 1, argv


def test_parser_is_built_once_per_process(capsys, monkeypatch, tmp_path, ex1, pow2):
    run(capsys, "gen", "ex1")  # builds the parser if no earlier test has
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    out_file = tmp_path / "p.json"
    for argv, want in [
        (["mc", "--graph", ex1, "--formula", "mu X. f | <a>X"], "true\n"),
        (["power", "--graph", ex1, "-d", "2", "-o", str(out_file)], ""),
        (["detect-power", "--graph", pow2], "true\n"),
        (["apt", "--graph", ex1, "--formula", "nu X. f & [a]X"], "false\n"),
    ]:
        assert run(capsys, *argv) == (0, want, ""), argv
    assert built == []
    assert out_file.read_text() == Path(pow2).read_text() + "\n"


def outcome(capsys, argv):
    """Exit code (or SystemExit code), stdout and stderr of main(argv)."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = ("SystemExit", e.code)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# name -> argv lists run in turn in one process; EX1, POW2 and OUT stand for files
SEQUENCES = {
    "power -o, then stdout": [
        ["power", "--graph", "EX1", "-d", "2", "-o", "OUT"], ["power", "--graph", "EX1", "-d", "2"]],
    "dbisim --i --j, then all": [
        ["dbisim", "--graph", "POW2", "--i", "0", "--j", "1"], ["dbisim", "--graph", "POW2"]],
    "mc --arity 2, then default": [
        ["mc", "--graph", "EX1", "--arity", "2", "--formula", "<a@0>(f@0 & <a@1><a@1>[a@1]f@1)"],
        ["mc", "--graph", "EX1", "--formula", "mu X. f | <a>X"]],
    "detect-power -d, then none": [
        ["detect-power", "--graph", "POW2", "-d", "2"], ["detect-power", "--graph", "POW2"]],
    "bad command between good": [
        ["mc", "--graph", "EX1", "--formula", "f"], ["bogus"], ["mc", "--graph", "EX1", "--formula", "f"]],
    "missing option between good": [
        ["mc", "--graph", "EX1", "--formula", "f"], ["mc", "--graph", "EX1"],
        ["mc", "--graph", "EX1", "--formula", "f"]],
    "help twice": [["--help"], ["--help"]],
    "mc help twice": [["mc", "--help"], ["mc", "--help"]],
}


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_calls_in_one_process_answer_as_first_calls(capsys, tmp_path, ex1, pow2, name):
    out = tmp_path / "out.json"
    files = {"EX1": ex1, "POW2": pow2, "OUT": str(out)}
    seq = [[files.get(a, a) for a in argv] for argv in SEQUENCES[name]]
    firsts = []
    for argv in seq:  # each on a newly built parser, as the first call of a process
        _build_parser.cache_clear()
        firsts.append(outcome(capsys, argv))
    written = out.read_text() if out.exists() else None
    _build_parser.cache_clear()
    assert [outcome(capsys, argv) for argv in seq] == firsts
    if written is not None:
        assert firsts[0][1] == "" and firsts[1][1] == written
        assert out.read_text() == written
    for code, stdout, stderr in firsts:
        if code == ("SystemExit", 2):
            assert stdout == "" and stderr.startswith("usage: polymu")


@pytest.mark.parametrize("argv, message", [
    (["power", "-d", "30"], "product: more than 1048576 nodes"),  # 3^30 nodes
    (["power", "-d", "10000000000"], "power: d = 10000000000 exceeds 1048576"),
    (["unfold", "--depth", "30"], "unfold: more than 1048576 nodes"),  # 32^4 at depth 4
    # a self-loop: ids of 1 + 4k characters at depth k, 2k^2 in all
    (["unfold", "--depth", "10000"], "unfold: more than 16777216 id characters"),
    (["pump", "--path", "0,1,2,3", "--i", "1", "--j", "2", "--k", "10000000"],
     "pump: more than 1048576 nodes"),  # a 4-node chain, 3 + k nodes
])
def test_exploding_builders_exit_2_before_allocating(capsys, tmp_path, ex1, argv, message):
    graph = ex1
    if argv[0] == "unfold":
        # the complete graph on 32 nodes, or on 1 node (a self-loop) for the id budget
        nodes = [str(k) for k in range(32 if argv[2] == "30" else 1)]
        g = LabeledGraph(Signature(("a",), ("f",)), nodes, "0",
                         [(u, "a", v) for u in nodes for v in nodes], {})
        graph = tmp_path / "complete.json"
        graph.write_text(write_graph(g))
    if argv[0] == "pump":
        nodes = ["0", "1", "2", "3"]
        g = LabeledGraph(Signature(("a",), ("f",)), nodes, "0",
                         [(u, "a", v) for u, v in zip(nodes, nodes[1:])], {})
        graph = tmp_path / "chain4.json"
        graph.write_text(write_graph(g))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv, "--graph", str(graph))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert peak < 32 << 20


def test_apt_refuses_a_game_over_the_position_budget(capsys, tmp_path):
    # 70,000 nodes and 16 automaton states: 1,120,000 positions
    nodes = [str(k) for k in range(70_000)]
    graph = tmp_path / "edgeless.json"
    graph.write_text(write_graph(LabeledGraph(Signature(("a",), ("f",)), nodes, "0", [], {})))
    code, out, err = run(capsys, "apt", "--formula", "<a>" * 15 + "f", "--graph", str(graph))
    assert (code, out, err) == (2, "", "error: acceptance_game: more than 1048576 positions\n")


def test_apt_and_mc_agree_on_deep_modal_nesting(capsys, tmp_path):
    graph = tmp_path / "loop.json"
    graph.write_text(write_graph(LabeledGraph(
        Signature(("a",), ("f",)), ["0"], "0", [("0", "a", "0")], {"0": ["f"]})))
    for text, want in [("<a>" * 400 + "f", "true"), ("<a>" * 400 + "~f", "false")]:
        for cmd in ("apt", "mc"):
            code, out, _ = run(capsys, cmd, "--formula", text, "--graph", str(graph))
            assert (code, out.strip()) == (0, want), cmd


def start_python_m_polymu(*argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen([sys.executable, "-m", "polymu", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def run_python_m_polymu(*argv):
    proc = start_python_m_polymu(*argv)
    out, err = proc.communicate(timeout=600)
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def test_python_m_polymu_runs_the_cli():
    done = run_python_m_polymu("--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: polymu")


def loop_graph(tmp_path):
    """One node with an a-loop and color f."""
    graph = tmp_path / "loop.json"
    graph.write_text(write_graph(LabeledGraph(
        Signature(("a",), ("f",)), ["0"], "0", [("0", "a", "0")], {"0": ["f"]})))
    return str(graph)


BIG = 10**5
# shape -> formula text, given the component suffix of its names
SHAPES = {
    "diamonds": lambda c: f"<a{c}>" * BIG + f"f{c}",
    "negations": lambda c: "~" * BIG + f"f{c}",
    "parentheses": lambda c: "(" * BIG + f"f{c}" + ")" * BIG,
    "conjunction": lambda c: " & ".join([f"f{c}"] * BIG),
    "disjunction": lambda c: " | ".join([f"f{c}"] * BIG),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_formulas_deep_or_wide_get_answers(tmp_path, shape):
    graph = loop_graph(tmp_path)

    def printed(c):
        return f"f{c}" if shape == "parentheses" else SHAPES[shape](c)

    # command -> (extra flags, component suffix of the input names, stdout)
    runs = {
        "mc": ((), "", "true"),
        "mono": (("-d", "1"), "@0", printed("@0@0")),
        "poly": (("-d", "1"), "@0", printed("@0")),
    }
    procs = {}
    for cmd, (flags, c, _) in runs.items():
        text = tmp_path / f"{cmd}.txt"  # too long for one command-line argument
        text.write_text(SHAPES[shape](c))
        procs[cmd] = start_python_m_polymu(cmd, "--graph", graph, "--formula", f"@{text}", *flags)
    for cmd, proc in procs.items():
        out, err = proc.communicate(timeout=600)
        assert (proc.returncode, err) == (0, ""), (cmd, err[-400:])
        assert out == runs[cmd][2] + "\n", cmd


def test_apt_answers_deep_nesting_and_refuses_past_its_name_budget(tmp_path):
    graph = loop_graph(tmp_path)
    done = run_python_m_polymu("apt", "--graph", graph, "--formula", "<a>" * 500 + "f")
    assert (done.returncode, done.stdout, done.stderr) == (0, "true\n", "")
    # the k + 1 states of <a>^k f have names of about 2.5 k^2 characters in all
    done = run_python_m_polymu("apt", "--graph", graph, "--formula", "<a>" * 3000 + "f")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: formula_to_apt: more than 16777216 state-name characters\n"


def test_deeply_nested_graph_json_is_a_format_error(tmp_path):
    graph = tmp_path / "deep.json"
    graph.write_text("[" * BIG)
    done = run_python_m_polymu("mc", "--graph", str(graph), "--formula", "f")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: invalid JSON: ")
    assert done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
