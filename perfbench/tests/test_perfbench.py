"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import polymu.cli  # noqa: E402
import polymu.graphs  # noqa: E402
import polymu.xcheck  # noqa: E402

import corpus  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from runner import INCORRECT, OK, TIMEOUT, WRONG, Op, run_pass  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


def _build(name, seed, tmp_path):
    return workloads.build(name, seed, tmp_path / f"{name}-{seed}", polymu.cli, polymu.xcheck, 8.0, 60.0)


def test_same_seed_same_corpus_hash(tmp_path):
    for name in workloads.WORKLOADS:
        a = _build(name, 3, tmp_path / "a")
        b = _build(name, 3, tmp_path / "b")
        c = _build(name, 4, tmp_path / "c")
        assert a.sha256 == b.sha256
        # xcheck runs at fixed RunConfig seeds
        assert (a.sha256 == c.sha256) == (name == "xcheck")


def test_xorshift_matches_library_generator():
    from polymu.randgen import Xorshift as LibXorshift

    ours, lib = corpus.Xorshift.substream(7, 5), LibXorshift.substream(7, 5)
    assert [ours.next_u64() for _ in range(20)] == [lib.next_u64() for _ in range(20)]


def _chain_file(tmp_path) -> str:
    g = corpus.Graph(("a",), ("f",), ["0", "1", "2"], "0",
                     {("0", "a", "1"), ("1", "a", "2")}, {"2": frozenset({"f"})})
    path = tmp_path / "chain.json"
    path.write_text(g.to_json())
    return str(path)


def test_flipped_verdict_counts_as_failed(tmp_path):
    argv = ["mc", "--graph", _chain_file(tmp_path), "--formula", "mu X. f | <a>X"]
    right = Op("mc/right", lambda: polymu.cli.main(argv), 5.0, workloads._expect(True))
    flipped = Op("mc/flipped", lambda: polymu.cli.main(argv), 5.0, workloads._expect(False))
    outcomes = run_pass([right, flipped])
    assert [o.status for o in outcomes] == [OK, WRONG]
    assert outcomes[1].status in INCORRECT


def test_disagreeing_routes_both_fail(tmp_path):
    path = _chain_file(tmp_path)
    mc = Op("mc/x", lambda: polymu.cli.main(["mc", "--graph", path, "--formula", "mu X. f | <a>X"]),
            5.0, workloads._agrees("apt/x"))
    apt = Op("apt/x", lambda: polymu.cli.main(["mc", "--graph", path, "--formula", "f"]),
             5.0, workloads._agrees("mc/x"))
    outcomes = run_pass([mc, apt])
    assert [o.status for o in outcomes] == [WRONG, WRONG]


def test_deadline_cuts_off_a_loop_the_program_cannot_swallow():
    def loop():
        try:
            while True:
                pass
        except Exception:  # the alarm must not be caught here
            return 0

    t0 = time.perf_counter()
    outcomes = run_pass([Op("loop", loop, 0.2), Op("after", lambda: 0, 5.0)])
    assert time.perf_counter() - t0 < 2.0
    assert [o.status for o in outcomes] == [TIMEOUT, OK]
    assert 0.15 < outcomes[0].elapsed < 1.0  # less the speed samples taken inside it


def test_self_time_on_nested_spans():
    # op 0: a [0, 100] holds b [10, 40] and c [50, 90]; c holds b [60, 70]
    spans = [
        (3, 2, "b", 0, 60, 70),
        (1, 0, "b", 0, 10, 40),
        (0, -1, "a", 0, 0, 100),
        (2, 0, "c", 0, 50, 90),
        (4, -1, "c", 1, 200, 205),
    ]
    assert self_times(spans) == {"a": 100 - 30 - 40, "b": 30 + 10, "c": 40 - 10 + 5}


def test_tracer_rebinds_and_restores(tmp_path):
    original = polymu.graphs.read_graph
    init = polymu.graphs.LabeledGraph.__init__
    tracer = Tracer()
    tracer.install()
    try:
        assert polymu.cli.read_graph is not original
        tracer.begin_op()
        polymu.cli.main(["mc", "--graph", _chain_file(tmp_path), "--formula", "f"])
    finally:
        tracer.restore()
    assert polymu.cli.read_graph is original and polymu.graphs.read_graph is original
    assert polymu.graphs.LabeledGraph.__init__ is init
    names = {s[2]: s for s in tracer.spans()}
    top = names["cli.main"]
    assert top[1] == -1
    assert names["graphs.read_graph"][1] == top[0]
    assert names["graphs.LabeledGraph"][1] == names["graphs.read_graph"][0]
    assert tracer.sizes["semantics.evaluate.tuple_space"] == 3


def test_reference_bisimilarity():
    g = corpus.Graph(("a",), ("f",), ["0", "1"], "0", {("0", "a", "1"), ("1", "a", "1")}, {})
    loop = corpus.Graph(("a",), ("f",), ["x"], "x", {("x", "a", "x")}, {})
    assert reference.bisimilar(g, loop)
    assert not reference.is_minimal(g) and reference.is_minimal(loop)
    assert not reference.bisimilar(g, corpus.toggle_root_color(g))


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
