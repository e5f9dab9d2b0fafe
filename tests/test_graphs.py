"""Core graph type, products, unfolding, serialization."""
import itertools
import json
import random
import re
import tracemalloc
import types
from pathlib import Path

import pytest

from polymu import graphs as graphs_module
from polymu.errors import GraphFormatError, ResourceLimitError
from polymu.graphs import (
    FiniteTree,
    _closure,
    _digit_zero,
    _image,
    _pred_lists,
    _pred_rows,
    _shift_targets,
    _shifts,
    _spread,
    _succ_lists,
    _succ_rows,
    _tagged_succ_lists,
    LabeledGraph,
    RESET,
    Signature,
    lift_signature,
    power,
    product,
    read_graph,
    read_tree,
    split_lifted,
    unfold,
    unlift,
    write_graph,
)
from polymu.randgen import Xorshift, rand_graph, rand_lifted_graph

from conftest import SIG_AF, SIG_ABF, depth, levels, make_loop3, root_path, succ, successors

DATA = Path(__file__).parent / "data"


def _index_ok(g):
    return len(g.index) == len(g.nodes) and all(g.nodes[g.index[v]] == v for v in g.nodes)


def test_signature_validation():
    with pytest.raises(GraphFormatError, match="actions"):
        Signature([], ["f"])
    with pytest.raises(GraphFormatError, match="colors"):
        Signature(["a"], [])
    with pytest.raises(GraphFormatError, match="duplicate"):
        Signature(["a", "a"], ["f"])
    with pytest.raises(GraphFormatError, match="duplicate"):
        Signature(["a"], ["a"])
    with pytest.raises(GraphFormatError, match="bad name"):
        Signature(["A"], ["f"])
    with pytest.raises(GraphFormatError, match="bad name"):
        Signature(["a@1@0"], ["f"])
    # lifted-form names are fine
    Signature(["a@0", "rst@0"], ["f@0"])


def test_lift_signature_shape():
    sig = lift_signature(SIG_ABF, 2)
    assert sig.actions == ("a@0", "a@1", "b@0", "b@1", "rst@0", "rst@1")
    assert sig.colors == ("f@0", "f@1")
    base, d = split_lifted(sig)
    assert base == SIG_ABF and d == 2


def test_lift_rejects_relift_and_reserved():
    with pytest.raises(GraphFormatError, match="lifted"):
        lift_signature(lift_signature(SIG_AF, 1), 2)
    with pytest.raises(GraphFormatError, match="reserved"):
        lift_signature(Signature(["rst"], ["f"]), 2)


def test_split_lifted_rejects_partial():
    with pytest.raises(GraphFormatError):
        split_lifted(Signature(["a@0", "rst@0", "rst@1"], ["f@0", "f@1"]))
    with pytest.raises(GraphFormatError):
        split_lifted(Signature(["a"], ["f"]))
    with pytest.raises(GraphFormatError, match="reset"):
        split_lifted(Signature(["rst@0"], ["f@0"]))


_LIFTED_RE = re.compile(r"([a-z0-9_]+)@(\d+)\Z")


def ref_split_lifted(sig: Signature) -> tuple[Signature, int]:
    """split_lifted as it stood with its own name loop, frozen as the reference."""
    act_idx: dict[str, set[int]] = {}
    col_idx: dict[str, set[int]] = {}
    act_order: list[str] = []
    col_order: list[str] = []
    for name in sig.actions:
        m = _LIFTED_RE.match(name)
        if not m:
            raise GraphFormatError(f"actions: {name!r} is not of the form x@i")
        base, i = m.group(1), int(m.group(2))
        if base not in act_idx:
            act_idx[base] = set()
            act_order.append(base)
        act_idx[base].add(i)
    for name in sig.colors:
        m = _LIFTED_RE.match(name)
        if not m:
            raise GraphFormatError(f"colors: {name!r} is not of the form c@i")
        base, i = m.group(1), int(m.group(2))
        if base not in col_idx:
            col_idx[base] = set()
            col_order.append(base)
        col_idx[base].add(i)
    if RESET not in act_idx:
        raise GraphFormatError(f"actions: no {RESET}@i actions, not a lifted signature")
    d = max(act_idx[RESET]) + 1
    full = set(range(d))
    for base, idx in itertools.chain(act_idx.items(), col_idx.items()):
        if idx != full:
            raise GraphFormatError(
                f"signature: component indices for {base!r} are {sorted(idx)}, expected 0..{d - 1}"
            )
    act_order.remove(RESET)
    if not act_order:
        raise GraphFormatError("actions: only reset actions present")
    return Signature(act_order, col_order), d


def _split_or_error(split, sig):
    try:
        return split(sig)
    except GraphFormatError:
        return "error"


def _signature_corpus(rng, count):
    """Shuffled lifts at d = 1..3, lifts with one name dropped or added, and
    random name sets.  No index has a leading zero: "a@01" decodes like
    "a@1" but is no lifted name, and only the reference accepts it."""
    pool = [f"{x}@{i}" for x in ("a", "b", "f", "g", RESET) for i in range(4)] + ["a", "f"]
    out = []
    while len(out) < count:
        kind = len(out) % 3
        if kind == 2:
            names = rng.sample(pool, rng.randint(2, 9))
            cut = rng.randint(1, len(names) - 1)
            actions, colors = names[:cut], names[cut:]
        else:
            d = rng.randint(1, 3)
            base = Signature(rng.sample("abc", rng.randint(1, 3)), rng.sample("fgh", rng.randint(1, 3)))
            lifted = lift_signature(base, d)
            actions, colors = list(lifted.actions), list(lifted.colors)
            if kind == 1:
                side = rng.choice([actions, colors])
                if rng.randint(0, 1) and len(side) > 1:
                    side.pop(rng.randrange(len(side)))
                else:
                    side.append(f"{rng.choice('abcfgh') if rng.randint(0, 3) else RESET}@{rng.randint(0, d)}")
            rng.shuffle(actions)
            rng.shuffle(colors)
        try:
            out.append(Signature(actions, colors))
        except GraphFormatError:  # duplicate names
            pass
    return out


def test_split_lifted_matches_reference():
    sigs = _signature_corpus(random.Random(8), 5400)
    results = [_split_or_error(split_lifted, s) for s in sigs]
    assert results == [_split_or_error(ref_split_lifted, s) for s in sigs]
    assert 1000 < sum(r != "error" for r in results) < 4400
    # only the exact names of a lift pass, so a zero-padded index fails
    with pytest.raises(GraphFormatError):
        split_lifted(Signature(["a@0", "a@01", "rst@0", "rst@1"], ["f@0", "f@1"]))
    # a stray large index is refused without building the lift it names
    with pytest.raises(GraphFormatError):
        split_lifted(Signature(["a@0", "rst@0", f"rst@{10 ** 12}"], ["f@0"]))


def test_power_builds_each_signature_once(monkeypatch):
    pool = [Signature(a, c) for a, c in (("a", "f"), ("ab", "f"), ("a", "fg"), ("ab", "fg"))]
    rng = Xorshift(21)
    graphs = [rand_graph(rng, pool[k % 4], 3) for k in range(100)]
    lift_signature.cache_clear()
    split_lifted.cache_clear()
    built = []
    init = Signature.__init__
    monkeypatch.setattr(Signature, "__init__", lambda self, *a: built.append(init(self, *a)))
    for g in graphs:
        assert split_lifted(power(g, 2).signature) == (g.signature, 2)
    assert len(built) == 8  # one lift and one split per base signature


def test_unlift():
    assert unlift("a@0") == ("a", 0)
    assert unlift("rst@12") == ("rst", 12)
    for bad in ("a", "a@", "@1", "a@b@1", "A@1"):
        with pytest.raises(GraphFormatError, match="not of the form x@i"):
            unlift(bad)


def test_graph_validation_errors():
    with pytest.raises(GraphFormatError, match="root"):
        LabeledGraph(SIG_AF, ["0"], "9", [], {})
    with pytest.raises(GraphFormatError, match="duplicate id"):
        LabeledGraph(SIG_AF, ["0", "0"], "0", [], {})
    with pytest.raises(GraphFormatError, match="unknown action 'z'"):
        LabeledGraph(SIG_AF, ["0"], "0", [("0", "z", "0")], {})
    with pytest.raises(GraphFormatError, match="unknown target"):
        LabeledGraph(SIG_AF, ["0"], "0", [("0", "a", "1")], {})
    with pytest.raises(GraphFormatError, match="duplicate edge"):
        LabeledGraph(SIG_AF, ["0"], "0", [("0", "a", "0"), ("0", "a", "0")], {})
    with pytest.raises(GraphFormatError, match="unknown color"):
        LabeledGraph(SIG_AF, ["0"], "0", [], {"0": ["g"]})
    with pytest.raises(GraphFormatError, match="unknown node"):
        LabeledGraph(SIG_AF, ["0"], "0", [], {"1": ["f"]})


def test_adjacency(loop3):
    assert successors(loop3) == {("0", "a"): ("1",), ("1", "a"): ("2",), ("2", "a"): ("1",)}
    assert loop3.label("1") == frozenset({"f"})
    assert loop3.label("0") == frozenset()


def test_power_counts(loop3):
    p = power(loop3, 2)
    assert len(p.nodes) == 9
    assert len(p.edges) == 36
    by_action = {}
    for _, a, _ in p.edges:
        by_action[a] = by_action.get(a, 0) + 1
    assert by_action == {"a@0": 9, "a@1": 9, "rst@0": 9, "rst@1": 9}
    assert p.root == "(0,0)"
    assert p.label("(1,0)") == frozenset({"f@0"})
    assert p.label("(0,1)") == frozenset({"f@1"})
    assert p.label("(1,1)") == frozenset({"f@0", "f@1"})
    assert succ(p, "(0,0)", "a@0") == ("(1,0)",)
    assert succ(p, "(2,1)", "rst@0") == ("(0,1)",)
    assert succ(p, "(2,1)", "rst@1") == ("(2,0)",)
    assert _index_ok(p)


def _edge_count_formula(g, d):
    # one reset edge per node per component, plus lifted copies of base edges
    n = len(g.nodes)
    return d * n**d + d * len(g.edges) * n ** (d - 1)


def test_product_edge_count_brute_force():
    sig = SIG_ABF
    samples = [
        LabeledGraph(sig, ["0"], "0", [], {}),
        LabeledGraph(sig, ["0", "1"], "0", [("0", "a", "1"), ("1", "b", "0"), ("1", "a", "1")], {"1": ["f"]}),
        make_loop3_ab(),
        LabeledGraph(
            sig,
            ["0", "1", "2", "3"],
            "0",
            [("0", "a", "1"), ("0", "b", "2"), ("2", "a", "3"), ("3", "b", "3"), ("1", "a", "0")],
            {"3": ["f"]},
        ),
    ]
    for g in samples:
        for d in (1, 2, 3):
            p = power(g, d)
            assert len(p.nodes) == len(g.nodes) ** d
            assert len(p.edges) == _edge_count_formula(g, d)


def make_loop3_ab():
    return LabeledGraph(
        SIG_ABF,
        ["0", "1", "2"],
        "0",
        [("0", "a", "1"), ("1", "b", "2"), ("2", "a", "1")],
        {"1": ["f"]},
    )


def test_product_mixed_factors():
    g1 = make_loop3()
    g2 = LabeledGraph(SIG_AF, ["x"], "x", [("x", "a", "x")], {"x": ["f"]})
    p = product([g1, g2])
    assert len(p.nodes) == 3
    assert p.root == "(0,x)"
    assert p.label("(1,x)") == frozenset({"f@0", "f@1"})
    assert succ(p, "(0,x)", "a@1") == ("(0,x)",)
    assert _index_ok(p)
    with pytest.raises(GraphFormatError, match="signature"):
        product([g1, LabeledGraph(SIG_ABF, ["0"], "0", [], {})])
    with pytest.raises(GraphFormatError, match="at least one"):
        product([])


def test_unfold_shape(loop3):
    t0 = unfold(loop3, 0)
    assert len(t0.nodes) == 1 and t0.root == "0"
    t = unfold(loop3, 3)
    # deterministic graph: a single path 0,1,2,1
    assert len(t.nodes) == 4
    leaves = [v for v in t.nodes if not succ(t, v, "a")]
    assert len(leaves) == 1
    assert depth(t, leaves[0]) == 3
    assert t.label(leaves[0]) == frozenset({"f"})
    assert _index_ok(t)
    with pytest.raises(GraphFormatError, match="depth"):
        unfold(loop3, -1)


def test_unfold_branching():
    g = LabeledGraph(
        SIG_ABF,
        ["0", "1"],
        "0",
        [("0", "a", "0"), ("0", "a", "1"), ("0", "b", "1")],
        {"1": ["f"]},
    )
    t = unfold(g, 2)
    # level sizes: 1, 3, then only the a-self-loop branch continues
    assert [len(lv) for lv in levels(t)] == [1, 3, 3]
    assert isinstance(t, FiniteTree)


def _ref_unfold_ids(g, n):
    """unfold's node ids by a walk over g.edges: level by level, each path
    extended by every action in signature order, then by the successors
    in id order."""
    adjacency = successors(g)
    ids = [g.root]
    frontier = [(g.root, g.root)]  # (path id, endpoint)
    for _ in range(n):
        frontier = [(f"{pid}|{a}|{w}", w) for pid, v in frontier
                    for a in g.signature.actions for w in adjacency.get((v, a), ())]
        ids += [pid for pid, _ in frontier]
    return tuple(ids)


def test_unfold_lists_successors_in_id_order():
    """unfold's node order follows node ids, not the order edges were
    given in: the graphs are renamed to awkward ids, so the two differ."""
    apart = 0
    for k in range(60):
        rng = Xorshift.substream(40963, k)
        g = rand_graph(rng, SIG_ABF, 8, min_nodes=3)
        names = ODD_IDS[k % len(ODD_IDS):] + ODD_IDS[:k % len(ODD_IDS)]
        g = _renamed(g, names[:len(g.nodes)], rng.choice(g.nodes))
        in_edge_order = [(u, a) + tuple(w for v, b, w in g.edges if (v, b) == (u, a))
                         for u in g.nodes for a in g.signature.actions]
        apart += in_edge_order != [(u, a) + succ(g, u, a)
                                   for u in g.nodes for a in g.signature.actions]
        for n in range(4):
            assert unfold(g, n).nodes == _ref_unfold_ids(g, n), (k, n)
    assert apart >= 30


@pytest.mark.parametrize("build", [
    lambda nodes, edges: FiniteTree(SIG_ABF, nodes, "0", edges, {}),
    lambda nodes, edges: FiniteTree.from_graph(LabeledGraph(SIG_ABF, nodes, "0", edges, {})),
], ids=["checked", "from_graph"])
@pytest.mark.parametrize("nodes, edges, message", [
    (["0", "1"], [("0", "a", "1"), ("1", "a", "0")], "edges: root '0' has an incoming edge"),
    (["0", "1"], [("0", "a", "1"), ("0", "b", "1")], "edges: node '1' has two incoming edges"),
    (["0", "1"], [], "nodes: '1' is unreachable from the root"),
    # 1 and 2 are each other's parent, so neither hangs below the root
    (["0", "1", "2"], [("1", "a", "2"), ("2", "a", "1")], "edges: cycle in tree"),
    # two faults each: edges are met grouped by action, so the a-edge into
    # the root comes before the b-edge that gives 1 its second parent ...
    (["0", "1"], [("0", "a", "1"), ("0", "b", "1"), ("1", "a", "0")],
     "edges: root '0' has an incoming edge"),
    # ... edges are checked before nodes ...
    (["0", "1", "2"], [("0", "a", "1"), ("0", "b", "1")], "edges: node '1' has two incoming edges"),
    # ... and a node without a parent is reported ahead of a cycle
    (["0", "1", "2", "3"], [("1", "a", "2"), ("2", "a", "1")],
     "nodes: '3' is unreachable from the root"),
], ids=["root", "two-parents", "unreachable", "cycle",
        "root-before-two-parents", "edges-before-nodes", "unreachable-before-cycle"])
def test_tree_validation(build, nodes, edges, message):
    with pytest.raises(GraphFormatError) as err:
        build(nodes, edges)
    assert str(err.value) == message


def test_tree_paths():
    t = FiniteTree(
        SIG_ABF,
        ["r", "x", "y", "z"],
        "r",
        [("r", "a", "x"), ("x", "b", "y"), ("r", "b", "z")],
        {},
    )
    assert root_path(t, "y") == ("r", "x", "y")
    assert t._parent[t.index["y"]] == (t.index["x"], "b")
    assert t._parent[t.index["r"]] is None
    assert levels(t) == [["r"], ["x", "z"], ["y"]]
    assert _index_ok(t)


CANON_LOOP3 = (
    '{"actions":["a"],"colors":["f"],'
    '"edges":[["0","a","1"],["1","a","2"],["2","a","1"]],'
    '"nodes":[{"colors":[],"id":"0"},{"colors":["f"],"id":"1"},{"colors":[],"id":"2"}],'
    '"root":"0"}'
)


def test_write_canonical(loop3):
    assert write_graph(loop3) == CANON_LOOP3


def test_read_write_round_trip(loop3):
    for g in (loop3, power(loop3, 2), unfold(loop3, 3)):
        assert read_graph(write_graph(g)) == g
        assert _index_ok(read_graph(write_graph(g)))
        assert write_graph(read_graph(write_graph(g))) == write_graph(g)


def test_read_errors():
    ok = CANON_LOOP3
    with pytest.raises(GraphFormatError, match="invalid JSON"):
        read_graph(b"{nope")
    with pytest.raises(GraphFormatError, match="top level"):
        read_graph(b"[1]")
    with pytest.raises(GraphFormatError, match="root: missing"):
        read_graph(ok.replace('"root":"0"', '"rooot":"0"').replace("}$", "}"))
    with pytest.raises(GraphFormatError, match="unknown field"):
        read_graph(ok[:-1] + ',"extra":1}')
    with pytest.raises(GraphFormatError, match=r"nodes\[0\]"):
        read_graph(ok.replace('{"colors":[],"id":"0"}', '{"id":"0"}'))
    with pytest.raises(GraphFormatError, match=r"edges\[0\]"):
        read_graph(ok.replace('["0","a","1"]', '["0","a"]'))
    with pytest.raises(GraphFormatError, match="unknown action 'z'"):
        read_graph(ok.replace('["0","a","1"]', '["0","z","1"]'))
    with pytest.raises(GraphFormatError, match="root"):
        read_graph(ok.replace('"root":"0"', '"root":"9"'))


def test_read_tree():
    g = make_loop3()
    with pytest.raises(GraphFormatError):
        read_tree(write_graph(g))
    t = unfold(g, 2)
    assert root_path(read_tree(write_graph(t)), t.nodes[-1]) == root_path(t, t.nodes[-1])


def test_product_label_and_edge_semantics_brute():
    # every product edge either moves one component along a base edge or resets it
    g = make_loop3_ab()
    for d in (1, 2):
        p = power(g, d)
        base, dd = split_lifted(p.signature)
        assert dd == d and base == g.signature
        for src, act, dst in p.edges:
            s = src[1:-1].split(",")
            t = dst[1:-1].split(",")
            name, i = act.rsplit("@", 1)
            i = int(i)
            assert [x for k, x in enumerate(s) if k != i] == [
                x for k, x in enumerate(t) if k != i
            ]
            if name == "rst":
                assert t[i] == g.root
            else:
                assert t[i] in succ(g, s[i], name)
        for t in itertools.product(g.nodes, repeat=d):
            v = "(" + ",".join(t) + ")"
            want = {f"{c}@{i}" for i in range(d) for c in g.label(t[i])}
            assert p.label(v) == frozenset(want)


# ---------------------------------------------- the trusted construction path


def ref_product(graphs):
    """product as it stood before the trusted path: tuple-keyed, and built
    through the validating constructor.  Kept frozen as the oracle."""
    if not graphs:
        raise GraphFormatError("graphs: need at least one factor")
    sig = graphs[0].signature
    for i, g in enumerate(graphs[1:], start=1):
        if g.signature != sig:
            raise GraphFormatError(f"graphs[{i}]: signature differs from graphs[0]")
    d = len(graphs)
    lifted = lift_signature(sig, d)
    tuples = list(itertools.product(*[g.nodes for g in graphs]))
    ids = {t: "(" + ",".join(t) + ")" for t in tuples}
    labels = {
        ids[t]: [f"{c}@{i}" for i in range(d) for c in graphs[i].label(t[i])]
        for t in tuples
    }
    adjacency = [successors(g) for g in graphs]
    edges = []
    for t in tuples:
        for i in range(d):
            for a in sig.actions:
                for u in adjacency[i].get((t[i], a), ()):
                    t2 = t[:i] + (u,) + t[i + 1 :]
                    edges.append((ids[t], f"{a}@{i}", ids[t2]))
            t_rst = t[:i] + (graphs[i].root,) + t[i + 1 :]
            edges.append((ids[t], f"{RESET}@{i}", ids[t_rst]))
    root = ids[tuple(g.root for g in graphs)]
    return LabeledGraph(lifted, [ids[t] for t in tuples], root, edges, labels)


# ids that sort apart from the tuple ids built from them: "(a!,…" < "(a,…"
ODD_IDS = ["a", "a!", "a+", "a,b", "(", ")", "b)", "a,", "1", "10"]


def _renamed(g, names, root):
    """g with its ids renamed in order to names, rooted at old node id root."""
    to = dict(zip(g.nodes, names))
    return LabeledGraph(
        g.signature, [to[v] for v in g.nodes], to[root],
        [(to[u], a, to[w]) for u, a, w in g.edges], {to[v]: g.label(v) for v in g.nodes},
    )


def _assert_same_graph(got, want):
    assert type(got) is type(want)
    assert got.signature == want.signature
    assert (got.nodes, got.root) == (want.nodes, want.root)
    assert sorted(got.edges) == sorted(want.edges)
    assert got.index == want.index
    assert [got.label(v) for v in got.nodes] == [want.label(v) for v in want.nodes]
    assert write_graph(got) == write_graph(want)


def _rebuilt(g):
    """g rebuilt from its own parts through the validating constructor."""
    return type(g)(g.signature, g.nodes, g.root, g.edges, {v: g.label(v) for v in g.nodes})


def test_product_matches_validating_reference():
    sig = Signature(("a", "b"), ("f", "g"))
    odd = 0
    for k in range(600):
        rng = Xorshift.substream(40960, k)
        d = 1 + k % 3
        factors = [rand_graph(rng, sig, (6, 5, 4)[d - 1]) for _ in range(d)]
        pick = random.Random(k)
        odd += k % 5 >= 3  # two in five with the odd ids
        factors = [
            _renamed(f, pick.sample(ODD_IDS, len(f.nodes)) if k % 5 >= 3 else f.nodes,
                     pick.choice(f.nodes))
            for f in factors
        ]
        got = product(factors)
        _assert_same_graph(got, ref_product(factors))
        _assert_same_graph(got, _rebuilt(got))
    assert odd == 240


def test_product_keeps_the_duplicate_id_check():
    # ("a,b", "c") and ("a", "b,c") both give the id "(a,b,c)"
    factors = [
        LabeledGraph(SIG_AF, ["a,b", "a"], "a", [], {}),
        LabeledGraph(SIG_AF, ["c", "b,c"], "c", [], {}),
    ]
    with pytest.raises(GraphFormatError) as want:
        ref_product(factors)
    with pytest.raises(GraphFormatError) as got:
        product(factors)
    assert str(got.value) == str(want.value) == "nodes[3]: duplicate id '(a,b,c)'"


def test_product_refuses_too_many_moves_before_building():
    # 512 nodes and 174,686 edges: the square has 262,144 nodes, under the
    # node cap, and 2 * 512 * (174,686 + 512) = 179,402,752 moves
    g = rand_graph(Xorshift.substream(5, 512), Signature(("a", "b"), ("f", "g")), 512, min_nodes=512)
    assert len(g.nodes) == 512 and sum(map(len, g._moves.values())) == 174_686
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as exc:
            power(g, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "product: more than 16777216 moves"
    assert peak < 1 << 20, peak


def test_product_move_budget_admits_exactly_the_limit(monkeypatch):
    # the budget counts every move of every component, resets included, so
    # the product's own edge count is the least budget that admits it
    cases = [[make_loop3()] * 2, [make_loop3_ab()] * 3,
             [make_loop3_ab(), LabeledGraph(SIG_ABF, ["0", "1"], "0", [("0", "b", "1")], {}),
              LabeledGraph(SIG_ABF, ["0"], "0", [("0", "a", "0")], {})]]
    for factors, moves in [(factors, len(product(factors).edges)) for factors in cases]:
        monkeypatch.setattr(graphs_module, "_MAX_MOVES", moves)
        assert len(product(factors).edges) == moves
        monkeypatch.setattr(graphs_module, "_MAX_MOVES", moves - 1)
        with pytest.raises(ResourceLimitError, match=f"^product: more than {moves - 1} moves$"):
            product(factors)


def test_product_move_budget_admits_the_square_of_a_thousand_nodes(monkeypatch):
    # 1,024 nodes with two a-edges each: the square has 1,048,576 nodes, at
    # the node cap, and 2 * 1,024 * (2,048 + 1,024) = 6,291,456 moves, under
    # the budget.  Building it takes about 1 GB, so the test stops at the
    # first step after the checks.
    n = 1024
    g = LabeledGraph(SIG_AF, [str(v) for v in range(n)], "0",
                     [(str(v), "a", str((2 * v + k) % n)) for v in range(n) for k in (0, 1)], {})

    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    monkeypatch.setattr(graphs_module, "lift_signature", admitted)
    with pytest.raises(Admitted):
        power(g, 2)


def test_unfold_keeps_the_duplicate_id_check():
    # r -a-> b -a-> c and r -a-> "b|a|c" both give the path id "r|a|b|a|c"
    g = LabeledGraph(SIG_AF, ["r", "b", "c", "b|a|c"], "r",
                     [("r", "a", "b"), ("b", "a", "c"), ("r", "a", "b|a|c")], {})
    with pytest.raises(GraphFormatError, match=r"nodes\[3\]: duplicate id 'r\|a\|b\|a\|c'"):
        unfold(g, 2)


def test_unfold_id_length_budget():
    # a self-loop on a 100-character id v: the depth-k id "v|a|v|…" has
    # 100 + 103k characters, so the ids to depth K have (K + 1)(200 + 103K) / 2
    v = "v" * 100
    g = LabeledGraph(SIG_AF, [v], v, [(v, "a", v)], {})
    t = unfold(g, 569)
    assert sum(map(len, t.nodes)) == 570 * 58807 // 2 <= 1 << 24 < 571 * 58910 // 2
    with pytest.raises(ResourceLimitError, match="^unfold: more than 16777216 id characters$"):
        unfold(g, 570)


def test_derived_graphs_equal_their_validated_rebuild():
    from polymu.bisim import component_view, quotient
    from polymu.pumping import pump

    built = 0
    for k in range(80):
        rng = Xorshift.substream(40961, k)
        g = rand_graph(rng, SIG_ABF, 5, min_nodes=2)
        p = power(g, 2)
        view = component_view(p, k % 2)
        t = unfold(g, 3)
        derived = [view, quotient(view), quotient(g), t]
        deepest = max(t.nodes, key=lambda v: depth(t, v))
        if depth(t, deepest) >= 2:
            path = root_path(t, deepest)
            derived.append(pump(t, path, 1, len(path) - 1, k % 4))
        for h in derived:
            _assert_same_graph(h, _rebuilt(h))
            built += 1
    assert built > 350


# ------------------------------------------- colors as one mask per color


def _drawn_labels(rng, g):
    """g with colors drawn afresh per node and a root drawn among its
    nodes, and each node id's colors: some nodes list a color twice, and
    some colorless nodes have no entry."""
    labels, want = {}, {}
    for v in g.nodes:
        cs = [c for c in g.signature.colors if rng.chance(1, 2)]
        want[v] = frozenset(cs)
        if cs or rng.chance(1, 2):
            labels[v] = cs + cs[: rng.below(2)]
    root = rng.choice(g.nodes)
    return LabeledGraph(g.signature, g.nodes, root, g.edges, labels), want


def _assert_masks(g, want):
    """g's color masks hold exactly the brute-force labels want (node id to
    colors), and its label() view agrees with them."""
    assert set(g._colors) == set(g.signature.colors)
    for c in g.signature.colors:
        assert g._colors[c] == sum(1 << k for k, v in enumerate(g.nodes) if c in want[v]), c
    for v in g.nodes:
        assert g.label(v) == want[v], v


def test_constructor_fills_one_mask_per_color():
    sig = Signature(("a",), ("f", "g"))
    g = LabeledGraph(sig, ["0", "1", "2"], "0", [], {"1": ["g", "f", "g"], "2": []})
    assert g._colors == {"f": 0b010, "g": 0b010}
    _assert_masks(g, {"0": set(), "1": {"f", "g"}, "2": set()})
    assert "h" not in g.label("1")
    with pytest.raises(GraphFormatError) as err:
        LabeledGraph(sig, ["0", "1"], "0", [], {"1": ["f", "zz", "f"]})
    assert str(err.value) == "labels['1']: unknown color 'zz'"


def test_power_and_product_masks_match_brute_force_labels():
    # c@i holds on a product node exactly where factor i's node carries c
    sig = Signature(("a", "b"), ("f", "g", "h"))
    for k in range(60):
        rng = Xorshift.substream(40962, k)
        d = 1 + k % 3
        drawn = [_drawn_labels(rng, rand_graph(rng, sig, (6, 5, 4)[d - 1])) for _ in range(d)]
        for g, want in drawn:
            _assert_masks(g, want)
        factors = [g for g, _ in drawn]
        for p, parts in ((product(factors), drawn), (power(factors[0], d), drawn[:1] * d)):
            want = {}
            for t in itertools.product(*[g.nodes for g, _ in parts]):
                colors = {f"{c}@{i}" for i, v in enumerate(t) for c in parts[i][1][v]}
                want["(" + ",".join(t) + ")"] = colors
            _assert_masks(p, want)


def test_derived_graph_masks_match_brute_force_labels():
    from polymu.bisim import component_view, quotient
    from polymu.pumping import pump
    from polymu.xcheck import _toggle_root_color

    sig = Signature(("a", "b"), ("f", "g"))
    pumped = 0
    for k in range(80):
        rng = Xorshift.substream(40963, k)
        g, want = _drawn_labels(rng, rand_graph(rng, sig, 5, min_nodes=2))
        p = power(g, 2)
        for i in range(2):
            _assert_masks(component_view(p, i), {
                "(" + ",".join(t) + ")": want[t[i]] for t in itertools.product(g.nodes, repeat=2)
            })
        q = quotient(g)
        _assert_masks(q, {r: want[r] for r in q.nodes})
        c = sig.colors[0]
        _assert_masks(_toggle_root_color(g),
                      {v: want[v] ^ {c} if v == g.root else want[v] for v in g.nodes})
        t = unfold(g, 3)
        at_end = {v: want[v.rsplit("|", 1)[-1]] for v in t.nodes}
        _assert_masks(t, at_end)
        deepest = max(t.nodes, key=lambda v: depth(t, v))
        if depth(t, deepest) >= 2:
            path = root_path(t, deepest)
            out = pump(t, path, 1, len(path) - 1, k % 4)
            copied = [re.fullmatch(r"\((.*),\d+\)", v) for v in out.nodes]
            _assert_masks(out, {v: at_end[m.group(1) if m else v]
                                for v, m in zip(out.nodes, copied)})
            pumped += 1
    assert pumped > 40


def test_analyses_leave_the_edge_view_unbuilt(loop3):
    from polymu.bisim import detect_power, factors
    from polymu.queries import one_lifted_non_universal

    p = power(loop3, 2)
    one_lifted_non_universal(p, 2)
    assert detect_power(p, 2, "both")
    fs = factors(p)
    assert p._edge_view is None
    assert all(f._edge_view is None for f in fs)
    # the view is read off the stored pairs: grouped by action, in input
    # order within each action
    g = LabeledGraph(SIG_ABF, ["0", "1"], "0",
                     [("1", "b", "0"), ("0", "a", "1"), ("0", "b", "1"), ("1", "a", "1")], {})
    assert g._moves == {"b": [(1, 0), (0, 1)], "a": [(0, 1), (1, 1)]}
    assert g.edges == (("1", "b", "0"), ("0", "b", "1"), ("0", "a", "1"), ("1", "a", "1"))
    assert repr(g) == "<LabeledGraph 2 nodes, 4 edges, root '0'>"


def test_derived_graphs_skip_the_validating_constructor(monkeypatch, loop3):
    from polymu.bisim import component_view, quotient
    from polymu.pumping import pump

    calls = []
    init = LabeledGraph.__init__

    def counting_init(self, *args):
        calls.append(type(self).__name__)
        init(self, *args)

    monkeypatch.setattr(LabeledGraph, "__init__", counting_init)
    p = power(loop3, 2)
    quotient(component_view(p, 1))
    t = unfold(loop3, 4)
    pump(t, root_path(t, max(t.nodes, key=lambda v: depth(t, v))), 1, 3, 2)
    read_tree(write_graph(t))  # the JSON boundary validates once, as a LabeledGraph
    assert calls == ["LabeledGraph"]

    good = {"actions": ["a"], "colors": ["f"], "root": "0",
            "nodes": [{"id": "0", "colors": []}, {"id": "1", "colors": ["f"]}]}
    for edges, message in [
        ([["0", "a", "2"]], "edges[0]: unknown target '2'"),
        ([["0", "b", "1"]], "edges[0]: unknown action 'b'"),
        ([["0", "a", "1"], ["0", "a", "1"]], "edges[1]: duplicate edge ('0', 'a', '1')"),
    ]:
        with pytest.raises(GraphFormatError) as err:
            read_graph(json.dumps(dict(good, edges=edges)))
        assert str(err.value) == message


def test_read_graph_rejects_undecodable_bytes():
    with pytest.raises(GraphFormatError, match="invalid UTF-8"):
        read_graph(b"\xff{}")
    with pytest.raises(GraphFormatError, match="invalid UTF-8"):
        read_graph(CANON_LOOP3.replace('"0"', '"é"').encode("latin-1"))
    assert read_graph(CANON_LOOP3.replace('"0"', '"é"').encode()).root == "é"


def ref_construct(sig, nodes, root, edges, labels):
    """The validating constructor's checks as they stood before it keyed
    edges by position: (nodes, moves, labels, root) or the first fault."""
    nodes = tuple(nodes)
    index = {}
    for i, v in enumerate(nodes):
        if not isinstance(v, str) or not v:
            raise GraphFormatError(f"nodes[{i}]: id must be a non-empty string")
        if v in index:
            raise GraphFormatError(f"nodes[{i}]: duplicate id {v!r}")
        index[v] = i
    if root not in index:
        raise GraphFormatError(f"root: {root!r} is not a node")
    action_set = set(sig.actions)
    color_set = set(sig.colors)
    moves = {}
    edge_set = set()
    for i, e in enumerate(edges):
        e = tuple(e)
        if len(e) != 3:
            raise GraphFormatError(f"edges[{i}]: expected [src, action, dst]")
        src, a, dst = e
        if src not in index:
            raise GraphFormatError(f"edges[{i}]: unknown source {src!r}")
        if dst not in index:
            raise GraphFormatError(f"edges[{i}]: unknown target {dst!r}")
        if a not in action_set:
            raise GraphFormatError(f"edges[{i}]: unknown action {a!r}")
        if e in edge_set:
            raise GraphFormatError(f"edges[{i}]: duplicate edge {e!r}")
        edge_set.add(e)
        moves.setdefault(a, []).append((index[src], index[dst]))
    lab = {v: frozenset() for v in nodes}
    for v, cs in labels.items():
        if v not in index:
            raise GraphFormatError(f"labels: unknown node {v!r}")
        cs = tuple(cs)
        for c in cs:
            if c not in color_set:
                raise GraphFormatError(f"labels[{v!r}]: unknown color {c!r}")
        lab[v] = frozenset(cs)
    return nodes, moves, lab, root


def ref_read_graph(text):
    """read_graph as it stood before its shape checks ran over whole
    lists: a per-item walk over nodes and edges, then the constructor."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise GraphFormatError("top level: expected an object")
    required = ["actions", "colors", "nodes", "root", "edges"]
    for key in required:
        if key not in obj:
            raise GraphFormatError(f"{key}: missing field")
    for key in obj:
        if key not in required:
            raise GraphFormatError(f"{key}: unknown field")
    for key in ("actions", "colors", "nodes", "edges"):
        if not isinstance(obj[key], list):
            raise GraphFormatError(f"{key}: expected a list")
    if not isinstance(obj["root"], str):
        raise GraphFormatError("root: expected a string")
    sig = Signature(obj["actions"], obj["colors"])
    nodes = []
    labels = {}
    for i, entry in enumerate(obj["nodes"]):
        if not isinstance(entry, dict) or set(entry) != {"id", "colors"}:
            raise GraphFormatError(f'nodes[{i}]: expected {{"id", "colors"}}')
        if not isinstance(entry["id"], str):
            raise GraphFormatError(f"nodes[{i}].id: expected a string")
        if not isinstance(entry["colors"], list) or not all(
            isinstance(c, str) for c in entry["colors"]
        ):
            raise GraphFormatError(f"nodes[{i}].colors: expected a list of strings")
        nodes.append(entry["id"])
        labels[entry["id"]] = entry["colors"]
    edges = []
    for i, e in enumerate(obj["edges"]):
        if not (isinstance(e, list) and len(e) == 3 and isinstance(e[0], str)
                and isinstance(e[1], str) and isinstance(e[2], str)):
            raise GraphFormatError(f"edges[{i}]: expected [src, action, dst] strings")
        edges.append(tuple(e))
    return ref_construct(sig, nodes, obj["root"], edges, labels)


def _outcome(build, *args):
    """(nodes, moves, labels, root) with their orders, or (exception type, message);
    a graph's labels are each node's label() in node order."""
    try:
        got = build(*args)
    except (GraphFormatError, TypeError) as e:
        return type(e), str(e)
    if isinstance(got, LabeledGraph):
        got = (got.nodes, got._moves, {v: got.label(v) for v in got.nodes}, got.root)
    nodes, moves, labels, root = got
    return nodes, list(moves.items()), list(labels.items()), root


def _plant(rng, obj, kind):
    """Plant one fault of the given kind into a graph JSON object; False
    when an earlier fault left no place for it."""
    nodes, edges = obj["nodes"], obj["edges"]
    entry = rng.choice(nodes)
    if kind == "entry not a dict":
        nodes[nodes.index(entry)] = rng.choice([["0", []], "0", 7, None])
    elif kind == "unknown root":
        obj["root"] = rng.choice(["nope", ""])
    elif kind in ("missing key", "extra key", "non-string id", "empty id", "duplicate id",
                  "colors not a list", "non-string color", "unknown color"):
        if not isinstance(entry, dict):
            return False
        colors = entry.get("colors")
        if kind == "missing key":
            del entry[rng.choice(["id", "colors"])]
        elif kind == "extra key":
            entry[rng.choice(["x", "ids"])] = rng.choice([1, "0", []])
        elif kind == "non-string id":
            entry["id"] = rng.choice([5, None, True, 1.5, ["0"], {"id": "0"}])
        elif kind == "empty id":
            entry["id"] = ""
        elif kind == "duplicate id":
            others = [n["id"] for n in nodes if n is not entry and isinstance(n, dict) and "id" in n]
            if not others:
                return False
            entry["id"] = rng.choice(others)
        elif kind == "colors not a list":
            entry["colors"] = rng.choice(["f", "fg", {"f": 1}, {}, 3, None])
        elif not isinstance(colors, list):
            return False
        elif kind == "non-string color":
            colors.insert(rng.randrange(len(colors) + 1), rng.choice([1, None, ["f"], {"f": 1}]))
        else:
            colors.append("zz")
    elif not edges:
        return False
    else:
        j = rng.randrange(len(edges))
        e = edges[j]
        if kind == "edge not a list":
            edges[j] = rng.choice(["0a1", "0a0", {"0": 1, "a": 2, "1": 3}, 3, None])
        elif kind == "wrong edge length":
            edges[j] = rng.choice([[], ["0"], ["0", "a"], ["0", "a", "0", "a"]])
        elif not (isinstance(e, list) and len(e) == 3):
            return False
        elif kind == "non-string edge field":
            e[rng.randrange(3)] = rng.choice([0, None, 1.5, False])
        elif kind == "unhashable edge field":
            e[rng.randrange(3)] = rng.choice([["0"], {"a": 1}])
        elif kind == "unknown source":
            e[0] = "nope"
        elif kind == "unknown target":
            e[2] = "nope"
        elif kind == "unknown action":
            e[1] = rng.choice(["z", "A", ""])
        else:
            edges.insert(rng.randrange(j + 1, len(edges) + 1), list(e))
    return True


FAULT_KINDS = (
    "entry not a dict", "missing key", "extra key", "non-string id", "empty id",
    "duplicate id", "colors not a list", "non-string color", "unknown color",
    "unknown root", "edge not a list", "wrong edge length", "non-string edge field",
    "unhashable edge field", "unknown source", "unknown target", "unknown action",
    "duplicate edge",
)


def test_read_graph_matches_the_per_item_reference_on_planted_faults():
    rng = random.Random(1919)
    seen = dict.fromkeys(FAULT_KINDS, 0)
    outcomes = {"graph": 0, "fault": 0}
    for _ in range(12000):
        n = rng.randint(1, 6)
        ids = rng.sample(["0", "1", "2", "a", "b,c", "(0,1)", "é", "10"], n)
        pairs = [(u, a, w) for u in ids for a in ("a", "b") for w in ids]
        obj = {
            "actions": ["a", "b"],
            "colors": ["f", "g"],
            "nodes": [{"id": v, "colors": rng.sample(["f", "g"], rng.randint(0, 2))} for v in ids],
            "root": rng.choice(ids),
            "edges": [list(e) for e in rng.sample(pairs, rng.randint(0, min(8, len(pairs))))],
        }
        for kind in rng.sample(FAULT_KINDS, rng.randint(0, 3)):
            seen[kind] += _plant(rng, obj, kind)
        text = json.dumps(obj, sort_keys=rng.random() < 0.5)
        want = _outcome(ref_read_graph, text)
        assert _outcome(read_graph, text) == want, text
        assert _outcome(read_graph, text.encode()) == want, text
        outcomes["fault" if isinstance(want[0], type) else "graph"] += 1
    assert all(seen.values()), seen
    assert min(outcomes.values()) > 2000, outcomes


def test_constructor_matches_the_reference_on_edge_forms():
    rng = random.Random(19)
    sig = Signature(("a", "b"), ("f", "g"))
    bad_edges = [("0", "a"), ("0", "a", "1", "b"), ("9", "a", "0"), ("0", "a", "9"),
                 ("0", "z", "0"), ("0", "a", "0"), "0a0", "0a"]
    for _ in range(2000):
        ids = [str(i) for i in range(rng.randint(1, 4))]
        edges = rng.sample([(u, a, w) for u in ids for a in sig.actions for w in ids],
                           rng.randint(0, 2))
        if rng.random() < 0.5:
            edges.insert(rng.randrange(len(edges) + 1), rng.choice(bad_edges))
        labels = {v: rng.sample(["f", "g", "h"], rng.randint(0, 2)) for v in ids
                  if rng.random() < 0.5}
        want = _outcome(ref_construct, sig, ids, "0", edges, labels)
        for form in (list(map(tuple, edges)), list(map(list, edges)),
                     (e for e in edges), (iter(e) for e in edges)):
            got = _outcome(LabeledGraph, sig, ids, "0", form, labels)
            assert got == want, (edges, labels)


class _Id(str):
    """A str subclass as a node id."""


def _labels_as(form, labels):
    """labels (node to a color list) in the given form, made afresh, as
    one-shot values are spent by one reading."""
    if form == "proxy":
        return types.MappingProxyType({v: list(cs) for v, cs in labels.items()})
    if form == "tuple":
        return {v: tuple(cs) for v, cs in labels.items()}
    if form == "str":  # "fg" reads as the two colors f and g
        return {v: "".join(cs) for v, cs in labels.items()}
    if form == "generator":
        return {v: (c for c in cs) for v, cs in labels.items()}
    return {v: list(cs) for v, cs in labels.items()}


NODE_AND_LABEL_FAULTS = (
    "str subclass id", "empty id", "duplicate id", "unhashable id", "unhashable root",
    "unknown node", "unknown color", "unhashable color", "fault after a second action",
)


def test_constructor_matches_the_reference_on_label_and_node_forms():
    rng = random.Random(23)
    sig = Signature(("a", "b"), ("f", "g"))
    seen = dict.fromkeys(NODE_AND_LABEL_FAULTS, 0)
    outcomes = {"graph": 0, "fault": 0}
    for _ in range(1500):
        ids = [str(i) for i in range(rng.randint(1, 4))]
        root = "0"
        pairs = [(u, a, w) for u in ids for a in sig.actions for w in ids]
        edges = rng.sample(pairs, rng.randint(0, min(3, len(pairs))))
        labels = {v: rng.sample(["f", "g"], rng.randint(0, 2)) for v in ids if rng.random() < 0.6}
        forms = ["list", "tuple", "str", "generator", "proxy"]
        for kind in rng.sample(NODE_AND_LABEL_FAULTS, rng.randint(0, 2)):
            seen[kind] += 1
            j = rng.randrange(len(ids))
            if kind == "str subclass id":
                ids[j] = _Id(ids[j])
            elif kind == "empty id":
                ids[j] = ""
            elif kind == "duplicate id":
                ids.insert(rng.randrange(len(ids) + 1), rng.choice(ids))
            elif kind == "unhashable id":
                ids[j] = [ids[j]]
            elif kind == "unhashable root":
                root = ["0"]
            elif kind == "unknown node":
                labels["9"] = ["f"]
            elif kind == "unknown color":
                labels.setdefault("0", []).append("h")
            elif kind == "unhashable color":
                labels.setdefault("0", []).insert(0, ["f"])
                forms.remove("str")
            else:
                firsts = [("0", "a", "0"), ("0", "b", "0")]
                bad = rng.choice([("0", "a", "0"), ("0", "z", "0"), ("9", "b", "0"), ("0", "b")])
                edges = firsts + [bad] + [e for e in edges if e not in firsts]
        for form in forms:
            want = _outcome(ref_construct, sig, ids, root, edges, _labels_as(form, labels))
            got = _outcome(LabeledGraph, sig, ids, root, edges, _labels_as(form, labels))
            assert got == want, (form, ids, root, edges, labels)
            outcomes["fault" if isinstance(want[0], type) else "graph"] += 1
    assert all(seen.values()), seen
    assert min(outcomes.values()) > 1500, outcomes


def _is_graph_json(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        return False
    return isinstance(obj, dict) and "nodes" in obj


def test_valid_input_takes_the_lean_pass(monkeypatch):
    # the per-item walk only names faults; valid input never needs it, and
    # a change that sent it there would still pass every other test
    def walk(*args):
        raise AssertionError("valid input reached the per-item walk")

    monkeypatch.setattr(graphs_module, "_walk_parts", walk)
    fixtures = [p.read_text() for p in sorted(DATA.glob("*.txt")) if _is_graph_json(p.read_text())]
    assert len(fixtures) >= 8
    for text in fixtures:
        assert write_graph(read_graph(text)) == text.strip()
    built = [make_loop3()]
    for seed in range(6):
        sig = Signature(("a", "b"), ("f", "g"))
        built.append(rand_graph(Xorshift.substream(2707, seed), sig, 9))
        built.append(rand_lifted_graph(Xorshift.substream(2708, seed), sig, 1 + seed % 3, 9))
    n = 2048
    ids = [str(i) for i in range(n)]
    big = LabeledGraph(SIG_ABF, ids, "0",
                       [(ids[i], "a", ids[(i + 1) % n]) for i in range(n)]
                       + [(ids[i], "b", ids[i * 7 % n]) for i in range(0, n, 3)],
                       {v: ["f"] for v in ids[::8]})
    built.append(big)
    assert len(big.nodes) == n and len(big.edges) == n + len(range(0, n, 3))
    for g in built:
        assert read_graph(write_graph(g)) == g


# ------------------------------------------------------- the bitmask kernel


def _bits(x):
    return {i for i in range(x.bit_length()) if x >> i & 1}


def _mask(positions):
    return sum(1 << i for i in set(positions))


def _rand_rows(rng, n):
    """Rows of a random relation on n positions, with about a third of the
    positions related to themselves."""
    return [_mask([rng.below(n) for _ in range(rng.below(4))] + ([i] if rng.chance(1, 3) else []))
            for i in range(n)]


def test_image_and_closure_match_set_references():
    loops = 0
    for k in range(300):
        rng = Xorshift.substream(2511, k)
        n = 1 if k % 10 == 0 else rng.randint(1, 40)
        rows = _rand_rows(rng, n)
        loops += sum(rows[i] >> i & 1 for i in range(n))
        s = 0 if k % 7 == 0 else _mask(rng.below(n) for _ in range(rng.below(n + 1)))
        image = set().union(*(_bits(rows[i]) for i in _bits(s)))
        assert _bits(_image(rows, s)) == image, k
        reach, todo = _bits(s), list(_bits(s))
        while todo:
            for j in _bits(rows[todo.pop()]) - reach:
                reach.add(j)
                todo.append(j)
        assert _bits(_closure(rows, s)) == reach, k
    assert _image([0], 0) == _closure([1], 0) == 0
    assert _image([1], 1) == _closure([1], 1) == 1
    assert loops > 0


def test_digit_helpers_match_set_references():
    """Over the positions of a product of factors of unequal sizes, ones
    included, the zero mask of each digit and its spread over a random set
    of digit values match a digit-by-digit reading of every position."""
    for k in range(60):
        rng = Xorshift.substream(2512, k)
        sizes = [1 if rng.chance(1, 5) else rng.randint(2, 5) for _ in range(rng.randint(1, 4))]
        size = 1
        for n in sizes:
            size *= n
        stride = size
        for n in sizes:
            stride //= n
            zero = _digit_zero(size, n, stride)
            assert _bits(zero) == {p for p in range(size) if p // stride % n == 0}, (sizes, n)
            digits = set() if k % 6 == 0 else {rng.below(n) for _ in range(rng.below(n + 1))}
            want = {p for p in range(size) if p // stride % n in digits}
            assert _bits(_spread(zero, stride, sorted(digits))) == want, (sizes, n, digits)


def _adjacency_cases():
    """Seeded random plain and lifted graphs, each with its edges handed
    over in shuffled order, a self-loop on every third node and its last
    action left without edges."""
    plain = Signature(("a", "b", "c"), ("f",))
    for k in range(12):
        rng = Xorshift.substream(2816, k)
        if k % 2:
            g = rand_lifted_graph(rng, Signature(("a", "b"), ("f",)), 2, 8, min_nodes=2)
        else:
            g = rand_graph(rng, plain, 8, min_nodes=2)
        empty = g.signature.actions[-1]
        edges = {e for e in g.edges if e[1] != empty}
        edges = sorted(edges | {(v, g.signature.actions[0], v) for v in g.nodes[::3]})
        for i in range(len(edges) - 1, 0, -1):
            j = rng.below(i + 1)
            edges[i], edges[j] = edges[j], edges[i]
        yield LabeledGraph(g.signature, g.nodes, g.root, edges, {}), edges, empty


def test_move_helpers_match_a_build_from_the_edges():
    """Successor and predecessor rows and lists, the tagged successor
    lists, the distinct shifts and the targets per shift, read through the
    graphs.py helpers, match a brute-force build from the id triples of
    edges; the lists follow the order the edges were given in, an action
    without edges gives empty rows and lists, and the rows of several
    actions are the union of theirs."""
    for case, (g, given, empty) in enumerate(_adjacency_cases()):
        at, n = g.index, len(g.nodes)
        actions = g.signature.actions
        scale = 3 + case
        tagged_by = []
        tagged = _tagged_succ_lists(g, lambda a: tagged_by.append(a) or ("tag", a), scale)
        assert len(tagged) == n and len(set(tagged_by)) == len(tagged_by), case
        for p in range(n):
            tags = [t for t, _ in tagged[p]]
            assert len(list(itertools.groupby(tags))) == len(set(tags)), (case, p)  # grouped
        rows = {}
        for a in actions:
            pairs = [(at[u], at[w]) for u, b, w in g.edges if b == a]
            assert pairs == [(at[u], at[w]) for u, b, w in given if b == a], case
            assert not pairs or a != empty, case
            assert not pairs or a in tagged_by, (case, a)
            for p in range(n):
                targets = [w for u, w in pairs if u == p]
                sources = [u for u, w in pairs if w == p]
                assert _succ_lists(g, a)[p] == targets, (case, a, p)
                assert _succ_lists(g, a, scale)[p] == [w * scale for w in targets], (case, a, p)
                assert _pred_lists(g, a)[p] == sources, (case, a, p)
                assert _pred_lists(g, a, scale)[p] == [u * scale for u in sources], (case, a, p)
                assert _pred_rows(g, a)[p] == sum(1 << u for u in sources), (case, a, p)
                assert [w for t, w in tagged[p] if t == ("tag", a)] == [w * scale for w in targets]
            rows[a] = [sum(1 << w for u, w in pairs if u == p) for p in range(n)]
            assert _succ_rows(g, [a]) == rows[a], (case, a)
            assert _shifts(g, a) == {w - u for u, w in pairs}, (case, a)
            by_shift = {}
            for u, w in pairs:
                by_shift.setdefault(w - u, []).append(w)
            assert _shift_targets(g, a) == by_shift, (case, a)
        assert 0 in _shifts(g, actions[0]), case  # the self-loops
        for r in (0, 2, len(actions)):
            for some in itertools.combinations(actions, r):
                want = [0] * n
                for a in some:
                    want = [x | y for x, y in zip(want, rows[a])]
                assert _succ_rows(g, some) == want, (case, some)
