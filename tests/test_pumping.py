import random
import tracemalloc

import pytest

from polymu import FiniteTree, GraphFormatError, PolymuError, ResourceLimitError, Signature
from polymu.automata import find_pumping_pair, formula_to_apt, accepts, winning_state_sets
from polymu.logic import parse_formula
from polymu.pumping import (
    DEFAULT_WORD_SIG,
    _zones,
    check_luni,
    gen_rword_tree,
    is_isomorphic,
    is_rword,
    pump,
)
from polymu.graphs import unfold
from polymu.randgen import Xorshift, rand_graph
from polymu.semantics import models
from polymu.xcheck import _rand_decorated_chain

from conftest import SIG_AF, SIG_ABF, depth, levels, root_path, succ


def a_chain(n):
    nodes = [f"v{i}" for i in range(n)]
    edges = [(f"v{i}", "a", f"v{i+1}") for i in range(n - 1)]
    return FiniteTree(SIG_AF, nodes, "v0", edges, {nodes[-1]: ["f"]})


def branchy():
    # v0 -> v1 -> v2 -> v3, with u below v1 and w below v2
    nodes = ["v0", "v1", "v2", "v3", "u", "w"]
    edges = [
        ("v0", "a", "v1"),
        ("v1", "a", "v2"),
        ("v2", "a", "v3"),
        ("v1", "a", "u"),
        ("v2", "a", "w"),
    ]
    return FiniteTree(SIG_AF, nodes, "v0", edges, {"v3": ["f"], "u": ["f"]})


def zones(tree, path, i, j):
    """The node ids before the segment, in it, and at or below v_j, as
    pump reads them from _zones."""
    parts = (set(), set(), set())
    for v, z in zip(tree.nodes, _zones(tree, path, i, j)):
        parts[z].add(v)
    return parts


def test_partition_chain():
    t = a_chain(6)
    want = ({"v0"}, {"v1", "v2"}, {"v3", "v4", "v5"})
    assert zones(t, [f"v{i}" for i in range(6)], 1, 3) == want


def test_partition_branches_join_segment():
    t = branchy()
    path = ["v0", "v1", "v2", "v3"]
    assert zones(t, path, 1, 3) == ({"v0"}, {"v1", "v2", "u", "w"}, {"v3"})
    assert zones(t, path, 1, 2) == ({"v0"}, {"v1", "u"}, {"v2", "v3", "w"})


def test_partition_errors():
    t = a_chain(4)
    path = [f"v{i}" for i in range(4)]
    with pytest.raises(PolymuError, match="0 < i < j"):
        _zones(t, path, 0, 2)
    with pytest.raises(PolymuError, match="0 < i < j"):
        _zones(t, path, 2, 2)
    with pytest.raises(PolymuError, match="0 < i < j"):
        _zones(t, path, 1, 4)
    with pytest.raises(PolymuError, match="not a root path"):
        _zones(t, ["v1", "v2"], 1, 1)
    with pytest.raises(PolymuError, match="not in the tree"):
        _zones(t, ["v0", "x9"], 1, 1)


_APT_F = formula_to_apt(parse_formula("f", SIG_AF, 1), SIG_AF)

PATH_USERS = {
    "winning_state_sets": lambda t, path: winning_state_sets(_APT_F, t, path),
    "find_pumping_pair": lambda t, path: find_pumping_pair(_APT_F, t, path),
    "_zones": lambda t, path: _zones(t, path, 1, 2),
    "pump": lambda t, path: pump(t, path, 1, 2, 2),
}


@pytest.mark.parametrize("user", sorted(PATH_USERS))
@pytest.mark.parametrize("path, message", [
    ([], "path is empty"),
    (["v0", "x9", "v2"], "path node x9 is not in the tree"),
    (["v1", "v2", "v3"], "not a root path: path must start at the root"),
    (["v0", "v2", "v3"], "not a root path: path breaks between v0 and v2"),
    (["v0", "v0", "v1"], "not a root path: path breaks between v0 and v0"),
])
def test_every_path_user_rejects_alike(user, path, message):
    with pytest.raises(PolymuError) as err:
        PATH_USERS[user](a_chain(4), path)
    assert str(err.value) == message


def ref_partition_nodes(tree, path, i, j):
    """The root-path-prefix partition that subtree walks replaced."""
    pre_i = tuple(path[: i + 1])
    pre_j = tuple(path[: j + 1])
    before, segment, after = set(), set(), set()
    for v in tree.nodes:
        rp = root_path(tree, v)
        if rp[: j + 1] == pre_j:
            after.add(v)
        elif rp[: i + 1] == pre_i:
            segment.add(v)
        else:
            before.add(v)
    return before, segment, after


def test_partition_matches_root_path_prefixes():
    cases = []
    for k in range(40):
        rng = Xorshift.substream(60713, k)
        t = unfold(rand_graph(rng, SIG_ABF, 4, min_nodes=2), rng.randint(2, 4))
        deepest = max(depth(t, v) for v in t.nodes)
        cases += [(t, root_path(t, v)) for v in t.nodes if depth(t, v) == deepest][:3]
        cases.append((_rand_decorated_chain(rng, Signature(("a",), ("f", "g")), 8),
                      [f"s{m}" for m in range(8)]))
    pairs = 0
    for t, path in cases:
        for j in range(2, len(path)):
            for i in range(1, j):
                assert zones(t, path, i, j) == ref_partition_nodes(t, path, i, j)
                pairs += 1
    assert pairs > 500


def test_deep_chain_keeps_linear_state():
    n = 8000
    nodes = [f"v{i}" for i in range(n)]
    edges = [(f"v{i}", "a", f"v{i+1}") for i in range(n - 1)]
    tracemalloc.start()
    try:
        t = FiniteTree(SIG_AF, nodes, "v0", edges, {nodes[-1]: ["f"]})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert depth(t, nodes[-1]) == n - 1
    assert root_path(t, nodes[-1]) == tuple(nodes)
    assert tuple(map(len, zones(t, nodes, 1000, 3000))) == (1000, 2000, 5000)
    assert len(pump(t, nodes, 1000, 3000, 0).nodes) == n - 2000
    assert len(pump(t, nodes, 1000, 3000, 2).nodes) == n + 2000


def test_pump_chain_counts():
    t = a_chain(6)
    path = [f"v{i}" for i in range(6)]
    out0 = pump(t, path, 1, 3, 0)
    assert len(out0.nodes) == 4
    assert sorted(out0.nodes) == ["v0", "v3", "v4", "v5"]
    assert ("v0", "a", "v3") in out0.edges
    out2 = pump(t, path, 1, 3, 2)
    assert len(out2.nodes) == 8
    # still a single a-chain
    assert all(len(succ(out2, v, "a")) <= 1 for v in out2.nodes)
    for k in range(5):
        out = pump(t, path, 1, 3, k)
        assert len(out.nodes) == 1 + 3 + 2 * k


def test_pump_k1_isomorphic():
    for t, path in [
        (a_chain(6), [f"v{i}" for i in range(6)]),
        (branchy(), ["v0", "v1", "v2", "v3"]),
    ]:
        out = pump(t, path, 1, 3, 1)
        assert is_isomorphic(t, out)
        assert set(out.nodes) != set(t.nodes)


def test_pump_copies_branches_and_labels():
    t = branchy()
    out = pump(t, ["v0", "v1", "v2", "v3"], 1, 3, 2)
    # u and w are copied with the segment, labels preserved
    assert len(out.nodes) == 2 + 2 * 4
    assert out.label("(u,0)") == frozenset({"f"})
    assert out.label("(u,1)") == frozenset({"f"})
    assert out.label("v3") == frozenset({"f"})
    # copies chain through the exit edge's action
    assert ("(v2,0)", "a", "(v1,1)") in out.edges
    assert ("(v2,1)", "a", "v3") in out.edges
    assert ("v0", "a", "(v1,0)") in out.edges


def test_pump_rejects_bad_k():
    t = a_chain(4)
    with pytest.raises(PolymuError, match="k must be"):
        pump(t, ["v0", "v1", "v2", "v3"], 1, 2, -1)


def test_pump_refuses_more_nodes_than_the_budget_before_copying():
    t = a_chain(4)  # v0 before, v1 the segment, v2 and v3 after: 3 + k nodes
    path = ["v0", "v1", "v2", "v3"]
    limit = 1 << 20
    for k in (limit - 2, 10**7, 10**18):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=f"^pump: more than {limit} nodes$"):
                pump(t, path, 1, 2, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    assert len(pump(t, path, 1, 2, 1000).nodes) == 1003


def test_pump_keeps_the_duplicate_id_check():
    # the copy (v1,0) of v1 collides with a node of that id outside the segment
    t = FiniteTree(SIG_AF, ["v0", "v1", "v2", "(v1,0)"], "v0",
                   [("v0", "a", "v1"), ("v1", "a", "v2"), ("v0", "a", "(v1,0)")], {})
    with pytest.raises(GraphFormatError, match=r"^nodes\[3\]: duplicate id '\(v1,0\)'$"):
        pump(t, ["v0", "v1", "v2"], 1, 2, 1)


def test_pump_preserves_acceptance_end_to_end():
    phi = parse_formula("mu X. f | <a>X", SIG_AF, 1)
    apt = formula_to_apt(phi, SIG_AF)
    n = 2 ** len(apt.states) + 1
    t = a_chain(n + 4)
    path = [f"v{i}" for i in range(n + 1)]
    assert accepts(apt, t)
    i, j = find_pumping_pair(apt, t, path)
    for k in (0, 2, 3):
        assert accepts(apt, pump(t, path, i, j, k)), k
    assert is_isomorphic(t, pump(t, path, i, j, 1))


def test_gen_rword_example():
    word = [((), "a"), ((), "b"), (("f",), "a")]
    t = gen_rword_tree(word, 2, 2)
    assert len(t.nodes) == 7
    assert t.signature == DEFAULT_WORD_SIG
    lv = levels(t)
    assert [len(l) for l in lv] == [1, 2, 4]
    assert all(t.label(v) == frozenset({"f"}) for v in lv[2])
    assert all(t.label(v) == frozenset() for l in lv[:2] for v in l)
    assert [a for (u, a, _) in t.edges if u == "n"] == ["a", "a"]
    assert {a for (u, a, _) in t.edges if u != "n"} == {"b"}
    assert is_rword(t)
    assert check_luni(t) == 2


def test_gen_rword_depth_zero_and_errors():
    t = gen_rword_tree([(("f",), "a")], 3, 0)
    assert len(t.nodes) == 1
    assert t.label("n") == frozenset({"f"})
    with pytest.raises(PolymuError, match="word length"):
        gen_rword_tree([((), "a")], 2, 2)
    with pytest.raises(PolymuError, match="branching"):
        gen_rword_tree([((), "a")], 0, 0)
    with pytest.raises(PolymuError, match="not in the signature"):
        gen_rword_tree([((), "c")], 2, 1)
    with pytest.raises(PolymuError, match="not in the signature"):
        gen_rword_tree([(("g",), "a")], 2, 1)


def test_gen_rword_refuses_past_the_node_bound_before_building(monkeypatch):
    """2 + 4 + ... + 2^20 nodes below the root make 2,097,151 in all, past
    _MAX_NODES: refused before any node list or tree is made, as is one
    level of _MAX_NODES children."""
    from polymu import pumping

    def built(*args):
        raise AssertionError("a FiniteTree was constructed")

    monkeypatch.setattr(pumping, "FiniteTree", built)
    word = [(("f",), "a")] * 20
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="gen_rword_tree"):
            gen_rword_tree(word, 2, 20)
        with pytest.raises(ResourceLimitError, match="gen_rword_tree"):
            gen_rword_tree(word, pumping._MAX_NODES, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_is_rword_mismatch_and_truncation():
    sig = DEFAULT_WORD_SIG
    # f on only one of two level-1 siblings
    t = FiniteTree(sig, ["r", "x", "y"], "r",
                   [("r", "a", "x"), ("r", "a", "y")], {"x": ["f"]})
    assert not is_rword(t)
    assert check_luni(t) is None
    # mixed actions out of one level
    t = FiniteTree(sig, ["r", "x", "y"], "r",
                   [("r", "a", "x"), ("r", "b", "y")], {})
    assert not is_rword(t)
    # early truncation keeps the word property
    t = FiniteTree(sig, ["r", "x", "y", "z"], "r",
                   [("r", "a", "x"), ("r", "a", "y"), ("x", "b", "z")],
                   {"x": ["f"], "y": ["f"]})
    assert is_rword(t)
    assert check_luni(t) == 1


def test_check_luni_prefers_least_level():
    word = [(("f",), "a"), (("f",), "b"), ((), "a")]
    t = gen_rword_tree(word, 2, 2)
    assert check_luni(t) == 0


def test_reach_formula_agrees_with_check_luni():
    sig = DEFAULT_WORD_SIG
    phi = parse_formula("mu X. f | <a>X | <b>X", sig, 1)
    inside_hit = gen_rword_tree([((), "a"), (("f",), "b"), ((), "a")], 2, 2)
    inside_miss = gen_rword_tree([((), "a"), ((), "b"), ((), "a")], 2, 2)
    # the formula agrees with the level check on word-shaped trees
    for t in (inside_hit, inside_miss):
        assert models(t, phi) == (check_luni(t) is not None)


# ---------------------------------- isomorphism and levels against references


def ref_levels(tree):
    """Node sets by depth, by a breadth-first walk over the edge triples."""
    levels = [{tree.root}]
    while nxt := {w for u, _, w in tree.edges if u in levels[-1]}:
        levels.append(nxt)
    return levels


def ref_canonical_form(tree):
    """The nested-tuple form is_isomorphic compared before it numbered
    classes: per node its color code and its sorted (action, child form)
    pairs, built deepest level first; over one signature, equal forms
    mean isomorphic trees."""
    code = dict(zip(tree.nodes, tree._codes()))
    kids = {v: [] for v in tree.nodes}
    for u, a, w in tree.edges:
        kids[u].append((a, w))
    canon = {}
    for level in reversed(ref_levels(tree)):
        for v in level:
            canon[v] = (code[v], tuple(sorted((a, canon[w]) for a, w in kids[v])))
    return canon[tree.root]


def ref_is_rword(tree):
    levels = ref_levels(tree)
    return all(len({tree.label(v) for v in level}) == 1
               and len({a for u, a, _ in tree.edges if u in level}) <= 1 for level in levels)


def ref_check_luni(tree, color):
    levels = ref_levels(tree)
    return next((n for n, level in enumerate(levels)
                 if all(color in tree.label(v) for v in level)), None)


def relabeled(tree, rng, flip=None, swap=None):
    """tree with its node and edge order shuffled and every id renamed;
    flip names a node whose first color is toggled, swap the index of an
    edge (in tree.edges) whose action becomes another one."""
    names = [f"x{k}" for k in range(len(tree.nodes))]
    rng.shuffle(names)
    new = dict(zip(tree.nodes, names))
    order = list(tree.nodes)
    rng.shuffle(order)
    actions = tree.signature.actions
    edges = [(new[u], actions[(actions.index(a) + (k == swap)) % len(actions)], new[w])
             for k, (u, a, w) in enumerate(tree.edges)]
    rng.shuffle(edges)
    first = {tree.signature.colors[0]}
    labels = {new[v]: tree.label(v) ^ (first if v == flip else set()) for v in tree.nodes}
    return FiniteTree(tree.signature, [new[v] for v in order], new[tree.root], edges, labels)


def recolored(tree, c):
    """tree with color c and the color check_luni reads swapped on every node."""
    d = "f" if "f" in tree.signature.colors else tree.signature.colors[0]
    swap = {c: d, d: c}
    labels = {v: {swap.get(x, x) for x in tree.label(v)} for v in tree.nodes}
    return FiniteTree(tree.signature, list(tree.nodes), tree.root, list(tree.edges), labels)


def tree_corpus():
    """Seeded small trees: unfolds of random graphs, word-shaped trees,
    pumps of both, and decorated chains over a second signature."""
    trees = []
    for k in range(30):
        rng = Xorshift.substream(52711, k)
        word = [(("f",) if rng.chance(1, 2) else (), rng.choice("ab")) for _ in range(3)]
        for t in (unfold(rand_graph(rng, SIG_ABF, 4, min_nodes=2), rng.randint(1, 3)),
                  gen_rword_tree(word, rng.randint(1, 2), rng.randint(1, 3))):
            trees.append(t)
            deepest = max(t.nodes, key=lambda v: depth(t, v))
            if depth(t, deepest) >= 2:
                trees.append(pump(t, root_path(t, deepest), 1, 2, rng.randint(0, 2)))
        trees.append(_rand_decorated_chain(rng, Signature(("a",), ("f", "g")), 5))
    return trees


def test_is_isomorphic_matches_the_nested_form():
    rng = random.Random(8191)
    trees = tree_corpus()
    outcomes = []
    for t in trees:
        others = [relabeled(t, rng), relabeled(t, rng, flip=rng.choice(t.nodes)),
                  rng.choice(trees), rng.choice(trees)]
        if len(t.signature.actions) > 1 and t.edges:
            others.append(relabeled(t, rng, swap=rng.randrange(len(t.edges))))
        for u in others:
            want = t.signature == u.signature and ref_canonical_form(t) == ref_canonical_form(u)
            assert is_isomorphic(t, u) == is_isomorphic(u, t) == want
            outcomes.append(want)
    assert outcomes.count(True) > 60 and outcomes.count(False) > 60


def test_is_rword_and_check_luni_match_brute_force():
    rng = random.Random(4099)
    seen_rword, seen_luni = set(), set()
    for t in tree_corpus():
        for u in (t, relabeled(t, rng)):
            assert is_rword(u) == ref_is_rword(u)
            seen_rword.add(is_rword(u))
            assert check_luni(u) == ref_check_luni(u, "f")
            for c in u.signature.colors:
                assert check_luni(recolored(u, c)) == ref_check_luni(u, c)
                seen_luni.add(check_luni(recolored(u, c)))
    assert seen_rword == {True, False}
    assert {None, 0, 1, 2} <= seen_luni


def test_is_isomorphic_answers_on_deep_chains():
    n = 2500
    t = a_chain(n)  # f on the deepest leaf only
    assert is_isomorphic(t, relabeled(t, random.Random(3)))
    bare = FiniteTree(SIG_AF, t.nodes, t.root, t.edges, {})
    assert not is_isomorphic(t, bare)
    assert not is_isomorphic(bare, t)


def test_builders_hand_over_the_shape_the_check_finds():
    # unfold and pump hand their trees' parents, depths and top-down order
    # to the trusted constructor; a fresh shape check on the same parts
    # finds the same parents and depths, and the handed order is one of its
    # kind: every position once, the root first, each after its parent
    checked = pumped = 0
    for k in range(80):
        rng = Xorshift.substream(60719, k)
        t = unfold(rand_graph(rng, SIG_ABF, 5, min_nodes=2, edge_den=2), rng.randint(1, 4))
        trees = [t]
        path = root_path(t, max(t.nodes, key=lambda v: depth(t, v)))
        if len(path) >= 3:
            j = rng.randint(2, len(path) - 1)
            i = rng.randint(1, j - 1)
            trees += [pump(t, path, i, j, c) for c in (0, 1, 2, 3)]
            chain = _rand_decorated_chain(rng, Signature(("a",), ("f", "g")), 7)
            twice = pump(chain, [f"s{m}" for m in range(7)], 1, 3, 3)
            trees += [twice, pump(twice, root_path(twice, "s6"), 2, 5, rng.randint(0, 3))]
            pumped += 1
        for u in trees:
            fresh = FiniteTree.from_graph(u)
            assert (u._parent, u._depth) == (fresh._parent, fresh._depth)
            assert sorted(u._order) == sorted(fresh._order) == list(range(len(u.nodes)))
            assert u._order[0] == u.index[u.root]
            seen = {u._order[0]}
            for p in u._order[1:]:
                assert u._parent[p][0] in seen
                seen.add(p)
            checked += 1
    assert pumped >= 50 and checked >= 400
