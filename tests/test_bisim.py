"""Bisimulations, quotients, component families, power detection, factors."""
import itertools

import pytest

from polymu import bisim
from polymu.bisim import (
    bisimilar,
    bisimulation_partition,
    component_view,
    detect_power,
    factor,
    factors,
    largest_bisimulation,
    largest_d_bisimulation,
    power_conditions,
    power_formula_verdicts,
    quotient,
    relation_lines,
)
from polymu.errors import GraphFormatError, PolymuError
from polymu.graphs import (
    RESET, LabeledGraph, Signature, power, product, split_lifted, unfold, unlift, write_graph,
)
from polymu.logic import gen_is_power_formula
from polymu.semantics import models
from polymu.randgen import Xorshift, rand_base_signature, rand_graph, rand_lifted_graph

from conftest import SIG_AF, SIG_ABF, make_loop3, successors


def test_largest_bisimulation_loop3(loop3):
    rel = largest_bisimulation(loop3, loop3)
    assert rel == frozenset(
        {("0", "0"), ("0", "2"), ("2", "0"), ("2", "2"), ("1", "1")}
    )
    assert bisimilar(loop3, loop3)


def test_relation_direction():
    g1 = make_loop3()
    g2 = quotient(g1)
    r12 = largest_bisimulation(g1, g2)
    r21 = largest_bisimulation(g2, g1)
    assert r12 == frozenset((b, a) for a, b in r21)
    with pytest.raises(GraphFormatError, match="signature"):
        largest_bisimulation(g1, LabeledGraph(SIG_ABF, ["0"], "0", [], {}))


def _partition_pairs(g):
    pairs = set()
    for members in bisimulation_partition(g):
        pairs.update((u, v) for u in members for v in members)
    return frozenset(pairs)


def test_pair_deletion_matches_partition_refinement(loop3):
    branchy = LabeledGraph(
        SIG_ABF,
        ["0", "1", "2", "3", "4"],
        "0",
        [
            ("0", "a", "1"),
            ("0", "a", "2"),
            ("1", "b", "3"),
            ("2", "b", "4"),
            ("3", "a", "3"),
            ("4", "a", "4"),
            ("4", "b", "0"),
        ],
        {"3": ["f"], "4": ["f"]},
    )
    for g in (loop3, branchy, power(loop3, 2), unfold(loop3, 4)):
        assert largest_bisimulation(g, g) == _partition_pairs(g)


def _bisim_classes(g):
    """Bisimilarity classes read off the pair-deletion relation."""
    rel = largest_bisimulation(g, g)
    return sorted({tuple(sorted(w for w in g.nodes if (v, w) in rel)) for v in g.nodes})


def test_partition_refinement_terminates_on_renumbering_graph():
    # refinement here reaches a stable partition whose class ids keep
    # changing from round to round
    g = rand_graph(Xorshift.substream(1, 40), Signature(("a", "b"), ("f", "g")), 40)
    assert len(g.nodes) == 27
    assert bisimulation_partition(g) == _bisim_classes(g)


def test_partition_refinement_on_random_graphs():
    sig = Signature(("a", "b"), ("f", "g"))
    for k in range(20):
        g = rand_graph(Xorshift.substream(1, k), sig, 20, min_nodes=12)
        assert bisimulation_partition(g) == _bisim_classes(g), k
        assert len(quotient(g).nodes) == len(_bisim_classes(g))


def test_quotient(loop3):
    q = quotient(loop3)
    assert set(q.nodes) == {"0", "1"}
    assert q.root == "0"
    assert set(q.edges) == {("0", "a", "1"), ("1", "a", "0")}
    assert q.label("1") == frozenset({"f"})
    assert bisimilar(loop3, q)
    # minimality: distinct quotient nodes are non-bisimilar
    diag = frozenset((v, v) for v in q.nodes)
    assert largest_bisimulation(q, q) == diag


def _reference_pair_ok(succ1, succ2, u, v, rel, acts):
    for a in acts:
        su = succ1.get((u, a), ())
        sv = succ2.get((v, a), ())
        for u2 in su:
            if not any((u2, v2) in rel for v2 in sv):
                return False
        for v2 in sv:
            if not any((u2, v2) in rel for u2 in su):
                return False
    return True


def _reference_delete_pairs(g1, g2, rounds):
    """Plain Jacobi pair deletion on string pairs: every round re-checks
    every live pair against the relation at the round's start."""
    acts = g1.signature.actions
    rel = {(u, v) for u in g1.nodes for v in g2.nodes if g1.label(u) == g2.label(v)}
    succ1, succ2 = successors(g1), successors(g2)
    for _ in itertools.count() if rounds is None else range(rounds):
        dead = [p for p in rel if not _reference_pair_ok(succ1, succ2, p[0], p[1], rel, acts)]
        if not dead:
            break
        rel.difference_update(dead)
    return rel


def _reference_stable_round(g1, g2):
    """First round count after which the reference deletes nothing more."""
    k = 0
    while _reference_delete_pairs(g1, g2, k) != _reference_delete_pairs(g1, g2, k + 1):
        k += 1
    return k


def _grown_copy(g, rng, extra):
    """g under new ids, with extra nodes pointing into it and one edge
    flipped, so most pairs stay related for a while and some never die."""
    ids = {v: f"x{v}" for v in g.nodes}
    nodes = list(ids.values()) + [f"y{k}" for k in range(extra)]
    edges = {(ids[u], a, ids[w]) for u, a, w in g.edges}
    flip = (rng.choice(nodes), rng.choice(g.signature.actions), rng.choice(nodes))
    edges ^= {flip}
    for k in range(extra):
        edges.add((f"y{k}", rng.choice(g.signature.actions), rng.choice(nodes)))
    labels = {ids[v]: g.label(v) for v in g.nodes}
    labels.update({f"y{k}": ["f"] for k in range(extra) if rng.chance(1, 2)})
    return LabeledGraph(g.signature, nodes, ids[g.root], sorted(edges), labels)


def test_worklist_fixpoint_matches_the_reference():
    # the worklist's rounds are not observable from outside, so only its
    # fixpoint is compared with the Jacobi reference; the reference's
    # round count shows the cases need several rounds.  g2 (a grown copy
    # or an unfolding of g1) never has g1's size, so an index or divmod
    # mix-up between the two sides cannot go unnoticed
    sig = Signature(("a", "b"), ("f",))
    depths, verdicts = [], []
    for t in range(30):
        rng = Xorshift.substream(3, t)
        g1 = rand_graph(rng, sig, 8, min_nodes=4, edge_den=6, color_den=4)
        g2 = unfold(g1, 3) if t % 3 == 0 else _grown_copy(g1, rng, rng.randint(2, 4))
        assert len(g1.nodes) != len(g2.nodes), t
        depths.append(_reference_stable_round(g1, g2))
        ref = frozenset(_reference_delete_pairs(g1, g2, None))
        assert largest_bisimulation(g1, g2) == ref, t
        verdicts.append((g1.root, g2.root) in ref)
    assert max(depths) >= 4
    assert any(verdicts) and not all(verdicts)


def _chain(n):
    ids = [str(i) for i in range(n)]
    edges = [(ids[i], "a", ids[i + 1]) for i in range(n - 1)]
    return LabeledGraph(SIG_AF, ids, "0", edges, {ids[-1]: ["f"]})


def test_largest_bisimulation_on_long_chain():
    # node i sees f after exactly n - 1 - i steps, so only (i, i) survives;
    # it takes n - 1 rounds, each deleting pairs one step further from f
    g = _chain(400)
    assert largest_bisimulation(g, g) == frozenset((v, v) for v in g.nodes)


def test_component_view(loop3):
    p = power(loop3, 2)
    v0 = component_view(p, 0)
    assert v0.signature == SIG_AF
    assert successors(v0)["(0,1)", "a"] == ("(1,1)",)
    assert v0.label("(1,0)") == frozenset({"f"})
    assert v0.label("(0,1)") == frozenset()
    with pytest.raises(GraphFormatError, match="out of range"):
        component_view(p, 2)
    with pytest.raises(GraphFormatError):
        component_view(loop3, 0)


def _edge_view(g, i):
    """component_view as a scan over g.edges: x@i edges renamed x, in edge
    order, and c@i colors renamed c."""
    base, _ = split_lifted(g.signature)
    edges = []
    for u, a, w in g.edges:
        name, k = unlift(a)
        if name != RESET and k == i:
            edges.append((u, name, w))
    labels = {v: [c for c, k in map(unlift, g.label(v)) if k == i] for v in g.nodes}
    return LabeledGraph(base, g.nodes, g.root, edges, labels)


def _edge_conditions(g):
    """The three power conditions as a scan over g.edges, on the component
    relations that pair deletion computes between the per-edge views."""
    _, d = split_lifted(g.signature)
    views = [_edge_view(g, i) for i in range(d)]
    rel = {(i, j): largest_bisimulation(views[i], views[j]) for i in range(d) for j in range(d)}
    persistent = reset = True
    for u, a, w in g.edges:
        name, i = unlift(a)
        persistent &= all((u, w) in rel[j, j] for j in range(d) if j != i)
        if name == RESET:
            reset &= (w, g.root) in rel[i, i]
    rooted = all((g.root, g.root) in r for r in rel.values())
    return {"persistent": persistent, "reset": reset, "power_rooted": rooted}


def _lifted_corpus():
    """Random lifted graphs, powers, powers with one edge added, and
    products of two random graphs, at d = 2 and 3."""
    for t in range(240):
        rng = Xorshift.substream(41000, t)
        base = (SIG_AF, SIG_ABF)[t % 2]
        d = 2 + t // 2 % 2
        kind = t // 4 % 4
        if kind == 0:
            yield rand_lifted_graph(rng, base, d, 7, base_reachable=t % 3 > 0)
            continue
        if kind == 3:
            yield product([rand_graph(rng, base, 4) for _ in range(d)])
            continue
        p = power(rand_graph(rng, base, 4 - d // 3), d)
        if kind == 2:
            u, w = rng.choice(p.nodes), rng.choice(p.nodes)
            extra = (u, rng.choice(p.signature.actions), w)
            edges = set(p.edges) | {extra}
            p = LabeledGraph(p.signature, p.nodes, p.root, sorted(edges),
                             {v: p.label(v) for v in p.nodes})
        yield p


def test_positional_checks_match_per_edge_references():
    failed = dict.fromkeys(("persistent", "reset", "power_rooted"), 0)
    graphs = 0
    for g in _lifted_corpus():
        fam = largest_d_bisimulation(g)
        for i in range(fam.d):
            want = _edge_view(g, i)
            assert component_view(g, i) == fam.view(i) == want
            assert successors(fam.view(i)) == successors(want)
        conds = power_conditions(g)
        assert conds == _edge_conditions(g), g
        for name, ok in conds.items():
            failed[name] += not ok
        graphs += 1
    assert graphs == 240
    assert min(failed.values()) >= 10, failed


def test_d_bisimulation_on_power(loop3):
    p = power(loop3, 2)
    fam = largest_d_bisimulation(p)
    want01 = frozenset(
        (u, v)
        for u in p.nodes
        for v in p.nodes
        if (u[1] == "1") == (v[3] == "1")  # ids look like "(x,y)"
    )
    assert fam.rel(0, 1) == want01
    assert ("(1,0)", "(0,1)") in fam.rel(0, 1)
    assert ("(1,0)", "(1,0)") not in fam.rel(0, 1)


def test_family_pseudo_properties(loop3):
    p = power(loop3, 2)
    fam = largest_d_bisimulation(p)
    d = fam.d
    for i in range(d):
        for v in p.nodes:
            assert (v, v) in fam.rel(i, i)
    for i in range(d):
        for j in range(d):
            assert fam.rel(i, j) == frozenset((b, a) for a, b in fam.rel(j, i))
    for i in range(d):
        for j in range(d):
            for h in range(d):
                rij, rjh, rih = fam.rel(i, j), fam.rel(j, h), fam.rel(i, h)
                for (u, v) in rij:
                    for (v2, w) in rjh:
                        if v2 == v:
                            assert (u, w) in rih


def _count_calls(monkeypatch, name):
    """Count calls of bisim.<name>, including those made inside bisim."""
    calls = []
    real = getattr(bisim, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bisim, name, counted)
    return calls


def test_family_converse_matches_direct_computation():
    base = Signature(("a", "b"), ("f", "g"))
    asymmetric = 0
    for t in range(12):
        d = 2 + t % 2
        g = rand_lifted_graph(Xorshift.substream(4, t), base, d, 9, min_nodes=5)
        fam = largest_d_bisimulation(g)
        for i, j in itertools.product(range(d), repeat=2):
            got = fam.rel(i, j)
            assert got == largest_bisimulation(component_view(g, i), component_view(g, j)), (t, i, j)
            asymmetric += i > j and got != fam.rel(j, i)
    # a family that returned rel(i, j) for rel(j, i) would fail these graphs
    assert asymmetric >= 6


def test_family_builds_only_the_relations_asked_for(monkeypatch, loop3):
    # factors and power conditions read class ids; no pair deletion runs
    p3 = power(loop3, 3)
    calls = _count_calls(monkeypatch, "largest_bisimulation")
    for i in range(3):
        factor(p3, i)
    assert power_conditions(p3) == {"persistent": True, "reset": True, "power_rooted": True}
    assert detect_power(p3, method="dbisim")
    assert calls == []
    views = _count_calls(monkeypatch, "component_view")
    factors(p3)
    assert len(views) == 3
    with pytest.raises(GraphFormatError, match="component 3 out of range for dimension 3"):
        factor(p3, 3)
    with pytest.raises(GraphFormatError, match="component -1 out of range"):
        factor(p3, -1)
    fam = largest_d_bisimulation(p3)
    with pytest.raises(GraphFormatError, match="component -1 out of range"):
        fam.rel(0, -1)
    assert calls == []


def _factor_is_view_quotient(g):
    """Check every factor of g against the quotient of its view; count
    the factors that merge nodes."""
    _, d = split_lifted(g.signature)
    merged = 0
    for i in range(d):
        want = quotient(component_view(g, i))
        got = factor(g, i)
        assert got == want and got.nodes == want.nodes and write_graph(got) == write_graph(want), i
        merged += len(got.nodes) < len(g.nodes)
    return merged


def test_factor_is_quotient_of_view():
    draws = merged = 0
    for t in range(400):
        rng = Xorshift.substream(9, t)
        g = rand_lifted_graph(rng, rand_base_signature(rng), 1 + t % 3, 6, min_nodes=2)
        conds = power_conditions(g)
        if conds["persistent"] and conds["reset"]:
            draws += 1
            merged += _factor_is_view_quotient(g)
    assert draws >= 30 and merged >= 10, (draws, merged)
    for t in range(30):
        rng = Xorshift.substream(8, t)
        sig = rand_base_signature(rng)
        bases = [rand_graph(rng, sig, 4) for _ in range(1 + t % 3)]
        merged += _factor_is_view_quotient(power(bases[0], len(bases)))
        merged += _factor_is_view_quotient(product(bases))
    assert merged >= 60, merged


def test_factors_of_a_729_node_power():
    base = rand_graph(Xorshift.substream(5, 1), Signature(("a", "b"), ("f", "g")), 9, min_nodes=9)
    p = power(base, 3)
    assert len(p.nodes) == 729
    fs = factors(p)
    assert len(fs) == 3
    assert all(bisimilar(f, base) for f in fs)


def test_power_detection_true(loop3):
    p = power(loop3, 2)
    conds = power_conditions(p)
    assert conds == {"persistent": True, "reset": True, "power_rooted": True}
    assert power_formula_verdicts(p) == conds
    assert detect_power(p, 2, "both")
    assert detect_power(p, method="dbisim")
    assert detect_power(p, method="logic")


def test_power_detection_mixed_product(loop3):
    single = LabeledGraph(SIG_AF, ["x"], "x", [("x", "a", "x")], {"x": ["f"]})
    h = product([loop3, single])
    conds = power_conditions(h)
    assert conds == {"persistent": True, "reset": True, "power_rooted": False}
    assert power_formula_verdicts(h) == conds
    assert not detect_power(h, 2, "both")


def test_is_power_formula_conjoins_the_three_verdicts():
    """The one formula detect_power evaluates agrees with the three
    verdicts on random lifted graphs, built powers and mixed products."""
    seen = set()
    for t in range(300):
        rng = Xorshift.substream(7100, t)
        base = rand_base_signature(rng)
        d = 1 + t % 3
        if t < 210:
            g = rand_lifted_graph(rng, base, d, 6)
        elif t % 2:
            g = power(rand_graph(rng, base, 3), d)
        else:
            g = product([rand_graph(rng, base, 3) for _ in range(max(d, 2))])
        verdicts = power_formula_verdicts(g)
        phi = gen_is_power_formula(*split_lifted(g.signature))
        assert models(g, phi) == all(verdicts.values()), t
        seen.add((t < 210, tuple(verdicts.values())))
    assert {(True, (True, True, True)), (False, (True, True, True)),
            (False, (True, True, False))} <= seen, seen
    assert len({v for random, v in seen if random}) >= 5, seen


def test_power_detection_broken_persistence(loop3):
    p = power(loop3, 2)
    g = LabeledGraph(
        p.signature,
        p.nodes,
        p.root,
        list(p.edges) + [("(0,0)", "a@0", "(1,1)")],
        {v: p.label(v) for v in p.nodes},
    )
    assert not power_conditions(g)["persistent"]
    assert not detect_power(g, 2, "both")
    assert not power_formula_verdicts(g)["persistent"]
    # the component range is checked before the conditions
    with pytest.raises(GraphFormatError, match="component 2 out of range"):
        factor(g, 2)
    with pytest.raises(PolymuError, match="not persistent"):
        factor(g, 0)


def test_power_detection_broken_reset(loop3):
    p = power(loop3, 2)
    # the new target keeps color f in component 0, unlike the root
    edges = [e for e in p.edges if e != ("(1,1)", "rst@0", "(0,1)")]
    edges.append(("(1,1)", "rst@0", "(1,1)"))
    g = LabeledGraph(p.signature, p.nodes, p.root, edges, {v: p.label(v) for v in p.nodes})
    assert not power_conditions(g)["reset"]
    assert not detect_power(g, 2, "both")


def test_detect_power_validation(loop3):
    p = power(loop3, 2)
    with pytest.raises(GraphFormatError, match="dimension"):
        detect_power(p, 3)
    with pytest.raises(GraphFormatError, match="method"):
        detect_power(p, 2, "quantum")
    with pytest.raises(GraphFormatError):
        detect_power(loop3, 1)


def test_factor_power(loop3):
    p = power(loop3, 2)
    for i in (0, 1):
        f = factor(p, i)
        assert f.signature == loop3.signature
        assert bisimilar(f, loop3)
    # loop3's nodes 0 and 2 are bisimilar; classes keep lex-least members
    assert set(factor(p, 0).nodes) == {"(0,0)", "(1,0)"}
    assert set(factor(p, 1).nodes) == {"(0,0)", "(0,1)"}


def test_factors_recombine(loop3):
    two = LabeledGraph(
        SIG_AF, ["p", "q"], "p", [("p", "a", "q"), ("q", "a", "q")], {"q": ["f"]}
    )
    h = product([loop3, two])
    fs = factors(h)
    assert len(fs) == 2
    assert bisimilar(fs[0], loop3)
    assert bisimilar(fs[1], two)
    assert bisimilar(product(fs), h)


def test_factor_requires_conditions(loop3):
    p = power(loop3, 2)
    g = LabeledGraph(
        p.signature,
        p.nodes,
        p.root,
        list(p.edges) + [("(0,0)", "a@0", "(1,1)")],
        {v: p.label(v) for v in p.nodes},
    )
    with pytest.raises(PolymuError, match="persistent"):
        factor(g, 0)


def test_relation_lines():
    rel = frozenset({("b", "a"), ("a", "a")})
    assert relation_lines(rel) == ["(a,a)", "(b,a)"]
