"""Evaluator: denotations, fixpoints, caps."""
import dataclasses
import itertools

import pytest

from polymu.automata import EXISTS, acceptance_winners, accepts, formula_to_apt
from polymu.errors import FormulaError, ResourceLimitError
from polymu.graphs import LabeledGraph, Signature, power, read_graph, write_graph
from polymu.logic import (
    FF, TT, And, Box, Color, Diamond, Formula, Mu, Neg, Nu, Or, Replace, Var, _Table, free_vars,
    parse_formula, print_formula,
)
from polymu.randgen import Xorshift, rand_formula, rand_graph
from polymu import semantics
from polymu.semantics import evaluate, models

from conftest import PATTERNS, SIG_AF, make_loop3, succ, successors


def ev(g, text, arity):
    return evaluate(g, parse_formula(text, g.signature, arity))


def tset(g, text, arity):
    return set(ev(g, text, arity))


def test_atoms_and_modalities(loop3):
    assert tset(loop3, "f", 1) == {("1",)}
    assert tset(loop3, "~f", 1) == {("0",), ("2",)}
    assert tset(loop3, "<a>f", 1) == {("0",), ("2",)}
    assert tset(loop3, "[a]f", 1) == {("0",), ("2",)}
    assert tset(loop3, "tt", 1) == {("0",), ("1",), ("2",)}
    assert tset(loop3, "ff", 1) == set()
    assert tset(loop3, "f | <a>f", 1) == {("0",), ("1",), ("2",)}
    assert tset(loop3, "f & <a>f", 1) == set()


def test_box_vacuous():
    g = make_loop3()
    # node with no a-successor satisfies [a]ff
    from polymu.graphs import LabeledGraph

    g2 = LabeledGraph(SIG_AF, ["0", "1"], "0", [("0", "a", "1")], {})
    assert tset(g2, "[a]ff", 1) == {("1",)}
    assert tset(g2, "<a>tt", 1) == {("0",)}


def test_fixpoints(loop3):
    assert tset(loop3, "mu X. f | <a>X", 1) == {("0",), ("1",), ("2",)}
    assert tset(loop3, "mu X. <a>X", 1) == set()
    assert tset(loop3, "nu X. <a>X", 1) == {("0",), ("1",), ("2",)}
    assert tset(loop3, "nu X. ~f & [a]X", 1) == set()
    # reach a point from which f holds forever
    assert tset(loop3, "mu X. (nu Y. f & [a]Y) | <a>X", 1) == set()


def test_arity_two(loop3):
    allp = {(u, v) for u in "012" for v in "012"}
    assert tset(loop3, "f@1", 2) == {(u, "1") for u in "012"}
    assert tset(loop3, "%{1,0}f@0", 2) == {(u, "1") for u in "012"}
    assert tset(loop3, "%{1,1}f@0", 2) == {(u, "1") for u in "012"}
    assert tset(loop3, "%{0,0}f@1", 2) == {("1", v) for v in "012"}
    assert tset(loop3, "<a@1>f@1", 2) == {(u, v) for u in "012" for v in "02"}
    assert tset(loop3, "f@0 & f@1", 2) == {("1", "1")}
    assert tset(loop3, "~(f@0 | f@1)", 2) == {(u, v) for u in "02" for v in "02"}
    assert tset(loop3, "tt", 2) == allp


def test_replace_general():
    g = make_loop3()
    # swap twice is identity
    a = tset(g, "%{1,0}%{1,0}(f@0 & ~f@1)", 2)
    b = tset(g, "f@0 & ~f@1", 2)
    assert a == b


def test_models(loop3):
    phi = parse_formula("mu X. f | <a>X", SIG_AF, 1)
    assert models(loop3, phi)
    assert models(loop3, parse_formula("mu X. f@0 | <a@0>X", SIG_AF, 2))
    assert not models(loop3, parse_formula("f@0 | f@1", SIG_AF, 2))
    with pytest.raises(FormulaError, match="closed"):
        models(loop3, parse_formula("Y", SIG_AF, 1))


def test_tuple_cap(loop3, monkeypatch):
    monkeypatch.setattr(semantics, "TUPLE_CAP", 8)
    with pytest.raises(ResourceLimitError, match="cap"):
        ev(loop3, "tt", 2)
    monkeypatch.setattr(semantics, "TUPLE_CAP", 9)
    assert len(ev(loop3, "tt", 2)) == 9


def test_on_power_graph(loop3):
    p = power(loop3, 2)
    # f@0 reachable by moving component 0 only
    phi = parse_formula("mu X. f@0@0 | <a@0@0>X", p.signature, 1)
    assert models(p, phi)
    # resets jump back to the root's component value
    psi = parse_formula("<a@0@0><a@0@0><rst@0@0>~f@0@0", p.signature, 1)
    assert models(p, psi)


def test_nested_fixpoint_rounds(loop3):
    # alternation with an inner fixpoint depending on the outer variable
    assert tset(loop3, "nu X. mu Y. (f & X) | <a>Y", 1) == {("0",), ("1",), ("2",)}


SIG_AFG = Signature(["a"], ["f", "g"])


def make_mixed4():
    """Four nodes: a branch, a self-loop, a dead end and a 2-cycle."""
    return LabeledGraph(
        SIG_AFG,
        ["0", "1", "2", "3"],
        "0",
        [("0", "a", "1"), ("0", "a", "2"), ("1", "a", "1"), ("2", "a", "3"), ("3", "a", "2")],
        {"1": ["f"], "2": ["f", "g"], "3": ["g"]},
    )


@pytest.mark.parametrize("arity", [2, 3])
def test_atoms_modalities_replace_brute_force(arity):
    g = make_mixed4()
    space = list(itertools.product(g.nodes, repeat=arity))
    for c in g.signature.colors:
        for k in range(arity):
            want = {t for t in space if c in g.label(t[k])}
            assert tset(g, f"{c}@{k}", arity) == want
    inner_text = "f@0 & ~g@1" + ("" if arity == 2 else " & <a@2>g@2")
    inner = tset(g, inner_text, arity)
    assert inner and inner != set(space)
    for k in range(arity):
        want_dia = {t for t in space
                    if any(t[:k] + (w,) + t[k + 1:] in inner for w in succ(g, t[k], "a"))}
        want_box = {t for t in space
                    if all(t[:k] + (w,) + t[k + 1:] in inner for w in succ(g, t[k], "a"))}
        assert tset(g, f"<a@{k}>({inner_text})", arity) == want_dia
        assert tset(g, f"[a@{k}]({inner_text})", arity) == want_box
    for m in itertools.product(range(arity), repeat=arity):
        want = {t for t in space if tuple(t[j] for j in m) in inner}
        text = "%{" + ",".join(map(str, m)) + "}(" + inner_text + ")"
        assert tset(g, text, arity) == want, m


def test_buchi_with_shrinking_diamond_argument():
    # X shrinks in every outer round (all, 6, 4, 3 nodes), so <a>X sees an
    # argument that does not contain its last one and is recomputed in full
    edges = [("0", "a", "1"), ("1", "a", "2"), ("2", "a", "3"), ("3", "a", "4"),
             ("0", "a", "5"), ("5", "a", "6"), ("6", "a", "5")]
    labels = {"1": ["f"], "3": ["f"], "5": ["f"]}
    nodes = [str(i) for i in range(7)]
    g = LabeledGraph(SIG_AF, nodes, "0", edges, labels)
    text = "nu X. mu Y. (f & <a>X) | <a>Y"
    got = tset(g, text, 1)
    assert got == {("0",), ("5",), ("6",)}
    apt = formula_to_apt(parse_formula(text, SIG_AF, 1), SIG_AF)
    for v in nodes:
        rooted = LabeledGraph(SIG_AF, nodes, v, edges, labels)
        assert accepts(apt, rooted) == ((v,) in got), v


def test_long_chain_fixpoints():
    n = 3000
    nodes = [str(i) for i in range(n)]
    edges = [(str(i), "a", str(i + 1)) for i in range(n - 1)]
    g = LabeledGraph(SIG_AF, nodes, "0", edges, {str(n - 1): ["f"]})
    # one more complement tuple per round: the incremental Box path
    assert tset(g, "nu X. ~f & [a]X", 1) == set()
    assert tset(g, "mu X. f | <a>X", 1) == {(v,) for v in nodes}


def test_models_error_order(loop3):
    open_and_invalid = Formula(1, Or(Var("X"), Color("q", 0)))
    with pytest.raises(FormulaError, match="models needs a closed formula"):
        models(loop3, open_and_invalid)
    with pytest.raises(FormulaError, match="unknown color"):
        models(loop3, Formula(1, Color("q", 0)))
    with pytest.raises(FormulaError, match="unbound variables: X"):
        evaluate(loop3, Formula(1, Or(Var("X"), Color("f", 0))))


def test_free_and_bound_variable_of_one_name():
    # a binder of X does not capture an X outside its body, so each
    # formula stays open, and the evaluator refuses it
    g = LabeledGraph(SIG_AF, ["0", "1"], "0", [("0", "a", "1")], {})
    for text in ["X & mu X. <a>X", "(mu X. <a>X) & X", "X | mu X. <a>X",
                 "X & nu X. <a>X", "(nu X. <a>X) | X"]:
        phi = parse_formula(text, SIG_AF, 1)
        assert free_vars(phi) == frozenset({"X"}), text
        with pytest.raises(FormulaError, match="^unbound variables: X$"):
            evaluate(g, phi)
    # the table's size counts AST nodes, not its entries
    phi = parse_formula("X & X & mu X. <a>X", SIG_AF, 1)
    assert phi._table.size == 7
    assert len(_Table(phi).node) == 6


def test_inner_fixpoint_restarts_in_each_outer_round():
    # 0 -> 0, 0 -> 1 (f), 1 -> 2: no a-path sees f infinitely often.  The
    # inner mu depends on X, so each round of X must start it from the
    # empty set; resuming from its last value would keep {0}.
    g = LabeledGraph(SIG_AF, ["0", "1", "2"], "0",
                     [("0", "a", "0"), ("0", "a", "1"), ("1", "a", "2")], {"1": ["f"]})
    assert tset(g, "nu X. mu Y. (f & <a>X) | <a>Y", 1) == set()
    loop = LabeledGraph(SIG_AF, ["0", "1"], "0", [("0", "a", "1"), ("1", "a", "0")], {"1": ["f"]})
    assert tset(loop, "nu X. mu Y. (f & <a>X) | <a>Y", 1) == {("0",), ("1",)}


def test_pre_image_tables_follow_the_arity_of_each_evaluation():
    """Arity 1, then 2, then 1 again on one graph object: each result
    matches a fresh copy of the graph and brute force."""
    g = make_mixed4()
    for arity in (1, 2, 1):
        space = list(itertools.product(g.nodes, repeat=arity))
        inner_text = f"f@0 | g@{arity - 1}"
        inner = {t for t in space if "f" in g.label(t[0]) or "g" in g.label(t[-1])}
        fresh = read_graph(write_graph(g))
        for k in range(arity):
            want_dia = {t for t in space
                        if any(t[:k] + (w,) + t[k + 1:] in inner for w in succ(g, t[k], "a"))}
            want_box = {t for t in space
                        if all(t[:k] + (w,) + t[k + 1:] in inner for w in succ(g, t[k], "a"))}
            for text, want in ((f"<a@{k}>({inner_text})", want_dia),
                               (f"[a@{k}]({inner_text})", want_box)):
                assert tset(g, text, arity) == tset(fresh, text, arity) == want, (arity, text)


def brute_force(g, root, arity):
    """Denotation of the AST root by the definitions alone: node-name
    tuple sets, and each fixpoint iterated from scratch at every use."""
    space = set(itertools.product(g.nodes, repeat=arity))
    adjacency = successors(g)

    def step(t, k, ws):
        return [t[:k] + (w,) + t[k + 1:] for w in ws]

    def ev(n, env):
        c = type(n)
        if c is TT:
            return space
        if c is FF:
            return set()
        if c is Color:
            return {t for t in space if n.color in g.label(t[n.comp])}
        if c is Var:
            return env[n.name]
        if c is Neg:
            return space - ev(n.sub, env)
        if c is And:
            return ev(n.left, env) & ev(n.right, env)
        if c is Or:
            return ev(n.left, env) | ev(n.right, env)
        if c is Replace:
            s = ev(n.sub, env)
            return {t for t in space if tuple(t[j] for j in n.mapping) in s}
        if c is Diamond or c is Box:
            s, test = ev(n.sub, env), any if c is Diamond else all
            return {t for t in space if test(u in s for u in step(t, n.comp, adjacency.get((t[n.comp], n.action), ())))}
        x = set() if c is Mu else space
        while True:
            y = ev(n.body, {**env, n.var: x})
            if y == x:
                return x
            x = y

    return ev(root, {})


def renamed(n, prefix):
    """n with every variable X, bound and free, renamed to prefix + X."""
    if type(n) in (Mu, Nu):
        return type(n)(prefix + n.var, renamed(n.body, prefix))
    if type(n) is Var:
        return Var(prefix + n.name)
    kids = {f: renamed(getattr(n, f), prefix) for f in ("sub", "left", "right")
            if hasattr(n, f)}
    return dataclasses.replace(n, **kids)


def plugged(n, holes: dict):
    """n with its leaves numbered in pre-order, leaf k replaced by
    holes[k], and the number of leaves."""
    count = [0]

    def go(n):
        if type(n) in (TT, FF, Color, Var):
            count[0] += 1
            return holes.get(count[0] - 1, n)
        kids = {f: go(getattr(n, f)) for f in ("sub", "left", "right", "body")
                if hasattr(n, f)}
        return dataclasses.replace(n, **kids)

    return go(n), count[0]


def test_renamed_closed_copies_agree_with_brute_force():
    """Renamed copies of a closed random fixpoint, and a copy whose inner
    variables are bound the other way round, are plugged into the leaves
    of a random context (under binders, negations and modalities alike);
    the evaluator, which runs each renamed copy's binders only once,
    agrees with the definitions."""
    twinned = 0
    for k in range(160):
        rng = Xorshift.substream(61800, k)
        arity = 1 + k % 2
        sig = Signature(["a", "b"], ["f"]) if k % 3 else SIG_AF
        g = rand_graph(rng, sig, 3 if arity == 2 else 4)
        a, b = (renamed(rand_formula(rng, sig, arity, rng.randint(1, 5)).root, x) for x in "AB")

        def psi(outer, inner):
            return Nu("Xu", Mu("Xv", Or(And(a, Diamond("a", 0, Var(outer))),
                                        And(b, Diamond("a", 0, Var(inner))))))

        context, leaves = plugged(rand_formula(rng, sig, arity, rng.randint(3, 9)).root, {})
        holes = {rng.below(leaves): renamed(psi("Xu", "Xv"), "P"),
                 rng.below(leaves): renamed(psi("Xu", "Xv"), "Q"),
                 rng.below(leaves): Or(renamed(psi("Xu", "Xv"), "R"), renamed(psi("Xv", "Xu"), "S"))}
        phi = Formula(arity, plugged(context, holes)[0])
        want = brute_force(g, phi.root, arity)
        assert evaluate(g, phi) == want, (k, print_formula(phi))
        twinned += bool(phi._table.twin)
    assert twinned >= 100, twinned


def test_twin_binders_are_not_run(monkeypatch):
    """Renamed copies of a closed subformula cost no sparse pre-image beyond
    the first copy's: their binders' slices and their other entries are
    never run."""
    # at arity 1 on a small graph every sparse pre-image is one call of
    # graphs._image, which the evaluator imports under that name
    calls = []
    real = semantics._image
    monkeypatch.setattr(semantics, "_image", lambda masks, s: calls.append(s) or real(masks, s))
    nodes = [str(i) for i in range(6)]
    g = LabeledGraph(SIG_AF, nodes, "0", [(u, "a", w) for u, w in zip(nodes, nodes[1:])], {"5": ["f"]})
    counts = []
    for text in ("mu X. f | <a>X", "(mu X. f | <a>X) & mu Y. f | <a>Y",
                 "(mu X. f | <a>X) & ((mu Y. f | <a>Y) | nu Z. mu W. f | <a>W)"):
        calls.clear()
        assert tset(g, text, 1) == {(v,) for v in nodes}, text
        counts.append(len(calls))
    assert counts == [6] * 3, counts
    # the wrapped copy is a twin entry outside any binder: its sparse <a> is not run either
    counts.clear()
    for text in ("<a>(f & (mu X. f | <a>X))", "<a>(f & (mu X. f | <a>X)) & <a>(f & (mu Y. f | <a>Y))"):
        calls.clear()
        assert tset(g, text, 1) == {("4",)}, text
        counts.append(len(calls))
    assert counts == [7] * 2, counts


SIG_AB_FG = Signature(("a", "b"), ("f", "g"))


def ab_graph(rng, n, edges, f_nodes):
    """Graph on nodes 0..n-1 with the given (u, action, w) position edges, f on
    f_nodes and g on about half the nodes."""
    nodes = [str(i) for i in range(n)]
    labels = {v: ["g"] for v in nodes if rng.chance(1, 2)}
    for i in f_nodes:
        labels[nodes[i]] = labels.get(nodes[i], []) + ["f"]
    return LabeledGraph(SIG_AB_FG, nodes, "0", [(nodes[u], a, nodes[w]) for u, a, w in edges], labels)


def test_arity_one_agrees_with_acceptance_winners_at_every_node(monkeypatch):
    """Arity-1 evaluation against the automaton route on both sides of the
    mask bound: sparse random graphs, where most pre-images OR predecessor
    masks; a chain, whose single shift sends them to the dense groups; and
    a chorded ring past the bound, which keeps the per-node offsets."""
    built = {"masks": 0, "groups": 0, "sparse": 0}

    def counting(key, real):
        def wrapped(*args):
            built[key] += 1
            return real(*args)
        return wrapped

    monkeypatch.setattr(semantics, "_pred_rows", counting("masks", semantics._pred_rows))
    monkeypatch.setattr(semantics, "_shift_groups", counting("groups", semantics._shift_groups))
    monkeypatch.setattr(semantics, "_image", counting("sparse", semantics._image))

    graphs = []
    for k in range(3):
        rng = Xorshift.substream(2417, k)
        n = rng.randint(200, 400)
        # two random out-edges per node, each on a or b
        edges = {(u, rng.choice("ab"), rng.below(n)) for u in range(n) for _ in range(2)}
        graphs.append(ab_graph(rng, n, edges, [rng.below(n), rng.below(n)]))
    rng = Xorshift.substream(2417, 3)
    graphs.append(ab_graph(rng, 300, [(i, "a", i + 1) for i in range(299)], [299]))
    n = semantics._MASK_NODES + 3
    edges = [(i, "a", (i + 1) % n) for i in range(n)] + [(rng.below(n), "b", rng.below(n)) for _ in range(n // 8)]
    ring = ab_graph(rng, n, edges, [n // 2])

    texts = list(PATTERNS)
    rng = Xorshift.substream(2418, 0)
    texts += [print_formula(rand_formula(rng, SIG_AB_FG, 1, 12)) for _ in range(10)]
    verdicts = set()
    probes = {}  # (graph number, text) -> built during its evaluation
    for k, g in enumerate(graphs + [ring]):
        for text in texts:
            phi = parse_formula(text, SIG_AB_FG, 1)
            apt = formula_to_apt(phi, SIG_AB_FG)
            winner = acceptance_winners(apt, g)
            nq = len(apt.states)
            want = {(v,) for i, v in enumerate(g.nodes) if winner[i * nq + apt.initial] == EXISTS}
            built.update(dict.fromkeys(built, 0))
            got = evaluate(g, phi)
            assert got == want, (k, text)
            probes[(k, text)] = dict(built)
            verdicts.add((g is ring, 0 < len(got) < len(g.nodes)))
    assert len(verdicts) == 4
    # masks below the bound on every graph, none above it
    assert all(sum(probes[(k, text)]["masks"] for text in texts) for k in range(len(graphs)))
    assert not any(probes[(len(graphs), text)]["masks"] for text in texts)
    # reach on a random graph: every pre-image is sparse, and no dense group is built
    assert probes[(0, PATTERNS[0])]["sparse"] > 0 and probes[(0, PATTERNS[0])]["groups"] == 0
    # on the chain the dense branch runs, and builds its groups
    assert probes[(len(graphs) - 1, PATTERNS[0])]["groups"] > 0
