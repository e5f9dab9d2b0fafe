"""Bisimulations, quotients, component bisimulation families, factorization.

Two independent routes are kept deliberately: largest_bisimulation
prunes a pair relation to its greatest fixpoint, while quotient and the
d-bisimulation family use partition refinement.  Tests cross-check one
against the other.

Pair deletion works on int pairs u * |V2| + v over the nodes' positions
in g.index.  It runs in rounds, and every round deletes at once the pairs
whose matching obligations fail against the relation at its start.  The
first round checks every label-consistent pair; a later round checks
only the live pairs with an a-successor pair deleted in the round before,
since no other pair can have lost a witness.  It stops at the first
round that deletes nothing.  Successor and predecessor positions come
from graphs._succ_lists and _pred_lists, per action.

Over a lifted signature, the family rel(i, j) relates nodes whose
component-i behavior (actions x@i, colors c@i) matches the component-j
behavior.  The largest bisimulation between two graphs is the
same-class relation of their disjoint union, so one refinement over the
union of the d component views gives every rel(i, j) as class ids.
Reset actions play no role in the family itself; they enter through
the persistence and reset conditions checked on top of it.
"""
from __future__ import annotations

from .errors import CrossCheckError, GraphFormatError, PolymuError
from .graphs import LabeledGraph, RESET, _pred_lists, _succ_lists, split_lifted, tuple_id, unlift
from .logic import gen_is_power_formula, gen_per_formula, gen_pow_formula, gen_rst_formula
from .semantics import models

Relation = frozenset  # of (node, node) pairs


def _int_adjacency(g: LabeledGraph) -> tuple[list[tuple], list[tuple]]:
    """Per node position: its enabled actions in sorted order, and a tuple
    of its successor positions for each of them, in edge order."""
    lists = [(a, _succ_lists(g, a)) for a in sorted(g.signature.actions)]
    enabled = [tuple([a for a, succ in lists if succ[u]]) for u in range(len(g.nodes))]
    succs = [tuple([succ[u] for _, succ in lists if succ[u]]) for u in range(len(g.nodes))]
    return enabled, succs


def _delete_pairs(g1: LabeledGraph, g2: LabeledGraph) -> set[int]:
    """Pairs u * |V2| + v left once deletion rounds, starting from the
    label-consistent pairs, delete nothing more.

    A round deletes, all at once, every checked pair whose matching
    obligations fail against the relation at the round's start.  Round 1
    checks every pair.  A pair that passed round r can fail round r + 1
    only if a witness (u', v') of it died in round r, and then
    u in pred1(u', a) and v in pred2(v', a); so round r + 1 checks just
    the live pairs found that way from the pairs round r deleted.
    """
    if g1.signature != g2.signature:
        raise GraphFormatError("signature: graphs must share a signature")
    n2 = len(g2.nodes)
    enabled1, succ1 = _int_adjacency(g1)
    enabled2, succ2 = _int_adjacency(g2)
    # per action, each side's predecessor positions per node position
    preds = [(_pred_lists(g1, a), _pred_lists(g2, a)) for a in g1.signature.actions]
    by_label: dict[int, list[int]] = {}
    for v, code in enumerate(g2._codes()):
        by_label.setdefault(code, []).append(v)
    check = [u * n2 + v for u, code in enumerate(g1._codes()) for v in by_label.get(code, ())]
    rel = set(check)

    def pair_ok(p: int) -> bool:
        """Every a-successor on each side has a related a-successor on the other."""
        u, v = divmod(p, n2)
        if enabled1[u] != enabled2[v]:
            return False
        for us, vs in zip(succ1[u], succ2[v]):
            for u2 in us:
                base = u2 * n2
                for v2 in vs:
                    if base + v2 in rel:
                        break
                else:
                    return False
            for v2 in vs:
                for u2 in us:
                    if u2 * n2 + v2 in rel:
                        break
                else:
                    return False
        return True

    while True:
        dead = [p for p in check if not pair_ok(p)]
        if not dead:
            return rel
        rel.difference_update(dead)
        check = set()
        for p in dead:
            u2, v2 = divmod(p, n2)
            for pred1, pred2 in preds:
                vs = pred2[v2]
                for u in pred1[u2]:
                    base = u * n2
                    for v in vs:
                        if base + v in rel:
                            check.add(base + v)


def largest_bisimulation(g1: LabeledGraph, g2: LabeledGraph) -> Relation:
    """All pairs (u, v) related by some bisimulation between g1 and g2.

    Greatest fixpoint by pair deletion: start from the label-consistent
    pairs and delete pairs whose matching obligations fail, until stable.
    """
    n2 = len(g2.nodes)
    return frozenset(
        (g1.nodes[p // n2], g2.nodes[p % n2]) for p in _delete_pairs(g1, g2)
    )


def bisimilar(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    return (g1.root, g2.root) in largest_bisimulation(g1, g2)


def _refine(labels: list, enabled: list, succs: list) -> list[int]:
    """Class id per position of the coarsest stable partition.

    Classes start from labels and are split by the signature (own class,
    per enabled action the set of successor classes); each round numbers
    its classes in order of first appearance.  A round only ever splits
    classes, so the partition is stable, and the loop ends, as soon as a
    round leaves the class count unchanged.
    """
    keys = labels
    count = 0
    while True:
        ids: dict = {}
        cls = [ids.setdefault(k, len(ids)) for k in keys]
        if len(ids) == count:
            return cls
        count = len(ids)
        keys = [
            (cls[u], acts, tuple(frozenset(cls[w] for w in ws) for ws in succs[u]))
            for u, acts in enumerate(enabled)
        ]


def _classes(g: LabeledGraph, ids: list[int]) -> list[tuple[str, ...]]:
    """The classes of a class id per position, each sorted, in order."""
    groups: dict[int, list[str]] = {}
    for v, c in zip(g.nodes, ids):
        groups.setdefault(c, []).append(v)
    return sorted(tuple(sorted(members)) for members in groups.values())


def bisimulation_partition(g: LabeledGraph) -> list[tuple[str, ...]]:
    """Bisimilarity classes of g by partition refinement, sorted."""
    enabled, succs = _int_adjacency(g)
    return _classes(g, _refine(g._codes(), enabled, succs))


def quotient(g: LabeledGraph) -> LabeledGraph:
    """Quotient by bisimilarity; class ids are lex-least representatives."""
    return _quotient_by(g, bisimulation_partition(g))


def _quotient_by(g: LabeledGraph, classes: list[tuple[str, ...]]) -> LabeledGraph:
    """g with each of the sorted classes merged into its first member."""
    nodes = tuple(members[0] for members in classes)  # sorted, as the classes are
    at = {v: k for k, members in enumerate(classes) for v in members}
    to = [at[v] for v in g.nodes]
    moves = {a: sorted({(to[u], to[w]) for u, w in pairs}) for a, pairs in g._moves.items()}
    colors = g._colors_at([g.index[r] for r in nodes])
    return LabeledGraph._trusted(g.signature, nodes, nodes[to[g.index[g.root]]], moves, colors)


def _check_component(i: int, d: int) -> None:
    if not 0 <= i < d:
        raise GraphFormatError(f"i: component {i} out of range for dimension {d}")


def component_view(g: LabeledGraph, i: int) -> LabeledGraph:
    """Base-signature view of component i: keep x@i edges and c@i colors."""
    base, d = split_lifted(g.signature)
    _check_component(i, d)
    moves = {}
    for a, pairs in g._moves.items():
        name, k = unlift(a)
        if name != RESET and k == i:
            moves[name] = pairs
    colors = {c: g._colors[f"{c}@{i}"] for c in base.colors}
    return LabeledGraph._trusted(base, g.nodes, g.root, moves, colors)


class DBisimFamily:
    """Largest family of component relations over one lifted graph.

    Holds the d component views and, from one refinement over their
    disjoint union, a class id per view and node position: u rel(i, j) v
    exactly when u in view i and v in view j share a class.
    """

    def __init__(self, views: list[LabeledGraph]):
        self.views = tuple(views)
        self.d = len(self.views)
        if any(v.signature != self.views[0].signature for v in self.views):
            raise GraphFormatError("signature: graphs must share a signature")
        labels, enabled, succs = [], [], []
        for view in self.views:  # view k's positions follow those of views 0..k-1
            off = len(labels)
            acts, ws = _int_adjacency(view)
            labels += view._codes()
            enabled += acts
            succs += [[[w + off for w in by_a] for by_a in s] for s in ws]
        cls = iter(_refine(labels, enabled, succs))
        self._cls = tuple([next(cls) for _ in view.nodes] for view in self.views)

    def view(self, i: int) -> LabeledGraph:
        _check_component(i, self.d)
        return self.views[i]

    def rel(self, i: int, j: int) -> Relation:
        for k in (i, j):
            _check_component(k, self.d)
        members: dict[int, list[str]] = {}
        for v, c in zip(self.views[j].nodes, self._cls[j]):
            members.setdefault(c, []).append(v)
        return frozenset(
            (u, v) for u, c in zip(self.views[i].nodes, self._cls[i]) for v in members.get(c, ())
        )


def largest_d_bisimulation(g: LabeledGraph) -> DBisimFamily:
    """Largest family: rel(i, j) is the largest bisimulation between the
    component-i view and the component-j view of g."""
    _, d = split_lifted(g.signature)
    return DBisimFamily([component_view(g, i) for i in range(d)])


def _conditions(g: LabeledGraph, fam: DBisimFamily) -> dict[str, bool]:
    """The three power conditions, read off g's largest family fam.

    persistent: every edge touching component i preserves all other
    components' behavior: (v, x@i, v') with j != i implies v rel(j,j) v'.
    reset: every rst@i edge lands on a node whose component i behaves
    like the root's component i.
    power_rooted: root rel(i, j) root for all components i, j, so the d
    roots share one class.
    """
    r = g.index[g.root]
    persistent = reset = True
    for a, pairs in g._moves.items():
        name, i = unlift(a)
        persistent = persistent and all(
            cls[u] == cls[w] for j, cls in enumerate(fam._cls) if j != i for u, w in pairs
        )
        if name == RESET:
            own = fam._cls[i]
            reset = reset and all(own[w] == own[r] for _, w in pairs)
    return {
        "persistent": persistent,
        "reset": reset,
        "power_rooted": len({cls[r] for cls in fam._cls}) <= 1,
    }


def power_conditions(g: LabeledGraph) -> dict[str, bool]:
    return _conditions(g, largest_d_bisimulation(g))


def detect_power(g: LabeledGraph, d: int | None = None, method: str = "both") -> bool:
    """Is g a d-fold power up to bisimulation?

    method "dbisim" checks persistence, reset and root conditions on the
    largest family; "logic" evaluates one fixpoint formula, the
    conjunction of the three power formulas, whose renamed copies of each
    component bisimulation are computed once; "both" runs the two and
    raises CrossCheckError on disagreement.
    """
    base, d_sig = split_lifted(g.signature)
    if d is not None and d != d_sig:
        raise GraphFormatError(f"d: signature has dimension {d_sig}, got {d}")
    if method not in ("dbisim", "logic", "both"):
        raise GraphFormatError(f"method: unknown method {method!r}")
    answers = {}
    if method in ("dbisim", "both"):
        answers["dbisim"] = all(power_conditions(g).values())
    if method in ("logic", "both"):
        answers["logic"] = models(g, gen_is_power_formula(base, d_sig))
    if method == "both" and answers["dbisim"] != answers["logic"]:
        raise CrossCheckError(
            f"detect_power: dbisim={answers['dbisim']} logic={answers['logic']}"
        )
    return answers[method if method != "both" else "dbisim"]


def power_formula_verdicts(g: LabeledGraph) -> dict[str, bool]:
    """Root-pair truth of the persistence, reset and power formulas."""
    base, d = split_lifted(g.signature)
    return {
        "persistent": models(g, gen_per_formula(base, d)),
        "reset": models(g, gen_rst_formula(base, d)),
        "power_rooted": models(g, gen_pow_formula(base, d)),
    }


def _factor(g: LabeledGraph, i: int, fam: DBisimFamily) -> LabeledGraph:
    """Component-i factor of g, given g's largest family."""
    view = fam.view(i)  # rejects an out-of-range i before the conditions
    ok = _conditions(g, fam)
    if not ok["persistent"]:
        raise PolymuError("factor: graph is not persistent")
    if not ok["reset"]:
        raise PolymuError("factor: graph lacks the reset property")
    return _quotient_by(view, _classes(view, fam._cls[i]))


def factor(g: LabeledGraph, i: int) -> LabeledGraph:
    """Component-i factor: quotient of the component-i view by rel(i, i),
    which is the view's own bisimilarity.  Its classes are read off the
    family: restricted to one view, the classes of the refinement over
    the union of the views are that view's own bisimilarity classes.

    Requires persistence and the reset property; together they make the
    factors recombine into a product bisimilar to g.
    """
    return _factor(g, i, largest_d_bisimulation(g))


def factors(g: LabeledGraph) -> list[LabeledGraph]:
    """All d component factors, sharing one family computation."""
    fam = largest_d_bisimulation(g)
    return [_factor(g, i, fam) for i in range(fam.d)]


def relation_lines(rel: Relation) -> list[str]:
    """Sorted "(u,v)" lines for CLI output."""
    return [tuple_id(p) for p in sorted(rel)]
