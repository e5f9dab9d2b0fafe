"""Bisimulations, quotients, component bisimulation families, factorization.

Two independent routes are kept deliberately: largest_bisimulation
prunes a pair relation to its greatest fixpoint, while quotient uses
partition refinement.  Tests cross-check one against the other.

Over a lifted signature, the family rel(i, j) relates nodes whose
component-i behavior (actions x@i, colors c@i) matches the component-j
behavior.  Reset actions play no role in the family itself; they enter
through the persistence and reset conditions checked on top of it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from .errors import CrossCheckError, GraphFormatError, PolymuError
from .graphs import LabeledGraph, RESET, split_lifted, tuple_id

Relation = frozenset  # of (node, node) pairs


def _pair_ok(g1: LabeledGraph, g2: LabeledGraph, u: str, v: str, rel, acts) -> bool:
    for a in acts:
        su = g1.succ(u, a)
        sv = g2.succ(v, a)
        for u2 in su:
            if not any((u2, v2) in rel for v2 in sv):
                return False
        for v2 in sv:
            if not any((u2, v2) in rel for u2 in su):
                return False
    return True


def _delete_pairs(g1: LabeledGraph, g2: LabeledGraph, rounds: int | None) -> set:
    """Label-consistent pairs left after at most rounds deletion rounds
    (None: until stable).  A round deletes, all at once, every pair whose
    matching obligations fail against the relation at its start."""
    if g1.signature != g2.signature:
        raise GraphFormatError("signature: graphs must share a signature")
    acts = g1.signature.actions
    rel = {(u, v) for u in g1.nodes for v in g2.nodes if g1.label(u) == g2.label(v)}
    for _ in itertools.count() if rounds is None else range(rounds):
        dead = [p for p in rel if not _pair_ok(g1, g2, p[0], p[1], rel, acts)]
        if not dead:
            break
        rel.difference_update(dead)
    return rel


def largest_bisimulation(g1: LabeledGraph, g2: LabeledGraph) -> Relation:
    """All pairs (u, v) related by some bisimulation between g1 and g2.

    Greatest fixpoint by pair deletion: start from the label-consistent
    pairs and delete pairs whose matching obligations fail, until stable.
    """
    return frozenset(_delete_pairs(g1, g2, None))


def bisimilar(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    return (g1.root, g2.root) in largest_bisimulation(g1, g2)


def bounded_bisimilar(g1: LabeledGraph, g2: LabeledGraph, k: int) -> bool:
    """Roots indistinguishable for k rounds of the bisimulation game."""
    if k < 0:
        raise GraphFormatError(f"k: must be >= 0, got {k}")
    return (g1.root, g2.root) in _delete_pairs(g1, g2, k)


def bisimulation_partition(g: LabeledGraph) -> list[tuple[str, ...]]:
    """Bisimilarity classes of g by partition refinement, sorted.

    Classes start from label sets and are split by the multiset-free
    signature (own class, set of (action, successor class)).  A round
    only ever splits classes, so the partition is stable, and the loop
    ends, as soon as a round leaves the class count unchanged.
    """
    keys = {v: (tuple(sorted(g.label(v))),) for v in g.nodes}
    cls = _classes_from_keys(g, keys)
    while True:
        keys = {}
        for v in g.nodes:
            moves = {(a, cls[w]) for a in g.signature.actions for w in g.succ(v, a)}
            keys[v] = (cls[v], tuple(sorted(moves)))
        nxt = _classes_from_keys(g, keys)
        if len(set(nxt.values())) == len(set(cls.values())):
            break
        cls = nxt
    groups: dict[int, list[str]] = {}
    for v in g.nodes:
        groups.setdefault(cls[v], []).append(v)
    return sorted(tuple(sorted(members)) for members in groups.values())


def _classes_from_keys(g, keys) -> dict[str, int]:
    distinct = sorted(set(keys.values()), key=repr)
    index = {k: i for i, k in enumerate(distinct)}
    return {v: index[keys[v]] for v in g.nodes}


def quotient(g: LabeledGraph) -> LabeledGraph:
    """Quotient by bisimilarity; class ids are lex-least representatives."""
    parts = bisimulation_partition(g)
    rep = {}
    for members in parts:
        r = min(members)
        for v in members:
            rep[v] = r
    nodes = sorted({rep[v] for v in g.nodes})
    edges = sorted({(rep[u], a, rep[w]) for u, a, w in g.edges})
    labels = {r: g.label(r) for r in nodes}
    return LabeledGraph(g.signature, nodes, rep[g.root], edges, labels)


def component_view(g: LabeledGraph, i: int) -> LabeledGraph:
    """Base-signature view of component i: keep x@i edges and c@i colors."""
    base, d = split_lifted(g.signature)
    if not 0 <= i < d:
        raise GraphFormatError(f"i: component {i} out of range for dimension {d}")
    edges = []
    for u, a, w in g.edges:
        name, idx = a.rsplit("@", 1)
        if name != RESET and int(idx) == i:
            edges.append((u, name, w))
    labels = {}
    for v in g.nodes:
        labels[v] = [c.rsplit("@", 1)[0] for c in g.label(v) if int(c.rsplit("@", 1)[1]) == i]
    return LabeledGraph(base, g.nodes, g.root, edges, labels)


@dataclass(frozen=True)
class DBisimFamily:
    """Family of component relations over one lifted graph."""

    d: int
    relations: Mapping[tuple[int, int], Relation]

    def rel(self, i: int, j: int) -> Relation:
        return self.relations[(i, j)]


def largest_d_bisimulation(g: LabeledGraph) -> DBisimFamily:
    """Largest family: rel(i, j) is the largest bisimulation between the
    component-i view and the component-j view of g."""
    _, d = split_lifted(g.signature)
    views = [component_view(g, i) for i in range(d)]
    relations = {}
    for i in range(d):
        for j in range(d):
            relations[(i, j)] = largest_bisimulation(views[i], views[j])
    return DBisimFamily(d, relations)


def is_persistent(g: LabeledGraph, fam: DBisimFamily | None = None) -> bool:
    """Every edge touching component i preserves all other components'
    behavior: (v, x@i, v') with j != i implies v rel(j,j) v'."""
    if fam is None:
        fam = largest_d_bisimulation(g)
    for u, a, w in g.edges:
        i = int(a.rsplit("@", 1)[1])
        for j in range(fam.d):
            if j != i and (u, w) not in fam.rel(j, j):
                return False
    return True


def has_reset_property(g: LabeledGraph, fam: DBisimFamily | None = None) -> bool:
    """Every rst@i edge lands on a node whose component i behaves like
    the root's component i."""
    if fam is None:
        fam = largest_d_bisimulation(g)
    for u, a, w in g.edges:
        name, idx = a.rsplit("@", 1)
        if name == RESET and (w, g.root) not in fam.rel(int(idx), int(idx)):
            return False
    return True


def is_power_rooted(g: LabeledGraph, fam: DBisimFamily | None = None) -> bool:
    """root rel(i, j) root for all components i, j."""
    if fam is None:
        fam = largest_d_bisimulation(g)
    return all(
        (g.root, g.root) in fam.rel(i, j) for i in range(fam.d) for j in range(fam.d)
    )


def power_conditions(g: LabeledGraph) -> dict[str, bool]:
    fam = largest_d_bisimulation(g)
    return {
        "persistent": is_persistent(g, fam),
        "reset": has_reset_property(g, fam),
        "power_rooted": is_power_rooted(g, fam),
    }


def detect_power(g: LabeledGraph, d: int | None = None, method: str = "both") -> bool:
    """Is g a d-fold power up to bisimulation?

    method "dbisim" checks persistence, reset and root conditions on the
    largest family; "logic" evaluates the corresponding fixpoint formulas;
    "both" runs the two and raises CrossCheckError on disagreement.
    """
    _, d_sig = split_lifted(g.signature)
    if d is not None and d != d_sig:
        raise GraphFormatError(f"d: signature has dimension {d_sig}, got {d}")
    if method not in ("dbisim", "logic", "both"):
        raise GraphFormatError(f"method: unknown method {method!r}")
    answers = {}
    if method in ("dbisim", "both"):
        answers["dbisim"] = all(power_conditions(g).values())
    if method in ("logic", "both"):
        answers["logic"] = all(power_formula_verdicts(g).values())
    if method == "both" and answers["dbisim"] != answers["logic"]:
        raise CrossCheckError(
            f"detect_power: dbisim={answers['dbisim']} logic={answers['logic']}"
        )
    return answers[method if method != "both" else "dbisim"]


def power_formula_verdicts(g: LabeledGraph) -> dict[str, bool]:
    """Root-pair truth of the persistence, reset and power formulas."""
    from .logic import gen_per_formula, gen_pow_formula, gen_rst_formula
    from .semantics import models

    base, d = split_lifted(g.signature)
    return {
        "persistent": models(g, gen_per_formula(base, d), 2),
        "reset": models(g, gen_rst_formula(base, d), 2),
        "power_rooted": models(g, gen_pow_formula(base, d), 2),
    }


def _factor_classes(g: LabeledGraph, i: int, fam: DBisimFamily) -> dict[str, str]:
    """Map each node to the lex-least member of its rel(i, i) class."""
    rel = fam.rel(i, i)
    rep: dict[str, str] = {}
    for v in g.nodes:
        members = [w for w in g.nodes if (v, w) in rel]
        rep[v] = min(members)
    return rep


def factor(g: LabeledGraph, i: int, fam: DBisimFamily | None = None) -> LabeledGraph:
    """Component-i factor: quotient of the component-i view by rel(i, i).

    Requires persistence and the reset property; together they make the
    factors recombine into a product bisimilar to g.
    """
    view = component_view(g, i)  # also rejects an out-of-range i
    if fam is None:
        fam = largest_d_bisimulation(g)
    if not is_persistent(g, fam):
        raise PolymuError("factor: graph is not persistent")
    if not has_reset_property(g, fam):
        raise PolymuError("factor: graph lacks the reset property")
    rep = _factor_classes(g, i, fam)
    nodes = sorted(set(rep.values()))
    edges = sorted({(rep[u], a, rep[w]) for u, a, w in view.edges})
    labels = {r: view.label(r) for r in nodes}
    return LabeledGraph(view.signature, nodes, rep[g.root], edges, labels)


def factors(g: LabeledGraph) -> list[LabeledGraph]:
    """All d component factors, sharing one family computation."""
    _, d = split_lifted(g.signature)
    fam = largest_d_bisimulation(g)
    return [factor(g, i, fam) for i in range(d)]


def relation_lines(rel: Relation) -> list[str]:
    """Sorted "(u,v)" lines for CLI output."""
    return [tuple_id(p) for p in sorted(rel)]
