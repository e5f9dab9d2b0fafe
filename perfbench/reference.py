"""Reference answers computed without the library.

Each function here is a deliberately naive second route, so that a change
to the library never grades its own output.
"""
from __future__ import annotations

import itertools

from corpus import RESET, Graph, lift_names


def reachable(g: Graph) -> set[str]:
    """Nodes reachable from the root along any action, by BFS."""
    succ: dict[str, list[str]] = {}
    for u, _, w in g.edges:
        succ.setdefault(u, []).append(w)
    seen = {g.root}
    frontier = [g.root]
    while frontier:
        nxt = []
        for u in frontier:
            for w in succ.get(u, ()):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def pattern_answer(g: Graph, kind: str, color: str = "f") -> bool:
    """Root verdict of the reachability ("reach": some reachable node has
    color) or safety ("safety": none has) pattern."""
    hit = any(color in g.label(v) for v in reachable(g))
    return hit if kind == "reach" else not hit


def bisim_classes(g: Graph) -> dict[str, int]:
    """Bisimilarity classes by naive signature refinement.

    A node's signature is its own class plus the set of (action, successor
    class) pairs, so every round only splits classes; the partition is
    stable once the class count stops growing.
    """
    succ: dict[str, list[tuple[str, str]]] = {v: [] for v in g.nodes}
    for u, a, w in g.edges:
        succ[u].append((a, w))
    ids: dict = {}
    cls = {v: ids.setdefault(g.label(v), len(ids)) for v in g.nodes}
    count = len(ids)
    while True:
        ids = {}
        cls = {
            v: ids.setdefault((cls[v], frozenset((a, cls[w]) for a, w in succ[v])), len(ids))
            for v in g.nodes
        }
        if len(ids) == count:
            return cls
        count = len(ids)


def bisimilar(g1: Graph, g2: Graph) -> bool:
    """Roots of g1 and g2 bisimilar, decided on their disjoint union."""
    nodes = [f"L{v}" for v in g1.nodes] + [f"R{v}" for v in g2.nodes]
    edges = {(f"L{u}", a, f"L{w}") for u, a, w in g1.edges}
    edges |= {(f"R{u}", a, f"R{w}") for u, a, w in g2.edges}
    labels = {f"L{v}": g1.label(v) for v in g1.nodes}
    labels.update({f"R{v}": g2.label(v) for v in g2.nodes})
    union = Graph(g1.actions, g1.colors, nodes, f"L{g1.root}", edges, labels)
    cls = bisim_classes(union)
    return cls[f"L{g1.root}"] == cls[f"R{g2.root}"]


def is_minimal(g: Graph) -> bool:
    """No two distinct nodes of g are bisimilar."""
    return len(set(bisim_classes(g).values())) == len(g.nodes)


def product(graphs: list[Graph]) -> Graph:
    """d-fold product with reset edges, in the library's naming scheme."""
    d = len(graphs)
    base = graphs[0]
    actions, colors = lift_names(base.actions, base.colors, d)
    succ = []
    for g in graphs:
        s: dict[tuple[str, str], list[str]] = {}
        for u, a, w in g.edges:
            s.setdefault((u, a), []).append(w)
        succ.append(s)

    def tid(t) -> str:
        return "(" + ",".join(t) + ")"

    nodes, edges, labels = [], set(), {}
    for t in itertools.product(*[g.nodes for g in graphs]):
        v = tid(t)
        nodes.append(v)
        cs = frozenset(f"{c}@{i}" for i, g in enumerate(graphs) for c in g.label(t[i]))
        if cs:
            labels[v] = cs
        for i, g in enumerate(graphs):
            for a in base.actions:
                for w in succ[i].get((t[i], a), ()):
                    edges.add((v, f"{a}@{i}", tid(t[:i] + (w,) + t[i + 1:])))
            edges.add((v, f"{RESET}@{i}", tid(t[:i] + (g.root,) + t[i + 1:])))
    root = tid(tuple(g.root for g in graphs))
    return Graph(actions, colors, nodes, root, edges, labels)
