"""Shared fixtures: small graphs used throughout the suite."""
import pytest

from polymu.graphs import LabeledGraph, Signature

SIG_AF = Signature(["a"], ["f"])
SIG_ABF = Signature(["a", "b"], ["f"])

# the formula shapes of the benchmark's modelcheck workload, over a, b, f, g
PATTERNS = (
    "mu X. f | <a>X | <b>X",  # reach
    "nu X. ~f & [a]X & [b]X",  # safety
    "nu X. mu Y. (f & (<a>X | <b>X)) | <a>Y | <b>Y",  # Büchi
    "mu X. nu Y. (g & (<a>Y | <b>Y)) | <a>X | <b>X",  # co-Büchi
    "nu X. (mu Y. f | <a>Y | <b>Y) & [a]X & [b]X",  # nested
    "mu X. f | g & (<a>X | <b>X)",  # until
)


def make_loop3():
    """Three nodes on an a-cycle tail, f on the middle node.

    0 -a-> 1 -a-> 2, 2 -a-> 1, f on node 1.
    """
    return LabeledGraph(
        SIG_AF,
        ["0", "1", "2"],
        "0",
        [("0", "a", "1"), ("1", "a", "2"), ("2", "a", "1")],
        {"1": ["f"]},
    )


@pytest.fixture
def loop3():
    return make_loop3()


def make_graph(sig, nodes, root, edges, labels=None):
    return LabeledGraph(sig, nodes, root, edges, labels or {})


def successors(g):
    """Reference adjacency read off g.edges: per (node id, action), the
    target ids sorted."""
    out = {}
    for u, a, w in g.edges:
        out.setdefault((u, a), []).append(w)
    return {key: tuple(sorted(ws)) for key, ws in out.items()}


def succ(g, v, a):
    """The a-successors of node v, as ids sorted, read off g.edges."""
    return successors(g).get((v, a), ())


def depth(tree, v):
    """Number of edges from the root of tree down to v."""
    return len(root_path(tree, v)) - 1


def levels(tree):
    """Node ids grouped by depth, root first, each level sorted."""
    out = []
    for v in sorted(tree.nodes):
        k = depth(tree, v)
        out += [[] for _ in range(k + 1 - len(out))]
        out[k].append(v)
    return out


def root_path(tree, v):
    """Node sequence from the root of tree to v, inclusive, walked up
    FiniteTree._parent by position."""
    path = [tree.index[v]]
    while (up := tree._parent[path[-1]]) is not None:
        path.append(up[0])
    return tuple(tree.nodes[p] for p in reversed(path))
