"""Shared fixtures: small graphs used throughout the suite."""
import pytest

from polymu.graphs import LabeledGraph, Signature

SIG_AF = Signature(["a"], ["f"])
SIG_ABF = Signature(["a", "b"], ["f"])


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


def root_path(tree, v):
    """Node sequence from the root of tree to v, inclusive, walked up by parent()."""
    path = [v]
    while (up := tree.parent(path[-1])) is not None:
        path.append(up[0])
    return tuple(reversed(path))
