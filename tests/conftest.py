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


def root_path(tree, v):
    """Node sequence from the root of tree to v, inclusive, walked up by parent()."""
    path = [v]
    while (up := tree.parent(path[-1])) is not None:
        path.append(up[0])
    return tuple(reversed(path))
