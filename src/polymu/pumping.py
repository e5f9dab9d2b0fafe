"""Tree pumping between two path nodes, and the word-shaped example trees.

pump(tree, path, i, j, k) excises (k = 0) or replicates (k >= 2) the
segment of the tree hanging between path nodes v_i (inclusive) and v_j
(exclusive), branches included; k = 1 reproduces the tree up to node
renaming.  The word-shaped trees give a family where membership of a
level language is checkable both by formula evaluation and by direct
level inspection.  Everything here reads a tree's shape by position,
from FiniteTree._parent, _depth and _order; isomorphism numbers subtree
classes bottom-up, so no depth recurses.
"""
from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import PolymuError, ResourceLimitError
from .graphs import _MAX_NODES, FiniteTree, Signature, _check_root_path, _set_bits


def _zones(tree: FiniteTree, path: Sequence[str], i: int, j: int) -> list[int]:
    """Per position, 0 before the segment, 1 in it, 2 at or below v_j:
    one top-down pass in which every node but v_i and v_j takes its
    parent's zone."""
    path = _check_root_path(tree, path)
    if not 0 < i < j <= len(path) - 1:
        raise PolymuError(f"need 0 < i < j <= {len(path) - 1}, got i={i} j={j}")
    zone = [0] * len(tree.nodes)
    zone[tree.index[path[i]]] = 1
    zone[tree.index[path[j]]] = 2
    parent = tree._parent
    for p in tree._order[1:]:  # the root, first, lies before the segment
        if not zone[p]:
            zone[p] = zone[parent[p][0]]
    return zone


def pump(tree: FiniteTree, path: Sequence[str], i: int, j: int, k: int) -> FiniteTree:
    """The k-fold pump between v_i and v_j: segment nodes become (v, c)
    copies for c < k, the copies chain through the v_{j-1} -> v_j edge's
    action, and k = 0 bridges v_{i-1} straight to v_j."""
    if k < 0:
        raise PolymuError("k must be >= 0")
    zone = _zones(tree, path, i, j)
    in_seg = [z == 1 for z in zone]
    m = sum(in_seg)
    if len(tree.nodes) - m + k * m > _MAX_NODES:
        raise ResourceLimitError(f"pump: more than {_MAX_NODES} nodes")

    def cid(v: str, c: int) -> str:
        return f"({v},{c})"

    outside = [v for v, s in zip(tree.nodes, in_seg) if not s]
    inside = [v for v, s in zip(tree.nodes, in_seg) if s]
    nodes = outside + [cid(v, c) for c in range(k) for v in inside]
    # new positions: the n nodes outside the segment keep their order, then
    # copy c of the segment's m nodes starts at n + c * m
    n = len(outside)
    rank = {v: p for part in (outside, inside) for p, v in enumerate(part)}
    to = [rank[v] for v in tree.nodes]
    colors = tree._colors_at([tree.index[v] for v in outside + inside * k])

    def at(p: int, c: int) -> int:
        return n + c * m + to[p]

    j_at = to[tree.index[path[j]]]
    moves: dict[str, list[tuple[int, int]]] = {}
    for a, pairs in tree._moves.items():
        out = moves[a] = []
        for u, w in pairs:
            if not in_seg[u] and not in_seg[w]:
                out.append((to[u], to[w]))
            elif in_seg[u] and in_seg[w]:
                out += [(at(u, c), at(w, c)) for c in range(k)]
            elif in_seg[u]:
                # the unique exit edge v_{j-1} -> v_j
                if k > 0:
                    out.append((at(u, k - 1), to[w]))
            else:
                # the unique entry edge v_{i-1} -> v_i
                out.append((to[u], at(w, 0) if k > 0 else j_at))
    exit_action = tree._parent[tree.index[path[j]]][1]
    last, first = tree.index[path[j - 1]], tree.index[path[i]]
    moves[exit_action] += [(at(last, c), at(first, c + 1)) for c in range(k - 1)]

    # the shape, known by construction: each node's one incoming move, and
    # top-down the nodes before the segment, its copies in turn, then v_j's
    # subtree, each part in the tree's own top-down order
    parent: list[tuple[int, str] | None] = [None] * len(nodes)
    for a, pairs in moves.items():
        for u, w in pairs:
            parent[w] = (u, a)
    parts: tuple[list, list, list] = ([], [], [])
    for p in tree._order:
        parts[zone[p]].append(p)
    order = [to[p] for p in parts[0]] + [at(p, c) for c in range(k) for p in parts[1]]
    order += [to[p] for p in parts[2]]
    depth = [0] * len(nodes)
    for p in order[1:]:
        depth[p] = depth[parent[p][0]] + 1
    shape = parent, depth, order
    return FiniteTree._trusted(tree.signature, tuple(nodes), tree.root, moves, colors, shape)


def _root_class(tree: FiniteTree, table: dict) -> int:
    """The isomorphism class of tree, numbered bottom-up: a node's class
    is table's int for its color code and its sorted (action, child
    class) pairs, so trees numbered through one table are isomorphic
    exactly when their roots share a class."""
    codes = tree._codes()
    parent = tree._parent
    kids: list[list[tuple[str, int]]] = [[] for _ in codes]
    for p in reversed(tree._order):  # children before their parent, the root last
        cls = table.setdefault((codes[p], tuple(sorted(kids[p]))), len(table))
        up = parent[p]
        if up is not None:
            kids[up[0]].append((up[1], cls))
    return cls


def is_isomorphic(t1: FiniteTree, t2: FiniteTree) -> bool:
    table: dict = {}
    return t1.signature == t2.signature and _root_class(t1, table) == _root_class(t2, table)


# -------------------------------------------------- word-shaped tree family


DEFAULT_WORD_SIG = Signature(("a", "b"), ("f",))

Word = Sequence[tuple[Iterable[str], str]]


def gen_rword_tree(word: Word, branching: int, depth: int) -> FiniteTree:
    """Full branching-ary tree of the given depth over DEFAULT_WORD_SIG:
    level-l nodes carry the l-th label set of the word and their outgoing
    edges the l-th action.  When depth equals the word length the deepest
    level stays unlabeled.  A tree of more than _MAX_NODES nodes is
    refused before any of it is built."""
    if branching < 1:
        raise PolymuError("branching must be >= 1")
    if not 0 <= depth <= len(word):
        raise PolymuError("need 0 <= depth <= word length")
    for lv, (cols, act) in enumerate(word):
        if act not in DEFAULT_WORD_SIG.actions:
            raise PolymuError(f"word action {act} not in the signature")
        for c in cols:
            if c not in DEFAULT_WORD_SIG.colors:
                raise PolymuError(f"word color {c} not in the signature")
    if sum(branching**lv for lv in range(depth + 1)) > _MAX_NODES:
        raise ResourceLimitError(f"gen_rword_tree: more than {_MAX_NODES} nodes")
    nodes, edges, labels = ["n"], [], {}
    level = ["n"]
    for lv in range(depth + 1):
        if lv < len(word):
            for v in level:
                labels[v] = tuple(sorted(word[lv][0]))
        if lv == depth:
            break
        act = word[lv][1]
        nxt = []
        for v in level:
            for c in range(branching):
                w = f"{v}.{c}"
                nodes.append(w)
                edges.append((v, act, w))
                nxt.append(w)
        level = nxt
    return FiniteTree(DEFAULT_WORD_SIG, nodes, "n", edges, labels)


def is_rword(tree: FiniteTree) -> bool:
    """Same-depth nodes share one label set and one outgoing action; leaf
    nodes constrain nothing, so early truncation is allowed."""
    # the edges out of one level are the edges into the next, so the shape
    # holds when each depth shows one (color code, incoming action) pair
    levels = zip(tree._depth, tree._codes(), [up and up[1] for up in tree._parent])
    return len(set(levels)) == max(tree._depth) + 1


def check_luni(tree: FiniteTree) -> Optional[int]:
    """Least depth whose nodes all carry the color f (the first color
    when the signature has no f), else None."""
    color = "f" if "f" in tree.signature.colors else tree.signature.colors[0]
    depth = tree._depth
    lacking = ~tree._colors.get(color, 0) & ((1 << len(depth)) - 1)
    missed = {depth[p] for p in _set_bits(lacking)}
    return next((d for d in range(max(depth) + 1) if d not in missed), None)
