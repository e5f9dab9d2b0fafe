"""Finite rooted graphs with labeled edges and colored nodes.

A graph doubles as an NFA by reading one designated color as the
accepting condition, and as a finite tree when its edge relation is
tree shaped.  Node ids are opaque strings.  Graphs are immutable after
construction.  A graph stores its edges once, as LabeledGraph._moves:
per action, (source position, target position) pairs over the node
order.  Only this module knows that form: the analyses and unfold read
adjacency through its helpers, _succ_rows and _pred_rows (position
masks), _succ_lists, _pred_lists and _tagged_succ_lists (position lists),
and _shifts and _shift_targets (the differences w - u of the edges u -> w).
Builders of derived graphs map the pairs themselves, and the tree shape
check walks them in edge order, so it names the first fault.  The (src,
action, dst) id triples of LabeledGraph.edges are read off _moves on
demand, for the writer, equality and hashing.  A tree keeps its shape by
position too: FiniteTree._parent and _depth per position, and _order,
a top-down walk order.  A graph's colors are stored once too, in
LabeledGraph._colors: per color, a mask with bit p set when position p
carries it.  Analyses read the masks, derived graphs shift, map or flip
their bits, and label() is a view read off them.

The d-fold product of graphs over a shared base signature is a graph
over the lifted signature: action x@i moves component i along an
x-edge of factor i, action rst@i resets component i to the root of
factor i, and color c@i holds where component i carries c.

One bitmask kernel serves every layer: _image and _closure walk a
relation held as one row mask per position, as _succ_rows and _pred_rows
build them, and _digit_zero and _spread lay out the digits of a tuple
space.  product, the evaluator, the subset search and the squaring
replay of queries all use them.

LabeledGraph(...), and read_graph with it, is the validating boundary:
it checks every node id, edge, action and color it is given: ids
(non-empty strings, distinct), the root, each edge (length, source,
target, action, duplicate) and each label color.  The constructor checks
in two passes.  A lean pass makes every check over whole lists (one type
pass over the ids, then the index at once; one loop that files each edge
under its action with unchecked lookups, then duplicates by set size per
action; one loop over the label lists) and names no fault.  Only when it
finds a fault, or meets a form it does not take, does the walk run: item
by item, it raises the first fault in the order above.  The lean pass
takes edges and label values only as lists or tuples, and refuses others
before reading any, so a one-shot item reaches the walk unspent; an edge
iterable other than a list or tuple is made a list once, for both
passes.  read_graph checks only what the constructor cannot see: the
top-level fields, the signature, and, over whole lists, that every node
entry is a dict with exactly the keys id and colors and that every
colors value and every edge is a list.  It builds the labels once, and
hands them and the edge lists to the constructor uncopied.  Faults are
reported in one order: the JSON shape of every node entry (id a string,
colors a list of strings), then of every edge (three strings), then the
constructor's checks in the order above.  A non-string id, color or edge
field trips the constructor, and read_graph then walks the JSON shape
item by item to report that fault first.

Graphs the library derives from graphs it already holds (product,
unfold, bisim.quotient, bisim.component_view, pumping.pump) are built
through LabeledGraph._trusted, which takes their position pairs and
color masks ready-made and checks only that the ids are distinct; unfold
and pump, which build trees as trees, hand over their shape lists as
well, so the tree shape check runs only on trees from other sources.
"""
from __future__ import annotations

import functools
import itertools
import json
import operator
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .errors import GraphFormatError, PolymuError, ResourceLimitError

_NAME_RE = re.compile(r"[a-z0-9_]+(@\d+)?\Z")
_LIFTED_RE = re.compile(r"([a-z0-9_]+)@(\d+)\Z")

RESET = "rst"

# product, unfold, pumping.pump and pumping.gen_rword_tree refuse to build
# graphs with more nodes than this
_MAX_NODES = 1 << 20
# product and automata.acceptance_game refuse to build more moves (position
# pairs) than this, about 2 GB held as 2-tuples
_MAX_MOVES = 1 << 24
# unfold ids are whole paths, so their total length has a budget of its own
_MAX_ID_CHARS = 1 << 24


@dataclass(frozen=True)
class Signature:
    """Finite action and color alphabets.

    Names are non-empty words over [a-z0-9_], optionally carrying a
    single @i component suffix (lifted form).  Order is significant
    and preserved; two signatures are equal only if they list the same
    names in the same order.  _action_number maps each action to its
    position in actions; _color_set holds the colors.
    """

    actions: tuple[str, ...]
    colors: tuple[str, ...]

    def __init__(self, actions: Iterable[str], colors: Iterable[str]):
        object.__setattr__(self, "actions", tuple(actions))
        object.__setattr__(self, "colors", tuple(colors))
        if not self.actions:
            raise GraphFormatError("actions: must be non-empty")
        if not self.colors:
            raise GraphFormatError("colors: must be non-empty")
        seen: set[str] = set()
        for kind, names in (("actions", self.actions), ("colors", self.colors)):
            for name in names:
                if not isinstance(name, str) or not _NAME_RE.match(name):
                    raise GraphFormatError(f"{kind}: bad name {name!r}")
                if name in seen:
                    raise GraphFormatError(f"{kind}: duplicate name {name!r}")
                seen.add(name)
        # lookups for the validating constructor and validate_formula; set
        # here, as a cached_property writing the instance __dict__ would slow
        # every later attribute read on the signature
        object.__setattr__(self, "_action_number", dict(zip(self.actions, itertools.count())))
        object.__setattr__(self, "_color_set", frozenset(self.colors))

    def is_base(self) -> bool:
        return all("@" not in n for n in self.actions + self.colors)


def _set_bits(x: int):
    """Indices of the set bits of x >= 0, ascending."""
    s = bin(x)[:1:-1]
    i = s.find("1")
    while i >= 0:
        yield i
        i = s.find("1", i + 1)


def _to_bits(indices, size: int) -> int:
    """Bitset of width size with the given bits set."""
    out = bytearray((size + 7) >> 3)
    for j in indices:
        out[j >> 3] |= 1 << (j & 7)
    return int.from_bytes(out, "little")


def _image(rows: Sequence[int], s: int) -> int:
    """Union of rows[i] over the set bits i of s: the image of s under the
    relation whose row i is the bitmask of the positions i relates to."""
    out = 0
    while s:
        low = s & -s
        out |= rows[low.bit_length() - 1]
        s ^= low
    return out


def _closure(rows: Sequence[int], s: int) -> int:
    """Least superset of s that contains rows[i] for each of its bits i."""
    todo = s
    while todo:
        low = todo & -todo
        todo ^= low
        new = rows[low.bit_length() - 1] & ~s
        s |= new
        todo |= new
    return s


def _digit_zero(size: int, n: int, stride: int) -> int:
    """Among size positions read as mixed-radix tuples, those whose digit
    of weight stride (base n) is 0: a run of stride ones repeated every
    n * stride bits, made by multiplying the run with a repunit."""
    return ((1 << stride) - 1) * (((1 << size) - 1) // ((1 << (n * stride)) - 1))


def _spread(zero: int, stride: int, digits: Iterable[int]) -> int:
    """Positions whose digit of weight stride is one of digits, given zero,
    the positions where that digit is 0."""
    out = 0
    for p in digits:
        out |= zero << p * stride
    return out


def _succ_rows(g: LabeledGraph, actions: Iterable[str]) -> list[int]:
    """Per source position, the mask of its targets over the union of the
    given actions' edges: a relation in the form _image and _closure walk."""
    rows = [0] * len(g.nodes)
    for a in actions:
        for u, w in g._moves.get(a, ()):
            rows[u] |= 1 << w
    return rows


def _pred_rows(g: LabeledGraph, a: str) -> list[int]:
    """Per target position w, the mask of the sources u of the a-edges u -> w."""
    rows = [0] * len(g.nodes)
    for u, w in g._moves.get(a, ()):
        rows[w] |= 1 << u
    return rows


def _succ_lists(g: LabeledGraph, a: str, scale: int = 1) -> list[list[int]]:
    """Per source position, its a-targets times scale, in edge order."""
    lists: list[list[int]] = [[] for _ in g.nodes]
    for u, w in g._moves.get(a, ()):
        lists[u].append(w * scale)
    return lists


def _tagged_succ_lists(g: LabeledGraph, tag: Callable[[str], object], scale: int = 1) -> list[list]:
    """Per source position, a (tag(a), w * scale) pair for each a-edge u -> w
    of every action, grouped by action, in edge order; tag runs once per action."""
    lists: list[list] = [[] for _ in g.nodes]
    for a, pairs in g._moves.items():
        t = tag(a)
        for u, w in pairs:
            lists[u].append((t, w * scale))
    return lists


def _pred_lists(g: LabeledGraph, a: str, scale: int = 1) -> list[list[int]]:
    """Per target position, its a-sources times scale, in edge order."""
    lists: list[list[int]] = [[] for _ in g.nodes]
    for u, w in g._moves.get(a, ()):
        lists[w].append(u * scale)
    return lists


def _shifts(g: LabeledGraph, a: str) -> set[int]:
    """The distinct differences w - u over the a-edges u -> w: the evaluator's
    count for every table, at half the cost of grouping them as _shift_targets does."""
    return {w - u for u, w in g._moves.get(a, ())}


def _shift_targets(g: LabeledGraph, a: str) -> dict[int, list[int]]:
    """Per distinct difference w - u over the a-edges u -> w, the targets
    w of those edges, in edge order."""
    targets: dict[int, list[int]] = {}
    for u, w in g._moves.get(a, ()):
        targets.setdefault(w - u, []).append(w)
    return targets


@functools.lru_cache(maxsize=4096)  # called once per edge; signatures repeat few names
def unlift(name: str) -> tuple[str, int]:
    """(x, i) for a lifted action or color name x@i."""
    m = _LIFTED_RE.match(name)
    if m is None:
        raise GraphFormatError(f"name: {name!r} is not of the form x@i")
    return m.group(1), int(m.group(2))


@functools.lru_cache(maxsize=256)
def lift_signature(sig: Signature, d: int) -> Signature:
    """Signature of d-fold products: x@i and rst@i actions, c@i colors."""
    if d < 1:
        raise GraphFormatError(f"d: must be >= 1, got {d}")
    if not sig.is_base():
        raise GraphFormatError("signature: already lifted, refusing to lift again")
    if RESET in sig.actions:
        raise GraphFormatError(f"actions: {RESET!r} is reserved")
    actions = [f"{x}@{i}" for x in sig.actions for i in range(d)]
    actions += [f"{RESET}@{i}" for i in range(d)]
    colors = [f"{c}@{i}" for c in sig.colors for i in range(d)]
    return Signature(actions, colors)


@functools.lru_cache(maxsize=256)
def split_lifted(sig: Signature) -> tuple[Signature, int]:
    """Recover (base signature, d) from a lifted signature.

    sig must list exactly the names of lift_signature(base, d) in any
    order; base keeps its names in order of first appearance in sig.
    Raises GraphFormatError otherwise.
    """
    actions = [unlift(a) for a in sig.actions]
    resets = [i for x, i in actions if x == RESET]
    if not resets:
        raise GraphFormatError(f"actions: no {RESET}@i actions, not a lifted signature")
    d = max(resets) + 1
    base_actions = [x for x in dict.fromkeys(x for x, _ in actions) if x != RESET]
    if not base_actions:
        raise GraphFormatError("actions: only reset actions present")
    base = Signature(base_actions, dict.fromkeys(unlift(c)[0] for c in sig.colors))
    # sig holds d distinct rst@i only if d <= len(sig.actions); checking that
    # first keeps a stray large index from making lift_signature build d names
    lifted = lift_signature(base, d) if d <= len(sig.actions) else None
    if lifted is None or set(lifted.actions + lifted.colors) != set(sig.actions + sig.colors):
        raise GraphFormatError(f"signature: not the {d}-fold lift of its base names")
    return base, d


def _lean_parts(signature, nodes, root, edges, labels):
    """(index, _moves, _colors) of valid constructor input, or None on
    any fault or unexpected form, unnamed.  Whole-list passes check the
    ids and the edge forms; the edge and label loops then index without
    checking, and a failed lookup means a fault.  Edges and label values
    other than lists and tuples are refused before anything reads them,
    so a one-shot item reaches the walk whole."""
    try:
        "".join(nodes)  # every id is a str
        n = len(nodes)
        index = dict(zip(nodes, range(n)))
        if len(index) != n or not all(nodes) or root not in index:
            return None
        if not {list, tuple}.issuperset(map(type, edges)):
            return None
        number = signature._action_number
        moves: dict[str, list[tuple[int, int]]] = {}
        pairs_of = moves.get
        for src, a, dst in edges:
            pairs = pairs_of(a)
            if pairs is None:
                if a not in number:
                    return None
                pairs = moves[a] = []
            pairs.append((index[src], index[dst]))
        for pairs in moves.values():
            if len(set(pairs)) != len(pairs):
                return None
        holders: dict[str, list[int]] = {c: [] for c in signature.colors}
        for v, cs in labels.items():
            if type(cs) is not list and type(cs) is not tuple:
                return None
            p = index[v]
            for c in cs:
                holders[c].append(p)
    # an unknown id or color (KeyError), an unhashable id, action or color
    # (TypeError), an edge of another length (ValueError)
    except (KeyError, TypeError, ValueError):
        return None
    return index, moves, {c: _to_bits(ps, n) for c, ps in holders.items()}


def _walk_parts(signature, nodes, root, edges, labels):
    """(index, _moves, _colors) checked item by item: raises the first
    fault, in the order the module docstring gives."""
    index: dict[str, int] = {}
    for i, v in enumerate(nodes):
        if not isinstance(v, str) or not v:
            raise GraphFormatError(f"nodes[{i}]: id must be a non-empty string")
        if v in index:
            raise GraphFormatError(f"nodes[{i}]: duplicate id {v!r}")
        index[v] = i
    if root not in index:
        raise GraphFormatError(f"root: {root!r} is not a node")
    position = index.get
    number = signature._action_number.get
    n, n_actions = len(nodes), len(signature.actions)
    moves: dict[str, list[tuple[int, int]]] = {}
    seen: set[int] = set()  # edge (u, a, w) as (u * n + w) * n_actions + number(a)
    for i, e in enumerate(edges):
        try:
            src, a, dst = e
        except ValueError:
            raise GraphFormatError(f"edges[{i}]: expected [src, action, dst]") from None
        u = position(src)
        if u is None:
            raise GraphFormatError(f"edges[{i}]: unknown source {src!r}")
        w = position(dst)
        if w is None:
            raise GraphFormatError(f"edges[{i}]: unknown target {dst!r}")
        k = number(a)
        if k is None:
            raise GraphFormatError(f"edges[{i}]: unknown action {a!r}")
        key = (u * n + w) * n_actions + k
        if key in seen:
            raise GraphFormatError(f"edges[{i}]: duplicate edge {(src, a, dst)!r}")
        seen.add(key)
        pairs = moves.get(a)
        if pairs is None:  # setdefault would build a list per edge
            pairs = moves[a] = []
        pairs.append((u, w))
    color_set = signature._color_set
    holders: dict[str, list[int]] = {c: [] for c in signature.colors}
    for v, cs in labels.items():
        p = position(v)
        if p is None:
            raise GraphFormatError(f"labels: unknown node {v!r}")
        cs = tuple(cs)
        # issuperset meets the colors in order and stops at the first it
        # lacks, so an unhashable color raises only where a loop would
        if not color_set.issuperset(cs):
            c = next(c for c in cs if c not in color_set)
            raise GraphFormatError(f"labels[{v!r}]: unknown color {c!r}")
        for c in cs:
            holders[c].append(p)
    return index, moves, {c: _to_bits(ps, n) for c, ps in holders.items()}


class LabeledGraph:
    """Finite rooted graph over a signature.

    nodes: unique non-empty string ids, order preserved.
    index: node id to its position in nodes, so nodes[index[v]] == v.
    _moves: the stored edges, action to (source position, target
    position) pairs, no duplicates, in input order within each action.
    edges: (src, action, dst) triples derived from _moves on first use,
    grouped by action.
    _colors: the stored colors, every signature color to its position
    mask: bit p set when nodes[p] carries the color.  label() reads it.

    The constructor validates its input in a lean pass over whole lists
    and runs the per-item walk that names a fault only when that pass
    fails (see the module docstring); valid input never meets the walk.

    The edges view is held in _edge_view, which both constructors set to
    None and the accessor fills by plain assignment: a
    functools.cached_property writing the instance __dict__ would slow
    every later attribute read on the graph.
    """

    def __init__(
        self,
        signature: Signature,
        nodes: Iterable[str],
        root: str,
        edges: Iterable[tuple[str, str, str]],
        labels: Mapping[str, Iterable[str]],
    ):
        self.signature = signature
        self.nodes = nodes = tuple(nodes)
        self.root = root
        if type(edges) is not list and type(edges) is not tuple:
            edges = list(edges)  # both passes read them
        parts = _lean_parts(signature, nodes, root, edges, labels)
        if parts is None:
            parts = _walk_parts(signature, nodes, root, edges, labels)
        self.index, self._moves, self._colors = parts
        self._edge_view = None
        self._check_shape()

    @classmethod
    def _trusted(cls, signature, nodes, root, moves, colors, shape=None):
        """Graph from parts the library derived from graphs it already holds.

        nodes: a tuple of ids; moves: action to distinct (source position,
        target position) pairs over them, as _moves holds them; colors:
        every signature color to its position mask, as _colors holds
        them.  Only distinct ids are checked, as building index finds a
        duplicate for free; derived ids such as "(u,v)" can collide when
        the ids they are made of contain the separator.  shape: for a
        tree its builder made as one, the _parent, _depth and _order
        lists it knows by construction; the shape check runs without.
        """
        g = cls.__new__(cls)
        g.signature = signature
        g.nodes = nodes
        g.root = root
        g.index = dict(zip(nodes, range(len(nodes))))
        if len(g.index) != len(nodes):
            seen: set[str] = set()
            for i, v in enumerate(nodes):
                if v in seen:
                    raise GraphFormatError(f"nodes[{i}]: duplicate id {v!r}")
                seen.add(v)
        g._moves = moves
        g._colors = colors
        g._edge_view = None
        if shape is None:
            g._check_shape()
        else:
            g._parent, g._depth, g._order = shape
        return g

    def _check_shape(self) -> None:
        """Shape checks of subclasses, run once the parts are in place."""

    @property
    def edges(self) -> tuple[tuple[str, str, str], ...]:
        """(src, action, dst) id triples read off _moves on first use:
        grouped by action, in input order within each action."""
        view = self._edge_view
        if view is None:
            nodes = self.nodes
            view = self._edge_view = tuple(
                (nodes[u], a, nodes[w]) for a, pairs in self._moves.items() for u, w in pairs
            )
        return view

    def label(self, v: str) -> frozenset[str]:
        p = self.index[v]
        return frozenset([c for c, mask in self._colors.items() if mask >> p & 1])

    def _codes(self) -> list[int]:
        """Per position, its colors as one int: bit k for signature color k."""
        codes = [0] * len(self.nodes)
        for k, c in enumerate(self.signature.colors):
            for p in _set_bits(self._colors[c]):
                codes[p] |= 1 << k
        return codes

    def _colors_at(self, src: Sequence[int]) -> dict[str, int]:
        """Color masks of a graph whose position k carries the colors of
        this graph's position src[k]."""
        width = len(self.nodes)
        out = {}
        for c, mask in self._colors.items():
            holds = format(mask, f"0{width}b")[::-1]
            out[c] = _to_bits([k for k, p in enumerate(src) if holds[p] == "1"], len(src))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return (
            self.signature == other.signature
            and set(self.nodes) == set(other.nodes)
            and self.root == other.root
            and set(self.edges) == set(other.edges)
            and dict(zip(self.nodes, self._codes())) == dict(zip(other.nodes, other._codes()))
        )

    def __hash__(self):
        return hash((self.signature, frozenset(self.nodes), self.root, frozenset(self.edges)))

    def __repr__(self):
        n_edges = sum(map(len, self._moves.values()))
        return f"<LabeledGraph {len(self.nodes)} nodes, {n_edges} edges, root {self.root!r}>"


class FiniteTree(LabeledGraph):
    """LabeledGraph whose edge relation is a tree rooted at root.

    Every non-root node has exactly one incoming edge and is reachable
    from the root; the root has none.  The shape is kept once, by node
    position: _parent holds (parent position, action) per position, None
    at the root; _depth holds each position's depth; _order lists the
    positions top-down, root first, each after its parent.  Readers of
    the shape index these lists by position; the tree has no id views
    of it.
    """

    def _check_shape(self) -> None:
        """The tree shape check that fills _parent, _depth and _order."""
        nodes = self.nodes
        r = self.index[self.root]
        parent: list[tuple[int, str] | None] = [None] * len(nodes)
        kids: list[list[int]] = [[] for _ in nodes]
        for a, pairs in self._moves.items():
            for u, w in pairs:
                if w == r:
                    raise GraphFormatError(f"edges: root {self.root!r} has an incoming edge")
                if parent[w] is not None:
                    raise GraphFormatError(f"edges: node {nodes[w]!r} has two incoming edges")
                parent[w] = (u, a)
                kids[u].append(w)
        for p, up in enumerate(parent):
            if up is None and p != r:
                raise GraphFormatError(f"nodes: {nodes[p]!r} is unreachable from the root")
        depth = [0] * len(nodes)
        order = [r]
        for u in order:  # grows as the walk meets each child
            for w in kids[u]:
                depth[w] = depth[u] + 1
                order.append(w)
        # every node has a parent, so one the walk missed lies on a cycle
        if len(order) != len(nodes):
            raise GraphFormatError("edges: cycle in tree")
        self._parent, self._depth, self._order = parent, depth, order

    @classmethod
    def from_graph(cls, g: LabeledGraph) -> "FiniteTree":
        # g's parts were checked when g was built; only the tree shape is new
        return cls._trusted(g.signature, g.nodes, g.root, g._moves, g._colors)


def _check_root_path(tree: FiniteTree, path: Sequence[str]) -> list[str]:
    """path as a list, after checking that it runs from the root down tree edges."""
    path = list(path)
    if not path:
        raise PolymuError("path is empty")
    for v in path:
        if v not in tree.index:
            raise PolymuError(f"path node {v} is not in the tree")
    if path[0] != tree.root:
        raise PolymuError("not a root path: path must start at the root")
    index = tree.index
    for u, v in zip(path, path[1:]):
        up = tree._parent[index[v]]
        if up is None or up[0] != index[u]:
            raise PolymuError(f"not a root path: path breaks between {u} and {v}")
    return path


def tuple_id(parts: Sequence[str]) -> str:
    return "(" + ",".join(parts) + ")"


def product(graphs: Sequence[LabeledGraph]) -> LabeledGraph:
    """d-fold product of graphs over one shared base signature."""
    if not graphs:
        raise GraphFormatError("graphs: need at least one factor")
    sig = graphs[0].signature
    for i, g in enumerate(graphs[1:], start=1):
        if g.signature != sig:
            raise GraphFormatError(f"graphs[{i}]: signature differs from graphs[0]")
    size = 1
    for g in graphs:
        size *= len(g.nodes)
        if size > _MAX_NODES:
            raise ResourceLimitError(f"product: more than {_MAX_NODES} nodes")
    # component i moves every position by one of its factor's edges or its reset
    pairs = sum([size // len(g.nodes) * (sum(map(len, g._moves.values())) + len(g.nodes))
                 for g in graphs])
    if pairs > _MAX_MOVES:
        raise ResourceLimitError(f"product: more than {_MAX_MOVES} moves")
    lifted = lift_signature(sig, len(graphs))
    # component i steps a product position by the node counts of the factors
    # after i, so each of its moves is a factor pair shifted onto every
    # position whose component i is 0, and color c@i spreads each bit p of
    # c's mask over every position whose component i is p
    moves: dict[str, list[tuple[int, int]]] = {}
    colors = dict.fromkeys(lifted.colors, 0)
    stride = size
    root = 0
    for i, g in enumerate(graphs):
        n = len(g.nodes)
        bases = [hi + lo for hi in range(0, size, stride) for lo in range(stride // n)]
        stride //= n
        r = g.index[g.root]
        root += r * stride
        for a, pairs in [*g._moves.items(), (RESET, [(k, r) for k in range(n)])]:
            shifted = [(u * stride, w * stride) for u, w in pairs]
            moves[f"{a}@{i}"] = [(b + u, b + w) for b in bases for u, w in shifted]
        zero = _digit_zero(size, n, stride)
        for c, mask in g._colors.items():
            colors[f"{c}@{i}"] = _spread(zero, stride, _set_bits(mask))
    ids = tuple(map(tuple_id, itertools.product(*[g.nodes for g in graphs])))
    return LabeledGraph._trusted(lifted, ids, ids[root], moves, colors)


def power(g: LabeledGraph, d: int) -> LabeledGraph:
    """d-fold product of g with itself."""
    if d < 1:
        raise GraphFormatError(f"d: must be >= 1, got {d}")
    if d > _MAX_NODES:  # the factor list alone would be huge
        raise ResourceLimitError(f"power: d = {d} exceeds {_MAX_NODES}")
    return product([g] * d)


def unfold(g: LabeledGraph, depth: int) -> FiniteTree:
    """Tree of edge-paths from the root of length <= depth.

    A tree node stands for one path; its id is the traversed node ids
    and actions joined with "|".  Labels come from the path's endpoint.
    Each level lists its paths by parent, then action, then the id of
    the node they end at.
    """
    if depth < 0:
        raise GraphFormatError(f"depth: must be >= 0, got {depth}")
    ids = g.nodes
    # per action, each position's successor positions, sorted by node id
    outs = [(a, [sorted(ws, key=ids.__getitem__) for ws in _succ_lists(g, a)])
            for a in g.signature.actions]
    r = g.index[g.root]
    nodes = [g.root]
    moves: dict[str, list[tuple[int, int]]] = {}
    ends = [r]  # per tree position, the path's endpoint position
    # the tree's shape: made level by level, so creation order is top-down
    parent: list[tuple[int, str] | None] = [None]
    depths = [0]
    frontier = [(0, g.root, r)]  # (position, path id, endpoint position)
    chars = len(g.root)
    for level in range(1, depth + 1):
        width = 0
        for _, pid, v in frontier:
            for a, out in outs:
                ws = out[v]
                width += len(ws)
                chars += len(ws) * (len(pid) + len(a) + 2) + sum([len(ids[w]) for w in ws])
        if len(nodes) + width > _MAX_NODES:
            raise ResourceLimitError(f"unfold: more than {_MAX_NODES} nodes")
        if chars > _MAX_ID_CHARS:
            raise ResourceLimitError(f"unfold: more than {_MAX_ID_CHARS} id characters")
        nxt = []
        for p, pid, v in frontier:
            for a, out in outs:
                for w in out[v]:
                    cid = f"{pid}|{a}|{ids[w]}"
                    moves.setdefault(a, []).append((p, len(nodes)))
                    nxt.append((len(nodes), cid, w))
                    nodes.append(cid)
                    ends.append(w)
                    parent.append((p, a))
                    depths.append(level)
        frontier = nxt
    shape = parent, depths, list(range(len(nodes)))
    return FiniteTree._trusted(g.signature, tuple(nodes), g.root, moves, g._colors_at(ends), shape)


_ID = operator.itemgetter("id")
_ID_COLORS = operator.itemgetter("id", "colors")


def _json_colors(entries: list, edges: list) -> dict | None:
    """Node id to colors list, or None unless the JSON shape the
    constructor cannot see holds, checked over whole lists: every node
    entry is a dict with exactly the keys id and colors, and every colors
    value and every edge is a list.  A colors value that a repeated id
    drops goes unchecked, as the constructor then fails on the id."""
    if not (set(map(type, entries)) <= {dict} and set(map(len, entries)) <= {2}
            and set(map(type, edges)) <= {list}):
        return None
    try:
        labels = dict(map(_ID_COLORS, entries))
    except (KeyError, TypeError):  # a key other than id and colors, or an unhashable id
        return None
    return labels if set(map(type, labels.values())) <= {list} else None


def _check_json_shape(entries: list, edges: list) -> None:
    """Raise the first JSON shape fault, walking every node entry, then
    every edge; read_graph runs it only once something has failed."""
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != {"id", "colors"}:
            raise GraphFormatError(f'nodes[{i}]: expected {{"id", "colors"}}')
        if not isinstance(entry["id"], str):
            raise GraphFormatError(f"nodes[{i}].id: expected a string")
        if not isinstance(entry["colors"], list) or not all(
            isinstance(c, str) for c in entry["colors"]
        ):
            raise GraphFormatError(f"nodes[{i}].colors: expected a list of strings")
    for i, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 3 and isinstance(e[0], str)
                and isinstance(e[1], str) and isinstance(e[2], str)):
            raise GraphFormatError(f"edges[{i}]: expected [src, action, dst] strings")


def read_graph(data) -> LabeledGraph:
    """Parse graph JSON.  Accepts bytes (UTF-8) or str."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise GraphFormatError(f"invalid UTF-8: {e}") from None
    try:
        obj = json.loads(data)
    except (json.JSONDecodeError, RecursionError) as e:  # the decoder recurses on nesting
        raise GraphFormatError(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise GraphFormatError("top level: expected an object")
    required = ["actions", "colors", "nodes", "root", "edges"]
    for key in required:
        if key not in obj:
            raise GraphFormatError(f"{key}: missing field")
    for key in obj:
        if key not in required:
            raise GraphFormatError(f"{key}: unknown field")
    for key in ("actions", "colors", "nodes", "edges"):
        if not isinstance(obj[key], list):
            raise GraphFormatError(f"{key}: expected a list")
    if not isinstance(obj["root"], str):
        raise GraphFormatError("root: expected a string")
    sig = Signature(obj["actions"], obj["colors"])
    entries, edges = obj["nodes"], obj["edges"]
    labels = _json_colors(entries, edges)
    if labels is None:
        _check_json_shape(entries, edges)  # raises: the walk meets the fault found above
    try:
        return LabeledGraph(sig, list(map(_ID, entries)), obj["root"], edges, labels)
    except (GraphFormatError, TypeError):
        # a non-string id, color or edge field trips the constructor (or
        # hashing); the walk reports the first shape fault ahead of it
        _check_json_shape(entries, edges)
        raise


def read_tree(data) -> FiniteTree:
    return FiniteTree.from_graph(read_graph(data))


def write_graph(g: LabeledGraph) -> str:
    """Serialize to canonical JSON: sorted keys, sorted node and edge lists."""
    colors = g.signature.colors
    codes = dict(zip(g.nodes, g._codes()))
    obj = {
        "actions": list(g.signature.actions),
        "colors": list(colors),
        "nodes": [{"id": v, "colors": sorted(c for k, c in enumerate(colors) if codes[v] >> k & 1)}
                  for v in sorted(g.nodes)],
        "root": g.root,
        "edges": sorted(g.edges),
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
