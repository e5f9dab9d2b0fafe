"""Evaluation of arity-d formulas on finite graphs.

The denotation of an arity-d formula is a set of d-tuples of nodes.
Inside the evaluator a tuple set is a bitset held in a Python int: with
n = |V| and nodes numbered in g.nodes order, bit sum(t[k] * n**(d-1-k))
stands for the tuple t, the order of itertools.product.  Connectives
are single int operations, colors are digit masks, and the bitsets are
decoded into node-name tuples only on the way out.  A bitset is n**d
bits wide, so evaluation refuses to start when that exceeds tuple_cap.

Fixpoints are computed by iteration: least fixpoints climb from the
empty set, greatest fixpoints descend from the full tuple space.
Positivity of bound variables (checked up front) makes both monotone,
so each loop stabilizes after at most |V|^d + 1 rounds; exceeding the
bound is reported as an error instead of looping forever.

Each modality keeps its last argument and pre-image.  The pre-image
distributes over union, so when the new argument contains the last one
only the added tuples are mapped, as in semi-naive evaluation; any
other change is recomputed in full.  Under mu the arguments of <a@i>
only grow, and under nu so do the complements taken by [a@i].
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping

from .errors import FormulaError, PolymuError, ResourceLimitError
from .graphs import LabeledGraph
from .logic import (
    And,
    Box,
    Color,
    Diamond,
    Formula,
    Mu,
    Neg,
    Node,
    Nu,
    Or,
    Replace,
    TT,
    Var,
    _free_map,
    validate_formula,
)

DEFAULT_TUPLE_CAP = 2**20


@dataclass(frozen=True)
class TupleSet:
    """A set of same-arity node tuples."""

    arity: int
    tuples: frozenset[tuple[str, ...]]

    def __contains__(self, t) -> bool:
        return tuple(t) in self.tuples

    def __len__(self):
        return len(self.tuples)

    def sorted(self) -> list[tuple[str, ...]]:
        return sorted(self.tuples)


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


def _evaluate_bits(
    g: LabeledGraph,
    phi: Formula,
    d: int | None,
    env: Mapping[str, TupleSet] | None,
    tuple_cap: int,
    fmap: dict[int, frozenset[str]] | None = None,
) -> int:
    """Denotation of phi over g as a bitset; see the module docstring.

    fmap, when given, is _free_map(phi.root), already built by the caller.
    """
    validate_formula(phi, g.signature)
    if d is not None and d != phi.arity:
        raise FormulaError(f"formula has arity {phi.arity}, expected {d}")
    arity = phi.arity
    env = dict(env or {})
    if fmap is None:
        fmap = _free_map(phi.root)
    missing = fmap[id(phi.root)] - set(env)
    if missing:
        raise FormulaError(f"unbound variables: {', '.join(sorted(missing))}")

    n = len(g.nodes)
    size = n**arity
    if size > tuple_cap:
        raise ResourceLimitError(
            f"tuple space {n}^{arity} exceeds the cap of {tuple_cap}"
        )
    idx = g.index
    full = (1 << size) - 1
    max_rounds = size + 1
    # stride[k] is the bit distance between tuples differing by one in component k
    stride = [n ** (arity - 1 - k) for k in range(arity)]
    # unit[k]: the tuples whose component k is 0, a run of stride[k] ones
    # repeated every n * stride[k] bits by multiplying with a repunit
    unit = [((1 << sk) - 1) * (full // ((1 << (n * sk)) - 1)) for sk in stride]

    base_env: dict[str, int] = {}
    for name, ts in env.items():
        if ts.arity != arity:
            raise FormulaError(f"environment entry {name!r} has arity {ts.arity}, expected {arity}")
        members = []
        for t in ts.tuples:
            if len(t) != arity or any(v not in idx for v in t):
                raise FormulaError(f"environment entry {name!r} contains a bad tuple {t!r}")
            members.append(sum(idx[v] * s for v, s in zip(t, stride)))
        base_env[name] = _to_bits(members, size)

    def digit_mask(k: int, values) -> int:
        """All tuples whose component k is one of values."""
        res = 0
        for v in values:
            res |= unit[k] << (v * stride[k])
        return res

    # (action, comp) -> (per-node offsets to predecessor tuples, (mask, shift) groups)
    pre_tables: dict[tuple[str, int], tuple[list, list]] = {}

    def pre_table(a: str, k: int) -> tuple[list, list]:
        sk = stride[k]
        offs: list[list[int]] = [[] for _ in range(n)]
        by_shift: dict[int, list[int]] = {}
        for src, b, dst in g.edges:
            if b != a:
                continue
            u, w = idx[src], idx[dst]
            offs[w].append((u - w) * sk)
            by_shift.setdefault((w - u) * sk, []).append(w)
        groups = [(digit_mask(k, ws), sh) for sh, ws in by_shift.items()]
        pre_tables[(a, k)] = tab = (offs, groups)
        return tab

    def pre(a: str, k: int, s: int) -> int:
        """Tuples with an a-successor in component k that lands in s."""
        if not s:
            return 0
        offs, groups = pre_tables.get((a, k)) or pre_table(a, k)
        if s.bit_count() <= len(groups):
            # sparse: map each member to its predecessors
            sk = stride[k]
            return _to_bits((i + off for i in _set_bits(s) for off in offs[i // sk % n]), size)
        # dense: move every target digit w to the source digit u at once;
        # edges with equal w - u share one mask and one shift
        res = 0
        for mask, sh in groups:
            part = s & mask
            res |= part >> sh if sh >= 0 else part << -sh
        return res

    last_pre: dict[int, tuple[int, int]] = {}

    def pre_inc(node: Diamond | Box, s: int) -> int:
        """pre() of s, reusing the node's last call when s contains its argument."""
        # a node seen for the first time starts from pre(0) == 0
        old, old_res = last_pre.get(id(node), (0, 0))
        if s & old == old:
            res = old_res | pre(node.action, node.comp, s & ~old)
        else:
            res = pre(node.action, node.comp, s)
        last_pre[id(node)] = (s, res)
        return res

    index_maps: dict[int, itemgetter] = {}

    def index_map(node: Replace) -> itemgetter:
        """Picks the replaced tuple's bits out of the argument's bit string."""
        # source index of tuple t is sum_j t[j] * weight[j]
        weight = [0] * arity
        for k, j in enumerate(node.mapping):
            weight[j] += stride[k]
        src = [0]
        for j in range(arity):
            src = [x + v * weight[j] for x in src for v in range(n)]
        # bin strings are most significant bit first
        getter = itemgetter(*[size - 1 - x for x in reversed(src)])
        index_maps[id(node)] = getter
        return getter

    closed_cache: dict[int, int] = {}

    def go(node: Node, scope: dict[str, int]) -> int:
        closed = not fmap[id(node)]
        if closed and id(node) in closed_cache:
            return closed_cache[id(node)]
        if isinstance(node, TT):
            res = full
        elif isinstance(node, Color):
            good = [idx[v] for v in g.nodes if g.has_color(v, node.color)]
            res = digit_mask(node.comp, good)
        elif isinstance(node, Var):
            res = scope[node.name]
        elif isinstance(node, Neg):
            res = full ^ go(node.sub, scope)
        elif isinstance(node, And):
            res = go(node.left, scope) & go(node.right, scope)
        elif isinstance(node, Or):
            res = go(node.left, scope) | go(node.right, scope)
        elif isinstance(node, Diamond):
            res = pre_inc(node, go(node.sub, scope))
        elif isinstance(node, Box):
            res = full ^ pre_inc(node, full ^ go(node.sub, scope))
        elif isinstance(node, Replace):
            getter = index_maps.get(id(node)) or index_map(node)
            res = int("".join(getter(format(go(node.sub, scope), f"0{size}b"))), 2)
        elif isinstance(node, (Mu, Nu)):
            cur = 0 if isinstance(node, Mu) else full
            inner_scope = dict(scope)
            for _ in range(max_rounds):
                inner_scope[node.var] = cur
                nxt = go(node.body, inner_scope)
                if nxt == cur:
                    break
                cur = nxt
            else:
                raise PolymuError(
                    f"fixpoint for {node.var!r} did not stabilize in {max_rounds} rounds"
                )
            res = cur
        else:
            # FF and anything unexpected; validate_formula already vetted types
            res = 0
        if closed:
            closed_cache[id(node)] = res
        return res

    return go(phi.root, base_env)


def evaluate(
    g: LabeledGraph,
    phi: Formula,
    d: int | None = None,
    env: Mapping[str, TupleSet] | None = None,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
) -> TupleSet:
    """Denotation of phi over g as a TupleSet of arity phi.arity.

    env supplies denotations for free variables.  d, when given, must
    match the formula arity.
    """
    bits = _evaluate_bits(g, phi, d, env, tuple_cap)
    names = g.nodes
    n = len(names)
    strides = [n ** (phi.arity - 1 - k) for k in range(phi.arity)]
    return TupleSet(
        phi.arity,
        frozenset(tuple(names[i // s % n] for s in strides) for i in _set_bits(bits)),
    )


def models(g: LabeledGraph, phi: Formula, d: int | None = None,
           tuple_cap: int = DEFAULT_TUPLE_CAP) -> bool:
    """Does the arity-fold root tuple of g satisfy phi?  phi must be closed."""
    fmap = _free_map(phi.root)
    if fmap[id(phi.root)]:
        raise FormulaError("models needs a closed formula")
    bits = _evaluate_bits(g, phi, d, None, tuple_cap, fmap)
    n = len(g.nodes)
    r = g.index[g.root]
    root_bit = sum(r * n**k for k in range(phi.arity))
    return bool(bits >> root_bit & 1)
