"""Deterministic pseudo-random corpora: graphs, formulas, games.

All randomness flows through a fixed 64-bit xorshift-star generator so
that corpora are reproducible from a documented integer seed alone,
independent of platform or interpreter:

    state s != 0, 64 bits
    s ^= s >> 12;  s ^= (s << 25) & MASK;  s ^= s >> 27
    output = (s * 0x2545F4914F6CDD1D) & MASK

Iteration k of a suite seeded with s0 uses the substream starting at
state (s0 + (k + 1) * 0x9E3779B97F4A7C15) & MASK (replaced by the
additive constant itself if that is zero).  Draws use plain modulo
reduction; the slight bias is irrelevant here and keeps the scheme
easy to reimplement.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import LabeledGraph, RESET, Signature, lift_signature
from .logic import (
    And,
    Box,
    Color,
    Diamond,
    FF,
    Formula,
    Mu,
    Neg,
    Node,
    Nu,
    Or,
    Replace,
    TT,
    Var,
)

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MULT = 0x2545F4914F6CDD1D


class Xorshift:
    """xorshift64-star stream."""

    def __init__(self, seed: int):
        self.state = seed & MASK64 or _GOLDEN

    @classmethod
    def substream(cls, seed: int, k: int) -> "Xorshift":
        return cls((seed + (k + 1) * _GOLDEN) & MASK64)

    def next_u64(self) -> int:
        s = self.state
        s ^= s >> 12
        s ^= (s << 25) & MASK64
        s ^= s >> 27
        self.state = s
        return (s * _MULT) & MASK64

    def below(self, n: int) -> int:
        """Uniform-ish draw from [0, n)."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        return self.next_u64() % n

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def chance(self, num: int, den: int) -> bool:
        return self.below(den) < num

    def choice(self, seq):
        return seq[self.below(len(seq))]


_SIG_POOL = [
    (("a",), ("f",)),
    (("a", "b"), ("f",)),
    (("a",), ("f", "g")),
    (("a", "b"), ("f", "g")),
]


def rand_base_signature(rng: Xorshift) -> Signature:
    actions, colors = rng.choice(_SIG_POOL)
    return Signature(actions, colors)


def rand_graph(
    rng: Xorshift,
    sig: Signature,
    max_nodes: int,
    min_nodes: int = 1,
    edge_den: int = 3,
    color_num: int = 1,
    color_den: int = 3,
) -> LabeledGraph:
    """Random graph: each possible edge with probability 1/edge_den,
    each color on each node with probability color_num/color_den."""
    n = rng.randint(min_nodes, max_nodes)
    nodes = [str(i) for i in range(n)]
    edges = []
    for u in nodes:
        for a in sig.actions:
            for v in nodes:
                if rng.chance(1, edge_den):
                    edges.append((u, a, v))
    labels = {
        v: [c for c in sig.colors if rng.chance(color_num, color_den)] for v in nodes
    }
    return LabeledGraph(sig, nodes, "0", edges, labels)


def rand_lifted_graph(
    rng: Xorshift,
    base: Signature,
    d: int,
    max_nodes: int,
    min_nodes: int = 1,
    base_reachable: bool = True,
) -> LabeledGraph:
    """Random graph over the lifted signature.

    With base_reachable, a spanning tree of non-reset edges keeps every
    node reachable from the root without taking resets.
    """
    sig = lift_signature(base, d)
    n = rng.randint(min_nodes, max_nodes)
    nodes = [str(i) for i in range(n)]
    edges = set()
    if base_reachable:
        for v in range(1, n):
            a = rng.choice(base.actions)
            i = rng.below(d)
            edges.add((str(rng.below(v)), f"{a}@{i}", str(v)))
    den = 2 * n + 2
    for u in nodes:
        for act in sig.actions:
            for v in nodes:
                if rng.chance(1, den):
                    edges.add((u, act, v))
    labels = {v: [c for c in sig.colors if rng.chance(1, 3)] for v in nodes}
    return LabeledGraph(sig, nodes, "0", sorted(edges), labels)


@dataclass
class FormulaGenOptions:
    """Pools the generator draws from; empty pools disable a construct."""

    colors: list[tuple[str, int]]
    dia: list[tuple[str, int]]
    box: list[tuple[str, int]]
    replaces: list[tuple[int, ...]] = field(default_factory=list)


def _rand_node(rng: Xorshift, opt: FormulaGenOptions, budget: int, scope: list[str],
               fresh: list[int]) -> Node:
    if budget <= 1:
        picks = ["color", "tt", "ff"]
        if scope:
            picks += ["var", "var"]
        kind = rng.choice(picks)
        if kind == "var":
            return Var(rng.choice(scope))
        if kind == "tt":
            return TT()
        if kind == "ff":
            return FF()
        c, i = rng.choice(opt.colors)
        return Color(c, i)
    picks = ["dia", "dia", "fix", "fix", "leaf"]
    if budget >= 3:
        picks += ["and", "or"]
    if opt.box:
        picks.append("box")
    picks.append("neg")
    if opt.replaces:
        picks.append("repl")
    kind = rng.choice(picks)
    if kind == "leaf":
        return _rand_node(rng, opt, 1, scope, fresh)
    if kind in ("and", "or"):
        lb = rng.randint(1, budget - 2)
        left = _rand_node(rng, opt, lb, scope, fresh)
        right = _rand_node(rng, opt, budget - 1 - lb, scope, fresh)
        return (And if kind == "and" else Or)(left, right)
    if kind == "dia":
        a, i = rng.choice(opt.dia)
        return Diamond(a, i, _rand_node(rng, opt, budget - 1, scope, fresh))
    if kind == "box":
        a, i = rng.choice(opt.box)
        return Box(a, i, _rand_node(rng, opt, budget - 1, scope, fresh))
    if kind == "neg":
        # the subformula sees no outer variables, keeping occurrences positive
        return Neg(_rand_node(rng, opt, budget - 1, [], fresh))
    if kind == "repl":
        m = rng.choice(opt.replaces)
        return Replace(m, _rand_node(rng, opt, budget - 1, scope, fresh))
    name = f"X{fresh[0]}"
    fresh[0] += 1
    cls = Mu if rng.chance(1, 2) else Nu
    return cls(name, _rand_node(rng, opt, budget - 1, scope + [name], fresh))


def rand_formula(rng: Xorshift, sig: Signature, arity: int, size: int) -> Formula:
    """Random well-formed formula of the given arity, at most size nodes."""
    comps = range(arity)
    replaces = [tuple(rng.below(arity) for _ in range(arity)) for _ in range(arity)]
    opt = FormulaGenOptions(
        colors=[(c, i) for c in sig.colors for i in comps],
        dia=[(a, i) for a in sig.actions for i in comps],
        box=[(a, i) for a in sig.actions for i in comps],
        replaces=replaces,
    )
    return Formula(arity, _rand_node(rng, opt, size, [], [0]))


def rand_d_rooted_formula(rng: Xorshift, sig: Signature, d: int, size: int) -> Formula:
    """Random d-rooted formula of arity d + 1: atoms and modalities touch
    only components below d, replacements copy component d somewhere."""
    comps = range(d)
    replaces = [tuple(d if k == j else k for k in range(d + 1)) for j in comps]
    opt = FormulaGenOptions(
        colors=[(c, i) for c in sig.colors for i in comps],
        dia=[(a, i) for a in sig.actions for i in comps],
        box=[(a, i) for a in sig.actions for i in comps],
        replaces=replaces,
    )
    return Formula(d + 1, _rand_node(rng, opt, size, [], [0]))


def rand_lifted_unary_formula(rng: Xorshift, base: Signature, d: int, size: int) -> Formula:
    """Random arity-1 formula over the lifted signature inside the
    invertible fragment: boxes skip reset actions, no replacements."""
    lift_signature(base, d)
    colors = [(f"{c}@{i}", 0) for c in base.colors for i in range(d)]
    dia = [(f"{a}@{i}", 0) for a in base.actions for i in range(d)]
    dia += [(f"{RESET}@{i}", 0) for i in range(d)]
    box = [(f"{a}@{i}", 0) for a in base.actions for i in range(d)]
    opt = FormulaGenOptions(colors=colors, dia=dia, box=box)
    return Formula(1, _rand_node(rng, opt, size, [], [0]))
