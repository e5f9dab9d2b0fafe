"""Seeded inputs for the benchmark, independent of the library.

Inputs come from this file's own copy of the xorshift64* generator that
the README documents, so a change to ``polymu.randgen`` cannot change
what the benchmark feeds the program.  Graphs are plain ``Graph`` values
written as canonical JSON in the library's graph format.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MULT = 0x2545F4914F6CDD1D
RESET = "rst"


class Xorshift:
    """xorshift64* with the README's substream rule."""

    def __init__(self, seed: int):
        self.state = seed & MASK64 or GOLDEN

    @classmethod
    def substream(cls, seed: int, k: int) -> "Xorshift":
        return cls((seed + (k + 1) * GOLDEN) & MASK64)

    def next_u64(self) -> int:
        s = self.state
        s ^= s >> 12
        s ^= (s << 25) & MASK64
        s ^= s >> 27
        self.state = s
        return (s * MULT) & MASK64

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def chance(self, num: int, den: int) -> bool:
        return self.below(den) < num

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def sample(self, seq, k: int) -> list:
        """k distinct elements of seq, by partial Fisher-Yates."""
        pool = list(seq)
        for i in range(k):
            j = i + self.below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


def stream(seed: int, tag: int, case: int) -> Xorshift:
    """Substream for case `case` of input family `tag`."""
    return Xorshift.substream(seed, (tag << 32) + case)


@dataclass
class Graph:
    actions: tuple[str, ...]
    colors: tuple[str, ...]
    nodes: list[str]
    root: str
    edges: set[tuple[str, str, str]]
    labels: dict[str, frozenset[str]] = field(default_factory=dict)

    def label(self, v: str) -> frozenset[str]:
        return self.labels.get(v, frozenset())

    def to_json(self) -> str:
        obj = {
            "actions": list(self.actions),
            "colors": list(self.colors),
            "nodes": [{"id": v, "colors": sorted(self.label(v))} for v in sorted(self.nodes)],
            "root": self.root,
            "edges": sorted(list(e) for e in self.edges),
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Graph":
        obj = json.loads(text)
        return cls(
            tuple(obj["actions"]),
            tuple(obj["colors"]),
            [n["id"] for n in obj["nodes"]],
            obj["root"],
            {tuple(e) for e in obj["edges"]},
            {n["id"]: frozenset(n["colors"]) for n in obj["nodes"] if n["colors"]},
        )

    def canonical(self):
        """Order-free form for comparing two graphs exactly."""
        return (
            frozenset(self.actions),
            frozenset(self.colors),
            frozenset(self.nodes),
            self.root,
            frozenset(self.edges),
            frozenset((v, self.label(v)) for v in self.nodes),
        )


def _ids(n: int) -> list[str]:
    return [str(i) for i in range(n)]


# ------------------------------------------------------------ modelcheck

MC_ACTIONS = ("a", "b")
MC_COLORS = ("f", "g")
MC_SIZES = (64, 128, 256, 512, 1024, 2048)


def _half_g(rng: Xorshift, nodes: list[str], labels: dict) -> None:
    for v in nodes:
        if rng.chance(1, 2):
            labels[v] = labels.get(v, frozenset()) | {"g"}


def chain(rng: Xorshift, n: int) -> Graph:
    """a-path 0 -> ... -> n-1 with f on the far end: diameter n."""
    nodes = _ids(n)
    labels = {nodes[-1]: frozenset({"f"})}
    _half_g(rng, nodes, labels)
    edges = {(nodes[i], "a", nodes[i + 1]) for i in range(n - 1)}
    return Graph(MC_ACTIONS, MC_COLORS, nodes, "0", edges, labels)


def ring(rng: Xorshift, n: int) -> Graph:
    """a-cycle with n/8 random b-chords and f on one node."""
    nodes = _ids(n)
    edges = {(nodes[i], "a", nodes[(i + 1) % n]) for i in range(n)}
    while len(edges) < n + n // 8:
        edges.add((nodes[rng.below(n)], "b", nodes[rng.below(n)]))
    labels = {nodes[n // 4 + rng.below(n // 2)]: frozenset({"f"})}
    _half_g(rng, nodes, labels)
    return Graph(MC_ACTIONS, MC_COLORS, nodes, "0", edges, labels)


def sparse_random(rng: Xorshift, n: int) -> Graph:
    """Two random out-edges per node, actions a or b, f on two nodes."""
    nodes = _ids(n)
    edges = set()
    for u in nodes:
        out: set[tuple[str, str, str]] = set()
        while len(out) < 2:
            out.add((u, rng.choice(MC_ACTIONS), nodes[rng.below(n)]))
        edges |= out
    labels = {}
    for v in rng.sample(nodes[1:], 2):
        labels[v] = frozenset({"f"})
    _half_g(rng, nodes, labels)
    return Graph(MC_ACTIONS, MC_COLORS, nodes, "0", edges, labels)


MC_FAMILIES = (("chain", chain), ("ring", ring), ("random", sparse_random))

# name -> (formula, kind); kind "reach"/"safety" have a BFS answer for color f
MC_POOL = (
    ("reach", "mu X. f | <a>X | <b>X", "reach"),
    ("safety", "nu X. ~f & [a]X & [b]X", "safety"),
    ("buchi", "nu X. mu Y. (f & (<a>X | <b>X)) | <a>Y | <b>Y", None),
    ("cobuchi", "mu X. nu Y. (g & (<a>Y | <b>Y)) | <a>X | <b>X", None),
    ("nested", "nu X. (mu Y. f | <a>Y | <b>Y) & [a]X & [b]X", None),
    ("until", "mu X. f | g & (<a>X | <b>X)", None),
)
MC_RANDOM_PER_FAMILY = 8
MC_RANDOM_SIZE = 64


def rand_formula(rng: Xorshift, size: int) -> str:
    """Closed arity-1 formula over MC_ACTIONS/MC_COLORS, negation on atoms
    only, at most two fixpoint binders, printed fully parenthesised."""
    binders = [0]

    def go(budget: int, scope: list[str]) -> str:
        if budget <= 1:
            leaves = ["f", "g", "~f", "~g", "tt"] + scope
            return rng.choice(leaves)
        k = rng.below(7 if binders[0] < 2 else 5)
        if k == 0:
            return f"({go(budget // 2, scope)} & {go(budget - budget // 2 - 1, scope)})"
        if k == 1:
            return f"({go(budget // 2, scope)} | {go(budget - budget // 2 - 1, scope)})"
        if k in (2, 3, 4):
            act = rng.choice(MC_ACTIONS)
            mod = f"<{act}>" if k != 4 else f"[{act}]"
            return mod + go(budget - 1, scope)
        binders[0] += 1
        var = f"X{binders[0]}"
        op = "mu" if k == 5 else "nu"
        return f"({op} {var}. {go(budget - 1, scope + [var])})"

    return go(size, [])


def modelcheck_inputs(seed: int) -> list[tuple[str, Graph, list[tuple[str, str, str | None]]]]:
    """(graph name, graph, [(formula name, text, kind)]) for every input graph."""
    out = []
    for tag, (fam, make) in enumerate(MC_FAMILIES):
        for case, n in enumerate(MC_SIZES):
            g = make(stream(seed, tag, case), n)
            formulas = [(name, text, kind) for name, text, kind in MC_POOL]
            if n == MC_RANDOM_SIZE:
                rng = stream(seed, 10 + tag, 0)
                formulas += [
                    (f"rand{k}", rand_formula(rng, 10), None)
                    for k in range(MC_RANDOM_PER_FAMILY)
                ]
            out.append((f"{fam}-{n}", g, formulas))
    return out


# ------------------------------------------------------------ powers

# (base nodes, d, actions, colors); one pipeline per entry.  Shapes are
# fixed and only edge and color placement is seeded, and every shape has
# several pipelines, so the work per pass varies little with the seed.
# Bases above 6 nodes (3 for cubes) get one action: with two, detect-power
# alone takes several seconds.
PIPELINES_PER_SHAPE = 4
POWER_BASES = tuple(
    (n, d, ("a", "b") if n <= small else ("a",), ("f", "g") if k % 2 else ("f",))
    for d, sizes, small in ((2, range(3, 10), 6), (3, (3, 4), 3))
    for n in sizes
    for k in range(PIPELINES_PER_SHAPE)
)
# quotient bases come from this fixed stream, not from the workload seed,
# so every seed meets the same quotient inputs (see README)
QUOTIENT_SEED = 0x51
QUOTIENT_BASES = ((4, 2, ("a", "b"), ("f",)), (6, 2, ("a",), ("f", "g")))
PRODUCT_SIZES = (3, 4, 5, 6, 4, 5)
LIFTED_SIZES = (6, 7, 8, 9) * 15
LIFTED_D = 2


def base_graph(rng: Xorshift, n: int, actions, colors) -> Graph:
    """Exactly n*n*|A|/3 random edges and n*|C|/3 color marks."""
    nodes = _ids(n)
    slots = [(u, a, v) for u in nodes for a in actions for v in nodes]
    edges = set(rng.sample(slots, len(slots) // 3))
    marks = [(v, c) for v in nodes for c in colors]
    labels: dict[str, frozenset[str]] = {}
    for v, c in rng.sample(marks, max(1, len(marks) // 3)):
        labels[v] = labels.get(v, frozenset()) | {c}
    return Graph(tuple(actions), tuple(colors), nodes, "0", edges, labels)


def toggle_root_color(g: Graph) -> Graph:
    """Copy of g with its first color flipped on the root; never bisimilar to g."""
    labels = dict(g.labels)
    labels[g.root] = g.label(g.root) ^ {g.colors[0]}
    return Graph(g.actions, g.colors, list(g.nodes), g.root, set(g.edges), labels)


def lift_names(actions, colors, d: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    acts = [f"{x}@{i}" for x in actions for i in range(d)] + [f"{RESET}@{i}" for i in range(d)]
    cols = [f"{c}@{i}" for c in colors for i in range(d)]
    return tuple(acts), tuple(cols)


def lifted_graph(rng: Xorshift, base_actions, base_colors, d: int, n: int) -> Graph:
    """Random lifted graph: a spanning tree of non-reset edges keeps every
    node reachable from the root; then exactly n*|A|/2 more random edges
    and n*|C|/3 color marks."""
    actions, colors = lift_names(base_actions, base_colors, d)
    nodes = _ids(n)
    edges = set()
    for v in range(1, n):
        a = f"{rng.choice(base_actions)}@{rng.below(d)}"
        edges.add((nodes[rng.below(v)], a, nodes[v]))
    slots = [(u, a, v) for u in nodes for a in actions for v in nodes if (u, a, v) not in edges]
    edges.update(rng.sample(slots, n * len(actions) // 2))
    labels: dict[str, frozenset[str]] = {}
    for v, c in rng.sample([(v, c) for v in nodes for c in colors], n * len(colors) // 3):
        labels[v] = labels.get(v, frozenset()) | {c}
    return Graph(actions, colors, nodes, "0", edges, labels)


@dataclass
class PowersInputs:
    pipelines: list[tuple[str, Graph, int, bool]]  # (name, base, d, run quotient)
    products: list[tuple[str, Graph]]  # (name, base); the partner is its toggled copy
    lifted: list[tuple[str, Graph]]


def powers_inputs(seed: int) -> PowersInputs:
    pipelines = []
    for case, (n, d, acts, cols) in enumerate(POWER_BASES):
        g = base_graph(stream(seed, 20, case), n, acts, cols)
        pipelines.append((f"b{case:02d}-n{n}-d{d}", g, d, False))
    for case, (n, d, acts, cols) in enumerate(QUOTIENT_BASES):
        g = base_graph(stream(QUOTIENT_SEED, 21, case), n, acts, cols)
        pipelines.append((f"q{case}-n{n}-d{d}", g, d, True))
    products = []
    for case, n in enumerate(PRODUCT_SIZES):
        acts, cols = (("a",), ("f", "g")) if case % 2 else (("a", "b"), ("f",))
        products.append((f"p{case}-n{n}", base_graph(stream(seed, 22, case), n, acts, cols)))
    lifted = []
    for case, n in enumerate(LIFTED_SIZES):
        acts, cols = (("a",), ("f",)) if case % 2 else (("a", "b"), ("f", "g"))
        lifted.append((f"r{case:02d}-n{n}", lifted_graph(stream(seed, 23, case), acts, cols, LIFTED_D, n)))
    return PowersInputs(pipelines, products, lifted)


# ------------------------------------------------------------ files


def write_files(workdir: Path, files: dict[str, str]) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")


def corpus_hash(files: dict[str, str], specs: list[tuple[str, ...]]) -> str:
    """sha256 over the input files and the op list (ids and arguments)."""
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    for spec in specs:
        h.update("\0".join(spec).encode() + b"\1")
    return h.hexdigest()
