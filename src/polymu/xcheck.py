"""Randomized and exhaustive cross-validation suites.

Each check pits two implementations of the same question against each
other: evaluator vs automaton, abstraction vs replay, logic vs relation.
Corpora come from seeded substreams, so a fixed RunConfig reproduces the
report byte for byte.  Details carry counts only, never timings.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .automata import (
    EXISTS,
    acceptance_game,
    acceptance_winners,
    accepts,
    find_pumping_pair,
    formula_to_apt,
    solve_parity,
)
from .bisim import (
    bisimilar,
    detect_power,
    factor,
    factors,
    largest_d_bisimulation,
    power_conditions,
    power_formula_verdicts,
    quotient,
)
from .errors import PolymuError
from .graphs import FiniteTree, LabeledGraph, Signature, power, product
from .logic import Formula, gen_bisim_formula, monofy, parse_formula, polyfy, print_formula
from .pumping import DEFAULT_WORD_SIG, check_luni, gen_rword_tree, is_isomorphic, is_rword, pump
from .queries import (
    one_letter_non_universal,
    one_lifted_non_universal,
    reach_by_squaring,
    two_letter_non_universal,
    two_lifted_non_universal,
)
from .randgen import (
    Xorshift,
    rand_base_signature,
    rand_d_rooted_formula,
    rand_formula,
    rand_graph,
    rand_lifted_graph,
    rand_lifted_unary_formula,
)
from .semantics import evaluate, models

# the size budget of the random d-rooted and lifted formulas, and the
# largest dimension d the suites draw
_MAX_FORMULA_SIZE = 12
_MAX_D = 2


@dataclass(frozen=True)
class RunConfig:
    seed: int = 7
    iterations: Optional[int] = None  # None: each check uses its default count
    max_nodes: int = 5

    def __post_init__(self):
        if not 0 <= self.seed < 1 << 64:
            raise PolymuError("seed must be a 64-bit unsigned integer")
        if self.iterations is not None and self.iterations <= 0:
            raise PolymuError("iterations must be positive")
        if self.max_nodes <= 0:
            raise PolymuError("max_nodes must be positive")

    def count(self, default: int) -> int:
        """Sample count for a random corpus; iterations overrides the default."""
        return default if self.iterations is None else self.iterations


@dataclass(frozen=True)
class CheckResult:
    index: int
    name: str
    ok: bool
    detail: str


def _rng(cfg: RunConfig, check: int, case: int) -> Xorshift:
    return Xorshift.substream(cfg.seed, (check << 32) + case)


def _round_trip_corpus(cfg: RunConfig) -> Iterator[tuple[LabeledGraph, int, Formula]]:
    # shared by check 1 and check 12 so invariance runs on the same cases
    for t in range(cfg.count(200)):
        rng = _rng(cfg, 1, t)
        sig = rand_base_signature(rng)
        g = rand_graph(rng, sig, cfg.max_nodes)
        d = rng.randint(1, _MAX_D)
        phi = rand_d_rooted_formula(rng, sig, d, _MAX_FORMULA_SIZE)
        yield g, d, phi


def check_power_round_trip(cfg: RunConfig) -> tuple[bool, str]:
    total = agree = sat = 0
    for g, d, phi in _round_trip_corpus(cfg):
        total += 1
        left = models(g, phi, d + 1)
        right = models(power(g, d), monofy(phi, d), 1)
        agree += left == right
        sat += left
    return agree == total, f"{agree}/{total} agree, {sat} satisfied"


def check_transform_inverses(cfg: RunConfig) -> tuple[bool, str]:
    n = cfg.count(200)
    bad = 0
    for t in range(n):
        rng = _rng(cfg, 2, t)
        sig = rand_base_signature(rng)
        d = rng.randint(1, _MAX_D)
        phi = rand_d_rooted_formula(rng, sig, d, _MAX_FORMULA_SIZE)
        if print_formula(polyfy(monofy(phi, d), d)) != print_formula(phi):
            bad += 1
        psi = rand_lifted_unary_formula(rng, sig, d, _MAX_FORMULA_SIZE)
        if print_formula(monofy(polyfy(psi, d), d)) != print_formula(psi):
            bad += 1
    return bad == 0, f"{2 * n - bad}/{2 * n} exact"


def _toggle_root_color(g: LabeledGraph) -> LabeledGraph:
    """Copy of g with the first color flipped on the root; never bisimilar to g."""
    colors = dict(g._colors)
    colors[g.signature.colors[0]] ^= 1 << g.index[g.root]
    return LabeledGraph._trusted(g.signature, g.nodes, g.root, g._moves, colors)


def check_power_detection(cfg: RunConfig) -> tuple[bool, str]:
    n_rand = cfg.count(100)
    built = max(1, n_rand // 2)
    bad: list[str] = []
    positive = 0
    for t in range(n_rand):
        rng = _rng(cfg, 3, t)
        sig = rand_base_signature(rng)
        d = rng.randint(1, _MAX_D)
        g = rand_lifted_graph(rng, sig, d, max_nodes=9)
        a = detect_power(g, method="dbisim")
        b = detect_power(g, method="logic")
        if a != b:
            bad.append(f"random {t}: dbisim={a} logic={b}")
        positive += a
    mixed_want = {"persistent": True, "reset": True, "power_rooted": False}
    for t in range(built):
        rng = _rng(cfg, 3, n_rand + t)
        sig = rand_base_signature(rng)
        if t % 2 == 0:
            g = power(rand_graph(rng, sig, 4), rng.randint(1, 3))
            if not detect_power(g, method="both"):
                bad.append(f"power {t} rejected")
        else:
            base = rand_graph(rng, sig, 4)
            h = product([base, _toggle_root_color(base)])
            if power_conditions(h) != mixed_want or power_formula_verdicts(h) != mixed_want:
                bad.append(f"product {t} fails more than the root condition")
    ok = not bad
    head = f"{n_rand} random ({positive} powers) + {built} built"
    return ok, head + ("" if ok else "; " + "; ".join(bad[:3]))


def check_factorization(cfg: RunConfig) -> tuple[bool, str]:
    n_pow = cfg.count(100)
    n_prod = max(1, n_pow // 2)
    total = bad = 0
    for t in range(n_pow):
        rng = _rng(cfg, 4, t)
        sig = rand_base_signature(rng)
        g = rand_graph(rng, sig, 4)
        d = rng.randint(1, 3)
        pg = power(g, d)
        for i in range(d):
            total += 1
            bad += not bisimilar(factor(pg, i), g)
    for t in range(n_prod):
        rng = _rng(cfg, 4, n_pow + t)
        sig = rand_base_signature(rng)
        d = rng.randint(2, 3)
        h = product([rand_graph(rng, sig, 3) for _ in range(d)])
        total += 1
        bad += not bisimilar(product(factors(h)), h)
    return bad == 0, f"{total - bad}/{total} bisimilar"


def check_bisim_formula(cfg: RunConfig) -> tuple[bool, str]:
    n = cfg.count(50)
    bad = 0
    for t in range(n):
        rng = _rng(cfg, 5, t)
        sig = rand_base_signature(rng)
        d = rng.randint(1, _MAX_D)
        g = rand_lifted_graph(rng, sig, d, max_nodes=9)
        fam = largest_d_bisimulation(g)
        for i in range(d):
            for j in range(d):
                denot = set(evaluate(g, gen_bisim_formula(i, j, sig, d), 2).sorted())
                bad += denot != set(fam.rel(i, j))
    return bad == 0, f"{n} graphs, {bad} relation mismatches"


def _enum_one_letter_nfas() -> Iterator[LabeledGraph]:
    """Every 1-letter NFA with <= 3 states, plus all 4-state one-successor ones.

    The full 4-state space (2^16 edge sets) is out of reach; restricting the
    4-state slice to one successor per state keeps the sweep in the thousands.
    """
    sig = Signature(("a",), ("f",))
    for n in (1, 2, 3):
        ids = tuple(str(i) for i in range(n))
        pairs = [(u, v) for u in ids for v in ids]
        for emask in range(1 << len(pairs)):
            edges = tuple((u, "a", v) for b, (u, v) in enumerate(pairs) if emask >> b & 1)
            for amask in range(1 << n):
                labels = {ids[i]: ("f",) for i in range(n) if amask >> i & 1}
                yield LabeledGraph(sig, ids, "0", edges, labels)
    ids = tuple(str(i) for i in range(4))
    for succ in itertools.product(range(4), repeat=4):
        edges = tuple((ids[u], "a", ids[v]) for u, v in enumerate(succ))
        for amask in range(1 << 4):
            labels = {ids[i]: ("f",) for i in range(4) if amask >> i & 1}
            yield LabeledGraph(sig, ids, "0", edges, labels)


def check_one_letter_lift(cfg: RunConfig) -> tuple[bool, str]:
    # the lifted queries replay their own witnesses on paths and raise
    # CrossCheckError, a failed check, when a replay disagrees
    total = member = bad = 0
    for g in _enum_one_letter_nfas():
        base = one_letter_non_universal(g)
        total += 1
        member += base.member
        for d in (1, 2):
            pg = power(g, d)
            lifted = one_lifted_non_universal(pg, d)
            if lifted.member != base.member or lifted.witness != base.witness:
                bad += 1
    balanced = min(member, total - member) * 10 >= total
    ok = bad == 0 and balanced
    return ok, (
        f"{total} automata ({member} non-universal, {total - member} universal), "
        f"{bad} lift mismatches"
    )


def check_two_letter_lift(cfg: RunConfig) -> tuple[bool, str]:
    n = cfg.count(300)
    sig = Signature(("a", "b"), ("f",))
    member = bad = 0
    for t in range(n):
        rng = _rng(cfg, 7, t)
        # dense colors on odd draws, else universal instances stay rare
        g = rand_graph(rng, sig, 3, color_num=1 + t % 2, color_den=2)
        base = two_letter_non_universal(g)
        member += base.member
        for d in (1, 2):
            pg = power(g, d)
            lifted = two_lifted_non_universal(pg, d)
            if lifted.member != base.member or lifted.witness != base.witness:
                bad += 1
    return bad == 0, f"{n} automata ({member} non-universal), {bad} lift mismatches"


def check_squaring(cfg: RunConfig) -> tuple[bool, str]:
    cases = cfg.count(100)
    sig = Signature(("a",), ("f",))
    bad = 0
    for t in range(cases):
        rng = _rng(cfg, 8, t)
        g = rand_graph(rng, sig, 6)
        n = rng.below(65)
        level = {g.root}
        for _ in range(n):
            level = {w for u, _, w in g.edges if u in level}
        bad += reach_by_squaring(g, n) != level
    return bad == 0, f"{cases - bad}/{cases} levels agree"


def check_apt_vs_evaluator(cfg: RunConfig) -> tuple[bool, str]:
    n = cfg.count(500)
    bad = sat = 0
    for t in range(n):
        rng = _rng(cfg, 9, t)
        sig = rand_base_signature(rng)
        g = rand_graph(rng, sig, cfg.max_nodes)
        psi = rand_formula(rng, sig, 1, 10)
        b = models(g, psi, 1)
        sat += b
        # solve_parity, Zielonka on the built game, is the oracle for
        # acceptance_winners on the product
        apt = formula_to_apt(psi, sig)
        game = acceptance_game(apt, g)
        winner = acceptance_winners(apt, g)
        bad += winner != solve_parity(game) or (winner[game.initial] == EXISTS) != b
    return bad == 0, f"{n - bad}/{n} agree, {sat} satisfied"


# reach-style formulas keep the acceptance rate of random trees near one;
# automata stay at <= 6 states so the set-repetition bound stays <= 2^6 + 1
_PUMP_POOL = (
    "mu X. f | <a>X",
    "mu X. g | <a>X",
    "nu X. <a>X | f",
    "mu X. f | <a><a>X",
    "mu X. f | g | <a>X",
)


def _rand_decorated_chain(rng: Xorshift, sig: Signature, spine: int) -> FiniteTree:
    nodes: list[str] = []
    edges: list[tuple[str, str, str]] = []
    labels: dict[str, tuple[str, ...]] = {}

    def add(v: str):
        nodes.append(v)
        cols = tuple(c for c in sig.colors if rng.chance(1, 2))
        if cols:
            labels[v] = cols

    for k in range(spine):
        add(f"s{k}")
        if k:
            edges.append((f"s{k - 1}", "a", f"s{k}"))
    for k in range(spine - 1):
        if rng.chance(1, 4):
            add(f"s{k}.b")
            edges.append((f"s{k}", "a", f"s{k}.b"))
    return FiniteTree(sig, nodes, "s0", edges, labels)


def check_pumping(cfg: RunConfig) -> tuple[bool, str]:
    want = cfg.count(50)
    sig = Signature(("a",), ("f", "g"))
    pool = [parse_formula(s, sig, 1) for s in _PUMP_POOL]
    bad: list[str] = []
    done = 0
    draws = 0
    while done < want and draws < 40 * want:
        rng = _rng(cfg, 10, draws)
        draws += 1
        apt = formula_to_apt(rng.choice(pool), sig)
        bound = (1 << len(apt.states)) + 1
        spine = bound + 1 + rng.below(3)
        tree = _rand_decorated_chain(rng, sig, spine)
        if not accepts(apt, tree):
            continue
        done += 1
        path = [f"s{k}" for k in range(spine)]
        i, j = find_pumping_pair(apt, tree, path)
        for k in (0, 2, 3):
            if not accepts(apt, pump(tree, path, i, j, k)):
                bad.append(f"draw {draws - 1} k={k} loses acceptance")
        if not is_isomorphic(pump(tree, path, i, j, 1), tree):
            bad.append(f"draw {draws - 1} k=1 not isomorphic")
    if done < want:
        bad.append(f"only {done}/{want} accepted trees in {draws} draws")
    ok = not bad
    return ok, f"{done} trees pumped" + ("" if ok else "; " + "; ".join(bad[:3]))


def check_word_trees(cfg: RunConfig) -> tuple[bool, str]:
    n = cfg.count(50)
    phi = parse_formula("mu X. f | <a>X | <b>X", DEFAULT_WORD_SIG, 1)
    bad = 0
    for t in range(n):
        rng = _rng(cfg, 11, t)
        word = [
            ((("f",) if rng.chance(1, 3) else ()), rng.choice(("a", "b")))
            for _ in range(rng.randint(1, 8))
        ]
        tree = gen_rword_tree(word, rng.randint(1, 3), rng.randint(0, len(word)))
        # a tree that is not an r-word tree counts against the generator
        agree = models(tree, phi, 1) == (check_luni(tree) is not None)
        bad += not (agree and is_rword(tree))
    return bad == 0, f"{n - bad}/{n} agree"


def check_bisim_invariance(cfg: RunConfig) -> tuple[bool, str]:
    total = bad = 0
    for g, d, phi in _round_trip_corpus(cfg):
        total += 1
        bad += models(g, phi, d + 1) != models(quotient(g), phi, d + 1)
    return bad == 0, f"{total - bad}/{total} agree"


CheckFn = Callable[[RunConfig], tuple[bool, str]]

CHECKS: tuple[tuple[int, str, CheckFn], ...] = (
    (1, "power round-trip", check_power_round_trip),
    (2, "transform inverses", check_transform_inverses),
    (3, "power detection methods", check_power_detection),
    (4, "factorization", check_factorization),
    (5, "bisim formula vs relation", check_bisim_formula),
    (6, "one-letter lift", check_one_letter_lift),
    (7, "two-letter lift", check_two_letter_lift),
    (8, "squaring vs bfs", check_squaring),
    (9, "automaton vs evaluator", check_apt_vs_evaluator),
    (10, "pumping", check_pumping),
    (11, "word-tree regularity", check_word_trees),
    (12, "bisim invariance", check_bisim_invariance),
)


def run_check(index: int, cfg: RunConfig) -> CheckResult:
    for idx, name, fn in CHECKS:
        if idx == index:
            try:
                ok, detail = fn(cfg)
            except Exception as e:  # a crashed check is a failed check
                ok, detail = False, f"error: {e}"
            return CheckResult(idx, name, ok, detail)
    raise PolymuError(f"no check numbered {index}")


def run_all(cfg: RunConfig) -> list[CheckResult]:
    return [run_check(idx, cfg) for idx, _, _ in CHECKS]


def format_report(cfg: RunConfig, results: list[CheckResult]) -> str:
    iters = "default" if cfg.iterations is None else str(cfg.iterations)
    lines = [f"xcheck seed={cfg.seed} iterations={iters}"]
    for r in results:
        mark = "ok  " if r.ok else "FAIL"
        lines.append(f"[{r.index:2}] {mark} {r.name}: {r.detail}")
    lines.append(f"{len(results)} checks, {sum(not r.ok for r in results)} failures")
    return "\n".join(lines)
