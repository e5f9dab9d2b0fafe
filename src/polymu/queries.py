"""Non-universality queries on graphs read as NFAs, plain and lifted.

A graph over a single action a and color f is an NFA whose accepting
states carry f; the query asks for a word length n such that no a^n run
from the root accepts.  The two-letter variant asks for a word over two
actions.  The lifted variants pose the same questions per component on
a graph over a lifted signature, counting only that component's actions
since its last reset; one shared witness must work for all components.

Every positive verdict is replayed against an independent check built
directly on paths (a product construction with per-component progress
counters) before it is returned.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Optional, Union

from .errors import CrossCheckError, GraphFormatError, PolymuError
from .graphs import LabeledGraph, RESET, split_lifted


@dataclass(frozen=True)
class NonUnivVerdict:
    member: bool
    witness: Union[int, str, None]
    exhausted_bound: bool = False

    def as_dict(self) -> dict:
        return {
            "member": self.member,
            "witness": self.witness,
            "exhausted_bound": self.exhausted_bound,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))


def _require_plain(g: LabeledGraph, n_actions: int, what: str) -> None:
    sig = g.signature
    if len(sig.actions) != n_actions or len(sig.colors) != 1:
        raise GraphFormatError(
            f"{what} needs {n_actions} action(s) and one color, got "
            f"{len(sig.actions)} and {len(sig.colors)}"
        )


def _accept_free(g: LabeledGraph, f: str, sub: frozenset) -> bool:
    return not any(g.has_color(v, f) for v in sub)


def _image(g: LabeledGraph, sub: frozenset, a: str) -> frozenset:
    return frozenset(w for v in sub for w in g.succ(v, a))


# ------------------------------------------------------------- base queries


def one_letter_non_universal(g: LabeledGraph) -> NonUnivVerdict:
    """Least n with no accepting state at level n of the subset iteration,
    complete by cycle detection on the level sets."""
    _require_plain(g, 1, "one_letter_non_universal")
    a = g.signature.actions[0]
    f = g.signature.colors[0]
    cur = frozenset({g.root})
    seen = set()
    n = 0
    while True:
        if _accept_free(g, f, cur):
            if reach_by_squaring(g, n) != cur or not _accept_free(g, f, cur):
                raise CrossCheckError(f"level {n} fails the squaring replay")
            return NonUnivVerdict(True, n)
        if cur in seen:
            return NonUnivVerdict(False, None)
        seen.add(cur)
        cur = _image(g, cur, a)
        n += 1


def reach_by_squaring(g: LabeledGraph, n: int) -> frozenset:
    """Image of the root under n steps of the single action, by binary
    decomposition with boolean matrix squaring."""
    if n < 0:
        raise PolymuError("n must be >= 0")
    _require_plain(g, 1, "reach_by_squaring")
    a = g.signature.actions[0]
    index = g.index
    size = len(g.nodes)
    mat = [0] * size
    for v in g.nodes:
        for w in g.succ(v, a):
            mat[index[v]] |= 1 << index[w]

    def mul(x: list[int], y: list[int]) -> list[int]:
        out = [0] * size
        for i in range(size):
            row, bits = 0, x[i]
            while bits:
                j = (bits & -bits).bit_length() - 1
                row |= y[j]
                bits &= bits - 1
            out[i] = row
        return out

    acc = [1 << i for i in range(size)]
    base = mat
    e = n
    while e:
        if e & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        e >>= 1
    row = acc[index[g.root]]
    return frozenset(v for v in g.nodes if row >> index[v] & 1)


def two_letter_non_universal(g: LabeledGraph, len_cap: Optional[int] = None) -> NonUnivVerdict:
    """Lexicographically least shortest word whose subset run avoids all
    accepting states; breadth-first over the subset automaton, complete
    when len_cap is unset."""
    _require_plain(g, 2, "two_letter_non_universal")
    acts = sorted(g.signature.actions)
    f = g.signature.colors[0]
    start = frozenset({g.root})
    seen = {start}
    queue = deque([(start, ())])
    exhausted = False
    while queue:
        cur, word = queue.popleft()
        if _accept_free(g, f, cur):
            replay = frozenset({g.root})
            for x in word:
                replay = _image(g, replay, x)
            if replay != cur or not _accept_free(g, f, replay):
                raise CrossCheckError(f"witness {''.join(word)} fails the replay")
            return NonUnivVerdict(True, "".join(word))
        if len_cap is not None and len(word) >= len_cap:
            exhausted = True
            continue
        for x in acts:
            nxt = _image(g, cur, x)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, word + (x,)))
    return NonUnivVerdict(False, None, exhausted)


# ------------------------------------------------------------ lifted queries


def _lifted_base(g: LabeledGraph, d: int, n_actions: int, what: str):
    base, d2 = split_lifted(g.signature)
    if d2 != d:
        raise GraphFormatError(f"{what}: graph has dimension {d2}, not {d}")
    if len(base.actions) != n_actions or len(base.colors) != 1:
        raise GraphFormatError(
            f"{what} needs a lifted signature over {n_actions} action(s) and one color"
        )
    return base


def _reachable(g: LabeledGraph) -> set:
    out = {g.root}
    todo = [g.root]
    while todo:
        v = todo.pop()
        for a in g.signature.actions:
            for w in g.succ(v, a):
                if w not in out:
                    out.add(w)
                    todo.append(w)
    return out


class _ComponentView:
    """Component i of a lifted graph as a subset transition system: edges
    of other components are silent, rst@i edges refresh the start set."""

    def __init__(self, g: LabeledGraph, i: int, counted: list[str]):
        self.g = g
        skip = {f"{x}@{i}" for x in counted}
        reset = f"{RESET}@{i}"
        self.eps: dict[str, list[str]] = {v: [] for v in g.nodes}
        for (u, act, w) in g.edges:
            if act not in skip and act != reset:
                self.eps[u].append(w)
        reach = _reachable(g)
        starts = {g.root}
        starts.update(w for (u, act, w) in g.edges if act == reset and u in reach)
        self.start = self.closure(frozenset(starts))

    def closure(self, sub: frozenset) -> frozenset:
        out = set(sub)
        todo = list(sub)
        while todo:
            v = todo.pop()
            for w in self.eps[v]:
                if w not in out:
                    out.add(w)
                    todo.append(w)
        return frozenset(out)

    def step_action(self, sub: frozenset, lifted_action: str) -> frozenset:
        return self.closure(frozenset(
            w for v in sub for w in self.g.succ(v, lifted_action)
        ))


def one_lifted_non_universal(g: LabeledGraph, d: int,
                             step_budget: Optional[int] = None) -> NonUnivVerdict:
    """Least n such that every component's level-n subset avoids its own
    accepting color; synchronized iteration over the subset tuple with
    cycle detection."""
    base = _lifted_base(g, d, 1, "one_lifted_non_universal")
    a = base.actions[0]
    f = base.colors[0]
    views = [_ComponentView(g, i, [a]) for i in range(d)]
    cur = tuple(view.start for view in views)
    seen = set()
    n = 0
    while True:
        if all(_accept_free(g, f"{f}@{i}", cur[i]) for i in range(d)):
            if not verify_one_lifted_witness(g, d, n):
                raise CrossCheckError(f"lifted level {n} fails the path replay")
            return NonUnivVerdict(True, n)
        if cur in seen:
            return NonUnivVerdict(False, None)
        if step_budget is not None and n >= step_budget:
            return NonUnivVerdict(False, None, True)
        seen.add(cur)
        cur = tuple(
            view.step_action(cur[i], f"{a}@{i}") for i, view in enumerate(views)
        )
        n += 1


def two_lifted_non_universal(g: LabeledGraph, d: int,
                             len_cap: Optional[int] = None) -> NonUnivVerdict:
    """Shortest word (lexicographically least among those) under which
    every component's subset avoids its accepting color."""
    base = _lifted_base(g, d, 2, "two_lifted_non_universal")
    acts = sorted(base.actions)
    f = base.colors[0]
    views = [_ComponentView(g, i, acts) for i in range(d)]
    start = tuple(view.start for view in views)
    seen = {start}
    queue = deque([(start, ())])
    exhausted = False
    while queue:
        cur, word = queue.popleft()
        if all(_accept_free(g, f"{f}@{i}", cur[i]) for i in range(d)):
            if not verify_two_lifted_witness(g, d, word):
                raise CrossCheckError(f"witness {''.join(word)} fails the path replay")
            return NonUnivVerdict(True, "".join(word))
        if len_cap is not None and len(word) >= len_cap:
            exhausted = True
            continue
        for x in acts:
            nxt = tuple(
                view.step_action(cur[i], f"{x}@{i}") for i, view in enumerate(views)
            )
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, word + (x,)))
    return NonUnivVerdict(False, None, exhausted)


# -------------------------------------------------------- witness replaying


def _edge_kind(act: str) -> tuple[str, int]:
    name, _, comp = act.rpartition("@")
    return name, int(comp)


def _out_edges(g: LabeledGraph) -> dict[str, list[tuple[str, str]]]:
    out: dict[str, list[tuple[str, str]]] = {v: [] for v in g.nodes}
    for (u, act, w) in g.edges:
        out[u].append((act, w))
    return out


def verify_one_lifted_witness(g: LabeledGraph, d: int, n: int) -> bool:
    """Path-product check of a level witness: walk the graph tracking each
    component's action count since its last reset (saturating above n);
    wherever a count equals n the component's accepting color must be
    absent."""
    base = _lifted_base(g, d, 1, "verify_one_lifted_witness")
    f = base.colors[0]
    a = base.actions[0]
    out = _out_edges(g)
    start = (g.root, (0,) * d)
    seen = {start}
    todo = [start]
    while todo:
        v, counts = todo.pop()
        for i in range(d):
            if counts[i] == n and g.has_color(v, f"{f}@{i}"):
                return False
        for (act, w) in out[v]:
            name, i = _edge_kind(act)
            cs = list(counts)
            if name == RESET:
                cs[i] = 0
            elif name == a:
                cs[i] = min(cs[i] + 1, n + 1)
            state = (w, tuple(cs))
            if state not in seen:
                seen.add(state)
                todo.append(state)
    return True


def verify_two_lifted_witness(g: LabeledGraph, d: int, word) -> bool:
    """Path-product check of a word witness: track how far each
    component's counted subsequence since its last reset has progressed
    through the word, with a dead marker once it deviates; full progress
    forbids the component's accepting color."""
    base = _lifted_base(g, d, 2, "verify_two_lifted_witness")
    f = base.colors[0]
    letters = tuple(word)
    full = len(letters)
    dead = -1
    out = _out_edges(g)
    start = (g.root, (0,) * d)
    seen = {start}
    todo = [start]
    while todo:
        v, prog = todo.pop()
        for i in range(d):
            if prog[i] == full and g.has_color(v, f"{f}@{i}"):
                return False
        for (act, w) in out[v]:
            name, i = _edge_kind(act)
            ps = list(prog)
            if name == RESET:
                ps[i] = 0
            elif name in base.actions:
                if ps[i] != dead and ps[i] < full and letters[ps[i]] == name:
                    ps[i] += 1
                else:
                    ps[i] = dead
            state = (w, tuple(ps))
            if state not in seen:
                seen.add(state)
                todo.append(state)
    return True
