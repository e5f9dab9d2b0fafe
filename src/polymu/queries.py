"""Non-universality queries on graphs read as NFAs, plain and lifted.

A graph over a single action a and color f is an NFA whose accepting
states carry f; the query asks for a word length n such that no a^n run
from the root accepts.  The two-letter variant asks for a word over two
actions.  The lifted variants pose the same questions per component on
a graph over a lifted signature, whose d components they read off it,
counting only that component's actions since its last reset; one shared
witness must work for all components.

All four queries are one breadth-first subset search, _least_word,
whose steps are graphs._image and graphs._closure over the bit rows of
graphs._succ_rows.
Every positive verdict is replayed by an independent check before it is
returned: iterated squaring of the step matrix, carrying only the
root's row (plain one-letter), a replay of the word over position sets
through graphs._succ_lists (plain two-letter), or, per component, a
walk over paths with a progress counter, over graphs._tagged_succ_lists
(lifted).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .errors import CrossCheckError, GraphFormatError, PolymuError
from .graphs import (
    LabeledGraph,
    RESET,
    Signature,
    _closure,
    _image,
    _succ_lists,
    _succ_rows,
    _tagged_succ_lists,
    split_lifted,
    unlift,
)


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


def _lifted_base(g: LabeledGraph, n_actions: int, what: str) -> tuple[Signature, int]:
    """The base signature and dimension d of g's lifted signature."""
    base, d = split_lifted(g.signature)
    if len(base.actions) != n_actions or len(base.colors) != 1:
        raise GraphFormatError(
            f"{what} needs a lifted signature over {n_actions} action(s) and one color"
        )
    return base, d


def _least_word(g: LabeledGraph, base: Signature, d: int, cap: Optional[int]):
    """Shortest word, lexicographically least among those, after which
    every component's subset avoids its accepting nodes: breadth-first
    over tuples of node bitmasks, letters in sorted order, words of
    length at most cap (None: no cap).

    A plain graph (base is its own signature) is one component counting
    every action.  Component i < d of a lifted graph counts x@i, is
    closed under the other components' edges, and starts from the root
    and each rst@i target of a node reachable from the root.

    Explored states keep a parent pointer, not their word, so the search
    is linear in the number of states.

    Returns (word, subsets, exhausted); word is None when there is no
    such word, and exhausted says whether the cap cut the search short.
    """
    lifted = base != g.signature
    root = 1 << g.index[g.root]
    if not lifted:
        step = [{x: _succ_rows(g, [x]) for x in base.actions}]
        silent = [[0] * len(g.nodes)]
        start = [root]
    else:
        # own[i]: component i's counted action per letter, then rst@i
        own = [[f"{x}@{i}" for x in (*base.actions, RESET)] for i in range(d)]
        step = [{x: _succ_rows(g, [a]) for x, a in zip(base.actions, acts)} for acts in own]
        silent = [_succ_rows(g, [a for j, acts in enumerate(own) if j != i for a in acts])
                  for i in range(d)]
        reach = _closure(_succ_rows(g, g.signature.actions), root)
        start = [root | _image(_succ_rows(g, acts[-1:]), reach) for acts in own]
    f = base.colors[0]
    colors = [f"{f}@{i}" for i in range(d)] if lifted else [f]
    accept = [g._colors[c] for c in colors]
    first = tuple(map(_closure, silent, start))
    seen = {first}
    # the trail in order of discovery is the breadth-first queue
    trail = [(first, -1, None, 0)]
    exhausted = False
    for e, (cur, _, _, depth) in enumerate(trail):
        if not any(sub & acc for sub, acc in zip(cur, accept)):
            word = []
            while e > 0:
                _, e, x, _ = trail[e]
                word.append(x)
            return tuple(reversed(word)), cur, False
        if cap is not None and depth >= cap:
            exhausted = True
            continue
        for x in sorted(base.actions):
            nxt = tuple(
                _closure(sil, _image(st[x], sub)) for sub, st, sil in zip(cur, step, silent)
            )
            if nxt not in seen:
                seen.add(nxt)
                trail.append((nxt, e, x, depth + 1))
    return None, None, exhausted


def _replayed(g: LabeledGraph, level: frozenset, sub: int) -> bool:
    """A plain graph's replayed level is the searched subset sub, and it
    avoids the accepting color."""
    same = level == frozenset(v for k, v in enumerate(g.nodes) if sub >> k & 1)
    return same and not sub & g._colors[g.signature.colors[0]]


# ------------------------------------------------------------- base queries


def one_letter_non_universal(g: LabeledGraph) -> NonUnivVerdict:
    """Least n with no accepting state at level n of the subset iteration,
    complete by cycle detection on the level sets."""
    _require_plain(g, 1, "one_letter_non_universal")
    word, last, _ = _least_word(g, g.signature, 1, None)
    if word is None:
        return NonUnivVerdict(False, None)
    n = len(word)
    if not _replayed(g, reach_by_squaring(g, n), last[0]):
        raise CrossCheckError(f"level {n} fails the squaring replay")
    return NonUnivVerdict(True, n)


def reach_by_squaring(g: LabeledGraph, n: int) -> frozenset:
    """Image of the root under n steps of the single action, by iterated
    squaring of the boolean step matrix: only the root's row is carried,
    stepped by the current power at each set bit of n."""
    if n < 0:
        raise PolymuError("n must be >= 0")
    _require_plain(g, 1, "reach_by_squaring")
    mat = _succ_rows(g, g.signature.actions)
    row = 1 << g.index[g.root]
    while n:
        if n & 1:
            row = _image(mat, row)
        mat = [_image(mat, r) for r in mat]
        n >>= 1
    return frozenset(v for k, v in enumerate(g.nodes) if row >> k & 1)


def two_letter_non_universal(g: LabeledGraph, len_cap: Optional[int] = None) -> NonUnivVerdict:
    """Lexicographically least shortest word whose subset run avoids all
    accepting states; breadth-first over the subset automaton, complete
    when len_cap is unset."""
    _require_plain(g, 2, "two_letter_non_universal")
    word, last, exhausted = _least_word(g, g.signature, 1, len_cap)
    if word is None:
        return NonUnivVerdict(False, None, exhausted)
    out = {x: _succ_lists(g, x) for x in g.signature.actions}
    replay = {g.index[g.root]}
    for x in word:
        replay = {w for v in replay for w in out[x][v]}
    if not _replayed(g, frozenset(g.nodes[v] for v in replay), last[0]):
        raise CrossCheckError(f"witness {''.join(word)} fails the replay")
    return NonUnivVerdict(True, "".join(word))


# ------------------------------------------------------------ lifted queries


def one_lifted_non_universal(g: LabeledGraph, len_cap: Optional[int] = None) -> NonUnivVerdict:
    """Least n such that every component's level-n subset avoids its own
    accepting color, over the d components of g's lifted signature;
    synchronized iteration over the subset tuple with cycle detection,
    complete when len_cap is unset."""
    base, d = _lifted_base(g, 1, "one_lifted_non_universal")
    word, _, exhausted = _least_word(g, base, d, len_cap)
    if word is None:
        return NonUnivVerdict(False, None, exhausted)
    n = len(word)
    if not verify_one_lifted_witness(g, n):
        raise CrossCheckError(f"lifted level {n} fails the path replay")
    return NonUnivVerdict(True, n)


def two_lifted_non_universal(g: LabeledGraph, len_cap: Optional[int] = None) -> NonUnivVerdict:
    """Shortest word (lexicographically least among those) under which
    the subset of every component of g's lifted signature avoids its
    accepting color."""
    base, d = _lifted_base(g, 2, "two_lifted_non_universal")
    word, _, exhausted = _least_word(g, base, d, len_cap)
    if word is None:
        return NonUnivVerdict(False, None, exhausted)
    if not verify_two_lifted_witness(g, word):
        raise CrossCheckError(f"witness {''.join(word)} fails the path replay")
    return NonUnivVerdict(True, "".join(word))


# -------------------------------------------------------- witness replaying


def _replay(g: LabeledGraph, d: int, f: str, letters: tuple[str, ...]) -> bool:
    """Path check of a word witness, one component at a time: walk the
    graph tracking how far component i's counted actions since its last
    reset have progressed through letters, with the dead marker
    len(letters) + 1 once they deviate; full progress forbids the color
    f@i.  Other components' moves leave the counter alone, so this walk
    reaches (node, count) exactly when a walk tracking every component's
    counter at once reaches it with count in place i."""
    width = len(letters) + 2  # counts 0..full, then dead
    full, dead = width - 2, width - 1
    # per source, its moves as ((base action, component), target state base)
    out = _tagged_succ_lists(g, unlift, width)
    for i in range(d):
        accepting = g._colors[f"{f}@{i}"]
        start = g.index[g.root] * width  # count 0 at the root
        seen = {start}
        todo = [start]
        while todo:
            v, p = divmod(todo.pop(), width)
            if p == full and accepting >> v & 1:
                return False
            for (x, j), w in out[v]:
                if j != i:
                    state = w + p
                elif x == RESET:
                    state = w
                elif p < full and letters[p] == x:
                    state = w + p + 1
                else:
                    state = w + dead
                if state not in seen:
                    seen.add(state)
                    todo.append(state)
    return True


def verify_one_lifted_witness(g: LabeledGraph, n: int) -> bool:
    """Path check of a level witness on every component of g's lifted
    signature: the word witness a^n, where a count of n + 1 marks a
    component whose count ran past n."""
    base, d = _lifted_base(g, 1, "verify_one_lifted_witness")
    if n < 0:
        raise PolymuError("n must be >= 0")
    return _replay(g, d, base.colors[0], base.actions * n)


def verify_two_lifted_witness(g: LabeledGraph, word: Sequence[str]) -> bool:
    """Path check of a word witness on every component of g's lifted
    signature, given as a sequence of base action names (a string reads
    as its single-character names)."""
    base, d = _lifted_base(g, 2, "verify_two_lifted_witness")
    letters = tuple(word)
    for x in letters:
        if x not in base.actions:
            raise PolymuError(f"word: {x!r} is not an action of the base signature")
    return _replay(g, d, base.colors[0], letters)
