"""Alternating parity automata from formulas, and their acceptance games.

A closed arity-1 formula becomes an automaton whose states are the
table entries of its positive normal form.  Running the automaton on a
graph is a parity game between Exists (claims acceptance) and Forall.
Acceptance reads winners only: ``acceptance_winners`` solves the game
on the graph x automaton product, deriving moves and predecessors from
per-action adjacency and per-state transitions as it goes; it settles
the dead-end attractors first and runs Zielonka's loop over opponent
attractors on the rest, nested on an explicit stack, with no strategies.
``acceptance_game`` builds the same game explicitly, as a
``ParityGame``, and ``solve_parity``, Zielonka's algorithm with
positional strategies for both players on the same kind of stack,
solves it; the pair stays for strategies and as the oracle that xcheck
suite 9 checks ``acceptance_winners`` against.
"""
from __future__ import annotations

from itertools import groupby
from dataclasses import dataclass
from typing import Union

from .errors import FormulaError, PolymuError, ResourceLimitError
from .graphs import _MAX_ID_CHARS, _MAX_NODES, FiniteTree, LabeledGraph, Signature, _check_root_path
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
    _KIDS,
    _rebuild,
    free_vars,
    print_formula,
    validate_formula,
)

EXISTS = 0
FORALL = 1


@dataclass(frozen=True)
class TransLit:
    color: str
    positive: bool


@dataclass(frozen=True)
class TransMod:
    action: str
    existential: bool
    target: int


@dataclass(frozen=True)
class TransBool:
    conj: bool
    left: int
    right: int


Trans = Union[TransLit, TransMod, TransBool]


@dataclass(frozen=True)
class Apt:
    """Alternating parity automaton over arity-1 formulas.

    states holds the canonical text of the subformula each state stands
    for; delta and priority are indexed by state."""

    signature: Signature
    states: tuple[str, ...]
    initial: int
    delta: tuple[Trans, ...]
    priority: tuple[int, ...]

    def __repr__(self) -> str:
        return f"Apt(states={len(self.states)}, initial={self.initial})"


# ------------------------------------------------------------ normal form


_DUAL = {And: Or, Or: And, Diamond: Box, Box: Diamond, Mu: Nu, Nu: Mu, Replace: Replace}


def _pnf(root: Node, strip: bool = False) -> Node:
    """Negations pushed onto colors in one pre-order pass; with strip,
    replacements go (at arity 1 the only mapping is the identity)."""
    flipped: set[str] = set()
    done: list[Node] = []  # results of finished subtrees awaiting their parent
    # (node, polarity, False) enters a node, (node, polarity, True) builds it
    todo: list[tuple] = [(root, True, False)]
    while todo:
        n, pos, leaving = todo.pop()
        cls = type(n)
        if leaving:
            k = len(_KIDS[cls])
            kids = done[len(done) - k:]
            del done[len(done) - k:]
            done.append(_rebuild(n, kids, cls if pos else _DUAL[cls]))
        elif cls is TT or cls is FF:
            done.append(TT() if (cls is TT) == pos else FF())
        elif cls is Color:
            done.append(n if pos else Neg(n))
        elif cls is Var:
            # positivity of the input guarantees the occurrence comes out positive
            if pos == (n.name in flipped):
                raise FormulaError(f"variable {n.name} survives negatively")
            done.append(n)
        elif cls is Neg or (strip and cls is Replace):
            todo.append((n.sub, pos != (cls is Neg), False))
        elif cls in _DUAL:
            if not pos and (cls is Mu or cls is Nu):
                flipped.add(n.var)
            todo.append((n, pos, True))
            todo += [(getattr(n, f), pos, False) for f in reversed(_KIDS[cls])]
        else:
            raise FormulaError(f"unknown node {cls.__name__}")
    return done[0]


# ------------------------------------------------------------ translation


def formula_to_apt(phi: Formula, sig: Signature) -> Apt:
    """States are the distinct subformulas of the positive normal form,
    in pre-order of first appearance; a variable is identified with its
    binder's state.  Least fixpoints get the smallest odd priority at
    least the maximum inside their body, greatest fixpoints the smallest
    such even one; every other state has priority 0.  State names grow
    with the square of the formula, so past _MAX_ID_CHARS it is refused."""
    validate_formula(phi, sig)
    if phi.arity != 1:
        raise FormulaError("automaton translation needs an arity-1 formula")
    if free_vars(phi):
        raise FormulaError("automaton translation needs a closed formula")
    t = Formula(1, _pnf(phi.root, strip=True))._table
    node, kids = t.node, t.kids
    c0 = sig.colors[0]

    def key(e: int):
        """A literal's state is keyed (color, positive), a variable's by its binder."""
        n = node[e]
        if isinstance(n, Color):
            return n.color, True
        if isinstance(n, Neg):
            return n.sub.color, False
        return t.bind.get(e, e)

    def succ(q) -> list:
        # tt and ff run on the literals of the first color, a binder on its body twice
        if type(q) is tuple:
            return []
        if isinstance(node[q], (TT, FF)):
            return [(c0, True), (c0, False)]
        return [key(k) for k in kids[q]] * (1 + isinstance(node[q], (Mu, Nu)))

    # states in pre-order of first appearance; a binder comes before its variables
    state: dict = {}
    todo = [key(t.root)]
    while todo:
        q = todo.pop()
        if q not in state:
            state[q] = len(state)
            todo += reversed(succ(q))

    names: list[str] = []
    delta: list[Trans] = []
    chars = 0
    for q in state:
        to = [state[r] for r in succ(q)]
        if type(q) is tuple:
            n = Color(q[0], 0) if q[1] else Neg(Color(q[0], 0))
            delta.append(TransLit(*q))
        elif isinstance(node[q], (Diamond, Box)):
            n = node[q]
            delta.append(TransMod(n.action, isinstance(n, Diamond), to[0]))
        else:
            n = node[q]
            delta.append(TransBool(isinstance(n, (FF, And)), *to))
        names.append(print_formula(Formula(1, n)))
        chars += len(names[-1])
        if chars > _MAX_ID_CHARS:
            raise ResourceLimitError(f"formula_to_apt: more than {_MAX_ID_CHARS} state-name characters")

    prio = [0] * len(state)
    top = [0] * len(node)  # the largest binder priority inside each entry
    for e, ks in enumerate(kids):
        p = max([top[k] for k in ks], default=0)
        if isinstance(node[e], (Mu, Nu)):
            if p % 2 != isinstance(node[e], Mu):  # mu wants odd, nu even
                p += 1
            prio[state[e]] = p
        top[e] = p
    return Apt(sig, tuple(names), state[key(t.root)], tuple(delta), tuple(prio))


def render_transition(t: Trans) -> str:
    if isinstance(t, TransLit):
        return t.color if t.positive else "~" + t.color
    if isinstance(t, TransMod):
        brackets = "<>" if t.existential else "[]"
        return f"{brackets[0]}{t.action}{brackets[1]}q{t.target}"
    op = "&" if t.conj else "|"
    return f"q{t.left} {op} q{t.right}"


def format_apt(apt: Apt) -> str:
    lines = [
        f"states {len(apt.states)} initial q{apt.initial}",
    ]
    for q, name in enumerate(apt.states):
        lines.append(f"q{q} p{apt.priority[q]} = {render_transition(apt.delta[q])}  ({name})")
    return "\n".join(lines)


# ------------------------------------------------------------ parity games


@dataclass(frozen=True)
class ParityGame:
    """Max-parity game; player 0 (Exists) wants the highest priority seen
    infinitely often to be even.  A player with no move loses."""

    labels: tuple[str, ...]
    owner: tuple[int, ...]
    priority: tuple[int, ...]
    moves: tuple[tuple[int, ...], ...]
    initial: int

    def __repr__(self) -> str:
        return f"ParityGame(positions={len(self.labels)}, initial={self.initial})"


@dataclass(frozen=True)
class GameResult:
    winner: tuple[int, ...]
    strategy: tuple[dict, dict]


def _game_size(apt: Apt, g: LabeledGraph) -> int:
    """The number of positions of the acceptance game of apt on g,
    refused before anything is allocated when the signatures differ or
    it exceeds the node budget."""
    if g.signature != apt.signature:
        raise PolymuError("acceptance_game: graph and automaton signatures differ")
    size = len(g.nodes) * len(apt.states)
    if size > _MAX_NODES:
        raise ResourceLimitError(f"acceptance_game: more than {_MAX_NODES} positions")
    return size


def _literal_owners(t: TransLit, g: LabeledGraph) -> list[int]:
    """Per node position, the owner of literal t's position, read off its
    color's mask: Forall where t holds, Exists where it fails."""
    holds = format(g._colors[t.color], f"0{len(g.nodes)}b")[::-1]
    true = "1" if t.positive else "0"
    return [FORALL if h == true else EXISTS for h in holds]


def acceptance_game(apt: Apt, g: LabeledGraph) -> ParityGame:
    """Positions are (node, state) pairs, (v, q) at index[v] * |Q| + q.
    Literal positions are terminal and owned by whoever loses there;
    modal and boolean positions are owned by Exists on disjunctive
    transitions, Forall on conjunctive.  The game is filled one state at
    a time over all nodes."""
    size = _game_size(apt, g)
    nodes = g.nodes
    nq = len(apt.states)
    heads = ["(" + v + ",q" for v in nodes]
    labels: list = [None] * size
    owner: list = [EXISTS] * size
    moves: list = [()] * size
    # per action, each node's successors as position bases, ordered by
    # node id as succ() orders them
    succ_bases: dict[str, list[list[int]]] = {}
    for q, t in enumerate(apt.delta):
        tail = f"{q})"
        labels[q::nq] = [h + tail for h in heads]
        if isinstance(t, TransLit):
            owner[q::nq] = _literal_owners(t, g)
        elif isinstance(t, TransMod):
            outs = succ_bases.get(t.action)
            if outs is None:
                outs = succ_bases[t.action] = [[] for _ in nodes]
                for u, w in sorted(g._moves.get(t.action, ()), key=lambda uw: nodes[uw[1]]):
                    outs[u].append(w * nq)
            target = t.target
            owner[q::nq] = [EXISTS if t.existential else FORALL] * len(nodes)
            moves[q::nq] = [tuple([b + target for b in out]) for out in outs]
        else:
            # (v, left) and (v, right) in position order, once if they coincide
            owner[q::nq] = [FORALL if t.conj else EXISTS] * len(nodes)
            moves[q::nq] = zip(*(range(o, size, nq) for o in sorted({t.left, t.right})))
    return ParityGame(
        tuple(labels), tuple(owner), apt.priority * len(nodes), tuple(moves),
        g.index[g.root] * nq + apt.initial,
    )


def solve_parity(game: ParityGame) -> GameResult:
    """Exact solution with winner and positional strategy per position.

    Zielonka's algorithm, looping over opponent attractors and nesting
    over distinct priorities on an explicit stack.  Dead ends are routed
    to a fresh losing sink for their owner, which makes the game total
    for the attractor decomposition; the sinks are stripped from the
    answer; a sink that no dead end leads to stays out of the game.
    Positions are bucketed by priority once, so each loop turn finds the
    top priority of its region by set intersection."""
    n = len(game.labels)
    prio = tuple(game.priority) + (1, 0)
    owner = tuple(game.owner) + (EXISTS, FORALL)
    sink = ((n,), (n + 1,))  # indexed by the owner who loses there
    moves = [m or sink[o] for m, o in zip(game.moves, game.owner)]
    moves += sink
    preds: list[list[int]] = [[] for _ in range(n + 2)]
    for v, ms in enumerate(moves):
        for w in ms:
            preds[w].append(v)
    positions = [*range(n), *sorted({sink[o][0] for m, o in zip(game.moves, game.owner) if not m})]
    by_prio = groupby(sorted(positions, key=prio.__getitem__), key=prio.__getitem__)
    buckets = {p: set(vs) for p, vs in by_prio}
    order = sorted(buckets, reverse=True)

    def attractor(target: set, region: set, player: int, strat: dict) -> set:
        """region minus player's attractor of target within it; strategy
        moves of player's attracted positions go into strat."""
        rest = region - target
        count = {}  # opponent positions: moves into region not yet attracted
        queue = sorted(target)
        for v in queue:  # grows while iterated, so positions leave in FIFO order
            for u in preds[v]:
                if u not in rest:
                    continue
                if owner[u] == player:
                    strat[u] = v
                else:
                    ms = moves[u]
                    if len(ms) > 1:  # with one move, its count drops from 1 to 0
                        c = (count.get(u) or len([w for w in ms if w in region])) - 1
                        if c:
                            count[u] = c
                            continue
                rest.remove(u)
                queue.append(u)
        return rest

    # a frame solves region, whose priorities are at most order[k], into win and
    # strat per player; its parent waits on the stack with the top's attractor
    region, k, win, strat = set(positions), 0, [set(), set()], [{}, {}]
    frames: list = []
    while True:
        if region:
            top = buckets[order[k]] & region
            while not top:
                k += 1
                top = buckets[order[k]] & region
            s_attr: dict = {}
            # a region all of top priority is its own attractor, with no strategy
            if len(top) < len(region):
                frames.append((region, k, win, strat, top, s_attr))
                region = attractor(top, region, order[k] % 2, s_attr)
                k, win, strat = k + 1, [set(), set()], [{}, {}]
                continue
        elif not frames:
            break
        else:
            sub_win, sub_strat = win, strat
            region, k, win, strat, top, s_attr = frames.pop()
            opp = 1 - order[k] % 2
            if sub_win[opp]:
                strat[opp].update(sub_strat[opp])
                rest = attractor(sub_win[opp], region, opp, strat[opp])
                win[opp] |= region - rest
                region = rest
                continue
            strat[1 - opp].update(sub_strat[1 - opp])
        sigma = order[k] % 2
        mine = strat[sigma]
        # every position keeps a move inside its region, so a lone move is in it
        for v in sorted(top):
            if owner[v] == sigma:
                ms = moves[v]
                mine[v] = ms[0] if len(ms) == 1 else min([w for w in ms if w in region])
        mine.update(s_attr)
        win[sigma] |= region
        region = set()

    winner = tuple([EXISTS if v in win[EXISTS] else FORALL for v in range(n)])
    strategies = tuple({v: w for v, w in s.items() if v < n and w < n} for s in strat)
    return GameResult(winner, strategies)


def acceptance_winners(apt: Apt, g: LabeledGraph) -> tuple[int, ...]:
    """The winner of every position of the acceptance game of apt on g,
    at the positions acceptance_game numbers, without building the game.

    The game is read off the graph x automaton product: per action, the
    successor and predecessor nodes of every node as position bases
    (index * |Q|), and per state, its transitions and the transitions
    into it.  The moves of (v, q) and the predecessors of (w, t) are
    derived from them where the loops need them, so only the owner and
    the move count are kept per position.  A player with no move loses,
    so Exists first takes its attractor of Forall's dead ends, and Forall
    then its attractor of Exists' dead ends in what is left.  Every
    remaining position keeps a move inside the remainder, so Zielonka's
    loop over opponent attractors solves it with no sink positions.  Its
    nesting over priorities runs on an explicit stack of frames, so any
    number of priorities is solved."""
    size = _game_size(apt, g)
    n, nq = len(g.nodes), len(apt.states)
    owner = [EXISTS] * size
    count = [0] * size  # each position's moves into the undecided ones
    here = [[v * nq] for v in range(n)]  # a boolean transition stays at its node
    adjacency: dict[str, tuple[list[list[int]], list[list[int]]]] = {}
    # outs[q] holds (r, bases) per transition q -> r and into[r] holds (q, bases)
    # per transition q -> r: (v, q) moves to b + r for b in bases[v], and
    # (w, r) is entered from b + q for b in bases[w]
    outs: list[list] = [[] for _ in range(nq)]
    into: list[list] = [[] for _ in range(nq)]
    for q, t in enumerate(apt.delta):
        if isinstance(t, TransLit):
            owner[q::nq] = _literal_owners(t, g)
            continue
        if isinstance(t, TransMod):
            a = t.action
            if a not in adjacency:
                out, inn = [[] for _ in range(n)], [[] for _ in range(n)]
                for u, w in g._moves.get(a, ()):
                    out[u].append(w * nq)
                    inn[w].append(u * nq)
                adjacency[a] = out, inn
            out, inn = adjacency[a]
            owner[q::nq] = [EXISTS if t.existential else FORALL] * n
            count[q::nq] = map(len, out)
            outs[q] = [(t.target, out)]
            into[t.target].append((q, inn))
        else:
            owner[q::nq] = [FORALL if t.conj else EXISTS] * n
            targets = {t.left, t.right}
            count[q::nq] = [len(targets)] * n
            outs[q] = [(r, here) for r in targets]
            for r in targets:
                into[r].append((q, here))

    winner: list = [None] * size
    ends = [v for v, c in enumerate(count) if not c]
    for player in (EXISTS, FORALL):
        # the opponent's dead ends; the first round takes none of Exists',
        # as Exists attracts only positions with a move
        queue = [v for v in ends if owner[v] != player]
        for v in queue:
            winner[v] = player
        for v in queue:  # grows while iterated
            w = v // nq
            for q, bases in into[v - w * nq]:
                for b in bases[w]:
                    u = b + q
                    if winner[u] is None:
                        if owner[u] != player:
                            count[u] -= 1
                            if count[u]:
                                continue
                        winner[u] = player
                        queue.append(u)

    def attractor(target: set, region: set, player: int) -> set:
        """region minus player's attractor of target within it."""
        rest = region - target
        left = {}  # opponent positions: moves into region not yet attracted
        queue = list(target)
        for v in queue:
            w = v // nq
            for q, bases in into[v - w * nq]:
                for b in bases[w]:
                    u = b + q
                    if u not in rest:
                        continue
                    # count[u] holds u's moves into the region left by the dead
                    # ends; with one, its count drops from 1 to 0
                    if owner[u] != player and count[u] > 1:
                        c = left.get(u)
                        if c is None:
                            x = u // nq
                            c = len([y for r, ys in outs[u - x * nq] for y in ys[x]
                                     if y + r in region])
                        if c > 1:
                            left[u] = c - 1
                            continue
                    rest.remove(u)
                    queue.append(u)
        return rest

    region = {v for v in range(size) if winner[v] is None}
    # every position of a priority, decided or not: tops are cut to the region
    buckets: dict[int, set] = {}
    for q, p in enumerate(apt.priority):
        buckets.setdefault(p, set()).update(range(q, size, nq))
    order = sorted(buckets, reverse=True)
    # a frame solves region, whose priorities are at most order[k]; won[p]
    # gathers what p wins of it
    k, won = 0, [set(), set()]
    frames: list = []
    while True:
        if region:
            top = buckets[order[k]] & region
            while not top:
                k += 1
                top = buckets[order[k]] & region
            sigma = order[k] % 2
            # a region all of top priority is its own attractor
            inner = attractor(top, region, sigma) if len(top) < len(region) else None
            if inner:
                frames.append((region, k, won))
                region, k, won = inner, k + 1, [set(), set()]
                continue
            won[sigma] |= region
        if not frames:
            break
        sub = won
        region, k, won = frames.pop()
        opp = 1 - order[k] % 2
        if sub[opp]:
            rest = attractor(sub[opp], region, opp)
            won[opp] |= region - rest
            region = rest
        else:
            won[1 - opp] |= region
            region = set()
    for v in won[EXISTS]:
        winner[v] = EXISTS
    for v in won[FORALL]:
        winner[v] = FORALL
    return tuple(winner)


def strategy_is_winning(game: ParityGame, player: int, win: set, strat: dict) -> bool:
    """Check a positional strategy on a claimed winning set: the set must
    be closed under opponent moves and the strategy, the player never
    gets stuck, and the restricted graph has no cycle whose maximal
    priority favors the opponent."""
    succ: dict[int, tuple[int, ...]] = {}
    for v in win:
        if game.owner[v] == player:
            w = strat.get(v)
            if w is None or w not in game.moves[v] or w not in win:
                return False
            succ[v] = (w,)
        else:
            if any(w not in win for w in game.moves[v]):
                return False
            succ[v] = game.moves[v]

    # only positions on some cycle can lie on a losing one
    cyclic = [c for c in _sccs(set(win), succ) if len(c) > 1 or any(v in succ[v] for v in c)]
    on_cycle = set().union(*cyclic)
    bad = 1 - player % 2
    bad_prios = sorted({game.priority[v] for v in on_cycle if game.priority[v] % 2 == bad})
    for p in bad_prios:
        sub = {v for v in on_cycle if game.priority[v] <= p}
        for comp in _sccs(sub, succ):
            if not any(game.priority[v] == p for v in comp):
                continue
            if len(comp) > 1 or any(v in succ[v] for v in comp):
                return False
    return True


def _sccs(nodes: set, succ: dict) -> list[set]:
    """Tarjan, iterative."""
    order: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set = set()
    stack: list[int] = []
    out: list[set] = []
    counter = [0]

    for root in sorted(nodes):
        if root in order:
            continue
        work = [(root, iter([w for w in succ.get(root, ()) if w in nodes]))]
        order[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in order:
                    order[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter([u for u in succ.get(w, ()) if u in nodes])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], order[w])
            if advanced:
                continue
            work.pop()
            if low[v] == order[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                out.append(comp)
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return out


# ------------------------------------------------------------ runs on trees


def accepts(apt: Apt, g: LabeledGraph) -> bool:
    return acceptance_winners(apt, g)[g.index[g.root] * len(apt.states) + apt.initial] == EXISTS


def winning_state_sets(apt: Apt, tree: FiniteTree, path: list[str]) -> list[frozenset[int]]:
    """For each node v on the path, the states q with (v, q) won by Exists
    in the acceptance game on the tree."""
    path = _check_root_path(tree, path)
    nq = len(apt.states)
    winner = acceptance_winners(apt, tree)
    out = []
    for v in path:
        base = tree.index[v] * nq
        out.append(frozenset(q for q in range(nq) if winner[base + q] == EXISTS))
    return out


def find_pumping_pair(apt: Apt, tree: FiniteTree, path: list[str]) -> tuple[int, int]:
    """Least (i, j) with 1 <= i < j and equal Exists-winning state sets at
    path nodes i and j.  The path needs at least 2^|Q| + 2 nodes so the
    pair exists by pigeonhole; the tree must be accepted."""
    path = _check_root_path(tree, path)
    n = 2 ** len(apt.states) + 1
    if len(path) < n + 1:
        raise PolymuError(
            f"path has {len(path)} nodes, need at least {n + 1} for {len(apt.states)} states"
        )
    # path[0] is the root, so sets[0] holds the initial state iff the tree is accepted
    sets = winning_state_sets(apt, tree, path[: n + 1])
    if apt.initial not in sets[0]:
        raise PolymuError("the automaton does not accept the tree")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if sets[i] == sets[j]:
                return i, j
    raise PolymuError("no repeated winning-state set on the path")
