"""Alternating parity automata from formulas, and their acceptance games.

A closed arity-1 formula becomes an automaton whose states are the
table entries of its positive normal form.  Running the automaton on a
graph is a parity game between Exists (claims acceptance) and Forall.
Acceptance reads winners only: ``acceptance_winners`` solves the game
on the graph x automaton product, deriving moves and predecessors from
per-action adjacency and per-state transitions as it goes.  It walks
the strongly connected components of the automaton bottom-up (Tarjan,
``_sccs``): a state on no cycle is decided over all nodes at once from
its color mask or its decided successors; a component whose cycles all
have a top priority of one parity takes one attractor, as an
alternation-free formula always does, so those are solved in linear
time; only a component whose cycles mix parities runs Zielonka's loop
over opponent attractors, on its own positions, nested on an explicit
stack.  That loop keeps no set of positions: its
regions, tops and won sides are position lists, a region's membership is
one frame depth per position (v is in frame f's region when its depth is
at least f; a finished frame's positions return to its parent's depth,
and what an opponent attractor takes from frame f drops to f - 1), and
each attractor marks what it takes with a stamp of its own; the depth
and stamp lists are allocated once per game and shared by its components.
``acceptance_game`` builds the same game
explicitly, as a ``ParityGame``, and ``solve_parity``, Zielonka's
algorithm over position sets on the same kind of stack, solves it for
winners only; the pair stays as the oracle that xcheck suite 9 checks
``acceptance_winners`` against.
"""
from __future__ import annotations

from itertools import groupby
from dataclasses import dataclass
from typing import Union

from .errors import FormulaError, PolymuError, ResourceLimitError
from .graphs import (
    _MAX_ID_CHARS,
    _MAX_MOVES,
    _MAX_NODES,
    FiniteTree,
    LabeledGraph,
    Signature,
    _check_root_path,
    _pred_lists,
    _succ_lists,
)
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
    _Table,
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


_DUAL = {And: Or, Or: And, Diamond: Box, Box: Diamond, Mu: Nu, Nu: Mu}


def _pnf(t: _Table) -> Node:
    """Negations pushed onto colors, and replacements stripped (at arity 1
    the only mapping is the identity), over the compiled formula t:
    children first, each entry's image under an even and under an odd
    number of negations.  t must pass validate_formula, so every node is
    known and every variable occurs positively."""
    img: list[tuple[Node, Node]] = []  # per entry: (even image, odd image)
    for n, ks in zip(t.node, t.kids):
        cls = type(n)
        if cls is Neg:
            img.append(img[ks[0]][::-1])
        elif cls is Replace:
            img.append(img[ks[0]])
        elif cls is TT or cls is FF:
            img.append((n, FF() if cls is TT else TT()))
        elif cls is Color:
            img.append((n, Neg(n)))
        elif cls is Var:
            img.append((n, n))
        else:
            img.append((_rebuild(n, [img[k][0] for k in ks]),
                        _rebuild(n, [img[k][1] for k in ks], _DUAL[cls])))
    return img[t.root][0]


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
    t = Formula(1, _pnf(phi._table))._table
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

    def next_states(q) -> list:
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
            todo += reversed(next_states(q))

    names: list[str] = []
    delta: list[Trans] = []
    chars = 0
    for q in state:
        to = [state[r] for r in next_states(q)]
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


def _on_literal(t: TransLit, g: LabeledGraph, holds: int, fails: int) -> list[int]:
    """Per node position, holds where literal t holds and fails where it
    fails, read off its color's mask: with Forall and Exists, the owners
    of t's positions (whoever loses there), the other way round their
    winners."""
    bits = format(g._colors[t.color], f"0{len(g.nodes)}b")[::-1]
    true = "1" if t.positive else "0"
    return [holds if h == true else fails for h in bits]


def acceptance_game(apt: Apt, g: LabeledGraph) -> ParityGame:
    """Positions are (node, state) pairs, (v, q) at index[v] * |Q| + q.
    Literal positions are terminal and owned by whoever loses there;
    modal and boolean positions are owned by Exists on disjunctive
    transitions, Forall on conjunctive.  The game is filled one state at
    a time over all nodes.  Past _MAX_MOVES moves it is refused before
    anything is allocated."""
    size = _game_size(apt, g)
    nodes = g.nodes
    pairs = sum([len(g._moves.get(t.action, ())) if type(t) is TransMod else
                 len(nodes) * len({t.left, t.right}) if type(t) is TransBool else 0
                 for t in apt.delta])
    if pairs > _MAX_MOVES:
        raise ResourceLimitError(f"acceptance_game: more than {_MAX_MOVES} moves")
    nq = len(apt.states)
    heads = ["(" + v + ",q" for v in nodes]
    labels: list = [None] * size
    owner: list = [EXISTS] * size
    moves: list = [()] * size
    # per action, each node's successors as position bases, in edge order
    succ_bases: dict[str, list[list[int]]] = {}
    for q, t in enumerate(apt.delta):
        tail = f"{q})"
        labels[q::nq] = [h + tail for h in heads]
        if isinstance(t, TransLit):
            owner[q::nq] = _on_literal(t, g, FORALL, EXISTS)
        elif isinstance(t, TransMod):
            outs = succ_bases.get(t.action)
            if outs is None:
                outs = succ_bases[t.action] = _succ_lists(g, t.action, nq)
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


def solve_parity(game: ParityGame) -> tuple[int, ...]:
    """The winner of every position.

    Zielonka's algorithm on sets of positions, looping over opponent
    attractors and nesting over distinct priorities on an explicit stack.
    Dead ends are routed to a fresh losing sink for their owner, which
    makes the game total for the attractor decomposition; the sinks are
    stripped from the answer; a sink that no dead end leads to stays out
    of the game.  Positions are bucketed by priority once, so each loop
    turn finds the top priority of its region by set intersection."""
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
    positions = [*range(n), *{sink[o][0] for m, o in zip(game.moves, game.owner) if not m}]
    by_prio = groupby(sorted(positions, key=prio.__getitem__), key=prio.__getitem__)
    buckets = {p: set(vs) for p, vs in by_prio}
    order = sorted(buckets, reverse=True)

    def attractor(target: set, region: set, player: int) -> set:
        """region minus player's attractor of target within it."""
        rest = region - target
        count = {}  # opponent positions: moves into region not yet attracted
        queue = list(target)
        for v in queue:  # grows while iterated
            for u in preds[v]:
                if u not in rest:
                    continue
                if owner[u] != player:
                    ms = moves[u]
                    if len(ms) > 1:  # with one move, its count drops from 1 to 0
                        c = (count.get(u) or len([w for w in ms if w in region])) - 1
                        if c:
                            count[u] = c
                            continue
                rest.remove(u)
                queue.append(u)
        return rest

    # a frame solves region, whose priorities are at most order[k], into win
    # per player; its parent waits on the stack
    region, k, win = set(positions), 0, [set(), set()]
    frames: list = []
    while True:
        if region:
            top = buckets[order[k]] & region
            while not top:
                k += 1
                top = buckets[order[k]] & region
            # a region all of top priority is its own attractor
            if len(top) < len(region):
                frames.append((region, k, win))
                region = attractor(top, region, order[k] % 2)
                k, win = k + 1, [set(), set()]
                continue
        elif not frames:
            break
        else:
            sub_win = win
            region, k, win = frames.pop()
            opp = 1 - order[k] % 2
            if sub_win[opp]:
                rest = attractor(sub_win[opp], region, opp)
                win[opp] |= region - rest
                region = rest
                continue
        win[order[k] % 2] |= region
        region = set()

    return tuple([EXISTS if v in win[EXISTS] else FORALL for v in range(n)])


def acceptance_winners(apt: Apt, g: LabeledGraph) -> tuple[int, ...]:
    """The winner of every position of the acceptance game of apt on g,
    at the positions acceptance_game numbers, without building the game.

    Every move of the game follows a transition of the automaton, so a
    play ends up in one strongly connected component of apt.delta.  The
    components are solved bottom-up, each after every component it
    reaches, so the positions a component can leave to are decided when
    it starts.  A state on no cycle is decided on the spot, over all
    nodes at once: a literal from its color's mask, a modal or boolean
    state from its decided successors.  In a component with cycles, a
    position whose owner is stuck, or can leave to a position it wins, is
    decided at once.  When the top priority of every cycle in the
    component has one parity sigma (always so for an alternation-free
    formula), the other player's attractor of what it has won decides
    its part and sigma wins the rest.  Only a component whose cycles
    disagree takes both players' attractors and then runs _zielonka on
    what is left.  The moves of (v, q) and the predecessors of (w, t) are
    derived where needed from per-action successor and predecessor lists
    of node positions and from the transitions inside the component."""
    size = _game_size(apt, g)
    n, nq = len(g.nodes), len(apt.states)
    delta, prio = apt.delta, apt.priority
    succ = [[t.target] if type(t) is TransMod else [] if type(t) is TransLit else [t.left, t.right]
            for t in delta]
    winner: list = [None] * size
    # per action: each node's successors and predecessors as position
    # bases (index * |Q|), and the bases of the nodes without a successor
    adjacency: dict[str, tuple[list, list, list]] = {}
    for t in delta:
        if type(t) is TransMod and t.action not in adjacency:
            out = _succ_lists(g, t.action, nq)
            dead = [v * nq for v in range(n) if not out[v]]
            adjacency[t.action] = out, _pred_lists(g, t.action, nq), dead
    owner: list = []  # allocated with the first component that has a cycle
    depth: list = []  # allocated with the first component _zielonka solves
    for comp in _sccs(range(nq), succ):
        q = comp[0]
        t = delta[q]
        if len(comp) == 1 and q not in succ[q]:
            if type(t) is TransLit:
                winner[q::nq] = _on_literal(t, g, EXISTS, FORALL)
            elif type(t) is TransMod:
                r = t.target
                out = adjacency[t.action][0]
                if t.existential:
                    winner[q::nq] = [min([winner[b + r] for b in bs], default=FORALL) for bs in out]
                else:
                    winner[q::nq] = [max([winner[b + r] for b in bs], default=EXISTS) for bs in out]
            else:
                winner[q::nq] = map(max if t.conj else min, winner[t.left::nq], winner[t.right::nq])
            continue
        if not owner:
            # for the positions of states on cycles: owner, moves into their
            # own component, and per state its transitions into (q, bases)
            # and out of it (r, bases): (v, q) moves to b + r for b in
            # bases[v], and (w, r) is entered from b + q for b in bases[w]
            owner, count = [EXISTS] * size, [0] * size
            into: list[list] = [[] for _ in range(nq)]
            outs: list[list] = [[] for _ in range(nq)]
            here = [[v * nq] for v in range(n)]  # a boolean transition stays at its node
        sigma = _cycle_parity(comp, succ, prio)
        won: tuple[list, list] = ([], [])  # per player, the positions decided for it
        for q in comp:
            t = delta[q]
            if type(t) is TransMod:
                out, inn, dead = adjacency[t.action]
                o = EXISTS if t.existential else FORALL
                owner[q::nq] = [o] * n
                count[q::nq] = map(len, out)
                outs[q] = [(t.target, out)]
                into[t.target].append((q, inn))
                stuck = [b + q for b in dead]
                for v in stuck:
                    winner[v] = 1 - o
                won[1 - o].extend(stuck)
                continue
            o = FORALL if t.conj else EXISTS
            owner[q::nq] = [o] * n
            targets = {t.left, t.right}
            outs[q] = [(r, here) for r in targets]
            inside = [r for r in targets if r in comp]
            count[q::nq] = [len(inside)] * n
            for r in inside:
                into[r].append((q, here))
            for r in targets.difference(inside):
                # a decided position: the owner leaves to it if it wins there,
                # and otherwise never takes that move
                leave = [v * nq + q for v, x in enumerate(winner[r::nq]) if x == o]
                for v in leave:
                    winner[v] = o
                won[o].extend(leave)
        if sigma is None:
            for player in (EXISTS, FORALL):
                _attract(won[player], player, winner, owner, count, into, nq)
            region = [v for q in comp for v in range(q, size, nq) if winner[v] is None]
            if region:
                if not depth:
                    # each call returns its region to depth -1 and marks only
                    # positions of its region, and components share none
                    depth, mark, left = [-1] * size, [0] * size, [0] * size
                _zielonka(region, comp, prio, owner, count, into, outs, winner, depth, mark, left)
        else:
            _attract(won[1 - sigma], 1 - sigma, winner, owner, count, into, nq)
            for q in comp:
                winner[q::nq] = [sigma if x is None else x for x in winner[q::nq]]
    return tuple(winner)


def _cycle_parity(comp: list[int], succ: list, prio: tuple[int, ...]) -> int | None:
    """The parity of the top priority of every cycle in the automaton
    component comp, or None when cycles of both parities exist.  A state
    of priority p tops a cycle exactly when it lies on a cycle through
    states of priority at most p; the parity is read off the cycles, as a
    greatest fixpoint may carry priority 0 like the states that bind
    nothing."""
    sigma = max([prio[q] for q in comp]) % 2
    for p in sorted({prio[q] for q in comp if prio[q] % 2 != sigma}, reverse=True):
        for c in _sccs({q for q in comp if prio[q] <= p}, succ):
            if (len(c) > 1 or c[0] in succ[c[0]]) and p in [prio[q] for q in c]:
                return None
    return sigma


def _attract(queue: list, player: int, winner: list, owner: list, count: list,
             into: list, nq: int) -> None:
    """Give player every undecided position of the component from which it
    forces a play into queue, positions it has already won; queue grows
    while iterated.  count[u] holds the moves of u not yet known to lead
    into player's positions."""
    for v in queue:
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


def _attractor(queue: list, f: int, stamp: int, player: int, depth: list, mark: list,
               left: list, owner: list, count: list, into: list, outs: list, nq: int) -> None:
    """Extend queue, the target, to player's attractor of it within frame
    f's region, the positions of depth at least f, and mark every position
    of the attractor with stamp.  An opponent position u marked -stamp has
    left[u] moves into the region not yet attracted."""
    for v in queue:
        mark[v] = stamp
    for v in queue:  # grows while iterated
        w = v // nq
        for q, bases in into[v - w * nq]:
            for b in bases[w]:
                u = b + q
                if depth[u] < f or mark[u] == stamp:
                    continue
                # count[u] holds u's moves into the region _zielonka started
                # from; with one, its count drops from 1 to 0
                if owner[u] != player and count[u] > 1:
                    if mark[u] == -stamp:
                        c = left[u]
                    else:
                        mark[u] = -stamp
                        x = u // nq
                        c = len([y for r, ys in outs[u - x * nq] for y in ys[x]
                                 if depth[y + r] >= f])
                    if c > 1:
                        left[u] = c - 1
                        continue
                mark[u] = stamp
                queue.append(u)


def _zielonka(region: list, comp: list[int], prio: tuple[int, ...], owner: list, count: list,
              into: list, outs: list, winner: list, depth: list, mark: list, left: list) -> None:
    """Zielonka's loop over opponent attractors on region, the undecided
    positions of one automaton component whose cycles disagree in
    parity; every position of region keeps a move inside it, and count
    holds how many.  Its nesting over priorities runs on an explicit
    stack of frames, so any number of priorities is solved.  The winners
    go into winner.

    Regions are position lists, and membership is one depth per position:
    v is in the region of frame f, the frame with f parents, exactly when
    depth[v] >= f.  Two invariants keep that true.  A finished frame's
    positions return to its parent's depth, so no stale deeper mark lets
    them into the parent's next sub-region; and what an opponent attractor
    takes from frame f drops to depth f - 1, out of f's region but still
    in its parent's.  Each attractor marks what it takes with its own
    stamp.

    depth, mark and left span the whole game and are shared by every call
    on one game: depth is -1 outside region and again -1 on all of region
    when the call returns, and mark and left are read and written only
    inside region, where mark is 0 on entry."""
    nq = len(outs)
    order = sorted({prio[q] for q in comp}, reverse=True)
    for v in region:
        depth[v] = 0
    stamp = 0
    # a frame solves region, whose priorities are at most order[k]; won[p]
    # gathers what p wins of it; frames holds its parents
    k, won = 0, ([], [])
    frames: list = []
    while True:
        f = len(frames)
        if region:
            p = order[k]
            top = [v for v in region if prio[v % nq] == p]
            while not top:
                k += 1
                p = order[k]
                top = [v for v in region if prio[v % nq] == p]
            sigma = p % 2
            # a region all of top priority is its own attractor
            if len(top) < len(region):
                stamp += 1
                _attractor(top, f, stamp, sigma, depth, mark, left, owner, count, into, outs, nq)
                inner = [v for v in region if mark[v] != stamp]
                if inner:
                    for v in inner:
                        depth[v] = f + 1
                    frames.append((region, k, won))
                    region, k, won = inner, k + 1, ([], [])
                    continue
            won[sigma].extend(region)
            for v in region:
                depth[v] = f - 1
        if not frames:
            break
        sub = won
        region, k, won = frames.pop()
        f -= 1
        opp = 1 - order[k] % 2
        taken = sub[opp]
        if taken:
            stamp += 1
            _attractor(taken, f, stamp, opp, depth, mark, left, owner, count, into, outs, nq)
            for v in taken:
                depth[v] = f - 1
            won[opp].extend(taken)
            region = [v for v in region if depth[v] >= f]
        else:
            won[1 - opp].extend(region)
            for v in region:
                depth[v] = f - 1
            region = []
    for player in (EXISTS, FORALL):
        for v in won[player]:
            winner[v] = player


def _sccs(nodes, succ) -> list[list[int]]:
    """Tarjan's strongly connected components of the graph on nodes, a
    collection of ints below len(succ), whose successors are succ[v];
    edges that leave nodes are left out.  Iterative, with its bookkeeping
    sized to nodes, not to succ, as _cycle_parity runs it per component,
    and each component comes after every component it reaches."""
    low = dict.fromkeys(nodes, 0)  # 0 before v is met, done once v's component is out
    done = len(low) + 1
    stack: list[int] = []
    out: list[list[int]] = []
    count = 0
    for root in low:
        if low[root]:
            continue
        count += 1
        low[root] = count
        # a frame: node, its discovery number, the stack height below it, its moves
        work = [(root, count, 0, iter(succ[root]))]
        stack.append(root)
        while work:
            v, met, height, it = work[-1]
            for w in it:
                if w in low:
                    if not low[w]:
                        count += 1
                        low[w] = count
                        work.append((w, count, len(stack), iter(succ[w])))
                        stack.append(w)
                        break
                    if low[w] < low[v]:
                        low[v] = low[w]
            else:
                work.pop()
                if low[v] == met:
                    comp = stack[height:]
                    del stack[height:]
                    for w in comp:
                        low[w] = done
                    out.append(comp)
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
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
