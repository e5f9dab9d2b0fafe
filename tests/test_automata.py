import contextlib
import inspect
import itertools
import sys
import tracemalloc
from collections import Counter, deque

import pytest

from polymu import automata
from polymu import FiniteTree, LabeledGraph, PolymuError, Signature
from polymu.graphs import unfold
from polymu.automata import (
    Apt,
    EXISTS,
    FORALL,
    ParityGame,
    TransBool,
    TransLit,
    TransMod,
    accepts,
    acceptance_game,
    acceptance_winners,
    find_pumping_pair,
    format_apt,
    formula_to_apt,
    solve_parity,
    winning_state_sets,
    _cycle_parity,
    _sccs,
    _pnf,
)
from polymu.errors import FormulaError, ResourceLimitError
from polymu.logic import Formula, Var, parse_formula, print_formula
from polymu.randgen import Xorshift, rand_base_signature, rand_formula, rand_graph
from polymu.semantics import models

from conftest import PATTERNS, SIG_AF, SIG_ABF, make_graph, make_loop3, succ


def pnf_text(text, sig, arity=1):
    phi = parse_formula(text, sig, arity)
    return print_formula(Formula(phi.arity, _pnf(phi._table)))


def test_pnf_shapes():
    assert pnf_text("~(mu X. f | <a>X)", SIG_AF) == "nu X. ~f@0 & [a@0]X"
    assert pnf_text("~(nu X. f & [a]X)", SIG_AF) == "mu X. ~f@0 | <a@0>X"
    assert pnf_text("~~f", SIG_AF) == "f@0"
    assert pnf_text("~tt", SIG_AF) == "ff"
    assert pnf_text("~[a](f & tt)", SIG_AF) == "<a@0>(~f@0 | ff)"
    # double negation around a fixpoint flips twice
    assert pnf_text("~~(mu X. f | <a>X)", SIG_AF) == "mu X. f@0 | <a@0>X"


def test_apt_structure_reach():
    apt = formula_to_apt(parse_formula("mu X. f | <a>X", SIG_AF, 1), SIG_AF)
    assert apt.states == ("mu X. f@0 | <a@0>X", "f@0 | <a@0>X", "f@0", "<a@0>X")
    assert apt.initial == 0
    assert apt.delta == (
        TransBool(False, 1, 1),
        TransBool(False, 2, 3),
        TransLit("f", True),
        TransMod("a", True, 0),
    )
    assert apt.priority == (1, 0, 0, 0)
    dump = format_apt(apt)
    assert "q0 p1 = q1 | q1" in dump
    assert "q3 p0 = <a>q0" in dump


def test_apt_constants_run_on_first_color():
    apt = formula_to_apt(parse_formula("tt", SIG_AF, 1), SIG_AF)
    assert apt.states == ("tt", "f@0", "~f@0")
    assert apt.delta[0] == TransBool(False, 1, 2)
    apt = formula_to_apt(parse_formula("ff", SIG_AF, 1), SIG_AF)
    assert apt.delta[0] == TransBool(True, 1, 2)


def test_apt_shared_subformulas_share_states():
    apt = formula_to_apt(parse_formula("(f & <a>f) | <a>f", SIG_AF, 1), SIG_AF)
    # <a>f and f each appear once in the state space
    assert apt.states.count("<a@0>f@0") == 1
    assert apt.states.count("f@0") == 1


def test_apt_priorities_nested():
    sig = Signature(("a", "b"), ("f", "g"))
    phi = parse_formula("nu X. mu Y. (f & X) | <a>Y", sig, 1)
    apt = formula_to_apt(phi, sig)
    by_name = dict(zip(apt.states, apt.priority))
    assert by_name["nu X. mu Y. f@0 & X | <a@0>Y"] == 2
    assert by_name["mu Y. f@0 & X | <a@0>Y"] == 1

    phi = parse_formula("mu X. <a>X | (nu Y. (f & [a]Y) | (mu Z. g | <b>Z))", sig, 1)
    apt = formula_to_apt(phi, sig)
    prios = dict(zip(apt.states, apt.priority))
    tops = [p for name, p in prios.items() if name.startswith("mu X.")]
    assert tops == [3]
    assert [p for name, p in prios.items() if name.startswith("nu Y.")] == [2]
    assert [p for name, p in prios.items() if name.startswith("mu Z.")] == [1]


def test_apt_rejects_bad_input():
    with pytest.raises(FormulaError, match="arity-1"):
        formula_to_apt(parse_formula("f@0 & f@1", SIG_AF, 2), SIG_AF)
    with pytest.raises(FormulaError, match="closed"):
        formula_to_apt(Formula(1, Var("X")), SIG_AF)


def test_accepts_matches_models_handpicked():
    g = make_loop3()
    cases = [
        ("f", False),
        ("<a>f", True),
        ("<a><a>f", False),
        ("mu X. f | <a>X", True),
        ("~(mu X. f | <a>X)", False),
        ("nu X. [a]X", True),
        ("nu X. f & [a]X", False),
        ("mu X. tt", True),
        ("ff", False),
    ]
    for text, want in cases:
        phi = parse_formula(text, SIG_AF, 1)
        assert accepts(formula_to_apt(phi, SIG_AF), g) == want, text
        assert models(g, phi) == want, text


def test_accepts_box_vacuous_on_dead_end():
    g = make_graph(SIG_AF, ["0", "1"], "0", [("0", "a", "1")], {"1": ["f"]})
    for text, want in [("[a]f", True), ("<a>[a]ff", True), ("nu X. [a]X", True)]:
        phi = parse_formula(text, SIG_AF, 1)
        assert accepts(formula_to_apt(phi, SIG_AF), g) == want, text


def test_accepts_matches_models_random():
    hits = 0
    for k in range(120):
        rng = Xorshift.substream(20260816, k)
        sig = rand_base_signature(rng)
        g = rand_graph(rng, sig, 5)
        phi = rand_formula(rng, sig, 1, 10)
        apt = formula_to_apt(phi, sig)
        got = accepts(apt, g)
        assert got == models(g, phi), (print_formula(phi), g)
        hits += got
    assert 0 < hits < 120


# ---------------------------------------------------------------- the solver


def game(owner, prio, moves, initial=0):
    labels = tuple(f"p{i}" for i in range(len(owner)))
    return ParityGame(labels, tuple(owner), tuple(prio), tuple(tuple(m) for m in moves), initial)


def test_solver_dead_ends():
    g = game([EXISTS], [0], [()])
    assert solve_parity(g) == (FORALL,)
    g = game([FORALL], [0], [()])
    assert solve_parity(g) == (EXISTS,)


def test_solver_two_cycle():
    g = game([EXISTS, FORALL], [1, 0], [(1,), (0,)])
    assert solve_parity(g) == (FORALL, FORALL)
    g = game([EXISTS, FORALL], [2, 1], [(1,), (0,)])
    assert solve_parity(g) == (EXISTS, EXISTS)


def test_solver_choice_matters():
    # p0 chooses between an even self-loop and an odd one
    g = game(
        [EXISTS, FORALL, FORALL],
        [0, 0, 1],
        [(1, 2), (1,), (2,)],
    )
    assert solve_parity(g) == (EXISTS, EXISTS, FORALL)


def cycle_parities(comp: list, succ: list, prio: tuple) -> set:
    """The parities of the top priorities of the cycles in the component
    comp: p % 2 for each position of priority p that reaches itself
    through positions of priority at most p."""
    found = set()
    for v in comp:
        p = prio[v]
        todo, seen = [v], set()
        while todo and p % 2 not in found:
            for w in succ[todo.pop()]:
                if w == v:
                    found.add(p % 2)
                    break
                if prio[w] <= p and w not in seen:
                    seen.add(w)
                    todo.append(w)
    return found


def test_cycle_parity_against_reachability():
    """_cycle_parity on every component with a cycle that _sccs finds in
    seeded successor lists of at most 9 positions, priorities 0-4: None
    exactly when the reference finds top priorities of both parities,
    otherwise the one it finds."""
    outcomes = Counter()
    for k in range(2000):
        rng = Xorshift.substream(61231, k)
        n = rng.randint(1, 9)
        prio = tuple(rng.below(5) for _ in range(n))
        succ = [tuple(sorted({w for w in range(n) if rng.chance(1, 3)})) for _ in range(n)]
        for comp in _sccs(range(n), succ):
            if len(comp) == 1 and comp[0] not in succ[comp[0]]:
                continue
            found = cycle_parities(comp, succ, prio)
            assert found, (succ, prio, comp)
            want = None if len(found) == 2 else found.pop()
            assert _cycle_parity(comp, succ, prio) == want, (succ, prio, comp)
            outcomes[want] += 1
    assert min(outcomes[w] for w in (None, 0, 1)) >= 100, outcomes


def test_sccs_bookkeeping_is_sized_to_its_nodes():
    """acceptance_winners runs _cycle_parity, and so _sccs, once per
    component of the automaton, so a list over succ per call would make
    it quadratic in the states: on 2 of a million positions, _sccs's
    peak stays far below the 8 MB of one such list."""
    succ = [()] * 10**6
    succ[0], succ[1] = (1,), (0,)
    tracemalloc.start()
    try:
        assert _sccs({0, 1}, succ) == [[0, 1]]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def brute_exists_wins(g: ParityGame) -> set | None:
    n = len(g.labels)
    epos = [v for v in range(n) if g.owner[v] == EXISTS and g.moves[v]]
    total = 1
    for v in epos:
        total *= len(g.moves[v])
        if total > 3000:
            return None
    odd_ps = sorted({p for p in g.priority if p % 2 == 1})
    won = set()
    for combo in itertools.product(*(g.moves[v] for v in epos)):
        succ = {v: () if g.owner[v] == EXISTS else g.moves[v] for v in range(n)}
        for v, w in zip(epos, combo):
            succ[v] = (w,)
        bad = {v for v in range(n) if g.owner[v] == EXISTS and not succ[v]}
        for p in odd_ps:
            sub = {v for v in range(n) if g.priority[v] <= p}
            for comp in _sccs(sub, succ):
                if any(g.priority[v] == p for v in comp) and (
                    len(comp) > 1 or any(v in succ[v] for v in comp)
                ):
                    bad.update(comp)
        blocked = set(bad)
        changed = True
        while changed:
            changed = False
            for v in range(n):
                if v not in blocked and any(w in blocked for w in succ[v]):
                    blocked.add(v)
                    changed = True
        won |= set(range(n)) - blocked
    return won


def test_solver_against_brute_force():
    checked = 0
    for k in range(80):
        rng = Xorshift.substream(977003, k)
        n = rng.randint(1, 7)
        owner = [rng.below(2) for _ in range(n)]
        prio = [rng.below(4) for _ in range(n)]
        moves = []
        for v in range(n):
            out = sorted({w for w in range(n) if rng.chance(1, 3)})
            moves.append(tuple(out))
        g = game(owner, prio, moves)
        want = brute_exists_wins(g)
        if want is None:
            continue
        got = {v for v, x in enumerate(solve_parity(g)) if x == EXISTS}
        assert got == want, (owner, prio, moves)
        checked += 1
    assert checked >= 60


# ---------------------------------------------- the recursive solver it replaced
#
# Frozen copy of the recursive Zielonka solver that the loop form took
# over, without its recursion-limit patch and trimmed to winners: the
# games below are small enough for the default limit.  It is the
# reference the tests compare winners against.


def ref_solve_parity(game):
    n = len(game.labels)
    sink = {EXISTS: n, FORALL: n + 1}
    prio = list(game.priority) + [1, 0]
    owner = list(game.owner) + [EXISTS, FORALL]
    moves = [m if m else (sink[game.owner[v]],) for v, m in enumerate(game.moves)]
    moves += [(n,), (n + 1,)]
    preds = [[] for _ in range(n + 2)]
    for v, ms in enumerate(moves):
        for w in ms:
            preds[w].append(v)

    def attractor(target, region, player):
        attr = set(target)
        count = {}
        queue = deque(target)
        while queue:
            v = queue.popleft()
            for u in preds[v]:
                if u not in region or u in attr:
                    continue
                if owner[u] == player:
                    attr.add(u)
                    queue.append(u)
                else:
                    c = count.get(u)
                    if c is None:
                        c = sum(1 for w in moves[u] if w in region)
                    c -= 1
                    count[u] = c
                    if c == 0:
                        attr.add(u)
                        queue.append(u)
        return attr

    def zielonka(region):
        if not region:
            return set(), set()
        p = max(prio[v] for v in region)
        sigma = p % 2
        top = {v for v in region if prio[v] == p}
        a = attractor(top, region, sigma)
        w0, w1 = zielonka(region - a)
        w_opp = w1 if sigma == EXISTS else w0
        if not w_opp:
            win_sig, win_opp = set(region), set()
        else:
            b = attractor(w_opp, region, 1 - sigma)
            w0b, w1b = zielonka(region - b)
            wsb, wob = (w0b, w1b) if sigma == EXISTS else (w1b, w0b)
            win_sig, win_opp = wsb, b | wob
        if sigma == EXISTS:
            return win_sig, win_opp
        return win_opp, win_sig

    w0, _ = zielonka(set(range(n + 2)))
    return tuple(EXISTS if v in w0 else FORALL for v in range(n))


def rand_game(rng):
    n = rng.randint(1, 40)
    n_prio = rng.randint(1, 8)
    owner = [rng.below(2) for _ in range(n)]
    prio = [rng.below(n_prio) for _ in range(n)]
    moves = []
    for _ in range(n):
        if rng.chance(1, 6):
            moves.append(())
        else:
            moves.append(sorted({rng.below(n) for _ in range(rng.randint(1, 3))}))
    return game(owner, prio, moves)


def test_solver_matches_recursive_reference():
    dead_ends = [0, 0]
    for k in range(600):
        g = rand_game(Xorshift.substream(4471, k))
        assert solve_parity(g) == ref_solve_parity(g), k
        for o, ms in zip(g.owner, g.moves):
            dead_ends[o] += not ms
    assert min(dead_ends) >= 100
    for k in range(150):
        rng = Xorshift.substream(4472, k)
        sig = rand_base_signature(rng)
        apt = formula_to_apt(rand_formula(rng, sig, 1, 12), sig)
        graph = rand_graph(rng, sig, 6)
        g = acceptance_game(apt, graph)
        winner = solve_parity(g)
        assert winner == ref_solve_parity(g), k
        assert acceptance_winners(apt, graph) == winner, k


def ladder(n):
    """v_k -> v_k and v_k -> v_{k-1}, owner (k+1) mod 2, priority k mod 2:
    every attractor peel removes one position, so peels are as many as
    positions."""
    owner = [(k + 1) % 2 for k in range(n)]
    prio = [k % 2 for k in range(n)]
    moves = [(k - 1, k) if k else (0,) for k in range(n)]
    return game(owner, prio, moves)


def test_solver_ladder_needs_no_recursion_limit_patch(monkeypatch):
    def forbidden(limit):
        raise AssertionError("setrecursionlimit called")

    monkeypatch.setattr(sys, "setrecursionlimit", forbidden)
    n = 4000
    g = ladder(n)
    assert solve_parity(g) == (EXISTS,) * n


def test_solver_nests_priorities_without_the_recursion_limit(monkeypatch):
    # one self-loop per priority: each priority opens one nested frame,
    # past the 500 that used to be refused under the default recursion limit
    def forbidden(*args):
        raise AssertionError("the recursion limit was touched")

    monkeypatch.setattr(sys, "setrecursionlimit", forbidden)
    monkeypatch.setattr(sys, "getrecursionlimit", forbidden)
    n = 600
    g = game([EXISTS] * n, list(range(n)), [(v,) for v in range(n)])
    assert solve_parity(g) == tuple(v % 2 for v in range(n))


def test_solver_leaves_out_the_sink_no_dead_end_reaches():
    # the chain v -> v - 1, priority v, owner v mod 2: only position 0, an
    # Exists dead end, needs a sink; Forall's sink would sit below every
    # priority and be peeled off again at each of the n nested frames
    n = 3000
    g = game([v % 2 for v in range(n)], list(range(n)), [(v - 1,) if v else () for v in range(n)])
    # every play runs down to position 0, where Exists is stuck
    assert solve_parity(g) == (FORALL,) * n


# ------------------------------------------------ the winners-only solver
#
# solve_parity on the built game is the oracle: acceptance_winners must give
# the same winner at every position, here and in the reference tests above
# and below.


def test_winners_match_zielonka_on_pattern_acceptance_games():
    sig = Signature(("a", "b"), ("f", "g"))
    apts = [formula_to_apt(parse_formula(text, sig, 1), sig) for text in PATTERNS]
    verdicts = set()
    for k in range(24):
        rng = Xorshift.substream(4476, k)
        g = rand_graph(rng, sig, 40, min_nodes=20, edge_den=24)
        for text, apt in zip(PATTERNS, apts):
            gm = acceptance_game(apt, g)
            winner = acceptance_winners(apt, g)
            assert winner == solve_parity(gm), (k, text)
            want = models(g, parse_formula(text, sig, 1))
            assert (winner[gm.initial] == EXISTS) == want, (k, text)
            verdicts.add((text, want))
    assert len(verdicts) == 2 * len(PATTERNS)


def test_winners_need_no_recursion_for_a_thousand_priorities(monkeypatch):
    # a thousand alternating binders around a self-loop on the innermost
    # variable, on a one-node loop: the binder states carry the priorities
    # 999 down to 0; only the innermost one is on a cycle, so the others
    # are decided one automaton component at a time, while the oracle
    # opens one nested frame per priority
    n = 1000
    binders = "".join(f"{'nu' if (n - k) % 2 else 'mu'} X{k}. " for k in range(n))
    apt = formula_to_apt(parse_formula(binders + f"<a>X{n - 1}", SIG_AF, 1), SIG_AF)
    assert len(set(apt.priority)) == n
    g = LabeledGraph(SIG_AF, ["0"], "0", [("0", "a", "0")], {})
    with monkeypatch.context() as m:
        def forbidden(*args):
            raise AssertionError("the recursion limit was touched")

        m.setattr(sys, "setrecursionlimit", forbidden)
        m.setattr(sys, "getrecursionlimit", forbidden)
        winner = acceptance_winners(apt, g)
        # the play loops on the innermost binder, a greatest fixpoint
        assert winner == (EXISTS,) * len(apt.states)
        assert winner == solve_parity(acceptance_game(apt, g))


def test_winners_on_one_component_of_two_hundred_priorities(monkeypatch):
    # every binder is named in the innermost body, so all of them share one
    # automaton component, whose cycles take every priority from 199 down to 0
    n = 200
    binders = "".join(f"{'nu' if (n - k) % 2 else 'mu'} X{k}. " for k in range(n))
    # where the literal cannot settle the body, the owner of the body picks
    # the binder to loop through, and the loop solves the whole component
    for body, labels in ((" | ", {}), (" & ", {"0": ["f"]})):
        text = binders + "(f" + "".join(f"{body}<a>X{k}" for k in range(n)) + ")"
        apt = formula_to_apt(parse_formula(text, SIG_AF, 1), SIG_AF)
        assert len(set(apt.priority)) == n
        comps = cyclic_components(apt)
        assert len(comps) == 1 and {apt.priority[q] for q in comps[0]} == set(range(n))
        loop = LabeledGraph(SIG_AF, ["0"], "0", [("0", "a", "0")], labels)
        two = LabeledGraph(SIG_AF, ["0", "1"], "0",
                           [("0", "a", "1"), ("1", "a", "0"), ("1", "a", "1")], {"1": ["f"]})
        calls = count_zielonka(monkeypatch)
        for g in (loop, two):
            assert acceptance_winners(apt, g) == solve_parity(acceptance_game(apt, g))
        assert calls[0] >= 1


# ------------------------------------ one attractor per alternation-free component

# mu Y. nu X. (f & <a>X) | <a>Y: the nu binder X gets priority 0, like the
# states that bind nothing, and shares a component with the mu binder Y
PITFALL = "mu Y. nu X. (f & <a>X) | <a>Y"


def cyclic_components(apt):
    """The components of apt's transition graph that hold a cycle."""
    succ = [[t.target] if isinstance(t, TransMod) else
            [t.left, t.right] if isinstance(t, TransBool) else [] for t in apt.delta]
    return [c for c in _sccs(range(len(apt.states)), succ) if len(c) > 1 or c[0] in succ[c[0]]]


def count_zielonka(monkeypatch):
    """Count the calls of the Zielonka loop that only components whose
    cycles mix parities run; returns the list its calls go into."""
    calls = [0]
    real = automata._zielonka

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(automata, "_zielonka", counted)
    return calls


def test_parity_of_a_component_is_read_off_its_cycles(monkeypatch):
    apt = formula_to_apt(parse_formula(PITFALL, SIG_AF, 1), SIG_AF)
    binders = [(name[:5], p) for name, p in zip(apt.states, apt.priority)
               if name.startswith(("mu ", "nu "))]
    assert binders == [("mu Y.", 1), ("nu X.", 0)]
    loop = LabeledGraph(SIG_AF, ["0"], "0", [("0", "a", "0")], {"0": ["f"]})
    assert models(loop, parse_formula(PITFALL, SIG_AF, 1))
    calls = count_zielonka(monkeypatch)
    winner = acceptance_winners(apt, loop)
    assert winner == solve_parity(acceptance_game(apt, loop))
    assert winner[apt.initial] == EXISTS and calls == [1]

    # parity read off the nonzero priorities takes the component for Forall
    def nonzero_parity(comp, succ, prio):
        parities = {prio[q] % 2 for q in comp if prio[q]}
        return parities.pop() if len(parities) == 1 else None

    monkeypatch.setattr(automata, "_cycle_parity", nonzero_parity)
    assert not accepts(apt, loop)


# Büchi, co-Büchi, 3- and 4-priority nests and the pitfall shape and its
# dual; each C is drawn from the literals and each M from the modalities
NESTS = (
    "nu X. mu Y. (C & MX) | MY",
    "mu X. nu Y. (C & MY) | MX",
    "mu Z. nu X. mu Y. (C & MX) | (C & MZ) | MY",
    "nu W. mu Z. nu X. mu Y. (C & MW) | (C & MX) | (C | MZ) & MY",
    "mu Y. nu X. (C & MX) | MY",
    "nu Y. mu X. (C | MX) & MY",
)


def draw_nest(rng, shape):
    out = []
    for ch in shape:
        if ch == "C":
            out.append(rng.choice(["f", "g", "~f", "~g"]))
        elif ch == "M":
            out.append(rng.choice(["<{}>", "[{}]"]).format(rng.choice(["a", "b"])))
        else:
            out.append(ch)
    return "".join(out)


def test_winners_on_alternating_nests_match_zielonka_at_every_position(monkeypatch):
    sig = Signature(("a", "b"), ("f", "g"))
    calls = count_zielonka(monkeypatch)
    verdicts, tops, trees = set(), set(), 0
    for k in range(240):
        rng = Xorshift.substream(4477, k)
        shape = NESTS[k % len(NESTS)]
        text = draw_nest(rng, shape)
        apt = formula_to_apt(parse_formula(text, sig, 1), sig)
        g = rand_graph(rng, sig, 10, min_nodes=2, edge_den=rng.randint(3, 8))
        if k % 4 == 0:
            g = unfold(g, 3)
            trees += 1
        winner = acceptance_winners(apt, g)
        assert winner == solve_parity(acceptance_game(apt, g)), (k, text)
        want = models(g, parse_formula(text, sig, 1))
        assert (winner[g.index[g.root] * len(apt.states) + apt.initial] == EXISTS) == want, k
        verdicts.add((shape, want))
        tops.add(max(apt.priority))
    assert len(verdicts) == 2 * len(NESTS)
    assert {2, 3, 4} <= tops and trees == 60 and calls[0] >= 100


def alternation_free(apt):
    """Whether every binder state of apt is a least or every one a
    greatest fixpoint, read off the state names."""
    return len({name[:3] for name in apt.states if name.startswith(("mu ", "nu "))}) <= 1


def test_zielonka_runs_only_where_cycle_parities_mix(monkeypatch):
    sig = Signature(("a", "b"), ("f", "g"))
    graphs = [rand_graph(Xorshift.substream(4478, k), sig, 30, min_nodes=10, edge_den=8)
              for k in range(4)]
    free = [text for text in PATTERNS if text.startswith(("mu X. f |", "nu X. ~f", "nu X. (mu"))]
    assert len(free) == 4  # reach, until, safety, nested
    cyclic = 0
    for k in range(600):
        rng = Xorshift.substream(4479, k)
        text = print_formula(rand_formula(rng, sig, 1, 14))
        apt = formula_to_apt(parse_formula(text, sig, 1), sig)
        if alternation_free(apt):
            free.append(text)
            cyclic += bool(cyclic_components(apt))
    assert len(free) >= 400 and cyclic >= 100
    calls = count_zielonka(monkeypatch)
    for text in free:
        apt = formula_to_apt(parse_formula(text, sig, 1), sig)
        for g in graphs:
            assert acceptance_winners(apt, g) == solve_parity(acceptance_game(apt, g))
    assert calls == [0]
    for text in PATTERNS[2:4]:  # Büchi and co-Büchi
        apt = formula_to_apt(parse_formula(text, sig, 1), sig)
        calls[0] = 0
        for g in graphs:
            acceptance_winners(apt, g)
        assert calls[0] >= 1, text


@contextlib.contextmanager
def zielonka_lines(seen):
    """Call seen(frame) on every line of _zielonka that runs in the block.
    The tracer that was active before, such as a coverage tool's or a
    debugger's, is restored after it."""
    code = automata._zielonka.__code__

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None

        def line(frame, event, arg):
            if event == "line":
                seen(frame)
            return line
        return line

    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        yield
    finally:
        sys.settrace(outer)


def zielonka_line(prefix):
    """The number of the first line of _zielonka that starts with prefix."""
    lines, first = inspect.getsourcelines(automata._zielonka)
    return first + next(i for i, line in enumerate(lines) if line.strip().startswith(prefix))


def test_zielonka_line_probe_restores_the_outer_tracer():
    def outer(frame, event, arg):
        return None

    before = sys.gettrace()
    sys.settrace(outer)
    try:
        with zielonka_lines(lambda frame: None):
            assert sys.gettrace() is not outer
        assert sys.gettrace() is outer
    finally:
        sys.settrace(before)


# seeded cases of substream 777 on which a frame of the Zielonka loop finds
# no position of its next priority left in its region and moves past it
SKIPPED_PRIORITY_CASES = (1701, 6599, 7812, 9423, 12424, 16698, 21843, 22203, 26386, 29148)


def test_zielonka_skips_priorities_its_region_has_lost():
    """The `while not top` step of _zielonka, which moves a frame past a
    priority whose positions have all left its region, runs on every case,
    and the winners match solve_parity at every position."""
    skip = zielonka_line("k += 1")
    hits = [0]

    def seen(frame):
        hits[0] += frame.f_lineno == skip

    sig = Signature(("a", "b"), ("f", "g"))
    for case in SKIPPED_PRIORITY_CASES:
        rng = Xorshift.substream(777, case)
        g = rand_graph(rng, sig, 8, min_nodes=3)
        apt = formula_to_apt(rand_formula(rng, sig, 1, 16), sig)
        hits[0] = 0
        with zielonka_lines(seen):
            winner = acceptance_winners(apt, g)
        assert hits[0] >= 1, case
        assert winner == solve_parity(acceptance_game(apt, g)), case


# seeded cases of substream 779, an alternating nest on a random graph each,
# on which a frame of the Zielonka loop resumes after a sub-frame left the
# opponent a win, the opponent attracts it, and the frame descends again
REENTERED_FRAME_CASES = (14, 56, 57, 84, 128, 145, 159, 176, 210, 236)


def test_zielonka_frames_descend_again_after_an_opponent_attractor():
    """The path where a stale depth would leak positions into the next
    sub-region: a frame resumes after a sub-frame that left the opponent a
    non-empty win, the opponent's attractor takes it, and the frame
    descends again without resuming first.  It runs on every case, and the
    winners match solve_parity at every position.  The depths are read at
    every descent and resumption of a frame f, here and on the skipped
    priority cases: the positions of depth above f are exactly the new
    sub-region when f descends, and when f resumes, its region is exactly
    the positions of depth f or above, all of them at depth f."""
    attract, descend = zielonka_line("_attractor(taken"), zielonka_line("frames.append(")
    resume = zielonka_line("opp = 1 - order[k] % 2")
    armed, hits, checks = [False], [0], [0]

    def seen(frame):
        lineno = frame.f_lineno
        if lineno == attract:
            armed[0] = True
        elif lineno in (descend, resume):
            hits[0] += armed[0] and lineno == descend
            armed[0] = False
            local = frame.f_locals
            depth, f, region = local["depth"], local["f"], local["region"]
            assert {v for v, d in enumerate(depth) if d >= f} == set(region)
            if lineno == descend:
                assert {v for v, d in enumerate(depth) if d > f} == set(local["inner"])
            else:
                assert {depth[v] for v in region} == {f}
            checks[0] += 1

    sig = Signature(("a", "b"), ("f", "g"))
    for case in REENTERED_FRAME_CASES:
        rng = Xorshift.substream(779, case)
        text = draw_nest(rng, NESTS[case % len(NESTS)])
        apt = formula_to_apt(parse_formula(text, sig, 1), sig)
        g = rand_graph(rng, sig, 8, min_nodes=3)
        hits[0] = 0
        with zielonka_lines(seen):
            winner = acceptance_winners(apt, g)
        assert hits[0] >= 1, case
        assert winner == solve_parity(acceptance_game(apt, g)), case
    for case in SKIPPED_PRIORITY_CASES:
        rng = Xorshift.substream(777, case)
        g = rand_graph(rng, sig, 8, min_nodes=3)
        with zielonka_lines(seen):
            acceptance_winners(formula_to_apt(rand_formula(rng, sig, 1, 16), sig), g)
    assert checks[0] >= 80


def test_winners_match_zielonka_on_buchi_patterns_over_hundreds_of_nodes(monkeypatch):
    sig = Signature(("a", "b"), ("f", "g"))
    apts = [formula_to_apt(parse_formula(text, sig, 1), sig) for text in PATTERNS[2:4]]
    calls = count_zielonka(monkeypatch)
    sizes, verdicts = set(), set()
    for k in range(4):
        g = rand_graph(Xorshift.substream(4480, k), sig, 500, min_nodes=300, edge_den=300)
        sizes.add(len(g.nodes))
        for text, apt in zip(PATTERNS[2:4], apts):
            winner = acceptance_winners(apt, g)
            assert winner == solve_parity(acceptance_game(apt, g)), (k, text)
            # who wins the formula at each node
            verdicts |= {(text, x) for x in winner[apt.initial::len(apt.states)]}
    assert min(sizes) >= 300 and len(sizes) == 4
    assert len(verdicts) == 4 and calls[0] == 8


def measure_zielonka(monkeypatch):
    """Record, for each call of the Zielonka loop under tracemalloc, the
    memory it adds above what is live when it starts, its region's size
    and the depth, mark and left lists it was given; checks that it
    leaves every position at depth -1."""
    real = automata._zielonka
    calls = []

    def measured(region, *args):
        positions = len(region)
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        real(region, *args)
        peak = tracemalloc.get_traced_memory()[1] - live
        depth = args[-3]
        assert depth.count(-1) == len(depth)
        calls.append((peak, positions, args[-3:]))

    monkeypatch.setattr(automata, "_zielonka", measured)
    return calls


def traced_winners(apt, g):
    tracemalloc.start()
    try:
        return acceptance_winners(apt, g)
    finally:
        tracemalloc.stop()


def test_zielonka_holds_its_regions_in_per_position_lists(monkeypatch):
    """The memory one mixed-parity solve adds, per position of its region,
    on the Büchi and co-Büchi patterns over a 512-node random graph,
    counting the depth, mark and left lists it shares with later solves
    on the same game: about 85 bytes with one depth and one stamp per
    position, about 200 when every region, top and won side was a set."""
    sig = Signature(("a", "b"), ("f", "g"))
    g = rand_graph(Xorshift.substream(5, 512), sig, 512, min_nodes=512, edge_den=512)
    calls = measure_zielonka(monkeypatch)
    for text in PATTERNS[2:4]:
        apt = formula_to_apt(parse_formula(text, sig, 1), sig)
        calls.clear()
        traced_winners(apt, g)
        assert len(calls) == 1, text
        peak, positions, shared = calls[0]
        peak += sum(map(sys.getsizeof, shared))
        assert positions > 3000 and peak < 150 * positions, (text, peak, positions)


# two Büchi and two co-Büchi patterns, each a mixed-parity component of its own
CONJUNCTION = " & ".join(
    "(" + part.format(i=i, c=c) + ")" for i, (part, c) in enumerate([
        ("nu X{i}. mu Y{i}. ({c} & (<a>X{i} | <b>X{i})) | <a>Y{i} | <b>Y{i}", "f"),
        ("nu X{i}. mu Y{i}. ({c} & (<a>X{i} | <b>X{i})) | <a>Y{i} | <b>Y{i}", "g"),
        ("mu X{i}. nu Y{i}. ({c} & (<a>Y{i} | <b>Y{i})) | <a>X{i} | <b>X{i}", "f"),
        ("mu X{i}. nu Y{i}. ({c} & (<a>Y{i} | <b>Y{i})) | <a>X{i} | <b>X{i}", "~g"),
    ]))


def test_zielonka_solves_on_one_game_share_their_lists(monkeypatch):
    """A conjunction of four Büchi and co-Büchi patterns runs the loop on
    four components, each a small part of the game.  The calls share one
    depth, mark and left list, and each adds memory for its own region
    only, not for the game's positions (about 45 bytes per region
    position on a 512-node graph, where the region is a seventh of the
    game; about 215 if each call allocated the three lists)."""
    sig = Signature(("a", "b"), ("f", "g"))
    apt = formula_to_apt(parse_formula(CONJUNCTION, sig, 1), sig)
    calls = measure_zielonka(monkeypatch)
    small = rand_graph(Xorshift.substream(5, 12), sig, 12, min_nodes=12, edge_den=12)
    assert traced_winners(apt, small) == solve_parity(acceptance_game(apt, small))
    assert len(calls) == 4
    g = rand_graph(Xorshift.substream(5, 512), sig, 512, min_nodes=512, edge_den=512)
    calls.clear()
    traced_winners(apt, g)
    assert len(calls) == 4
    size = len(g.nodes) * len(apt.states)
    for peak, positions, shared in calls:
        assert [id(x) for x in shared] == [id(x) for x in calls[0][2]]
        assert 3000 < positions < size // 5 and peak < 150 * positions, (peak, positions)


# ------------------------------------------ the per-position game construction
#
# Frozen copy of the acceptance game construction that filled one position at
# a time, before the game was built one automaton state at a time.  The
# tests require every field of the two games to be equal.


def ref_acceptance_game(apt, g):
    nq = len(apt.states)
    index = g.index

    def pid(v, q):
        return index[v] * nq + q

    labels, owner, priority, moves = [], [], [], []
    for v in g.nodes:
        for q in range(nq):
            t = apt.delta[q]
            labels.append(f"({v},q{q})")
            priority.append(apt.priority[q])
            if isinstance(t, TransLit):
                sat = (t.color in g.label(v)) == t.positive
                owner.append(FORALL if sat else EXISTS)
                moves.append(())
            elif isinstance(t, TransMod):
                owner.append(EXISTS if t.existential else FORALL)
                moves.append(tuple(pid(w, t.target) for w in succ(g, v, t.action)))
            else:
                owner.append(FORALL if t.conj else EXISTS)
                dests = sorted({pid(v, t.left), pid(v, t.right)})
                moves.append(tuple(dests))
    return ParityGame(
        tuple(labels), tuple(owner), tuple(priority), tuple(moves),
        pid(g.root, apt.initial),
    )


ODD_IDS = ["a,b", "(", ")", "q0", "x|y", "(1,q2)", "10", "9", " ", "2", "zz", "-"]


def with_odd_ids(g, rng):
    """g with its node ids replaced by a shuffled draw of awkward ids, so
    that successor order (sorted by id) differs from node order."""
    ids = list(ODD_IDS)
    for k in range(len(ids) - 1, 0, -1):
        j = rng.below(k + 1)
        ids[k], ids[j] = ids[j], ids[k]
    ids += [f"n{k}" for k in range(len(g.nodes) - len(ids))]
    rename = dict(zip(g.nodes, ids))
    return LabeledGraph(
        g.signature, [rename[v] for v in g.nodes], rename[g.root],
        [(rename[u], a, rename[v]) for u, a, v in g.edges],
        {rename[v]: g.label(v) for v in g.nodes},
    )


def test_acceptance_game_matches_per_position_reference():
    constants = two_actions = odd = 0
    for k in range(320):
        rng = Xorshift.substream(4473, k)
        sig = rand_base_signature(rng)
        g = rand_graph(rng, sig, 14)
        if k % 2:
            g = with_odd_ids(g, rng)
            odd += 1
        text = print_formula(rand_formula(rng, sig, 1, 12))
        if k % 5 == 0:
            text = f"({text}) & (tt | <{sig.actions[-1]}>ff)"
        apt = formula_to_apt(parse_formula(text, sig, 1), sig)
        got, want = acceptance_game(apt, g), ref_acceptance_game(apt, g)
        assert got.labels == want.labels, k
        assert got.owner == want.owner, k
        assert got.priority == want.priority, k
        # each position's moves as a set: the game lists a node's successors
        # in edge order, the reference in node-id order
        assert list(map(sorted, got.moves)) == list(map(sorted, want.moves)), k
        assert got.initial == want.initial, k
        constants += "tt" in apt.states or "ff" in apt.states
        two_actions += len(sig.actions) == 2
    assert constants >= 64 and two_actions >= 100 and odd == 160


def test_solver_matches_recursive_reference_on_larger_acceptance_games():
    for k in range(40):
        rng = Xorshift.substream(4474, k)
        sig = rand_base_signature(rng)
        g = rand_graph(rng, sig, 40, min_nodes=20, edge_den=12)
        if k % 2:
            g = with_odd_ids(g, rng)
        apt = formula_to_apt(rand_formula(rng, sig, 1, 14), sig)
        gm = acceptance_game(apt, g)
        winner = solve_parity(gm)
        assert winner == ref_solve_parity(gm), k
        assert acceptance_winners(apt, g) == winner, k


def test_solver_matches_recursive_reference_with_duplicate_moves():
    # p0 may only move to p3, twice; p1 (Forall) keeps one escape after
    # the first copy of its doubled move is attracted
    g = game(
        [FORALL, FORALL, EXISTS, EXISTS, FORALL],
        [0, 1, 2, 1, 0],
        [(3, 3), (3, 3, 4), (2, 2), (4,), (1, 4, 4)],
    )
    assert solve_parity(g) == ref_solve_parity(g)
    for k in range(300):
        rng = Xorshift.substream(4475, k)
        n = rng.randint(1, 30)
        owner = [rng.below(2) for _ in range(n)]
        prio = [rng.below(6) for _ in range(n)]
        moves = []
        for _ in range(n):
            ms = [rng.below(n) for _ in range(rng.randint(0, 4))]
            moves.append(sorted(ms + ms[:rng.below(len(ms) + 1)]))
        g = game(owner, prio, moves)
        assert solve_parity(g) == ref_solve_parity(g), k


def edgeless(n):
    return LabeledGraph(SIG_AF, [str(k) for k in range(n)], "0", [], {})


def test_acceptance_game_refuses_too_many_positions_before_allocating():
    g = edgeless(70_000)
    apt = formula_to_apt(parse_formula("<a>" * 15 + "f", SIG_AF, 1), SIG_AF)
    assert len(apt.states) == 16  # 1,120,000 positions
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as exc:
            acceptance_game(apt, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "acceptance_game: more than 1048576 positions"
    assert peak < 1 << 20


def test_acceptance_game_budget_admits_exactly_the_limit(monkeypatch):
    monkeypatch.setattr(automata, "_MAX_NODES", 48)
    apt = formula_to_apt(parse_formula("<a>" * 15 + "f", SIG_AF, 1), SIG_AF)
    assert len(acceptance_game(apt, edgeless(3)).labels) == 48
    with pytest.raises(ResourceLimitError, match="more than 48 positions"):
        acceptance_game(apt, edgeless(4))


def test_acceptance_refuses_the_game_budget_before_allocating(monkeypatch):
    # the product solver shares the game's check: 20,000 nodes of 16 states
    # would take megabytes of per-position lists
    monkeypatch.setattr(automata, "_MAX_NODES", 48)
    apt = formula_to_apt(parse_formula("<a>" * 15 + "f", SIG_AF, 1), SIG_AF)
    assert accepts(apt, edgeless(3)) is False
    g = edgeless(20_000)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as exc:
            accepts(apt, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "acceptance_game: more than 48 positions"
    assert peak < 1 << 20


def test_acceptance_game_refuses_too_many_moves_before_allocating():
    # 190 modal states on the complete a-graph of 300 nodes: 57,300
    # positions, under the position cap, and 190 * 90,000 = 17,100,000 moves
    n = 300
    g = LabeledGraph(SIG_AF, [str(v) for v in range(n)], "0",
                     [(str(u), "a", str(w)) for u in range(n) for w in range(n)], {})
    apt = formula_to_apt(parse_formula("<a>" * 190 + "f", SIG_AF, 1), SIG_AF)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as exc:
            acceptance_game(apt, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "acceptance_game: more than 16777216 moves"
    assert peak < 1 << 20, peak


def test_acceptance_game_move_budget_admits_exactly_the_limit(monkeypatch):
    # modal, boolean and literal states, and a conjunction of one state with
    # itself, which moves once; acceptance_winners builds no moves, so the
    # budget leaves it alone
    sig = Signature(("a", "b"), ("f", "g"))
    g = rand_graph(Xorshift.substream(4481, 0), sig, 12, min_nodes=12, edge_den=4)
    apts = [formula_to_apt(parse_formula(text, sig, 1), sig)
            for text in PATTERNS + ("mu X. (f | <a>X) & (f | <a>X)",)]
    games = [acceptance_game(apt, g) for apt in apts]
    for apt, game in zip(apts, games):
        winner, moves = solve_parity(game), sum(map(len, game.moves))
        monkeypatch.setattr(automata, "_MAX_MOVES", moves)
        assert sum(map(len, acceptance_game(apt, g).moves)) == moves
        monkeypatch.setattr(automata, "_MAX_MOVES", moves - 1)
        with pytest.raises(ResourceLimitError, match=f"^acceptance_game: more than {moves - 1} moves$"):
            acceptance_game(apt, g)
        monkeypatch.setattr(automata, "_MAX_MOVES", 0)
        assert acceptance_winners(apt, g) == winner, apt.states[apt.initial]


# ------------------------------------------------------------- runs on trees


def chain_tree(length, last_color="f"):
    nodes = [f"n{i}" for i in range(length)]
    edges = [(f"n{i}", "a", f"n{i+1}") for i in range(length - 1)]
    labels = {nodes[-1]: [last_color]} if last_color else {}
    return FiniteTree(SIG_AF, nodes, "n0", edges, labels)


def test_winning_state_sets_on_chain():
    tree = chain_tree(4)
    apt = formula_to_apt(parse_formula("mu X. f | <a>X", SIG_AF, 1), SIG_AF)
    sets = winning_state_sets(apt, tree, [f"n{i}" for i in range(4)])
    assert len(sets) == 4
    q_f = apt.states.index("f@0")
    q_mu = 0
    assert all(q_mu in s for s in sets)
    assert [q_f in s for s in sets] == [False, False, False, True]


def test_find_pumping_pair_on_long_chain():
    apt = formula_to_apt(parse_formula("mu X. f | <a>X", SIG_AF, 1), SIG_AF)
    n = 2 ** len(apt.states) + 1
    tree = chain_tree(n + 3)
    path = [f"n{i}" for i in range(n + 1)]
    i, j = find_pumping_pair(apt, tree, path)
    assert (i, j) == (1, 2)
    sets = winning_state_sets(apt, tree, path)
    assert sets[i] == sets[j]


def test_find_pumping_pair_errors():
    apt = formula_to_apt(parse_formula("mu X. f | <a>X", SIG_AF, 1), SIG_AF)
    n = 2 ** len(apt.states) + 1
    with pytest.raises(PolymuError, match="need at least"):
        find_pumping_pair(apt, chain_tree(5), [f"n{i}" for i in range(5)])
    tree = chain_tree(n + 3, last_color=None)
    with pytest.raises(PolymuError, match="does not accept"):
        find_pumping_pair(apt, tree, [f"n{i}" for i in range(n + 1)])
    with pytest.raises(PolymuError, match="start at the root"):
        winning_state_sets(apt, chain_tree(4), ["n1", "n2"])
    with pytest.raises(PolymuError, match="path breaks"):
        winning_state_sets(apt, chain_tree(4), ["n0", "n2"])


def test_acceptance_game_signature_mismatch():
    apt = formula_to_apt(parse_formula("f", SIG_AF, 1), SIG_AF)
    g = make_graph(SIG_ABF, ["0"], "0", [], {})
    for solve in (acceptance_game, accepts, acceptance_winners):
        with pytest.raises(PolymuError) as exc:
            solve(apt, g)
        assert str(exc.value) == "acceptance_game: graph and automaton signatures differ"
