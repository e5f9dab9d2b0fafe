import itertools
from collections import Counter, deque

import pytest

from polymu import Signature
from polymu.bisim import quotient
from polymu.errors import GraphFormatError, PolymuError
from polymu.graphs import LabeledGraph, power, split_lifted, unlift
from polymu.queries import (
    NonUnivVerdict,
    one_letter_non_universal,
    one_lifted_non_universal,
    reach_by_squaring,
    two_letter_non_universal,
    two_lifted_non_universal,
    verify_one_lifted_witness,
    verify_two_lifted_witness,
)
from polymu.randgen import Xorshift, rand_graph, rand_lifted_graph

from conftest import SIG_AF, make_graph, make_loop3, succ

SIG_ABF = Signature(("a", "b"), ("f",))


def nfa1(nodes, root, edges, accepting):
    return make_graph(SIG_AF, nodes, root, edges, {v: ["f"] for v in accepting})


def nfa2(nodes, root, edges, accepting):
    return make_graph(SIG_ABF, nodes, root, edges, {v: ["f"] for v in accepting})


def test_one_letter_basics():
    g = nfa1(["0"], "0", [("0", "a", "0")], [])
    assert one_letter_non_universal(g) == NonUnivVerdict(True, 0)
    g = nfa1(["0"], "0", [("0", "a", "0")], ["0"])
    assert one_letter_non_universal(g) == NonUnivVerdict(False, None)
    assert one_letter_non_universal(make_loop3()) == NonUnivVerdict(True, 0)


def test_one_letter_least_witness_and_empty_level():
    g = nfa1(["0", "1"], "0", [("0", "a", "1"), ("1", "a", "1")], ["0"])
    assert one_letter_non_universal(g) == NonUnivVerdict(True, 1)
    # no outgoing edges: level 1 is empty, which accepts nothing
    g = nfa1(["0"], "0", [], ["0"])
    assert one_letter_non_universal(g) == NonUnivVerdict(True, 1)
    g = nfa1(["0", "1"], "0", [("0", "a", "1"), ("1", "a", "0")], ["0", "1"])
    assert one_letter_non_universal(g) == NonUnivVerdict(False, None)


PRIMES = (2, 3, 5, 7, 11, 13)


def six_prime_cycles():
    """The root reaches position 1 of one a-cycle per prime, and only the
    cycles' positions 0 lack f."""
    nodes, edges, accepting = ["r"], [], ["r"]
    for p in PRIMES:
        cycle = [f"c{p}.{k}" for k in range(p)]
        nodes += cycle
        accepting += cycle[1:]
        edges.append(("r", "a", cycle[1]))
        edges += [(v, "a", cycle[(k + 1) % p]) for k, v in enumerate(cycle)]
    return nfa1(nodes, "r", edges, accepting)


def test_one_letter_least_word_on_six_prime_cycles():
    """The least n is the product of the primes.  Breadth-first search
    explores one state per level."""
    assert one_letter_non_universal(six_prime_cycles()) == NonUnivVerdict(True, 30030)


def test_reach_by_squaring_pins():
    g = make_loop3()
    assert reach_by_squaring(g, 0) == {"0"}
    # levels go {0},{1},{2},{1},...
    assert reach_by_squaring(g, 3) == {"1"}
    assert reach_by_squaring(g, 4) == {"2"}
    with pytest.raises(PolymuError, match=">= 0"):
        reach_by_squaring(g, -1)


def test_reach_by_squaring_on_six_prime_cycles_matches_the_closed_form():
    """n steps from the root reach position n mod p of each p-cycle, for n
    around every power of two up to 2^60, around the least word 30030, and
    at 10^18."""
    g = six_prime_cycles()
    ns = {m for k in range(61) for m in (2**k - 1, 2**k, 2**k + 1)} | {30029, 30030, 30031, 10**18}
    for n in sorted(ns):
        want = {f"c{p}.{n % p}" for p in PRIMES} if n else {"r"}
        assert reach_by_squaring(g, n) == want, n


def test_reach_by_squaring_matches_bfs_levels():
    for k in range(40):
        rng = Xorshift.substream(5511, k)
        g = rand_graph(rng, SIG_AF, 6)
        level = frozenset({g.root})
        for n in range(65):
            assert reach_by_squaring(g, n) == level, (k, n)
            level = frozenset(w for v in level for w in succ(g, v, "a"))


def test_two_letter_basics():
    g = nfa2(["0"], "0", [("0", "a", "0"), ("0", "b", "0")], ["0"])
    assert two_letter_non_universal(g) == NonUnivVerdict(False, None)
    # accepts exactly words containing an a
    g = nfa2(["0", "1"], "0",
             [("0", "b", "0"), ("0", "a", "1"), ("1", "a", "1"), ("1", "b", "1")],
             ["1"])
    assert two_letter_non_universal(g) == NonUnivVerdict(True, "")
    # start accepting, a leads to a rejecting trap
    g = nfa2(["0", "1"], "0",
             [("0", "a", "1"), ("0", "b", "0"), ("1", "a", "1"), ("1", "b", "1")],
             ["0"])
    assert two_letter_non_universal(g) == NonUnivVerdict(True, "a")


def test_two_letter_prefers_lex_least():
    # every length-2 word works; aa must win
    g = nfa2(["0", "1", "2"], "0",
             [("0", "a", "1"), ("0", "b", "1"), ("1", "a", "2"), ("1", "b", "2"),
              ("2", "a", "2"), ("2", "b", "2")],
             ["0", "1"])
    assert two_letter_non_universal(g) == NonUnivVerdict(True, "aa")


def test_two_letter_len_cap():
    g = nfa2(["0", "1"], "0",
             [("0", "a", "1"), ("0", "b", "0"), ("1", "a", "1"), ("1", "b", "1")],
             ["0"])
    v = two_letter_non_universal(g, len_cap=0)
    assert v == NonUnivVerdict(False, None, True)
    assert v.exhausted_bound
    assert two_letter_non_universal(g, len_cap=1) == NonUnivVerdict(True, "a")


def brute_two_letter(g, cap):
    acts = sorted(g.signature.actions)
    f = g.signature.colors[0]
    for ln in range(cap + 1):
        for word in itertools.product(acts, repeat=ln):
            sub = frozenset({g.root})
            for x in word:
                sub = _ref_image(g, sub, x)
            if _ref_free(g, f, sub):
                return True, "".join(word)
    return False, None


def test_two_letter_matches_word_enumeration():
    members = 0
    for k in range(40):
        rng = Xorshift.substream(6123, k)
        g = rand_graph(rng, SIG_ABF, 3, color_num=1, color_den=2)
        want_member, want_word = brute_two_letter(g, 8)
        got = two_letter_non_universal(g)
        assert got.member == want_member, k
        assert got.witness == want_word, k
        members += got.member
    assert 0 < members < 40


def test_verdict_json():
    v = NonUnivVerdict(True, "ab", False)
    assert v.to_json() == '{"exhausted_bound":false,"member":true,"witness":"ab"}'
    assert NonUnivVerdict(True, 0).as_dict() == {
        "member": True, "witness": 0, "exhausted_bound": False,
    }


def test_signature_validation():
    g2 = nfa2(["0"], "0", [], [])
    with pytest.raises(GraphFormatError, match="one_letter_non_universal"):
        one_letter_non_universal(g2)
    g1 = nfa1(["0"], "0", [], [])
    with pytest.raises(GraphFormatError, match="two_letter_non_universal"):
        two_letter_non_universal(g1)
    with pytest.raises(GraphFormatError):
        one_lifted_non_universal(g1, 1)
    with pytest.raises(GraphFormatError, match="dimension"):
        one_lifted_non_universal(power(g1, 2), 1)
    with pytest.raises(GraphFormatError, match="2 action"):
        two_lifted_non_universal(power(g1, 2), 2)
    two_col = make_graph(Signature(("a",), ("f", "g")), ["0"], "0", [], {})
    with pytest.raises(GraphFormatError, match="one color"):
        one_lifted_non_universal(power(two_col, 2), 2)


# ------------------------------------------------------------ lifted queries


def test_one_lifted_pins():
    reject_loop = nfa1(["0"], "0", [("0", "a", "0")], [])
    assert one_lifted_non_universal(power(reject_loop, 2), 2) == NonUnivVerdict(True, 0)
    assert one_lifted_non_universal(power(make_loop3(), 2), 2) == NonUnivVerdict(True, 0)
    accept_loop = nfa1(["0"], "0", [("0", "a", "0")], ["0"])
    assert one_lifted_non_universal(power(accept_loop, 2), 2) == NonUnivVerdict(False, None)


def test_one_lifted_len_cap():
    g = nfa1(["0", "1"], "0", [("0", "a", "1"), ("1", "a", "1")], ["0"])
    lifted = power(g, 2)
    assert one_lifted_non_universal(lifted, 2) == NonUnivVerdict(True, 1)
    assert one_lifted_non_universal(lifted, 2, len_cap=0) == NonUnivVerdict(False, None, True)


def test_one_lifted_agrees_with_base_on_powers():
    members = 0
    for k in range(40):
        rng = Xorshift.substream(37100, k)
        g = rand_graph(rng, SIG_AF, 4, color_num=1, color_den=2)
        base = one_letter_non_universal(g)
        for d in (1, 2):
            lifted = one_lifted_non_universal(power(g, d), d)
            assert lifted.member == base.member, (k, d)
            if base.member:
                assert lifted.witness == base.witness, (k, d)
                assert verify_one_lifted_witness(power(g, d), d, base.witness)
        members += base.member
    assert 0 < members < 40


def test_two_lifted_pins():
    accept_loop = nfa2(["0"], "0", [("0", "a", "0"), ("0", "b", "0")], ["0"])
    assert two_lifted_non_universal(power(accept_loop, 2), 2) == NonUnivVerdict(False, None)
    reject_loop = nfa2(["0"], "0", [("0", "a", "0"), ("0", "b", "0")], [])
    assert two_lifted_non_universal(power(reject_loop, 2), 2) == NonUnivVerdict(True, "")


def test_two_lifted_agrees_with_base_on_powers():
    members = 0
    for k in range(30):
        rng = Xorshift.substream(40210, k)
        g = rand_graph(rng, SIG_ABF, 3, color_num=1, color_den=2)
        base = two_letter_non_universal(g)
        for d in (1, 2):
            lifted = two_lifted_non_universal(power(g, d), d)
            assert lifted.member == base.member, (k, d)
            if base.member:
                assert lifted.witness == base.witness, (k, d)
                assert verify_two_lifted_witness(power(g, d), d, base.witness)
        members += base.member
    assert 0 < members < 30


def duplicate_node(g, v):
    # split v into bisimilar twins
    twin = v + "_twin"
    nodes = list(g.nodes) + [twin]
    edges = list(g.edges)
    for (u, a, w) in g.edges:
        if w == v:
            edges.append((u, a, twin))
        if u == v:
            edges.append((twin, a, w))
    if v == g.root:
        raise ValueError("pick a non-root node")
    labels = {u: g.label(u) for u in g.nodes}
    labels[twin] = g.label(v)
    return LabeledGraph(g.signature, nodes, g.root, edges, labels)


def test_member_is_bisimulation_invariant():
    for k in range(25):
        rng = Xorshift.substream(88321, k)
        g = rand_graph(rng, SIG_AF, 4, min_nodes=2, color_num=1, color_den=2)
        base = one_letter_non_universal(g).member
        assert one_letter_non_universal(quotient(g)).member == base, k
        assert one_letter_non_universal(duplicate_node(g, g.nodes[1])).member == base, k
    for k in range(25):
        rng = Xorshift.substream(88322, k)
        g = rand_graph(rng, SIG_ABF, 3, min_nodes=2, color_num=1, color_den=2)
        base = two_letter_non_universal(g)
        assert two_letter_non_universal(quotient(g)) == base, k
        assert two_letter_non_universal(duplicate_node(g, g.nodes[1])) == base, k


# ------------------------------------------- the searches and replays they replaced
#
# Frozenset-based copies of the four hand-written searches and the two
# path replays that the shared subset search and progress replay took
# over.  They are the reference the tests below compare against.


def _ref_image(g, sub, a):
    return frozenset(w for u, b, w in g.edges if b == a and u in sub)


def _ref_free(g, f, sub):
    return not any(f in g.label(v) for v in sub)


def ref_one_letter(g):
    a, f = g.signature.actions[0], g.signature.colors[0]
    cur, seen, n = frozenset({g.root}), set(), 0
    while True:
        if _ref_free(g, f, cur):
            return NonUnivVerdict(True, n)
        if cur in seen:
            return NonUnivVerdict(False, None)
        seen.add(cur)
        cur = _ref_image(g, cur, a)
        n += 1


def ref_two_letter(g, cap):
    acts, f = sorted(g.signature.actions), g.signature.colors[0]
    start = frozenset({g.root})
    seen, queue, exhausted = {start}, deque([(start, "")]), False
    while queue:
        cur, word = queue.popleft()
        if _ref_free(g, f, cur):
            return NonUnivVerdict(True, word)
        if cap is not None and len(word) >= cap:
            exhausted = True
            continue
        for x in acts:
            nxt = _ref_image(g, cur, x)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, word + x))
    return NonUnivVerdict(False, None, exhausted)


class RefView:
    """Component i: other components' edges silent, rst@i refreshes the start."""

    def __init__(self, g, i, counted):
        self.g = g
        skip = {f"{x}@{i}" for x in counted}
        reset = f"rst@{i}"
        self.eps = {v: [] for v in g.nodes}
        for (u, act, w) in g.edges:
            if act not in skip and act != reset:
                self.eps[u].append(w)
        reach, todo = {g.root}, [g.root]
        while todo:
            v = todo.pop()
            for (u, _, w) in g.edges:
                if u == v and w not in reach:
                    reach.add(w)
                    todo.append(w)
        starts = {g.root} | {w for (u, act, w) in g.edges if act == reset and u in reach}
        self.start = self.closure(starts)

    def closure(self, sub):
        out, todo = set(sub), list(sub)
        while todo:
            for w in self.eps[todo.pop()]:
                if w not in out:
                    out.add(w)
                    todo.append(w)
        return frozenset(out)

    def step(self, sub, lifted_action):
        return self.closure(_ref_image(self.g, sub, lifted_action))


def ref_lifted(g, d, cap, one_letter):
    base, _ = split_lifted(g.signature)
    acts, f = sorted(base.actions), base.colors[0]
    views = [RefView(g, i, acts) for i in range(d)]
    start = tuple(view.start for view in views)
    seen, queue, exhausted = {start}, deque([(start, ())]), False
    while queue:
        cur, word = queue.popleft()
        if all(_ref_free(g, f"{f}@{i}", cur[i]) for i in range(d)):
            return NonUnivVerdict(True, len(word) if one_letter else "".join(word))
        if cap is not None and len(word) >= cap:
            exhausted = True
            continue
        for x in acts:
            nxt = tuple(view.step(cur[i], f"{x}@{i}") for i, view in enumerate(views))
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, word + (x,)))
    return NonUnivVerdict(False, None, exhausted)


def ref_verify(g, d, letters, one_letter):
    """Saturating counts (one letter) or progress with a dead marker -1."""
    base, _ = split_lifted(g.signature)
    f, full = base.colors[0], len(letters)
    start = (g.root, (0,) * d)
    seen, todo = {start}, [start]
    while todo:
        v, prog = todo.pop()
        if any(prog[i] == full and f"{f}@{i}" in g.label(v) for i in range(d)):
            return False
        for (u, act, w) in g.edges:
            if u != v:
                continue
            name, i = act.split("@")[0], int(act.split("@")[1])
            ps = list(prog)
            if name == "rst":
                ps[i] = 0
            elif one_letter:
                ps[i] = min(ps[i] + 1, full + 1)
            elif ps[i] != -1 and ps[i] < full and letters[ps[i]] == name:
                ps[i] += 1
            else:
                ps[i] = -1
            state = (w, tuple(ps))
            if state not in seen:
                seen.add(state)
                todo.append(state)
    return True


def lifted_corpus(base, seed, count):
    """Random lifted graphs that are not powers, so components differ;
    every other draw may leave nodes (and their resets) unreachable."""
    for k in range(count):
        rng = Xorshift.substream(seed, k)
        d = 1 + k % 3
        yield k, d, rand_lifted_graph(rng, base, d, 6, base_reachable=k % 2 == 0)


def test_lifted_queries_match_the_replaced_searches():
    kinds = Counter()
    for base, one in ((SIG_AF, True), (SIG_ABF, False)):
        for k, d, g in lifted_corpus(base, 51700 + one, 120):
            for cap in (None, 0, 1, 2, 3):
                if one:
                    got = one_lifted_non_universal(g, d, len_cap=cap)
                else:
                    got = two_lifted_non_universal(g, d, len_cap=cap)
                assert got == ref_lifted(g, d, cap, one), (base, k, cap)
                kinds[one, got.member, got.exhausted_bound, got.witness in (0, "")] += 1
    for one in (True, False):
        assert kinds[one, True, False, False] > 0  # a non-empty witness
        assert kinds[one, False, False, False] > 0  # universal
        assert kinds[one, False, True, False] > 0  # cut off by the cap


def test_plain_queries_match_the_replaced_searches():
    members = Counter()
    for k in range(150):
        rng = Xorshift.substream(52800, k)
        g = rand_graph(rng, SIG_AF, 6, color_num=1, color_den=2)
        got = one_letter_non_universal(g)
        assert got == ref_one_letter(g), k
        members["one", got.member] += 1
        g = rand_graph(rng, SIG_ABF, 4, color_num=1 + k % 2, color_den=2)
        for cap in (None, 0, 1, 2, 3):
            got = two_letter_non_universal(g, cap)
            assert got == ref_two_letter(g, cap), (k, cap)
            members["two", got.member] += 1
    assert all(members[q, m] > 0 for q in ("one", "two") for m in (True, False))


def test_witness_replays_match_the_replaced_replays():
    verdicts = Counter()
    for base, one in ((SIG_AF, True), (SIG_ABF, False)):
        for k, d, g in lifted_corpus(base, 53900 + one, 60):
            if one:
                for n in range(6):
                    got = verify_one_lifted_witness(g, d, n)
                    assert got == ref_verify(g, d, ("a",) * n, True), (k, n)
                    verdicts[one, got] += 1
            else:
                for ln in range(4):
                    for word in itertools.product(("a", "b"), repeat=ln):
                        got = verify_two_lifted_witness(g, d, word)
                        assert got == ref_verify(g, d, word, False), (k, word)
                        verdicts[one, got] += 1
    assert all(verdicts[one, ok] > 0 for one in (True, False) for ok in (True, False))


def test_replays_reject_malformed_witnesses():
    accept = nfa1(["0"], "0", [], ["0"])
    with pytest.raises(PolymuError, match="n must be >= 0"):
        verify_one_lifted_witness(power(accept, 2), 2, -1)
    go_stop = make_graph(Signature(("go", "stop"), ("f",)), ["0"], "0",
                         [("0", "go", "0"), ("0", "stop", "0")], {"0": ["f"]})
    p = power(go_stop, 2)
    with pytest.raises(PolymuError, match="'s' is not an action"):
        verify_two_lifted_witness(p, 2, "stop")
    # a sequence of action names is the witness form; f holds everywhere
    assert not verify_two_lifted_witness(p, 2, ("go", "stop"))
    assert not verify_two_lifted_witness(p, 2, ["stop"])


def joint_replay(g, d, f, letters):
    """The lifted replay as one walk over (node, one progress counter per
    component) states, O(|V|·(n+2)^d) of them; the library walks each
    component on its own."""
    full = len(letters)
    dead = full + 1
    out = [[] for _ in g.nodes]
    for act, pairs in g._moves.items():
        x, i = unlift(act)
        for u, w in pairs:
            out[u].append((x, i, w))
    accepting = [f"{f}@{i}" for i in range(d)]
    start = (g.index[g.root], (0,) * d)
    seen, todo = {start}, [start]
    while todo:
        v, prog = todo.pop()
        if any(p == full and c in g.label(g.nodes[v]) for p, c in zip(prog, accepting)):
            return False
        for x, i, w in out[v]:
            ps = list(prog)
            if x == "rst":
                ps[i] = 0
            elif ps[i] < full and letters[ps[i]] == x:
                ps[i] += 1
            else:
                ps[i] = dead
            state = (w, tuple(ps))
            if state not in seen:
                seen.add(state)
                todo.append(state)
    return True


def test_replay_per_component_matches_the_joint_walk():
    """xcheck suite 6's automata lifted at d = 1, 2 (every fifth one) with
    levels around their least n, and random lifted graphs with two-letter
    words, including graphs that are not powers."""
    from polymu.xcheck import _enum_one_letter_nfas

    verdicts = Counter()
    for k, g in enumerate(_enum_one_letter_nfas()):
        if k % 5:
            continue
        n = one_letter_non_universal(g).witness or 0
        for d in (1, 2):
            pg = power(g, d)
            for m in {max(n - 1, 0), n, n + 1}:
                got = verify_one_lifted_witness(pg, d, m)
                assert got == joint_replay(pg, d, "f", ("a",) * m), (k, d, m)
                verdicts[got] += 1
    for base, one in ((SIG_AF, True), (SIG_ABF, False)):
        for k, d, g in lifted_corpus(base, 54100 + one, 150):
            words = [("a",) * n for n in range(6)] if one else \
                [w for ln in range(4) for w in itertools.product(("a", "b"), repeat=ln)]
            verify = verify_one_lifted_witness if one else verify_two_lifted_witness
            for word in words:
                got = verify(g, d, len(word) if one else word)
                assert got == joint_replay(g, d, "f", word), (k, word)
                verdicts[got] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 1000, verdicts


def test_lifted_replay_of_the_five_prime_graph():
    """power(g, 2) of the prime-cycle graph with primes 2..11: the least
    n is 2310, and the joint walk would visit up to 841 · 2312^2 states."""
    nodes, edges, accepting = ["r"], [], ["r"]
    for p in (2, 3, 5, 7, 11):
        cycle = [f"c{p}.{k}" for k in range(p)]
        nodes += cycle
        accepting += cycle[1:]
        edges.append(("r", "a", cycle[1]))
        edges += [(v, "a", cycle[(k + 1) % p]) for k, v in enumerate(cycle)]
    pg = power(nfa1(nodes, "r", edges, accepting), 2)
    assert one_lifted_non_universal(pg, 2) == NonUnivVerdict(True, 2310)
    assert not verify_one_lifted_witness(pg, 2, 2309)
    assert not verify_one_lifted_witness(pg, 2, 2311)
