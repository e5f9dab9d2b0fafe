import pytest

from polymu.graphs import RESET, lift_signature, split_lifted
from polymu.logic import (
    check_d_rooted,
    monofy,
    polyfy,
    print_formula,
    validate_formula,
)
from polymu.randgen import (
    Xorshift,
    rand_base_signature,
    rand_d_rooted_formula,
    rand_formula,
    rand_graph,
    rand_lifted_graph,
    rand_lifted_unary_formula,
)

from conftest import SIG_AF, succ


def test_stream_is_pinned():
    r = Xorshift(1)
    assert [r.next_u64() for _ in range(4)] == [
        5180492295206395165,
        12380297144915551517,
        13389498078930870103,
        5599127315341312413,
    ]


def test_zero_states_are_replaced():
    assert Xorshift(0).state == 0x9E3779B97F4A7C15
    wrap = (1 << 64) - 0x9E3779B97F4A7C15
    assert Xorshift.substream(wrap, 0).state == 0x9E3779B97F4A7C15


def test_substreams_differ_and_repeat():
    a = Xorshift.substream(42, 0)
    b = Xorshift.substream(42, 1)
    assert a.state != b.state
    assert Xorshift.substream(42, 0).next_u64() == Xorshift.substream(42, 0).next_u64()


def test_draw_helpers():
    r = Xorshift(7)
    for _ in range(50):
        assert 0 <= r.below(10) < 10
        assert 3 <= r.randint(3, 5) <= 5
        assert r.choice("xyz") in "xyz"
        assert r.chance(0, 5) is False
        assert r.chance(5, 5) is True
    with pytest.raises(ValueError):
        r.below(0)


def test_rand_graph_shape():
    for k in range(20):
        rng = Xorshift.substream(300, k)
        g = rand_graph(rng, SIG_AF, 5)
        assert 1 <= len(g.nodes) <= 5
        assert g.root == "0"
    # determinism
    g1 = rand_graph(Xorshift.substream(301, 3), SIG_AF, 5)
    g2 = rand_graph(Xorshift.substream(301, 3), SIG_AF, 5)
    assert g1 == g2


def test_rand_lifted_graph_reachable_without_resets():
    for k in range(20):
        rng = Xorshift.substream(400, k)
        g = rand_lifted_graph(rng, SIG_AF, 2, 9)
        base, d = split_lifted(g.signature)
        assert (base, d) == (SIG_AF, 2)
        nonreset = [a for a in g.signature.actions if not a.startswith(f"{RESET}@")]
        seen = {g.root}
        todo = [g.root]
        while todo:
            v = todo.pop()
            for a in nonreset:
                for w in succ(g, v, a):
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
        assert seen == set(g.nodes), k


def test_rand_formula_valid():
    sizes = []
    for k in range(60):
        rng = Xorshift.substream(500, k)
        sig = rand_base_signature(rng)
        arity = rng.randint(1, 2)
        phi = rand_formula(rng, sig, arity, 12)
        validate_formula(phi, sig)
        assert phi.arity == arity
        sizes.append(phi._table.size)
    assert max(sizes) <= 12
    assert min(sizes) >= 1


def test_rand_d_rooted_formula():
    for k in range(40):
        rng = Xorshift.substream(600, k)
        d = rng.randint(1, 2)
        phi = rand_d_rooted_formula(rng, SIG_AF, d, 12)
        validate_formula(phi, SIG_AF)
        assert check_d_rooted(phi, d)
        # the monofication round trip is available on every sample
        lifted = monofy(phi, d)
        assert print_formula(polyfy(lifted, d)) == print_formula(phi)


def test_rand_lifted_unary_formula_stays_invertible():
    for k in range(40):
        rng = Xorshift.substream(700, k)
        d = rng.randint(1, 2)
        psi = rand_lifted_unary_formula(rng, SIG_AF, d, 12)
        validate_formula(psi, lift_signature(SIG_AF, d))
        assert f"[{RESET}@" not in print_formula(psi)
        back = polyfy(psi, d)
        assert print_formula(monofy(back, d)) == print_formula(psi)
