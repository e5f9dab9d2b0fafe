"""Formula syntax: parser, printer, arity transforms, generated formulas."""
import random
import re

import pytest

from polymu.automata import formula_to_apt
from polymu.bisim import detect_power
from polymu.errors import FormulaError, GraphFormatError, ParseError
from polymu.graphs import LabeledGraph, Signature, lift_signature, power
from polymu.logic import (
    _Table,
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
    check_d_rooted,
    free_vars,
    gen_bisim_formula,
    gen_is_power_formula,
    gen_per_formula,
    gen_pow_formula,
    gen_rst_formula,
    monofy,
    parse_formula,
    polyfy,
    print_formula,
    validate_formula,
)
from polymu.randgen import Xorshift, rand_formula
from polymu.semantics import evaluate, models

SIG = Signature(["a", "b"], ["f"])
SIG3 = Signature(["a"], ["f", "g", "h"])


def test_parse_basic_shape():
    phi = parse_formula("mu X. f | <a>X | <b>X", SIG, 1)
    want = Mu(
        "X",
        Or(
            Or(Color("f", 0), Diamond("a", 0, Var("X"))),
            Diamond("b", 0, Var("X")),
        ),
    )
    assert phi == Formula(1, want)
    assert print_formula(phi) == "mu X. f@0 | <a@0>X | <b@0>X"


def test_parse_precedence():
    phi = parse_formula("~f & g | h", SIG3, 1)
    assert phi.root == Or(And(Neg(Color("f", 0)), Color("g", 0)), Color("h", 0))
    phi = parse_formula("f | g & h", SIG3, 1)
    assert phi.root == Or(Color("f", 0), And(Color("g", 0), Color("h", 0)))
    phi = parse_formula("(f | g) & h", SIG3, 1)
    assert phi.root == And(Or(Color("f", 0), Color("g", 0)), Color("h", 0))
    phi = parse_formula("[a]<a>f", SIG3, 1)
    assert phi.root == Box("a", 0, Diamond("a", 0, Color("f", 0)))


def test_fixpoint_extends_right():
    phi = parse_formula("mu X. f & nu Y. g | X & Y", SIG3, 1)
    assert phi.root == Mu(
        "X",
        And(
            Color("f", 0),
            Nu("Y", Or(Color("g", 0), And(Var("X"), Var("Y")))),
        ),
    )
    phi2 = parse_formula("<a>mu X. f | <a>X", SIG3, 1)
    assert isinstance(phi2.root, Diamond) and isinstance(phi2.root.sub, Mu)


def test_parse_components_and_replace():
    phi = parse_formula("%{1,1}(f@0 & <a@1>g@1)", SIG3, 2)
    assert phi.root == Replace(
        (1, 1), And(Color("f", 0), Diamond("a", 1, Color("g", 1)))
    )
    with pytest.raises(ParseError, match="lists 3 components"):
        parse_formula("%{0,1,0}f@0", SIG3, 2)
    with pytest.raises(ParseError, match="out of range"):
        parse_formula("%{0,2}f@0", SIG3, 2)


def test_parse_lifted_names():
    lsig = lift_signature(SIG, 2)
    phi = parse_formula("<a@1@0>f@0@1", lsig, 2)
    assert phi.root == Diamond("a@1", 0, Color("f@0", 1))
    # at arity 1 the trailing index may be omitted or explicit
    assert parse_formula("f@0", lsig, 1) == parse_formula("f@0@0", lsig, 1)


def test_parse_errors():
    with pytest.raises(ParseError, match="unknown color 'z'"):
        parse_formula("z", SIG, 1)
    with pytest.raises(ParseError, match="unknown action 'z'"):
        parse_formula("<z>f", SIG, 1)
    with pytest.raises(ParseError, match="out of range"):
        parse_formula("f@1", SIG, 1)
    with pytest.raises(ParseError, match="needs a component index"):
        parse_formula("f", SIG, 2)
    with pytest.raises(ParseError, match="bound twice"):
        parse_formula("mu X. f | mu X. <a>X", SIG, 1)
    with pytest.raises(ParseError, match="bound twice"):
        parse_formula("(mu X. f | X) & mu X. g | X", SIG3, 1)
    with pytest.raises(ParseError, match="negative occurrence"):
        parse_formula("mu X. f | ~X", SIG, 1)
    with pytest.raises(ParseError, match="negative occurrence"):
        parse_formula("mu X. f | ~<a>~~X", SIG, 1)
    with pytest.raises(ParseError, match="trailing input"):
        parse_formula("f f", SIG, 1)
    with pytest.raises(ParseError, match="unexpected character"):
        parse_formula("f ? g", SIG, 1)
    with pytest.raises(ParseError, match="expected a formula"):
        parse_formula("f &", SIG, 1)
    with pytest.raises(ParseError, match="expected a variable name"):
        parse_formula("mu & f", SIG, 1)
    # double negation over a bound variable is fine
    parse_formula("mu X. f | ~~X", SIG, 1)
    # free variables are allowed, as is negating them
    assert free_vars(parse_formula("~Y | f", SIG, 1)) == frozenset({"Y"})


def test_print_round_trip_structural():
    cases = [
        Formula(1, And(Color("f", 0), And(Color("g", 0), Color("h", 0)))),
        Formula(1, Or(Color("f", 0), Or(Color("g", 0), Color("h", 0)))),
        Formula(1, And(Or(Color("f", 0), Color("g", 0)), Color("h", 0))),
        Formula(1, Neg(Mu("X", Or(Color("f", 0), Diamond("a", 0, Var("X")))))),
        Formula(1, And(Mu("X", Var("X")), Color("g", 0))),
        Formula(1, Or(Mu("X", Var("X")), Nu("Y", Var("Y")))),
        Formula(1, Diamond("a", 0, Mu("X", Or(Var("X"), Color("f", 0))))),
        Formula(1, Box("a", 0, TT())),
        Formula(1, Neg(Neg(FF()))),
        Formula(2, Replace((1, 0), Mu("X", Or(Color("f", 1), Var("X"))))),
        Formula(2, And(Replace((0, 0), Color("f", 1)), Color("g", 0))),
    ]
    for phi in cases:
        validate_formula(phi, SIG3)
        text = print_formula(phi)
        assert parse_formula(text, SIG3, phi.arity) == phi, text


def test_print_generated_round_trip():
    lsig = lift_signature(SIG, 2)
    for phi in (
        gen_bisim_formula(0, 1, SIG, 2),
        gen_per_formula(SIG, 2),
        gen_rst_formula(SIG, 2),
        gen_pow_formula(SIG, 2),
    ):
        validate_formula(phi, lsig)
        assert parse_formula(print_formula(phi), lsig, 2) == phi


MIXED_FAULTS = [
    (Formula(1, And(Diamond("a", 1, TT()), Color("q", 0))), "component 1 out of range for arity 1"),
    (Formula(1, And(Color("q", 0), Diamond("a", 1, TT()))), "unknown color 'q'"),
    (Formula(1, Color("q", 5)), "unknown color 'q'"),
    (Formula(0, Color("q", 0)), "arity must be >= 1, got 0"),
    (Formula(1, Mu("X", And(Diamond("z", 0, Neg(Var("X"))), Color("f", 3)))), "unknown action 'z'"),
    (Formula(1, And(Mu("X", Var("X")), Mu("X", Diamond("zz", 0, Var("X"))))),
     "variable 'X' bound twice"),
]


@pytest.mark.parametrize("phi, message", MIXED_FAULTS)
def test_first_fault_in_pre_order_wins_names_first_on_a_node(phi, message):
    sig = Signature(("a", "b"), ("f", "g"))
    g = LabeledGraph(sig, ["0"], "0", [("0", "a", "0")], {"0": ["f"]})
    for check in (lambda: validate_formula(phi, sig), lambda: evaluate(g, phi),
                  lambda: formula_to_apt(phi, sig)):
        with pytest.raises(FormulaError) as err:
            check()
        assert str(err.value) == message


def ref_validate(phi, sig):
    """validate_formula's walk over every entry, run on every formula."""
    t = phi._table
    faults = []
    for e, n in enumerate(t.node):
        if type(n) is Color and n.color not in sig.colors:
            faults.append((t.pre[e], f"unknown color {n.color!r}"))
        elif type(n) in (Diamond, Box) and n.action not in sig.actions:
            faults.append((t.pre[e], f"unknown action {n.action!r}"))
    if t.error is not None:
        faults.append(t.error)
    if faults:
        raise FormulaError(min(faults, key=lambda f: f[0])[1])


def _validation(check, phi, sig):
    try:
        check(phi, sig)
    except FormulaError as e:
        return str(e)
    return None


def test_validation_reads_the_names_and_replacements_the_table_recorded():
    full = Signature(("a", "b", "c"), ("f", "g", "h"))
    sigs = [full] + [Signature([x for x in full.actions if x != a], full.colors)
                     for a in full.actions]
    sigs += [Signature(full.actions, [c for c in full.colors if c != x]) for x in full.colors]
    faults = 0
    phis = [phi for phi, _ in MIXED_FAULTS]
    phis += [Formula(1, Mu("X", Neg(Var("X")))), Formula(2, Replace((0,), Color("f", 1)))]
    phis += [rand_formula(Xorshift.substream(1919, k), full, 1 + k % 3, 4 + k % 13)
             for k in range(300)]
    for phi in phis:
        t = phi._table
        assert t.colors == {n.color for n in t.node if type(n) is Color}
        assert t.actions == {n.action for n in t.node if type(n) in (Diamond, Box)}
        assert t.replaces == [e for e, n in enumerate(t.node) if type(n) is Replace]
        for sig in sigs:
            want = _validation(ref_validate, phi, sig)
            assert _validation(validate_formula, phi, sig) == want, (phi, sig)
            faults += want is not None
    assert 300 < faults < 6 * len(phis)


def test_models_checks_closedness_before_validity():
    sig = Signature(("a", "b"), ("f", "g"))
    g = LabeledGraph(sig, ["0"], "0", [], {})
    with pytest.raises(FormulaError, match="^models needs a closed formula$"):
        models(g, Formula(1, And(Var("Y"), Color("q", 0))))


def test_validate_formula_rejects():
    with pytest.raises(FormulaError, match="bound twice"):
        validate_formula(Formula(1, And(Mu("X", Var("X")), Mu("X", Var("X")))), SIG)
    with pytest.raises(FormulaError, match="negative occurrence"):
        validate_formula(Formula(1, Mu("X", Neg(Var("X")))), SIG)
    with pytest.raises(FormulaError, match="unknown color"):
        validate_formula(Formula(1, Color("q", 0)), SIG)
    with pytest.raises(FormulaError, match="out of range"):
        validate_formula(Formula(1, Diamond("a", 1, TT())), SIG)
    with pytest.raises(FormulaError, match="replacement"):
        validate_formula(Formula(2, Replace((0,), TT())), SIG)
    with pytest.raises(FormulaError, match="arity"):
        validate_formula(Formula(0, TT()), SIG)


_SNIPPETS = ["~", "X0", "X1", "mu X0. ", "nu X1. ", "%{0,1}", "%{1}", "%{2,0,1}", "@2", "@0",
             "<a@1>", "[b@0]", "<q>", "f@2", "g", "&", "|", "(", ")", ".", "tt", "mu"]


def _mutate(rng, text):
    for _ in range(rng.randint(1, 2)):
        k = rng.randrange(len(text) + 1)
        op = rng.randrange(5)
        if op == 0:
            text = text[:k] + rng.choice(_SNIPPETS) + text[k:]
        elif op == 1:
            text = text[:k] + text[k + rng.randint(1, 3):]
        elif op == 2:
            text = text[:k] + rng.choice("abfgqX01~<>[]") + text[k + 1:]
        elif op == 3:
            old, new = rng.sample(rng.choice([["X0", "X1", "X2"], ["@0", "@1", "@2"]]), 2)
            text = text.replace(old, new, rng.randint(1, 2))
        else:
            k = text.rfind("X", 0, k)
            text = text[:k] + "~" + text[k:] if k > 0 else text
    return text


def test_parser_alone_enforces_every_rule():
    # parse_formula runs no second validation pass, so whatever it accepts
    # from mutated texts must already pass validate_formula
    rng = random.Random(9)
    sigs = [SIG, SIG3, lift_signature(SIG, 2)]
    accepted, rejected = 0, ""
    for k in range(3600):
        sig = sigs[k % 3]
        phi = rand_formula(Xorshift.substream(9, k), sig, 1 + k % 3, 2 + k % 11)
        arity = phi.arity if rng.randint(0, 3) else rng.randint(1, 3)
        try:
            psi = parse_formula(_mutate(rng, print_formula(phi)), sig, arity)
        except FormulaError as e:
            rejected += str(e) + "\n"
            continue
        validate_formula(psi, sig)
        accepted += 1
    assert 600 < accepted < 3000
    for rule in ("unknown color", "unknown action", "out of range", "replacement lists",
                 "bound twice", "negative occurrence"):
        assert rejected.count(rule) >= 10, rule


def test_size_and_vars():
    phi = parse_formula("mu X. f | <a>X", SIG, 1)
    t = phi._table
    assert t.size == 5
    assert {t.node[b].var for b in t.start} == {"X"}
    assert free_vars(phi) == frozenset()


ROOTED = "mu X. (f@0 & %{1,1}X) | <a@0>X"


def test_check_d_rooted():
    phi = parse_formula(ROOTED, SIG, 2)
    assert check_d_rooted(phi, 1)
    assert not check_d_rooted(phi, 2)  # wrong arity
    assert not check_d_rooted(parse_formula("f@1", SIG, 2), 1)  # touches comp d
    assert not check_d_rooted(parse_formula("<a@1>f@0", SIG, 2), 1)
    assert not check_d_rooted(parse_formula("%{1,0}f@0", SIG, 2), 1)  # swap
    assert not check_d_rooted(parse_formula("%{0,1}f@0", SIG, 2), 1)  # identity
    assert check_d_rooted(parse_formula("%{2,1,2}f@1", SIG, 3), 2)


def test_monofy_shape():
    phi = parse_formula(ROOTED, SIG, 2)
    psi = monofy(phi, 1)
    lsig = lift_signature(SIG, 1)
    validate_formula(psi, lsig)
    assert psi == Formula(
        1,
        Mu(
            "X",
            Or(
                And(Color("f@0", 0), Diamond("rst@0", 0, Var("X"))),
                Diamond("a@0", 0, Var("X")),
            ),
        ),
    )
    with pytest.raises(FormulaError, match="rooted"):
        monofy(parse_formula("f@1", SIG, 2), 1)


GENERATORS = (gen_bisim_formula, gen_per_formula, gen_rst_formula, gen_pow_formula,
              gen_is_power_formula)


@pytest.fixture(autouse=True)
def fresh_generator_caches():
    """Compile counts do not depend on formulas an earlier test generated."""
    for gen in GENERATORS:
        gen.cache_clear()


def counting_tables(monkeypatch) -> list:
    """The formulas compiled from here on, in order."""
    from polymu import logic

    compiled = []

    class CountingTable(logic._Table):
        __slots__ = ()

        def __init__(self, phi):
            compiled.append(phi)
            super().__init__(phi)

    monkeypatch.setattr(logic, "_Table", CountingTable)
    return compiled


def test_each_formula_compiles_once(monkeypatch):
    """Every formula pass reads the table cached on the Formula; only a
    new Formula object, such as a positive normal form, compiles again."""
    compiled = counting_tables(monkeypatch)
    phi = parse_formula(ROOTED, SIG, 2)
    validate_formula(phi, SIG)
    with pytest.raises(FormulaError, match="unknown action 'a'"):
        validate_formula(phi, Signature(["b"], ["f"]))
    t = phi._table
    assert free_vars(phi) == frozenset() and {t.node[b].var for b in t.start} == {"X"}
    assert t.size == 8
    assert check_d_rooted(phi, 1)
    assert monofy(phi, 1) == monofy(phi, 1)
    g = LabeledGraph(SIG, ["0", "1"], "0", [("0", "a", "1"), ("1", "a", "1")], {"1": ["f"]})
    assert models(g, phi) == (("0", "0") in evaluate(g, phi))
    assert compiled == [phi]
    compiled.clear()
    psi = parse_formula("mu X. f | <a>X", SIG, 1)
    assert formula_to_apt(psi, SIG) == formula_to_apt(psi, SIG)
    # the input once, then one positive normal form per call
    assert compiled[0] is psi and len(compiled) == 3
    assert compiled[1] == compiled[2] and compiled[1] is not compiled[2]
    compiled.clear()
    with pytest.raises(FormulaError, match="rooted"):
        monofy(parse_formula("f@1", SIG, 2), 1)
    assert len(compiled) == 1
    compiled.clear()
    fresh = parse_formula(ROOTED, SIG, 2)
    with pytest.raises(FormulaError, match="rooted"):
        monofy(fresh, 2)  # wrong arity: refused before compiling
    assert compiled == [] and "_table" not in fresh.__dict__


def test_power_formulas_are_built_once_per_signature_and_d(monkeypatch):
    """Equal (signature, d) keys share one Formula, so detect_power on a
    second graph of the same signature compiles nothing."""
    base = Signature(["a"], ["f"])
    same = Signature(["a"], ["f"])
    for gen in GENERATORS[1:]:
        assert gen(base, 2) is gen(same, 2)
        assert gen(base, 2) is not gen(base, 3)
        assert gen.cache_info().maxsize is not None
    assert gen_bisim_formula(0, 1, base, 2) is gen_bisim_formula(0, 1, same, 2)
    assert gen_bisim_formula(0, 1, base, 2) is not gen_bisim_formula(1, 0, base, 2)
    for gen in GENERATORS:
        gen.cache_clear()
    compiled = counting_tables(monkeypatch)
    cycle = LabeledGraph(base, ["0", "1"], "0", [("0", "a", "1"), ("1", "a", "0")], {"1": ["f"]})
    loop = LabeledGraph(base, ["0"], "0", [("0", "a", "0")], {"0": ["f"]})
    assert detect_power(power(cycle, 2), method="logic")
    assert len(compiled) == 1
    compiled.clear()
    assert detect_power(power(loop, 2), method="logic")
    assert compiled == []
    lifted = lift_signature(base, 2)
    for gen in GENERATORS[1:]:
        for _ in range(2):
            with pytest.raises(GraphFormatError, match="already lifted"):
                gen(lifted, 2)
    for _ in range(2):
        with pytest.raises(FormulaError, match="component 2 out of range"):
            gen_bisim_formula(2, 0, base, 2)


def test_table_twins_are_closed_and_equal_up_to_renaming():
    """twin maps each later renamed copy of a closed subformula to the
    first copy; bindings that differ, classes that differ and open
    subformulas get no twin."""
    def twins(text):
        t = parse_formula(text, SIG, 1)._table
        return {print_formula(Formula(1, t.node[e])): print_formula(Formula(1, t.node[f]))
                for e, f in t.twin.items()}

    assert twins("(nu X. <a>X) & nu Y. <a>Y") == {"nu Y. <a@0>Y": "nu X. <a@0>X"}
    assert twins("(mu X. <a>X) & nu Y. <a>Y") == {}
    assert twins("(nu X. f & <a>X) & nu Y. <a>Y & f") == {}
    # the same shape, but the inner variable bound by the other binder
    assert twins("(nu X. mu Y. <a>X | f & <a>Y) & nu Z. mu W. <a>W | f & <a>Z") == {}
    assert twins("(nu X. mu Y. <a>X | f & <a>Y) & nu Z. mu W. <a>Z | f & <a>W") == {
        "nu Z. mu W. <a@0>Z | f@0 & <a@0>W": "nu X. mu Y. <a@0>X | f@0 & <a@0>Y"}
    # a free variable keeps a subformula open
    assert twins("(mu X. V | <a>X) & mu Y. V | <a>Y") == {}
    # closed copies nested in copies, at different binder depths
    text = "(nu X. <a>(mu Y. f | <a>Y) & <a>X) & nu Z. [a](nu U. <a>(mu W. f | <a>W) & <a>U) & Z"
    assert twins(text) == {"mu W. f@0 | <a@0>W": "mu Y. f@0 | <a@0>Y",
                           "<a@0>mu W. f@0 | <a@0>W": "<a@0>mu Y. f@0 | <a@0>Y",
                           "nu U. <a@0>(mu W. f@0 | <a@0>W) & <a@0>U":
                           "nu X. <a@0>(mu Y. f@0 | <a@0>Y) & <a@0>X"}


def binders_evaluated(phi):
    """Binders of phi's table left to run: those with no earlier twin."""
    t = phi._table
    return sum(b not in t.twin for b in t.start), len(t.start)


def test_power_formulas_evaluate_each_bisimulation_once():
    """Over two actions and one color, the renamed copies of a component
    bisimulation or an all-box fixpoint are twins of their first copy."""
    base = Signature(["a", "b"], ["f"])
    assert binders_evaluated(gen_is_power_formula(base, 2)) == (7, 17)
    assert binders_evaluated(gen_is_power_formula(base, 3)) == (12, 39)
    assert binders_evaluated(gen_per_formula(base, 2)) == (4, 10)
    # d^2 distinct bisimulations and one all-box: no twins
    assert binders_evaluated(gen_pow_formula(base, 2)) == (4, 4)
    assert binders_evaluated(gen_rst_formula(base, 2)) == (3, 3)


def test_is_power_formula_conjoins_the_three_formulas():
    """Printed, the is-power formula is the three formulas conjoined, with
    the binders of the later ones renumbered after the earlier ones."""
    base = Signature(["a"], ["f"])
    parts = [gen_per_formula(base, 2), gen_rst_formula(base, 2), gen_pow_formula(base, 2)]
    texts, shift = [], 0
    for phi in parts:
        count = len(phi._table.start)
        text = print_formula(phi)
        for k in reversed(range(count)):  # X10 before X1
            text = re.sub(rf"\bX{k}\b", f"Y{k + shift}", text)
        texts.append(text.replace("Y", "X"))
        shift += count
    phi = gen_is_power_formula(base, 2)
    assert print_formula(phi) == "(" + ") & (".join(texts) + ")"
    assert gen_is_power_formula(base, 2) is phi


def test_replacement_list_of_wrong_length_is_not_d_rooted():
    for mapping in [(0,), (0, 1, 1)]:
        phi = Formula(2, Replace(mapping, TT()))
        assert not check_d_rooted(phi, 1)
        with pytest.raises(FormulaError, match="not 1-rooted"):
            monofy(phi, 1)


def test_polyfy_inverse():
    for text, d in [
        (ROOTED, 1),
        ("nu Y. (g@1 | ~f@0) & [a@2]%{0,3,2,3}Y", 3),
        ("tt & ff", 2),
    ]:
        sig = SIG3 if d == 3 else SIG
        phi = parse_formula(text, sig, d + 1)
        assert check_d_rooted(phi, d)
        assert polyfy(monofy(phi, d), d) == phi


def test_polyfy_rejects_outside_fragment():
    lsig = lift_signature(SIG, 1)
    with pytest.raises(FormulaError, match="no arity-2 counterpart"):
        polyfy(parse_formula("[rst@0]f@0", lsig, 1), 1)
    with pytest.raises(FormulaError, match="no lifted counterpart"):
        polyfy(Formula(1, Replace((0,), TT())), 1)
    with pytest.raises(FormulaError, match="not a lifted name"):
        polyfy(parse_formula("f", SIG, 1), 1)
    with pytest.raises(FormulaError, match="exceeds dimension"):
        polyfy(parse_formula("f@1@0", lift_signature(SIG, 2), 1), 1)
    with pytest.raises(FormulaError, match="arity-1"):
        polyfy(parse_formula("f@0", SIG, 2), 1)
    # of several faults, the first in pre-order is reported
    with pytest.raises(FormulaError, match="replacement nodes"):
        polyfy(parse_formula("%{0}[rst@0]f@0", lsig, 1), 1)
    with pytest.raises(FormulaError, match="no arity-2 counterpart"):
        polyfy(parse_formula("[rst@0]%{0}f@0", lsig, 1), 1)


@pytest.mark.parametrize("d", [0, -1])
def test_monofy_and_polyfy_refuse_a_dimension_below_one(d):
    lsig = lift_signature(SIG, 1)
    with pytest.raises(FormulaError, match=f"^d: must be >= 1, got {d}$"):
        monofy(parse_formula("tt", SIG, 1), d)
    with pytest.raises(FormulaError, match=f"^d: must be >= 1, got {d}$"):
        polyfy(parse_formula("f@0", lsig, 1), d)


def test_monofy_polyfy_round_trip_on_lifted_side():
    lsig = lift_signature(SIG, 2)
    psi = parse_formula("mu X. f@1@0 | <a@0>X | <rst@1>[b@0]X", lsig, 1)
    assert monofy(polyfy(psi, 2), 2) == psi


def test_generated_formulas_are_wellformed():
    for d in (1, 2, 3):
        ls = lift_signature(SIG, d)
        for i in range(d):
            for j in range(d):
                validate_formula(gen_bisim_formula(i, j, SIG, d), ls)
        validate_formula(gen_per_formula(SIG, d), ls)
        validate_formula(gen_rst_formula(SIG, d), ls)
        validate_formula(gen_pow_formula(SIG, d), ls)
    with pytest.raises(FormulaError, match="out of range"):
        gen_bisim_formula(0, 2, SIG, 2)


def test_table_compiles_every_node_class():
    leaf = Color("f", 0)
    nodes = [
        TT(), FF(), leaf, Var("X"), Neg(leaf), And(leaf, TT()), Or(FF(), leaf),
        Diamond("a", 0, leaf), Box("b", 0, leaf), Mu("X", leaf), Nu("Y", leaf),
        Replace((0,), leaf),
    ]
    assert {type(n) for n in nodes} == set(Node.__subclasses__())
    for n in nodes:
        t = _Table(Formula(1, n))
        assert t.error is None, n
        # the root comes last, after one entry per distinct child
        assert t.node[t.root] is n and t.root == len(t.node) - 1
        kids = [t.node[k] for k in t.kids[t.root]]
        assert kids == [getattr(n, f) for f in ("left", "right", "sub", "body") if hasattr(n, f)]
        assert t.size == 1 + len(kids)


def test_table_shares_equal_subformulas_but_keeps_free_and_bound_apart():
    phi = parse_formula("(X & <a>f) | mu X. <a>f & <a>X", SIG, 1)
    t = _Table(phi)
    texts = [print_formula(Formula(1, n)) for n in t.node]
    assert texts.count("<a@0>f@0") == 1
    assert texts.count("X") == 2  # the free X and the bound one
    assert t.size == phi._table.size == 11 and len(t.node) == 9
    assert t.free[t.root] == free_vars(phi) == frozenset({"X"})
    (b,) = t.start
    assert [t.node[e] for e in range(t.start[b], b)] == [Var("X"), Diamond("a", 0, Var("X")),
                                                       And(Diamond("a", 0, Color("f", 0)),
                                                           Diamond("a", 0, Var("X")))]
