"""Formulas of the polyadic modal mu-calculus: syntax, transforms, generators.

An arity-d formula is evaluated over d-tuples of graph nodes.  Atoms
c@i test the color of component i, modalities <a@i> and [a@i] move
component i along a-edges, %{s0,...,s(d-1)} rebuilds the tuple so that
component k reads the old component sk, and mu/nu bind fixpoint
variables.  Derived forms (tt, ff, box, or) are first-class nodes.

Concrete syntax, loosest to tightest: "|", "&", then the prefix
operators "~", "<a@i>", "[a@i]", "%{..}".  Fixpoints "mu X." / "nu X."
extend maximally to the right.  Variables match [A-Z][A-Za-z0-9_]*,
color and action names are lower-case and may themselves carry an @i
suffix when the signature is lifted; the final "@nat" of an atom is
its component index.  At arity 1 the index may be omitted.

Every fixpoint variable must be bound exactly once per formula, and
bound variables may occur only under an even number of negations
inside their binder.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import FormulaError, GraphFormatError, ParseError
from .graphs import RESET, Signature, lift_signature, unlift

# ---------------------------------------------------------------- AST


class Node:
    __slots__ = ()


@dataclass(frozen=True)
class TT(Node):
    pass


@dataclass(frozen=True)
class FF(Node):
    pass


@dataclass(frozen=True)
class Color(Node):
    color: str
    comp: int


@dataclass(frozen=True)
class Var(Node):
    name: str


@dataclass(frozen=True)
class Neg(Node):
    sub: Node


@dataclass(frozen=True)
class And(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Or(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Diamond(Node):
    action: str
    comp: int
    sub: Node


@dataclass(frozen=True)
class Box(Node):
    action: str
    comp: int
    sub: Node


@dataclass(frozen=True)
class Mu(Node):
    var: str
    body: Node


@dataclass(frozen=True)
class Nu(Node):
    var: str
    body: Node


@dataclass(frozen=True)
class Replace(Node):
    # component k of the new tuple reads old component mapping[k]
    mapping: tuple[int, ...]
    sub: Node


@dataclass(frozen=True)
class Formula:
    arity: int
    root: Node


def _children(n: Node) -> tuple[Node, ...]:
    if isinstance(n, (Neg, Diamond, Box, Replace)):
        return (n.sub,)
    if isinstance(n, (And, Or)):
        return (n.left, n.right)
    if isinstance(n, (Mu, Nu)):
        return (n.body,)
    return ()


def map_children(n: Node, f: Callable[[Node], Node]) -> Node:
    """n rebuilt with f applied to each direct child, left to right;
    leaves come back unchanged."""
    if isinstance(n, Neg):
        return Neg(f(n.sub))
    if isinstance(n, (And, Or)):
        return type(n)(f(n.left), f(n.right))
    if isinstance(n, (Diamond, Box)):
        return type(n)(n.action, n.comp, f(n.sub))
    if isinstance(n, Replace):
        return Replace(n.mapping, f(n.sub))
    if isinstance(n, (Mu, Nu)):
        return type(n)(n.var, f(n.body))
    return n


def _walk(n: Node) -> Iterator[Node]:
    yield n
    for c in _children(n):
        yield from _walk(c)


def formula_size(phi: Formula) -> int:
    """Number of AST nodes."""
    return sum(1 for _ in _walk(phi.root))


def _free_map(root: Node) -> dict[int, frozenset[str]]:
    """Free variables per AST node, keyed by object identity."""
    out: dict[int, frozenset[str]] = {}

    def go(n: Node) -> frozenset[str]:
        if id(n) in out:
            return out[id(n)]
        if isinstance(n, Var):
            fv = frozenset({n.name})
        elif isinstance(n, (Mu, Nu)):
            fv = go(n.body) - {n.var}
        else:
            fv = frozenset().union(*map(go, _children(n)))
        out[id(n)] = fv
        return fv

    go(root)
    return out


def free_vars(phi: Formula) -> frozenset[str]:
    return _free_map(phi.root)[id(phi.root)]


def bound_vars(phi: Formula) -> frozenset[str]:
    return frozenset(n.var for n in _walk(phi.root) if isinstance(n, (Mu, Nu)))


def validate_formula(phi: Formula, sig: Signature) -> None:
    """Check names, component indices, unique binding and positivity."""
    if phi.arity < 1:
        raise FormulaError(f"arity must be >= 1, got {phi.arity}")
    actions = set(sig.actions)
    colors = set(sig.colors)
    binders: set[str] = set()

    def go(n: Node, scope: dict[str, int], parity: int):
        if isinstance(n, Color):
            if n.color not in colors:
                raise FormulaError(f"unknown color {n.color!r}")
            if not 0 <= n.comp < phi.arity:
                raise FormulaError(f"component {n.comp} out of range for arity {phi.arity}")
        elif isinstance(n, (Diamond, Box)):
            if n.action not in actions:
                raise FormulaError(f"unknown action {n.action!r}")
            if not 0 <= n.comp < phi.arity:
                raise FormulaError(f"component {n.comp} out of range for arity {phi.arity}")
            go(n.sub, scope, parity)
        elif isinstance(n, Var):
            if n.name in scope and scope[n.name] != parity:
                raise FormulaError(f"negative occurrence of {n.name!r}")
        elif isinstance(n, Neg):
            go(n.sub, scope, 1 - parity)
        elif isinstance(n, (And, Or)):
            go(n.left, scope, parity)
            go(n.right, scope, parity)
        elif isinstance(n, (Mu, Nu)):
            if n.var in binders:
                raise FormulaError(f"variable {n.var!r} bound twice")
            binders.add(n.var)
            scope2 = dict(scope)
            scope2[n.var] = parity
            go(n.body, scope2, parity)
        elif isinstance(n, Replace):
            if len(n.mapping) != phi.arity:
                raise FormulaError(
                    f"replacement lists {len(n.mapping)} components, arity is {phi.arity}"
                )
            for k in n.mapping:
                if not 0 <= k < phi.arity:
                    raise FormulaError(f"component {k} out of range for arity {phi.arity}")
            go(n.sub, scope, parity)
        elif isinstance(n, (TT, FF)):
            pass
        else:
            raise FormulaError(f"unknown node {type(n).__name__}")

    go(phi.root, {}, 0)


# ---------------------------------------------------------------- parser

_PUNCT = "()~&|<>[].%{},"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            toks.append(("punct", ch, i))
            i += 1
            continue
        if ch.islower():
            j = i + 1
            while j < n and (text[j].islower() or text[j].isdigit() or text[j] in "_@"):
                j += 1
            toks.append(("lident", text[i:j], i))
            i = j
            continue
        if ch.isupper():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("uident", text[i:j], i))
            i = j
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("nat", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("eof", "", n))
    return toks


_KEYWORDS = {"mu", "nu", "tt", "ff"}


class _Parser:
    def __init__(self, text: str, sig: Signature, arity: int):
        if arity < 1:
            raise FormulaError(f"arity must be >= 1, got {arity}")
        self.toks = _tokenize(text)
        self.pos = 0
        self.sig = sig
        self.arity = arity
        self.binders: set[str] = set()

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, value: str):
        kind, val, off = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", off)

    def resolve(self, token: str, names, what: str, off: int) -> tuple[str, int]:
        """Split the trailing component index off an atom or action token."""
        if "@" in token:
            prefix, _, suffix = token.rpartition("@")
            if suffix.isdigit() and prefix in names:
                comp = int(suffix)
                if comp >= self.arity:
                    raise ParseError(
                        f"component {comp} out of range for arity {self.arity}", off
                    )
                return prefix, comp
        if token in names:
            if self.arity == 1:
                return token, 0
            raise ParseError(f"{what} {token!r} needs a component index", off)
        raise ParseError(f"unknown {what} {token!r}", off)

    def formula(self, scope: dict[str, int], parity: int) -> Node:
        node = self.conjunct(scope, parity)
        while self.peek()[1] == "|":
            self.next()
            node = Or(node, self.conjunct(scope, parity))
        return node

    def conjunct(self, scope, parity) -> Node:
        node = self.prefix(scope, parity)
        while self.peek()[1] == "&":
            self.next()
            node = And(node, self.prefix(scope, parity))
        return node

    def prefix(self, scope, parity) -> Node:
        kind, val, off = self.peek()
        if val == "~":
            self.next()
            return Neg(self.prefix(scope, 1 - parity))
        if val == "<" or val == "[":
            self.next()
            closing = ">" if val == "<" else "]"
            k2, tok, off2 = self.next()
            if k2 != "lident":
                raise ParseError("expected an action name", off2)
            action, comp = self.resolve(tok, set(self.sig.actions), "action", off2)
            self.expect(closing)
            sub = self.prefix(scope, parity)
            cls = Diamond if val == "<" else Box
            return cls(action, comp, sub)
        if val == "%":
            self.next()
            self.expect("{")
            mapping = [self.nat()]
            while self.peek()[1] == ",":
                self.next()
                mapping.append(self.nat())
            self.expect("}")
            if len(mapping) != self.arity:
                raise ParseError(
                    f"replacement lists {len(mapping)} components, arity is {self.arity}",
                    off,
                )
            for k in mapping:
                if k >= self.arity:
                    raise ParseError(
                        f"component {k} out of range for arity {self.arity}", off
                    )
            return Replace(tuple(mapping), self.prefix(scope, parity))
        if val in ("mu", "nu"):
            return self.fixpoint(scope, parity)
        return self.atom(scope, parity)

    def nat(self) -> int:
        kind, val, off = self.next()
        if kind != "nat":
            raise ParseError("expected a number", off)
        return int(val)

    def fixpoint(self, scope, parity) -> Node:
        kind, val, off = self.next()
        cls = Mu if val == "mu" else Nu
        k2, name, off2 = self.next()
        if k2 != "uident":
            raise ParseError("expected a variable name", off2)
        if name in self.binders:
            raise ParseError(f"variable {name!r} bound twice", off2)
        self.binders.add(name)
        self.expect(".")
        scope2 = dict(scope)
        scope2[name] = parity
        body = self.formula(scope2, parity)
        return cls(name, body)

    def atom(self, scope, parity) -> Node:
        kind, val, off = self.next()
        if val == "(":
            node = self.formula(scope, parity)
            self.expect(")")
            return node
        if kind == "lident":
            if val == "tt":
                return TT()
            if val == "ff":
                return FF()
            if val in _KEYWORDS:
                raise ParseError(f"misplaced keyword {val!r}", off)
            color, comp = self.resolve(val, set(self.sig.colors), "color", off)
            return Color(color, comp)
        if kind == "uident":
            if val in scope and scope[val] != parity:
                raise ParseError(f"negative occurrence of {val!r}", off)
            return Var(val)
        raise ParseError(f"expected a formula, found {val or 'end of input'!r}", off)


def parse_formula(text: str, sig: Signature, arity: int) -> Formula:
    p = _Parser(text, sig, arity)
    node = p.formula({}, 0)
    kind, val, off = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {val!r}", off)
    return Formula(arity, node)


# ---------------------------------------------------------------- printer

_LV_OR, _LV_AND, _LV_PREFIX = 1, 2, 3


def print_formula(phi: Formula) -> str:
    """Canonical text: explicit component indices, minimal parentheses.

    Left-nested chains of one connective print flat; a fixpoint is
    parenthesized unless the rest of the output belongs to its body.
    """

    def go(n: Node, level: int, tail: bool) -> str:
        if isinstance(n, TT):
            return "tt"
        if isinstance(n, FF):
            return "ff"
        if isinstance(n, Color):
            return f"{n.color}@{n.comp}"
        if isinstance(n, Var):
            return n.name
        if isinstance(n, Neg):
            return "~" + go(n.sub, _LV_PREFIX, tail)
        if isinstance(n, Diamond):
            return f"<{n.action}@{n.comp}>" + go(n.sub, _LV_PREFIX, tail)
        if isinstance(n, Box):
            return f"[{n.action}@{n.comp}]" + go(n.sub, _LV_PREFIX, tail)
        if isinstance(n, Replace):
            return "%{" + ",".join(map(str, n.mapping)) + "}" + go(n.sub, _LV_PREFIX, tail)
        if isinstance(n, Or):
            s = go(n.left, _LV_OR, False) + " | " + go(n.right, _LV_AND, tail)
            return f"({s})" if level > _LV_OR else s
        if isinstance(n, And):
            s = go(n.left, _LV_AND, False) + " & " + go(n.right, _LV_PREFIX, tail)
            return f"({s})" if level > _LV_AND else s
        if isinstance(n, (Mu, Nu)):
            kw = "mu" if isinstance(n, Mu) else "nu"
            s = f"{kw} {n.var}. " + go(n.body, _LV_OR, True)
            return s if tail else f"({s})"
        raise FormulaError(f"unknown node {type(n).__name__}")

    return go(phi.root, _LV_OR, True)


# ---------------------------------------------------------------- transforms


def _split_lifted_name(name: str) -> tuple[str, int]:
    try:
        return unlift(name)
    except GraphFormatError:
        raise FormulaError(f"{name!r} is not a lifted name of the form x@i") from None


def check_d_rooted(phi: Formula, d: int) -> bool:
    """Arity d+1, component d untouched by atoms and modalities, and
    every replacement copies component d into a single other one."""
    if phi.arity != d + 1:
        return False
    for n in _walk(phi.root):
        if isinstance(n, (Color, Diamond, Box)) and n.comp >= d:
            return False
        if isinstance(n, Replace):
            diffs = [k for k in range(d + 1) if n.mapping[k] != k]
            if len(diffs) != 1:
                return False
            j = diffs[0]
            if j == d or n.mapping[j] != d:
                return False
    return True


def monofy(phi: Formula, d: int) -> Formula:
    """Arity-1 image of a d-rooted arity-(d+1) formula over the lifted
    signature: atoms and modalities pick up @i suffixes, replacements
    of component j by component d become <rst@j> steps."""
    if not check_d_rooted(phi, d):
        raise FormulaError(f"formula is not {d}-rooted")

    def go(n: Node) -> Node:
        if isinstance(n, Color):
            return Color(f"{n.color}@{n.comp}", 0)
        if isinstance(n, Diamond):
            return Diamond(f"{n.action}@{n.comp}", 0, go(n.sub))
        if isinstance(n, Box):
            return Box(f"{n.action}@{n.comp}", 0, go(n.sub))
        if isinstance(n, Replace):
            j = next(k for k in range(d + 1) if n.mapping[k] != k)
            return Diamond(f"{RESET}@{j}", 0, go(n.sub))
        return map_children(n, go)

    return Formula(1, go(phi.root))


def polyfy(psi: Formula, d: int) -> Formula:
    """Inverse of monofy.  Defined on arity-1 formulas over a lifted
    signature whose shape monofy can produce; in particular [rst@j]
    and replacement nodes are rejected."""
    if psi.arity != 1:
        raise FormulaError(f"polyfy needs an arity-1 formula, got arity {psi.arity}")

    def go(n: Node) -> Node:
        if isinstance(n, Color):
            c, i = _split_lifted_name(n.color)
            if i >= d:
                raise FormulaError(f"color {n.color!r} exceeds dimension {d}")
            return Color(c, i)
        if isinstance(n, Diamond):
            a, i = _split_lifted_name(n.action)
            if i >= d:
                raise FormulaError(f"action {n.action!r} exceeds dimension {d}")
            if a == RESET:
                mapping = tuple(d if k == i else k for k in range(d + 1))
                return Replace(mapping, go(n.sub))
            return Diamond(a, i, go(n.sub))
        if isinstance(n, Box):
            a, i = _split_lifted_name(n.action)
            if i >= d:
                raise FormulaError(f"action {n.action!r} exceeds dimension {d}")
            if a == RESET:
                raise FormulaError(f"[{n.action}] has no arity-{d + 1} counterpart")
            return Box(a, i, go(n.sub))
        if isinstance(n, Replace):
            raise FormulaError("replacement nodes have no lifted counterpart")
        return map_children(n, go)

    return Formula(d + 1, go(psi.root))


# ------------------------------------------------- characteristic formulas


def _conj(parts: list[Node]) -> Node:
    if not parts:
        return TT()
    node = parts[0]
    for p in parts[1:]:
        node = And(node, p)
    return node


def _iff(p: Node, q: Node) -> Node:
    # for binder-free operands only: both sides are duplicated
    return Or(And(p, q), And(Neg(p), Neg(q)))


class _Fresh:
    """Variable names X0, X1, ... in order, passing over those in skip."""

    def __init__(self, skip: frozenset[str] = frozenset()):
        self.counter = itertools.count()
        self.skip = skip

    def __call__(self) -> str:
        while True:
            x = f"X{next(self.counter)}"
            if x not in self.skip:
                return x


def _bis_node(i: int, j: int, sig: Signature, fresh: _Fresh) -> Node:
    """Greatest fixpoint relating component-i behavior of the 0th tuple
    slot with component-j behavior of the 1st."""
    x = fresh()
    parts: list[Node] = []
    for c in sig.colors:
        parts.append(_iff(Color(f"{c}@{i}", 0), Color(f"{c}@{j}", 1)))
    for a in sig.actions:
        parts.append(Box(f"{a}@{i}", 0, Diamond(f"{a}@{j}", 1, Var(x))))
        parts.append(Box(f"{a}@{j}", 1, Diamond(f"{a}@{i}", 0, Var(x))))
    return Nu(x, _conj(parts))


def _allbox_node(i: int, sub: Node, sig: Signature, d: int, fresh: _Fresh) -> Node:
    """sub holds at every value of tuple slot i reachable along lifted
    base actions.  Reset actions are deliberately not traversed."""
    x = fresh()
    boxes = [Box(f"{a}@{j}", i, Var(x)) for a in sig.actions for j in range(d)]
    return Nu(x, _conj([sub] + boxes))


def gen_bisim_formula(i: int, j: int, sig: Signature, d: int) -> Formula:
    _check_component(i, d)
    _check_component(j, d)
    lift_signature(sig, d)  # validates sig is base and d >= 1
    return Formula(2, _bis_node(i, j, sig, _Fresh()))


def gen_allbox(i: int, phi: Formula, sig: Signature, d: int) -> Formula:
    if not 0 <= i < phi.arity:
        raise FormulaError(f"component {i} out of range for arity {phi.arity}")
    lift_signature(sig, d)
    # the fresh binder must not capture a variable already used in phi
    return Formula(phi.arity, _allbox_node(i, phi.root, sig, d, _Fresh(bound_vars(phi))))


def _check_component(i: int, d: int):
    if not 0 <= i < d:
        raise FormulaError(f"component {i} out of range for dimension {d}")


def gen_per_formula(sig: Signature, d: int) -> Formula:
    """Persistence: wherever both tuple slots wander along base actions,
    a slot-0 step in component i preserves every other component's
    equivalence that held before the step."""
    lift_signature(sig, d)
    fresh = _Fresh()
    clauses: list[Node] = []
    for i in range(d):
        for j in range(d):
            if j == i:
                continue
            ante = _bis_node(j, j, sig, fresh)
            steps: list[Node] = []
            for a in sig.actions:
                steps.append(Box(f"{a}@{i}", 0, _bis_node(j, j, sig, fresh)))
            steps.append(Box(f"{RESET}@{i}", 0, _bis_node(j, j, sig, fresh)))
            clauses.append(Or(Neg(ante), _conj(steps)))
    inner = _allbox_node(1, _conj(clauses), sig, d, fresh)
    return Formula(2, _allbox_node(0, inner, sig, d, fresh))


def gen_rst_formula(sig: Signature, d: int) -> Formula:
    """Reset: wherever slot 0 wanders along base actions while slot 1
    rests on the root, a rst@i step lands on something equivalent to
    the root in component i."""
    lift_signature(sig, d)
    fresh = _Fresh()
    parts = [
        Box(f"{RESET}@{i}", 0, _bis_node(i, i, sig, fresh)) for i in range(d)
    ]
    return Formula(2, _allbox_node(0, _conj(parts), sig, d, fresh))


def gen_pow_formula(sig: Signature, d: int) -> Formula:
    """All components of the root pair mutually equivalent."""
    lift_signature(sig, d)
    fresh = _Fresh()
    parts = [_bis_node(i, j, sig, fresh) for i in range(d) for j in range(d)]
    return Formula(2, _conj(parts))
