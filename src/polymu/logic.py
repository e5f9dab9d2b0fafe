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

No pass recurses on the AST.  The parser and printer keep pending work
on explicit stacks; the other passes loop over _Table, the formula
compiled into one entry per distinct subformula on its first use and
kept on the Formula.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from operator import attrgetter, itemgetter
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

    @cached_property
    def _table(self) -> _Table:  # compiled on first use; every formula pass reads it
        return _Table(self)


# per node class: the payload fields, then the child fields; constructors take both in turn
_DATA = {c: tuple(f.name for f in fields(c) if f.type != "Node") for c in Node.__subclasses__()}
_KIDS = {c: tuple(f.name for f in fields(c) if f.type == "Node") for c in Node.__subclasses__()}
_PAYLOAD = {c: attrgetter(*names or ["__class__"]) for c, names in _DATA.items()}


class _Table:
    """phi compiled by one iterative walk into one entry per distinct
    subformula, children first, keyed on class, payload, child entries
    and, for a variable, its binder: a free X and a bound X differ.
    Per entry: node, its first AST node; kids; free variables; pre, that
    node's pre-order position.  Binder b's new body entries are
    start[b]..b-1; bind maps bound variable entries to binders.  size
    counts AST nodes; error is (position, message) of the first failed
    structural check in pre-order, the arity check at -1, or None.
    colors and actions are the color and action names the formula
    mentions, and replaces lists the Replace entries in entry order.

    The same walk keys every occurrence up to renaming of bound
    variables: a bound variable becomes its de Bruijn index (the number
    of binders between it and its own) and binder names are dropped.
    twin maps a closed entry to the first earlier closed entry with the
    same key, so renamed copies of a closed subformula, which are
    separate entries, are known to denote the same set.  run_kids is
    kids with every child read at its first twin.  Only the evaluator
    reads these two."""

    __slots__ = ("node", "kids", "run_kids", "free", "pre", "bind", "start", "twin", "root",
                 "size", "error", "colors", "actions", "replaces")

    def __init__(self, phi: Formula):
        arity = phi.arity
        self.node, self.kids, self.free, self.pre = node, kids, free, pre = [], [], [], []
        self.start: dict[int, int] = {}
        self.twin: dict[int, int] = {}
        errors = [(-1, f"arity must be >= 1, got {arity}")] if arity < 1 else []
        self.colors: set[str] = set()
        self.actions: set[str] = set()
        self.replaces: list[int] = []
        colors, actions, replaces = self.colors, self.actions, self.replaces
        index: dict[tuple, int] = {}
        # binder variable -> (parity, position, binders open around it) while
        # its binder is open, else None
        scope: dict[str, tuple[int, int, int] | None] = {}
        binder_at: dict[int, int] = {}  # binder position -> binder entry
        done: list[int] = []  # entries of finished subtrees awaiting their parent
        # the nameless keys: key -> id, the ids beside done, id -> first closed entry
        alpha: dict[tuple, int] = {}
        adone: list[int] = []
        first: dict[int, int] = {}
        depth = 0  # binders open
        # (node, parity, None) enters; (node, position, slice start or -1) leaves
        todo: list[tuple] = [(phi.root, 0, None)]
        count = 0
        while todo:
            n, parity, mark = todo.pop()
            cls = type(n)
            if mark is None:
                pos, count = count, count + 1
                names = _KIDS.get(cls, ())
                comps: tuple[int, ...] = ()
                if cls not in _KIDS:
                    errors.append((pos, f"unknown node {cls.__name__}"))
                elif cls is Var:
                    s = scope.get(n.name)
                    if s is not None and s[0] != parity:
                        errors.append((pos, f"negative occurrence of {n.name!r}"))
                elif cls is Color:
                    colors.add(n.color)
                    comps = (n.comp,)
                elif cls is Diamond or cls is Box:
                    actions.add(n.action)
                    comps = (n.comp,)
                elif cls is Replace:
                    if len(n.mapping) != arity:
                        errors.append((pos, f"replacement lists {len(n.mapping)} components, arity is {arity}"))
                    comps = n.mapping
                elif cls is Mu or cls is Nu:
                    if n.var in scope:
                        errors.append((pos, f"variable {n.var!r} bound twice"))
                    scope[n.var] = (parity, pos, depth)
                    depth += 1
                for k in comps:
                    if not 0 <= k < arity:
                        errors.append((pos, f"component {k} out of range for arity {arity}"))
                if names:
                    todo.append((n, pos, len(node) if cls is Mu or cls is Nu else -1))
                    parity ^= cls is Neg
                    for f in reversed(names):
                        todo.append((getattr(n, f), parity, None))
                    continue
                ks, fv = (), frozenset()
                if cls is Var:
                    fv = frozenset((n.name,))
                    s = scope.get(n.name)
                    key = (Var, n.name, -1 if s is None else s[1])
                    akey = (Var, n.name if s is None else depth - 1 - s[2])
                else:
                    key = akey = (cls, _PAYLOAD[cls](n), ks) if cls in _DATA else (cls, id(n))
            else:
                pos = parity  # a leaving node carries its position here
                ks, aks = (done.pop(),), (adone.pop(),)
                fv = free[ks[0]]
                if cls is And or cls is Or:
                    ks, aks = (done.pop(), ks[0]), (adone.pop(), aks[0])
                    fv = free[ks[0]] | fv
                key = (cls, _PAYLOAD[cls](n), ks)
                akey = (cls, _PAYLOAD[cls](n), aks)
                if cls is Mu or cls is Nu:
                    fv -= {n.var}
                    scope[n.var] = None
                    depth -= 1
                    akey = (cls, aks)  # the binder's name dropped
            a = alpha.setdefault(akey, len(alpha))
            adone.append(a)
            e = index.get(key)
            if e is None:
                e = index[key] = len(node)
                node.append(n)
                kids.append(ks)
                free.append(fv)
                pre.append(pos)
                if mark is not None and mark >= 0:
                    self.start[e] = mark
                    binder_at[pos] = e
                elif cls is Replace:
                    replaces.append(e)
                if not fv and first.setdefault(a, e) != e:
                    self.twin[e] = first[a]
            done.append(e)
        self.bind = {e: binder_at[key[2]] for key, e in index.items() if key[0] is Var and key[2] >= 0}
        twin = self.twin
        self.run_kids = [tuple([twin.get(k, k) for k in ks]) for ks in kids] if twin else kids
        self.root = done[0]
        self.size = count
        self.error = errors[0] if errors else None


def _rebuild(n: Node, kids: list[Node], cls: type | None = None) -> Node:
    """n over new children, as a cls node (n's class by default)."""
    if not kids:
        return n
    return (cls or type(n))(*map(n.__getattribute__, _DATA[type(n)]), *kids)


def _map_table(t: _Table, image: Callable[[Node, list[Node]], Node]) -> Node:
    """The AST rebuilt by image(node, new children), children first; of
    the FormulaErrors image raises, the first in pre-order propagates."""
    new: list = []
    failed: list[tuple[int, FormulaError]] = []
    for e, n in enumerate(t.node):
        try:
            new.append(image(n, list(map(new.__getitem__, t.kids[e]))))
        except FormulaError as err:
            failed.append((t.pre[e], err))
            new.append(None)
    if failed:
        raise min(failed, key=itemgetter(0))[1]
    return new[t.root]


def free_vars(phi: Formula) -> frozenset[str]:
    t = phi._table
    return t.free[t.root]


def validate_formula(phi: Formula, sig: Signature) -> None:
    """Check names, component indices, unique binding and positivity;
    the first failed check in pre-order is raised, on one node the name
    check first."""
    t = phi._table
    # the walk below names a fault; a table with none returns here
    if t.error is None and t.colors <= sig._color_set and t.actions <= sig._action_number.keys():
        return
    # an entry's node is the first of its equal subtrees in pre-order
    faults = []
    for e, n in enumerate(t.node):
        if type(n) is Color and n.color not in sig.colors:
            faults.append((t.pre[e], f"unknown color {n.color!r}"))
        elif type(n) in (Diamond, Box) and n.action not in sig.actions:
            faults.append((t.pre[e], f"unknown action {n.action!r}"))
    if t.error is not None:
        faults.append(t.error)  # after the name faults, so min() prefers those on a tie
    if faults:
        raise FormulaError(min(faults, key=itemgetter(0))[1])


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


def parse_formula(text: str, sig: Signature, arity: int) -> Formula:
    if arity < 1:
        raise FormulaError(f"arity must be >= 1, got {arity}")
    toks = _tokenize(text)[::-1]
    actions, colors = set(sig.actions), set(sig.colors)

    def expect(value: str):
        kind, val, off = toks.pop()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", off)

    def nat() -> int:
        kind, val, off = toks.pop()
        if kind != "nat":
            raise ParseError("expected a number", off)
        return int(val)

    def resolve(token: str, names, what: str, off: int) -> tuple[str, int]:
        """Split the trailing component index off an atom or action token."""
        if "@" in token:
            prefix, _, suffix = token.rpartition("@")
            if suffix.isdigit() and prefix in names:
                comp = int(suffix)
                if comp >= arity:
                    raise ParseError(f"component {comp} out of range for arity {arity}", off)
                return prefix, comp
        if token in names:
            if arity == 1:
                return token, 0
            raise ParseError(f"{what} {token!r} needs a component index", off)
        raise ParseError(f"unknown {what} {token!r}", off)

    scope: dict[str, int | None] = {}  # binder variable -> parity while open, else None
    parity = 0
    # operators waiting for the operand being read; a formula opens an "|"
    # and an "&" frame (op, left operand or None, parity)
    frames: list[tuple] = [("|", None, 0), ("&", None, 0)]
    while True:
        kind, val, off = toks.pop()
        if val == "~":
            frames.append((Neg,))
            parity = 1 - parity
            continue
        if val == "<" or val == "[":
            k2, tok, off2 = toks.pop()
            if k2 != "lident":
                raise ParseError("expected an action name", off2)
            action, comp = resolve(tok, actions, "action", off2)
            expect(">" if val == "<" else "]")
            frames.append((Diamond if val == "<" else Box, action, comp))
            continue
        if val == "%":
            expect("{")
            mapping = [nat()]
            while toks[-1][1] == ",":
                toks.pop()
                mapping.append(nat())
            expect("}")
            if len(mapping) != arity:
                raise ParseError(
                    f"replacement lists {len(mapping)} components, arity is {arity}", off
                )
            for k in mapping:
                if k >= arity:
                    raise ParseError(f"component {k} out of range for arity {arity}", off)
            frames.append((Replace, tuple(mapping)))
            continue
        if val in ("mu", "nu"):
            k2, name, off2 = toks.pop()
            if k2 != "uident":
                raise ParseError("expected a variable name", off2)
            if name in scope:
                raise ParseError(f"variable {name!r} bound twice", off2)
            expect(".")
            scope[name] = parity
            frames += [(Mu if val == "mu" else Nu, name), ("|", None, parity), ("&", None, parity)]
            continue
        if val == "(":
            frames += [("(",), ("|", None, parity), ("&", None, parity)]
            continue
        if kind == "lident" and val in ("tt", "ff"):
            node = TT() if val == "tt" else FF()
        elif kind == "lident":
            node = Color(*resolve(val, colors, "color", off))
        elif kind == "uident":
            if scope.get(val) not in (None, parity):
                raise ParseError(f"negative occurrence of {val!r}", off)
            node = Var(val)
        else:
            raise ParseError(f"expected a formula, found {val or 'end of input'!r}", off)
        # the operand is complete: apply waiting operators until one wants more
        while frames:
            f = frames.pop()
            op = f[0]
            if op == "&" or op == "|":
                if f[1] is not None:
                    node = (And if op == "&" else Or)(f[1], node)
                if toks[-1][1] == op:
                    toks.pop()
                    parity = f[2]
                    frames.append((op, node, parity))
                    if op == "|":
                        frames.append(("&", None, parity))
                    break
            elif op == "(":
                expect(")")
            else:
                if op is Mu or op is Nu:
                    scope[f[1]] = None
                node = op(*f[1:], node)
        else:
            kind, val, off = toks[-1]
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
    out: list[str] = []
    todo: list = [(phi.root, _LV_OR, True)]  # text, or (node, level, tail) still to print
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        n, level, tail = item
        if isinstance(n, TT):
            out.append("tt")
        elif isinstance(n, FF):
            out.append("ff")
        elif isinstance(n, Color):
            out.append(f"{n.color}@{n.comp}")
        elif isinstance(n, Var):
            out.append(n.name)
        elif isinstance(n, (Neg, Diamond, Box, Replace)):
            if isinstance(n, Neg):
                out.append("~")
            elif isinstance(n, Diamond):
                out.append(f"<{n.action}@{n.comp}>")
            elif isinstance(n, Box):
                out.append(f"[{n.action}@{n.comp}]")
            else:
                out.append("%{" + ",".join(map(str, n.mapping)) + "}")
            todo.append((n.sub, _LV_PREFIX, tail))
        elif isinstance(n, (Or, And)):
            # the left operand stays at the connective's level, the right one binds tighter
            lv = _LV_OR if isinstance(n, Or) else _LV_AND
            if level > lv:
                out.append("(")
                todo.append(")")
            todo += [(n.right, lv + 1, tail), " | " if lv == _LV_OR else " & ", (n.left, lv, False)]
        elif isinstance(n, (Mu, Nu)):
            if not tail:
                out.append("(")
                todo.append(")")
            out.append(f"{'mu' if isinstance(n, Mu) else 'nu'} {n.var}. ")
            todo.append((n.body, _LV_OR, True))
        else:
            raise FormulaError(f"unknown node {type(n).__name__}")
    return "".join(out)


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
    for n in phi._table.node:
        if isinstance(n, (Color, Diamond, Box)) and n.comp >= d:
            return False
        if isinstance(n, Replace):  # the identity with d at one j < d
            j = next((k for k, m in enumerate(n.mapping) if m != k), d)
            if j >= d or n.mapping != (*range(j), d, *range(j + 1, d + 1)):
                return False
    return True


def monofy(phi: Formula, d: int) -> Formula:
    """Arity-1 image of a d-rooted arity-(d+1) formula over the lifted
    signature: atoms and modalities pick up @i suffixes, replacements
    of component j by component d become <rst@j> steps."""
    if not check_d_rooted(phi, d):
        raise FormulaError(f"formula is not {d}-rooted")

    def image(n: Node, kids: list[Node]) -> Node:
        if isinstance(n, Color):
            return Color(f"{n.color}@{n.comp}", 0)
        if isinstance(n, (Diamond, Box)):
            return type(n)(f"{n.action}@{n.comp}", 0, *kids)
        if isinstance(n, Replace):
            j = next(k for k in range(d + 1) if n.mapping[k] != k)
            return Diamond(f"{RESET}@{j}", 0, *kids)
        return _rebuild(n, kids)

    return Formula(1, _map_table(phi._table, image))


def polyfy(psi: Formula, d: int) -> Formula:
    """Inverse of monofy.  Defined on arity-1 formulas over a lifted
    signature whose shape monofy can produce; in particular [rst@j]
    and replacement nodes are rejected."""
    if psi.arity != 1:
        raise FormulaError(f"polyfy needs an arity-1 formula, got arity {psi.arity}")

    def image(n: Node, kids: list[Node]) -> Node:
        if isinstance(n, Color):
            c, i = _split_lifted_name(n.color)
            if i >= d:
                raise FormulaError(f"color {n.color!r} exceeds dimension {d}")
            return Color(c, i)
        if isinstance(n, (Diamond, Box)):
            a, i = _split_lifted_name(n.action)
            if i >= d:
                raise FormulaError(f"action {n.action!r} exceeds dimension {d}")
            if a != RESET:
                return type(n)(a, i, *kids)
            if isinstance(n, Box):
                raise FormulaError(f"[{n.action}] has no arity-{d + 1} counterpart")
            return Replace(tuple(d if k == i else k for k in range(d + 1)), *kids)
        if isinstance(n, Replace):
            raise FormulaError("replacement nodes have no lifted counterpart")
        return _rebuild(n, kids)

    return Formula(d + 1, _map_table(psi._table, image))


# ------------------------------------------------- characteristic formulas
#
# The gen_*_formula generators depend on their arguments alone, and a
# Formula and its nodes are frozen, so each generator keeps a bounded
# cache of its results: callers of one (signature, d) share one Formula,
# whose table compiles once.  A call that raises caches nothing.


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


def _bis_node(i: int, j: int, sig: Signature, fresh: Iterator[int]) -> Node:
    """Greatest fixpoint relating component-i behavior of the 0th tuple
    slot with component-j behavior of the 1st.  Binders are named X0, X1,
    ... in the order they are built, from the counter fresh."""
    x = f"X{next(fresh)}"
    parts: list[Node] = []
    for c in sig.colors:
        parts.append(_iff(Color(f"{c}@{i}", 0), Color(f"{c}@{j}", 1)))
    for a in sig.actions:
        parts.append(Box(f"{a}@{i}", 0, Diamond(f"{a}@{j}", 1, Var(x))))
        parts.append(Box(f"{a}@{j}", 1, Diamond(f"{a}@{i}", 0, Var(x))))
    return Nu(x, _conj(parts))


def _allbox_node(i: int, sub: Node, sig: Signature, d: int, fresh: Iterator[int]) -> Node:
    """sub holds at every value of tuple slot i reachable along lifted
    base actions.  Reset actions are deliberately not traversed."""
    x = f"X{next(fresh)}"
    boxes = [Box(f"{a}@{j}", i, Var(x)) for a in sig.actions for j in range(d)]
    return Nu(x, _conj([sub] + boxes))


@lru_cache(maxsize=64)
def gen_bisim_formula(i: int, j: int, sig: Signature, d: int) -> Formula:
    _check_component(i, d)
    _check_component(j, d)
    lift_signature(sig, d)  # validates sig is base and d >= 1
    return Formula(2, _bis_node(i, j, sig, itertools.count()))


def _check_component(i: int, d: int):
    if not 0 <= i < d:
        raise FormulaError(f"component {i} out of range for dimension {d}")


def _per_node(sig: Signature, d: int, fresh: Iterator[int]) -> Node:
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
    return _allbox_node(0, inner, sig, d, fresh)


def _rst_node(sig: Signature, d: int, fresh: Iterator[int]) -> Node:
    parts = [Box(f"{RESET}@{i}", 0, _bis_node(i, i, sig, fresh)) for i in range(d)]
    return _allbox_node(0, _conj(parts), sig, d, fresh)


def _pow_node(sig: Signature, d: int, fresh: Iterator[int]) -> Node:
    return _conj([_bis_node(i, j, sig, fresh) for i in range(d) for j in range(d)])


def _gen_formula(sig: Signature, d: int, *builders: Callable) -> Formula:
    """The conjunction of the nodes the builders return, their binders
    named X0, X1, ... from one counter."""
    lift_signature(sig, d)  # validates sig is base and d >= 1
    fresh = itertools.count()
    return Formula(2, _conj([build(sig, d, fresh) for build in builders]))


@lru_cache(maxsize=64)
def gen_per_formula(sig: Signature, d: int) -> Formula:
    """Persistence: wherever both tuple slots wander along base actions,
    a slot-0 step in component i preserves every other component's
    equivalence that held before the step."""
    return _gen_formula(sig, d, _per_node)


@lru_cache(maxsize=64)
def gen_rst_formula(sig: Signature, d: int) -> Formula:
    """Reset: wherever slot 0 wanders along base actions while slot 1
    rests on the root, a rst@i step lands on something equivalent to
    the root in component i."""
    return _gen_formula(sig, d, _rst_node)


@lru_cache(maxsize=64)
def gen_pow_formula(sig: Signature, d: int) -> Formula:
    """All components of the root pair mutually equivalent."""
    return _gen_formula(sig, d, _pow_node)


@lru_cache(maxsize=64)
def gen_is_power_formula(sig: Signature, d: int) -> Formula:
    """Persistence, reset and power in one formula, its binders drawn
    from one counter: the renamed copies of each component bisimulation
    are evaluated once (see _Table.twin)."""
    return _gen_formula(sig, d, _per_node, _rst_node, _pow_node)
