"""Evaluation of arity-d formulas on finite graphs.

The denotation of an arity-d formula is a set of d-tuples of nodes.
Inside the evaluator a tuple set is a bitset held in a Python int: with
n = |V| and nodes numbered in g.nodes order, bit sum(t[k] * n**(d-1-k))
stands for the tuple t, the order of itertools.product.  Connectives
are single int operations, colors are digit masks (the graph's color
mask spread over one component by graphs._spread), and the bitsets are
decoded into node-name tuples only on the way out.  A bitset is n**d
bits wide, so evaluation refuses to start when that exceeds TUPLE_CAP.

The formula runs as its table (logic._Table, compiled once per Formula),
entries in order, children first.  Fixpoints are computed by iteration:
a binder's entry jumps back to the start of its body's entries until its
value is stable.  Least fixpoints climb from the empty set, greatest
fixpoints descend from the full tuple space; a closed subformula is
computed once up to renaming of bound variables: every entry reads a
closed child at its first twin (logic._Table.run_kids), and a twin
binder's slice is never run.  Positivity of bound variables (checked
up front) makes both monotone, so each loop stabilizes after at most
|V|^d + 1 rounds; exceeding the bound is reported as an error instead
of looping forever.

Each modality keeps its last argument and pre-image.  The pre-image
distributes over union, so when the new argument contains the last one
only the added tuples are mapped, as in semi-naive evaluation; any
other change is recomputed in full.  Under mu the arguments of <a@i>
only grow, and under nu so do the complements taken by [a@i].

The pre-image of one action in one component is driven by a table
built once per evaluation, when the modality first runs, from the
graphs.py helpers that read the moves (_pred_rows, _pred_lists, _shifts).
An argument with at most as many members as the action has distinct
shifts w - u of its edges u -> w takes the sparse form.  At arity 1 with
at most _MASK_NODES nodes that form is one predecessor mask per target
position w (bit u for each edge u -> w, row w of the transposed
adjacency matrix), and the pre-image is the image of the members under
them (graphs._image); the masks take up to n * n bits, so larger graphs
and higher arities map each member through per-node predecessor lists
instead.  Larger arguments move every target digit at once through one
mask and one shift per distinct w - u; those groups are built on the
first such call from graphs._shift_targets, so until then the table
holds only the number of shifts.
"""
from __future__ import annotations

from operator import itemgetter

from .errors import FormulaError, PolymuError, ResourceLimitError
from .graphs import (
    LabeledGraph,
    _digit_zero,
    _image,
    _pred_lists,
    _pred_rows,
    _set_bits,
    _shift_targets,
    _shifts,
    _spread,
    _to_bits,
)
from .logic import (
    And,
    Box,
    Color,
    Diamond,
    Formula,
    Mu,
    Neg,
    Nu,
    Or,
    Replace,
    TT,
    Var,
    free_vars,
    validate_formula,
)

# the most tuples an evaluation may range over, read at each call
TUPLE_CAP = 2**20
# the most nodes on which arity-1 tables hold predecessor masks: they take
# up to n * n bits, 2 MB per action at this bound
_MASK_NODES = 4096


def _shift_groups(g: LabeledGraph, a: str, unit: int, sk: int) -> list[tuple[int, int]]:
    """The dense pre-image's (mask, shift) pairs for action a in one component.

    For each distinct w - u over the a-edges u -> w: the tuples whose
    component holds such a w (unit is that component's digit-0 mask and
    sk its stride), and the shift (w - u) * sk that takes them to u.
    """
    return [(_spread(unit, sk, ws), sh * sk) for sh, ws in _shift_targets(g, a).items()]


def _evaluate_bits(g: LabeledGraph, phi: Formula) -> int:
    """Denotation of the closed formula phi over g as a bitset; see the
    module docstring."""
    validate_formula(phi, g.signature)
    arity, t = phi.arity, phi._table
    missing = t.free[t.root]
    if missing:
        raise FormulaError(f"unbound variables: {', '.join(sorted(missing))}")

    n = len(g.nodes)
    size = n**arity
    if size > TUPLE_CAP:
        raise ResourceLimitError(
            f"tuple space {n}^{arity} exceeds the cap of {TUPLE_CAP}"
        )
    full = (1 << size) - 1
    max_rounds = size + 1
    # stride[k] is the bit distance between tuples differing by one in component k
    stride = [n ** (arity - 1 - k) for k in range(arity)]
    # unit[k]: the tuples whose component k is 0
    unit = [_digit_zero(size, n, sk) for sk in stride]

    # (action, comp) -> [sparse form, number of distinct shifts, (mask, shift)
    # groups or None until the first dense call]; the sparse form is one
    # predecessor mask per target position at arity 1 while n <= _MASK_NODES,
    # else per target position its predecessors' digits times the stride
    pre_tables: dict[tuple[str, int], list] = {}
    masked = arity == 1 and n <= _MASK_NODES

    def pre_table(a: str, k: int) -> list:
        sparse = _pred_rows(g, a) if masked else _pred_lists(g, a, stride[k])
        pre_tables[(a, k)] = tab = [sparse, len(_shifts(g, a)), None]
        return tab

    def pre(a: str, k: int, s: int) -> int:
        """Tuples with an a-successor in component k that lands in s."""
        if not s:
            return 0
        tab = pre_tables.get((a, k)) or pre_table(a, k)
        if s.bit_count() <= tab[1]:
            # sparse: map each member to its predecessors
            if masked:
                return _image(tab[0], s)
            # a member i with digit w in component k goes to i - w * sk + u * sk
            # for each predecessor u of w, listed as u * sk
            sk, preds = stride[k], tab[0]
            return _to_bits((i - w * sk + b for i in _set_bits(s) for w in (i // sk % n,)
                             for b in preds[w]), size)
        # dense: move every target digit w to the source digit u at once;
        # edges with equal w - u share one mask and one shift
        groups = tab[2]
        if groups is None:
            groups = tab[2] = _shift_groups(g, a, unit[k], stride[k])
        res = 0
        for mask, sh in groups:
            part = s & mask
            res |= part >> sh if sh >= 0 else part << -sh
        return res

    last_pre: dict[int, tuple[int, int]] = {}

    def pre_inc(e: int, s: int) -> int:
        """pre() of s at modality entry e, reusing its last call when s contains its argument."""
        node = t.node[e]
        # an entry seen for the first time starts from pre(0) == 0
        old, old_res = last_pre.get(e, (0, 0))
        if s & old == old:
            res = old_res | pre(node.action, node.comp, s & ~old)
        else:
            res = pre(node.action, node.comp, s)
        last_pre[e] = (s, res)
        return res

    def index_map(node: Replace) -> itemgetter:
        """Picks the replaced tuple's bits out of the argument's bit string."""
        # source index of tuple t is sum_j t[j] * weight[j]
        weight = [0] * arity
        for k, j in enumerate(node.mapping):
            weight[j] += stride[k]
        src = [0]
        for j in range(arity):
            src = [x + v * weight[j] for x in src for v in range(n)]
        # bin strings are most significant bit first
        return itemgetter(*[size - 1 - x for x in reversed(src)])

    nodes, kids, free, bind, start = t.node, t.run_kids, t.free, t.bind, t.start
    init = {b: 0 if type(nodes[b]) is Mu else full for b in start}
    cur = dict(init)  # binder -> the approximant its variable stands for
    rounds = dict.fromkeys(start, 0)
    # a closed binder, once stable, is stepped over from its slice start;
    # a twin binder always is, as its value is read at its first twin;
    # any other twin entry is skipped too, as no parent reads it
    twin = t.twin
    jump: dict[int, int] = {}
    for b, s in start.items():  # entry order: of two binders starting at s, the outer is last
        if b in twin:
            jump[s] = b + 1
    getters = {e: index_map(nodes[e]) for e in t.replaces}
    vals: list = [None] * len(nodes)
    e = 0
    while e < len(nodes):
        if e in jump or e in twin or (not free[e] and vals[e] is not None):
            e = jump.get(e, e + 1)
            continue
        op = type(nodes[e])
        if op is Var:
            res = cur[bind[e]]
        elif op is And:
            a, b = kids[e]
            res = vals[a] & vals[b]
        elif op is Or:
            a, b = kids[e]
            res = vals[a] | vals[b]
        elif op is Diamond:
            res = pre_inc(e, vals[kids[e][0]])
        elif op is Box:
            res = full ^ pre_inc(e, full ^ vals[kids[e][0]])
        elif op is Neg:
            res = full ^ vals[kids[e][0]]
        elif op is Mu or op is Nu:
            res = vals[kids[e][0]]
            rounds[e] += 1
            if res != cur[e]:
                if rounds[e] == max_rounds:
                    raise PolymuError(
                        f"fixpoint for {nodes[e].var!r} did not stabilize in {max_rounds} rounds"
                    )
                cur[e] = res
                e = start[e]
                continue
            # stable: the next visit of the slice starts afresh
            cur[e], rounds[e] = init[e], 0
            if not free[e]:
                jump[start[e]] = e + 1
        elif op is Color:
            k = nodes[e].comp
            res = _spread(unit[k], stride[k], _set_bits(g._colors[nodes[e].color]))
        elif op is TT:
            res = full
        elif op is Replace:
            res = int("".join(getters[e](format(vals[kids[e][0]], f"0{size}b"))), 2)
        else:
            # FF; validate_formula already vetted every other type
            res = 0
        vals[e] = res
        e += 1
    return vals[t.root]


def evaluate(g: LabeledGraph, phi: Formula) -> frozenset[tuple[str, ...]]:
    """Denotation of the closed formula phi over g: the phi.arity-tuples
    of node ids that satisfy it."""
    bits = _evaluate_bits(g, phi)
    names = g.nodes
    n = len(names)
    strides = [n ** (phi.arity - 1 - k) for k in range(phi.arity)]
    return frozenset(tuple(names[i // s % n] for s in strides) for i in _set_bits(bits))


def models(g: LabeledGraph, phi: Formula) -> bool:
    """Does the arity-fold root tuple of g satisfy phi?  phi must be closed."""
    if free_vars(phi):
        raise FormulaError("models needs a closed formula")
    bits = _evaluate_bits(g, phi)
    n = len(g.nodes)
    r = g.index[g.root]
    root_bit = sum(r * n**k for k in range(phi.arity))
    return bool(bits >> root_bit & 1)
