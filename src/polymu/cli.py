"""Command-line front end.

Thin wrappers only: parse arguments, load inputs, call the library,
print the result.  Exit codes: 0 done, 2 input error, 3 cross-check
disagreement (including xcheck failures).  Results go to stdout,
diagnostics to stderr.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Optional, Sequence

from .automata import accepts, find_pumping_pair, format_apt, formula_to_apt
from .bisim import (
    bisimilar,
    detect_power,
    factor,
    largest_d_bisimulation,
    quotient,
    relation_lines,
)
from .errors import CrossCheckError, GraphFormatError, PolymuError
from .graphs import (
    LabeledGraph,
    Signature,
    lift_signature,
    power,
    product,
    read_graph,
    read_tree,
    split_lifted,
    unfold,
    write_graph,
)
from .logic import _KEYWORDS, _tokenize, monofy, parse_formula, polyfy, print_formula
from .pumping import gen_rword_tree, pump
from .queries import (
    one_letter_non_universal,
    one_lifted_non_universal,
    two_letter_non_universal,
    two_lifted_non_universal,
)
from .semantics import models
from .xcheck import RunConfig, format_report, run_all


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise PolymuError(f"{path}: invalid UTF-8: {e}") from None


def _load_graph(path: str) -> LabeledGraph:
    return read_graph(_read_text(path))


def _load_tree(path: str):
    return read_tree(_read_text(path))


def _formula_text(raw: str) -> str:
    if raw.startswith("@"):
        return _read_text(raw[1:]).strip()
    return raw


def _emit(text: str, args) -> None:
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _split_path(raw: str) -> list[str]:
    """Split a comma-separated node list, keeping commas inside (...) ids."""
    parts: list[str] = []
    buf: list[str] = []
    depth = 0
    for ch in raw:
        if ch == "," and depth == 0:
            parts.append("".join(buf))
            buf = []
            continue
        depth += (ch == "(") - (ch == ")")
        buf.append(ch)
    parts.append("".join(buf))
    return [p for p in parts if p]


def _base_and_dim(
    g: LabeledGraph, d: Optional[int], what: str
) -> tuple[Signature, int, Optional[Signature]]:
    """Base signature, dimension, and the lifted signature when the graph has one."""
    try:
        base, _ = split_lifted(g.signature)
    except GraphFormatError:
        if d is None:
            raise PolymuError(f"{what}: -d is required with a base-signature graph")
        return g.signature, d, None
    return base, _lifted_dim(g, d, what), g.signature


def _lifted_dim(g: LabeledGraph, d: Optional[int], what: str) -> int:
    _, d_sig = split_lifted(g.signature)
    if d is not None and d != d_sig:
        raise PolymuError(f"{what}: graph has dimension {d_sig}, -d says {d}")
    return d_sig


def _infer_signature(text: str) -> Signature:
    """Signature mentioned by a formula: bracketed names are actions, the
    rest colors.  Used by `apt` when no graph supplies the signature."""
    actions: list[str] = []
    colors: list[str] = []
    toks = _tokenize(text)
    for k, (kind, val, _) in enumerate(toks):
        if kind != "lident" or val in _KEYWORDS:
            continue
        if k and toks[k - 1][1] in ("<", "["):
            if val not in actions:
                actions.append(val)
        elif val not in colors:
            colors.append(val)
    if not colors:
        raise PolymuError(
            "cannot infer a signature: the formula mentions no colors; pass --graph"
        )
    if not actions:
        raise PolymuError(
            "cannot infer a signature: the formula mentions no actions; pass --graph"
        )
    return Signature(actions, colors)


_EX1 = LabeledGraph(
    Signature(("a",), ("f",)),
    ["0", "1", "2"],
    "0",
    [("0", "a", "1"), ("1", "a", "2"), ("2", "a", "1")],
    {"1": ["f"]},
)

_RWORD_WORD = (((), "a"), ((), "b"), (("f",), "a"))


def _cmd_mc(args) -> int:
    g = _load_graph(args.graph)
    phi = parse_formula(_formula_text(args.formula), g.signature, args.arity)
    print("true" if models(g, phi, args.arity) else "false")
    return 0


def _cmd_bisim(args) -> int:
    print("true" if bisimilar(_load_graph(args.graph), _load_graph(args.graph2)) else "false")
    return 0


def _cmd_quotient(args) -> int:
    _emit(write_graph(quotient(_load_graph(args.graph))), args)
    return 0


def _cmd_dbisim(args) -> int:
    g = _load_graph(args.graph)
    d = _lifted_dim(g, None, "dbisim")
    if (args.i is None) != (args.j is None):
        raise PolymuError("dbisim: --i and --j go together")
    if args.i is not None and not (0 <= args.i < d and 0 <= args.j < d):
        raise PolymuError(f"dbisim: components must lie in 0..{d - 1}")
    fam = largest_d_bisimulation(g)
    if args.i is not None:
        for line in relation_lines(fam.rel(args.i, args.j)):
            print(line)
        return 0
    for i in range(d):
        for j in range(d):
            print(f"rel {i} {j}")
            for line in relation_lines(fam.rel(i, j)):
                print(line)
    return 0


def _cmd_detect_power(args) -> int:
    g = _load_graph(args.graph)
    print("true" if detect_power(g, args.d, args.method) else "false")
    return 0


def _cmd_factor(args) -> int:
    _emit(write_graph(factor(_load_graph(args.graph), args.component)), args)
    return 0


def _cmd_power(args) -> int:
    _emit(write_graph(power(_load_graph(args.graph), args.d)), args)
    return 0


def _cmd_product(args) -> int:
    _emit(write_graph(product([_load_graph(args.graph), _load_graph(args.graph2)])), args)
    return 0


def _cmd_unfold(args) -> int:
    _emit(write_graph(unfold(_load_graph(args.graph), args.depth)), args)
    return 0


def _cmd_mono(args) -> int:
    base, d, _ = _base_and_dim(_load_graph(args.graph), args.d, "mono")
    phi = parse_formula(_formula_text(args.formula), base, d + 1)
    print(print_formula(monofy(phi, d)))
    return 0


def _cmd_poly(args) -> int:
    base, d, lifted = _base_and_dim(_load_graph(args.graph), args.d, "poly")
    psi = parse_formula(
        _formula_text(args.formula), lifted or lift_signature(base, d), 1
    )
    print(print_formula(polyfy(psi, d)))
    return 0


def _cmd_nonuniv1(args) -> int:
    print(one_letter_non_universal(_load_graph(args.graph)).to_json())
    return 0


def _cmd_nonuniv1_lifted(args) -> int:
    g = _load_graph(args.graph)
    d = _lifted_dim(g, args.d, "nonuniv1-lifted")
    print(one_lifted_non_universal(g, d).to_json())
    return 0


def _cmd_nonuniv2(args) -> int:
    print(two_letter_non_universal(_load_graph(args.graph)).to_json())
    return 0


def _cmd_nonuniv2_lifted(args) -> int:
    g = _load_graph(args.graph)
    d = _lifted_dim(g, args.d, "nonuniv2-lifted")
    print(two_lifted_non_universal(g, d).to_json())
    return 0


def _cmd_pump(args) -> int:
    tree = _load_tree(args.graph)
    path = _split_path(args.path)
    _emit(write_graph(pump(tree, path, args.i, args.j, args.k)), args)
    return 0


def _cmd_pump_find(args) -> int:
    tree = _load_tree(args.graph)
    psi = parse_formula(_formula_text(args.formula), tree.signature, 1)
    apt = formula_to_apt(psi, tree.signature)
    i, j = find_pumping_pair(apt, tree, _split_path(args.path))
    print(f"{i} {j}")
    return 0


def _cmd_apt(args) -> int:
    text = _formula_text(args.formula)
    if args.graph:
        g = _load_graph(args.graph)
        apt = formula_to_apt(parse_formula(text, g.signature, 1), g.signature)
        print("true" if accepts(apt, g) else "false")
        return 0
    sig = _infer_signature(text)
    _emit(format_apt(formula_to_apt(parse_formula(text, sig, 1), sig)), args)
    return 0


def _cmd_gen(args) -> int:
    if args.fixture == "ex1":
        _emit(write_graph(_EX1), args)
    elif args.fixture == "power-ex1":
        _emit(write_graph(power(_EX1, 2)), args)
    elif args.fixture == "rword":
        _emit(write_graph(gen_rword_tree(_RWORD_WORD, 2, 2)), args)
    else:
        raise PolymuError(
            f"unknown fixture {args.fixture!r}; available: ex1, power-ex1, rword"
        )
    return 0


def _cmd_xcheck(args) -> int:
    cfg = RunConfig(seed=args.seed, iterations=args.iters)
    results = run_all(cfg)
    print(format_report(cfg, results))
    return 0 if all(r.ok for r in results) else 3


def _add_graph(p, required=True, help="graph JSON file"):
    p.add_argument("--graph", required=required, help=help)


def _add_formula(p):
    p.add_argument("--formula", required=True, help="formula text, or @FILE to read one")


def _add_out(p):
    p.add_argument("-o", "--out", help="write the result to this file instead of stdout")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process on the first main call;
    later calls only run parse_args on it.  Each set_defaults(func=_cmd_...)
    binds its handler on that first build, so a test patches what a handler
    calls (as test_xcheck_failure_exit_code patches cli.run_all), not the
    _cmd_* function itself."""
    top = argparse.ArgumentParser(
        prog="polymu",
        description="Polyadic modal mu-calculus toolchain on finite labeled graphs.",
    )
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("mc", help="evaluate a formula at the root tuple")
    _add_graph(p)
    _add_formula(p)
    p.add_argument("--arity", type=int, default=1, help="formula arity (default 1)")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("bisim", help="are two graphs bisimilar at their roots")
    _add_graph(p)
    p.add_argument("--graph2", required=True, help="second graph JSON file")
    p.set_defaults(func=_cmd_bisim)

    p = sub.add_parser("quotient", help="bisimulation quotient of a graph")
    _add_graph(p)
    _add_out(p)
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("dbisim", help="largest d-bisimulation family of a lifted graph")
    _add_graph(p)
    p.add_argument("--i", type=int, help="print only the relation for components i, j")
    p.add_argument("--j", type=int)
    p.set_defaults(func=_cmd_dbisim)

    p = sub.add_parser("detect-power", help="is a lifted graph a power up to bisimulation")
    _add_graph(p)
    p.add_argument("-d", type=int, help="expected dimension (checked against the graph)")
    p.add_argument(
        "--method",
        default="both",
        choices=("dbisim", "logic", "both"),
        help="relation-based, formula-based, or both with a cross-check",
    )
    p.set_defaults(func=_cmd_detect_power)

    p = sub.add_parser("factor", help="i-th factor of a persistent reset graph")
    _add_graph(p)
    p.add_argument("--component", type=int, required=True, help="factor index i")
    _add_out(p)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("power", help="d-th power of a base graph")
    _add_graph(p)
    p.add_argument("-d", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("product", help="product of two base graphs")
    _add_graph(p)
    p.add_argument("--graph2", required=True, help="second graph JSON file")
    _add_out(p)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("unfold", help="tree unfolding of a graph to a depth")
    _add_graph(p)
    p.add_argument("--depth", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_unfold)

    p = sub.add_parser("mono", help="monofication of a d-rooted formula")
    _add_graph(p, help="graph JSON file supplying the signature")
    _add_formula(p)
    p.add_argument("-d", type=int, help="dimension (inferred from a lifted graph)")
    p.set_defaults(func=_cmd_mono)

    p = sub.add_parser("poly", help="polyfication of an arity-1 lifted formula")
    _add_graph(p, help="graph JSON file supplying the signature")
    _add_formula(p)
    p.add_argument("-d", type=int, help="dimension (inferred from a lifted graph)")
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("nonuniv1", help="one-letter NFA non-universality")
    _add_graph(p)
    p.set_defaults(func=_cmd_nonuniv1)

    p = sub.add_parser("nonuniv1-lifted", help="lifted one-letter non-universality")
    _add_graph(p)
    p.add_argument("-d", type=int, help="dimension (checked against the graph)")
    p.set_defaults(func=_cmd_nonuniv1_lifted)

    p = sub.add_parser("nonuniv2", help="two-letter NFA non-universality")
    _add_graph(p)
    p.set_defaults(func=_cmd_nonuniv2)

    p = sub.add_parser("nonuniv2-lifted", help="lifted two-letter non-universality")
    _add_graph(p)
    p.add_argument("-d", type=int, help="dimension (checked against the graph)")
    p.set_defaults(func=_cmd_nonuniv2_lifted)

    p = sub.add_parser("pump", help="excise or replicate a tree path segment")
    _add_graph(p, help="tree JSON file")
    p.add_argument("--path", required=True, help="comma-separated root path node ids")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True, help="copies of the segment (0 = cut)")
    _add_out(p)
    p.set_defaults(func=_cmd_pump)

    p = sub.add_parser("pump-find", help="least repeated winning-set pair on a path")
    _add_graph(p, help="tree JSON file")
    _add_formula(p)
    p.add_argument("--path", required=True, help="comma-separated root path node ids")
    p.set_defaults(func=_cmd_pump_find)

    p = sub.add_parser("apt", help="automaton for a formula; verdict with --graph")
    _add_formula(p)
    _add_graph(p, required=False, help="graph to run the automaton on")
    _add_out(p)
    p.set_defaults(func=_cmd_apt)

    p = sub.add_parser("gen", help="emit a canonical fixture")
    p.add_argument("fixture", help="ex1, power-ex1, or rword")
    _add_out(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("xcheck", help="run the cross-validation suites")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--iters", type=int, help="override the per-suite sample counts")
    p.set_defaults(func=_cmd_xcheck)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CrossCheckError as e:
        print(f"cross-check disagreement: {e}", file=sys.stderr)
        return 3
    except (PolymuError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
