"""The benchmark tracer's targets exist in the library, its sizers read
what the library returns, the library never patches or reads the
recursion limit and no module but the random generator recurses, a
formula is compiled only in its cached property and its node fields
are read only in logic.py, the analyses and the
derived-graph builders read a graph's edges only as the position pairs
it stores, and their colors only as the position masks it stores, a
graph has no per-node successor view and a tree no id views of its
shape, the trusted constructor is not exported, acceptance builds no
game and keeps off the Zielonka solver that checks it, graphs hold no cached_property,
the bitmask kernel (the lowest-set-bit walk, the repunit and the digit
spread) is written once, in graphs.py, and so is the reading of a
graph's moves into rows and lists, and every exported name, every
public top-level function and class, and every public method of a
public class has a reader in the library."""
import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracing_targets_resolve():
    tracing = _load_tracing()
    assert tracing.TARGETS
    missing = [
        (module, attr)
        for _, module, attr in tracing.TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_tracing_sizers_read_real_results():
    from polymu.automata import formula_to_apt
    from polymu.graphs import LabeledGraph, Signature
    from polymu.logic import parse_formula

    tracing = _load_tracing()
    sig = Signature(("a",), ("f",))
    g = LabeledGraph(sig, ["0", "1", "2"], "0",
                     [("0", "a", "1"), ("1", "a", "2"), ("2", "a", "1")], {"1": ["f"]})
    phi = parse_formula("mu X. f | <a>X", sig, 1)
    apt = formula_to_apt(phi, sig)
    # span name -> the arguments of one real call of a function it wraps
    calls = {
        "graphs.product": ([g, g],),
        "semantics.evaluate": (g, parse_formula("f@0 & <a@1>f@1", sig, 2)),
        "automata.formula_to_apt": (phi, sig),
        "automata.acceptance_game": (apt, g),
        "bisim.largest_bisimulation": (g, g),
    }
    assert set(tracing.SIZERS) <= set(calls)
    for span, (keys, sizer) in tracing.SIZERS.items():
        fns = [getattr(importlib.import_module(module), attr)
               for name, module, attr in tracing.TARGETS if name == span]
        assert fns, span
        for fn in fns:
            args = calls[span]
            sizes = sizer(args, fn(*args))
            assert len(sizes) == len(keys), span
            assert all(type(x) is int for x in sizes), (span, sizes)


def test_library_never_raises_the_recursion_limit():
    sources = sorted((ROOT / "src" / "polymu").glob("*.py"))
    assert sources
    assert [p.name for p in sources if "setrecursionlimit" in p.read_text()] == []
    assert [p.name for p in sources if "getrecursionlimit" in p.read_text()] == []


def test_formula_and_game_passes_do_not_recurse():
    """No function in the library, nested ones included, calls itself by
    name; randgen's generator is left out, as its size budget bounds its
    depth."""
    recursive = []
    paths = sorted((ROOT / "src" / "polymu").glob("*.py"))
    names = [p.name for p in paths if p.name != "randgen.py"]
    assert {"logic.py", "semantics.py", "automata.py", "bisim.py", "queries.py", "graphs.py",
            "pumping.py", "xcheck.py", "cli.py"} <= set(names)
    for name in names:
        tree = ast.parse((ROOT / "src" / "polymu" / name).read_text())
        methods = {f for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(fn):
                f = getattr(call, "func", None)
                # a method calls itself as self.name, a function by its bare name
                if fn in methods:
                    hit = isinstance(f, ast.Attribute) and f.attr == fn.name and \
                        isinstance(f.value, ast.Name) and f.value.id == "self"
                else:
                    hit = isinstance(f, ast.Name) and f.id == fn.name
                if hit:
                    recursive.append(f"{name}:{fn.lineno} {fn.name}")
    assert recursive == []


def test_formula_table_is_built_in_one_place():
    """The only call of _Table in the library is in Formula's cached
    property, so each Formula object is compiled at most once."""
    calls = []
    for path in sorted((ROOT / "src" / "polymu").glob("*.py")):
        tree = ast.parse(path.read_text())
        fns = [fn for fn in ast.walk(tree)
               if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for call in ast.walk(tree):
            f = getattr(call, "func", None)
            if getattr(f, "id", None) != "_Table" and getattr(f, "attr", None) != "_Table":
                continue
            # the innermost function around the call, with its decorators
            around = [fn for fn in fns if fn.lineno <= call.lineno <= fn.end_lineno]
            fn = max(around, key=lambda fn: fn.lineno, default=None)
            decorators = fn and [ast.unparse(d) for d in fn.decorator_list]
            calls.append((path.name, fn and fn.name, decorators))
    assert calls == [("logic.py", "_table", ["cached_property"])]


def _name_uses(name, names, ctx=(ast.Load,)):
    """Line of each use, in a module, of one of names as a variable or an
    attribute in one of the contexts ctx (loads by default), and of each
    import of one of them."""
    tree = ast.parse((ROOT / "src" / "polymu" / name).read_text())
    return [n.lineno for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ctx)
            and (n.id if isinstance(n, ast.Name) else n.attr) in names
            or isinstance(n, ast.alias) and n.name in names]


def test_formula_fields_are_read_only_in_logic():
    """_KIDS and _DATA, the child and payload field names of each node
    class, are loaded or imported only in logic.py, where the parser, the
    printer and the table compiler walk the AST; every other formula pass
    reads the compiled _Table."""
    paths = sorted((ROOT / "src" / "polymu").glob("*.py"))
    assert [p.name for p in paths if _name_uses(p.name, ("_KIDS", "_DATA"))] == ["logic.py"]


def _attr_readers(name, attrs=("edges",)):
    """Name of the innermost function around each read (an ast.Load) of
    one of the attributes attrs (by default .edges) in a module."""
    tree = ast.parse((ROOT / "src" / "polymu" / name).read_text())
    fns = [fn for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
    readers = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and n.attr in attrs and isinstance(n.ctx, ast.Load):
            around = [fn for fn in fns if fn.lineno <= n.lineno <= fn.end_lineno]
            readers.append(max(around, key=lambda fn: fn.lineno).name if around else None)
    return readers


def test_evaluator_sees_edges_only_grouped_by_action():
    """A graph stores its edges once, as LabeledGraph._moves, and the
    analysis layers and derived-graph builders reach them only there.  In
    graphs.py only the writer, equality and hashing read the derived
    .edges view."""
    readers = {name: _attr_readers(name) for name in
               ("semantics.py", "bisim.py", "queries.py", "automata.py", "pumping.py")}
    assert readers == {"semantics.py": [], "bisim.py": [], "queries.py": [],
                       "automata.py": [], "pumping.py": []}
    assert sorted(set(_attr_readers("graphs.py"))) == ["__eq__", "__hash__", "write_graph"]


def test_tree_shape_is_read_by_position():
    """A tree keeps its shape only by position, in FiniteTree._parent,
    _depth and _order, which its readers index: FiniteTree has no id
    views of it (parent(), depth_of(), levels(), children()), and no
    graph has a per-node succ() or has_color() view, so no library module
    reads one."""
    from polymu.graphs import FiniteTree

    views = ("parent", "depth_of", "levels", "children", "succ", "has_color")
    tree = ast.parse((ROOT / "src" / "polymu" / "graphs.py").read_text())
    cls = next(c for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == "FiniteTree")
    assert {f.name for f in cls.body if isinstance(f, ast.FunctionDef)} == {"_check_shape", "from_graph"}
    assert [v for v in views if hasattr(FiniteTree, v)] == []
    paths = sorted((ROOT / "src" / "polymu").glob("*.py"))
    assert {p.name: found for p in paths if (found := _attr_readers(p.name, views))} == {}


def test_derived_graphs_are_built_from_position_pairs():
    """Every _trusted call hands over position pairs: a moves dict built
    from positions, or another graph's _moves.  No library module reads
    .edges outside the writer, equality, hashing and xcheck suite 8's
    breadth-first oracle, so none builds string edges for a derived graph."""
    handed = []
    readers = {}
    for path in sorted((ROOT / "src" / "polymu").glob("*.py")):
        tree = ast.parse(path.read_text())
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "_trusted":
                handed.append(ast.unparse(call.args[3]))
        if _attr_readers(path.name):
            readers[path.name] = sorted(set(_attr_readers(path.name)))
    assert len(handed) >= 7
    assert set(handed) <= {"moves", "g._moves"}, handed
    assert readers == {"graphs.py": ["__eq__", "__hash__", "write_graph"],
                       "xcheck.py": ["check_squaring"]}


def test_colors_are_read_as_position_masks():
    """A graph stores its colors once, as LabeledGraph._colors, one
    position mask per color, and no module keeps a _labels copy: no name
    or attribute is called _labels, in any context, though longer names
    such as _json_labels may contain it.  The analysis layers, product and
    every other library reader use the masks: none calls or passes the
    per-node label() view, which costs a shift of a |V|-bit mask per
    call.  The writer and equality read them through LabeledGraph._codes,
    like bisimulation."""
    views = ("label",)
    paths = sorted((ROOT / "src" / "polymu").glob("*.py"))
    anywhere = (ast.Load, ast.Store, ast.Del)
    assert [p.name for p in paths if _name_uses(p.name, ("_labels",), anywhere)] == []
    readers = {p.name: _attr_readers(p.name, views) for p in paths}
    assert {name: found for name, found in readers.items() if found} == {}


def test_trusted_constructor_is_not_exported():
    import polymu

    assert "_trusted" not in polymu.__all__
    assert all(not name.startswith("_") for name in polymu.__all__)


def test_acceptance_runs_without_its_oracle(monkeypatch, tmp_path, capsys):
    """accepts, winning_state_sets, find_pumping_pair and `polymu apt
    --graph` solve on the product and build no game; xcheck suite 9 keeps
    acceptance_game and solve_parity as its oracle, once per case."""
    from polymu import automata, cli, xcheck
    from polymu.graphs import FiniteTree, Signature, write_graph
    from polymu.logic import parse_formula

    def oracle_called(*args):
        raise AssertionError("the oracle was called on the acceptance path")

    oracle = (automata.acceptance_game, automata.solve_parity)
    for module in (automata, xcheck):
        monkeypatch.setattr(module, "acceptance_game", oracle_called)
        monkeypatch.setattr(module, "solve_parity", oracle_called)
    sig = Signature(("a",), ("f",))
    apt = automata.formula_to_apt(parse_formula("mu X. f | <a>X", sig, 1), sig)
    n = 2 ** len(apt.states) + 2
    nodes = [f"n{k}" for k in range(n)]
    tree = FiniteTree(sig, nodes, "n0", [(u, "a", v) for u, v in zip(nodes, nodes[1:])],
                      {nodes[-1]: ["f"]})
    assert automata.accepts(apt, tree)
    assert apt.initial in automata.winning_state_sets(apt, tree, nodes)[0]
    assert automata.find_pumping_pair(apt, tree, nodes) == (1, 2)
    graph = tmp_path / "tree.json"
    graph.write_text(write_graph(tree))
    assert cli.main(["apt", "--formula", "mu X. f | <a>X", "--graph", str(graph)]) == 0
    assert capsys.readouterr().out == "true\n"
    assert xcheck.run_check(10, xcheck.RunConfig(iterations=2)).ok

    calls = []

    def counted(real):
        def wrapper(*args):
            calls.append(real.__name__)
            return real(*args)
        return wrapper

    for fn in oracle:
        monkeypatch.setattr(xcheck, fn.__name__, counted(fn))
    assert xcheck.run_check(9, xcheck.RunConfig(iterations=5)).ok
    assert sorted(calls) == ["acceptance_game"] * 5 + ["solve_parity"] * 5


def test_graphs_hold_no_cached_property():
    """graphs.py fills its lazy views by plain assignment: a
    functools.cached_property writes the instance __dict__, which slows
    every later attribute read on that graph."""
    tree = ast.parse((ROOT / "src" / "polymu" / "graphs.py").read_text())
    found = [
        node.lineno
        for node in ast.walk(tree)
        if getattr(node, "attr", None) == "cached_property"
        or getattr(node, "id", None) == "cached_property"
        or (isinstance(node, ast.alias) and node.name == "cached_property")
    ]
    assert found == []


def _kernel_kind(node):
    """Which bitmask-kernel idiom an expression is, if any: a lowest-set-bit
    step x & -x, a repunit division by (1 << e) - 1, or a digit spread, a
    mask shifted by a product."""
    if not isinstance(node, ast.BinOp):
        return None
    op, right = type(node.op), node.right
    if op is ast.BitAnd and isinstance(right, ast.UnaryOp) and isinstance(right.op, ast.USub):
        return "lowest bit"
    if op is ast.FloorDiv and isinstance(right, ast.BinOp) and isinstance(right.op, ast.Sub) \
            and isinstance(right.left, ast.BinOp) and isinstance(right.left.op, ast.LShift):
        return "repunit"
    if op is ast.LShift and isinstance(right, ast.BinOp) and isinstance(right.op, ast.Mult) \
            and not isinstance(node.left, ast.Constant):
        return "spread"
    return None


def test_bitmask_kernel_is_written_once():
    """The image and closure walks, the digit-zero repunit and the digit
    spread live in graphs.py, each in one helper, which the evaluator, the
    subset search, the squaring replay and product call instead of
    spelling them out."""
    found = []
    for path in sorted((ROOT / "src" / "polymu").glob("*.py")):
        tree = ast.parse(path.read_text())
        fns = [fn for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            kind = _kernel_kind(node)
            if kind:
                around = [fn for fn in fns if fn.lineno <= node.lineno <= fn.end_lineno]
                fn = max(around, key=lambda fn: fn.lineno).name if around else None
                found.append((path.name, fn, kind))
    assert sorted(found) == [
        ("graphs.py", "_closure", "lowest bit"),
        ("graphs.py", "_digit_zero", "repunit"),
        ("graphs.py", "_image", "lowest bit"),
        ("graphs.py", "_spread", "spread"),
    ]


def test_moves_are_read_through_the_graphs_helpers():
    """Adjacency in every form comes from the graphs.py helpers
    (_succ_rows, _pred_rows, _succ_lists, _pred_lists, _tagged_succ_lists,
    _shifts, _shift_targets), so only
    graphs.py knows how LabeledGraph._moves stores the edges.  Elsewhere
    _moves is read once by each builder of a derived graph (quotients,
    component views, pumps, suite 3's toggled copy), by the power
    conditions and by the move budget of acceptance_game.  In graphs.py
    the helpers, the edges view, __repr__'s count, the tree shape check,
    from_graph and product read it; the constructors only store it."""
    readers = {}
    for path in sorted((ROOT / "src" / "polymu").glob("*.py")):
        found = _attr_readers(path.name, ("_moves",))
        if found:
            readers[path.name] = sorted(found) if path.name != "graphs.py" else sorted(set(found))
    assert readers == {
        "automata.py": ["acceptance_game"],
        "bisim.py": ["_conditions", "_quotient_by", "component_view"],
        "graphs.py": ["__repr__", "_check_shape", "_pred_lists", "_pred_rows",
                      "_shift_targets", "_shifts", "_succ_lists", "_succ_rows",
                      "_tagged_succ_lists", "edges", "from_graph", "product"],
        "pumping.py": ["pump"],
        "xcheck.py": ["_toggle_root_color"],
    }


def _bound_names(fn):
    """Names a function or lambda binds: its parameters and every name
    stored in its body, nested scopes included."""
    a = fn.args
    names = {x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if x}
    names.update(n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return names


def test_every_exported_name_has_a_library_reader():
    """Each name in polymu.__all__, and each public top-level function and
    class of a src/polymu/ module, exported or not, is read somewhere in
    src/polymu/ outside __init__.py: by the CLI, a suite or another
    library function, its own module included.  A load counts only where
    it resolves to the name: a name in the module that defines it, or one
    bound to it by `from .module import name [as alias]`, and in either
    case not shadowed by a parameter or an assignment of an enclosing
    function; a load inside the body of the top-level function or class
    it names does not count.

    Each public method and property of a public class, dunders aside, is
    read as an attribute of that name somewhere in src/polymu/ outside
    its own body.  LabeledGraph.label is the one exemption: the library
    reads colors as masks, but perfbench's reference, corpus and
    pair-deletion sizer read label()."""
    import polymu

    trees = {p.stem: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "polymu").glob("*.py"))}
    # (module, name) of each top-level binding -> (module, name) it is imported from
    origin = {}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    origin[mod, alias.asname or alias.name] = (node.module, alias.name)

    def resolve(key):
        while key in origin:
            key = origin[key]
        return key

    read = set()
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def walk(node, mod, local, bound, inside=None):
        """inside: the top-level function or class whose body node is in."""
        for child in ast.iter_child_nodes(node):
            here = inside
            if here is None and isinstance(child, defs):
                here = (mod, child.name)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                walk(child, mod, local, bound | _bound_names(child), here)
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load) and child.id not in bound:
                key = local.get(child.id) or resolve((mod, child.id))
                if key != here:
                    read.add(key)
            walk(child, mod, local, bound, here)

    for mod, tree in trees.items():
        if mod != "__init__":
            local = {alias.asname or alias.name: resolve((node.module, alias.name))
                     for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                     and node.level == 1 and node.module for alias in node.names}
            walk(tree, mod, local, frozenset())
    exports = {name: resolve(("__init__", name)) for name in polymu.__all__}
    assert sorted(name for name, key in exports.items() if key not in read) == []
    public = {(mod, node.name) for mod, tree in trees.items() for node in tree.body
              if isinstance(node, defs) and not node.name.startswith("_")}
    assert sorted(public - read) == []

    loads = [(mod, n.attr, n.lineno) for mod, tree in trees.items() for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]
    unread = [f"{cls.name}.{fn.name}" for mod, tree in trees.items() for cls in tree.body
              if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
              for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not fn.name.startswith("_")
              and not any(attr == fn.name and not (m == mod and fn.lineno <= line <= fn.end_lineno)
                          for m, attr, line in loads)]
    assert unread == ["LabeledGraph.label"]
