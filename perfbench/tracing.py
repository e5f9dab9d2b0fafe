"""Spans around calls into the library's public functions.

A ``Tracer`` wraps a fixed list of public functions and rebinds each
wrapper in every ``polymu`` module that holds the function by name, so
calls between modules are seen as well as the benchmark's own calls.
``restore`` puts the originals back.  Nothing under ``src/`` changes.

Spans (id, parent, name, op, start, end) stay in memory in flat arrays
and are written out once, at the end of the run.  Sizes such as tuple
space or game positions are computed from arguments and return values
only, after the span has been closed.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

# (span name, module, attribute).  Several attributes may share a span name.
# "LabeledGraph" is wrapped at its __init__, so subclasses are counted too.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("cli.main", "polymu.cli", "main"),
    ("graphs.read_graph", "polymu.graphs", "read_graph"),
    ("graphs.write_graph", "polymu.graphs", "write_graph"),
    ("graphs.LabeledGraph", "polymu.graphs", "LabeledGraph"),
    ("graphs.product", "polymu.graphs", "product"),
    ("logic.parse_formula", "polymu.logic", "parse_formula"),
    ("logic.print_formula", "polymu.logic", "print_formula"),
    ("logic.gen_formula", "polymu.logic", "gen_bisim_formula"),
    ("logic.gen_formula", "polymu.logic", "gen_per_formula"),
    ("logic.gen_formula", "polymu.logic", "gen_rst_formula"),
    ("logic.gen_formula", "polymu.logic", "gen_pow_formula"),
    ("semantics.evaluate", "polymu.semantics", "evaluate"),
    ("automata.formula_to_apt", "polymu.automata", "formula_to_apt"),
    ("automata.acceptance_game", "polymu.automata", "acceptance_game"),
    ("automata.solve_parity", "polymu.automata", "solve_parity"),
    ("automata.find_pumping_pair", "polymu.automata", "find_pumping_pair"),
    ("bisim.largest_bisimulation", "polymu.bisim", "largest_bisimulation"),
    ("bisim.bisimulation_partition", "polymu.bisim", "bisimulation_partition"),
    ("bisim.largest_d_bisimulation", "polymu.bisim", "largest_d_bisimulation"),
    ("bisim.power_conditions", "polymu.bisim", "power_conditions"),
    ("bisim.power_formula_verdicts", "polymu.bisim", "power_formula_verdicts"),
    ("bisim.factor", "polymu.bisim", "factor"),
    ("queries.one_letter_non_universal", "polymu.queries", "one_letter_non_universal"),
    ("queries.two_letter_non_universal", "polymu.queries", "two_letter_non_universal"),
    ("queries.one_lifted_non_universal", "polymu.queries", "one_lifted_non_universal"),
    ("queries.two_lifted_non_universal", "polymu.queries", "two_lifted_non_universal"),
    ("queries.verify_witness", "polymu.queries", "verify_one_lifted_witness"),
    ("queries.verify_witness", "polymu.queries", "verify_two_lifted_witness"),
    ("queries.reach_by_squaring", "polymu.queries", "reach_by_squaring"),
    ("pumping.pump", "polymu.pumping", "pump"),
    ("pumping.is_isomorphic", "polymu.pumping", "is_isomorphic"),
    ("xcheck.run_check", "polymu.xcheck", "run_check"),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in TARGETS))


def _candidate_pairs(g1, g2) -> int:
    """Label-consistent pairs, the starting relation of pair deletion."""
    left = Counter(g1.label(v) for v in g1.nodes)
    right = Counter(g2.label(v) for v in g2.nodes)
    return sum(k * right[lab] for lab, k in left.items())


# span name -> (size counters, f(args, result) -> their amounts)
SIZERS: dict[str, tuple[tuple[str, ...], Callable]] = {
    "graphs.product": (("nodes_out", "edges_out"), lambda a, r: (len(r.nodes), len(r.edges))),
    "semantics.evaluate": (("tuple_space",), lambda a, r: (len(a[0].nodes) ** a[1].arity,)),
    "automata.formula_to_apt": (("states",), lambda a, r: (len(r.states),)),
    "automata.acceptance_game": (("positions", "moves"),
                                 lambda a, r: (len(r.labels), sum(map(len, r.moves)))),
    "bisim.largest_bisimulation": (("candidate_pairs", "kept_pairs"),
                                   lambda a, r: (_candidate_pairs(a[0], a[1]), len(r))),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = list(SPAN_NAMES)
        self._name_id = {n: k for k, n in enumerate(self.names)}
        # one entry per closed span
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.calls: Counter = Counter()
        self.sizes: Counter = Counter()
        self.timeouts: Counter = Counter()
        self.op_index = -1
        self._stack: list[tuple[int, int]] = []  # open (span id, name id)
        self._next = 0
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, span: str, fn: Callable) -> Callable:
        nid = self._name_id[span]
        keys, sizer = SIZERS.get(span, ((), None))
        counters = [f"{span}.{k}" for k in keys]
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1][0] if stack else -1
            stack.append((sid, nid))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self._record(sid, parent, nid, t0, t1)
            if sizer is not None:
                self.sizes.update(dict(zip(counters, sizer(args, result))))
            return result

        return traced

    def _record(self, sid, parent, nid, t0, t1) -> None:
        self.sid.append(sid)
        self.parent.append(parent)
        self.name.append(nid)
        self.op.append(self.op_index)
        self.start.append(t0)
        self.end.append(t1)
        self.calls[self.names[nid]] += 1

    def install(self) -> None:
        """Wrap every target and rebind it wherever polymu holds it by name."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "polymu" or k.startswith("polymu."))]
        for span, mod_name, attr in TARGETS:
            home = sys.modules[mod_name]
            original = getattr(home, attr)
            if isinstance(original, type):
                init = original.__init__
                self._undo.append((original, "__init__", init))
                setattr(original, "__init__", self._wrap(span, init))
                continue
            wrapper = self._wrap(span, original)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def restore(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # ------------------------------------------------------------ ops

    def begin_op(self) -> None:
        """Spans from here on belong to the next op execution."""
        self.op_index += 1
        self._stack.clear()

    def on_deadline(self) -> None:
        """Called from the alarm handler: charge the innermost open span."""
        if self._stack:
            self.timeouts[self.names[self._stack[-1][1]]] += 1

    # ------------------------------------------------------------ results

    def spans(self) -> list[tuple[int, int, str, int, int, int]]:
        return [
            (self.sid[k], self.parent[k], self.names[self.name[k]], self.op[k],
             self.start[k], self.end[k])
            for k in range(len(self.sid))
        ]

    def busy_seconds(self, scale: Callable[[int], float]) -> dict[str, float]:
        """Self time per span name; scale(op) calibrates op execution `op`."""
        return {name: ns / 1e9 for name, ns in self_times(self.spans(), scale).items()}

    def write(self, path: Path, op_ids: list[str]) -> None:
        """All spans as gzipped TSV: span, parent, name, op id, start_ns,
        end_ns.  op_ids[k] names op execution k."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write("span\tparent\tname\top\tstart_ns\tend_ns\n")
            for sid, parent, name, op, t0, t1 in self.spans():
                op_id = op_ids[op] if 0 <= op < len(op_ids) else "-"
                f.write(f"{sid}\t{parent}\t{name}\t{op_id}\t{t0}\t{t1}\n")


def self_times(spans, scale: Callable[[int], float] = lambda op: 1.0) -> dict[str, float]:
    """Per-name self time: each span's duration minus the durations of its
    child spans, times scale(op).  Spans are (id, parent, name, op, start,
    end), in any order; parent is -1 at the top.  Children of one span never
    overlap, because calls are synchronous."""
    child: dict[int, int] = {}
    for sid, parent, _, _, t0, t1 in spans:
        if parent >= 0:
            child[parent] = child.get(parent, 0) + (t1 - t0)
    busy: dict[str, float] = {}
    for sid, _, name, op, t0, t1 in spans:
        busy[name] = busy.get(name, 0) + ((t1 - t0) - child.get(sid, 0)) * scale(op)
    return busy
