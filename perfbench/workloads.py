"""The three workloads: their input files and their ops.

Every op is one in-process call, exactly as a user runs the tool:
``polymu.cli.main(argv)`` for ``modelcheck`` and ``powers``, and
``polymu.xcheck.run_check(i, RunConfig(seed=...))`` for ``xcheck``.  The
module attribute is looked up at call time, so a traced run sees its
wrappers.  Each op carries a check against a reference answer or
against the verdict of an independent route.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import corpus
import reference
from runner import ERROR, OK, WRONG, Op, Outcome

WORKLOADS = ("modelcheck", "powers", "xcheck")
SUITES = tuple(range(1, 13))
# xcheck runs at these RunConfig seeds whatever the workload seed: the
# default (7) and the second seed the ROADMAP's byte-identity gate uses.
# A suite's time and peak memory swing up to 3x from one seed to the next
# (suite 3: 1.2-5.6 s, 29-82 MB), more than a run can average out.
XCHECK_SEEDS = (7, 11)


@dataclass
class Workload:
    files: dict[str, str]  # file name -> text, written under the work dir
    ops: list[Op]
    specs: list[tuple[str, ...]]  # op id and arguments, for the corpus hash

    @property
    def sha256(self) -> str:
        return corpus.corpus_hash(self.files, self.specs)


class _Builder:
    def __init__(self, workdir: Path, cli, deadline: float):
        self.workdir = workdir
        self.cli = cli
        self.deadline = deadline
        self.files: dict[str, str] = {}
        self.ops: list[Op] = []
        self.specs: list[tuple[str, ...]] = []

    def read(self, name: str) -> corpus.Graph:
        return corpus.Graph.from_json((self.workdir / name).read_text(encoding="utf-8"))

    def cli_op(self, op_id: str, argv: list[str], verify) -> None:
        """argv names files by bare name; names ending in .json resolve
        under the work dir."""
        full = [str(self.workdir / a) if a.endswith(".json") else a for a in argv]
        cli = self.cli
        self.ops.append(Op(op_id, lambda: cli.main(full), self.deadline, verify))
        self.specs.append((op_id, *argv))


def _verdict(o: Outcome) -> Optional[str]:
    text = o.stdout.strip()
    return text if text in ("true", "false") else None


def _expect(want: bool):
    def verify(o: Outcome, _) -> Optional[str]:
        got = _verdict(o)
        return None if got == str(want).lower() else f"expected {str(want).lower()}, got {got!r}"
    return verify


# ------------------------------------------------------------ modelcheck


def _modelcheck(b: _Builder, seed: int) -> None:
    for gname, g, formulas in corpus.modelcheck_inputs(seed):
        fname = f"{gname}.json"
        b.files[fname] = g.to_json()
        for fid, text, kind in formulas:
            mc_id, apt_id = f"mc/{gname}/{fid}", f"apt/{gname}/{fid}"
            if kind is not None:
                verify = _expect(reference.pattern_answer(g, kind))
                b.cli_op(mc_id, ["mc", "--graph", fname, "--formula", text], verify)
                b.cli_op(apt_id, ["apt", "--formula", text, "--graph", fname], verify)
            else:
                b.cli_op(mc_id, ["mc", "--graph", fname, "--formula", text], _agrees(apt_id))
                b.cli_op(apt_id, ["apt", "--formula", text, "--graph", fname], _agrees(mc_id))


def _agrees(other_id: str):
    """The evaluator and the automaton must give the same verdict."""

    def verify(o: Outcome, by_id) -> Optional[str]:
        got = _verdict(o)
        if got is None:
            return f"not a verdict: {o.stdout.strip()[:60]!r}"
        other = by_id.get(other_id)
        if other is None or other.status not in (OK, WRONG):
            return None  # the other route failed and is counted there
        if _verdict(other) != got:
            return f"{got}, but {other_id} says {other.stdout.strip()[:20]!r}"
        return None

    return verify


# ------------------------------------------------------------ powers


def _powers(b: _Builder, seed: int) -> None:
    inputs = corpus.powers_inputs(seed)
    for name, base, d, with_quotient in inputs.pipelines:
        src, pw = f"{name}.json", f"{name}-pow.out.json"
        b.files[src] = base.to_json()
        want = reference.product([base] * d)
        b.cli_op(f"power/{name}", ["power", "--graph", src, "-d", str(d), "-o", pw],
                 _same_graph(b, pw, want))
        b.cli_op(f"detect/{name}", ["detect-power", "--graph", pw, "--method", "both"],
                 _expect(True))
        for i in range(d):
            out = f"{name}-f{i}.out.json"
            b.cli_op(f"factor/{name}/{i}", ["factor", "--graph", pw, "--component", str(i), "-o", out],
                     _bisimilar_to(b, out, base, minimal=False))
        if with_quotient:
            out = f"{name}-q.out.json"
            b.cli_op(f"quotient/{name}", ["quotient", "--graph", pw, "-o", out],
                     _bisimilar_to(b, out, want, minimal=True))
    for name, base in inputs.products:
        left, right, prod = f"{name}.json", f"{name}-t.json", f"{name}-prod.out.json"
        toggled = corpus.toggle_root_color(base)
        b.files[left], b.files[right] = base.to_json(), toggled.to_json()
        b.cli_op(f"product/{name}", ["product", "--graph", left, "--graph2", right, "-o", prod],
                 _same_graph(b, prod, reference.product([base, toggled])))
        b.cli_op(f"detect/{name}", ["detect-power", "--graph", prod, "--method", "both"],
                 _expect(False))
    for name, g in inputs.lifted:
        src = f"{name}.json"
        b.files[src] = g.to_json()
        # the oracle is the two methods agreeing: disagreement exits 3
        b.cli_op(f"detect/{name}", ["detect-power", "--graph", src, "--method", "both"],
                 lambda o, _: None if _verdict(o) else f"not a verdict: {o.stdout[:60]!r}")


def _same_graph(b: _Builder, out: str, want: corpus.Graph):
    def verify(o: Outcome, _) -> Optional[str]:
        got = b.read(out)
        return None if got.canonical() == want.canonical() else "output differs from the reference product"
    return verify


def _bisimilar_to(b: _Builder, out: str, want: corpus.Graph, minimal: bool):
    def verify(o: Outcome, _) -> Optional[str]:
        got = b.read(out)
        if not reference.bisimilar(got, want):
            return "output is not bisimilar to the reference"
        if minimal and not reference.is_minimal(got):
            return "quotient has two bisimilar nodes"
        return None
    return verify


# ------------------------------------------------------------ xcheck


def _suite_status(result) -> str:
    if result.ok:
        return OK
    return ERROR if result.detail.startswith("error:") else WRONG


def _xcheck(b: _Builder, xcheck, suite_deadline: float) -> None:
    for seed in XCHECK_SEEDS:
        cfg = xcheck.RunConfig(seed=seed)
        for i in SUITES:
            op_id = f"xcheck/seed{seed}/suite{i:02d}"
            b.ops.append(Op(op_id, lambda i=i, cfg=cfg: xcheck.run_check(i, cfg), suite_deadline,
                            status_of=_suite_status, sample=f"xcheck/suite{i:02d}"))
            b.specs.append((op_id, str(i), str(seed)))


def build(name: str, seed: int, workdir: Path, cli, xcheck,
          deadline: float, suite_deadline: float) -> Workload:
    """Generate the inputs of workload `name` and write them under workdir."""
    b = _Builder(workdir, cli, deadline)
    if name == "modelcheck":
        _modelcheck(b, seed)
    elif name == "powers":
        _powers(b, seed)
    elif name == "xcheck":
        _xcheck(b, xcheck, suite_deadline)
    else:
        raise ValueError(f"unknown workload {name!r}")
    corpus.write_files(workdir, b.files)
    return Workload(b.files, b.ops, b.specs)
