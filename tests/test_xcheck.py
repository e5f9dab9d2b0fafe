import pytest

from polymu.errors import PolymuError
from polymu.pumping import check_luni
from polymu.xcheck import (
    CheckResult,
    RunConfig,
    _enum_one_letter_nfas,
    format_report,
    run_check,
)

from conftest import levels


def test_runconfig_validation():
    RunConfig(seed=0)
    RunConfig(seed=(1 << 64) - 1, iterations=1)
    with pytest.raises(PolymuError):
        RunConfig(seed=-1)
    with pytest.raises(PolymuError):
        RunConfig(seed=1 << 64)
    with pytest.raises(PolymuError):
        RunConfig(iterations=0)
    with pytest.raises(PolymuError):
        RunConfig(max_nodes=0)


def test_count_override():
    assert RunConfig().count(200) == 200
    assert RunConfig(iterations=17).count(200) == 17


def test_unknown_check_index():
    with pytest.raises(PolymuError, match="no check numbered"):
        run_check(13, RunConfig())


def test_crash_reported_as_failure():
    from polymu import xcheck

    saved = xcheck.CHECKS
    try:
        xcheck.CHECKS = ((1, "boom", lambda cfg: 1 // 0),)
        r = run_check(1, RunConfig())
    finally:
        xcheck.CHECKS = saved
    assert not r.ok
    assert "error:" in r.detail


def test_report_shape():
    cfg = RunConfig(seed=3, iterations=9)
    results = [CheckResult(1, "alpha", True, "fine"), CheckResult(2, "beta", False, "off")]
    report = format_report(cfg, results)
    assert report.splitlines() == [
        "xcheck seed=3 iterations=9",
        "[ 1] ok   alpha: fine",
        "[ 2] FAIL beta: off",
        "2 checks, 1 failures",
    ]
    assert "iterations=default" in format_report(RunConfig(), [])


def test_check_determinism():
    cfg = RunConfig(seed=123, iterations=4)
    a = run_check(1, cfg)
    b = run_check(1, cfg)
    assert a == b
    c = run_check(1, RunConfig(seed=124, iterations=4))
    assert c.ok  # different seed still passes, detail may differ


def test_enum_covers_declared_space():
    sizes = {}
    for g in _enum_one_letter_nfas():
        sizes[len(g.nodes)] = sizes.get(len(g.nodes), 0) + 1
    # 2^(n^2) edge sets times 2^n accepting sets for n <= 3,
    # 4^4 successor maps times 2^4 accepting sets for n = 4
    assert sizes == {1: 4, 2: 64, 3: 4096, 4: 4096}


def test_apt_suite_catches_one_flipped_winner(monkeypatch):
    from polymu import xcheck

    real = xcheck.acceptance_winners

    def flip_one(apt, g):
        # away from the initial position, where the evaluator cannot see it
        winner = list(real(apt, g))
        v = (g.index[g.root] * len(apt.states) + apt.initial + 1) % len(winner)
        winner[v] = 1 - winner[v]
        return tuple(winner)

    cfg = RunConfig(seed=7, iterations=20)
    assert run_check(9, cfg).ok
    monkeypatch.setattr(xcheck, "acceptance_winners", flip_one)
    r = run_check(9, cfg)
    assert not r.ok
    assert r.detail.startswith("0/20 agree")


def test_word_tree_suite_catches_one_recolored_node(monkeypatch):
    from polymu import xcheck
    from polymu.graphs import FiniteTree

    real = xcheck.gen_rword_tree
    recolored = []

    def recolor_one(word, branching, depth):
        # f onto one node of a level without f, in a tree that has a level
        # all f elsewhere: the formula and check_luni still agree, so only
        # the r-word shape check can see it
        tree = real(word, branching, depth)
        if "f" in tree.label(tree.root) or check_luni(tree) is None:
            return tree
        for level in levels(tree)[1:]:
            if len(level) > 1 and "f" not in tree.label(level[0]):
                break
        else:
            return tree
        recolored.append(level[0])
        labels = {v: sorted(tree.label(v) | {"f"} if v == level[0] else tree.label(v))
                  for v in tree.nodes}
        return FiniteTree(tree.signature, tree.nodes, tree.root, tree.edges, labels)

    cfg = RunConfig(seed=7)
    assert run_check(11, cfg) == CheckResult(11, "word-tree regularity", True, "50/50 agree")
    monkeypatch.setattr(xcheck, "gen_rword_tree", recolor_one)
    r = run_check(11, cfg)
    assert recolored and not r.ok
    assert r.detail == f"{50 - len(recolored)}/50 agree"
    # the shape check is what fails them
    monkeypatch.setattr(xcheck, "is_rword", lambda tree: True)
    assert run_check(11, cfg).ok
