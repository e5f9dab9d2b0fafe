"""Acceptance gate: every numbered cross-validation suite at its full
sample count.  One test per suite, so the verbose report reads as one
pass/fail line per criterion."""

from pathlib import Path

from polymu.xcheck import CHECKS, RunConfig, format_report, run_check

CFG = RunConfig()
RESULTS = {}  # suite index -> CheckResult, shared with the report gate below


def _run(index: int):
    if index not in RESULTS:
        RESULTS[index] = run_check(index, CFG)
    return RESULTS[index]


def _require(index: int):
    r = _run(index)
    assert r.ok, f"[{r.index}] {r.name}: {r.detail}"
    return r


def test_c01_power_round_trip():
    # 200 random (graph, d-rooted formula), |V| <= 5, d in {1,2}, size <= 12:
    # evaluating at arity d+1 agrees with the monofied formula on the d-power
    _require(1)


def test_c02_transform_inverses():
    # polyfy(monofy(phi)) = phi and monofy(polyfy(psi)) = psi, 200 formulas each way
    _require(2)


def test_c03_power_detection_methods():
    # relation-based and formula-based power detection agree on 100 random
    # lifted graphs; 50 built cases: powers accepted, root-color-toggled
    # products fail exactly the root condition
    _require(3)


def test_c04_factorization():
    # factor(power(G,d), i) bisimilar to G (100 graphs, d <= 3, all i);
    # product(factors(H)) bisimilar to H (50 products)
    _require(4)


def test_c05_bisim_formula_vs_relation():
    # the component-bisimilarity formula denotes exactly the relation, 50 graphs
    _require(5)


def test_c06_one_letter_lift():
    # exhaustive sweep: every 1-letter NFA with <= 3 states plus all 4-state
    # one-successor ones; lifted query on the d-power matches the base query
    # for d in {1,2}, witnesses included; both verdicts cover >= 10% of cases
    r = _require(6)
    assert "8260 automata" in r.detail


def test_c07_two_letter_lift():
    # 300 random 2-letter NFAs with <= 3 states, same lift agreement for d in {1,2}
    _require(7)


def test_c08_squaring_vs_bfs():
    # reach_by_squaring equals the iterated image for n <= 64, 100 NFAs
    _require(8)


def test_c09_automaton_vs_evaluator():
    # game acceptance of the formula automaton equals the evaluator verdict,
    # 500 random pairs, formula size <= 10, |V| <= 5
    _require(9)


def test_c10_pumping():
    # 50 accepted trees with paths past the repetition bound: k in {0,2,3}
    # preserves acceptance, k = 1 reproduces the tree up to isomorphism
    _require(10)


def test_c11_word_tree_regularity():
    # on word trees (depth <= 8, branching <= 3) the reachability formula
    # agrees with the level-coloring check, 50 trees
    _require(11)


def test_c12_bisim_invariance():
    # same corpus as the round-trip suite, evaluated on quotients
    _require(12)


def test_report_matches_seed7_golden():
    # the full report, byte for byte, as `polymu xcheck --seed 7` prints it;
    # suites already run above are not run again
    report = format_report(CFG, [_run(idx) for idx, _, _ in CHECKS]) + "\n"
    assert report == (Path(__file__).parent / "data" / "xcheck_seed7.txt").read_text()


def test_report_matches_seed11_golden():
    # the same comparison at the second committed seed, as `polymu xcheck --seed 11`
    cfg = RunConfig(seed=11)
    report = format_report(cfg, [run_check(idx, cfg) for idx, _, _ in CHECKS]) + "\n"
    assert report == (Path(__file__).parent / "data" / "xcheck_seed11.txt").read_text()
