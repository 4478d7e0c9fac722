"""Acceptance criteria, one printed pass line per criterion (run with -s to see).

Criterion 9 (the randomized property suites) lives in test_properties.py and
runs as part of the same pytest invocation; a cross-reference check here pins
its presence and case count.
"""

import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import solvcover as sc
from solvcover.records import parse_certificate_lines

import oracles

CERT_DIR = Path(__file__).resolve().parent.parent / "src" / "solvcover" / "data" / "certificates"

GOLDEN = [
    # spec text, order, alpha, alpha_inv (None = infinite)
    ("alternating(5)", 60, 3, 3),
    ("symmetric(5)", 120, 5, 5),
    ("psl2(7)", 168, 5, None),
    ("pgl2(7)", 336, 7, 7),
    ("alternating(6)", 360, 9, 9),
    ("psl2(8)", 504, 7, 7),
    ("psl2(11)", 660, 15, None),
    ("m10", 720, 9, 9),
    ("pgl2(9)", 720, 8, 8),
    ("symmetric(6)", 720, 9, 9),
    ("psl2(13)", 1092, 13, 13),
    ("pgl2(11)", 1320, 11, 11),
    ("pgammal2(9)", 1440, 9, 9),
    ("pgammal2(8)", 1512, 7, 7),
]

_tables: dict[str, sc.GroupTable] = {}


def table_for(spec_text: str) -> sc.GroupTable:
    t = _tables.get(spec_text)
    if t is None:
        t = sc.build(sc.parse_spec(spec_text))
        _tables[spec_text] = t
    return t


def note(criterion, text):
    print(f"ACCEPTANCE {criterion}: {text}: PASS")


# -- criterion 1: golden table -------------------------------------------------------


@pytest.mark.parametrize("spec_text,order,alpha,alpha_inv", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_criterion_1_golden_table(spec_text, order, alpha, alpha_inv):
    t0 = time.monotonic()
    table = table_for(spec_text)
    assert table.order == order
    budget = sc.SolveBudget(time_limit=120.0)
    out = sc.solve_alpha(table, "all", budget)
    assert out.status == sc.EXACT and out.lower == out.upper == alpha
    inv = sc.solve_alpha(table, "involutions", budget)
    if alpha_inv is None:
        assert inv.status == sc.INFEASIBLE
    else:
        assert inv.status == sc.EXACT and inv.lower == inv.upper == alpha_inv
    elapsed = time.monotonic() - t0
    assert elapsed <= 120.0
    shown = "inf" if alpha_inv is None else alpha_inv
    note(1, f"{spec_text} alpha={alpha} alpha_inv={shown} in {elapsed:.1f}s")


# Solved rows beyond the golden table, each 0.1-1.6 s end to end: on most the
# primal heuristic supplies the optimal cover before the deepening round that
# would re-find it, and PGL(2,19) and PGammaL(2,16) take 444 and 153 nodes a
# mode.  PGL(2,23) takes 4.5 s (1,045 nodes a mode) and PGL(2,25) 8-10 s a
# mode (6,249 nodes a mode), so they run with the slow tests.  They stay out of
# GOLDEN, which perfbench/workloads.py copies.
SOLVED_BEYOND_GOLDEN = [
    # spec text, order, alpha, alpha_inv (None = infinite)
    ("psl2(17)", 2448, 17, 17),
    ("alternating(7)", 2520, 41, None),
    ("psl2(16)", 4080, 15, 15),
    ("symmetric(7)", 5040, 21, 21),
    ("pgl2(19)", 6840, 19, 19),
    ("squished(symmetric(5),symmetric(5))", 7200, 5, 5),
    ("psl2(25)", 7800, 25, 25),
    ("psl2(29)", 12180, 29, 29),
    ("pgammal2(16)", 16320, 17, 17),
]
SLOW_BEYOND_GOLDEN = [("pgl2(23)", 12144, 23, 23), ("pgl2(25)", 15600, 25, 25)]


@lru_cache(maxsize=None)
def solved(spec_text):
    """(alpha outcome, alpha_inv outcome) of a group under the default budget."""
    table = table_for(spec_text)
    return sc.solve_alpha(table, "all"), sc.solve_alpha(table, "involutions")


@pytest.mark.parametrize("spec_text,order,alpha,alpha_inv",
                         [pytest.param(*g, id=g[0]) for g in SOLVED_BEYOND_GOLDEN]
                         + [pytest.param(*g, id=g[0], marks=pytest.mark.slow) for g in SLOW_BEYOND_GOLDEN])
def test_solved_rows_beyond_golden(spec_text, order, alpha, alpha_inv):
    table = table_for(spec_text)
    assert table.order == order
    spec = sc.parse_spec(spec_text)
    for mode, value, out in zip(("all", "involutions"), (alpha, alpha_inv), solved(spec_text)):
        if value is None:
            assert out.status == sc.INFEASIBLE
            continue
        assert out.status == sc.EXACT and out.lower == out.upper == value
        assert not out.quotient_level and len(out.certificate_perms) == value
        assert sc.verify_certificate(table, sc.Certificate(spec, mode, out.certificate_perms))


@pytest.mark.parametrize("spec_text", ["wreath(alternating(5),2,cycle)", "product(symmetric(5),alternating(5))",
                                       "product(alternating(5),psl2(7))"])
def test_solved_specs_beyond_golden(spec_text):
    # Fitting-free groups of socle A5 x A5 or A5 x PSL(2,7), through the wreath and product paths
    spec = sc.parse_spec(spec_text)
    for mode in ("all", "involutions"):
        out = sc.solve_spec(spec, mode)
        assert out.status == sc.EXACT and out.lower == out.upper == 3
        if spec.kind == "wreath" and mode == "all":
            assert out.certificate_perms is None  # the wreath bound alone, with no enumeration
            continue
        assert len(out.certificate_perms) == 3
        assert sc.verify_certificate(sc.build(spec), sc.Certificate(spec, mode, out.certificate_perms))


def test_cross_check_on_solved_rows():
    rows = sc.cross_check([(sc.parse_spec(g), *solved(g)) for g in ("psl2(17)", "psl2(25)", "psl2(29)", "psl2(16)")])
    assert [r.conjectures["q1mod4_alpha_q"] for r in rows[:3]] == ["supports"] * 3
    assert rows[3].conjectures["char2_qminus1"] == "supports"
    assert all(r.conjectures["inv_equals_alpha"] == "supports" for r in rows)


# -- criterion 2: census counts ------------------------------------------------------


def test_criterion_2_census():
    a5 = table_for("alternating(5)")
    s5 = table_for("symmetric(5)")
    ca5 = sc.maximal_solvable_subgroups(a5)
    assert dict(zip(ca5.class_orders, ca5.class_counts)) == {12: 5, 10: 6, 6: 10}
    for x in a5.involution_indices():
        assert ca5.membership_counts(int(x)) == {12: 1, 10: 2, 6: 2}
    inc5 = sc.sol_incidence(a5)
    sizes = {int(a5.order_of[r]): inc5.sol_size_of_class(c)
             for c, r in enumerate(inc5.classes.representatives) if r}
    assert sizes == {2: 36, 3: 24, 5: 10}
    cs5 = sc.maximal_solvable_subgroups(s5)
    assert dict(zip(cs5.class_orders, cs5.class_counts)) == {24: 5, 20: 6, 12: 10}
    incs = sc.sol_incidence(s5)
    by_order = {}
    for c, r in enumerate(incs.classes.representatives):
        if r:
            by_order.setdefault(int(s5.order_of[r]), set()).add(incs.sol_size_of_class(c))
    assert by_order[2] == {72}
    assert by_order[3] == {48}
    assert by_order[5] == {20}
    note(2, "A5 and S5 censuses, memberships, |Sol| values")


# -- criterion 3: the twelve bundled certificates -------------------------------------


CERT_SIZES = {
    "a5": 3, "s5": 5, "psl2_7": 5, "pgl2_7": 7, "a6": 9, "psl2_8": 7,
    "psl2_11": 15, "m10": 9, "pgl2_9": 8, "s6": 9, "psl2_13": 13, "pgammal2_8": 7,
}


def _load_cert(name):
    text = (CERT_DIR / f"{name}.cert").read_text()
    header = {}
    for line in text.splitlines():
        if line.startswith("#") and ":" in line:
            k, _, v = line[1:].partition(":")
            header[k.strip()] = v.strip()
    table = table_for(header["group"])
    perms = parse_certificate_lines(text, degree=table.degree)
    return sc.parse_spec(header["group"]), header["mode"], table, perms


def test_criterion_3_certificates():
    rng = np.random.default_rng(42)
    for name, size in CERT_SIZES.items():
        spec, mode, table, perms = _load_cert(name)
        assert len(perms) == size
        assert sc.verify_certificate(table, sc.Certificate(spec, mode, perms))
        if name in ("a5", "s5"):
            deletions = range(len(perms))
        else:
            deletions = [int(rng.integers(0, len(perms)))]
        for i in deletions:
            sub = perms[:i] + perms[i + 1:]
            assert not sc.verify_certificate(table, sc.Certificate(spec, mode, sub))
    note(3, "12 certificates verify; deletion breaks each (A5/S5 exhaustive)")


# -- criterion 4: the counting lower bound --------------------------------------------


def test_criterion_4_class_counting_bound():
    inst = sc.reduce_instance(sc.sol_incidence(table_for("alternating(5)")))
    assert sc.class_counting_bound(inst) == 3
    rows = sc.class_counting_rows(oracles.reduce_instance_by_rows(
        sc.sol_incidence(table_for("alternating(5)")), prune_dominated=False))
    (coeffs, rhs), = [r for r in rows if r[1] == 6]
    assert rhs == 6 and sorted(set(coeffs.values())) == [0, 1, 2]
    note(4, "class-counting bound reproduces the order-5 argument, value 3")


# -- criterion 5: constructive GL2 covers ---------------------------------------------


def test_criterion_5_gl2_covers():
    t0 = time.monotonic()
    assert sc.verify_gl2_cover(5)
    assert sc.verify_gl2_cover(9)
    t13 = time.monotonic()
    ptable = table_for("psl2(13)")
    idx = sc.project_to_psl(13, sc.gl2_cover_elements(13), ptable)
    assert len(set(idx)) == 13
    cert = sc.Certificate(sc.psl2(13), "involutions", [ptable.permutation(i) for i in idx])
    assert sc.verify_certificate(ptable, cert)
    elapsed13 = time.monotonic() - t13
    assert elapsed13 <= 300.0
    note(5, f"GL2 covers verify for q=5,9 native; q=13 projected in {elapsed13:.1f}s")


# -- criterion 6: product theorems ----------------------------------------------------


def test_criterion_6_products():
    t7 = table_for("psl2(7)")
    t9 = table_for("psl2(9)")
    out = sc.solve_product([t7, t9], "all")
    inv = sc.solve_product([t7, t9], "involutions")
    assert out.status == sc.EXACT and out.lower == 5
    assert inv.status == sc.EXACT and inv.lower == 9
    # materialized agreement, order 360: product path == full pipeline
    spec = sc.direct_product(sc.psl2(4), sc.symmetric(3))
    fast = sc.solve_product([sc.build(sc.psl2(4)), sc.build(sc.symmetric(3))], "all")
    full = sc.solve_alpha(sc.build(spec), "all")
    assert fast.status == full.status == sc.EXACT
    assert fast.lower == full.lower == 3
    note(6, "product(psl2(7),psl2(9)) = 5/9; materialized 360-order agreement")


# -- criterion 7: wreath fast path ----------------------------------------------------


def test_criterion_7_wreath():
    out = sc.solve_spec(sc.wreath(sc.psl2(4), 2, "cycle"), "all")
    assert out.status == sc.EXACT and out.lower == out.upper == 3
    assert out.nodes == 0  # bound combination only, no enumeration-solve
    note(7, "wreath(psl2(4),2,cycle) alpha = 3 via bounds only")


# -- criterion 8: quotient path vs direct computation ----------------------------------


def test_criterion_8_sl25(sl25):
    via_quotient = sc.solve_alpha(sl25, "all", sc.SolveBudget(time_limit=120))
    assert via_quotient.status == sc.EXACT and via_quotient.lower == 3
    assert via_quotient.quotient_level
    # direct pairwise oracle on all 120 elements, no quotient, no reduction
    inc = sc.sol_incidence(sl25)
    rad = inc.radical.mask
    rows = set()
    for x in range(1, sl25.order):
        if rad[x]:
            continue
        m = 0
        for y in np.where(inc.sol(x))[0]:
            m |= 1 << int(y)
        rows.add(m)
    direct = oracles.min_cover_size(sorted(rows), target=(1 << sl25.order) - 1)
    assert direct == via_quotient.lower == 3
    note(8, "alpha(SL(2,5)) = 3 via quotient and via direct 120-element search")


# -- criterion 9: property suites (cross-reference) ------------------------------------


def test_criterion_9_property_suites_present():
    import test_properties

    assert test_properties.CASES >= 200
    suite = {name for name in dir(test_properties) if name.startswith("test_")}
    assert {"test_sol_equivariance", "test_power_lemma_monotonicity",
            "test_involutions_pairwise_solvabilized", "test_census_union_identity",
            "test_solver_brute_force_equivalence", "test_reduction_soundness_a5_s5",
            "test_schedule_independence"} <= suite
    note(9, "property suites run in test_properties.py with >= 200 cases each")


# -- criterion 10: clique numbers -------------------------------------------------------


def test_criterion_10_mu():
    a5 = table_for("alternating(5)")
    mu = sc.mu_pairwise_generators(a5)
    assert mu.exact and mu.lower == 8
    eight = ["(1,2,3)", "(3,4,5)", "(1,2,3,4,5)", "(1,2,3,5,4)", "(1,2,4,3,5)",
             "(1,2,4,5,3)", "(1,2,5,3,4)", "(1,2,5,4,3)"]
    idx = [a5.find_permutation(sc.parse_cycles(s, 5)) for s in eight]
    assert all(i >= 0 for i in idx) and sc.pairwise_generates(a5, idx)
    mus = sc.mu_s(a5)
    assert mus.exact and mus.lower == 8
    alpha = sc.solve_alpha(a5, "all")
    assert alpha.lower <= mus.lower
    note(10, "mu(A5) = mu_s(A5) = 8; the 8-element set pairwise generates; alpha <= mu_s")


# -- interval rendering pathway (out-of-scope rows stand-in) ----------------------------


def test_interval_pathway_psl2_13():
    table = table_for("psl2(13)")
    inst = sc.reduce_instance(sc.sol_incidence(table))
    out = sc.solve_exact(inst, sc.SolveBudget(time_limit=120, node_limit=1))
    assert out.status == sc.INTERVAL
    assert out.lower <= 13 <= out.upper
    assert out.render() == f"[{out.lower},{out.upper}]"
    note("interval", f"budget-limited PSL2(13) renders {out.render()}")
