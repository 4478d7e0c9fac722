"""Stretch targets beyond the acceptance set; run with --runslow."""

import pytest

import solvcover as sc
from solvcover.theorems import Certificate, verify_certificate


@pytest.mark.slow
def test_product_psl24_psl24_materialized_agreement():
    # order 3600: the product rule against a full materialized solve
    t = sc.build(sc.direct_product(sc.psl2(4), sc.psl2(4)))
    assert t.order == 3600
    fast = sc.solve_product([sc.build(sc.psl2(4)), sc.build(sc.psl2(4))], "all")
    full = sc.solve_alpha(t, "all", sc.SolveBudget(time_limit=600))
    assert fast.status == full.status == sc.EXACT
    assert fast.lower == full.lower == 3


@pytest.mark.slow
def test_pgl2_13():
    out = sc.solve_alpha(sc.build(sc.pgl2(13)), "all", sc.SolveBudget(time_limit=600))
    assert out.status == sc.EXACT and out.lower == 13
    assert out.nodes < 1000
    inv = sc.solve_alpha(sc.build(sc.pgl2(13)), "involutions", sc.SolveBudget(time_limit=600))
    assert inv.status == sc.EXACT and inv.lower == 13
    assert inv.nodes < 1000


@pytest.mark.slow
@pytest.mark.parametrize("mode", ["all", "involutions"])
def test_pgl2_17_closes_under_default_budget(mode):
    # open at [16,17] without the Lagrangian bound (millions of nodes in 60 s)
    table = sc.build(sc.pgl2(17))
    out = sc.solve_alpha(table, mode)
    assert out.status == sc.EXACT and out.lower == 17
    assert verify_certificate(table, Certificate(sc.pgl2(17), mode, out.certificate_perms))


@pytest.mark.slow
def test_psl2_16():
    table = sc.build(sc.psl2(16))
    assert table.order == 4080
    out = sc.solve_alpha(table, "all", sc.SolveBudget(time_limit=600))
    assert out.status == sc.EXACT and out.lower == 15
    inv = sc.solve_alpha(table, "involutions", sc.SolveBudget(time_limit=600))
    assert inv.status == sc.EXACT and inv.lower == 15
