"""Randomized property suites on groups of order <= 720, seeded and
reproducible (results do not depend on which build of a group is used)."""

import numpy as np
import pytest

import solvcover as sc
from solvcover.solvabilizer import CoverInstance

import oracles

CASES = 200


@pytest.fixture(scope="module")
def pool():
    specs = [sc.alternating(5), sc.symmetric(5), sc.psl2(7), sc.pgl2(7), sc.alternating(6)]
    return [sc.build(s) for s in specs]


def spread(rng, tables, n):
    """n (table, seed) cases spread over the pool."""
    for _ in range(n):
        yield tables[int(rng.integers(0, len(tables)))]


def test_sol_equivariance(pool):
    rng = np.random.default_rng(101)
    for t in spread(rng, pool, CASES):
        inc = sc.sol_incidence(t)
        x = int(rng.integers(1, t.order))
        g = int(rng.integers(0, t.order))
        xg = int(t.conjugate(g, np.array([x]))[0])
        lhs = inc.sol(xg)
        rhs = np.zeros(t.order, dtype=bool)
        rhs[t.conjugate(g, np.where(inc.sol(x))[0])] = True
        assert np.array_equal(lhs, rhs)


def test_power_lemma_monotonicity(pool):
    rng = np.random.default_rng(102)
    for t in spread(rng, pool, CASES):
        inc = sc.sol_incidence(t)
        x = int(rng.integers(1, t.order))
        n = int(rng.integers(2, 7))
        xn = x
        for _ in range(n - 1):
            xn = t.mul(xn, x)
        if xn == 0:
            continue
        sx, sxn = inc.sol(x), inc.sol(xn)
        assert not np.any(sx & ~sxn)


def test_involutions_pairwise_solvabilized(pool):
    rng = np.random.default_rng(103)
    for t in spread(rng, pool, CASES):
        inc = sc.sol_incidence(t)
        invs = t.involution_indices()
        s = int(rng.choice(invs))
        u = int(rng.choice(invs))
        assert inc.sol(s)[u]


def test_census_union_identity(a5, s5, psl27):
    rng = np.random.default_rng(104)
    tables = [a5, s5, psl27]
    censuses = [sc.maximal_solvable_subgroups(t) for t in tables]
    for _ in range(CASES):
        i = int(rng.integers(0, len(tables)))
        t, census = tables[i], censuses[i]
        x = int(rng.integers(1, t.order))
        assert np.array_equal(sc.sol_incidence(t).sol(x), census.union_containing(x))


def _random_subinstance(rng, inst):
    """Some candidates, and the targets they cover: a slice of ``covers``."""
    k = int(rng.integers(4, 15))
    picks = np.sort(rng.choice(len(inst.candidates), size=min(k, len(inst.candidates)), replace=False))
    keep = np.flatnonzero(inst.covers[picks].any(axis=0))
    return CoverInstance(universe=inst.universe[keep], target_class=inst.target_class[keep],
                         candidates=inst.candidates[picks], candidate_class=inst.candidate_class[picks],
                         covers=inst.covers[np.ix_(picks, keep)])


def test_solver_brute_force_equivalence(a5_instance, s5_instance, psl27):
    rng = np.random.default_rng(105)
    insts = [a5_instance, s5_instance, sc.reduce_instance(sc.sol_incidence(psl27))]
    # any full reduced instance small enough gets checked directly
    for inst in insts:
        if len(inst.candidates) <= 14:
            brute = oracles.min_cover_size(oracles.rows_of(inst), target=(1 << inst.size) - 1)
            assert sc.solve_exact(inst).lower == brute
    for _ in range(CASES):
        inst = insts[int(rng.integers(0, len(insts)))]
        sub = _random_subinstance(rng, inst)
        out = sc.solve_exact(sub)
        brute = oracles.min_cover_size(oracles.rows_of(sub), target=(1 << sub.size) - 1)
        assert out.status == sc.EXACT
        assert out.lower == brute


def _raw_minimum(table):
    """Minimum cover size over raw nonradical elements, by direct search."""
    inc = sc.sol_incidence(table)
    rad = inc.radical.mask
    rows = set()
    for x in range(1, table.order):
        if rad[x]:
            continue
        mask = 0
        for y in np.where(inc.sol(x))[0]:
            mask |= 1 << int(y)
        rows.add(mask)
    full = (1 << table.order) - 1
    return oracles.min_cover_size(sorted(rows), target=full)


def test_reduction_soundness_a5_s5(a5, s5, a5_instance, s5_instance):
    assert _raw_minimum(a5) == sc.solve_exact(a5_instance).lower == 3
    assert _raw_minimum(s5) == sc.solve_exact(s5_instance).lower == 5


def test_schedule_independence():
    """Two fresh builds of one group give identical Sol masks and outcomes."""
    first = sc.build(sc.psl2(7))
    second = sc.build(sc.psl2(7))
    inc1 = sc.sol_incidence(first)
    inc2 = sc.sol_incidence(second)
    for cid in range(inc1.classes.count):
        assert np.array_equal(inc1.rep_sol(cid), inc2.rep_sol(cid))
    out1 = sc.solve_alpha(first, "all")
    out2 = sc.solve_alpha(second, "all")
    assert (out1.status, out1.lower, out1.upper, out1.certificate) == \
        (out2.status, out2.lower, out2.upper, out2.certificate)
