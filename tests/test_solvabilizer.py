import numpy as np
import pytest

import solvcover as sc
from solvcover import solvabilizer
from solvcover.solvabilizer import _sol_of_rep

import oracles


def _sol_sizes_by_order(table):
    inc = sc.sol_incidence(table)
    out = {}
    for cid, rep in enumerate(inc.classes.representatives):
        if rep == 0 or rep in inc.radical:
            continue
        out.setdefault(int(table.order_of[rep]), set()).add(inc.sol_size_of_class(cid))
    return out


def test_a5_sol_sizes(a5):
    sizes = _sol_sizes_by_order(a5)
    assert sizes[2] == {36}
    assert sizes[3] == {24}
    assert sizes[5] == {10}


def test_s5_sol_sizes(s5):
    sizes = _sol_sizes_by_order(s5)
    assert sizes[2] == {72}  # both involution classes
    assert sizes[3] == {48}
    assert sizes[5] == {20}


def test_sol_contains_self_and_identity(psl27):
    inc = sc.sol_incidence(psl27)
    rng = np.random.default_rng(2)
    for x in rng.integers(1, psl27.order, size=30):
        mask = inc.sol(int(x))
        assert mask[0] and mask[int(x)]


def test_radical_elements_have_full_sol(sl25):
    inc = sc.sol_incidence(sl25)
    for x in inc.radical.indices():
        assert inc.sol(int(x)).all()


def test_sol_of_matches_pairwise_definition(a5):
    rng = np.random.default_rng(7)
    for x in rng.integers(1, a5.order, size=6):
        mask = sc.sol_of(a5, int(x)).mask
        for y in rng.integers(0, a5.order, size=25):
            H = a5.closure_indices([int(x), int(y)])
            perms = {tuple(a5.imgs[i].tolist()) for i in H}
            assert mask[int(y)] == oracles.is_solvable_brute(perms)


#: The golden-table groups (tests/test_acceptance.py).
GOLDEN_SPECS = ["alternating(5)", "symmetric(5)", "psl2(7)", "pgl2(7)", "alternating(6)",
                "psl2(8)", "psl2(11)", "m10", "pgl2(9)", "symmetric(6)",
                "psl2(13)", "pgl2(11)", "pgammal2(9)", "pgammal2(8)"]

#: The four largest take about 40 s more with the pairwise oracle.
SOL_GROUPS = GOLDEN_SPECS[:10] + [pytest.param(g, marks=pytest.mark.slow) for g in GOLDEN_SPECS[10:]]


@pytest.mark.parametrize("spec_text", SOL_GROUPS)
def test_sol_orbit_walk_matches_pairwise(spec_text):
    table = sc.build(sc.parse_spec(spec_text))
    reference = sc.build(sc.parse_spec(spec_text))  # own solvability cache
    inc = sc.sol_incidence(table)
    for cid, rep in enumerate(inc.classes.representatives):
        if rep == 0 or rep in inc.radical:
            continue
        assert inc.rep_sol(cid).tobytes() == oracles.sol_pairwise(reference, rep).tobytes()


def test_sol_orbit_walk_matches_pairwise_outside_radical(sl25):
    inc = sc.sol_incidence(sl25)
    assert len(inc.radical) == 2
    for x in range(1, sl25.order):
        if x not in inc.radical:
            assert _sol_of_rep(sl25, x).tobytes() == oracles.sol_pairwise(sl25, x).tobytes()


def test_sol_equivariance_every_element():
    table = sc.build(sc.pgl2(7))
    inc = sc.sol_incidence(table)
    assert len(inc.radical) == 1
    for x in range(1, table.order):
        assert np.array_equal(_sol_of_rep(table, x), inc.sol(x))


# -- census ---------------------------------------------------------------------


def test_a5_census(a5_census):
    counts = dict(zip(a5_census.class_orders, a5_census.class_counts))
    assert counts == {12: 5, 10: 6, 6: 10}


def test_s5_census(s5_census):
    counts = dict(zip(s5_census.class_orders, s5_census.class_counts))
    assert counts == {24: 5, 20: 6, 12: 10}


def test_a5_involution_memberships(a5, a5_census):
    for x in a5.involution_indices():
        assert a5_census.membership_counts(int(x)) == {12: 1, 10: 2, 6: 2}


def test_s5_transposition_memberships(s5, s5_census):
    # 2-cycles: 3 copies of S4, 0 of AGL(1,5), 4 of D12
    cp = sc.conjugacy_classes(s5)
    for x in s5.involution_indices():
        got = s5_census.membership_counts(int(x))
        if int(cp.sizes[cp.class_of[x]]) == 10:
            assert got == {24: 3, 12: 4}
        else:  # double transpositions: 1 S4, 2 AGL(1,5), 2 D12
            assert got == {24: 1, 20: 2, 12: 2}


#: The scanning extension takes about 9 s on these and 24 s on PGL(2,13).
CENSUS_GROUPS = ["alternating(5)", "symmetric(5)", "psl2(7)", "pgl2(7)", "alternating(6)", "psl2(11)",
                 "m10", pytest.param("pgl2(13)", marks=pytest.mark.slow)]


@pytest.mark.parametrize("spec_text", CENSUS_GROUPS)
def test_census_matches_scanning_extension(monkeypatch, spec_text):
    new = sc.maximal_solvable_subgroups(sc.build(sc.parse_spec(spec_text)))
    monkeypatch.setattr(solvabilizer, "_extend_to_maximal_solvable", oracles.extend_to_maximal_solvable_scanning)
    old = sc.maximal_solvable_subgroups(sc.build(sc.parse_spec(spec_text)))  # own caches
    assert [H.mask.tobytes() for H in new.subgroups] == [H.mask.tobytes() for H in old.subgroups]
    assert new.class_of_subgroup == old.class_of_subgroup
    assert new.class_orders == old.class_orders
    assert new.class_counts == old.class_counts


def test_census_members_are_maximal_solvable(a5, a5_census):
    from solvcover.group import _generating_subset

    for H in a5_census.subgroups[:6]:
        assert sc.is_solvable(a5, H)
        # maximality: adjoining any outside element breaks solvability
        gens = _generating_subset(a5, H.indices().tolist())
        for g in np.where(~H.mask)[0]:
            grown = a5.closure_indices(gens + [int(g)], stop_above=a5.order // 2)
            if grown is None:
                continue
            es = sc.ElementSet.from_indices(a5, grown, is_subgroup=True, gens=gens + [int(g)])
            assert not sc.is_solvable(a5, es)


def test_every_solvable_pair_subgroup_in_census(a5, a5_census):
    inc = sc.sol_incidence(a5)
    rng = np.random.default_rng(13)
    for _ in range(40):
        x = int(rng.integers(1, a5.order))
        ys = np.where(inc.sol(x))[0]
        y = int(rng.choice(ys))
        H = sc.subgroup_closure(a5, [x, y])
        assert any(H.issubset(M) for M in a5_census.subgroups)


# -- union check ------------------------------------------------------------------


def test_union_checks(a5, s5, psl27):
    assert sc.union_check(sc.sol_incidence(a5))
    assert not sc.union_check(sc.sol_incidence(psl27), involutions_only=True)
    assert sc.union_check(sc.sol_incidence(s5), involutions_only=True)


@pytest.mark.parametrize("involutions_only", [False, True], ids=["all", "involutions"])
@pytest.mark.parametrize("spec_text", ["alternating(5)", "symmetric(5)", "psl2(7)", "pgl2(7)",
                                       "alternating(6)"])
def test_union_check_matches_elementwise(spec_text, involutions_only):
    inc = sc.sol_incidence(sc.build(sc.parse_spec(spec_text)))
    assert sc.union_check(inc, involutions_only) == oracles.union_check_elementwise(inc, involutions_only)


# -- reduction ---------------------------------------------------------------------


def test_a5_universe_composition(a5, a5_instance):
    # brute-force maximal cyclic subgroup census
    brute = oracles.maximal_cyclic_brute(a5)
    assert len(a5_instance.universe) == len(brute)
    by_order = {}
    for t in a5_instance.universe:
        by_order[int(a5.order_of[t])] = by_order.get(int(a5.order_of[t]), 0) + 1
    assert by_order == {5: 6, 3: 10, 2: 15}


@pytest.mark.parametrize("spec_text", ["symmetric(4)", "dihedral(12)", "gl2(3)", "alternating(5)",
                                       "symmetric(5)", "psl2(7)"])
def test_universe_matches_brute_maximal_cyclic(spec_text):
    table = sc.build(sc.parse_spec(spec_text))
    universe = sc.maximal_cyclic_generators(table)
    subgroups = [frozenset(table.closure_indices([t])) for t in universe]
    assert set(subgroups) == oracles.maximal_cyclic_brute(table)
    for t, sub in zip(universe, subgroups):
        assert t == min(u for u in sub if table.order_of[u] == table.order_of[t])


@pytest.mark.parametrize("spec_text", GOLDEN_SPECS)
def test_target_orbits_match_per_target_oracle(spec_text):
    table = sc.build(sc.parse_spec(spec_text))
    classes = table.conjugacy_classes()
    universe = sc.maximal_cyclic_generators(table)
    assert solvabilizer._target_orbits(classes, table, universe) == \
        oracles.target_orbits_per_target(classes, table, universe)


def test_a5_involution_covers_two_c5_targets(a5, a5_instance):
    five_positions = [i for i, t in enumerate(a5_instance.universe) if a5.order_of[t] == 5]
    for c in a5_instance.candidates:
        if a5.order_of[c.element] == 2:
            hit = sum(1 for i in five_positions if (c.row >> i) & 1)
            assert hit == 2


def test_candidates_are_prime_order_and_deduped(s5_instance, s5):
    rows = [c.row for c in s5_instance.candidates]
    assert len(rows) == len(set(rows))
    assert all(s5.order_of[c.element] in (2, 3, 5) for c in s5_instance.candidates)
    # no dominated rows remain
    for i, r in enumerate(rows):
        assert not any(i != j and (r | r2) == r2 for j, r2 in enumerate(rows))


def test_reduce_involutions_infeasible(psl27):
    with pytest.raises(sc.InfeasibleUniverse):
        sc.reduce_instance(sc.sol_incidence(psl27), involutions_only=True)


def test_reduce_rejects_solvable_group(s4):
    with pytest.raises(sc.GroupSolvable):
        sc.reduce_instance(sc.sol_incidence(s4))


# -- clique invariants ---------------------------------------------------------------


def test_mu_a5(a5):
    mu = sc.mu_pairwise_generators(a5)
    assert mu.exact and mu.lower == 8


def test_mu_s_a5(a5):
    mu = sc.mu_s(a5)
    assert mu.exact and mu.lower == 8


@pytest.mark.parametrize("spec_text", ["alternating(5)", "alternating(6)", "pgl2(7)"])
def test_mu_s_graph_matches_pairwise(monkeypatch, spec_text):
    table = sc.build(sc.parse_spec(spec_text))
    graphs = []
    monkeypatch.setattr(solvabilizer, "_max_clique", lambda verts, adj, *limits: graphs.append((verts, adj)))
    sc.mu_s(table)
    assert graphs == [oracles.mu_s_graph_pairwise(sc.sol_incidence(table))]


def test_known_eight_element_generating_set(a5):
    strs = ["(1,2,3)", "(3,4,5)", "(1,2,3,4,5)", "(1,2,3,5,4)", "(1,2,4,3,5)",
            "(1,2,4,5,3)", "(1,2,5,3,4)", "(1,2,5,4,3)"]
    idx = [a5.find_permutation(sc.parse_cycles(s, 5)) for s in strs]
    assert all(i >= 0 for i in idx)
    assert sc.pairwise_generates(a5, idx)


def test_mu_rejects_non_two_generated():
    # C2 x C2 x C2: no pair generates
    t = sc.build(sc.direct_product(sc.direct_product(sc.symmetric(2), sc.symmetric(2)), sc.symmetric(2)))
    with pytest.raises(sc.NotTwoGenerated):
        sc.mu_pairwise_generators(t)
