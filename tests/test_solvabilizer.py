import copy
import dataclasses
import itertools

import numpy as np
import pytest

import solvcover as sc
from solvcover import solvabilizer
from solvcover.solvabilizer import CoverInstance, _sol_of_rep, _triangle_verdicts, _von_dyck

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


def full_sol_mask(table):
    """{x : Sol(x) = G} as a mask, from one Sol per conjugacy class (the radical is not read)."""
    inc = sc.sol_incidence(table)
    full = np.array([inc.rep_sol(cid).all() for cid in range(len(inc.classes.representatives))])
    return full[inc.classes.class_of]


def s5_x_s4_subgroups(count):
    """Nonsolvable subgroups of S5 x S4, each generated by two elements drawn with a fixed seed."""
    ambient = sc.build(sc.parse_spec("product(symmetric(5),symmetric(4))"))
    rng = np.random.default_rng(5)
    subgroups = []
    while len(subgroups) < count:
        sub = sc.enumerate_group([ambient.permutation(int(i)) for i in rng.integers(1, ambient.order, size=2)])
        if not sub.is_group_solvable():
            subgroups.append(sub)
    return subgroups


RADICAL_SPECS = ["gl2(5)", "product(alternating(5),symmetric(3))", "product(psl2(7),dihedral(4))",
                 "alternating(5)", "pgl2(7)", "symmetric(6)"]


def test_radical_elements_have_full_sol(sl25):
    # and only they: R(G) = {x : Sol(x) = G} (Guralnick, Kunyavskii, Plotkin, Shalev,
    # J. Algebra 300, 2006), which verify_certificate relies on to reject radical elements
    tables = [sl25] + [sc.build(sc.parse_spec(s)) for s in RADICAL_SPECS] + s5_x_s4_subgroups(6)
    for table in tables:
        assert np.array_equal(full_sol_mask(table), sc.solvable_radical(table).mask), table


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
    reference = sc.build(sc.parse_spec(spec_text))  # own caches
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
            assert _sol_of_rep(sl25, x, sl25.cyclic(x)).tobytes() == oracles.sol_pairwise(sl25, x).tobytes()


def test_sol_equivariance_every_element():
    table = sc.build(sc.pgl2(7))
    inc = sc.sol_incidence(table)
    assert len(inc.radical) == 1
    for x in range(1, table.order):
        assert np.array_equal(_sol_of_rep(table, x, table.cyclic(x)), inc.sol(x))


#: Groups with algebraically conjugate classes (PSL(2,q) tori, A7's 7A/7B);
#: GL(2,5), whose radical is its center; S6, with 14 (2,3,5) marks per class
#: on average; and A5 x S3, with the radical S3.
CYCLIC_CLASS_SPECS = ["psl2(8)", "psl2(11)", "psl2(13)", "psl2(16)", "alternating(7)", "psl2(27)", "gl2(5)",
                      "symmetric(6)", "product(alternating(5),symmetric(3))",
                      pytest.param("wreath(alternating(5),2,cycle)", marks=pytest.mark.slow)]


@pytest.mark.parametrize("spec_text", CYCLIC_CLASS_SPECS)
def test_rep_sol_matches_direct_walk_for_every_class(spec_text):
    # a class conjugating another class's mask must equal its own walk, and the
    # walk with N_G(<x>) and the triangle verdicts marked up front must equal
    # one closing every orbit
    table = sc.build(sc.parse_spec(spec_text))
    fresh = sc.build(sc.parse_spec(spec_text))  # own caches
    inc = sc.sol_incidence(table)
    for cid, rep in enumerate(inc.classes.representatives):
        direct = _sol_of_rep(fresh, rep, fresh.cyclic(rep))
        assert inc.rep_sol(cid).tobytes() == direct.tobytes(), cid
        assert direct.tobytes() == oracles.sol_walk_every_orbit(fresh, rep).tobytes(), cid


def _orderings(*triples):
    return {p for t in triples for p in itertools.permutations(t)}


SPHERICAL = _orderings(*[(2, 2, n) for n in range(1, 13)], (2, 3, 3), (2, 3, 4), (2, 3, 6), (2, 4, 4),
                       (3, 3, 3), *[(1, b, c) for b in range(1, 13) for c in range(1, 13)])
#: pairwise coprime periods > 1: <x,y> is perfect and nontrivial
COPRIME = _orderings((2, 3, 5), (2, 3, 7), (3, 4, 5), (2, 3, 13), (2, 5, 7))
UNDECIDED = _orderings((2, 5, 5), (3, 3, 4), (4, 4, 3), (2, 4, 5), (2, 3, 8), (7, 7, 7))


def test_von_dyck_table():
    for triple in SPHERICAL:
        assert _von_dyck(*triple) == 1, triple
    for triple in COPRIME:
        assert _von_dyck(*triple) == -1, triple
    for triple in UNDECIDED:
        assert _von_dyck(*triple) == 0, triple
    a, b, c = np.array(sorted(SPHERICAL | UNDECIDED | COPRIME)).T
    expect = [1 if t in SPHERICAL else -1 if t in COPRIME else 0 for t in zip(a, b, c)]
    assert _von_dyck(a, b, c).tolist() == expect


#: The differential groups; the verdicts are checked on every pair (rep, y).  PSL(2,8) has (2,3,7) pairs.
TRIANGLE_SPECS = ["alternating(5)", "symmetric(5)", "psl2(7)", "pgl2(7)", "alternating(6)", "psl2(8)", "sl25"]


@pytest.mark.parametrize("spec_text", TRIANGLE_SPECS)
def test_triangle_verdicts_match_closure_solvability(request, spec_text):
    table = request.getfixturevalue("sl25") if spec_text == "sl25" else sc.build(sc.parse_spec(spec_text))
    verdicts = {}  # per subgroup, by brute force on its permutations
    decided = 0
    for x in table.conjugacy_classes().representatives:
        ys, marks = _triangle_verdicts(table, x)
        decided += len(ys)
        for y, mark in zip(ys.tolist(), marks.tolist()):
            H = tuple(table.closure_indices([x, y]))
            if H not in verdicts:
                verdicts[H] = oracles.is_solvable_brute({tuple(table.imgs[i].tolist()) for i in H})
            assert mark == (1 if verdicts[H] else -1), (x, y)
    assert decided > 0 and len(verdicts) > 1


def test_one_walk_per_class_of_cyclic_subgroups(monkeypatch):
    walks = []
    walk = solvabilizer._sol_of_rep
    monkeypatch.setattr(solvabilizer, "_sol_of_rep", lambda table, x, cyclic: walks.append(x) or walk(table, x, cyclic))
    table = sc.build(sc.psl2(8))
    inc = sc.sol_incidence(table)
    for cid in range(inc.classes.count):
        inc.rep_sol(cid)
    # 1, 2A, 3A, 7A/7B/7C, 9A/9B/9C
    assert inc.classes.count == 9 and len(walks) == 5
    walks.clear()
    table = sc.build(sc.psl2(8))
    sc.solve_alpha(table, "all")
    sc.solve_alpha(table, "involutions")
    assert len(sc.sol_incidence(table)._rep_sol) == 7 and len(walks) == 3


def test_cached_sol_masks_are_read_only(a5):
    inc = sc.sol_incidence(a5)
    for cid, rep in enumerate(inc.classes.representatives):
        for mask in (inc.rep_sol(cid), inc.sol(rep)):
            with pytest.raises(ValueError):
                mask[0] = False
    x = next(x for x in range(a5.order) if inc.classes.conjugator[x] != 0)
    derived = inc.sol(x)  # conjugated afresh on each call, so the caller's own
    derived[0] = False
    assert inc.sol(x)[0]


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


#: The scanning extension takes about 4 s on these and 7 s on PGL(2,13).
CENSUS_GROUPS = ["alternating(5)", "symmetric(5)", "psl2(7)", "pgl2(7)", "alternating(6)", "psl2(8)",
                 "psl2(11)", "m10", pytest.param("pgl2(13)", marks=pytest.mark.slow)]


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
    assert solvabilizer._target_orbits(classes, table, universe).tolist() == \
        oracles.target_orbits_per_target(classes, table, universe)


def test_a5_involution_covers_two_c5_targets(a5, a5_instance):
    five_positions = [i for i, t in enumerate(a5_instance.universe) if a5.order_of[t] == 5]
    for x, row in zip(a5_instance.candidates, oracles.rows_of(a5_instance)):
        if a5.order_of[x] == 2:
            hit = sum(1 for i in five_positions if (row >> i) & 1)
            assert hit == 2


def test_candidates_are_prime_order_and_deduped(s5_instance, s5):
    rows = oracles.rows_of(s5_instance)
    assert len(rows) == len(set(rows))
    assert all(s5.order_of[x] in (2, 3, 5) for x in s5_instance.candidates)
    # no dominated rows remain
    for i, r in enumerate(rows):
        assert not any(i != j and (r | r2) == r2 for j, r2 in enumerate(rows))


def test_reduce_involutions_infeasible(psl27):
    with pytest.raises(sc.InfeasibleUniverse):
        sc.reduce_instance(sc.sol_incidence(psl27), involutions_only=True)


def test_reduce_rejects_solvable_group(s4):
    with pytest.raises(sc.GroupSolvable):
        sc.reduce_instance(sc.sol_incidence(s4))


def test_reduction_caches_are_built_once_and_read_only(monkeypatch):
    built = []
    for name in ("maximal_cyclic_generators", "_cover_matrix", "_maximal_rows"):
        fn = getattr(solvabilizer, name)
        monkeypatch.setattr(solvabilizer, name, lambda *args, fn=fn, name=name: built.append(name) or fn(*args))
    # PSL(2,7) has no involution cover: that verdict is cached too, and raised on every call;
    # the involution rows come from the mode-all matrix only when that is built first
    for (spec, infeasible), modes in itertools.product(((sc.psl2(8), ()), (sc.psl2(7), (True,))),
                                                        ((False, True), (True, False))):
        built.clear()
        inc = sc.sol_incidence(sc.build(spec))
        first = {}
        for involutions_only in modes * 2:
            got = _reduction(sc.reduce_instance, inc, involutions_only=involutions_only)
            assert first.setdefault(involutions_only, copy.deepcopy(got)) == got
            assert (got is sc.InfeasibleUniverse) == (involutions_only in infeasible)
            if involutions_only in infeasible:
                continue
            inst = sc.reduce_instance(inc, involutions_only=involutions_only)
            inst.notes.append("changed")  # the next call's notes are its own
            for f in dataclasses.fields(inst):
                array = getattr(inst, f.name)
                if isinstance(array, np.ndarray):
                    with pytest.raises(ValueError):
                        array[:1] = array[:1]
        matrices = 1 if modes == (False, True) else 2
        assert (built.count("maximal_cyclic_generators"), built.count("_cover_matrix")) == (1, matrices)
        assert built.count("_maximal_rows") == 2, spec  # row merge and class dominance, once per mode


def _reduction(reduce, inc, **kwargs):
    """The instance's fields (arrays as dtype and list), its matrix as bytes, or the type of the error raised instead."""
    try:
        inst = reduce(inc, **kwargs)
    except sc.SolvcoverError as err:
        return type(err)
    fields = tuple(getattr(inst, f.name) for f in dataclasses.fields(inst) if f.name != "covers")
    fields = tuple((v.dtype, v.tolist()) if isinstance(v, np.ndarray) else v for v in fields)
    return fields, inst.covers.dtype, inst.covers.shape, inst.covers.tobytes()


def assert_reduction_matches_rows_oracle(table):
    """Every reduction equals the rows oracle's, in either mode order.

    Each mode order runs on a fresh copy of the table, so the incidence's
    cached targets and matrices start empty, and the oracle runs on a copy
    that ``reduce_instance`` never touches.
    """
    def fresh():
        copy = sc.GroupTable.from_generators([table.permutation(g) for g in table.generator_indices])
        assert copy.imgs.tobytes() == table.imgs.tobytes() and copy.generator_indices == table.generator_indices
        return sc.sol_incidence(copy)

    untouched = fresh()
    expected = {inv: _reduction(oracles.reduce_instance_by_rows, untouched, involutions_only=inv) for inv in (False, True)}
    for order in ((False, True), (True, False)):  # mode all first, then involutions first, each mode twice
        inc = fresh()
        for inv in order * 2:
            assert _reduction(sc.reduce_instance, inc, involutions_only=inv) == expected[inv], (inv, order)


# PSL(2,16): the dedupe keeps part of three classes, whose dominance by class must still match it by row
@pytest.mark.parametrize("spec_text", GOLDEN_SPECS + ["psl2(16)"])
def test_reduce_instance_matches_rows_oracle(spec_text):
    assert_reduction_matches_rows_oracle(sc.build(sc.parse_spec(spec_text)))


def test_reduce_instance_matches_rows_oracle_with_radical(sl25):
    assert_reduction_matches_rows_oracle(sl25)


def test_cover_instance_equality_answers():
    inst = CoverInstance(universe=np.array([1]), target_class=np.array([0]), candidates=np.array([1]),
                         candidate_class=np.array([0]), covers=np.ones((1, 1), dtype=bool))
    assert inst == inst
    assert inst != dataclasses.replace(inst)  # identity, not a field-wise comparison of the matrix


@pytest.mark.parametrize("group,alpha", [("sl25", 3), ("gl2(9)", 8)])
def test_reduction_with_a_radical_solves_to_the_quotient_value(request, group, alpha):
    # the prime-order powers of an element of order 4 in SL(2,5) are -1 and 1, both in the radical
    table = request.getfixturevalue(group) if group == "sl25" else sc.build(sc.parse_spec(group))
    assert len(table.solvable_radical_set()) > 1
    out = sc.solve_exact(sc.reduce_instance(sc.sol_incidence(table)))
    assert (out.status, out.lower) == (sc.EXACT, alpha) == (sc.EXACT, sc.solve_alpha(table).lower)
    perms = [table.permutation(x) for x in out.certificate]
    assert len(perms) == alpha and sc.verify_certificate(table, sc.Certificate(None, "all", perms))


def _affine_5(a, b, c, d, e=0, f=0):
    """v -> [[a, b], [c, d]] v + (e, f) on the 25 vectors of GF(5)^2."""
    return sc.Permutation(np.array([((a * x + b * y + e) % 5) * 5 + (c * x + d * y + f) % 5
                                    for x in range(5) for y in range(5)]))


def test_reduce_instance_matches_rows_oracle_radical_targets():
    # ASL(2,5): a nonzero translation is a power of no element outside the
    # radical 5^2:<-1>, so its cyclic subgroup is a maximal cyclic target inside it
    asl25 = sc.enumerate_group([_affine_5(1, 1, 0, 1), _affine_5(0, 4, 1, 0), _affine_5(1, 0, 0, 1, 1, 0)])
    inst = sc.reduce_instance(sc.sol_incidence(asl25))
    assert inst.notes[0] == "universe: dropped 6 radical targets"
    assert_reduction_matches_rows_oracle(asl25)


def test_reduce_instance_matches_rows_oracle_infeasible(psl27):
    inc = sc.sol_incidence(psl27)
    for reduce in (sc.reduce_instance, oracles.reduce_instance_by_rows):
        with pytest.raises(sc.InfeasibleUniverse):
            reduce(inc, involutions_only=True)


@pytest.mark.slow
@pytest.mark.parametrize("spec_text", ["psl2(19)", "symmetric(7)", "pgl2(17)"])
def test_reduce_instance_matches_rows_oracle_on_large_groups(spec_text):
    assert_reduction_matches_rows_oracle(sc.build(sc.parse_spec(spec_text)))


# -- clique invariants ---------------------------------------------------------------


def test_mu_a5(a5):
    mu = sc.mu_pairwise_generators(a5)
    assert mu.exact and mu.lower == 8


def test_mu_s_a5(a5):
    mu = sc.mu_s(a5)
    assert mu.exact and mu.lower == 8


@pytest.mark.parametrize("mu", [sc.mu_s, sc.mu_pairwise_generators])
def test_mu_rejects_nan_and_negative_limits(a5, mu):
    for limits in (dict(time_limit=float("nan")), dict(time_limit=-1.0), dict(node_limit=-1)):
        with pytest.raises(sc.BadParameter):
            mu(a5, **limits)
    assert mu(a5, node_limit=0).lower <= 8 <= mu(a5, node_limit=0).upper


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
