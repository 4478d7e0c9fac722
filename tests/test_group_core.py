import time

import numpy as np
import pytest

import solvcover as sc
from solvcover.constructions import frobenius_permutation
from solvcover.perm import parse_cycles

import oracles


def perms(*strs, degree):
    return [parse_cycles(s, degree) for s in strs]


# -- enumeration ---------------------------------------------------------------


def test_enumerate_a5_from_two_3cycles():
    t = sc.enumerate_group(perms("(1,2,3)", "(3,4,5)", degree=5))
    assert t.order == 60
    assert t.permutation(0).is_identity()


def test_enumerate_identity_only():
    t = sc.enumerate_group([sc.Permutation.identity(3)])
    assert t.order == 1


def test_enumerate_s5():
    t = sc.enumerate_group(perms("(1,2)", "(1,2,3,4,5)", degree=5))
    assert t.order == 120


def test_enumerate_cap_and_empty():
    with pytest.raises(sc.CapExceeded):
        sc.enumerate_group(perms("(1,2)", "(1,2,3,4,5)", degree=5), cap=50)
    with pytest.raises(sc.EmptyGenerators):
        sc.enumerate_group([])
    with pytest.raises(sc.BadParameter):
        sc.enumerate_group([sc.Permutation([])])


def test_enumeration_is_deterministic(a5):
    again = sc.build(sc.alternating(5))
    assert np.array_equal(a5.imgs, again.imgs)


def test_generators_reproduce_group(a5, s5):
    for t in (a5, s5):
        assert len(t.closure_indices(t.generator_indices)) == t.order


def test_order_and_inverse_tables(s5):
    for i in (0, 1, 7, 23, 119):
        p = s5.permutation(i)
        assert s5.order_of[i] == p.order()
        assert (p * s5.permutation(int(s5.inverse_of[i]))).is_identity()


# -- subgroup closure ----------------------------------------------------------


def test_closure_empty_seeds(a5):
    assert len(sc.subgroup_closure(a5, [])) == 1


def test_closure_klein_four(a5):
    invs = a5.involution_indices()
    # find a commuting pair of distinct involutions
    pair = None
    for i in invs:
        for j in invs:
            if i < j and a5.mul(int(i), int(j)) == a5.mul(int(j), int(i)):
                pair = (int(i), int(j))
                break
        if pair:
            break
    H = sc.subgroup_closure(a5, pair)
    assert len(H) == 4
    # brute-force oracle agrees
    brute = oracles.closure_of({tuple(a5.imgs[pair[0]].tolist()), tuple(a5.imgs[pair[1]].tolist())})
    assert len(brute) == 4


def test_closure_full_group(a5):
    g1 = a5.find_permutation(parse_cycles("(1,2,3)", 5))
    g2 = a5.find_permutation(parse_cycles("(3,4,5)", 5))
    assert len(sc.subgroup_closure(a5, [g1, g2])) == 60


def test_power_subgroup_containment(s5):
    rng = np.random.default_rng(11)
    for x in rng.integers(1, s5.order, size=25):
        full = sc.subgroup_closure(s5, [int(x)])
        for n in (2, 3, 4):
            xn = int(x)
            for _ in range(n - 1):
                xn = s5.mul(xn, int(x))
            assert sc.subgroup_closure(s5, [xn]).issubset(full)


@pytest.mark.parametrize("spec_text", ["symmetric(5)", "pgl2(7)", "alternating(6)", "m10", "gl2(5)"])
def test_closure_matches_oracle(spec_text):
    t = sc.build(sc.parse_spec(spec_text))
    rng = np.random.default_rng(17)
    for k in (1, 2, 3):
        seeds = [int(s) for s in rng.integers(1, t.order, size=k)]
        brute = oracles.closure_of({tuple(t.imgs[s].tolist()) for s in seeds})
        H = sorted(t.find_permutation(sc.Permutation(p)) for p in brute)
        assert t.closure_indices(seeds) == H
        assert t.closure_indices(seeds, stop_above=len(H)) == H
        assert t.closure_indices(seeds, stop_above=len(H) - 1) is None


def test_solvable_cut_keeps_index_five(a5, s4):
    # A4 = <(1,2,3), (1,2)(3,4)> has index exactly 5 in A5
    seeds = [a5.find_permutation(p) for p in perms("(1,2,3)", "(1,2)(3,4)", degree=5)]
    cut = a5.solvable_cut()
    assert a5.order // cut == 5
    H = a5.closure_indices(seeds, stop_above=cut)
    assert H is not None and len(H) == 12
    assert sc.is_solvable(a5, sc.ElementSet.from_indices(a5, H, is_subgroup=True))
    assert s4.solvable_cut() is None


# -- derived subgroup and solvability -------------------------------------------


def test_derived_of_abelian_is_trivial(s5):
    x = s5.find_permutation(parse_cycles("(1,2,3,4,5)", 5))
    H = sc.subgroup_closure(s5, [x])
    assert len(sc.derived_subgroup(s5, H)) == 1


def test_derived_s4_in_s5_is_a4(s5):
    gens = [s5.find_permutation(parse_cycles(s, 5)) for s in ("(1,2)", "(1,2,3,4)")]
    H = sc.subgroup_closure(s5, gens)
    assert len(H) == 24
    D = sc.derived_subgroup(s5, H)
    assert len(D) == 12
    assert all(s5.permutation(int(i)).order() in (1, 2, 3) for i in D.indices())


def test_derived_of_a5_is_a5(a5):
    full = sc.ElementSet.full(a5)
    assert len(sc.derived_subgroup(a5, full)) == 60


def test_derived_matches_brute_oracle(s4):
    rng = np.random.default_rng(5)
    for _ in range(10):
        seeds = rng.integers(0, s4.order, size=2)
        H = sc.subgroup_closure(s4, [int(s) for s in seeds])
        D = sc.derived_subgroup(s4, H)
        perms = {tuple(s4.imgs[i].tolist()) for i in H.indices()}
        brute = oracles.commutator_subgroup(perms)
        assert len(D) == len(brute)


def _derived_against_oracle(table, H):
    D = sc.derived_subgroup(table, H)
    tuples = {tuple(table.imgs[i].tolist()) for i in H.indices()}
    brute = {table.find_permutation(sc.Permutation(p)) for p in oracles.commutator_subgroup(tuples)}
    assert set(D.indices().tolist()) == brute


def test_derived_subgroup_on_every_subgroup_of_s4(s4):
    elems = {tuple(s4.imgs[i].tolist()) for i in range(s4.order)}
    subgroups = oracles.all_subgroups_upto(elems, s4.order)
    assert len(subgroups) == 30
    for sub in subgroups:
        idx = [s4.find_permutation(sc.Permutation(p)) for p in sub]
        _derived_against_oracle(s4, sc.ElementSet.from_indices(s4, idx, is_subgroup=True))


def test_derived_subgroup_on_two_generated_subgroups(s5, psl27):
    rng = np.random.default_rng(11)
    for table in (s5, psl27):
        for _ in range(8):
            seeds = [int(s) for s in rng.integers(1, table.order, size=2)]
            _derived_against_oracle(table, sc.subgroup_closure(table, seeds))


def test_is_solvable_examples(a5):
    # D10 inside A5
    seeds = None
    for i in range(1, a5.order):
        if a5.order_of[i] == 5:
            for j in a5.involution_indices():
                H = sc.subgroup_closure(a5, [i, int(j)])
                if len(H) == 10:
                    seeds = H
                    break
            break
    assert seeds is not None
    assert sc.is_solvable(a5, seeds)
    assert not sc.is_solvable(a5, sc.ElementSet.full(a5))
    assert sc.is_solvable(a5, sc.ElementSet.trivial(a5))


def test_not_a_subgroup_raises(a5):
    ragged = sc.ElementSet.from_indices(a5, [0, 1, 2])
    with pytest.raises(sc.NotASubgroup):
        sc.is_solvable(a5, ragged)


def test_solvability_agrees_with_brute_on_small_groups():
    for spec in (sc.symmetric(4), sc.dihedral(6), sc.alternating(4)):
        t = sc.build(spec)
        assert t.order <= 24
        subs = oracles.all_subgroups_upto(
            {tuple(t.imgs[i].tolist()) for i in range(t.order)}, t.order)
        for sub in subs:
            idx = [t.find_permutation(sc.Permutation(list(p))) for p in sub]
            H = sc.ElementSet.from_indices(t, idx, is_subgroup=True)
            assert sc.is_solvable(t, H) == oracles.is_solvable_brute(sub)


# -- conjugacy classes ----------------------------------------------------------


def test_a5_class_sizes(a5):
    cp = sc.conjugacy_classes(a5)
    assert sorted(cp.sizes.tolist()) == [1, 12, 12, 15, 20]


def test_trivial_group_classes():
    t = sc.enumerate_group([sc.Permutation.identity(3)])
    assert sc.conjugacy_classes(t).count == 1


def test_s5_involution_classes(s5):
    cp = sc.conjugacy_classes(s5)
    inv_sizes = sorted(int(cp.sizes[cid]) for cid, r in enumerate(cp.representatives)
                       if s5.order_of[r] == 2)
    assert inv_sizes == [10, 15]


def test_class_partition_properties(s5):
    cp = sc.conjugacy_classes(s5)
    # representative belongs to its class and is minimal there
    for cid, rep in enumerate(cp.representatives):
        members = cp.members(cid)
        assert cp.class_of[rep] == cid
        assert rep == members.min()
        assert len({int(s5.order_of[m]) for m in members}) == 1
    # conjugator witnesses: rep^w = element
    rng = np.random.default_rng(3)
    for x in rng.integers(0, s5.order, size=40):
        cid = int(cp.class_of[x])
        w = int(cp.conjugator[x])
        rep = cp.representatives[cid]
        assert s5.mul(s5.mul(w, rep), int(s5.inverse_of[w])) == int(x)


@pytest.mark.parametrize("spec_text", ["symmetric(5)", "pgl2(7)", "m10", "gl2(5)"])
def test_classes_match_brute_partition(spec_text):
    t = sc.build(sc.parse_spec(spec_text))
    elems = [tuple(row) for row in t.imgs.tolist()]
    index = {p: i for i, p in enumerate(elems)}
    brute = [-1] * t.order
    n_classes = 0
    for x in range(t.order):
        if brute[x] < 0:
            for g in elems:
                brute[index[oracles.compose(oracles.compose(g, elems[x]), oracles.inverse(g))]] = n_classes
            n_classes += 1
    cp = sc.conjugacy_classes(t)
    assert cp.class_of.tolist() == brute
    for x in range(t.order):
        w = elems[int(cp.conjugator[x])]
        rep = elems[cp.representatives[cp.class_of[x]]]
        assert oracles.compose(oracles.compose(w, rep), oracles.inverse(w)) == elems[x]


def test_classes_conjugation_invariant(a5):
    cp = sc.conjugacy_classes(a5)
    rng = np.random.default_rng(9)
    for g in rng.integers(0, a5.order, size=20):
        img = a5.conjugate(int(g), np.arange(a5.order))
        assert np.array_equal(cp.class_of[img], cp.class_of)


# -- radical, quotient, index-2 ---------------------------------------------------


def test_radical_simple_and_solvable(a5, s4):
    assert len(sc.solvable_radical(a5)) == 1
    assert len(sc.solvable_radical(s4)) == s4.order


def test_radical_sl25_is_center(sl25):
    rad = sc.solvable_radical(sl25)
    assert len(rad) == 2
    # brute force pairwise definition agrees
    assert sorted(rad.indices().tolist()) == oracles.radical_pairwise(sl25)
    # and so does the normal-closure loop with no early stop
    mask, gens = oracles.radical_by_normal_closures(sl25)
    assert rad.mask.tobytes() == mask.tobytes() and rad.gens == gens
    # each call wraps the table's one read-only mask; the gens list is the caller's own
    with pytest.raises(ValueError):
        rad.mask[0] = False
    rad.gens.append(1)
    again = sc.solvable_radical(sl25)
    assert again is not rad and again.mask is rad.mask and again.gens == gens


def test_radical_is_normal_solvable_and_quotient_fitting_free(sl25):
    rad = sc.solvable_radical(sl25)
    assert sc.is_solvable(sl25, rad)
    q = sc.quotient_by(sl25, rad)
    assert q.order == 60
    assert len(sc.solvable_radical(q)) == 1


def test_quotient_by_trivial_is_regular_copy(a5):
    q = sc.quotient_by(a5, sc.ElementSet.trivial(a5))
    assert q.order == a5.order
    assert q.degree == a5.order


def test_quotient_whole_group(s4):
    q = sc.quotient_by(s4, sc.ElementSet.full(s4))
    assert q.order == 1


def test_quotient_requires_normal(s5):
    gens = [s5.find_permutation(parse_cycles(s, 5)) for s in ("(1,2)", "(1,2,3,4)")]
    H = sc.subgroup_closure(s5, gens)  # S4 point stabilizer, not normal
    with pytest.raises(sc.NotNormal):
        sc.quotient_by(s5, H)


def test_index_two_subgroups(a5, s5):
    assert sc.index_two_subgroups(a5) == []
    subs = sc.index_two_subgroups(s5)
    assert len(subs) == 1
    assert len(subs[0]) == 60
    # the unique index-2 subgroup is the even permutations
    assert all(s5.permutation(int(i)).order() != 0 for i in subs[0].indices())


def test_pgammal29_has_three_index_two_subgroups():
    t = sc.build(sc.pgammal2(9))
    subs = sc.index_two_subgroups(t)
    assert len(subs) == 3
    assert all(len(H) == 720 for H in subs)


def test_index_two_subgroups_of_elementary_abelian_32():
    # (Z2)^5 has 31 index-2 subgroups among C(31, 15) coset subsets of the right size
    t = sc.build(sc.parse_spec("raw((1,2);(3,4);(5,6);(7,8);(9,10))"))
    start = time.perf_counter()
    subs = sc.index_two_subgroups(t)
    assert time.perf_counter() - start < 5
    assert len({H.fingerprint() for H in subs}) == len(subs) == 31
    assert all(len(H) == 16 and H.verify_subgroup() for H in subs)


def test_pgammal216_has_one_index_two_subgroup():
    # PSL(2,16).2, the kernel of the Frobenius parity on PGammaL(2,16) = PSL(2,16).4
    t = sc.build(sc.pgammal2(16))
    start = time.perf_counter()
    subs = sc.index_two_subgroups(t)
    assert time.perf_counter() - start < 5
    assert [len(H) for H in subs] == [8160]
    H = subs[0]
    assert t.closure_indices(H.gens) == H.indices().tolist()
    frob = t.find_permutation(frobenius_permutation(sc.field_ops(16)))
    assert frob not in H and t.mul(frob, frob) in H


# -- generators carried on element sets ------------------------------------------


@pytest.mark.parametrize("name", ["s4", "s5", "sl25", "pgl2(7)", "pgammal2(9)"])
def test_gens_generate_their_subgroup(name, request):
    if name in ("s4", "s5", "sl25"):
        t = request.getfixturevalue(name)
    else:
        t = sc.build(sc.parse_spec(name))
    full = sc.ElementSet.full(t)
    subgroups = [full, sc.subgroup_closure(t, [0]), sc.subgroup_closure(t, [1, t.order - 1]),
                 sc.solvable_radical(t), *sc.index_two_subgroups(t)]
    cur = full
    while True:  # the whole derived series, each term built from the last one's gens
        nxt = sc.derived_subgroup(t, cur)
        subgroups.append(nxt)
        if len(nxt) == len(cur) or len(nxt) == 1:
            break
        cur = nxt
    for H in subgroups:
        assert H.gens is not None
        assert t.closure_indices(H.gens) == H.indices().tolist()
