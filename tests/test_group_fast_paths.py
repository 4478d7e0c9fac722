"""Differential tests: the batched group-engine walks against the paths they replaced.

Enumeration, element orders, an element's powers and the generators of
its cyclic group, subgroup closure and its early stops, left cosets,
conjugacy classes with their witnesses, normalizers and their orbits,
index-2 subgroups, the radical and the order-based solvability rule must
agree exactly with the per-row, per-point, per-element, per-product,
per-seed, per-generator, coset-level and normal-closure references in
``oracles``.
Element lookup, through the dense key table and through the sorted keys
used above its ceiling, must agree with a dictionary from image rows to
indices, and the base the enumeration finds must be irredundant with a key
that tells every element apart.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import solvcover as sc
from solvcover import group, solvabilizer
from solvcover.constructions import generators_for
from solvcover.perm import perm_order

import oracles
from test_acceptance import GOLDEN

ENUM_SPECS = [g[0] for g in GOLDEN] + [
    "gl2(3)", "gl2(5)", "product(psl2(7),symmetric(3))", "wreath(symmetric(3),2,cycle)",
    "raw((1,2,3,4,5,6,7);(1,2)(3,6))",
]


@pytest.mark.parametrize("spec_text", ENUM_SPECS)
def test_enumeration_and_orders_match_per_row_oracle(spec_text):
    gens = generators_for(sc.parse_spec(spec_text))
    t = sc.enumerate_group(gens)
    imgs, gen_idx = oracles.enumerate_per_row(gens, cap=group.DEFAULT_CAP)
    assert t.imgs.dtype == imgs.dtype and t.imgs.tobytes() == imgs.tobytes()
    assert t.generator_indices == gen_idx
    _assert_base_keys_are_injective_and_irredundant(t)
    assert t.order_of.tolist() == [perm_order(row) for row in t.imgs]


def _assert_base_keys_are_injective_and_irredundant(t):
    """No two elements share their base images, and each base point is moved by some element fixing the earlier ones."""
    assert len(np.unique(t.imgs[:, t.base], axis=0)) == t.order
    fixes = np.ones(t.order, dtype=bool)
    for b in t.base:
        assert (t.imgs[fixes, b] != b).any(), (t.base, b)
        fixes &= t.imgs[:, b] == b


def test_walk_crossing_the_dense_ceiling_matches_per_row_oracle(monkeypatch):
    # S6 grows its base one point at a time up to 6^5 keys, so the walk passes a ceiling of 2,000 partway
    gens = generators_for(sc.parse_spec("symmetric(6)"))
    dense = sc.enumerate_group(gens)
    monkeypatch.setattr(group, "_DENSE_KEYS", 2000)
    storages = []
    key_index = group._key_index

    def spy(*args):
        index = key_index(*args)
        storages.append("sorted" if index[1] is None else "dense")
        return index

    monkeypatch.setattr(group, "_key_index", spy)
    t = sc.enumerate_group(gens)
    assert storages[0] == "dense" and storages[-1] == "sorted", storages
    imgs, gen_idx = oracles.enumerate_per_row(gens, cap=group.DEFAULT_CAP)
    assert t.imgs.tobytes() == imgs.tobytes() and t.generator_indices == gen_idx
    assert t.base.tolist() == dense.base.tolist()
    _assert_base_keys_are_injective_and_irredundant(t)
    _assert_lookup_matches_row_dict(t)


def _order_tables():
    abelian = sc.build(sc.parse_spec("raw(" + ";".join(f"({2 * i + 1},{2 * i + 2})" for i in range(10)) + ")"))
    assert abelian.conjugacy_classes().count == abelian.order == 2 ** 10  # one element per class
    yield "raw 2^10", abelian
    gl25 = sc.build(sc.gl2(5))
    yield "gl2(5)", gl25
    yield "gl2(5)/R", sc.quotient_by(gl25, sc.solvable_radical(gl25))


def test_orders_from_class_representatives_match_per_row_orders():
    seen = 0
    for name, t in _order_tables():
        assert t.order_of.tolist() == [perm_order(row) for row in t.imgs], name
        seen += 1
    assert seen == 3


def test_build_leaves_classes_unset_until_orders_or_classes_are_read():
    t = sc.build(sc.parse_spec("pgl2(7)"))
    assert t._classes is None and "order_of" not in vars(t)
    orders = t.order_of
    assert t._classes is not None and t.order_of is orders  # computed once
    t = sc.build(sc.parse_spec("pgl2(7)"))
    classes = t.conjugacy_classes()
    assert "order_of" not in vars(t)
    assert t.order_of.tolist() == [perm_order(row) for row in t.imgs]
    assert t.conjugacy_classes() is classes


def test_element_orders_match_perm_order_on_random_rows():
    rng = np.random.default_rng(22)
    for d in (1, 2, 7, 16, 31):
        rows = np.stack([rng.permutation(d) for _ in range(40)]
                        + [np.arange(d), np.roll(np.arange(d), 1), np.arange(d)]).astype(np.int16)
        assert group._element_orders(rows).tolist() == [perm_order(row) for row in rows]
    assert group._element_orders(np.arange(5, dtype=np.int16)[None, :]).tolist() == [1]  # ends after one step


def _repeated_and_identity_generators():
    p = sc.parse_cycles("(1,2,3)", 4)
    return [sc.Permutation(range(4)), p, sc.parse_cycles("(1,2)(3,4)", 4), p]


def test_enumeration_keeps_repeated_and_identity_generators():
    gens = _repeated_and_identity_generators()
    t = sc.enumerate_group(gens)
    imgs, gen_idx = oracles.enumerate_per_row(gens, cap=group.DEFAULT_CAP)
    assert t.imgs.tobytes() == imgs.tobytes()
    assert t.generator_indices == gen_idx == [0, 1, 2, 1]


@pytest.fixture(params=["dense", "sorted"])
def lookup(request, monkeypatch):
    """Which element lookup the tables built in the test use: "sorted" puts every table above the ceiling."""
    if request.param == "sorted":
        monkeypatch.setattr(group, "_DENSE_KEYS", 0)
    return request.param


@pytest.mark.parametrize("spec_text", ["symmetric(5)", "pgl2(7)", "m10", "wreath(symmetric(3),2,cycle)"])
def test_cap_exceeded_fires_just_below_the_order(spec_text, lookup):
    gens = generators_for(sc.parse_spec(spec_text))
    t = sc.enumerate_group(gens)
    assert (t._index[1] is None) == (lookup == "sorted")
    assert sc.enumerate_group(gens, cap=t.order).imgs.tobytes() == t.imgs.tobytes()
    with pytest.raises(sc.CapExceeded):
        sc.enumerate_group(gens, cap=t.order - 1)


def _built(spec_text, lookup):
    t = sc.build(sc.parse_spec(spec_text))
    assert (t._index[1] is None) == (lookup == "sorted")
    return t


LOOKUP_SPECS = ENUM_SPECS + ["product(symmetric(5),symmetric(5))", "squished(symmetric(5),symmetric(5))"]


@pytest.mark.parametrize("spec_text", LOOKUP_SPECS)
def test_lookup_matches_row_dict(spec_text, lookup):
    _assert_lookup_matches_row_dict(_built(spec_text, lookup))


def test_long_base_wreath_takes_the_sorted_keys():
    t = sc.build(sc.parse_spec("wreath(symmetric(3),4,cycle)"))  # 12 points, 8 base points
    assert t._index[1] is None
    _assert_lookup_matches_row_dict(t)


def _assert_lookup_matches_row_dict(t):
    index = {row.tobytes(): i for i, row in enumerate(t.imgs)}
    assert np.array_equal(t.lookup_images(t.imgs), np.arange(t.order))
    rng = np.random.default_rng(11)
    g, h = rng.integers(0, t.order, size=(2, 500))
    prods = np.take_along_axis(t.imgs[g], t.imgs[h], axis=1)
    assert t.lookup_images(prods).tolist() == [index[row.tobytes()] for row in prods]
    assert all(t.find_permutation(t.permutation(i)) == i for i in rng.integers(0, t.order, size=200).tolist())
    for _ in range(200):  # mostly non-members, except in the symmetric groups
        row = rng.permutation(t.degree).astype(np.int16)
        assert t.find_permutation(sc.Permutation(row)) == index.get(row.tobytes(), -1)


def test_find_permutation_rejects_keys_past_the_table_and_off_orbit_images(lookup):
    t = _built("product(symmetric(5),symmetric(5))", lookup)  # orbits {1..5} and {6..10}
    past = sc.Permutation(range(9, -1, -1))  # every base point to the largest point
    if t._index[1] is not None:
        assert int(past.images[t.base] @ t._index[0]) >= len(t._index[1])
    crossed = sc.parse_cycles("(5,6)", 10)  # base point 6 to 5, outside its orbit
    assert t.find_permutation(past) == t.find_permutation(crossed) == -1
    assert t.find_permutation(sc.parse_cycles("(1,2)(6,7)", 10)) >= 0


def test_lookup_in_the_identity_only_group(lookup):
    t = sc.enumerate_group([sc.Permutation.identity(3)])
    assert (t._index[1] is None) == (lookup == "sorted")
    assert t.base.tolist() == [] and t.lookup_images(t.imgs).tolist() == [0]
    assert t.find_permutation(sc.Permutation.identity(3)) == 0
    assert t.find_permutation(sc.parse_cycles("(1,2)", 3)) == -1
    assert t.closure_indices([0]) == [0]


def test_many_disjoint_transpositions_build():
    # 2^14 elements on 28 points: the key range is the product of the orbit spans, not 28^14
    t = sc.build(sc.parse_spec("raw(" + ";".join(f"({2 * i + 1},{2 * i + 2})" for i in range(14)) + ")"))
    assert t.order == 2 ** 14
    assert np.array_equal(t.lookup_images(t.imgs), np.arange(t.order))


@pytest.mark.parametrize("spec_text", ["alternating(5)", "pgl2(7)", "m10", "gl2(5)", "pgammal2(8)"])
def test_closure_matches_per_seed_walk(spec_text, lookup):
    t = _built(spec_text, lookup)
    rng = np.random.default_rng(5)
    for _ in range(40):
        seeds = rng.integers(0, t.order, size=rng.integers(1, 6)).tolist()
        H = oracles.closure_per_seed(t, seeds)
        assert t.closure_indices(seeds) == H
        for stop in (len(H), len(H) - 1, len(H) // 2):
            assert t.closure_indices(seeds, stop_above=stop) == oracles.closure_per_seed(t, seeds, stop)
    squares = t.lookup_images(np.take_along_axis(t.imgs, t.imgs, axis=1)).tolist()
    assert t.closure_indices(squares) == oracles.closure_per_seed(t, squares)


@pytest.mark.parametrize("spec_text", ["alternating(5)", "pgl2(7)", "gl2(5)"])
def test_closure_stop_at_matches_per_seed_walk(spec_text):
    t = sc.build(sc.parse_spec(spec_text))
    rng = np.random.default_rng(11)
    none_marked = np.zeros(t.order, dtype=bool)
    stopped = 0
    for _ in range(60):
        seeds = rng.integers(0, t.order, size=rng.integers(1, 4)).tolist()
        assert t.closure_indices(seeds, stop_at=none_marked) == t.closure_indices(seeds)
        marked = rng.random(t.order) < rng.choice([0.001, 0.01, 0.1])
        got = t.closure_indices(seeds, stop_at=marked)
        assert got == oracles.closure_per_seed(t, seeds, stop_at=marked)
        stopped += got is None
        H = t.closure_indices(seeds)
        if got is None:  # a marked nonidentity element lies in the subgroup
            assert marked[H[1:]].any()
        else:
            assert got == H and not marked[H[1:]].any()
        for stop in (len(H) - 1, len(H)):
            assert t.closure_indices(seeds, stop, marked) == oracles.closure_per_seed(t, seeds, stop, marked)
    assert 0 < stopped < 60


RADICAL_SPECS = [g[0] for g in GOLDEN] + ["gl2(5)", "gl2(7)", "product(alternating(5),symmetric(4))",
                                          "product(alternating(5),symmetric(3))", "sl25"]


@pytest.mark.parametrize("spec_text", RADICAL_SPECS)
def test_radical_matches_normal_closure_loop(request, spec_text):
    if spec_text == "sl25":
        sl25 = request.getfixturevalue("sl25")
        gens = [sl25.permutation(g) for g in sl25.generator_indices]
        t, fresh = sc.enumerate_group(gens), sc.enumerate_group(gens)
    else:
        t, fresh = sc.build(sc.parse_spec(spec_text)), sc.build(sc.parse_spec(spec_text))
    rad = sc.solvable_radical(t)
    mask, gens = oracles.radical_by_normal_closures(fresh)  # own caches
    assert rad.mask.tobytes() == mask.tobytes()
    assert rad.gens == gens


@pytest.mark.parametrize("spec_text", ["alternating(6)", "psl2(8)", "psl2(27)"])
def test_radical_of_simple_group_needs_no_normal_closure(monkeypatch, spec_text):
    # every nonidentity class of a simple G has 60 (|C| + 1) > |G|
    t = sc.build(sc.parse_spec(spec_text))
    assert not t.is_group_solvable()  # its derived series takes normal closures of its own
    calls = []
    closure = group._normal_closure_within
    monkeypatch.setattr(group, "_normal_closure_within", lambda *args, **kw: calls.append(args) or closure(*args, **kw))
    assert len(sc.solvable_radical(t)) == 1
    assert calls == []


@pytest.mark.parametrize("spec_text", ["wreath(symmetric(3),4,cycle)", "product(symmetric(4),dihedral(5))"])
def test_radical_of_solvable_group_is_the_group_with_no_normal_closure(monkeypatch, spec_text):
    # order 5,184 = 2^6 3^4 is solvable by its order alone; 240 = 2^4 3 5 needs the derived series
    t = sc.build(sc.parse_spec(spec_text))
    assert t.is_group_solvable()  # its derived series takes normal closures of its own
    calls = []
    closure = group._normal_closure_within
    monkeypatch.setattr(group, "_normal_closure_within", lambda *args, **kw: calls.append(args) or closure(*args, **kw))
    rad = sc.solvable_radical(t)
    assert rad.mask.all() and rad.is_subgroup and rad.gens == t.generator_indices
    assert calls == []


@pytest.mark.parametrize("spec_text", ["alternating(5)", "pgl2(7)", "gl2(5)", "wreath(symmetric(3),2,cycle)"])
def test_cyclic_matches_permutation_powers(spec_text):
    t = sc.build(sc.parse_spec(spec_text))
    for g in range(t.order):
        powers, gens = t.cyclic(g)
        assert powers.tolist() == oracles.powers_by_products(t, g), g
        assert gens.tolist() == oracles.generators_by_products(t, g), g


PIN_SPECS = [g[0] for g in GOLDEN] + [
    "gl2(5)", "symmetric(4)", "dihedral(6)", "squished(symmetric(5),symmetric(5))",
    "product(psl2(7),symmetric(3))",
]


@pytest.mark.parametrize("spec_text", PIN_SPECS)
def test_broadcast_walks_match_per_generator_walks(spec_text, lookup):
    t = _built(spec_text, lookup)
    cp = t.conjugacy_classes()
    class_of, reps, conjugator = oracles.classes_per_generator(t)
    assert np.array_equal(cp.class_of, class_of) and cp.representatives == reps
    assert np.array_equal(cp.conjugator, conjugator)
    for x in reps:
        label, _ = solvabilizer._normalizer_orbits(t, x, t.cyclic(x)[1])
        assert np.array_equal(label, oracles.normalizer_orbits_per_generator(t, x))
    _assert_index_two_subgroups_match_cosets(t)


@pytest.mark.parametrize("spec_text", ["pgl2(7)", "alternating(6)"])
def test_normalizer_matches_brute_force(spec_text):
    # _sol_of_rep marks N_G(<x>) inside Sol(x) without a closure, so the set must be exact
    t = sc.build(sc.parse_spec(spec_text))
    for x in t.conjugacy_classes().representatives:
        label, normalizer = solvabilizer._normalizer_orbits(t, x, t.cyclic(x)[1])
        assert normalizer.tolist() == np.flatnonzero(oracles.normalizer_brute(t, x)).tolist()
        assert np.isin(label[normalizer], normalizer).all()  # N is a union of its own orbits


def _coset_cases():
    for q in (4, 5, 7):
        t = sc.build(sc.gl2(q))
        yield f"gl2({q}) center", t, sc.solvable_radical(t)
    for spec_text in ("pgammal2(9)", "symmetric(5)", "m10", "squished(symmetric(5),symmetric(5))"):
        t = sc.build(sc.parse_spec(spec_text))
        squares = t.lookup_images(np.take_along_axis(t.imgs, t.imgs, axis=1)).tolist()
        yield f"{spec_text} squares", t, sc.subgroup_closure(t, squares)
        for i, H in enumerate(sc.index_two_subgroups(t)):
            yield f"{spec_text} index-2 #{i}", t, H


def test_left_cosets_match_element_loop():
    seen = 0
    for name, t, H in _coset_cases():
        coset_of, reps = group._left_cosets(t, H.indices())
        want_of, want_reps = oracles.left_cosets_loop(t, H.indices())
        assert np.array_equal(coset_of, want_of), name
        assert np.array_equal(reps, want_reps), name
        seen += 1
    assert seen >= 12


@pytest.mark.parametrize("q", [4, 5, 7])
def test_quotient_matches_table_from_element_loop_cosets(q):
    t = sc.build(sc.gl2(q))
    rad = sc.solvable_radical(t)
    coset_of, reps = oracles.left_cosets_loop(t, rad.indices())
    qgens = [sc.Permutation(coset_of[t.mul_left(g, reps)]) for g in t.generator_indices]
    want = sc.enumerate_group(qgens)
    got = sc.quotient_by(t, rad)
    assert got.order == q * (q * q - 1)  # PGL(2,q)
    assert got.imgs.tobytes() == want.imgs.tobytes()
    assert got.generator_indices == want.generator_indices


INDEX_TWO_SPECS = [
    "symmetric(4)", "symmetric(5)", "symmetric(6)", "pgl2(7)", "pgl2(9)", "pgammal2(8)",
    "pgammal2(9)", "m10", "gl2(3)", "gl2(5)", "dihedral(4)", "product(symmetric(3),symmetric(3))",
    "wreath(symmetric(3),2,cycle)", "squished(symmetric(4),symmetric(4))",
    "raw((1,2);(3,4);(5,6);(7,8);(9,10))",
]


def _assert_index_two_subgroups_match_cosets(t):
    got = sc.index_two_subgroups(t)
    want = oracles.index_two_subgroups_by_cosets(t)
    assert [H.mask.tolist() for H in got] == [H.mask.tolist() for H in want]
    assert [H.gens for H in got] == [H.gens for H in want]


@pytest.mark.parametrize("spec_text", INDEX_TWO_SPECS)
def test_index_two_subgroups_match_coset_oracle(spec_text):
    _assert_index_two_subgroups_match_cosets(sc.build(sc.parse_spec(spec_text)))


def test_index_two_subgroups_with_repeated_and_identity_generators():
    _assert_index_two_subgroups_match_cosets(sc.enumerate_group(_repeated_and_identity_generators()))


NUMPY_MA_PROBE = """
import sys
import numpy
print("numpy.ma" in sys.modules)
import solvcover as sc
a6 = sc.build(sc.alternating(6))
for mode in ("all", "involutions"):
    sc.solve_alpha(a6, mode)
sc.index_two_subgroups(sc.build(sc.symmetric(5)))
print("numpy.ma" in sys.modules)
"""


def test_solve_and_index_two_subgroups_leave_numpy_ma_unloaded():
    # a plain np.unique imports numpy.ma, about 1.6 MB of resident memory under numpy 2
    src = str(Path(sc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", NUMPY_MA_PROBE], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    at_import, after = proc.stdout.split()
    if at_import == "True":
        pytest.skip("import numpy alone loads numpy.ma")
    assert after == "False"


@pytest.mark.slow
@pytest.mark.parametrize("spec_text", [
    "squished(symmetric(5),symmetric(5))", "product(symmetric(5),symmetric(5))",
    "product(pgl2(7),symmetric(4))", "pgammal2(16)",
])
def test_index_two_subgroups_match_coset_oracle_on_large_tables(spec_text):
    _assert_index_two_subgroups_match_cosets(sc.build(sc.parse_spec(spec_text)))


def test_order_rule():
    solvable_orders = [1, 2, 30, 42, 56, 72, 2 ** 6 * 3 ** 4, 5 ** 3 * 7]
    assert all(group._solvable_by_order(n) for n in solvable_orders)
    assert not any(group._solvable_by_order(n) for n in (60, 120, 168, 360, 720, 1092))


@pytest.mark.parametrize("spec_text", ["alternating(5)", "psl2(7)", "alternating(6)", "symmetric(6)", "pgl2(9)"])
def test_order_rule_agrees_with_full_derived_series(spec_text):
    # every <x,y> up to conjugacy: x runs over class representatives
    t = sc.build(sc.parse_spec(spec_text))
    subgroups = {}
    for x in t.conjugacy_classes().representatives:
        for y in range(t.order):
            H = sc.subgroup_closure(t, [x, y])
            subgroups.setdefault(H.fingerprint(), H)
    nonsolvable_orders = set()
    for H in subgroups.values():
        fresh = sc.ElementSet(t, H.mask, is_subgroup=True, gens=H.gens)
        verdict = oracles.solvable_by_derived_series(t, fresh)
        assert sc.is_solvable(t, H) == verdict
        if not verdict:
            nonsolvable_orders.add(len(H))
            assert not group._solvable_by_order(len(H))
    want = {"alternating(5)": {60}, "psl2(7)": {168}, "alternating(6)": {60, 360},
            "symmetric(6)": {60, 120, 360, 720}, "pgl2(9)": {60, 360, 720}}[spec_text]
    assert want <= nonsolvable_orders


SOLVABILITY_SPECS = [g[0] for g in GOLDEN] + ["gl2(5)", "gl2(7)", "sl25", "product(symmetric(4),dihedral(5))",
                                              "product(gl2(3),dihedral(35))"]


@pytest.mark.parametrize("spec_text", SOLVABILITY_SPECS)
def test_group_solvability_matches_derived_series(request, spec_text):
    # the perfect pair, or the derived series where none exists (GL(2,q), solvable groups)
    t = request.getfixturevalue("sl25") if spec_text == "sl25" else sc.build(sc.parse_spec(spec_text))
    assert t.is_group_solvable() == sc.is_solvable(t, sc.ElementSet.full(t))


def test_golden_groups_are_nonsolvable_by_a_perfect_pair(monkeypatch):
    def derived_series(*args, **kw):
        raise AssertionError("derived series taken")

    monkeypatch.setattr(group, "derived_subgroup", derived_series)
    for spec_text, *_ in GOLDEN:
        assert not sc.build(sc.parse_spec(spec_text)).is_group_solvable(), spec_text


@pytest.mark.parametrize("spec_text", ["alternating(5)", "symmetric(5)", "symmetric(6)", "sl25", "gl2(5)",
                                       "product(symmetric(4),dihedral(5))"])
def test_derived_series_stopped_at_half_matches_full_series(request, spec_text):
    # a derived subgroup with more than half of K's elements is K itself, so K is perfect
    t = request.getfixturevalue("sl25") if spec_text == "sl25" else sc.build(sc.parse_spec(spec_text))
    cur = sc.ElementSet.full(t)
    while True:
        whole = sc.derived_subgroup(t, cur)
        cut = sc.derived_subgroup(t, cur, stop_above=len(cur) // 2)
        assert (cut is None) == (len(whole) == len(cur) > 1)
        assert cut is None or cut.mask.tobytes() == whole.mask.tobytes()
        assert sc.is_solvable(t, cur) == oracles.solvable_by_derived_series(t, cur)
        if cut is None or len(whole) == 1:
            break
        cur = whole
