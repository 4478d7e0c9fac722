import numpy as np
import pytest

import solvcover as sc
from solvcover.constructions import parse_spec, spec_to_text

import oracles


def test_named_orders():
    assert sc.build(sc.psl2(4)).order == 60
    assert sc.build(sc.symmetric(4)).order == 24
    assert sc.build(sc.alternating(6)).order == 360
    assert sc.build(sc.dihedral(7)).order == 14
    assert sc.build(sc.pgl2(5)).order == 120
    assert sc.build(sc.gl2(3)).order == 48


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13])
def test_projective_order_formulas(q):
    assert sc.build(sc.psl2(q)).order == oracles.expected_order(sc.psl2(q))
    if q in (5, 7, 9):
        assert sc.build(sc.pgl2(q)).order == oracles.expected_order(sc.pgl2(q))
    if q in (8, 9):
        assert sc.build(sc.pgammal2(q)).order == oracles.expected_order(sc.pgammal2(q))


def test_pgammal28_order():
    assert sc.build(sc.pgammal2(8)).order == 1512


def test_m10():
    t = sc.build(sc.m10())
    assert t.order == 720
    orders = sorted(set(int(o) for o in t.order_of))
    assert orders == [1, 2, 3, 4, 5, 8]  # M10 has no order-6 elements, unlike S6/PGL2(9)


def test_m10_is_the_index_two_subgroup_of_pgammal29():
    t = sc.build(sc.m10())
    assert {tuple(row) for row in t.imgs.tolist()} == oracles.m10_inside_pgammal2()


def test_product_order():
    t = sc.build(sc.direct_product(sc.psl2(4), sc.symmetric(3)))
    assert t.order == 360
    assert t.degree == 5 + 3


def test_wreath_order():
    spec = sc.wreath(sc.psl2(4), 2, "swap")
    t = sc.build(spec)
    assert t.order == 60 * 60 * 2
    # |H wr K| = |H|^n * |K| with K enumerated from the top generators
    top = sc.enumerate_group(list(spec.params[2]))
    assert t.order == 60 ** spec.params[1] * top.order


def test_squished_s4_s4():
    t = sc.build(sc.squished(sc.symmetric(4), sc.symmetric(4)))
    assert t.order == 24 * 24 // 2

    def is_even(perm):
        return sum(len(c) - 1 for c in perm.cycles()) % 2 == 0

    # parity is coupled across the factors: even-even and odd-odd pairs only
    parities = set()
    for i in range(t.order):
        p = t.permutation(i)
        left = sc.Permutation(p.images[:4])
        right = sc.Permutation(p.images[4:] - 4)
        assert is_even(left) == is_even(right)
        parities.add(is_even(left))
    # odd-odd pairs occur, so this is neither S x B nor A x T
    assert parities == {True, False}


def test_squished_requires_unique_index_two():
    with pytest.raises(sc.BadParameter):
        sc.build(sc.squished(sc.alternating(5), sc.symmetric(4)))


def test_gl2_cover_elements_q5():
    mats = sc.gl2_cover_elements(5)
    assert len(mats) == 5
    F = sc.field_ops(5)
    for w, m in enumerate(mats):
        assert m.det() == F.neg(1)
        sq = m.matmul(m)
        assert (sq.a, sq.b, sq.c, sq.d) == (1, 0, 0, 1)
        # eigenpair (1, span(e1)): first column is e1
        assert (m.a, m.c) == (1, 0)
        # eigenpair (-1, span((w,1))): m * (w,1) = -(w,1)
        vx = F.add(F.mul(m.a, w), m.b)
        vy = F.add(F.mul(m.c, w), m.d)
        assert (vx, vy) == (F.neg(w), F.neg(1))
    # distinct as projective actions
    assert len({m.vector_permutation() for m in mats}) == 5


def test_gl2_cover_even_field_rejected():
    with pytest.raises(sc.EvenFieldOrder):
        sc.gl2_cover_elements(8)


def test_project_identity_and_q5(a5):
    t5 = sc.build(sc.psl2(5))
    ident = sc.Matrix2(5, 1, 0, 0, 1)
    assert sc.project_to_psl(5, [ident], t5) == [0]
    idx = sc.project_to_psl(5, sc.gl2_cover_elements(5), t5)
    assert len(set(idx)) == 5
    assert all(t5.order_of[i] == 2 for i in idx)


def test_project_rejects_nonsquare_det():
    # q = 7: det -1 is not a square (7 = 3 mod 4)
    with pytest.raises(sc.DeterminantNotSquare):
        sc.project_to_psl(7, sc.gl2_cover_elements(7), sc.build(sc.psl2(7)))


def test_project_q13_distinct():
    t = sc.build(sc.psl2(13))
    idx = sc.project_to_psl(13, sc.gl2_cover_elements(13), t)
    assert len(set(idx)) == 13
    assert all(t.order_of[i] == 2 for i in idx)


def test_parse_spec_roundtrip():
    names = {"symmetric(6)": "S6", "alternating(5)": "A5", "dihedral(7)": "D14",
             "psl2(7)": "PSL(2,7)", "pgl2(9)": "PGL(2,9)", "pgammal2(8)": "PGammaL(2,8)",
             "gl2(5)": "GL(2,5)", "sz(8)": "Sz(8)", "m10": "M10",
             "product(psl2(7),psl2(9))": "PSL(2,7) x PSL(2,9)",
             "wreath(psl2(4),2,cycle)": "PSL(2,4) wr 2",
             "squished(symmetric(4),symmetric(4))": "S4 Yup S4",
             "raw((1,2,3);(3,4,5))": "raw"}
    for text, name in names.items():
        spec = parse_spec(text)
        assert parse_spec(spec_to_text(spec)) == spec
        assert spec.display_name() == name


def test_parse_spec_aliases_and_errors():
    assert parse_spec("sym(5)") == sc.symmetric(5)
    assert parse_spec("alt(5)") == sc.alternating(5)
    assert parse_spec("PSL2(7)") == sc.psl2(7)
    with pytest.raises(sc.BadParameter):
        parse_spec("nonsense(3)")
    with pytest.raises(sc.BadParameter):
        parse_spec("psl2(7)x")


def test_raw_spec():
    spec = parse_spec("raw((1,2,3);(3,4,5))")
    assert sc.build(spec).order == 60


def test_wreath_needs_a_block():
    with pytest.raises(sc.BadParameter):
        sc.wreath(sc.psl2(4), 0)
    with pytest.raises(sc.BadParameter):
        parse_spec("wreath(psl2(4),0,cycle)")


def test_sz_not_constructible():
    with pytest.raises(sc.BadParameter):
        sc.build(sc.sz(32))


def test_mobius_points_order():
    # the multiplier map z -> 2z on GF(5) fixes inf and 0, so points 1 and 2
    F = sc.field_ops(5)
    from solvcover.constructions import mobius_permutation
    p = mobius_permutation(F, 2, 0, 0, 1)
    assert p(0) == 0 and p(1) == 1  # inf, then affine 0
    assert p(2) == 3                # z = 1 -> 2
