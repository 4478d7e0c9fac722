from pathlib import Path

import pytest

import solvcover as sc
from solvcover.perm import parse_cycles
from solvcover.records import parse_certificate_lines

CERT_DIR = Path(__file__).resolve().parent.parent / "src" / "solvcover" / "data" / "certificates"


def load_cert(name):
    text = (CERT_DIR / f"{name}.cert").read_text()
    header = {}
    for line in text.splitlines():
        if line.startswith("#") and ":" in line:
            k, _, v = line[1:].partition(":")
            header[k.strip()] = v.strip()
    spec = sc.parse_spec(header["group"])
    table = sc.build(spec)
    perms = parse_certificate_lines(text, degree=table.degree)
    return spec, header["mode"], table, perms


def test_a5_certificate_verifies(a5):
    spec, mode, table, perms = load_cert("a5")
    assert sc.verify_certificate(table, sc.Certificate(spec, mode, perms))
    # the same cover stated on the natural labeling directly
    lits = [parse_cycles(s, 5) for s in ("(1,5)(3,4)", "(1,5)(2,3)", "(1,5)(2,4)")]
    assert sc.verify_certificate(a5, sc.Certificate(spec, "involutions", lits))


def test_s5_both_published_certificates(s5):
    spec, mode, table, perms = load_cert("s5")
    assert sc.verify_certificate(table, sc.Certificate(spec, mode, perms))
    single_class = [parse_cycles(s, 5) for s in
                    ("(2,3)(4,5)", "(1,2)(3,4)", "(1,3)(2,5)", "(1,4)(3,5)", "(1,5)(2,4)")]
    assert sc.verify_certificate(s5, sc.Certificate(spec, "involutions", single_class))


def test_too_small_subset_fails(a5):
    lits = [parse_cycles(s, 5) for s in ("(1,5)(3,4)", "(1,5)(2,3)")]
    assert not sc.verify_certificate(a5, sc.Certificate(None, "involutions", lits))


def test_identity_rejected(a5):
    with pytest.raises(sc.ElementInRadical):
        sc.verify_certificate(a5, sc.Certificate(None, "all", [sc.Permutation.identity(5)]))


def test_foreign_element_rejected(a5):
    with pytest.raises(sc.ElementNotInGroup):
        sc.verify_certificate(a5, sc.Certificate(None, "all", [parse_cycles("(1,2)", 5)]))


def test_mode_violation_fails_not_raises(a5):
    three_cycle = parse_cycles("(1,2,3)", 5)
    cert = sc.Certificate(None, "involutions", [three_cycle])
    assert sc.verify_certificate(a5, cert) is False


def test_first_uncovered_names_an_element(a5):
    lits = [parse_cycles("(1,5)(3,4)", 5)]
    missing = sc.first_uncovered(a5, sc.Certificate(None, "involutions", lits))
    assert missing is not None and missing > 0


# -- family bounds ------------------------------------------------------------------


def bound_values(rep, kind, mode):
    return {b.value for b in rep.bounds if b.kind == kind and b.applies_to in (mode, "both")}


def test_psl2_char2_exact():
    rep = sc.family_bounds(sc.psl2(8))
    assert 7 in bound_values(rep, "lower", "alpha")
    assert 7 in bound_values(rep, "upper", "alpha")
    assert 7 in bound_values(rep, "lower", "alpha_inv")
    rep4 = sc.family_bounds(sc.psl2(4))
    assert 3 in bound_values(rep4, "lower", "alpha")
    # 16 = 2^4 is not 2^prime: only the generic floor remains
    rep16 = sc.family_bounds(sc.psl2(16))
    assert bound_values(rep16, "lower", "alpha") == {3}


def test_psl13_exact_bounds():
    rep = sc.family_bounds(sc.psl2(13))
    assert 13 in bound_values(rep, "lower", "alpha")
    assert 13 in bound_values(rep, "upper", "alpha")


def test_psl11_tension_flagged():
    rep = sc.family_bounds(sc.psl2(11))
    flagged = [b for b in rep.bounds if b.flagged]
    assert len(flagged) == 1
    assert flagged[0].kind == "lower" and flagged[0].value == 16


def test_psl5_upper_only():
    rep = sc.family_bounds(sc.psl2(5))
    assert 5 in bound_values(rep, "upper", "alpha")
    assert bound_values(rep, "lower", "alpha") == {3}  # exact-p corollary excluded at p=5


def test_psl27_no_dihedral_lower_misfire():
    rep = sc.family_bounds(sc.psl2(7))
    unflagged_lowers = {b.value for b in rep.lowers("alpha") if not b.flagged}
    assert unflagged_lowers == {3}
    flagged = [b for b in rep.bounds if b.flagged]
    assert flagged and flagged[0].value == 10


def test_sz_bound():
    rep = sc.family_bounds(sc.sz(32))
    assert 32 * 32 + 1 in bound_values(rep, "lower", "alpha")
    with pytest.raises(sc.BadParameter):
        sc.family_bounds(sc.sz(16))  # 16 = 2^4, exponent not an odd prime


def test_product_and_wreath_bounds():
    rep = sc.family_bounds(sc.direct_product(sc.psl2(8), sc.psl2(13)))
    assert 7 in bound_values(rep, "upper", "alpha")
    wrep = sc.family_bounds(sc.wreath(sc.psl2(8), 2, "cycle"))
    assert 7 in bound_values(wrep, "upper", "alpha")


def test_attach_computed_verdicts():
    rep = sc.family_bounds(sc.psl2(8))
    ok = sc.CoverOutcome(sc.EXACT, 7, 7, None)
    assert sc.attach_computed(rep, ok, ok).verdict == "consistent"
    bad = sc.CoverOutcome(sc.EXACT, 6, 6, None)
    rep2 = sc.family_bounds(sc.psl2(8))
    assert sc.attach_computed(rep2, bad, None).verdict == "violation"
    # the flagged PSL2(11) bound must not create a violation for the table value 15
    rep3 = sc.family_bounds(sc.psl2(11))
    fifteen = sc.CoverOutcome(sc.EXACT, 15, 15, None)
    assert sc.attach_computed(rep3, fifteen, None).verdict == "consistent"


def test_cross_check_rows():
    e = sc.EXACT
    mk = lambda v: sc.CoverOutcome(e, v, v, None)
    inf = sc.CoverOutcome(sc.INFEASIBLE, 0, None, None)
    rows = sc.cross_check([
        (sc.alternating(5), mk(3), mk(3)),
        (sc.psl2(7), mk(5), inf),
        (sc.pgl2(9), mk(8), mk(8)),
    ])
    assert rows[0].conjectures["inv_equals_alpha"] == "supports"
    assert "inapplicable" in rows[1].conjectures["inv_equals_alpha"]
    assert rows[2].conjectures["inv_equals_alpha"].startswith("supports")
    assert "a5_factor" in rows[0].conjectures
    text = sc.format_cross_check(rows)
    assert "A5" in text and "conjecture" in text


def test_cross_check_char2_conjecture():
    rows = sc.cross_check([(sc.psl2(8), sc.CoverOutcome(sc.EXACT, 7, 7, None),
                            sc.CoverOutcome(sc.EXACT, 7, 7, None))])
    assert rows[0].conjectures["char2_qminus1"] == "supports"


def test_cross_check_q1mod4_conjecture_is_inapplicable_at_q5():
    # family_bounds leaves PSL(2,5) out of the corollary alpha = q, as alpha(PSL(2,5)) = 3
    three, nine = sc.CoverOutcome(sc.EXACT, 3, 3, None), sc.CoverOutcome(sc.EXACT, 9, 9, None)
    rows = sc.cross_check([(sc.psl2(5), three, three), (sc.psl2(9), nine, nine)])
    assert rows[0].conjectures["q1mod4_alpha_q"].startswith("inapplicable")
    assert rows[1].conjectures["q1mod4_alpha_q"] == "supports"


@pytest.mark.parametrize("spec_text", ["psl2(4)", "pgl2(4)", "psl2(5)", "alternating(5)"])
def test_cross_check_sees_a5_in_every_spec_of_it(spec_text):
    # PGL(2,4) = PSL(2,4) = A5, as its field has characteristic 2
    three = sc.CoverOutcome(sc.EXACT, 3, 3, None)
    row = sc.cross_check([(sc.parse_spec(spec_text), three, three)])[0]
    assert row.conjectures["a5_factor"] == "supports (A5 visible in the spec)"


def test_solver_certificates_verify_and_are_tight(a5, s5, psl27):
    # every Exact outcome's certificate is a valid cover, and removing any
    # single element breaks it (it is a minimum cover)
    for table in (a5, s5, psl27):
        out = sc.solve_alpha(table, "all")
        assert out.status == sc.EXACT
        perms = out.certificate_perms
        assert len(perms) == out.upper
        assert sc.verify_certificate(table, sc.Certificate(None, "all", perms))
        for i in range(len(perms)):
            sub = perms[:i] + perms[i + 1:]
            assert not sc.verify_certificate(table, sc.Certificate(None, "all", sub))


# -- constructive covers ---------------------------------------------------------------


def test_verify_gl2_cover_q5():
    assert sc.verify_gl2_cover(5)


def test_verify_gl2_cover_rejects_bad_q():
    for q in (4, 8):
        with pytest.raises(sc.EvenFieldOrder):
            sc.verify_gl2_cover(q)
    for q in (1, 6):  # as gl2_cover_elements does
        with pytest.raises(sc.NotAPrimePower):
            sc.verify_gl2_cover(q)
    with pytest.raises(sc.BadParameter):
        sc.verify_gl2_cover(3)
    with pytest.raises(sc.CapExceeded):
        sc.verify_gl2_cover(7, cap=100)  # GL2(7) too big for the cap, 7 = 3 mod 4
