import pytest

import solvcover as sc
from solvcover.fields import GF, factor_prime_power, field_ops, is_prime


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(13) == (13, 1)
    assert factor_prime_power(12) is None
    assert factor_prime_power(1) is None


def test_is_prime_matches_sieve():
    n = 20000
    sieve = [False, False] + [True] * (n - 1)
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(sieve[p * p::p])
    assert [is_prime(k) for k in range(n + 1)] == sieve


def test_not_a_prime_power():
    with pytest.raises(sc.NotAPrimePower):
        GF(12)


def test_gf7_inverse():
    assert field_ops(7).inv(3) == 5


def test_frobenius_order():
    F = field_ops(9)
    for a in F.elements():
        assert F.frobenius(F.frobenius(a)) == a
    assert any(F.frobenius(a) != a for a in F.elements())


def test_minus_one_squareness():
    assert field_ops(13).is_square(field_ops(13).neg(1))       # 13 = 1 mod 4
    assert not field_ops(11).is_square(field_ops(11).neg(1))   # 11 = 3 mod 4
    assert field_ops(8).is_square(5)                           # char 2: everything


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_field_axioms(q):
    F = field_ops(q)
    elems = list(F.elements())
    for a in elems:
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    # commutativity + distributivity on a grid
    for a in elems[: min(len(elems), 9)]:
        for b in elems[: min(len(elems), 9)]:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in (1, elems[-1]):
                assert F.mul(c, F.add(a, b)) == F.add(F.mul(c, a), F.mul(c, b))


@pytest.mark.parametrize("q", [9, 13, 25])
def test_squareness_matches_enumeration(q):
    F = field_ops(q)
    squares = {F.mul(a, a) for a in F.elements()}
    for a in F.elements():
        assert F.is_square(a) == (a in squares)
        if F.is_square(a):
            r = F.sqrt(a)
            assert F.mul(r, r) == a


@pytest.mark.parametrize("q", [2, 3, 16])
def test_primitive_element_generates(q):
    F = field_ops(q)
    g = F.primitive_element()
    seen = set()
    x = 1
    for _ in range(F.q - 1):
        x = F.mul(x, g)
        seen.add(x)
    assert len(seen) == F.q - 1


def test_moduli_are_the_least_primitive():
    # element encodings depend on the modulus, so pin the search's answers
    want = {(2, 2): 3, (2, 3): 3, (2, 4): 3, (3, 2): 5, (3, 3): 7, (3, 4): 5,
            (5, 2): 7, (5, 3): 17, (7, 2): 10}
    assert {pf: field_ops(pf[0] ** pf[1]).modulus for pf in want} == want
