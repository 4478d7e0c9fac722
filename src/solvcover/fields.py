"""Exact GF(p^f) arithmetic on integer-encoded polynomial representatives.

An element of GF(p^f) is the integer sum(c_i * p^i) of its coefficients in
the polynomial basis.  Multiplication runs on exp/log tables built from the
class of x, which is a primitive root for the moduli used here.  The modulus
is the least monic polynomial (ordered by that same integer encoding) that
is primitive irreducible, found by trying every candidate in that order.
"""

from __future__ import annotations

from .errors import BadParameter, NotAPrimePower


def factor_prime_power(q: int):
    """(p, f) with q = p^f, or None when q is not a prime power."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q and q > 1:
            return (q, 1)
        if q % p == 0:
            f, r = 0, q
            while r % p == 0:
                r //= p
                f += 1
            return (p, f) if r == 1 else None
    return None


def is_prime(n: int) -> bool:
    """Whether n is prime (a prime power with exponent 1)."""
    return factor_prime_power(n) == (n, 1)


class GF:
    """Arithmetic suite for GF(q): add, mul, inv, frobenius, squareness."""

    def __init__(self, q: int):
        pf = factor_prime_power(q)
        if pf is None:
            raise NotAPrimePower(f"{q} is not a prime power")
        if q > 2 ** 16:
            raise BadParameter("field order above 2^16 unsupported")
        self.q = q
        self.p, self.f = pf
        self.modulus = None if self.f == 1 else self._pick_modulus()
        self._build_tables()

    # -- construction --------------------------------------------------

    def _mul_by_x(self, a: int, modulus: int) -> int:
        p, f = self.p, self.f
        digits = []
        for _ in range(f):
            digits.append(a % p)
            a //= p
        lead = digits[-1]
        digits = [0] + digits[:-1]
        if lead:
            m = modulus
            for i in range(f):
                digits[i] = (digits[i] - lead * (m % p)) % p
                m //= p
        v = 0
        for d in reversed(digits):
            v = v * p + d
        return v

    def _is_primitive_modulus(self, modulus: int) -> bool:
        # x must have multiplicative order exactly q-1 in F_p[x]/(modulus);
        # that already forces the modulus to be irreducible
        val = 1
        for k in range(1, self.q):
            val = self._mul_by_x(val, modulus)
            if val == 1:
                return k == self.q - 1
        return False

    def _pick_modulus(self) -> int:
        for c in range(self.q):
            if self._is_primitive_modulus(c):
                return c
        raise BadParameter(f"no primitive modulus found for GF({self.q})")

    def _build_tables(self):
        q, p = self.q, self.p
        exp = [0] * (q - 1)
        if self.f == 1:
            g = self._prime_primitive_root()
            x = 1
            for i in range(q - 1):
                exp[i] = x
                x = x * g % p
        else:
            x = 1
            for i in range(q - 1):
                exp[i] = x
                x = self._mul_by_x(x, self.modulus)
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self._exp, self._log = exp, log

    def _prime_primitive_root(self) -> int:
        p = self.p
        if p == 2:
            return 1
        for g in range(2, p):
            x, seen = 1, set()
            for _ in range(p - 1):
                x = x * g % p
                seen.add(x)
            if len(seen) == p - 1:
                return g
        raise BadParameter("no primitive root")  # unreachable for prime p

    # -- arithmetic -----------------------------------------------------

    def elements(self):
        return range(self.q)

    def add(self, a: int, b: int) -> int:
        p = self.p
        v, mult = 0, 1
        for _ in range(self.f):
            v += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return v

    def neg(self, a: int) -> int:
        p = self.p
        v, mult = 0, 1
        for _ in range(self.f):
            v += (-a % p) * mult
            a //= p
            mult *= p
        return v

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise BadParameter("zero has no inverse")
        return self._exp[-self._log[a] % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            return 0 if k > 0 else 1
        return self._exp[(self._log[a] * k) % (self.q - 1)]

    def frobenius(self, a: int) -> int:
        """The field automorphism x -> x^p."""
        return self.pow(a, self.p)

    def is_square(self, a: int) -> bool:
        if a == 0 or self.p == 2:
            return True  # every element of a characteristic-2 field is a square
        return self._log[a] % 2 == 0

    def sqrt(self, a: int) -> int:
        if a == 0:
            return 0
        if not self.is_square(a):
            raise BadParameter(f"{a} is not a square in GF({self.q})")
        return self._exp[(self._log[a] // 2) % (self.q - 1)] if self.p != 2 else self.pow(a, self.q // 2)

    def primitive_element(self) -> int:
        return self._exp[1 % (self.q - 1)]


_FIELDS: dict[int, GF] = {}


def field_ops(q: int) -> GF:
    """Shared GF(q) instance (fields are immutable)."""
    f = _FIELDS.get(q)
    if f is None:
        f = GF(q)
        _FIELDS[q] = f
    return f
