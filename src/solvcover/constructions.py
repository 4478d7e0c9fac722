"""Named group constructions as permutation generator sets.

Projective groups act on the projective line ordered [inf, 0, 1, .., q-1]
(field elements by their canonical integer encoding); GL2(q) acts on the
q^2-1 nonzero column vectors ordered by x*q + y.  Products act on disjoint
point sets, wreath products on n blocks of the base degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BadParameter,
    DeterminantNotSquare,
    ElementNotFound,
    EvenFieldOrder,
    NotAPrimePower,
)
from .fields import GF, factor_prime_power, field_ops
from .group import DEFAULT_CAP, GroupTable, enumerate_group, index_two_subgroups
from .perm import Permutation, parse_cycles


@dataclass(frozen=True)
class GroupSpec:
    """Constructor name plus parameters, e.g. ('psl2', (7,))."""

    kind: str
    params: tuple = ()

    def display_name(self) -> str:
        k, p = self.kind, self.params
        if k in _INT_KINDS:
            return _INT_KINDS[k][0](p[0])
        if k == "m10":
            return "M10"
        if k == "product":
            return " x ".join(s.display_name() for s in p)
        if k == "wreath":
            return f"{p[0].display_name()} wr {p[1]}"
        if k == "squished":
            return f"{p[0].display_name()} Yup {p[1].display_name()}"
        if k == "raw":
            return "raw"
        return k

    def __str__(self):
        return spec_to_text(self)


def symmetric(n: int) -> GroupSpec:
    return GroupSpec("symmetric", (n,))


def alternating(n: int) -> GroupSpec:
    return GroupSpec("alternating", (n,))


def dihedral(n: int) -> GroupSpec:
    return GroupSpec("dihedral", (n,))


def psl2(q: int) -> GroupSpec:
    return GroupSpec("psl2", (q,))


def pgl2(q: int) -> GroupSpec:
    return GroupSpec("pgl2", (q,))


def pgammal2(q: int) -> GroupSpec:
    return GroupSpec("pgammal2", (q,))


def gl2(q: int) -> GroupSpec:
    return GroupSpec("gl2", (q,))


def m10() -> GroupSpec:
    return GroupSpec("m10")


def sz(q: int) -> GroupSpec:
    """Suzuki-group descriptor for the bound oracle; build() rejects it."""
    return GroupSpec("sz", (q,))


def direct_product(a: GroupSpec, b: GroupSpec) -> GroupSpec:
    return GroupSpec("product", (a, b))


def wreath(base: GroupSpec, n: int, top: str | Sequence[Permutation] = "cycle") -> GroupSpec:
    if n < 1:
        raise BadParameter("wreath(base, n) needs n >= 1")
    if isinstance(top, str):
        top_perms = _top_keyword(top, n)
    else:
        top_perms = tuple(top)
    return GroupSpec("wreath", (base, n, top_perms))


def squished(a: GroupSpec, b: GroupSpec) -> GroupSpec:
    return GroupSpec("squished", (a, b))


def raw(perms: Sequence[Permutation]) -> GroupSpec:
    return GroupSpec("raw", tuple(perms))


def _top_keyword(word: str, n: int) -> tuple:
    if word == "cycle":
        return (Permutation.from_cycles([tuple(range(1, n + 1))], n),)
    if word == "swap":
        if n != 2:
            raise BadParameter("swap top requires n = 2")
        return (Permutation.from_cycles([(1, 2)], 2),)
    raise BadParameter(f"unknown wreath top keyword {word!r}")


# -- generators of the kinds that take one integer ---------------------------


def _symmetric_generators(n: int) -> list[Permutation]:
    if n < 1:
        raise BadParameter("symmetric(n) needs n >= 1")
    if n == 1:
        return [Permutation.identity(1)]
    return [Permutation.from_cycles([(1, 2)], n),
            Permutation.from_cycles([tuple(range(1, n + 1))], n)]


def _alternating_generators(n: int) -> list[Permutation]:
    if n < 3:
        raise BadParameter("alternating(n) needs n >= 3")
    long_cycle = tuple(range(1, n + 1)) if n % 2 == 1 else tuple(range(2, n + 1))
    return [Permutation.from_cycles([(1, 2, 3)], n),
            Permutation.from_cycles([long_cycle], n)]


def _dihedral_generators(n: int) -> list[Permutation]:
    if n < 3:
        raise BadParameter("dihedral(n) needs n >= 3")
    rot = Permutation.from_cycles([tuple(range(1, n + 1))], n)
    refl = Permutation([(n - i) % n for i in range(n)])
    return [rot, refl]


def _sz_generators(q: int) -> list[Permutation]:
    raise BadParameter("sz(q) is a bound-oracle descriptor only; no construction is provided")


# -- projective and linear actions -------------------------------------------


def mobius_permutation(F: GF, a: int, b: int, c: int, d: int) -> Permutation:
    """z -> (az+b)/(cz+d) on [inf, 0, 1, .., q-1]."""
    if F.sub(F.mul(a, d), F.mul(b, c)) == 0:
        raise BadParameter("singular matrix has no Mobius action")
    img = []
    for i in range(F.q + 1):
        if i == 0:  # the point at infinity
            w = None if c == 0 else F.div(a, c)
        else:
            z = i - 1
            den = F.add(F.mul(c, z), d)
            w = None if den == 0 else F.div(F.add(F.mul(a, z), b), den)
        img.append(0 if w is None else 1 + w)
    return Permutation(img)


def frobenius_permutation(F: GF) -> Permutation:
    return Permutation([0] + [1 + F.frobenius(z) for z in range(F.q)])


def _psl2_generators(q: int) -> list[Permutation]:
    F = field_ops(q)
    gens = [mobius_permutation(F, 1, 1, 0, 1)]
    for i in range(1, F.f):
        gens.append(mobius_permutation(F, 1, F.p ** i, 0, 1))  # translation by x^i
    gens.append(mobius_permutation(F, 0, F.neg(1), 1, 0))
    return gens


def _pgl2_generators(q: int) -> list[Permutation]:
    F = field_ops(q)
    return _psl2_generators(q) + [mobius_permutation(F, F.primitive_element(), 0, 0, 1)]


def _pgammal2_generators(q: int) -> list[Permutation]:
    F = field_ops(q)
    if F.f == 1:
        raise BadParameter("pgammal2 needs a proper prime power (f >= 2)")
    return _pgl2_generators(q) + [frobenius_permutation(F)]


@dataclass(frozen=True)
class Matrix2:
    """2x2 matrix over GF(q), entries row-major (a b / c d)."""

    q: int
    a: int
    b: int
    c: int
    d: int

    def field(self) -> GF:
        return field_ops(self.q)

    def det(self) -> int:
        F = self.field()
        return F.sub(F.mul(self.a, self.d), F.mul(self.b, self.c))

    def matmul(self, other: "Matrix2") -> "Matrix2":
        F = self.field()
        return Matrix2(
            self.q,
            F.add(F.mul(self.a, other.a), F.mul(self.b, other.c)),
            F.add(F.mul(self.a, other.b), F.mul(self.b, other.d)),
            F.add(F.mul(self.c, other.a), F.mul(self.d, other.c)),
            F.add(F.mul(self.c, other.b), F.mul(self.d, other.d)),
        )

    def scale(self, s: int) -> "Matrix2":
        F = self.field()
        return Matrix2(self.q, F.mul(s, self.a), F.mul(s, self.b), F.mul(s, self.c), F.mul(s, self.d))

    def vector_permutation(self) -> Permutation:
        """Action on the q^2-1 nonzero column vectors, index (x,y) -> x*q + y - 1."""
        F = self.field()
        if self.det() == 0:
            raise BadParameter("singular matrix")
        q = self.q
        img = np.empty(q * q - 1, dtype=np.int64)
        for i in range(q * q - 1):
            x, y = divmod(i + 1, q)
            nx = F.add(F.mul(self.a, x), F.mul(self.b, y))
            ny = F.add(F.mul(self.c, x), F.mul(self.d, y))
            img[i] = nx * q + ny - 1
        return Permutation(img)

    def mobius(self) -> Permutation:
        return mobius_permutation(self.field(), self.a, self.b, self.c, self.d)


def _gl2_generators(q: int) -> list[Permutation]:
    F = field_ops(q)
    mats = [
        Matrix2(q, F.primitive_element(), 0, 0, 1),
        Matrix2(q, 1, 1, 0, 1),
        Matrix2(q, 0, F.neg(1), 1, 0),
    ]
    return [m.vector_permutation() for m in mats]


def gl2_cover_elements(q: int) -> list[Matrix2]:
    """The q involutions g_{U,W} with eigenpairs (1, U) and (-1, W), W != U.

    U is the span of the first standard basis vector; W runs over the other
    q lines, spanned by (w, 1).  Each matrix works out to (1, -2w / 0, -1),
    with determinant -1.
    """
    pf = factor_prime_power(q)
    if pf is None:
        raise NotAPrimePower(f"{q} is not a prime power")
    if pf[0] == 2:
        raise EvenFieldOrder("the eigenvalue-(-1) construction needs odd q")
    F = field_ops(q)
    return [Matrix2(q, 1, F.neg(F.add(w, w)), 0, F.neg(1)) for w in range(q)]


def project_to_psl(q: int, matrices: Sequence[Matrix2], table: Optional[GroupTable] = None) -> list[int]:
    """Element indices of the matrices' images in the psl2(q) table.

    Each matrix is rescaled to determinant 1 (its determinant must be a
    square), then located through the projective-line action.
    """
    F = field_ops(q)
    if table is None:
        table = build(psl2(q))
    out = []
    for m in matrices:
        det = m.det()
        if not F.is_square(det):
            raise DeterminantNotSquare(f"det {det} is not a square in GF({q})")
        scaled = m.scale(F.inv(F.sqrt(det)))
        idx = table.find_permutation(scaled.mobius())
        if idx < 0:
            raise ElementNotFound("projected matrix is not in the PSL2 table")
        out.append(idx)
    return out


# -- products -----------------------------------------------------------------


def _shift(perm: Permutation, offset: int, total: int) -> Permutation:
    img = np.arange(total)
    img[offset:offset + perm.degree] = perm.images + offset
    return Permutation(img)


def _product_generators(gens_a: list[Permutation], gens_b: list[Permutation]) -> list[Permutation]:
    da = gens_a[0].degree
    db = gens_b[0].degree
    total = da + db
    out = [_shift(g, 0, total) for g in gens_a]
    out += [_shift(g, da, total) for g in gens_b]
    return out


def _wreath_generators(base_gens: list[Permutation], n: int, top: Sequence[Permutation]) -> list[Permutation]:
    d = base_gens[0].degree
    total = n * d
    out = []
    for i in range(n):
        out += [_shift(g, i * d, total) for g in base_gens]
    for t in top:
        if t.degree != n:
            raise BadParameter("wreath top generators must act on the block indices")
        img = np.empty(total, dtype=np.int64)
        for blk in range(n):
            img[blk * d:(blk + 1) * d] = np.arange(d) + t(blk) * d
        out.append(Permutation(img))
    return out


def _squished_generators(spec_a: GroupSpec, spec_b: GroupSpec, cap: int) -> list[Permutation]:
    ta = build(spec_a, cap)
    tb = build(spec_b, cap)
    subs_a = index_two_subgroups(ta)
    subs_b = index_two_subgroups(tb)
    if len(subs_a) != 1 or len(subs_b) != 1:
        raise BadParameter("squished product needs a unique index-2 subgroup on both sides")
    S, T = subs_a[0], subs_b[0]
    gens_s = [ta.permutation(i) for i in S.gens]
    gens_t = [tb.permutation(i) for i in T.gens]
    a0 = int(np.where(~S.mask)[0][0])
    b0 = int(np.where(~T.mask)[0][0])
    da, db = ta.degree, tb.degree
    out = _product_generators(gens_s, gens_t)
    mixed = np.concatenate([ta.imgs[a0], tb.imgs[b0] + da])
    out.append(Permutation(mixed))
    return out


def _m10_generators() -> list[Permutation]:
    """M10 = <PSL(2,9), delta phi>: the index-2 subgroup of PGammaL(2,9) holding
    neither delta (z -> a z, a primitive) nor the Frobenius phi."""
    F = field_ops(9)
    delta = mobius_permutation(F, F.primitive_element(), 0, 0, 1)
    return _psl2_generators(9) + [delta * frobenius_permutation(F)]


# -- build --------------------------------------------------------------------

#: the kinds that take one integer: display name and generators of each
_INT_KINDS = {
    "symmetric": (lambda n: f"S{n}", _symmetric_generators),
    "alternating": (lambda n: f"A{n}", _alternating_generators),
    "dihedral": (lambda n: f"D{2 * n}", _dihedral_generators),
    "psl2": (lambda q: f"PSL(2,{q})", _psl2_generators),
    "pgl2": (lambda q: f"PGL(2,{q})", _pgl2_generators),
    "pgammal2": (lambda q: f"PGammaL(2,{q})", _pgammal2_generators),
    "gl2": (lambda q: f"GL(2,{q})", _gl2_generators),
    "sz": (lambda q: f"Sz({q})", _sz_generators),
}


def generators_for(spec: GroupSpec, cap: int = DEFAULT_CAP) -> list[Permutation]:
    """Permutation generators realizing the spec."""
    k, p = spec.kind, spec.params
    if k in _INT_KINDS:
        return _INT_KINDS[k][1](p[0])
    if k == "m10":
        return _m10_generators()
    if k == "product":
        return _product_generators(generators_for(p[0], cap), generators_for(p[1], cap))
    if k == "wreath":
        return _wreath_generators(generators_for(p[0], cap), p[1], p[2])
    if k == "squished":
        return _squished_generators(p[0], p[1], cap)
    if k == "raw":
        if not p:
            raise BadParameter("raw spec needs at least one permutation")
        return list(p)
    raise BadParameter(f"unknown group spec kind {spec.kind!r}")


def build(spec: GroupSpec, cap: int = DEFAULT_CAP) -> GroupTable:
    """Construct and fully enumerate the group named by the spec."""
    return enumerate_group(generators_for(spec, cap), cap)


# -- textual spec format -------------------------------------------------------


def spec_to_text(spec: GroupSpec) -> str:
    k, p = spec.kind, spec.params
    if k in _INT_KINDS:
        return f"{k}({p[0]})"
    if k == "m10":
        return "m10"
    if k == "product":
        return f"product({spec_to_text(p[0])},{spec_to_text(p[1])})"
    if k == "wreath":
        tops = ";".join(str(t) for t in p[2])
        return f"wreath({spec_to_text(p[0])},{p[1]},{tops})"
    if k == "squished":
        return f"squished({spec_to_text(p[0])},{spec_to_text(p[1])})"
    if k == "raw":
        return "raw(" + ";".join(str(g) for g in p) + ")"
    raise BadParameter(f"unknown kind {k}")


def parse_spec(text: str) -> GroupSpec:
    """Parse one-line spec expressions like ``pgammal2(9)`` or ``wreath(psl2(4),2,cycle)``."""
    s = text.strip().lower().replace(" ", "")
    spec, rest = _parse_spec_inner(s)
    if rest:
        raise BadParameter(f"trailing junk in group spec: {rest!r}")
    return spec


_KIND_ALIAS = {"sym": "symmetric", "alt": "alternating", "prod": "product",
               "direct_product": "product"}


def _parse_spec_inner(s: str):
    for kind in [*_INT_KINDS, *(a for a, k in _KIND_ALIAS.items() if k in _INT_KINDS)]:
        if s.startswith(kind + "("):
            rest = s[len(kind) + 1:]
            num, rest = _take_int(rest)
            rest = _expect(rest, ")")
            return GroupSpec(_KIND_ALIAS.get(kind, kind), (num,)), rest
    if s.startswith("m10"):
        rest = s[3:]
        if rest.startswith("()"):
            rest = rest[2:]
        return GroupSpec("m10"), rest
    for kind in ("product", "prod", "direct_product", "squished"):
        if s.startswith(kind + "("):
            a, rest = _parse_spec_inner(s[len(kind) + 1:])
            rest = _expect(rest, ",")
            b, rest = _parse_spec_inner(rest)
            rest = _expect(rest, ")")
            return GroupSpec(_KIND_ALIAS.get(kind, kind), (a, b)), rest
    if s.startswith("wreath("):
        base, rest = _parse_spec_inner(s[7:])
        rest = _expect(rest, ",")
        n, rest = _take_int(rest)
        rest = _expect(rest, ",")
        body, rest = _take_until(rest, ")")
        top = body if body in ("cycle", "swap") else [parse_cycles(c, n) for c in body.split(";")]
        return wreath(base, n, top), rest
    if s.startswith("raw("):
        body, rest = _take_until(s[4:], ")")
        from .perm import min_degree_of
        deg = max(min_degree_of(c) for c in body.split(";"))
        perms = tuple(parse_cycles(c, deg) for c in body.split(";"))
        return GroupSpec("raw", perms), rest
    raise BadParameter(f"unparseable group spec: {s!r}")


def _take_int(s: str):
    i = 0
    while i < len(s) and s[i].isdigit():
        i += 1
    if i == 0:
        raise BadParameter(f"expected integer at {s!r}")
    return int(s[:i]), s[i:]


def _expect(s: str, ch: str):
    if not s.startswith(ch):
        raise BadParameter(f"expected {ch!r} at {s!r}")
    return s[1:]


def _take_until(s: str, ch: str):
    depth = 0
    for i, c in enumerate(s):
        if c == "(":
            depth += 1
        elif c == ")":
            if depth == 0:
                return s[:i], s[i + 1:]
            depth -= 1
    raise BadParameter(f"unterminated spec: {s!r}")
