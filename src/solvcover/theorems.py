"""Certificate verification, the theorem-derived bound oracle, and cross-checks.

Theorem bounds are data, not assertions: the oracle attaches a `flagged`
marker to the dihedral-counting lower bound for PSL(2,p) with p = 3 mod 4,
because the computed table contradicts it at p = 7 (alpha = 5 < 10) and
p = 11 (alpha = 15 < 16); flagged bounds are reported verbatim and never
turned into consistency verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .constructions import (
    GroupSpec,
    build,
    gl2_cover_elements,
    project_to_psl,
    psl2,
)
from .cover import EXACT, INFEASIBLE, CoverOutcome
from .errors import (
    BadParameter,
    CapExceeded,
    ElementInRadical,
    ElementNotInGroup,
)
from .fields import factor_prime_power, is_prime
from .group import DEFAULT_CAP, GroupTable
from .perm import Permutation
from .solvabilizer import sol_incidence


@dataclass
class Certificate:
    """Explicit claimed cover: group spec, mode, and the covering elements."""

    spec: Optional[GroupSpec]
    mode: str                      # "all" | "involutions"
    elements: list[Permutation]


def _sol_union(table: GroupTable, cert: Certificate) -> tuple[list[int], np.ndarray]:
    """Element indices of the certificate and the union of their solvabilizers."""
    inc = sol_incidence(table)
    idx, union = [], np.zeros(table.order, dtype=bool)
    for p in cert.elements:
        i = table.find_permutation(p)
        if i < 0:
            raise ElementNotInGroup(f"{p} is not in the group")
        idx.append(i)
        union |= inc.sol(i)
    return idx, union


def verify_certificate(table: GroupTable, cert: Certificate) -> bool:
    """True iff the solvabilizers of the certificate elements cover the group.

    Raises when an element is outside the group or inside the radical; a mode
    violation (non-involution in involutions mode) just fails the check.  The
    radical is not computed: x lies in R(G) exactly when Sol(x) = G
    (Guralnick, Kunyavskii, Plotkin, Shalev, J. Algebra 300, 2006), and
    Sol(x) is a conjugate of the Sol of its class representative.
    """
    idx, union = _sol_union(table, cert)
    inc = sol_incidence(table)
    for i in idx:
        if inc.rep_sol(int(inc.classes.class_of[i])).all():
            raise ElementInRadical(f"element {table.permutation(i)} lies in the radical")
    if cert.mode == "involutions" and any(table.order_of[i] != 2 for i in idx):
        return False
    return bool(union.all())


def first_uncovered(table: GroupTable, cert: Certificate) -> Optional[int]:
    """Least element index not covered, or None when the cover is valid."""
    missing = np.flatnonzero(~_sol_union(table, cert)[1])
    return int(missing[0]) if len(missing) else None


# -- theorem bound oracle ---------------------------------------------------------


@dataclass
class TheoremBound:
    kind: str          # "lower" | "upper"
    value: int
    applies_to: str    # "alpha" | "alpha_inv" | "both"
    theorem: str
    flagged: bool = False
    note: str = ""


@dataclass
class BoundReport:
    spec: GroupSpec
    bounds: list[TheoremBound] = field(default_factory=list)
    computed_alpha: Optional[CoverOutcome] = None
    computed_alpha_inv: Optional[CoverOutcome] = None
    verdict: str = "unchecked"     # consistent | violation | unchecked

    def lowers(self, mode: str) -> list[TheoremBound]:
        return [b for b in self.bounds if b.kind == "lower" and b.applies_to in (mode, "both")]

    def uppers(self, mode: str) -> list[TheoremBound]:
        return [b for b in self.bounds if b.kind == "upper" and b.applies_to in (mode, "both")]


def family_bounds(spec: GroupSpec) -> BoundReport:
    """Every theorem bound applicable to the spec (empty for unknown families)."""
    rep = BoundReport(spec)
    rep.bounds.append(TheoremBound("lower", 3, "both", "nonsolvable covering needs >2"))
    k, p = spec.kind, spec.params
    if k == "psl2":
        q = p[0]
        pf = factor_prime_power(q)
        if pf is None:
            raise BadParameter(f"{q} is not a prime power")
        char, f = pf
        if char == 2 and is_prime(f):
            rep.bounds.append(TheoremBound("lower", q - 1, "both", "PSL(2,2^p) exact value q-1"))
            rep.bounds.append(TheoremBound("upper", q - 1, "both", "PSL(2,2^p) exact value q-1"))
        if f == 1 and q % 4 == 1 and q > 5:
            rep.bounds.append(TheoremBound("lower", q, "alpha", "PSL(2,p) dihedral counting, p = 1 mod 4"))
        if q % 4 == 1 and char != 2:
            note = "" if q > 5 else "excluded from the exact corollary: alpha(PSL(2,5)) = 3"
            rep.bounds.append(TheoremBound("upper", q, "alpha", "GL2 eigenpair cover projected to PSL",
                                           note=note))
        if f == 1 and q % 4 == 3 and q > 3:
            rep.bounds.append(TheoremBound(
                "lower", (3 * q - 1) // 2, "alpha", "PSL(2,p) dihedral counting, p = 3 mod 4",
                flagged=True,
                note="conflicts with the computed table at p = 7 and p = 11; reported verbatim",
            ))
        if char == 3 and f > 1 and is_prime(f) and f % 2 == 1:
            rep.bounds.append(TheoremBound("lower", (3 * q - 1) // 2, "alpha", "PSL(2,3^p) counting"))
    elif k == "sz":
        q = p[0]
        pf = factor_prime_power(q)
        if pf is None or pf[0] != 2 or not is_prime(pf[1]) or pf[1] == 2:
            raise BadParameter("Sz(q) needs q = 2^p with p an odd prime")
        rep.bounds.append(TheoremBound("lower", q * q + 1, "alpha", "Sz(2^p) Sylow counting"))
    elif k == "alternating" and p[0] == 5:
        rep.bounds.append(TheoremBound("lower", 3, "both", "alpha(A5) = 3"))
        rep.bounds.append(TheoremBound("upper", 3, "both", "alpha(A5) = 3"))
    elif k == "product":
        subs = [family_bounds(s) for s in p]
        for mode in ("alpha", "alpha_inv"):
            ups = []
            for s in subs:
                vals = [b.value for b in s.uppers(mode) if not b.flagged]
                if vals:
                    ups.append(min(vals))
            if ups:
                rep.bounds.append(TheoremBound("upper", min(ups), mode, "product minimum rule"))
    elif k == "wreath":
        base = family_bounds(p[0])
        vals = [b.value for b in base.uppers("alpha") if not b.flagged]
        if vals:
            rep.bounds.append(TheoremBound("upper", min(vals), "alpha", "wreath upper bound alpha(base)"))
    return rep


def attach_computed(report: BoundReport, alpha: Optional[CoverOutcome],
                    alpha_inv: Optional[CoverOutcome] = None) -> BoundReport:
    """Fill in computed outcomes and judge unflagged bounds against them."""
    report.computed_alpha = alpha
    report.computed_alpha_inv = alpha_inv
    verdict = "consistent"
    for mode, outcome in (("alpha", alpha), ("alpha_inv", alpha_inv)):
        if outcome is None:
            continue
        for b in report.lowers(mode):
            if b.flagged or outcome.status == INFEASIBLE:
                continue
            if outcome.upper is not None and b.value > outcome.upper:
                verdict = "violation"
        for b in report.uppers(mode):
            if b.flagged:
                continue
            if outcome.status == INFEASIBLE or b.value < outcome.lower:
                verdict = "violation"
    report.verdict = verdict
    return report


# -- conjecture cross-check --------------------------------------------------------


def _is_simple_spec(spec: GroupSpec) -> bool:
    if spec.kind == "psl2":
        return spec.params[0] >= 4
    if spec.kind == "alternating":
        return spec.params[0] >= 5
    return False


def _mentions_a5(spec: GroupSpec) -> bool:
    if spec.kind in ("psl2", "pgl2") and spec.params[0] in (4, 5):  # PGL(2,4) = PSL(2,4), PGL(2,5) = S5
        return True
    if spec.kind == "alternating" and spec.params[0] == 5:
        return True
    return any(isinstance(q, GroupSpec) and _mentions_a5(q) for q in spec.params)


@dataclass
class CrossCheckRow:
    spec: GroupSpec
    alpha: Optional[CoverOutcome]
    alpha_inv: Optional[CoverOutcome]
    report: BoundReport
    conjectures: dict[str, str] = field(default_factory=dict)


def cross_check(entries: Sequence[tuple[GroupSpec, Optional[CoverOutcome], Optional[CoverOutcome]]]) -> list[CrossCheckRow]:
    """Tabulate computed values against theorem bounds and the conjectures.

    Conjecture statuses are reported (supports / refutes / inapplicable /
    inconclusive), never asserted.
    """
    rows = []
    for spec, a, ai in entries:
        rep = attach_computed(family_bounds(spec), a, ai)
        conj: dict[str, str] = {}
        # conjecture: alpha_inv = alpha for nonabelian simple groups with a finite alpha_inv
        if ai is None or a is None:
            conj["inv_equals_alpha"] = "inconclusive"
        elif ai.status == INFEASIBLE:
            conj["inv_equals_alpha"] = "inapplicable (alpha_inv infinite)"
        elif a.status == EXACT and ai.status == EXACT:
            scope = "" if _is_simple_spec(spec) else " (beyond the simple-group scope)"
            if a.lower == ai.lower:
                conj["inv_equals_alpha"] = "supports" + scope
            else:
                conj["inv_equals_alpha"] = ("refutes" if _is_simple_spec(spec)
                                            else "differs" + scope)
        else:
            conj["inv_equals_alpha"] = "inconclusive"
        # conjecture: alpha(PSL(2,2^f)) = q - 1
        if spec.kind == "psl2":
            q = spec.params[0]
            pf = factor_prime_power(q)
            if pf and pf[0] == 2 and a is not None:
                conj["char2_qminus1"] = (
                    "supports" if a.status == EXACT and a.lower == q - 1
                    else ("refutes" if a.status == EXACT else "inconclusive")
                )
            if pf and q % 4 == 1 and a is not None:
                conj["q1mod4_alpha_q"] = (
                    "inapplicable (alpha(PSL(2,5)) = 3)" if q == 5
                    else "supports" if a.status == EXACT and a.lower == q
                    else ("refutes" if a.status == EXACT else "inconclusive")
                )
        # conjecture: alpha = 3 forces an A5 composition factor (data-level note only)
        if a is not None and a.status == EXACT and a.lower == 3:
            conj["a5_factor"] = "supports (A5 visible in the spec)" if _mentions_a5(spec) else \
                "observed alpha = 3; composition factors not computed"
        rows.append(CrossCheckRow(spec, a, ai, rep, conj))
    return rows


def format_cross_check(rows: Sequence[CrossCheckRow]) -> str:
    out = []
    for r in rows:
        a = r.alpha.render() if r.alpha else "-"
        ai = r.alpha_inv.render() if r.alpha_inv else "-"
        out.append(f"{r.spec.display_name()}: alpha={a} alpha_inv={ai} [{r.report.verdict}]")
        for b in r.report.bounds:
            flag = "  (flagged: " + b.note + ")" if b.flagged else ""
            out.append(f"  {b.kind} {b.value} on {b.applies_to}: {b.theorem}{flag}")
        for name, status in r.conjectures.items():
            out.append(f"  conjecture {name}: {status}")
    return "\n".join(out)


# -- constructive GL2 cover check ---------------------------------------------------


def verify_gl2_cover(q: int, cap: int = DEFAULT_CAP) -> bool:
    """Check the q-element eigenpair cover of GL2(q), and its PSL2 projection.

    The native GL2(q) verification enumerates the group on its nonzero
    vectors; when that order exceeds the cap (q = 13 already does at the
    default), only the projected PSL2(q) certificate is checked, which needs
    q = 1 mod 4.
    """
    mats = gl2_cover_elements(q)  # NotAPrimePower, or EvenFieldOrder for even q
    if q == 3:
        raise BadParameter("GL2(3) is solvable; the cover question is empty")
    gl_order = (q * q - 1) * (q * q - q)
    ok = True
    if gl_order <= cap:
        table = build(GroupSpec("gl2", (q,)), cap)
        perms = [m.vector_permutation() for m in mats]
        idx = [table.find_permutation(p) for p in perms]
        if any(i < 0 for i in idx) or len(set(idx)) != q:
            return False
        cert = Certificate(GroupSpec("gl2", (q,)), "all", perms)
        ok = verify_certificate(table, cert)
    elif q % 4 != 1:
        raise CapExceeded(cap)
    if q % 4 == 1:
        ptable = build(psl2(q), cap)
        pidx = project_to_psl(q, mats, ptable)
        if len(set(pidx)) != q:
            return False
        pcert = Certificate(psl2(q), "involutions", [ptable.permutation(i) for i in pidx])
        ok = ok and verify_certificate(ptable, pcert)
    return ok
