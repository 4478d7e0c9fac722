"""The theorem-bound oracle, conjecture cross-checks, and explicit covers.

Shows family bounds (including the flagged dihedral-counting tension),
verifies bundled certificate files, and checks the constructive GL2(q)
eigenpair cover natively for q = 5 and through the PSL2 projection for q = 13.
"""

from importlib import resources

import solvcover as sc
from solvcover.records import parse_certificate_lines

print("family bounds for PSL(2,8), PSL(2,13), PSL(2,11):")
for q in (8, 13, 11):
    rep = sc.family_bounds(sc.psl2(q))
    for b in rep.bounds:
        flag = "  [flagged: " + b.note + "]" if b.flagged else ""
        print(f"  PSL(2,{q}): {b.kind} {b.value} on {b.applies_to} ({b.theorem}){flag}")

print("\ncross-check of three computed rows:")
mk = lambda v: sc.CoverOutcome(sc.EXACT, v, v, None)
inf = sc.CoverOutcome(sc.INFEASIBLE, 0, None, None)
rows = sc.cross_check([
    (sc.alternating(5), mk(3), mk(3)),
    (sc.psl2(7), mk(5), inf),
    (sc.psl2(8), mk(7), mk(7)),
])
print(sc.format_cross_check(rows))

print("\nbundled certificate: PSL(2,7) cover of size 5")
data = resources.files("solvcover").joinpath("data/certificates/psl2_7.cert").read_text()
table = sc.build(sc.psl2(7))
perms = parse_certificate_lines(data, degree=table.degree)
cert = sc.Certificate(sc.psl2(7), "all", perms)
print("  verifies:", sc.verify_certificate(table, cert))
print("  drop one element ->",
      sc.verify_certificate(table, sc.Certificate(sc.psl2(7), "all", perms[1:])))

print("\nconstructive GL2(q) eigenpair covers:")
print("  q=5 native:", sc.verify_gl2_cover(5))
t13 = sc.build(sc.psl2(13))
idx = sc.project_to_psl(13, sc.gl2_cover_elements(13), t13)
cert13 = sc.Certificate(sc.psl2(13), "involutions", [t13.permutation(i) for i in idx])
print("  q=13 projected to PSL(2,13), size", len(idx), "->",
      sc.verify_certificate(t13, cert13))
