"""Solvabilizer sets, the maximal-solvable census, and the counting argument.

Reproduces the A5 story end to end: the sizes of Sol(x) per class, the
census of maximal solvable subgroups, how many census members contain each
involution, and the order-5 counting bound that forces three involutions,
read off the cover instance after dominance pruning (the order-5 candidates,
whose rows lie inside the involutions' rows, are pruned).
"""

import solvcover as sc

a5 = sc.build(sc.alternating(5))
inc = sc.sol_incidence(a5)

print("Sol sizes by element order in A5:")
for cid, rep in enumerate(inc.classes.representatives):
    if rep == 0:
        continue
    print(f"  order {int(a5.order_of[rep])}: |Sol| = {inc.sol_size_of_class(cid)}")

census = sc.maximal_solvable_subgroups(a5)
print("\nmaximal solvable subgroups of A5:")
for order, count in zip(census.class_orders, census.class_counts):
    print(f"  {count} conjugate copies of order {order}")

x = int(a5.involution_indices()[0])
print(f"\ninvolution {a5.permutation(x)} lies in:",
      census.membership_counts(x), "(order -> how many copies)")

inst = sc.reduce_instance(inc)
print(f"\ncover instance after dominance pruning: {len(inst.universe)} maximal cyclic targets, "
      f"{len(inst.candidates)} prime-order candidates")
for coeffs, rhs in sc.class_counting_rows(inst):
    if rhs == 6:  # the six cyclic subgroups of order 5
        by_order = {}
        for cid, k in coeffs.items():
            o = int(a5.order_of[inc.classes.representatives[cid]])
            by_order[o] = max(by_order.get(o, 0), k)
        terms = " + ".join(f"{k}*x{o}" for o, k in sorted(by_order.items()))
        print(f"order-5 targets force: {terms} >= {rhs}")
print("class-counting lower bound:", sc.class_counting_bound(inst))

mu = sc.mu_pairwise_generators(a5)
print(f"\nmu(A5) = {mu.lower} (largest pairwise-generating set)")
print(f"mu_s(A5) = {sc.mu_s(a5).lower} (largest pairwise non-solvabilized set)")
