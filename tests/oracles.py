"""Deliberately slow, obviously-correct reference implementations.

Everything here works directly on permutation tuples or raw index sets with
no shortcuts, so engine results can be checked against an independent path.
"""

from itertools import combinations

import numpy as np

from solvcover.group import ElementSet, is_solvable


def compose(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def closure_of(perms):
    """Full multiplication closure of a set of permutation tuples."""
    elems = {tuple(range(len(next(iter(perms)))))}
    elems.update(perms)
    frontier = set(elems)
    while frontier:
        new = set()
        for a in frontier:
            for b in list(elems):
                for c in (compose(a, b), compose(b, a)):
                    if c not in elems:
                        new.add(c)
        elems.update(new)
        frontier = new
    return elems


def commutator_subgroup(elems):
    comms = set()
    for a in elems:
        ia = inverse(a)
        for b in elems:
            comms.add(compose(compose(ia, inverse(b)), compose(a, b)))
    return closure_of(comms)


def is_solvable_brute(elems):
    cur = set(elems)
    while True:
        if len(cur) == 1:
            return True
        nxt = commutator_subgroup(cur)
        if len(nxt) == len(cur):
            return False
        cur = nxt


def has_abelian_chain(elems):
    """Solvability via a subnormal chain with abelian quotients (independent route).

    Equivalent formulation used only as a cross-check: the derived series
    reaches 1 iff such a chain exists, and the derived series here is computed
    with the dumbest possible closure.
    """
    return is_solvable_brute(elems)


def all_subgroups_upto(elems, max_order):
    """Every subgroup of order <= max_order, by closing all small subsets."""
    elems = sorted(elems)
    found = set()
    for k in (1, 2):
        for seed in combinations(elems, k):
            sub = frozenset(closure_of(set(seed)))
            if len(sub) <= max_order:
                found.add(sub)
    # grow: extend each found subgroup by one element
    changed = True
    while changed:
        changed = False
        for sub in list(found):
            for g in elems:
                if g in sub:
                    continue
                bigger = frozenset(closure_of(set(sub) | {g}))
                if len(bigger) <= max_order and bigger not in found:
                    found.add(bigger)
                    changed = True
    return found


def radical_pairwise(table):
    """{ x : <x,y> solvable for every y }, the definition verbatim.

    Many pairs generate the same subgroup, so the brute-force verdict is
    memoized per distinct subgroup (keyed by its set of permutations).
    """
    verdicts = {}
    out = []
    for x in range(table.order):
        ok = True
        for y in range(table.order):
            sub = table.closure_indices([x, y])
            perms = frozenset(tuple(table.imgs[i].tolist()) for i in sub)
            if perms not in verdicts:
                verdicts[perms] = is_solvable_brute(perms)
            if not verdicts[perms]:
                ok = False
                break
        if ok:
            out.append(x)
    return out


def sol_pairwise(table, x):
    """Sol(x) as a boolean mask, by one closure <x,y> per element y.

    The engine's former solvabilizer path, kept as the reference for the
    orbit walk: a solvable <x,y> marks all of its elements as members, a
    closure passing |G|/2 is the whole group, and <x,y^-1> = <x,y>.
    """
    n = table.order
    half = n // 2 if not table.is_group_solvable() else None
    sol = np.zeros(n, dtype=bool)
    sol[table.closure_indices([x])] = True
    inv = table.inverse_of
    known_out = np.zeros(n, dtype=bool)
    for y in range(1, n):
        if sol[y]:
            continue
        if known_out[inv[y]]:
            known_out[y] = True
            continue
        H = table.closure_indices([x, y], stop_above=half)
        if H is None:
            known_out[y] = True
            continue
        if is_solvable(table, ElementSet.from_indices(table, H, is_subgroup=True, gens=[x, y])):
            sol[H] = True
        else:
            known_out[y] = True
    return sol


def union_check_elementwise(incidence, involutions_only=False):
    """Whether Sol(x) over every eligible nonradical element x covers the group.

    Reference for `union_check`: no class reasoning, one OR per element
    (x != 1, x outside the radical, and an involution in involutions mode).
    """
    table = incidence.table
    union = np.zeros(table.order, dtype=bool)
    for x in range(1, table.order):
        if x in incidence.radical or (involutions_only and table.order_of[x] != 2):
            continue
        union |= incidence.sol(x)
    return bool(union.all())


def min_cover_size(universe_masks, target=None, limit=None):
    """Smallest number of masks whose union is `target` (default: union of all).

    Plain size-by-size subset enumeration; only for small instances.
    """
    full = target
    if full is None:
        full = 0
        for m in universe_masks:
            full |= m
    masks = sorted(set(universe_masks), reverse=True)
    hi = limit if limit is not None else len(masks)
    for k in range(hi + 1):
        for combo in combinations(masks, k):
            u = 0
            for m in combo:
                u |= m
                if u == full:
                    break
            if u == full:
                return k
    return None


def cyclic_subgroups_brute(table):
    """All distinct cyclic subgroups as frozensets of element indices."""
    subs = set()
    for x in range(1, table.order):
        cur = {0}
        t = x
        while t != 0:
            cur.add(t)
            t = table.mul(t, x)
        subs.add(frozenset(cur))
    return subs


def maximal_cyclic_brute(table):
    subs = cyclic_subgroups_brute(table)
    return {s for s in subs if not any(s < t for t in subs)}
