"""Deliberately slow, obviously-correct reference implementations.

Everything here works directly on permutation tuples or raw index sets with
no shortcuts, so engine results can be checked against an independent path.
"""

import math
import time
from itertools import combinations, product

import numpy as np

from solvcover.constructions import build, frobenius_permutation, mobius_permutation, pgammal2
from solvcover.cover import EXACT, INFEASIBLE, INTERVAL, CoverOutcome, SolveBudget, greedy_cover
from solvcover.errors import CapExceeded, GroupSolvable, InfeasibleUniverse, InternalInconsistency
from solvcover.fields import factor_prime_power, field_ops, is_prime
from solvcover.group import (
    ElementSet,
    _generating_subset,
    _left_cosets,
    derived_subgroup,
    index_two_subgroups,
    is_solvable,
)
from solvcover.solvabilizer import (
    Candidate,
    CoverInstance,
    SolvabilizerIncidence,
    _generator_rows,
    _target_orbits,
    maximal_cyclic_generators,
)


def compose(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def expected_order(spec):
    """Closed-form order of a named group, or None when no formula is known."""
    k, p = spec.kind, spec.params
    if k == "symmetric":
        return math.factorial(p[0])
    if k == "alternating":
        return math.factorial(p[0]) // 2
    if k == "dihedral":
        return 2 * p[0]
    if k in ("psl2", "pgl2", "pgammal2", "gl2"):
        q = p[0]
        pf = factor_prime_power(q)
        if pf is None:
            return None
        base = q * (q * q - 1)
        if k == "psl2":
            return base // (2 if pf[0] != 2 else 1)
        if k == "pgl2":
            return base
        if k == "pgammal2":
            return base * pf[1]
        return (q * q - 1) * (q * q - q)
    if k == "m10":
        return 720
    if k == "product":
        a, b = expected_order(p[0]), expected_order(p[1])
        return None if a is None or b is None else a * b
    return None


def m10_inside_pgammal2():
    """Image rows of M10 as the engine first derived it: the index-2 subgroup
    of PGammaL(2,9) that holds neither z -> a z (a primitive) nor the Frobenius."""
    t = build(pgammal2(9))
    F = field_ops(9)
    mult = t.find_permutation(mobius_permutation(F, F.primitive_element(), 0, 0, 1))
    frob = t.find_permutation(frobenius_permutation(F))
    (H,) = [H for H in index_two_subgroups(t) if mult not in H and frob not in H]
    return {tuple(t.imgs[i].tolist()) for i in np.flatnonzero(H.mask)}


def enumerate_per_row(generators, cap):
    """Image matrix and generator indices by the engine's former enumeration.

    Breadth-first over left multiplication by the generators (generator-major
    within a layer), one dict lookup per product row.
    """
    gen_imgs = [np.asarray(g.images, dtype=np.int16) for g in generators]
    ident = np.arange(generators[0].degree, dtype=np.int16)
    elems = [ident]
    index = {ident.tobytes(): 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in gen_imgs:
            for row in g[np.stack(frontier)]:
                k = row.tobytes()
                if k not in index:
                    index[k] = len(elems)
                    elems.append(row)
                    nxt.append(row)
                    if len(elems) > cap:
                        raise CapExceeded(cap)
        frontier = nxt
    return np.stack(elems), [index[g.tobytes()] for g in gen_imgs]


def greedy_base(imgs):
    """The engine's former base choice: per point, count the distinct (key, image) pairs."""
    n, d = imgs.shape
    base = []
    key = np.zeros(n, dtype=np.int64)
    while len(np.unique(key)) < n:
        counts = [len(np.unique(key * d + imgs[:, p])) for p in range(d)]
        base.append(int(np.argmax(counts)))
        key = key * d + imgs[:, base[-1]]
    return base


def closure_per_seed(table, seeds, stop_above=None):
    """The engine's former closure walk: one lookup per seed per layer."""
    seeds = [int(s) for s in dict.fromkeys(seeds) if s != 0]
    if not seeds:
        return [0]
    seen = np.zeros(table.order, dtype=bool)
    seen[0] = True
    count = 1
    frontier = np.zeros(1, dtype=np.int64)
    while len(frontier):
        layer = []
        for g in seeds:
            img = table.mul_left(g, frontier)
            img = img[~seen[img]]
            seen[img] = True
            layer.append(img)
        frontier = np.concatenate(layer)
        count += len(frontier)
        if stop_above is not None and count > stop_above:
            return None
    return np.flatnonzero(seen).tolist()


def left_cosets_loop(table, idx):
    """Coset id per element and least element per coset, by the engine's former element loop."""
    coset_of = np.full(table.order, -1, dtype=np.int64)
    reps = []
    for x in range(table.order):
        if coset_of[x] < 0:
            coset_of[table.mul_left(x, idx)] = len(reps)
            reps.append(x)
    return coset_of, np.array(reps)


def index_two_subgroups_by_cosets(table):
    """Index-2 subgroups by the engine's former three stages.

    The squares generate a normal subgroup S with elementary abelian
    quotient, and every kernel contains S.  A homomorphism is a 0/1 value per
    generator that is consistent on the cosets of S: each coset is labelled
    by the parity of a breadth-first path to it along the generators, and an
    assignment is kept when every generator moves each coset to one whose
    label differs by the generator's value.  Kernels come sorted by their
    sorted coset ids.
    """
    squares = table.lookup_images(np.take_along_axis(table.imgs, table.imgs, axis=1))
    S = table.closure_indices(squares.tolist())
    if len(S) == table.order:
        return []
    coset_of, reps = _left_cosets(table, np.array(S))
    acts = [coset_of[table.mul_left(g, reps)] for g in table.generator_indices]
    path = np.zeros((len(reps), len(acts)), dtype=np.int64)  # generator parities from S to each coset
    reached = np.zeros(len(reps), dtype=bool)
    reached[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while len(frontier):
        layer = []
        for i, act in enumerate(acts):
            src = frontier[~reached[act[frontier]]]
            img = act[src]
            reached[img] = True
            path[img] = path[src]
            path[img, i] ^= 1
            layer.append(img)
        frontier = np.concatenate(layer)
    kernels = []
    for bits in product((0, 1), repeat=len(acts)):
        label = path @ np.array(bits) % 2
        if any(bits) and all(np.array_equal(label[act], label ^ b) for act, b in zip(acts, bits)):
            kernels.append(np.flatnonzero(label == 0).tolist())
    out = []
    for kernel in sorted(kernels):
        mask = np.isin(coset_of, kernel)
        gens = _generating_subset(table, np.flatnonzero(mask).tolist())
        out.append(ElementSet(table, mask, is_subgroup=True, gens=gens))
    return out


def solvable_by_derived_series(table, H):
    """Whether the derived series of H reaches 1, computed to the end with no order rule."""
    cur = H
    while len(cur) > 1:
        nxt = derived_subgroup(table, cur)
        if len(nxt) == len(cur):
            return False
        cur = nxt
    return True


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


def extend_to_maximal_solvable_scanning(table, seed, gens):
    """The census extension trying every element, the engine's former path.

    Scans the elements in index order, adjoins the first one that keeps
    <gens> solvable and restarts; a nonsolvable adjunction stays nonsolvable
    as the subgroup grows, so it is not tried again.
    """
    cut = table.solvable_cut()
    cur = sorted(seed)
    skip = set(cur)  # members of cur, and failed adjunctions
    restart = True
    while restart:
        restart = False
        for g in range(1, table.order):
            if g in skip:
                continue
            H = table.closure_indices(gens + [g], stop_above=cut)
            if H is not None and is_solvable(table, ElementSet.from_indices(table, H, is_subgroup=True,
                                                                            gens=gens + [g])):
                cur, gens = H, gens + [g]
                skip.update(cur)
                restart = True
                break
            skip.add(g)
    return cur


def mu_s_graph_pairwise(incidence):
    """Vertices (nonradical elements) and adjacency bitmasks of the mu_s graph, pair by pair."""
    table = incidence.table
    rad = incidence.radical.mask
    verts = [x for x in range(1, table.order) if not rad[x]]
    adj = {}
    for x in verts:
        sol_x = incidence.sol(x)
        m = 0
        for y in verts:
            if y != x and not sol_x[y]:
                m |= 1 << y
        adj[x] = m
    return verts, adj


def target_orbits_per_target(classes, table, universe):
    """Orbit ids of the universe targets from the generators of each <t>, one target at a time."""
    ids = {}
    out = []
    for t in universe:
        key = int(classes.class_of[table.lookup_images(_generator_rows(table, t))].min())
        out.append(ids.setdefault(key, len(ids)))
    return out


def instance_from_rows(rows, universe, target_class, candidates=None, involutions_only=False, **fields):
    """Cover instance whose candidate i covers target t when bit t of rows[i] is set.

    Candidate i defaults to element i in class i; ``fields`` are the other
    ``CoverInstance`` fields.  ``rows_of`` turns the instance back into rows.
    """
    if candidates is None:
        candidates = [Candidate(i, i) for i in range(len(rows))]
    covers = np.array([[(r >> t) & 1 for t in range(len(universe))] for r in rows], dtype=bool)
    return CoverInstance(universe=list(universe), target_class=list(target_class), candidates=candidates,
                         covers=covers.reshape(len(rows), len(universe)), involutions_only=involutions_only,
                         **fields)


def rows_of(instance):
    """One int bitmask per candidate: bit t is set when the candidate covers target t."""
    return [sum(1 << t for t in np.flatnonzero(row).tolist()) for row in instance.covers]


def cols_of(instance):
    """One int bitmask per target: bit i is set when candidate i covers the target."""
    return [sum(1 << i for i in np.flatnonzero(col).tolist()) for col in instance.covers.T]


def bitmask_sweep(cols, unc, cov):
    """The search's former pass over a node's uncovered targets, on int bitmasks: (packing, order).

    cols is ``cols_of(instance)``, unc and cov are a node's vectors, and the
    available candidates are those with cov > 0.  The packing greedily counts
    targets whose available candidates are disjoint from those of the targets
    counted before.  The order is the available candidates of the first target
    with the fewest, decoded bit by bit and stably sorted by descending cov;
    it is empty when some target has none.
    """
    avail = sum(1 << i for i in np.flatnonzero(cov > 0).tolist())
    packing, used, pick, pick_n = 0, 0, 0, 1 << 30
    for t in np.flatnonzero(unc).tolist():
        col = cols[t] & avail
        n = col.bit_count()
        if n < pick_n:
            pick_n, pick = n, col
        if col and not (col & used):
            packing += 1
            used |= col
    order = []
    while pick:
        low = pick & -pick
        pick ^= low
        order.append(low.bit_length() - 1)
    keys = cov.tolist()
    order.sort(key=lambda i: -keys[i])
    return packing, order


def element_scan_greedy(instance, weights=None):
    """Greedy cover, as elements: each step scans every candidate in element order
    and picks the first with the highest weight x |row & uncovered|.  With no
    weights (all 1) it is the max-coverage greedy."""
    weights = weights or [1] * len(instance.candidates)
    cands = sorted(zip((c.element for c in instance.candidates), rows_of(instance), weights))
    uncovered = (1 << instance.size) - 1
    chosen = []
    while uncovered:
        best, best_n = None, 0
        for x, row, w in cands:
            n = w * (row & uncovered).bit_count()
            if n > best_n:
                best, best_n = (x, row), n
        if best is None:
            raise InfeasibleUniverse("greedy stuck: uncovered target with no candidate")
        chosen.append(best[0])
        uncovered &= ~best[1]
    return chosen


def drop_redundant_picks(instance, elements):
    """The cover minus each pick, smallest rows first, that the remaining picks make redundant."""
    row = {c.element: r for c, r in zip(instance.candidates, rows_of(instance))}
    full = (1 << instance.size) - 1
    kept = list(elements)
    for x in sorted(elements, key=lambda x: row[x].bit_count()):
        rest = [y for y in kept if y != x]
        union = 0
        for y in rest:
            union |= row[y]
        if union == full:
            kept = rest
    return kept


def reduce_instance_by_rows(incidence: SolvabilizerIncidence, involutions_only: bool = False,
                            prune_dominated: bool = True) -> CoverInstance:
    """Reduce covering G to an exact set-cover instance.

    Universe: one canonical generator per maximal cyclic subgroup not inside
    the radical (covering a generator covers its whole cyclic group, and
    radical targets lie in every solvabilizer).  Candidates: prime-order
    nonradical elements (Sol(x) never shrinks under x -> x^n, so a cover maps
    to a no-larger prime-order cover), or just the involutions.  Identical
    coverage rows are merged and, unless disabled, dominated candidates are
    dropped (both preserve the optimum).
    """
    table = incidence.table
    if table.is_group_solvable():
        raise GroupSolvable("covering numbers are undefined for solvable groups")
    notes = []
    rad_mask = incidence.radical.mask
    universe = maximal_cyclic_generators(table)
    kept_universe = [t for t in universe if not rad_mask[t]]
    if len(kept_universe) != len(universe):
        notes.append(f"universe: dropped {len(universe) - len(kept_universe)} radical targets")
    universe = kept_universe
    orders = table.order_of
    if involutions_only:
        cand_elems = [x for x in range(1, table.order) if orders[x] == 2 and not rad_mask[x]]
    else:
        prime_orders = {o for o in set(orders.tolist()) if is_prime(o)}
        cand_elems = [x for x in range(1, table.order) if orders[x] in prime_orders and not rad_mask[x]]
    notes.append(f"universe {len(universe)} maximal cyclic targets; raw candidates {len(cand_elems)}")
    # coverage rows via columns: t in Sol(x) iff x in Sol(t)
    rows = {x: 0 for x in cand_elems}
    cand_arr = np.array(cand_elems, dtype=np.int64)
    for ui, t in enumerate(universe):
        bit = 1 << ui
        for x in cand_arr[incidence.sol(t)[cand_arr]].tolist():
            rows[x] |= bit
    classes = incidence.classes
    # dedupe identical rows (keep least element), then drop dominated rows
    by_row: dict[int, int] = {}
    for x in cand_elems:
        by_row.setdefault(rows[x], x)
    uniq = sorted(by_row.items(), key=lambda kv: (-kv[0].bit_count(), kv[1]))
    if prune_dominated:
        kept: list[tuple[int, int]] = []
        for r, x in uniq:
            if not any((r | r2) == r2 for r2, _ in kept):
                kept.append((r, x))
    else:
        kept = uniq
    notes.append(f"candidates after dedupe {len(uniq)}, after dominance pruning {len(kept)}")
    kept.sort(key=lambda rx: rx[1])
    inst = instance_from_rows(
        [r for r, _ in kept],
        universe,
        _target_orbits(classes, table, universe),
        candidates=[Candidate(x, int(classes.class_of[x])) for _, x in kept],
        involutions_only=involutions_only,
        alpha_floor=3,
        conjugation_symmetric=True,
        notes=notes,
    )
    if not inst.feasible():
        if involutions_only:
            raise InfeasibleUniverse("some target is covered by no involution")
        raise InternalInconsistency("unrestricted instance must be feasible")
    return inst


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


def min_count_enumerated(k, rhs, ubs):
    """Least sum(x) over every vector 0 <= x_c <= ubs[c] with sum_c k[c][t] x_c >= rhs[t].

    Plain enumeration of the whole box (vectorized); 1 << 30 when no vector
    qualifies, as the class-counting bound reports it.
    """
    if not ubs:
        return 0 if not any(rhs) else 1 << 30
    grid = np.stack(np.meshgrid(*[np.arange(u + 1) for u in ubs], indexing="ij"), axis=-1).reshape(-1, len(ubs))
    ok = (grid @ np.array(k, dtype=np.int64).reshape(len(ubs), len(rhs)) >= np.array(rhs)).all(axis=1)
    return int(grid[ok].sum(axis=1).min()) if ok.any() else 1 << 30


class ScanningClassCountingBound:
    """The class-counting bound with a generic depth-first search over every class.

    The engine's former version: per-class available counts by a loop over
    the members, suffix maxima recomputed at every level, and no closed form
    for the last class.
    """

    def __init__(self, instance):
        cands, rows = instance.candidates, rows_of(instance)
        self.cls_ids = sorted({c.class_id for c in cands})
        self.members = [[i for i, c in enumerate(cands) if c.class_id == cid] for cid in self.cls_ids]
        self.tmasks = []
        for t in sorted(set(instance.target_class)):
            m = 0
            for u, tc in enumerate(instance.target_class):
                if tc == t:
                    m |= 1 << u
            self.tmasks.append(m)
        self.k = [
            [max((rows[i] & tm).bit_count() for i in mem) for tm in self.tmasks]
            for mem in self.members
        ]
        self._memo = {}

    def bound(self, uncovered, avail):
        rhs = tuple((uncovered & tm).bit_count() for tm in self.tmasks)
        ubs = tuple(sum(1 for i in mem if (avail >> i) & 1) for mem in self.members)
        key = (rhs, ubs)
        if key not in self._memo:
            self._memo[key] = self.solve_ip(rhs, ubs)
        return self._memo[key]

    def solve_ip(self, rhs, ubs):
        ncls, ntc = len(self.members), len(rhs)
        if not any(rhs):
            return 0
        best = sum(ubs) + 1
        k = self.k

        def dfs(c, need, used):
            nonlocal best
            if used >= best:
                return
            if not any(need):
                best = used
                return
            if c == ncls:
                return
            opt = 0
            for t in range(ntc):
                if need[t]:
                    mx = max((k[d][t] for d in range(c, ncls) if ubs[d]), default=0)
                    if mx == 0:
                        return
                    opt = max(opt, -(-need[t] // mx))
            if used + opt >= best:
                return
            hi = 0
            for t in range(ntc):
                if need[t] and k[c][t]:
                    hi = max(hi, -(-need[t] // k[c][t]))
            hi = min(hi, ubs[c])
            for take in range(hi, -1, -1):
                dfs(c + 1, tuple(max(0, need[t] - take * k[c][t]) for t in range(ntc)), used + take)

        dfs(0, tuple(rhs), 0)
        return best if best <= sum(ubs) else 1 << 30


class _Found(Exception):
    pass


class _Budget(Exception):
    pass


class ScanningSearch:
    """The engine's former branch and bound, which rescans candidates at every node.

    Same iterative deepening, root symmetry, cheap bounds and branching rule
    as `cover._Search`, with each node's coverage counts taken afresh from the
    candidate rows, the class-counting integer program at every node and no
    Lagrangian bound.  The search must return its status, bounds and first
    cover, in no more nodes: the Lagrangian bound and fixing only cut
    subtrees of this tree that hold no cover below the incumbent.
    """

    def __init__(self, instance):
        self.inst = instance
        self.cands = instance.candidates
        self.rows = rows_of(instance)
        self.full = (1 << instance.size) - 1
        self.cols = []
        for u in range(instance.size):
            m = 0
            for i, r in enumerate(self.rows):
                if (r >> u) & 1:
                    m |= 1 << i
            self.cols.append(m)
        self.ccb = ScanningClassCountingBound(instance)
        self.nodes = 0

    def cheap_bounds(self, uncovered, avail):
        best_cov = 0
        a = avail
        while a:
            i = (a & -a).bit_length() - 1
            a &= a - 1
            best_cov = max(best_cov, (self.rows[i] & uncovered).bit_count())
        if best_cov == 0:
            return 1 << 30
        density = -(-uncovered.bit_count() // best_cov)
        packing, used = 0, 0
        u = uncovered
        while u:
            t = (u & -u).bit_length() - 1
            u &= u - 1
            col = self.cols[t] & avail
            if col and not (col & used):
                packing += 1
                used |= col
        return max(density, packing)

    def solve(self, budget=None):
        budget = budget or SolveBudget()
        self.deadline = time.monotonic() + budget.time_limit
        self.node_limit = budget.node_limit
        avail = (1 << len(self.cands)) - 1
        if not self.inst.feasible():
            return CoverOutcome(INFEASIBLE, 0, None, None, self.inst.involutions_only)
        incumbent = greedy_cover(self.inst)
        ub = len(incumbent)
        lo = max(self.inst.alpha_floor, self.cheap_bounds(self.full, avail), self.ccb.bound(self.full, avail))
        lo = min(lo, ub)
        timed_out = False
        while lo < ub:
            self.best = lo + 1
            self.found = None
            try:
                self._root(avail)
            except _Found:
                pass
            except _Budget:
                timed_out = True
                break
            if self.found is not None:
                incumbent = [self.cands[i].element for i in self.found]
                ub = lo = len(self.found)
            else:
                lo += 1
        return CoverOutcome(INTERVAL if timed_out else EXACT, lo, ub, incumbent,
                            self.inst.involutions_only, nodes=self.nodes)

    def _root(self, avail):
        if not self.inst.conjugation_symmetric:
            self._descend(self.full, avail, 0, [])
            return
        self.nodes += 1
        excluded = 0
        for mem in self.ccb.members:
            rep = mem[0]
            self._descend(self.full & ~self.rows[rep], (avail & ~excluded) & ~(1 << rep), 1, [rep])
            for i in mem:
                excluded |= 1 << i

    def _descend(self, uncovered, avail, depth, chosen):
        self.nodes += 1
        if self.nodes > self.node_limit or (self.nodes % 256 == 0 and time.monotonic() > self.deadline):
            raise _Budget
        if not uncovered:
            self.best = depth
            self.found = list(chosen)
            raise _Found
        if depth + 1 >= self.best:
            return
        if depth + self.cheap_bounds(uncovered, avail) >= self.best:
            return
        if depth + self.ccb.bound(uncovered, avail) >= self.best:
            return
        u, pick_col, pick_n = uncovered, 0, 1 << 30
        while u:
            t = (u & -u).bit_length() - 1
            u &= u - 1
            col = self.cols[t] & avail
            n = col.bit_count()
            if n == 0:
                return
            if n < pick_n:
                pick_n, pick_col = n, col
                if n == 1:
                    break
        order = [i for i in range(len(self.cands)) if (pick_col >> i) & 1]
        order.sort(key=lambda i: -(self.rows[i] & uncovered).bit_count())
        excluded = 0
        for i in order:
            chosen.append(i)
            self._descend(uncovered & ~self.rows[i], (avail & ~excluded) & ~(1 << i), depth + 1, chosen)
            chosen.pop()
            excluded |= 1 << i
