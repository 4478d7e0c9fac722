"""Solvabilizer sets, the maximal-solvable census, and cover-instance reduction.

Sol(x) = { y : <x,y> is solvable }.  It depends only on the cyclic group <x>,
since <x,y> = <x^k,y> for every generator x^k of <x>, so one orbit walk runs
per conjugacy class of cyclic subgroups, for the representative of the least
class among the generators of <x>; every other class with conjugate
generators conjugates that mask.  The walk is over the normalizer
N = N_G(<x>).  Each g in N maps x to a generator x^k of <x>, so
g<x,y>g^-1 = <x, g y g^-1> and the verdict is constant on each orbit of N
acting on G by conjugation.  N itself lies inside Sol(x) from the start: for
y in N, <x> is normal in <x,y> with a cyclic quotient.  The orbits that the
orders a = |x|, b = |y|, c = |xy| decide are settled from the start too
(``_triangle_verdicts``): <x,y> is a quotient of the von Dyck group
<X,Y | X^a, Y^b, (XY)^c> (von Dyck 1882; Coxeter and Moser, Generators and
Relations for Discrete Groups, ch. 4), which for 1/a + 1/b + 1/c >= 1 is
dihedral, A4, S4, A5 or a solvable Euclidean group (2,3,6), (2,4,4),
(3,3,3).  So such a y is inside, except for {2,3,5}.  That triple is one
of the pairwise coprime ones, such as (2,3,7) and (3,4,5), for which <x,y>
is a nontrivial perfect group, so y is outside (``_von_dyck``).  The walk
takes the other orbits in index order and settles each undecided one with
a single closure <x,y> of its least element y:

- a solvable <x,y> puts every orbit that meets <x,y> inside Sol(x);
- a nonsolvable <x,y>, or a closure of index below 5 (``solvable_cut``),
  puts outside the orbits of every y^j x^k with gcd(j, |y|) = 1, since
  <x, y^j x^k> = <x, y>;
- so does a closure that reaches an orbit already outside, where it stops:
  for z there, <x,z> is a nonsolvable subgroup of <x,y>; the coprime marks
  stop a walk's first nonsolvable closures at an element of a perfect
  subgroup.

Seeding the closure with x, y and their inverses halves its layers.

Every other solvabilizer is materialized by conjugation equivariance:
Sol(g x g^-1) = g Sol(x) g^-1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import GroupSolvable, InfeasibleUniverse, InternalInconsistency, NotTwoGenerated
from .fields import is_prime
from .group import (
    ClassPartition,
    ElementSet,
    GroupTable,
    _generating_subset,
    _orbit_labels,
    is_solvable,
)

def _normalizer_orbits(table: GroupTable, x: int, x_gens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least element of each element's orbit under conjugation by N = N_G(<x>), and N's elements.

    x_gens are the generators of <x> (``GroupTable.cyclic``).
    """
    generates_x = np.zeros(table.order, dtype=bool)
    generates_x[x_gens] = True
    normalizer = np.flatnonzero(generates_x[table.conjugate(np.arange(table.order), x)])
    gens = np.array(_generating_subset(table, normalizer.tolist()))
    return _orbit_labels(table.conjugate(gens[:, None], np.arange(table.order))), normalizer


def _von_dyck(a, b, c) -> np.ndarray:
    """Solvability of <x,y> from a = |x|, b = |y|, c = |xy|: 1 solvable, -1 not, 0 undecided.

    <x,y> is a quotient of D(a,b,c) = <X,Y | X^a, Y^b, (XY)^c>.  For a, b, c
    > 1 and pairwise coprime, <x,y> is nontrivial and perfect, so not
    solvable (the proof is in ``GroupTable.is_group_solvable``).  Otherwise,
    for 1/a + 1/b + 1/c >= 1, tested as bc + ac + ab >= abc, D(a,b,c) is
    solvable: {2,3,5}, where it is A5, is the only coprime such triple.
    """
    a, b, c = np.asarray(a), np.asarray(b), np.asarray(c)
    spherical = b * c + a * c + a * b >= a * b * c
    perfect = (a > 1) & (b > 1) & (c > 1) & (np.gcd(a, b) == 1) & (np.gcd(a, c) == 1) & (np.gcd(b, c) == 1)
    return np.where(perfect, -1, spherical).astype(np.int8)


def _triangle_verdicts(table: GroupTable, x: int) -> tuple[np.ndarray, np.ndarray]:
    """Elements y whose <x,y> the orders of x, y and xy decide, and the verdicts (1 solvable, -1 not).

    A triple with 1/a + 1/b + 1/c >= 1 and an entry of 7 or more has its
    other two entries equal to 2, or one equal to 1.  So for |x| >= 7 each
    such y inverts x, or is 1 or x^-1, and lies in N_G(<x>) already.  For
    |x| <= 6 one product x y per element with |y| <= 6 reads c, and for an
    involution x every y = x t with t an involution has xy = t, so <x,y> is
    dihedral whatever |y| is.  The scan also settles the pairwise coprime
    triples it meets, such as (2,3,7), (2,3,13) and (3,4,5); those with |x|
    or |y| above 6 are left to the closures, since scanning every y of order
    coprime to |x| measured slower.
    """
    orders = table.order_of
    a = int(orders[x])
    if a > 6:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int8)
    ys = np.flatnonzero(orders <= 6)
    verdicts = _von_dyck(a, orders[ys], orders[table.mul_left(x, ys)])
    decided = verdicts != 0
    ys, verdicts = ys[decided], verdicts[decided]
    if a == 2:
        dihedral = table.mul_left(x, table.involution_indices())
        ys = np.concatenate([ys, dihedral])
        verdicts = np.concatenate([verdicts, np.ones(len(dihedral), dtype=np.int8)])
    return ys, verdicts


def _sol_of_rep(table: GroupTable, x: int, cyclic: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Sol(x) as a boolean mask, by one closure per N_G(<x>)-orbit that neither N_G(<x>) nor orders decide.

    cyclic is ``table.cyclic(x)``: the powers of x and the generators of <x>.
    """
    n = table.order
    cut = table.solvable_cut()
    x_powers, x_gens = cyclic
    label, normalizer = _normalizer_orbits(table, x, x_gens)
    verdict = np.zeros(n, dtype=np.int8)  # per orbit label: 1 inside, -1 outside
    verdict[label[normalizer]] = 1  # <x> is normal in <x,y> with a cyclic quotient
    ys, verdicts = _triangle_verdicts(table, x)
    verdict[label[ys]] = verdicts
    inv = table.inverse_of
    for y in np.flatnonzero(label == np.arange(n)).tolist():
        if verdict[y]:
            continue
        H = table.closure_indices([x, y, inv[x], inv[y]], stop_above=cut, stop_at=verdict[label] < 0)
        if H is not None:
            if is_solvable(table, ElementSet.from_indices(table, H, is_subgroup=True, gens=[x, y])):
                verdict[label[H]] = 1
                continue
        verdict[label[table.mul_left(table.cyclic(y)[1], x_powers)]] = -1  # y^j x^k
    return verdict[label] == 1


class SolvabilizerIncidence:
    """Per-class solvabilizer sets with conjugation expansion on demand.

    Class representatives are computed lazily: verifying a certificate only
    touches the classes of its elements, while the covering pipeline pulls
    in exactly the classes of the universe targets.  A class whose cyclic
    subgroups are conjugate to those of a lesser class (the algebraically
    conjugate classes, such as PSL(2,8)'s 7A/7B/7C) conjugates that class's
    mask instead of walking again.

    The incidence also keeps each mode's reduction (``reduction``), which
    depends on the table alone, so a table reduced again (the other mode,
    another solve) redoes none of it: the cover instance that
    ``reduce_instance`` hands out, its feasibility verdict, and the mode's
    unmerged candidate rows.  It is built once per table and mode, and every
    array in it is read-only.

    The masks and reductions are cached on the table, and every incidence of
    one table shares them.  The incidence holds the table, and the table
    holds no incidence, so a dropped table is freed at once, not at a
    generation-2 collection.
    """

    def __init__(self, table: GroupTable):
        self.table = table
        self.classes: ClassPartition = table.conjugacy_classes()
        # Sol mask per class id, reduction per mode (involutions_only)
        self._rep_sol, self._reductions = table._sol_caches

    @property
    def radical(self) -> ElementSet:
        """R(G), computed on the table at first use; Sol needs none of it."""
        return self.table.solvable_radical_set()

    def rep_sol(self, cid: int) -> np.ndarray:
        """Sol of the class representative, conjugated from the least class among the generators of <rep>."""
        mask = self._rep_sol.get(cid)
        if mask is None:
            table, classes = self.table, self.classes
            rep = classes.representatives[cid]
            cyclic = table.cyclic(rep)
            gens = cyclic[1]
            z = int(gens[classes.class_of[gens].argmin()])
            # Sol(rep) = Sol(z), and the class of z is the least for its own generators too
            mask = _sol_of_rep(table, rep, cyclic) if classes.class_of[z] == cid else self.sol(z)
            mask.flags.writeable = False
            self._rep_sol[cid] = mask
        return mask

    def sol(self, x: int) -> np.ndarray:
        """Sol(x) mask for any element, via Sol(x) = w Sol(rep) w^-1: the cached read-only mask for a representative."""
        x = int(x)
        rep_mask = self.rep_sol(int(self.classes.class_of[x]))
        w = int(self.classes.conjugator[x])
        if w == 0:
            return rep_mask
        mask = np.zeros(self.table.order, dtype=bool)
        mask[self.table.conjugate(w, np.flatnonzero(rep_mask))] = True
        return mask

    def sol_set(self, x: int) -> ElementSet:
        return ElementSet(self.table, self.sol(x).copy())

    def sol_size_of_class(self, cid: int) -> int:
        return int(self.rep_sol(cid).sum())

    def reduction(self, involutions_only: bool) -> Reduction:
        """One mode's reduction (see ``reduce_instance``), built at first use.

        The targets come from the other mode's reduction when that is built,
        so ``maximal_cyclic_generators`` runs once per table.  Every
        nonradical involution is a mode-all candidate, with the same row, so
        involution mode takes its rows from the mode-all reduction when that
        is already built; otherwise it builds its own rows only, which on a
        group with a radical are far fewer than every nonradical element's.
        """
        key = bool(involutions_only)
        red = self._reductions.get(key)
        if red is not None:
            return red
        table, classes = self.table, self.classes
        other = self._reductions.get(not key)
        if other is None:
            universe = np.array(maximal_cyclic_generators(table), dtype=np.int64)
            targets = universe[~self.radical.mask[universe]]
            target_class = _target_orbits(classes, table, targets)
            dropped = len(universe) - len(targets)
        else:
            targets, target_class, dropped = other.instance.universe, other.instance.target_class, other.dropped
        cand, raw = _candidates(self, key)
        full = other if key else None
        member = _cover_matrix(self, cand, targets) if full is None else full.member[np.searchsorted(full.cand, cand)]
        uniq, kept = _maximal_rows(member, classes.class_of[cand], classes.count)
        notes = [f"universe: dropped {dropped} radical targets"] if dropped else []
        notes.append(f"universe {len(targets)} maximal cyclic targets; raw candidates {raw}")
        notes.append(f"candidates after dedupe {len(uniq)}, after dominance pruning {len(kept)}")
        inst = CoverInstance(universe=targets, target_class=target_class, candidates=cand[kept],
                             candidate_class=classes.class_of[cand[kept]], covers=member[kept],
                             alpha_floor=3, notes=notes)
        for array in (targets, target_class, cand, member, inst.candidates, inst.candidate_class, inst.covers):
            array.flags.writeable = False
        red = self._reductions[key] = Reduction(inst, inst.feasible(), dropped, cand, member)
        return red


def sol_of(table: GroupTable, x: int) -> ElementSet:
    """Solvabilizer of one element (computed through the shared incidence)."""
    return sol_incidence(table).sol_set(x)


def sol_incidence(table: GroupTable) -> SolvabilizerIncidence:
    """Incidence structure over the masks and reductions cached on the table."""
    return SolvabilizerIncidence(table)


def union_check(incidence: SolvabilizerIncidence, involutions_only: bool = False) -> bool:
    """Whether the solvabilizers of the (chosen) nonradical elements cover G.

    The union of Sol(x) over the class of x is the closure of Sol(rep) under
    conjugation, which is the union of the conjugacy classes that Sol(rep)
    meets; so G is covered exactly when every class is met.
    """
    table = incidence.table
    classes = incidence.classes
    covered = np.zeros(classes.count, dtype=bool)
    for cid, rep in enumerate(classes.representatives):
        if rep == 0 or rep in incidence.radical:
            continue
        if involutions_only and table.order_of[rep] != 2:
            continue
        covered[classes.class_of[incidence.rep_sol(cid)]] = True
        if covered.all():
            return True
    return False


# -- maximal solvable census ---------------------------------------------------


@dataclass
class MaximalSolvableCensus:
    subgroups: list[ElementSet]
    class_of_subgroup: list[int]
    class_orders: list[int]          # |H| for each conjugacy class of subgroups
    class_counts: list[int]          # number of conjugates in each class

    def membership_counts(self, x: int) -> dict[int, int]:
        """How many census members of each subgroup order contain x."""
        out: dict[int, int] = {}
        for H in self.subgroups:
            if x in H:
                out[len(H)] = out.get(len(H), 0) + 1
        return out

    def union_containing(self, x: int) -> np.ndarray:
        table = self.subgroups[0].owner
        mask = np.zeros(table.order, dtype=bool)
        for H in self.subgroups:
            if x in H:
                mask |= H.mask
        return mask


def maximal_solvable_subgroups(table: GroupTable) -> MaximalSolvableCensus:
    """Census of the maximal solvable subgroups.

    Seeds are the distinct solvable <rep, y> subgroups seen by the incidence
    computation; one seed per conjugacy orbit is greedily extended (adjoin the
    smallest index that keeps the extension solvable, restarting the scan after
    each success), and the maximal results are saturated under conjugation.
    """
    if table.is_group_solvable():
        full = ElementSet.full(table)
        return MaximalSolvableCensus([full], [0], [table.order], [1])
    inc = sol_incidence(table)
    if len(inc.radical) > 1:
        import warnings

        warnings.warn("census on a group with nontrivial radical", stacklevel=2)
    seeds: dict[bytes, tuple[list[int], list[int]]] = {}  # fingerprint -> (elements, generators)
    for cid, rep in enumerate(inc.classes.representatives):
        if rep == 0 or rep in inc.radical:
            continue
        for y in np.where(inc.rep_sol(cid))[0].tolist():
            if y == 0:
                continue
            H = table.closure_indices([rep, y])
            seeds.setdefault(ElementSet.from_indices(table, H).fingerprint(), (H, [rep, y]))
    maximal: dict[bytes, list[int]] = {}
    for seed, gens in _orbit_representatives(table, list(seeds.values())):
        ext = _extend_to_maximal_solvable(table, seed, gens)
        maximal[ElementSet.from_indices(table, ext).fingerprint()] = ext
    # saturate under conjugation, then classify
    subgroups: list[ElementSet] = []
    class_of: list[int] = []
    class_orders: list[int] = []
    class_counts: list[int] = []
    seen: set[bytes] = set()
    for fp in sorted(maximal):
        if fp in seen:
            continue
        orbit = _conjugation_orbit(table, maximal[fp])
        cid = len(class_orders)
        members = sorted(orbit.values(), key=lambda idx: tuple(idx))
        for idx in members:
            es = ElementSet.from_indices(table, idx, is_subgroup=True)
            subgroups.append(es)
            class_of.append(cid)
        class_orders.append(len(members[0]))
        class_counts.append(len(members))
        seen.update(orbit.keys())
    return MaximalSolvableCensus(subgroups, class_of, class_orders, class_counts)


def _conjugation_orbit(table: GroupTable, indices: list[int]) -> dict[bytes, list[int]]:
    orbit = {ElementSet.from_indices(table, indices).fingerprint(): sorted(indices)}
    stack = [sorted(indices)]
    gens = np.array(table.generator_indices)[:, None]
    while stack:
        for idx in np.sort(table.conjugate(gens, stack.pop()), axis=1).tolist():  # a conjugate per generator
            fp = ElementSet.from_indices(table, idx).fingerprint()
            if fp not in orbit:
                orbit[fp] = idx
                stack.append(idx)
    return orbit


def _orbit_representatives(table: GroupTable, subgroups: list[tuple[list[int], list[int]]]
                           ) -> list[tuple[list[int], list[int]]]:
    """One (elements, generators) pair per conjugation orbit, least (size, elements) first."""
    reps, seen = [], set()
    for idx, gens in sorted(subgroups, key=lambda hg: (len(hg[0]), hg[0])):
        if ElementSet.from_indices(table, idx).fingerprint() in seen:
            continue
        reps.append((idx, gens))
        seen.update(_conjugation_orbit(table, idx).keys())
    return reps


def _extend_to_maximal_solvable(table: GroupTable, seed: list[int], gens: list[int]) -> list[int]:
    """Adjoin the least element that keeps <gens> solvable until none does.

    Only elements of Sol(h) for every generator h are tried: otherwise <h,g>
    is a nonsolvable subgroup of <gens,g>; so the closure <gens,g> ends at
    its first element outside Sol(g) or some Sol(h).  A failed adjunction
    stays failed as the subgroup grows, so it leaves ``allowed`` for good.
    """
    inc = sol_incidence(table)
    cut = table.solvable_cut()
    inside = np.ones(table.order, dtype=bool)  # in Sol(h) for every generator h
    for h in gens:
        inside &= inc.sol(h)
    allowed = inside.copy()
    cur = sorted(seed)
    allowed[cur] = False
    while True:
        for g in np.flatnonzero(allowed).tolist():
            sol_g = inc.sol(g)
            H2 = table.closure_indices(gens + [g], stop_above=cut, stop_at=~(inside & sol_g))
            if H2 is not None and is_solvable(
                    table, ElementSet.from_indices(table, H2, is_subgroup=True, gens=gens + [g])):
                cur, gens = H2, gens + [g]
                inside &= sol_g
                allowed &= sol_g
                allowed[cur] = False
                break
            allowed[g] = False
        else:
            return cur


# -- cover instance reduction ---------------------------------------------------


@dataclass(eq=False)  # == is identity: a field-wise == would compare the ndarrays ambiguously
class CoverInstance:
    """Set cover: candidate i covers target t when covers[i, t].

    The solver's contract: a symmetry group H of ``covers`` has each
    candidate class inside one H-orbit, not necessarily a whole one (on
    PSL(2,16), rows of different conjugacy classes coincide and the dedupe
    keeps part of three classes), and each target class a union of H-orbits.
    A singleton class claims no symmetry.
    """

    universe: np.ndarray             # int64: canonical generator per maximal cyclic subgroup
    target_class: np.ndarray         # int64: conjugation orbit id per universe entry
    candidates: np.ndarray           # int64: the element of each candidate
    candidate_class: np.ndarray      # int64: the conjugacy class of each candidate
    covers: np.ndarray               # bool, candidates x universe: covers[i, t] when t in Sol(candidate i)
    alpha_floor: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.universe)

    def feasible(self) -> bool:
        return bool(self.covers.any(axis=0).all())


def maximal_cyclic_generators(table: GroupTable) -> list[int]:
    """Canonical generator (least index among generators) per maximal cyclic subgroup."""
    canonical, inside_bigger = table.cyclic_generators()
    return sorted(set(canonical[1:][~inside_bigger[1:]].tolist()))


class Reduction(NamedTuple):
    """One mode's reduction, kept on the incidence: the instance, the count of radical targets dropped, and the rows."""

    instance: CoverInstance  # read-only arrays; ``reduce_instance`` hands out a copy of the notes
    feasible: bool
    dropped: int
    cand: np.ndarray         # the mode's canonical candidates, with their unmerged rows
    member: np.ndarray


def reduce_instance(incidence: SolvabilizerIncidence, involutions_only: bool = False) -> CoverInstance:
    """Reduce covering G to an exact set-cover instance.

    Universe: one canonical generator per maximal cyclic subgroup not inside
    the radical (covering a generator covers its whole cyclic group, and
    radical targets lie in every solvabilizer).  Candidates: the involutions,
    or in mode all the nonradical elements, of prime order when the radical
    is trivial.  Sol(x) never shrinks under x -> x^n, and with a trivial
    radical every prime-order power of a nontrivial x is nonradical, so a
    cover maps to a no-larger prime-order cover.  With a nontrivial radical
    that power can lie in it (in SL(2,5) the square of an element of order 4
    is -1), so every nonradical element is a candidate.  Identical
    coverage rows are merged, keeping the least element, and dominated
    candidates are dropped (``_maximal_rows``; both preserve the optimum).

    The table alone decides all of this, so the incidence reduces each mode
    once (``SolvabilizerIncidence.reduction``), feasibility included; each
    call wraps the same read-only arrays, with notes of its own.
    """
    if incidence.table.is_group_solvable():
        raise GroupSolvable("covering numbers are undefined for solvable groups")
    red = incidence.reduction(involutions_only)
    if not red.feasible:
        if involutions_only:
            raise InfeasibleUniverse("some target is covered by no involution")
        raise InternalInconsistency("unrestricted instance must be feasible")
    return replace(red.instance, notes=list(red.instance.notes))


def _maximal_rows(member: np.ndarray, row_class: np.ndarray, class_count: int) -> tuple[np.ndarray, np.ndarray]:
    """The least row of each set of equal rows, and those of them left once dominated classes go.

    A row is dominated when it lies inside another row (Garfinkel and
    Nemhauser, Integer Programming, 1972), and that is a property of a whole
    conjugacy class: conjugation by g permutes the targets, maps the row of
    x onto the row of the canonical generator of g x g^-1, so it maps the
    set of rows onto itself, and it preserves containment, so a member's row
    lies inside another row exactly when the least member's does.  So only
    the least merged row of each class is tested, against the rows covering
    its rarest target (only those can hold it), on packed bits, and a
    dominated class goes whole; the rows left, the maximal ones, are the
    instance's ``covers``.  Every pairwise product over the whole matrix
    costs more: numpy's boolean matmul scans rows for 3-6x as long on the
    larger groups, and a float product wakes OpenBLAS threads that spin on
    the other cores.
    """
    packed = np.packbits(member, axis=1, bitorder="little")
    uniq = np.sort(np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(), return_index=True)[1])
    # the least row of a class lies inside row j only if j covers its rarest target: test those pairs
    rows, bits, uniq_class = member[uniq], packed[uniq], row_class[uniq]
    least = np.unique(uniq_class, return_index=True)[1]
    rarest = np.where(rows[least], rows.sum(axis=0), len(rows) + 1).argmin(axis=1)
    k, j = np.nonzero(rows[:, rarest].T)
    i = least[k]
    i, j = i[i != j], j[i != j]
    dominated = np.zeros(class_count, dtype=bool)
    dominated[uniq_class[i[~(bits[i] & ~bits[j]).any(axis=1)]]] = True
    return uniq, uniq[~dominated[uniq_class]]


def _candidates(incidence: SolvabilizerIncidence, involutions_only: bool) -> tuple[np.ndarray, int]:
    """One mode's candidates that are canonical generators, and the count of all its candidates."""
    table = incidence.table
    rad_mask = incidence.radical.mask
    orders = table.order_of
    if involutions_only:
        eligible = orders == 2
    elif rad_mask[1:].any():
        eligible = np.ones(table.order, dtype=bool)
    else:
        prime = np.array([is_prime(o) for o in range(int(orders.max()) + 1)])
        eligible = prime[orders]
    eligible &= ~rad_mask
    canonical, _ = table.cyclic_generators()
    return np.flatnonzero(eligible & (canonical == np.arange(table.order))), int(eligible.sum())


def _cover_matrix(incidence: SolvabilizerIncidence, cand: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The candidate x target boolean matrix: [i, t] when target t is in Sol(cand[i]).

    A row depends only on <x>, since Sol(x) = Sol(x^k) for every generator
    x^k, so the least element with a given row is a canonical generator
    (``cyclic_generators``) and only those get a row.  The columns come from
    t in Sol(x) iff x in Sol(t): for a target t = w r w^-1 of the class of
    r, the candidates in Sol(t) are the canonical generators of w s w^-1 for
    the canonical candidates s in Sol(r), and every such pair is conjugated
    in one lookup, (w s w^-1)[b] = w[s[w^-1[b]]] on the base points.
    """
    table, classes = incidence.table, incidence.classes
    canonical, _ = table.cyclic_generators()
    pos = np.full(table.order, -1, dtype=np.int64)
    pos[cand] = np.arange(len(cand))
    # every (target t = w r w^-1, canonical candidate s in Sol(r)) pair, classes
    # in order of first appearance among the targets
    target_cids = classes.class_of[targets]
    pair_w, pair_s, pair_col = [], [], []
    for cid in dict.fromkeys(target_cids.tolist()):
        cols = np.flatnonzero(target_cids == cid)
        inside = cand[incidence.rep_sol(cid)[cand]]
        pair_w.append(np.repeat(classes.conjugator[targets[cols]], len(inside)))
        pair_s.append(np.tile(inside, len(cols)))
        pair_col.append(np.repeat(cols, len(inside)))
    conj = table.conjugate(np.concatenate(pair_w), np.concatenate(pair_s))
    member = np.zeros((len(cand), len(targets)), dtype=bool)
    member[pos[canonical[conj]], np.concatenate(pair_col)] = True
    return member


def _target_orbits(classes: ClassPartition, table: GroupTable, universe: np.ndarray) -> np.ndarray:
    """Conjugation-orbit id of each universe target's cyclic subgroup.

    <s> and <t> are conjugate exactly when a generator of <s> is conjugate to
    one of <t>, so the least conjugacy class among the generators of <t>
    names the orbit; ids are numbered in order of first appearance.  The
    generators of <t> are the elements whose canonical generator is t.
    """
    canonical, _ = table.cyclic_generators()
    key = np.full(table.order, classes.count, dtype=np.int64)
    np.minimum.at(key, canonical, classes.class_of)
    ids: dict[int, int] = {}
    return np.array([ids.setdefault(k, len(ids)) for k in key[universe].tolist()], dtype=np.int64)


# -- clique numbers -------------------------------------------------------------


@dataclass
class CliqueResult:
    lower: int
    upper: int
    witness: list[int]

    @property
    def exact(self) -> bool:
        return self.lower == self.upper


def mu_s(table: GroupTable, node_limit: int = 10 ** 7, time_limit: float = 60.0) -> CliqueResult:
    """Largest set of pairwise non-solvabilized elements (max clique)."""
    from .cover import SolveBudget  # cover imports this module

    SolveBudget(time_limit, node_limit)  # rejects a negative or NaN limit
    inc = sol_incidence(table)
    nonradical = ~inc.radical.mask  # the identity lies in the radical
    verts = np.flatnonzero(nonradical).tolist()
    # bit y of adj[x] is set when y lies outside Sol(x); x never does
    adj = {x: int.from_bytes(np.packbits(~inc.sol(x) & nonradical, bitorder="little").tobytes(), "little")
           for x in verts}
    return _max_clique(verts, adj, node_limit, time_limit)


def mu_pairwise_generators(table: GroupTable, node_limit: int = 10 ** 7, time_limit: float = 60.0) -> CliqueResult:
    """Max clique of the pairwise-generation graph (<x,y> = G)."""
    from .cover import SolveBudget  # cover imports this module

    SolveBudget(time_limit, node_limit)  # rejects a negative or NaN limit
    n = table.order
    verts = list(range(1, n))
    adj = {x: 0 for x in verts}
    found_any = False
    for i, x in enumerate(verts):
        for y in verts[i + 1:]:
            if table.closure_indices([x, y], stop_above=n // 2) is None:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
                found_any = True
    if not found_any:
        raise NotTwoGenerated("no pair of elements generates the group")
    return _max_clique(verts, adj, node_limit, time_limit)


def pairwise_generates(table: GroupTable, elements: list[int]) -> bool:
    n = table.order
    for i, x in enumerate(elements):
        for y in elements[i + 1:]:
            if table.closure_indices([x, y], stop_above=n // 2) is not None:
                return False
    return True


def _max_clique(verts: list[int], adj: dict[int, int], node_limit: int, time_limit: float) -> CliqueResult:
    """Tomita-style branch and bound with a greedy-coloring bound."""
    deadline = time.monotonic() + time_limit
    best: list[int] = []
    nodes = [0]
    timeout = [False]

    def color_sort(P: int):
        order = []
        cnum = 0
        Q = P
        while Q:
            cnum += 1
            avail = Q
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= avail - 1
                order.append((v, cnum))
                Q &= ~(1 << v)
                avail &= ~adj.get(v, 0)
        return order

    def expand(P: int, clique: list[int]):
        nodes[0] += 1
        if nodes[0] > node_limit or time.monotonic() > deadline:
            timeout[0] = True
            return
        order = color_sort(P)
        for v, c in reversed(order):
            if timeout[0]:
                return
            if len(clique) + c <= len(best):
                return
            clique.append(v)
            expand(P & adj.get(v, 0) & ((1 << v) - 1), clique)
            if len(clique) > len(best):
                best[:] = clique
            clique.pop()
            P &= ~(1 << v)

    full = 0
    for v in verts:
        full |= 1 << v
    color_bound = max((c for _, c in color_sort(full)), default=0)
    expand(full, [])
    upper = color_bound if timeout[0] else len(best)
    return CliqueResult(lower=len(best), upper=max(upper, len(best)), witness=sorted(best))
