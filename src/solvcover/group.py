"""Dense permutation-group engine.

A GroupTable holds every element of a finite permutation group, indexed
0..order-1 with the identity at index 0.  All heavy operations (closure,
conjugacy, derived series, radical, quotients) work on element indices and
are vectorized over the image matrix; element sets are boolean masks.

Products compose right-to-left; enumeration is breadth-first over left
multiplication by the generators (generator-major within a layer), which
fixes a deterministic element order reproducible across runs.  The walks
are batched: every walk over the elements (enumeration, closure, cosets,
classes and their witnesses, normal closures, the index-2 parity walk)
moves its whole frontier by all of its generators in one product and one
lookup per layer, and where a layer reaches an element twice the first
occurrence in generator-major order wins.  An element's order is a class
function, so orders are read off the cycle lengths of the class
representatives on first use.  Solvability is decided from the order alone
when that suffices (below 60, or at most two prime divisors); G itself is
shown nonsolvable by two elements of pairwise coprime orders |x|, |y|,
|xy| > 1, which generate a perfect subgroup, before any derived series.

Every walk turns rows of images back into element indices.  An element is
determined by its images of a base (Seress, Permutation Group Algorithms,
2003, 4.1), so a row's key is its base images read as a mixed-radix number,
each base point's radix the span of its orbit.  The enumeration finds the
base, adding a point wherever two elements share a key, and the key index
it grows is the lookup: a dense table from key to index makes a lookup of
many rows one gather.  Only where the keys outrun _DENSE_KEYS is the
sorted list of keys searched instead: no simple group under the cap comes
near it, but a wreath product with a long base does
(wreath(symmetric(3),4,cycle) has 12^8 keys).
"""

from __future__ import annotations

from functools import cached_property
from math import prod
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    BadParameter,
    CapExceeded,
    EmptyGenerators,
    InternalInconsistency,
    NotASubgroup,
    NotNormal,
)
from .perm import Permutation

DEFAULT_CAP = 20000
# most keys of a dense lookup table (int64 entries, 16 MiB); the enumeration's _key_index sorts keys above it
_DENSE_KEYS = 2 ** 21


class GroupTable:
    """Fully enumerated permutation group with indexed elements."""

    def __init__(self, imgs: np.ndarray, generator_indices: Sequence[int], base: Sequence[int], index: tuple):
        self.imgs = imgs
        self.order = len(imgs)
        self.degree = imgs.shape[1]
        self.generator_indices = list(generator_indices)
        self.base = np.array(base, dtype=np.int64)
        self._base_imgs = imgs[:, self.base]
        self._index = index  # (weights, dense, sorted keys, sorted positions); see _key_index
        inv_imgs = np.empty_like(imgs)
        inv_imgs[np.arange(self.order)[:, None], imgs] = np.arange(self.degree)[None, :]
        self.inverse_of = self.lookup_images(inv_imgs)
        self._classes: Optional[ClassPartition] = None
        self._radical: Optional[tuple[np.ndarray, tuple[int, ...]]] = None  # (mask, gens); see solvable_radical_set
        self._quotient: Optional[GroupTable] = None
        self._cyclic: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._group_solvable: Optional[bool] = None
        # (Sol mask per class id, reduction per mode), owned by solvabilizer.SolvabilizerIncidence
        self._sol_caches: tuple[dict, dict] = ({}, {})

    # -- construction ------------------------------------------------------

    @classmethod
    def from_generators(cls, generators: Sequence[Permutation], cap: int = DEFAULT_CAP) -> "GroupTable":
        """Breadth-first enumeration that finds its own base, starting from none.

        A layer stands when every product equals the row stored at its key.
        Else two elements a != b share a key, and the first point they differ
        on joins the base (a^-1 b fixes the old base and moves it, so no base
        point is redundant) before the layer runs again on the new keys.
        """
        if not generators:
            raise EmptyGenerators("need at least one generator")
        degree = generators[0].degree
        if any(g.degree != degree for g in generators):
            raise BadParameter("generators must share a degree")
        if degree < 1:
            raise BadParameter("generators must act on at least one point")
        if cap < 1:
            raise BadParameter("cap must be >= 1")
        gen_imgs = np.stack([np.asarray(g.images, dtype=np.int16) for g in generators])
        orbit = _orbit_labels(gen_imgs)  # least point of each point's orbit under G
        # the elements found so far, then spare rows; no view of it outlives a statement, so it resizes in place
        imgs = np.arange(degree, dtype=np.int16)[None, :].copy()
        base: list[int] = []
        index = _key_index(imgs, base, orbit)  # (weights, dense, sorted keys, sorted positions)
        start, count = 0, 1
        while start < count:
            prods = np.take(gen_imgs, imgs[start:count], axis=1).reshape(-1, degree)  # generator x frontier rows
            while True:
                weights, dense = index[:2]
                key = prods[:, base] @ weights
                new = np.flatnonzero(_find(key, index) < 0)
                if dense is not None:  # ufunc.at applies every write, so a new key keeps its least position
                    np.maximum.at(dense, key[new], len(prods) - new)
                    first = new[dense[key[new]] == len(prods) - new]
                    dense[key[first]] = count + np.arange(len(first))
                else:  # np.unique returns the first occurrence of each key
                    first = np.sort(new[np.unique(key[new], return_index=True)[1]])
                    index = _key_index(np.concatenate([imgs[:count], prods[first]]), base, orbit)
                stop = count + len(first)
                if stop > cap:  # distinct new keys are distinct new elements
                    raise CapExceeded(cap)
                if stop > len(imgs):  # double the row buffer in place, up to cap rows
                    imgs.resize((min(max(2 * len(imgs), stop), cap), degree), refcheck=False)
                imgs[count:stop] = prods[first]
                wrong = np.flatnonzero((imgs[_find(key, index)] != prods).any(axis=1))
                if not len(wrong):
                    break
                j = wrong[0]  # the first product unlike the row at its key
                base.append(int(np.argmax(imgs[_find(key[j], index)] != prods[j])))
                index = _key_index(imgs[:count], base, orbit)
            start, count = count, stop
        imgs.resize((count, degree), refcheck=False)
        return cls(imgs, _find(gen_imgs[:, base] @ index[0], index).tolist(), base, index)

    # -- lookup and multiplication -----------------------------------------

    def _index_of(self, base_imgs: np.ndarray) -> np.ndarray:
        """Indices of the elements with these rows of base images (one gather in the key table)."""
        return _find(base_imgs @ self._index[0], self._index)

    def lookup_images(self, imgs: np.ndarray) -> np.ndarray:
        """Indices of image rows known to belong to the group."""
        return self._index_of(imgs[:, self.base])

    def find_permutation(self, perm: Permutation) -> int:
        """Index of an arbitrary permutation, or -1 when not a member."""
        if perm.degree != self.degree:
            return -1
        row = np.asarray(perm.images, dtype=np.int16)
        try:
            idx = int(self._index_of(row[self.base]))
        except IndexError:  # a key past the dense table
            return -1
        return idx if idx >= 0 and np.array_equal(self.imgs[idx], row) else -1

    def permutation(self, i: int) -> Permutation:
        return Permutation(self.imgs[i])

    def mul(self, i: int, j: int) -> int:
        return int(self.mul_left(i, np.array([j]))[0])

    def mul_left(self, g, idx: np.ndarray) -> np.ndarray:
        """Indices of elem_g ∘ elem_j for each j in idx (a row per g for an array g); products need only base images."""
        return self._index_of(np.take(self.imgs[g], self._base_imgs[idx], axis=-1))

    def conjugate(self, g, t) -> np.ndarray:
        """Indices of g t g^-1, g broadcast against t, from (g t g^-1)[b] = g[t[g^-1[b]]] on the base."""
        g, t, d = np.asarray(g), np.asarray(t), self.degree
        inner = np.take(self.imgs, (t * d)[..., None] + self._base_imgs[self.inverse_of[g]])
        return self._index_of(np.take(self.imgs, (g * d)[..., None] + inner))

    # -- closure -----------------------------------------------------------

    def closure_indices(self, seeds: Iterable[int], stop_above: Optional[int] = None,
                        stop_at: Optional[np.ndarray] = None) -> Optional[list[int]]:
        """Sorted indices of the subgroup generated by seeds.

        Breadth-first orbit of the identity under left multiplication by the
        seeds (positive words suffice in a finite group).  Each layer forms
        every seed times every frontier element in one base-image product and
        one lookup, split into blocks of at most |G| rows to bound memory.
        Returns None exactly when the subgroup has more than stop_above
        elements or holds a nonidentity element marked in the boolean mask
        stop_at; both are checked once per layer.
        """
        seeds = [int(s) for s in dict.fromkeys(seeds) if s != 0]
        if not seeds:
            return [0]
        seed_imgs = self.imgs[seeds]  # gathered once: mul_left would gather them again per layer
        seen = np.zeros(self.order, dtype=bool)
        seen[0] = True
        slot = np.empty(self.order, dtype=np.int64)  # for deduplication without sorting
        count = 1
        frontier = np.zeros(1, dtype=np.int64)
        while len(frontier):
            base = self._base_imgs[frontier]
            block = max(1, self.order // len(frontier))  # seeds per lookup
            layer = []
            for lo in range(0, len(seeds), block):
                prods = np.take(seed_imgs[lo:lo + block], base, axis=1)  # seed x frontier x base point
                img = self._index_of(prods.reshape(-1, base.shape[1]))
                img = img[~seen[img]]
                at = np.arange(len(img))
                slot[img] = at  # one write per distinct element survives
                img = img[slot[img] == at]
                seen[img] = True
                layer.append(img)
            frontier = np.concatenate(layer)
            count += len(frontier)
            if (stop_above is not None and count > stop_above) or (stop_at is not None and stop_at[frontier].any()):
                return None
        return np.flatnonzero(seen).tolist()

    def solvable_cut(self) -> Optional[int]:
        """Size above which a subgroup is not solvable: None if G is solvable, else |G| // 5.

        G acts on the k cosets of a solvable H with kernel inside H; if k <= 4
        the image lies in the solvable S_k, so G would be solvable.  Hence a
        solvable subgroup of a nonsolvable G has index at least 5.  G's own
        solvability comes from ``is_group_solvable``: on a nonsolvable table
        usually from a perfect pair, with no derived series of G.
        """
        return None if self.is_group_solvable() else self.order // 5

    # -- cached global properties ------------------------------------------

    def conjugacy_classes(self) -> "ClassPartition":
        if self._classes is None:
            self._classes = _compute_classes(self)
        return self._classes

    @cached_property
    def order_of(self) -> np.ndarray:
        """Order of every element, from one row per conjugacy class (conjugates share an order)."""
        classes = self.conjugacy_classes()
        return _element_orders(self.imgs[classes.representatives])[classes.class_of]

    def solvable_radical_set(self) -> "ElementSet":
        """R(G), computed at first use; a new ElementSet on each call, over one read-only mask.

        The table keeps the radical's mask and generators, not the ElementSet,
        whose ``owner`` would point back at the table: a table that none of
        its caches (these, the quotient, ``_sol_caches``) point back at is
        freed as soon as it is dropped.
        """
        if self._radical is None:
            rad = _compute_radical(self)
            rad.mask.flags.writeable = False
            self._radical = rad.mask, tuple(rad.gens)
        mask, gens = self._radical
        return ElementSet(self, mask, is_subgroup=True, gens=list(gens))

    def radical_quotient(self) -> Optional["GroupTable"]:
        """G/R(G) by ``quotient_by``, built at first use; None when R(G) is trivial."""
        if self._quotient is None:
            radical = self.solvable_radical_set()
            if len(radical) > 1:
                self._quotient = quotient_by(self, radical)
        return self._quotient

    def cyclic_generators(self) -> tuple[np.ndarray, np.ndarray]:
        """Power-map summary ``(canonical, inside_bigger)``; see _compute_cyclic_generators."""
        if self._cyclic is None:
            self._cyclic = _compute_cyclic_generators(self)
        return self._cyclic

    def cyclic(self, g: int) -> tuple[np.ndarray, np.ndarray]:
        """Indices of g, g^2, ..., g^m = 1 (m the order of g), and of the generators g^j, gcd(j, m) = 1, of <g>."""
        rows = [self.imgs[g]]
        for _ in range(int(self.order_of[g]) - 1):
            rows.append(rows[0][rows[-1]])
        powers = self.lookup_images(np.stack(rows))
        m = len(powers)
        return powers, powers[np.gcd(np.arange(1, m + 1), m) == 1]

    def is_group_solvable(self) -> bool:
        """Whether G is solvable: from its order, else from a perfect pair, else from its derived series.

        A perfect pair is x, y with |x|, |y|, |xy| > 1 and pairwise coprime.
        They generate a nontrivial perfect subgroup H = <x,y>, so G is not
        solvable: in the abelian H/H' the image of x has order dividing |x|
        and, as x = (xy) y^-1, dividing lcm(|y|, |xy|), so it is 1, and so is
        the image of y.  (This is the perfect triangle group D(a,b,c) of
        pairwise coprime periods; Conder, Hurwitz groups: a brief survey,
        Bull. AMS 23, 1990.)  The search takes x among the involution class
        representatives and y of odd order, one product x y per such y; on a
        solvable G, or a GL(2,q), it finds none and the derived series
        decides.
        """
        if self._group_solvable is None:
            self._group_solvable = _solvable_by_order(self.order) or (
                not _has_perfect_pair(self) and is_solvable(self, ElementSet.full(self)))
        return self._group_solvable

    def involution_indices(self) -> np.ndarray:
        return np.where(self.order_of == 2)[0]

    def __repr__(self):
        return f"GroupTable(order={self.order}, degree={self.degree})"


class ElementSet:
    """Subset of one GroupTable's elements as a boolean mask.

    ``gens`` lists element indices that generate the set when it is a
    subgroup with known generators (None otherwise).  The constructors in
    this module fill it, so derived series start from it instead of
    searching for a generating subset.
    """

    def __init__(self, owner: GroupTable, mask: np.ndarray, is_subgroup: bool = False,
                 gens: Optional[list[int]] = None):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (owner.order,):
            raise BadParameter("mask length must equal group order")
        self.owner = owner
        self.mask = mask
        self.is_subgroup = is_subgroup
        self.gens = gens

    @classmethod
    def from_indices(cls, owner: GroupTable, indices: Iterable[int], is_subgroup: bool = False,
                     gens: Optional[list[int]] = None) -> "ElementSet":
        mask = np.zeros(owner.order, dtype=bool)
        mask[list(indices)] = True
        return cls(owner, mask, is_subgroup, gens)

    @classmethod
    def full(cls, owner: GroupTable) -> "ElementSet":
        return cls(owner, np.ones(owner.order, dtype=bool), is_subgroup=True,
                   gens=list(owner.generator_indices))

    @classmethod
    def trivial(cls, owner: GroupTable) -> "ElementSet":
        return cls.from_indices(owner, [0], is_subgroup=True, gens=[0])

    def indices(self) -> np.ndarray:
        return np.where(self.mask)[0]

    def __len__(self) -> int:
        return int(self.mask.sum())

    def __contains__(self, i) -> bool:
        return bool(self.mask[int(i)])

    def __eq__(self, other) -> bool:
        return isinstance(other, ElementSet) and self.owner is other.owner and np.array_equal(self.mask, other.mask)

    def issubset(self, other: "ElementSet") -> bool:
        return bool(np.all(~self.mask | other.mask))

    def fingerprint(self) -> bytes:
        return np.packbits(self.mask).tobytes()

    def verify_subgroup(self) -> bool:
        """Full check; a nonempty finite set closed under products is a subgroup."""
        idx = self.indices()
        if not self.mask[0] or self.owner.order % len(idx):
            return False
        return all(self.mask[self.owner.mul_left(int(i), idx)].all() for i in idx)

    def __repr__(self):
        return f"ElementSet(size={len(self)}, subgroup={self.is_subgroup})"


class ClassPartition:
    """Conjugacy classes with per-element conjugator witnesses."""

    def __init__(self, class_of: np.ndarray, representatives: list[int], conjugator: np.ndarray):
        self.class_of = class_of
        self.representatives = representatives
        self.conjugator = conjugator  # w with rep^w = element (w x w^-1 form)
        self.sizes = np.bincount(class_of, minlength=len(representatives))

    @property
    def count(self) -> int:
        return len(self.representatives)

    def members(self, cid: int) -> np.ndarray:
        return np.where(self.class_of == cid)[0]


# -- spec operations ---------------------------------------------------------


def _element_orders(imgs: np.ndarray) -> np.ndarray:
    """Order of every permutation row: the lcm of its cycle lengths.

    Rows are raised to successive powers together; a point's cycle length is
    the first power that fixes it, and the loop ends once every point has
    one, after as many steps as the longest cycle.
    """
    points = np.arange(imgs.shape[1])
    cycle = np.zeros(imgs.shape, dtype=np.int64)
    power, k = imgs, 1
    while not cycle.all():
        cycle[(cycle == 0) & (power == points)] = k
        power = np.take_along_axis(imgs, power, axis=1)  # x^(k+1)(p) = x(x^k(p))
        k += 1
    return np.lcm.reduce(cycle, axis=1)


def enumerate_group(generators: Sequence[Permutation], cap: int = DEFAULT_CAP) -> GroupTable:
    """Breadth-first closure of the generators; identity gets index 0."""
    return GroupTable.from_generators(generators, cap)


def subgroup_closure(table: GroupTable, seeds: Iterable[int]) -> ElementSet:
    """Smallest subgroup containing the seed elements; its ``gens`` are the seeds."""
    seeds = [int(s) for s in seeds]
    if any(s < 0 or s >= table.order for s in seeds):
        raise BadParameter("seed index out of range")
    gens = sorted(dict.fromkeys(s for s in seeds if s != 0)) or [0]
    return ElementSet.from_indices(table, table.closure_indices(seeds), is_subgroup=True, gens=gens)


def _generating_subset(table: GroupTable, indices: list[int]) -> list[int]:
    """Small deterministic generating subset of a known subgroup."""
    want = len(indices)
    gens: list[int] = []
    have = {0}
    for x in indices:
        if x in have:
            continue
        gens.append(x)
        have = set(table.closure_indices(gens))
        if len(have) == want:
            break
    return gens or [0]


def _require_subgroup(table: GroupTable, H: ElementSet):
    if not H.is_subgroup:
        if not H.verify_subgroup():
            raise NotASubgroup("element set is not a subgroup")
        H.is_subgroup = True


def _commutators(table: GroupTable, gens: Sequence[int]) -> set[int]:
    """Nontrivial commutators [a,b] = a^-1 b^-1 a b, one per unordered pair of gens.

    [b,a] = [a,b]^-1 and [a,a] = 1, so these generate the same subgroup (and
    the same normal closure) as the commutators of all ordered pairs.
    """
    g = np.asarray(gens, dtype=np.int64)
    i, j = np.triu_indices(len(g), k=1)
    a, b = g[i], g[j]
    imgs, inv = table.imgs, table.inverse_of
    ab = np.take_along_axis(imgs[a], imgs[b], axis=1)
    comm = np.take_along_axis(imgs[inv[a]], np.take_along_axis(imgs[inv[b]], ab, axis=1), axis=1)
    out = set(table.lookup_images(comm).tolist())
    out.discard(0)
    return out


def _left_cosets(table: GroupTable, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left cosets xH of the subgroup with indices idx.

    Returns the coset id of every element and the least element of each coset
    (coset ids are numbered in order of their least element).  The group's
    generators permute the left cosets, g(xH) = (gx)H, transitively, so a
    breadth-first walk from H reaches them all; the generators move the
    whole frontier of cosets in one lookup per layer.
    """
    least = np.full(table.order, -1, dtype=np.int64)  # least element of each element's coset
    frontier = np.asarray(idx, dtype=np.int64)[None, :]  # one coset per row
    least[frontier] = frontier.min()
    while len(frontier):
        img = table.mul_left(table.generator_indices, frontier.ravel()).reshape(-1, frontier.shape[1])
        img = img[least[img[:, 0]] < 0]
        low, first = np.unique(img.min(axis=1), return_index=True)  # one row per new coset
        frontier = img[first]
        least[frontier] = low[:, None]
    reps, coset_of = np.unique(least, return_inverse=True)
    return coset_of, reps


def _is_normal(table: GroupTable, idx: np.ndarray) -> bool:
    """Whether the sorted indices idx are closed under conjugation by the group."""
    return bool((np.sort(table.conjugate(np.asarray(table.generator_indices)[:, None], idx), axis=1) == idx).all())


def derived_subgroup(table: GroupTable, H: ElementSet, stop_above: Optional[int] = None) -> Optional[ElementSet]:
    """Subgroup generated by all commutators [a,b] with a,b in H.

    Computed as the normal closure in H of the commutators [g_i, g_j] of a
    generating set g_1..g_k of H (``H.gens``, or a generating subset found
    when H carries none).  That closure lies in H', and modulo it the
    generators commute, so the quotient is abelian and the two agree.  The
    result carries the generators its normal closure was built from.
    Returns None as soon as the closure has more than stop_above elements.
    """
    _require_subgroup(table, H)
    gens = H.gens or _generating_subset(table, H.indices().tolist())
    comms = _commutators(table, gens)
    if not comms:
        return ElementSet.trivial(table)
    sub, sub_gens = _normal_closure_within(table, sorted(comms), gens, stop_above=stop_above)
    if sub is None:
        return None
    return ElementSet.from_indices(table, sub, is_subgroup=True, gens=sub_gens)


def _normal_closure_within(table: GroupTable, seeds: list[int], ambient_gens: Sequence[int],
                           stop_above: Optional[int] = None, stop_at: Optional[np.ndarray] = None
                           ) -> tuple[Optional[list[int]], Optional[list[int]]]:
    """Smallest subgroup containing seeds and closed under conjugation by ambient_gens.

    Returns ``(elements, generators)``: the sorted element indices and a
    generating list for them (the seeds followed by the conjugates adjoined
    along the way).  Returns ``(None, None)`` as soon as a closure has more
    than stop_above elements or meets stop_at (see ``closure_indices``).
    """
    gens = list(seeds)
    while True:
        cur = table.closure_indices(gens, stop_above=stop_above, stop_at=stop_at)
        if cur is None:
            return None, None
        new = np.zeros(table.order, dtype=bool)
        new[table.conjugate(np.asarray(ambient_gens)[:, None], cur)] = True
        new[cur] = False
        if not new.any():
            return cur, gens
        gens.extend(np.flatnonzero(new)[:4].tolist())


def _solvable_by_order(n: int) -> bool:
    """Whether every group of order n is solvable.

    True below 60 (A5 is the least nonsolvable group) and for n = p^a q^b
    (Burnside's p^a q^b theorem); False otherwise, which decides nothing.
    """
    if n < 60:
        return True
    primes, p = 0, 2
    while p * p <= n:
        if n % p == 0:
            primes += 1
            while n % p == 0:
                n //= p
        p += 1
    return primes + (n > 1) <= 2


def _has_perfect_pair(table: GroupTable) -> bool:
    """Whether an involution class representative x and a y of odd order > 1 have |xy| odd, > 1 and coprime to |y|.

    Such x, y generate a nontrivial perfect subgroup (see
    ``GroupTable.is_group_solvable``).
    """
    orders = table.order_of
    odd = np.flatnonzero(orders % 2 == 1)[1:]  # the identity is the only element of order 1, at index 0
    b = orders[odd]
    for x in table.conjugacy_classes().representatives:
        if orders[x] == 2:
            c = orders[table.mul_left(x, odd)]
            if ((c % 2 == 1) & (c > 1) & (np.gcd(b, c) == 1)).any():
                return True
    return False


def is_solvable(table: GroupTable, H: ElementSet) -> bool:
    """Whether the derived series of H reaches the trivial subgroup.

    Stops with True at the first term whose order alone forces solvability,
    and with False at the first term K whose derived subgroup has more than
    |K|/2 elements: by Lagrange it is K itself, so K is perfect.
    """
    _require_subgroup(table, H)
    if _solvable_by_order(len(H)):
        return True
    cur = H
    while True:
        nxt = derived_subgroup(table, cur, stop_above=len(cur) // 2)
        if nxt is None:
            return False
        if _solvable_by_order(len(nxt)):
            return True
        cur = nxt


def _orbit_labels(perms: np.ndarray) -> np.ndarray:
    """Least element of each point's orbit under the rows of perms, permutations of 0..n-1.

    Min-propagation: at the fixed point labels are constant along every cycle.
    """
    label = np.arange(perms.shape[1])
    while True:
        pulled = np.minimum(label, label[perms].min(axis=0))
        if np.array_equal(pulled, label):
            return label
        label = pulled


def _key_index(rows: np.ndarray, base: list[int], orbit: np.ndarray):
    """``(weights, dense, sorted_keys, sorted_pos)``: the base key's weights and the index of rows by key.

    A key reads the base images as mixed-radix digits, each digit's radix
    the span of its base point's orbit (orbit[p] is the least point of p's).
    Below _DENSE_KEYS keys, ``dense[key]`` is a row's index, or -1 for a key
    of no row.  Above it the keys are sorted beside their rows' positions:
    a coset action of degree m with a two-point base has about m^2 keys.
    """
    span = [int(np.flatnonzero(orbit == orbit[b])[-1] - orbit[b]) + 1 for b in base]  # of each base point's orbit
    weights = [prod(span[i + 1:]) for i in range(len(base))]
    size = sum((int(orbit[b]) + s - 1) * w for b, s, w in zip(base, span, weights)) + 1  # keys 0..max key
    if size >= 2 ** 62:
        raise InternalInconsistency("base key overflow")
    weights = np.array(weights, dtype=np.int64)
    key = rows[:, base] @ weights
    if size <= _DENSE_KEYS:
        dense = np.full(size, -1, dtype=np.int64)
        dense[key] = np.arange(len(rows))
        return weights, dense, None, None
    order = np.argsort(key)
    return weights, None, key[order], order


def _find(key: np.ndarray, index: tuple) -> np.ndarray:
    """Index of each key's row in a _key_index, -1 for a key of none (IndexError past a dense table)."""
    _, dense, sorted_keys, sorted_pos = index
    if dense is not None:
        return dense[key]
    pos = np.minimum(np.searchsorted(sorted_keys, key), len(sorted_keys) - 1)
    return np.where(sorted_keys[pos] == key, sorted_pos[pos], -1)


def _compute_classes(table: GroupTable) -> ClassPartition:
    gens = np.array(table.generator_indices)
    cps = table.conjugate(gens[:, None], np.arange(table.order))  # generator x element
    reps, class_of = np.unique(_orbit_labels(cps), return_inverse=True)
    # witnesses: one breadth-first walk from every representative at once;
    # t = w rep w^-1 gives g t g^-1 = (g w) rep (g w)^-1
    conjor = np.full(table.order, -1, dtype=np.int64)
    conjor[reps] = 0
    frontier = reps
    while len(frontier):
        img = cps[:, frontier].ravel()
        fresh = np.flatnonzero(conjor[img] < 0)
        fresh = fresh[np.sort(np.unique(img[fresh], return_index=True)[1])]  # first occurrences
        conjor[img[fresh]] = table.mul_left(gens, conjor[frontier]).ravel()[fresh]
        frontier = img[fresh]
    return ClassPartition(class_of, reps.tolist(), conjor)


def _compute_cyclic_generators(table: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    """Least generator of <x> for every x, and whether <x> lies inside a bigger cyclic subgroup.

    One pass over the power maps z -> z^k, k = 2..max order: <x> is strictly
    inside a bigger cyclic subgroup exactly when x = z^k for some z of larger
    order, and the generators of <x> are the powers x^k with gcd(k, |x|) = 1.
    """
    n = table.order
    orders = table.order_of
    canonical = np.arange(n)
    inside_bigger = np.zeros(n, dtype=bool)
    rows = table.imgs
    for k in range(2, int(orders.max()) + 1):
        rows = np.take_along_axis(rows, table.imgs, axis=1)  # z^k = z^(k-1)∘z
        power = table.lookup_images(rows)
        inside_bigger[power[orders > orders[power]]] = True
        gen = (k < orders) & (np.gcd(k, orders) == 1)
        canonical[gen] = np.minimum(canonical[gen], power[gen])
    return canonical, inside_bigger


def conjugacy_classes(table: GroupTable) -> ClassPartition:
    """Orbits of the conjugation action; representative = least index per class."""
    return table.conjugacy_classes()


def _compute_radical(table: GroupTable) -> ElementSet:
    """Union of the classes whose normal closure is solvable.

    x lies in the solvable radical exactly when its normal closure <x^G> is
    solvable, and that matches the pairwise description { x : all <x,y>
    solvable } by the radical characterization the rest of the library leans
    on.  A closure is cut off once it passes ``table.solvable_cut()`` (in a
    nonsolvable G a solvable subgroup has index at least 5) or reaches a
    class already found outside (if <x^G> holds z, it holds <z^G>).  The
    radical's ``gens`` are the generators of the solvable normal closures it
    unites.  Verified as a normal solvable subgroup before returning.

    A solvable G is its own radical, returned at once with G's generators
    and no check.
    In a nonsolvable G the quotient G/R is nonsolvable, so |G/R| >= 60, and
    a class C inside R has |C| + 1 <= |R| <= |G|/60.  Every nonidentity class
    with 60 (|C| + 1) > |G| is therefore outside from the start, with no
    closure (all of them in a simple G).
    """
    if table.is_group_solvable():
        return ElementSet.full(table)
    classes = table.conjugacy_classes()
    cut = table.solvable_cut()
    rad = np.zeros(table.order, dtype=bool)
    rad[0] = True
    outside = 60 * (classes.sizes[classes.class_of] + 1) > table.order
    outside[0] = False
    gens: list[int] = []
    for cid, rep in enumerate(classes.representatives):
        if rep == 0 or rad[rep] or outside[rep]:
            continue
        sub, sub_gens = _normal_closure_within(table, [rep], table.generator_indices, stop_above=cut, stop_at=outside)
        if sub is not None and is_solvable(table, ElementSet.from_indices(table, sub, is_subgroup=True, gens=sub_gens)):
            rad[sub] = True
            gens += sub_gens
        else:
            outside[classes.class_of == cid] = True
    out = ElementSet(table, rad, is_subgroup=True, gens=list(dict.fromkeys(gens)) or [0])
    if not out.verify_subgroup():
        raise InternalInconsistency("radical candidate is not a subgroup")
    if not _is_normal(table, out.indices()):
        raise InternalInconsistency("radical candidate is not normal")
    if not is_solvable(table, out):
        raise InternalInconsistency("radical candidate is not solvable")
    return out


def solvable_radical(table: GroupTable) -> ElementSet:
    """R(G): the elements whose solvabilizer is the whole group."""
    return table.solvable_radical_set()


def quotient_by(table: GroupTable, N: ElementSet) -> GroupTable:
    """Permutation table of G/N via the action on left cosets of N."""
    _require_subgroup(table, N)
    n_idx = N.indices()
    if not _is_normal(table, n_idx):
        raise NotNormal("subgroup is not normal")
    coset_of, reps = _left_cosets(table, n_idx)
    k = len(reps)
    qgens = [Permutation(row) for row in coset_of[table.mul_left(table.generator_indices, reps)]]
    qt = GroupTable.from_generators(qgens, cap=max(k, 1))
    if qt.order != k:
        raise InternalInconsistency("coset action kernel is larger than N")
    return qt


def index_two_subgroups(table: GroupTable) -> list[ElementSet]:
    """All index-2 subgroups: the kernels of the homomorphisms G -> Z2.

    One breadth-first walk along the generators labels each element x with
    path[x], the bitmask of the generators used an odd number of times on
    the way to it.  A bitmask b of generator values gives a homomorphism,
    x -> parity of b & path[x], exactly when b & d is even for every d =
    path[g_i x] ^ path[x] ^ (1 << i) of an edge that reaches a labelled x;
    the d values are reduced to a GF(2) basis first.  Kernels come sorted
    by their sorted element lists, each with a small generating subset as
    ``gens``, which fixes the element order of squished product tables.
    """
    k = len(table.generator_indices)
    if k > 62:
        raise BadParameter("index_two_subgroups handles at most 62 generators")
    path = np.full(table.order, -1, dtype=np.int64)
    path[0] = 0
    d = []
    frontier = np.zeros(1, dtype=np.int64)
    while len(frontier):
        img = table.mul_left(table.generator_indices, frontier).ravel()
        want = (path[frontier] ^ (1 << np.arange(k))[:, None]).ravel()
        fresh = np.flatnonzero(path[img] < 0)
        fresh = fresh[np.sort(np.unique(img[fresh], return_index=True)[1])]  # first occurrences
        frontier = img[fresh]
        path[frontier] = want[fresh]
        d.append(path[img] ^ want)  # 0 on the edges that labelled an element
    d = np.concatenate(d)  # duplicates reduce to 0 below
    basis = []
    while (d != 0).any():
        basis.append(int(d.max()))  # clear its leading bit from every other d
        d = np.where(d >> (basis[-1].bit_length() - 1) & 1, d ^ basis[-1], d)
    bits = path[:, None] >> np.arange(k) & 1  # generator parities of each element's path
    out = []
    for b in range(1, 1 << k):
        if all((b & v).bit_count() % 2 == 0 for v in basis):
            mask = (bits @ (b >> np.arange(k) & 1)) % 2 == 0
            out.append(ElementSet(table, mask, is_subgroup=True,
                                  gens=_generating_subset(table, np.flatnonzero(mask).tolist())))
    return sorted(out, key=lambda H: H.indices().tolist())
