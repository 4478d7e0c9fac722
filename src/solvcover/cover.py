"""Exact anytime minimum set-cover solver and the end-to-end alpha pipeline.

The solver runs iterative deepening on the optimum: for k = lb, lb+1, ... it
searches for a cover of size <= k with the incumbent pinned to k+1, so the
bound prunes at equality.  A completed round with no cover proves lb > k; the
first hit is optimal.  Branching picks the uncovered target with the fewest
remaining candidates, except at the root of a conjugation-symmetric instance,
which branches on conjugacy-class representatives, each excluding its whole
class (conjugating an optimal cover is again an optimal cover, so the lowest
class present may be normalized to its representative).  Pruning bounds, in
order: universe density, the Lagrangian relaxation of set cover (Beasley, EJOR
1990; Caprara, Fischetti, Toth, Oper. Res. 47, 1999), and a target with no
candidate left; the root also packs candidate-disjoint targets.  The
Lagrangian bound takes a few subgradient steps on float64 multipliers y >= 0
over the uncovered targets, warm-started from the parent's, whose value bounds
the LP relaxation from below.  The multipliers a node holds bound every child
before it is entered, which fixes out the children whose reduced cost lifts
them to the incumbent.  The root multipliers are the dual of the
class-counting LP (the set-cover LP with candidates grouped by conjugacy class
and targets by orbit), optimal for the root LP of a conjugation-symmetric
instance; the ceiling of its value is the root's class-counting bound.  Every
bound only cuts subtrees that hold no cover below the incumbent, so the search
visits the nodes of the plain search in the same order, minus those, and finds
the same first cover.

Exactness rests only on the lower end, so any cover of that size is a
certificate.  Besides the search's first cover the solver tries a primal
heuristic: seeded randomized greedy restarts with redundant picks dropped,
run before the first deepening round and after each round that raises the
lower bound.  A restart that finds a cover of the proven size ends the solve
without the round that would re-find one; any cover below the incumbent
tightens the upper end of an interval.  The randomness is seeded per solve,
so an instance always gets the same certificate, and it never touches a
lower bound.  The first incumbent is the same greedy with unit weights, the
max-coverage greedy cover that ``greedy_cover`` returns.

A node's whole state is two vectors over one float64 target x candidate
matrix: unc, 1 on the uncovered targets, and the coverage vector cov, with
cov[i] = |row_i & uncovered| for the available candidates and cov[i] <= 0
for the chosen and excluded ones.  Both are kept incrementally: a child's cov
is its parent's minus the matrix rows of the targets it newly covers, so the
density bound is cov.max() and the branching order sorts by cov.  Each
subgradient step is two products with the same matrix; at a node the ascent
keeps, one more, hit @ (cov > 0), counts the available candidates of every
target and gives the branching target.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .constructions import GroupSpec, _shift, build
from .errors import BadParameter, GroupSolvable, InfeasibleUniverse, SolvcoverError
from .group import DEFAULT_CAP, GroupTable, enumerate_group, quotient_by, solvable_radical
from .perm import Permutation
from .solvabilizer import CoverInstance, reduce_instance, sol_incidence

EXACT = "exact"
INTERVAL = "interval"
INFEASIBLE = "infeasible"


@dataclass
class SolveBudget:
    time_limit: float = 60.0
    node_limit: int = 10 ** 7

    def __post_init__(self):
        if not self.time_limit >= 0 or self.node_limit < 0:  # a NaN time limit would never expire
            raise BadParameter("budget limits must be nonnegative numbers")


@dataclass
class CoverOutcome:
    status: str                      # EXACT | INTERVAL | INFEASIBLE
    lower: int
    upper: Optional[int]
    certificate: Optional[list[int]]            # element indices in the solved table
    involutions_only: bool
    nodes: int = 0
    seconds: float = 0.0
    quotient_level: bool = False                 # certificate names quotient elements
    certificate_perms: Optional[list[Permutation]] = None
    notes: list[str] = field(default_factory=list)

    def value(self) -> Optional[int]:
        return self.lower if self.status == EXACT else None

    def render(self) -> str:
        return render_outcome(self.status, self.lower, self.upper)


def render_outcome(status: str, lower: int, upper: Optional[int]) -> str:
    """"inf" when infeasible, the value when exact, "[lower,upper]" otherwise."""
    if status == INFEASIBLE:
        return "inf"
    if status == EXACT:
        return str(lower)
    return f"[{lower},{upper}]"


# -- bounds ----------------------------------------------------------------------


def greedy_cover(instance: CoverInstance) -> list[int]:
    """Max-coverage greedy certificate, redundant picks dropped (``_Search._restart`` with unit weights)."""
    return [instance.candidates[i].element for i in _Search(instance)._restart(None)]


class _ClassCountingBound:
    """The class-counting program: set cover counted per candidate class.

    For each candidate conjugacy class c and target orbit T the coverage count
    |row(x) & T| is constant over x in c (conjugation permutes T and maps rows
    accordingly); a cover with x_c members of class c then has
    sum_c k[c][T] * x_c >= |T| for every T, with x_c at most the class size.
    The least sum of x_c in the LP relaxation of that program is a lower
    bound on the cover size, and its dual gives the root multipliers.
    """

    def __init__(self, instance: CoverInstance):
        cands = instance.candidates
        self.cls_ids = sorted({c.class_id for c in cands})
        self.members = [[i for i, c in enumerate(cands) if c.class_id == cid] for cid in self.cls_ids]
        self.target_orbit = np.unique(np.array(instance.target_class, dtype=np.int64), return_inverse=True)[1]
        self.sizes = np.bincount(self.target_orbit).tolist()
        counts = [instance.covers[:, self.target_orbit == o].sum(axis=1) for o in range(len(self.sizes))]  # |row & T|
        self.k = [[int(n[mem].max()) for n in counts] for mem in self.members]

    def constraint_rows(self):
        """(coefficients, rhs) per target orbit, for reporting and tests."""
        return [({cid: kc[ti] for cid, kc in zip(self.cls_ids, self.k)}, size) for ti, size in enumerate(self.sizes)]

    def lp_dual(self) -> tuple[list[float], float]:
        """Optimal multipliers w (one per target orbit) of the program's LP relaxation at the root.

        Primal simplex with Bland's rule on the dual LP
            max sum_T |T| w_T - sum_c |c| v_c  s.t.  sum_T k[c][T] w_T - v_c <= 1,  w, v >= 0,
        from the slack basis, which is feasible as every right-hand side is 1.
        Returns (w, value) with value = sum_T |T| w_T - sum_c |c| max(sum_T k[c][T] w_T - 1, 0).
        """
        k, sizes = self.k, self.sizes
        nc, m = len(k), len(sizes)
        rows = [[float(a) for a in k[c]] + [-float(c == j) for j in range(nc)] + [float(c == j) for j in range(nc)]
                + [1.0] for c in range(nc)]
        z = [float(a) for a in sizes] + [-float(len(mem)) for mem in self.members] + [0.0] * (nc + 1)
        basis = list(range(m + nc, m + 2 * nc))
        for _ in range(_SIMPLEX_PIVOTS):
            enter = next((j for j in range(m + 2 * nc) if z[j] > _PIVOT_TOL), None)
            if enter is None:
                break
            ratio = min(((row[-1] / row[enter], basis[i], i) for i, row in enumerate(rows) if row[enter] > _PIVOT_TOL),
                        default=None)
            if ratio is None:
                break
            pivot = rows[ratio[2]]
            f = pivot[enter]
            pivot[:] = [a / f for a in pivot]
            for row in rows:
                if row is not pivot and row[enter]:
                    f = row[enter]
                    row[:] = [a - f * b for a, b in zip(row, pivot)]
            f = z[enter]
            z = [a - f * b for a, b in zip(z, pivot)]
            basis[ratio[2]] = enter
        w = [0.0] * m
        for row, b in zip(rows, basis):
            if b < m:
                w[b] = max(row[-1], 0.0)
        value = (sum(a * b for a, b in zip(sizes, w))
                 - sum(len(mem) * max(sum(a * b for a, b in zip(kc, w)) - 1, 0.0)
                       for mem, kc in zip(self.members, k)))
        return w, value


def class_counting_bound(instance: CoverInstance) -> int:
    """The class-counting lower bound of the full instance: the ceiling of its LP value."""
    return _ceil_bound(_ClassCountingBound(instance).lp_dual()[1])


def class_counting_rows(instance: CoverInstance):
    """Constraint rows (class coverage coefficients, target count) per target orbit."""
    return _ClassCountingBound(instance).constraint_rows()


def lower_bound(instance: CoverInstance) -> int:
    """Best of the density, packing, and class-counting bounds."""
    if instance.size == 0:
        return 0
    return _Search(instance).root_bound()


# -- branch and bound -------------------------------------------------------------


# Lagrangian bound (see _Search): float64 error allowance and most subgradient
# steps per node; the pivot cap and tolerance of the class-counting LP's simplex
_EPS = 1e-6
_NODE_STEPS = 20
_SIMPLEX_PIVOTS = 100
_PIVOT_TOL = 1e-12
# primal heuristic (see _Search._heuristic): most restarts before the first
# deepening round and after each round that finds no cover, and the spread of
# the random score weights
_FIRST_RESTARTS = 4
_ROUND_RESTARTS = 32
_WEIGHT_SPREAD = 0.3


def _ceil_bound(value: float) -> int:
    """Integer lower bound from a float64 Lagrangian value: ceil(value - _EPS)."""
    return math.ceil(value - _EPS)


class _FoundCover(Exception):
    pass


class _OutOfBudget(Exception):
    pass


@lru_cache(maxsize=64)
def _lower_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.tril_indices(n), shared read-only (building it costs more than a node's arithmetic)."""
    rows, cols = np.tril_indices(n)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


class _Search:
    """Iterative-deepening branch and bound; see the module docstring.

    A node is two float64 vectors: ``unc``, 0/1 per target (1 = uncovered),
    and ``cov``, the coverage vector, whose entries for unavailable
    candidates are <= 0 (set to 0 when a candidate is chosen or excluded,
    they only decrease after that).  All children's vectors come from one
    product with the target x candidate matrix ``hit``; every entry is a
    small integer, so they are exact.  The available candidates are those
    with cov > 0 wherever it matters: a candidate that covers an uncovered
    target has cov >= 1 exactly when it is available.

    A node also carries float64 multipliers ``y >= 0`` from its parent,
    zeroed on covered targets before use.  For any such y, with s = y @ hit
    and "available" the candidates with cov > 0 (the others are unavailable
    or cover no uncovered target),

        L(y) = sum_t y_t + sum_{i available} min(0, 1 - s_i)

    is a lower bound on the number of further candidates any cover below the
    node needs: it is the Lagrangian relaxation of the node's set-cover
    program, so L(y) <= LP <= IP whether or not y is a good choice.  Bounds, in
    order: density, then ``_ascend``: at most ``_NODE_STEPS`` projected
    subgradient steps from the y the parent handed down, each step aiming L
    half a unit past the pruning level (Polyak's rule), stopping as soon as it
    prunes; the node is pruned when depth + ceil(L - eps) >= best.  Then an
    uncovered target with no available candidate (``_branching`` is empty).
    Last, the child check: the node's y (its best after the ascent; y0 at a
    symmetric root), restricted to each child's uncovered targets, bounds every
    child in one batched product before the child is entered: child j is
    skipped when depth + 1 + ceil(L_j - eps) >= best, and its candidate is
    still zeroed in its later siblings, since its subtree holds no cover below
    best.  L_j is at least L + (1 - s_i) - 1, the Lagrangian bound with the
    child's candidate i fixed into the cover, so this is reduced-cost fixing
    and more.  A visited child starts from that evaluation.  Since only
    subtrees without a cover below best go, the depth-first order and the first
    cover found stay those of the search without the Lagrangian
    (``tests/oracles.py::ScanningSearch``).  The certificate is that cover
    unless ``_heuristic`` found one of the optimal size before the round that
    proves it; then the solve ends early with the heuristic's cover.

    Why float64 and eps = 1e-6: L is a sum of at most |targets| + |candidates|
    float64 terms, each a small multiple of the instance size at most, so its
    rounding error, a few ulps per term, stays well below 1e-6 on instances
    the group cap allows, and ceil(L - eps) never exceeds the ceiling of the
    exact L(y) of the y actually held.  Without eps, sums that are exactly an
    integer do come out a few ulps above it, and the search then misses
    optima (PGL(2,9) and S6 among the golden groups).

    The root multipliers are the class-counting LP dual (``lp_dual``),
    constant on target orbits; for conjugation-symmetric instances they are
    optimal for the root LP.  Its value, rounded up, is the class-counting
    term of the root bound, and its dual seeds every deepening round; the
    program is built on first use (``ccb``).  A symmetric root runs no
    ascent: y0 is already optimal for its LP, so no step can raise L.  There
    the child check subsumes reduced-cost fixing by class: s_i <= load_c =
    sum_T k[c][T] w_T for the pick i of class c (k is a maximum over the
    class) and L >= value, so 1 + L_c >= value + 1 - load_c.

    Every node but a symmetric root ascends, at about ten nodes' work each.
    Against no ascent in the first 64 nodes this cuts nodes (PGL(2,9) 76 -> 9,
    PGL(2,17) 502 -> 380) and time, except on A7: no bound prunes its 41-deep
    dive to the optimum, so 87 -> 47 nodes take 95-123 ms, not 54-85 ms
    (best of 7 solves, process time, one core).
    """

    def __init__(self, instance: CoverInstance):
        self.inst = instance
        self.elements = [c.element for c in instance.candidates]
        self.nu = instance.size
        self.row_sizes = instance.covers.sum(axis=1).tolist()
        self.hit = instance.covers.T.astype(np.float64)  # hit[t, i]: candidate i covers t
        self.row_vecs = np.ascontiguousarray(self.hit.T)
        self.nodes = 0

    @cached_property
    def ccb(self) -> _ClassCountingBound:  # built on first read, which greedy_cover never makes
        return _ClassCountingBound(self.inst)

    @cached_property
    def root_branches(self):
        """(picks, zeroed rows and columns of its children) at a symmetric root, else None: branch j
        picks the least member of class j and zeroes classes 0..j-1, which the branches before it took."""
        if not self.inst.conjugation_symmetric:
            return None
        members = self.ccb.members
        zeroed = [[mem[0]] + [i for low in members[:j] for i in low] for j, mem in enumerate(members)]
        return ([mem[0] for mem in members], [j for j, z in enumerate(zeroed) for _ in z],
                [i for z in zeroed for i in z])

    def _density(self, unc: np.ndarray, cov: np.ndarray) -> int:
        best_cov = int(cov.max(initial=0))
        return -(-int(np.count_nonzero(unc)) // best_cov) if best_cov else 1 << 30

    def _packing(self) -> int:
        """Greedy count of candidate-disjoint targets, in target order: a target with
        candidates counts unless a candidate of a counted target covers it."""
        covers = self.inst.covers
        blocked = ~covers.any(axis=0)
        packing = 0
        while not blocked.all():
            packing += 1
            blocked |= covers[covers[:, blocked.argmin()]].any(axis=0)
        return packing

    def root_bound(self) -> int:
        """Best of the density, packing and class-counting bounds at the root."""
        cov, unc = self.hit.sum(axis=0), np.ones(self.nu)
        return max(self._density(unc, cov), self._packing(), _ceil_bound(self.ccb.lp_dual()[1]))

    def _branching(self, unc: np.ndarray, cov: np.ndarray) -> list[int]:
        """Available candidates of the first uncovered target with the fewest (empty when it has
        none), largest cov first and ties in index order."""
        act = cov > 0
        t = np.where(unc > 0, self.hit @ act, np.inf).argmin()
        order = np.flatnonzero(self.inst.covers[:, t] & act)
        return order[np.argsort(-cov[order], kind="stable")].tolist()

    def _children(self, cov, unc, picks, off_rows, off_cols):
        """Vectors of the children choosing picks[j]; (off_rows, off_cols) are zeroed."""
        newly = self.row_vecs[picks] * unc
        covs = cov - newly @ self.hit
        covs[off_rows, off_cols] = 0
        return covs, unc - newly

    def lagrangian(self, y: np.ndarray, act: np.ndarray):
        """(L(y), s, over) for one node, or for a batch of nodes given one per row.

        s = y @ hit and over marks the candidates in act with 1 - s < 0.  y
        must be zero on covered targets; act marks the available candidates.
        """
        s = y @ self.hit
        over = (s > 1) & act
        return y.sum(axis=-1) - np.where(over, s - 1, 0).sum(axis=-1), s, over

    def _ascend(self, y: np.ndarray, unc: np.ndarray, cov: np.ndarray, need: int,
                first: Optional[tuple[float, np.ndarray]] = None):
        """(L, y) at the best of at most _NODE_STEPS evaluations of L, from y on.

        first, when the parent computed it, is (L, s) at y, and y is then
        already zero on covered targets.  Stops once ceil(L - eps) reaches
        need.  Each step moves y along the subgradient 1 - hit @ over on the
        uncovered targets, zeroed where y is 0 and it points down, by Polyak's
        rule aimed at L = need - 1/2.
        """
        act = cov > 0
        if first is None:
            y = y * unc
            L, s, over = self.lagrangian(y, act)
        else:
            L, s = first
            over = (s > 1) & act
        best = L, y
        aim = need - 0.5
        for _ in range(_NODE_STEPS - 1):
            if _ceil_bound(L) >= need:
                break
            g = unc - self.hit @ over
            g[(g < 0) & (y <= 0)] = 0
            nrm = g @ g
            if not nrm:
                break  # over covers every uncovered target with y > 0 exactly once: y is optimal
            y = np.maximum(y + (aim - L) / nrm * g, 0)
            L, s, over = self.lagrangian(y, act)
            if L > best[0]:
                best = L, y
        return best

    def _restart(self, rng: Optional[random.Random]) -> list[int]:
        """One greedy cover, as candidate indices, with no redundant pick.

        Candidate i scores w_i |row_i & uncovered|, with one weight
        w_i = 1 + _WEIGHT_SPREAD U[0,1) per candidate drawn for the restart,
        or w_i = 1 when rng is None (max-coverage greedy); the best score is
        picked (ties to the least index; ``reduce_instance`` lists candidates
        by element) until every target is covered.  The counts
        |row_i & uncovered| are kept like a node's cov: a pick subtracts the
        matrix rows of the targets it newly covers.  Then, smallest rows
        first, a pick is dropped when the other picks still cover every
        target.  Raises InfeasibleUniverse when some target has no candidate.
        """
        weights = 1 if rng is None else 1 + _WEIGHT_SPREAD * np.array([rng.random() for _ in self.row_sizes])
        counts = np.array(self.row_sizes, dtype=np.float64)
        unc = np.ones(self.nu, dtype=bool)
        picks: list[int] = []
        while unc.any():
            scores = weights * counts
            if not scores.any():
                raise InfeasibleUniverse("greedy stuck: uncovered target with no candidate")
            i = int(scores.argmax())  # the first of the best
            picks.append(i)
            newly = self.inst.covers[i] & unc
            unc &= ~newly
            counts -= self.hit[newly].sum(axis=0)
        count = self.row_vecs[picks].sum(axis=0)  # picks covering each target
        for i in sorted(picks, key=self.row_sizes.__getitem__):
            rest = count - self.row_vecs[i]
            if rest.min() > 0:
                count = rest
                picks.remove(i)
        return picks

    def _heuristic(self, rng: random.Random, restarts: int, lo: int, ub: int) -> Optional[list[int]]:
        """The smallest cover below ub from at most ``restarts`` restarts, or None.

        Stops at the first cover of size <= lo (lo is proven, so it is
        optimal) and when the deadline has passed.
        """
        best = None
        for _ in range(restarts):
            if time.monotonic() >= self.deadline:
                break
            picks = self._restart(rng)
            if len(picks) < ub:
                best, ub = picks, len(picks)
                if ub <= lo:
                    break
        return best

    def solve(self, budget: SolveBudget, floor: int) -> CoverOutcome:
        t0 = time.monotonic()
        self.deadline = t0 + budget.time_limit
        self.node_limit = budget.node_limit
        if not self.inst.feasible():
            return CoverOutcome(INFEASIBLE, 0, None, None, self.inst.involutions_only,
                                seconds=time.monotonic() - t0)
        root = self.root_bound()
        incumbent = [self.elements[i] for i in self._restart(None)]
        ub = len(incumbent)
        lo = min(max(floor, root), ub)
        cov, unc = self.hit.sum(axis=0), np.ones(self.nu)
        y0 = np.array(self.ccb.lp_dual()[0])[self.ccb.target_orbit]  # the LP dual spread over the targets
        rng = random.Random(0)  # one seed per solve: an instance always gets the same certificate
        restarts = _FIRST_RESTARTS
        timed_out = False
        while lo < ub:
            better = self._heuristic(rng, restarts, lo, ub)
            restarts = _ROUND_RESTARTS
            if better is not None:
                incumbent = [self.elements[i] for i in better]
                ub = len(better)
                if ub == lo:
                    break
            self.best = lo + 1
            self.found: Optional[list[int]] = None
            try:
                self._descend(0, [], cov, unc, y0, None)
            except _FoundCover:
                pass
            except _OutOfBudget:
                timed_out = True
                break
            if self.found is not None:
                incumbent = [self.elements[i] for i in self.found]
                ub = len(self.found)
                lo = ub
            else:
                lo += 1
        status = EXACT if not timed_out else INTERVAL
        return CoverOutcome(
            status,
            lo,
            ub,
            incumbent,  # on Interval this is still a valid cover of size upper
            self.inst.involutions_only,
            nodes=self.nodes,
            seconds=time.monotonic() - t0,
        )

    def _descend(self, depth: int, chosen: list[int], cov: np.ndarray, unc: np.ndarray, y: np.ndarray,
                 first: Optional[tuple[float, np.ndarray]]):
        self.nodes += 1
        if self.nodes > self.node_limit or time.monotonic() >= self.deadline:
            raise _OutOfBudget
        if not unc.any():
            self.best = depth
            self.found = list(chosen)
            raise _FoundCover
        if depth + self._density(unc, cov) >= self.best:  # the density bound is at least 1 here
            return
        need = self.best - depth
        if depth == 0 and self.root_branches is not None:
            order, off_rows, off_cols = self.root_branches
        else:
            L, y = self._ascend(y, unc, cov, need, first)
            if _ceil_bound(L) >= need:
                return
            order = self._branching(unc, cov)
            if not order:
                return
            # child j zeroes the candidates it chose or excluded: order[:j + 1]
            off_rows, off_pos = _lower_triangle(len(order))
            off_cols = np.asarray(order)[off_pos]
        covs, uncs = self._children(cov, unc, order, off_rows, off_cols)
        # every child's bound at this node's multipliers, in one product
        ys = y * uncs
        Ls, ss, _ = self.lagrangian(ys, covs > 0)
        for j, (i, L) in enumerate(zip(order, Ls.tolist())):
            if _ceil_bound(L) < need - 1:
                chosen.append(i)
                self._descend(depth + 1, chosen, covs[j], uncs[j], ys[j], (L, ss[j]))
                chosen.pop()


def solve_exact(instance: CoverInstance, budget: Optional[SolveBudget] = None) -> CoverOutcome:
    """Minimum cover of the instance: Exact, Interval (budget hit), or Infeasible."""
    budget = budget or SolveBudget()
    out = _Search(instance).solve(budget, floor=instance.alpha_floor)
    out.notes = list(instance.notes)
    return out


# -- pipelines --------------------------------------------------------------------


MODE_ALL = "all"
MODE_INVOLUTIONS = "involutions"


def solve_alpha(table: GroupTable, mode: str = MODE_ALL, budget: Optional[SolveBudget] = None) -> CoverOutcome:
    """End-to-end covering number of one enumerated group.

    Nontrivial radical and mode=all: the problem passes to G/R(G) (coverings
    correspond exactly); the certificate then names quotient elements and is
    flagged.  Involution mode always works on the original table, since an
    involutionary cover of the quotient need not lift to involutions.
    """
    if mode not in (MODE_ALL, MODE_INVOLUTIONS):
        raise BadParameter(f"unknown mode {mode!r}")
    budget = budget or SolveBudget()
    if table.is_group_solvable():
        raise GroupSolvable("alpha is undefined for solvable groups")
    quotient_level = False
    work = table
    if mode == MODE_ALL:
        radical = solvable_radical(table)
        if len(radical) > 1:
            work = quotient_by(table, radical)
            quotient_level = True
    inc = sol_incidence(work)
    try:
        inst = reduce_instance(inc, involutions_only=(mode == MODE_INVOLUTIONS))
    except InfeasibleUniverse:
        return CoverOutcome(INFEASIBLE, 0, None, None, mode == MODE_INVOLUTIONS,
                            quotient_level=quotient_level)
    out = solve_exact(inst, budget)
    out.quotient_level = quotient_level
    if out.certificate is not None:
        out.certificate_perms = [work.permutation(i) for i in out.certificate]
    return out


def solve_product(tables: Sequence[GroupTable], mode: str = MODE_ALL,
                  budget: Optional[SolveBudget] = None) -> CoverOutcome:
    """Covering number of a direct product from its factors (product theorems).

    Solvable factors drop out; otherwise the value is the minimum over the
    factors.  In involution mode infeasible factors are ignored unless every
    factor is infeasible.  The winning factor's certificate embeds as
    (x, 1, ..., 1), so the returned permutations act on the disjoint union.
    """
    budget = budget or SolveBudget()
    degrees = [t.degree for t in tables]
    outcomes: list[Optional[CoverOutcome]] = []
    nonsolvable = 0
    for t in tables:
        if t.is_group_solvable():
            outcomes.append(None)
            continue
        nonsolvable += 1
        outcomes.append(solve_alpha(t, mode, budget))
    if nonsolvable == 0:
        raise GroupSolvable("every factor is solvable, so the product is solvable")
    usable = [(i, o) for i, o in enumerate(outcomes) if o is not None and o.status != INFEASIBLE]
    if not usable:
        return CoverOutcome(INFEASIBLE, 0, None, None, mode == MODE_INVOLUTIONS,
                            notes=["every nonsolvable factor is involution-infeasible"])
    lower = min(o.lower for _, o in usable)
    upper = min(o.upper for _, o in usable)
    best_i, best = min(usable, key=lambda io: (io[1].upper, io[0]))
    status = EXACT if lower == upper else INTERVAL
    cert_perms = None
    if best.certificate_perms is not None and not best.quotient_level and status == EXACT:
        cert_perms = [_shift(p, sum(degrees[:best_i]), sum(degrees)) for p in best.certificate_perms]
    notes = [f"factor {i}: {o.render()}" for i, o in usable]
    notes += [f"factor {i}: solvable, dropped" for i, o in enumerate(outcomes) if o is None]
    notes += [f"factor {i}: involution-infeasible, ignored in min"
              for i, o in enumerate(outcomes) if o is not None and o.status == INFEASIBLE]
    return CoverOutcome(status, lower, upper, None, mode == MODE_INVOLUTIONS,
                        nodes=sum(o.nodes for _, o in usable),
                        certificate_perms=cert_perms, notes=notes)


def solve_wreath(base_table: GroupTable, mode: str = MODE_ALL,
                 budget: Optional[SolveBudget] = None) -> CoverOutcome:
    """Wreath-product fast path: 3 <= alpha(H wr K) <= alpha(H), no enumeration.

    Exact exactly when the base value is 3; involution mode has no wreath
    theorem, so only the generic floor survives on the lower side.
    """
    budget = budget or SolveBudget()
    if mode != MODE_ALL:
        raise BadParameter("the wreath fast path only supports mode=all; build the group to solve involutions")
    base = solve_alpha(base_table, MODE_ALL, budget)
    upper = base.upper
    status = EXACT if upper == 3 else INTERVAL
    return CoverOutcome(status, 3, upper, None, False,
                        notes=[f"wreath bound: 3 <= alpha <= alpha(base) = {base.render()}"])


def spec_solver(spec: GroupSpec, budget: Optional[SolveBudget] = None,
                cap: int = DEFAULT_CAP) -> tuple[Optional[int], Callable[[str], CoverOutcome]]:
    """(group order, solve(mode)) for a spec, each table built once for every mode.

    Products and wreath products are not enumerated: |A x B| = |A||B| and the
    product theorems solve from the factors; |H wr K| = |H|^n |K| and mode
    all takes the wreath bound from the base (involution mode builds the
    group).  The order is None when the wreath's top group cannot be built.
    """
    budget = budget or SolveBudget()
    if spec.kind == "product":
        factors = [build(s, cap) for s in spec.params]
        return math.prod(t.order for t in factors), lambda mode: solve_product(factors, mode, budget)
    if spec.kind == "wreath":
        base_spec, n, top = spec.params
        base = build(base_spec, cap)
        try:
            order = base.order ** n * enumerate_group(list(top), cap).order
        except SolvcoverError:
            order = None

        def solve(mode):
            if mode == MODE_ALL:
                return solve_wreath(base, mode, budget)
            return solve_alpha(build(spec, cap), mode, budget)
        return order, solve
    table = build(spec, cap)
    return table.order, lambda mode: solve_alpha(table, mode, budget)


def solve_spec(spec: GroupSpec, mode: str = MODE_ALL, budget: Optional[SolveBudget] = None,
               cap: int = DEFAULT_CAP) -> CoverOutcome:
    """Dispatch: product/wreath fast paths when available, else build and solve."""
    return spec_solver(spec, budget, cap)[1](mode)
