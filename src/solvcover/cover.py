"""Exact anytime minimum set-cover solver and the end-to-end alpha pipeline.

The solver runs iterative deepening on the optimum: for k = lb, lb+1, ... it
searches for a cover of size <= k with the incumbent pinned to k+1, so the
bound prunes at equality.  A completed round with no cover proves lb > k; the
first hit is optimal.  Branching picks the uncovered target with the fewest
remaining candidates; the first chosen candidate is restricted to
conjugacy-class representatives (conjugating an optimal cover is again an
optimal cover, so the lowest class present may be normalized to its
representative).   Pruning bounds, cheapest first: universe density, a greedy
packing of candidate-disjoint targets, and the class-counting bound, an exact
small integer program over (candidate class) x (target orbit) coverage counts
solved by bounded enumeration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .constructions import GroupSpec, build
from .errors import BadParameter, GroupSolvable, InfeasibleUniverse
from .group import DEFAULT_CAP, GroupTable, quotient_by, solvable_radical
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
        if self.time_limit < 0 or self.node_limit < 0:
            raise BadParameter("budget limits must be nonnegative")


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
    """Max-coverage greedy certificate (ties to the smallest element index)."""
    cands = sorted(instance.candidates, key=lambda c: c.element)
    uncovered = instance.full_mask()
    chosen: list[int] = []
    while uncovered:
        best, best_n = None, 0
        for c in cands:
            n = (c.row & uncovered).bit_count()
            if n > best_n:  # scan order is element-ascending, so ties keep the least
                best, best_n = c, n
        if best is None:
            raise InfeasibleUniverse("greedy stuck: uncovered target with no candidate")
        chosen.append(best.element)
        uncovered &= ~best.row
    return chosen


class _ClassCountingBound:
    """Exact min-count bound from per-class coverage counts.

    For each candidate conjugacy class c and target orbit T the coverage count
    |row(x) & T| is constant over x in c (conjugation permutes T and maps rows
    accordingly); the bound minimizes the total candidate count subject to
    sum_c k[c][T] * x_c >= |uncovered & T| for every T, with x_c capped by the
    number of available class members.  Solved exactly by bounded enumeration
    over the handful of classes; values are memoized.
    """

    def __init__(self, instance: CoverInstance):
        cands = instance.candidates
        self.cls_ids = sorted({c.class_id for c in cands})
        self.members = [[i for i, c in enumerate(cands) if c.class_id == cid] for cid in self.cls_ids]
        self.cand_class_pos = {}
        for k, mem in enumerate(self.members):
            for i in mem:
                self.cand_class_pos[i] = k
        tids = sorted(set(instance.target_class))
        self.tmasks = []
        for t in tids:
            m = 0
            for u, tc in enumerate(instance.target_class):
                if tc == t:
                    m |= 1 << u
            self.tmasks.append(m)
        self.k = [
            [max((cands[i].row & tm).bit_count() for i in mem) for tm in self.tmasks]
            for mem in self.members
        ]
        self._memo: dict[tuple, int] = {}

    def constraint_rows(self, instance: CoverInstance):
        """(coefficients, rhs) per target orbit, for reporting and tests."""
        out = []
        for ti, tm in enumerate(self.tmasks):
            coeffs = {self.cls_ids[ci]: self.k[ci][ti] for ci in range(len(self.members))}
            out.append((coeffs, tm.bit_count()))
        return out

    def bound(self, uncovered: int, avail: int) -> int:
        rhs = tuple((uncovered & tm).bit_count() for tm in self.tmasks)
        ubs = tuple(sum(1 for i in mem if (avail >> i) & 1) for mem in self.members)
        key = (rhs, ubs)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        val = self._solve_ip(rhs, ubs)
        self._memo[key] = val
        return val

    def _solve_ip(self, rhs, ubs) -> int:
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


def class_counting_bound(instance: CoverInstance) -> int:
    """The class-counting lower bound of the full instance."""
    b = _ClassCountingBound(instance)
    return b.bound(instance.full_mask(), (1 << len(instance.candidates)) - 1)


def class_counting_rows(instance: CoverInstance):
    """Constraint rows (class coverage coefficients, target count) per target orbit."""
    return _ClassCountingBound(instance).constraint_rows(instance)


def lower_bound(instance: CoverInstance) -> int:
    """Best of the density, packing, and class-counting bounds."""
    if instance.size == 0:
        return 0
    solver = _Search(instance)
    full = instance.full_mask()
    avail = (1 << len(instance.candidates)) - 1
    return max(solver.cheap_bounds(full, avail), solver.ccb.bound(full, avail))


# -- branch and bound -------------------------------------------------------------


class _FoundCover(Exception):
    pass


class _OutOfBudget(Exception):
    pass


class _Search:
    def __init__(self, instance: CoverInstance):
        self.inst = instance
        self.cands = instance.candidates
        self.nu = instance.size
        self.full = instance.full_mask()
        self.cols = []
        for u in range(self.nu):
            m = 0
            for i, c in enumerate(self.cands):
                if (c.row >> u) & 1:
                    m |= 1 << i
            self.cols.append(m)
        self.ccb = _ClassCountingBound(instance)
        self.nodes = 0

    def cheap_bounds(self, uncovered: int, avail: int) -> int:
        best_cov = 0
        a = avail
        while a:
            i = (a & -a).bit_length() - 1
            a &= a - 1
            c = (self.cands[i].row & uncovered).bit_count()
            if c > best_cov:
                best_cov = c
        if best_cov == 0:
            return 1 << 30
        nu = uncovered.bit_count()
        density = -(-nu // best_cov)
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

    def solve(self, budget: SolveBudget, floor: int, root_symmetry: bool = True) -> CoverOutcome:
        t0 = time.monotonic()
        self.deadline = t0 + budget.time_limit
        self.node_limit = budget.node_limit
        self.root_symmetry = root_symmetry
        avail = (1 << len(self.cands)) - 1
        if not self.inst.feasible():
            return CoverOutcome(INFEASIBLE, 0, None, None, self.inst.involutions_only,
                                seconds=time.monotonic() - t0)
        incumbent = greedy_cover(self.inst)
        ub = len(incumbent)
        lo = max(floor, self.cheap_bounds(self.full, avail), self.ccb.bound(self.full, avail))
        lo = min(lo, ub)
        timed_out = False
        while lo < ub:
            self.best = lo + 1
            self.found: Optional[list[int]] = None
            try:
                self._root(avail)
            except _FoundCover:
                pass
            except _OutOfBudget:
                timed_out = True
                break
            if self.found is not None:
                incumbent = [self.cands[i].element for i in self.found]
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

    def _root(self, avail: int):
        if not (self.root_symmetry and self.inst.conjugation_symmetric):
            self._descend(self.full, avail, 0, [])
            return
        # first candidate restricted to class representatives: branch k fixes
        # the lowest candidate class present in the cover and includes its
        # least member; classes are whole conjugation orbits, so any cover
        # normalizes into exactly one branch
        excluded = 0
        for mem in self.ccb.members:
            rep = mem[0]
            row = self.cands[rep].row
            self._descend(self.full & ~row, (avail & ~excluded) & ~(1 << rep), 1, [rep])
            for i in mem:
                excluded |= 1 << i

    def _descend(self, uncovered: int, avail: int, depth: int, chosen: list[int]):
        self.nodes += 1
        if self.nodes > self.node_limit or (self.nodes % 256 == 0 and time.monotonic() > self.deadline):
            raise _OutOfBudget
        if not uncovered:
            self.best = depth
            self.found = list(chosen)
            raise _FoundCover
        if depth + 1 >= self.best:
            return
        bound = self.cheap_bounds(uncovered, avail)
        if depth + bound >= self.best:
            return
        if depth + self.ccb.bound(uncovered, avail) >= self.best:
            return
        # branch on the uncovered target with fewest remaining candidates
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
        order = []
        a = pick_col
        while a:
            i = (a & -a).bit_length() - 1
            a &= a - 1
            order.append(i)
        order.sort(key=lambda i: -(self.cands[i].row & uncovered).bit_count())
        excluded = 0
        for i in order:
            chosen.append(i)
            self._descend(uncovered & ~self.cands[i].row, (avail & ~excluded) & ~(1 << i), depth + 1, chosen)
            chosen.pop()
            excluded |= 1 << i


def solve_exact(instance: CoverInstance, budget: Optional[SolveBudget] = None,
                root_symmetry: bool = True) -> CoverOutcome:
    """Minimum cover of the instance: Exact, Interval (budget hit), or Infeasible."""
    budget = budget or SolveBudget()
    out = _Search(instance).solve(budget, floor=instance.alpha_floor, root_symmetry=root_symmetry)
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
        total = sum(degrees)
        offset = sum(degrees[:best_i])
        cert_perms = []
        for p in best.certificate_perms:
            img = np.arange(total)
            img[offset:offset + p.degree] = p.images + offset
            cert_perms.append(Permutation(img))
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


def solve_spec(spec: GroupSpec, mode: str = MODE_ALL, budget: Optional[SolveBudget] = None,
               cap: int = DEFAULT_CAP) -> CoverOutcome:
    """Dispatch: product/wreath fast paths when available, else build and solve."""
    budget = budget or SolveBudget()
    if spec.kind == "product":
        factors = [build(s, cap) for s in spec.params]
        return solve_product(factors, mode, budget)
    if spec.kind == "wreath" and mode == MODE_ALL:
        return solve_wreath(build(spec.params[0], cap), mode, budget)
    return solve_alpha(build(spec, cap), mode, budget)
