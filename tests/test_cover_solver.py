import dataclasses
import json
import math
import random
from functools import cached_property, lru_cache

import numpy as np
import pytest

import solvcover as sc
from solvcover import cover
from solvcover.solvabilizer import CoverInstance
from solvcover.theorems import Certificate, verify_certificate

import oracles
from test_solvabilizer import GOLDEN_SPECS


def synthetic_instance(rows, nu=None, target_class=None, floor=0):
    """Instance from explicit coverage bitmask rows over nu targets (element = position)."""
    if nu is None:
        nu = max(m.bit_length() for m in rows)
    return oracles.instance_from_rows(rows, range(nu), target_class or [0] * nu, alpha_floor=floor)


# -- greedy ------------------------------------------------------------------------


def test_greedy_singletons():
    inst = synthetic_instance([1 << i for i in range(6)])
    assert len(sc.greedy_cover(inst)) == 6


def test_greedy_a5_valid_and_small(a5_instance):
    cert = sc.greedy_cover(a5_instance)
    assert len(cert) <= 5
    rows = dict(zip(a5_instance.candidates.tolist(), oracles.rows_of(a5_instance)))
    m = 0
    for e in cert:
        m |= rows[e]
    assert m == (1 << a5_instance.size) - 1


def test_greedy_s5_lands_on_the_optimum(s5_instance):
    assert len(sc.greedy_cover(s5_instance)) == 5


def test_greedy_cover_builds_no_class_counting_program_and_a_solve_one(monkeypatch, s5_instance):
    built = []

    class CountedBound(cover._ClassCountingBound):
        def __init__(self, instance):
            built.append(instance)
            super().__init__(instance)

    monkeypatch.setattr(cover, "_ClassCountingBound", CountedBound)
    assert len(sc.greedy_cover(s5_instance)) == 5 and not built
    assert sc.solve_exact(s5_instance).lower == 5 and len(built) == 1


@pytest.mark.parametrize("spec_text", ["symmetric(5)", "alternating(6)", "psl2(11)"])
def test_solve_runs_the_class_counting_simplex_once(monkeypatch, spec_text):
    inst = sc.reduce_instance(sc.sol_incidence(sc.build(sc.parse_spec(spec_text))))
    runs = []
    simplex = cover._ClassCountingBound.lp_dual.func

    def counted(self):
        runs.append(self)
        return simplex(self)

    lp_dual = cached_property(counted)
    lp_dual.__set_name__(cover._ClassCountingBound, "lp_dual")
    monkeypatch.setattr(cover._ClassCountingBound, "lp_dual", lp_dual)
    out = sc.solve_exact(inst)
    assert out.status == sc.EXACT and len(runs) == 1


def test_greedy_infeasible_passthrough():
    inst = synthetic_instance([0b011], nu=3)  # third target uncovered
    with pytest.raises(sc.InfeasibleUniverse):
        sc.greedy_cover(inst)


# -- lower bounds --------------------------------------------------------------------


def test_lower_bound_empty():
    # no targets and no candidates: no column can enter the class LP's simplex
    none = np.zeros(0, dtype=np.int64)
    inst = CoverInstance(universe=none, target_class=none, candidates=none, candidate_class=none,
                         covers=np.zeros((0, 0), dtype=bool))
    assert sc.class_counting_bound(inst) == 0
    out = sc.solve_exact(inst)
    assert (out.status, out.lower, out.upper, out.certificate) == (sc.EXACT, 0, 0, [])


def test_bounds_are_python_ints():
    # numpy's count_nonzero returns np.int64, which json cannot encode
    inst = synthetic_instance([0b0011, 0b1100], nu=4)
    out = sc.solve_exact(inst)
    assert type(sc.class_counting_bound(inst)) is int and type(out.lower) is int
    assert json.loads(json.dumps([sc.class_counting_bound(inst), out.lower, out.upper])) == [2, 2, 2]


def test_a5_class_counting_bound_is_three(a5_instance):
    assert sc.class_counting_bound(a5_instance) == 3


def test_a5_class_counting_rows_reproduce_counting_argument(a5):
    # the order-5 target orbit: 6 targets; involutions cover 2 each, order-3
    # candidates 0, order-5 candidates 1: minimizing forces three involutions
    inst = sc.reduce_instance(sc.sol_incidence(a5), prune_dominated=False)
    rows = sc.class_counting_rows(inst)
    cp = sc.conjugacy_classes(a5)
    five_rows = [r for r in rows if r[1] == 6]
    assert len(five_rows) == 1
    coeffs, rhs = five_rows[0]
    by_order = {}
    for cid, k in coeffs.items():
        o = int(a5.order_of[cp.representatives[cid]])
        by_order.setdefault(o, set()).add(k)
    assert by_order[2] == {2}
    assert by_order[3] == {0}
    assert by_order[5] == {1}
    assert rhs == 6


def test_psl27_bound_at_most_exact(psl27):
    # the class-counting bound, where the deepening starts, is 4 here; the search closes the gap to 5
    inst = sc.reduce_instance(sc.sol_incidence(psl27))
    assert sc.class_counting_bound(inst) == 4


# -- exact solver -------------------------------------------------------------------


def test_solve_a5(a5, a5_instance):
    out = sc.solve_exact(a5_instance)
    assert out.status == sc.EXACT
    assert (out.lower, out.upper) == (3, 3)
    assert len(out.certificate) == 3
    assert all(a5.order_of[e] == 2 for e in out.certificate)


def test_solve_psl27(psl27):
    inst = sc.reduce_instance(sc.sol_incidence(psl27))
    out = sc.solve_exact(inst)
    assert out.status == sc.EXACT and out.lower == 5
    with pytest.raises(sc.InfeasibleUniverse):
        sc.reduce_instance(sc.sol_incidence(psl27), involutions_only=True)


def test_interval_on_tiny_budget(s5_instance):
    out = sc.solve_exact(s5_instance, sc.SolveBudget(time_limit=60, node_limit=1))
    assert out.status == sc.INTERVAL
    assert out.lower <= 5 <= out.upper
    assert len(out.certificate) == out.upper


def test_budget_rejects_nan_and_negative_limits():
    for limits in (dict(time_limit=float("nan")), dict(time_limit=-1.0), dict(node_limit=-1)):
        with pytest.raises(sc.BadParameter):
            sc.SolveBudget(**limits)
    assert sc.SolveBudget(time_limit=math.inf).time_limit == math.inf


def test_infeasible_synthetic():
    inst = synthetic_instance([0b01], nu=2)
    out = sc.solve_exact(inst)
    assert out.status == sc.INFEASIBLE
    assert out.certificate is None


def test_solver_matches_brute_force_on_synthetics():
    rng = np.random.default_rng(31)
    for trial in range(60):
        nu = int(rng.integers(3, 10))
        nc = int(rng.integers(3, 13))
        rows = []
        for _ in range(nc):
            r = 0
            while r == 0:
                r = int(rng.integers(1, 1 << nu))
            rows.append(r)
        inst = synthetic_instance(rows, nu)
        full = (1 << nu) - 1
        brute = oracles.min_cover_size(rows, target=full)
        out = sc.solve_exact(inst)
        if brute is None:
            assert out.status == sc.INFEASIBLE
        else:
            assert out.status == sc.EXACT and out.lower == brute


def test_monotonicity_probes(a5_instance):
    base = sc.solve_exact(a5_instance).lower
    # adding a candidate never increases the optimum
    rows = oracles.rows_of(a5_instance)
    extra = rows[0] | rows[1]
    inst2 = oracles.instance_from_rows(rows + [extra], a5_instance.universe, a5_instance.target_class)
    assert sc.solve_exact(inst2).lower <= base
    # removing a universe target never increases it
    nu = len(a5_instance.universe)
    keep = [i for i in range(nu) if i != 0]
    shrunk = []
    for r in rows:
        m = 0
        for newpos, old in enumerate(keep):
            if (r >> old) & 1:
                m |= 1 << newpos
        shrunk.append(m)
    inst3 = synthetic_instance(shrunk, nu - 1)
    assert sc.solve_exact(inst3).lower <= base


# -- incremental search against the scanning oracle ---------------------------------

# the golden groups of order <= 720 (tests/test_acceptance.py); PSL(2,7) and
# PSL(2,11) have no involution instance (alpha_inv is infinite)
SMALL_GOLDEN = ["alternating(5)", "symmetric(5)", "psl2(7)", "pgl2(7)", "alternating(6)",
                "psl2(8)", "psl2(11)", "m10", "pgl2(9)", "symmetric(6)"]
NO_INVOLUTION_COVER = {("psl2(7)", "involutions"), ("psl2(11)", "involutions")}
SMALL_GOLDEN_INSTANCES = [(g, m) for g in SMALL_GOLDEN for m in ("all", "involutions")
                          if (g, m) not in NO_INVOLUTION_COVER]


@lru_cache(maxsize=None)
def golden_instance(spec_text, mode):
    """Reduced instance of a golden or pinned group; all of them have a trivial radical."""
    table = sc.build(sc.parse_spec(spec_text))
    return sc.reduce_instance(sc.sol_incidence(table), involutions_only=(mode == "involutions"))


@pytest.mark.parametrize("spec_text,mode", SMALL_GOLDEN_INSTANCES)
def test_root_bound_equals_class_counting_program(spec_text, mode):
    # ceil(class LP) is as strong as the integer class-counting program at the root
    inst = golden_instance(spec_text, mode)
    full, avail = (1 << inst.size) - 1, (1 << len(inst.candidates)) - 1
    ccb = oracles.ScanningClassCountingBound(inst)
    program = ccb.bound(full, avail)
    assert program == oracles.min_count_enumerated(ccb.k, [tm.bit_count() for tm in ccb.tmasks],
                                                   [len(mem) for mem in ccb.members])
    assert sc.class_counting_bound(inst) == program


# HiGHS takes 0.5-2.8 s on each instance of these three, under 0.35 s on the others; the scanning oracle
# without root symmetry takes 1.1-3.9 s on each, 0.7 s on all the others together
SLOW_GOLDEN = {"pgl2(9)", "pgl2(11)", "pgammal2(9)"}
FEASIBLE_GOLDEN = [(g, m) for g in GOLDEN_SPECS for m in ("all", "involutions") if (g, m) not in NO_INVOLUTION_COVER]
GOLDEN_INSTANCES = [pytest.param(g, m, marks=[pytest.mark.slow] if g in SLOW_GOLDEN else []) for g, m in FEASIBLE_GOLDEN]
# rows beyond the golden table pinned in tests/test_acceptance.py, all with a trivial radical
BEYOND_GOLDEN_PINS = ["pgl2(19)", "pgammal2(16)", "squished(symmetric(5),symmetric(5))", "pgl2(23)",
                      "wreath(alternating(5),2,cycle)", "product(symmetric(5),alternating(5))",
                      "product(alternating(5),psl2(7))"]


@pytest.mark.parametrize("spec_text,mode", FEASIBLE_GOLDEN + [(g, m) for g in BEYOND_GOLDEN_PINS
                                                              for m in ("all", "involutions")])
def test_density_and_packing_never_beat_the_class_lp(spec_text, mode):
    # both are values of dual-feasible points of the root LP, which the class LP equals on these instances
    inst = golden_instance(spec_text, mode)
    full, avail = (1 << inst.size) - 1, (1 << len(inst.candidates)) - 1
    assert oracles.ScanningSearch(inst).cheap_bounds(full, avail) <= sc.class_counting_bound(inst)


@pytest.mark.parametrize("spec_text,mode", GOLDEN_INSTANCES)
def test_search_optimum_matches_milp(spec_text, mode):
    optimize = pytest.importorskip("scipy.optimize")
    inst = golden_instance(spec_text, mode)
    n = len(inst.candidates)
    res = optimize.milp(np.ones(n), integrality=np.ones(n), bounds=optimize.Bounds(0, 1),
                        constraints=optimize.LinearConstraint(inst.covers.T.astype(float), lb=1))
    assert res.status == 0
    out = sc.solve_exact(inst)
    assert out.status == sc.EXACT and out.lower == round(res.fun)


@pytest.mark.parametrize("spec_text,mode", FEASIBLE_GOLDEN + [("psl2(16)", "all")])
def test_class_counts_match_bitmask_counts(spec_text, mode):
    # one row per class gives the oracle's largest count over the members, because of the CoverInstance
    # contract it relies on: every member has the same count on each target class (the least is the largest)
    inst = golden_instance(spec_text, mode)
    oracle, rows = oracles.ScanningClassCountingBound(inst), oracles.rows_of(inst)
    least = [[min((rows[i] & tm).bit_count() for i in mem) for tm in oracle.tmasks] for mem in oracle.members]
    assert cover._ClassCountingBound(inst).k.tolist() == oracle.k == least
    if spec_text == "psl2(16)":  # rows of different classes coincide: 136, 85 and 51 canonical generators
        assert np.unique(inst.candidate_class, return_counts=True)[1].tolist() == [255, 45, 51, 40]


def assert_lp_dual_is_the_list_simplex(inst):
    # on the engine's own k, the same pivots in the same float64 arithmetic give the same bytes; value sums
    # in another order
    ccb = cover._ClassCountingBound(inst)
    w, value = ccb.lp_dual
    want_w, want_value = oracles.class_lp_dual_lists(ccb.k.tolist(), ccb.sizes.tolist(), ccb.cls_sizes.tolist())
    assert w.dtype == np.float64 and w.tobytes() == np.array(want_w, dtype=np.float64).tobytes()
    assert cover._ceil_bound(value) == cover._ceil_bound(want_value)
    assert value == pytest.approx(want_value, rel=1e-12)


@pytest.mark.parametrize("spec_text,mode", FEASIBLE_GOLDEN)
def test_lp_dual_is_the_list_simplex(spec_text, mode):
    inst = golden_instance(spec_text, mode)
    assert_lp_dual_is_the_list_simplex(inst)
    # every other candidate dropped: other class sizes
    keep = list(range(0, len(inst.candidates), 2))
    assert_lp_dual_is_the_list_simplex(dataclasses.replace(
        inst, candidates=inst.candidates[keep], candidate_class=inst.candidate_class[keep], covers=inst.covers[keep]))


def test_lp_dual_is_the_list_simplex_on_synthetics():
    rng = random.Random(25)
    assert_lp_dual_is_the_list_simplex(oracles.instance_from_rows(
        [0b001, 0b011, 0b100], range(3), [0, 0, 1], candidate_class=[0, 0, 1]))
    for _ in range(3000):  # a ratio tie that the basis index breaks unlike the row order is rare
        nu, n = rng.randint(1, 12), rng.randint(1, 10)
        rows = [rng.getrandbits(nu) for _ in range(n)]
        orbits = [rng.randrange(3) for _ in range(nu)]
        classes = [rng.randrange(4) for _ in range(n)]
        assert_lp_dual_is_the_list_simplex(oracles.instance_from_rows(rows, range(nu), orbits, candidate_class=classes))


def outcome_key(out):
    return out.status, out.lower, out.upper, out.certificate


def covers_instance(inst, elements):
    """Whether the candidates with these elements cover every target of the instance."""
    wanted = set(elements)
    picked = [i for i, x in enumerate(inst.candidates.tolist()) if x in wanted]
    return len(picked) == len(elements) and bool(inst.covers[picked].any(axis=0).all())


def assert_within_oracle(inst, new, old):
    """The oracle's status and bounds, with a cover of size upper, in no more nodes.

    The certificate may come from the primal heuristic, which can end the
    solve before the round in which the oracle finds its first cover.
    """
    assert outcome_key(new)[:3] == outcome_key(old)[:3]
    if new.status != sc.INFEASIBLE:
        assert len(new.certificate) == new.upper and covers_instance(inst, new.certificate)
    assert new.nodes <= old.nodes


def assert_oracle_tree(new, old):
    """The oracle's status, bounds and first cover, found in no more nodes.

    The Lagrangian bound only prunes subtrees holding no cover below the
    incumbent, so the depth-first order and the first cover found stay the oracle's.
    """
    assert outcome_key(new) == outcome_key(old)
    assert new.nodes <= old.nodes


def no_heuristic_cover(search, rng, restarts, lo, ub):
    """Stand-in for ``_Search._heuristic`` that never finds a cover below ub."""
    return None


def solve_with_heuristic(monkeypatch, inst, heuristic=True):
    """solve_exact as shipped, or with a heuristic that never finds a cover.

    Without the heuristic, no restart finds a cover, so the search alone
    supplies the certificate.
    """
    with monkeypatch.context() as m:
        if not heuristic:
            m.setattr(cover._Search, "_heuristic", no_heuristic_cover)
        return sc.solve_exact(inst)


@pytest.mark.parametrize("spec_text,mode", SMALL_GOLDEN_INSTANCES)
def test_search_matches_scanning_oracle(monkeypatch, spec_text, mode):
    inst = golden_instance(spec_text, mode)
    old = oracles.ScanningSearch(inst).solve()
    new = solve_with_heuristic(monkeypatch, inst)
    assert_within_oracle(inst, new, old)
    if spec_text == "pgl2(9)":
        assert new.nodes < old.nodes
    assert_oracle_tree(solve_with_heuristic(monkeypatch, inst, heuristic=False), old)


@pytest.mark.parametrize("spec_text,mode", GOLDEN_INSTANCES)
def test_search_optimum_matches_scanning_oracle_without_root_symmetry(spec_text, mode):
    # the oracle's root branches on a target, like every other node, so the optimum owes nothing to the classes
    inst = golden_instance(spec_text, mode)
    old = oracles.ScanningSearch(inst, root_symmetry=False).solve()
    new = sc.solve_exact(inst)
    assert old.status == new.status == sc.EXACT
    assert (new.lower, new.upper) == (old.lower, old.upper) and covers_instance(inst, new.certificate)


def oracle_synthetics():
    """120 random instances.

    Every candidate is its own class, so the class-counting program has up
    to 12 classes, and the root branches on every candidate.
    """
    rng = np.random.default_rng(7)
    for trial in range(120):
        nu = int(rng.integers(3, 11))
        rows = [int(rng.integers(1, 1 << nu)) for _ in range(int(rng.integers(3, 13)))]
        yield synthetic_instance(rows, nu, target_class=[int(c) for c in rng.integers(0, 3, size=nu)])


def test_search_matches_scanning_oracle_on_synthetics(monkeypatch):
    for inst in oracle_synthetics():
        old = oracles.ScanningSearch(inst).solve()
        assert_within_oracle(inst, solve_with_heuristic(monkeypatch, inst), old)
        assert_oracle_tree(solve_with_heuristic(monkeypatch, inst, heuristic=False), old)


@pytest.mark.parametrize("spec_text,mode", FEASIBLE_GOLDEN)
def test_branching_is_the_bitmask_sweep(monkeypatch, spec_text, mode):
    inst = golden_instance(spec_text, mode)
    cols = oracles.cols_of(inst)
    branching = cover._Search._branching
    orders = []

    def checked_branching(search, unc, cov):
        order = branching(search, unc, cov)
        assert order == oracles.bitmask_sweep(cols, unc, cov)
        orders.append(order)
        return order

    monkeypatch.setattr(cover._Search, "_branching", checked_branching)
    # the search as shipped, and without the heuristic's covers
    nodes = [solve_with_heuristic(monkeypatch, inst, heuristic).nodes for heuristic in (True, False)]
    assert orders or not any(nodes)  # A5, M10 and PGammaL(2,8) close at the class-counting bound


@pytest.mark.parametrize("spec_text,mode", [(g, m) for g in ("pgl2(13)", "psl2(17)") for m in ("all", "involutions")])
def test_branching_runs_only_at_nodes_the_ascent_keeps(monkeypatch, spec_text, mode):
    inst = golden_instance(spec_text, mode)
    ascend, branching = cover._Search._ascend, cover._Search._branching
    last = {"kept": None}  # whether the ascent just run left its node unpruned
    calls = []

    def checked_ascend(search, y, unc, cov, need, first):
        L, y = ascend(search, y, unc, cov, need, first)
        last["kept"] = cover._ceil_bound(L) < need
        return L, y

    def checked_branching(search, unc, cov):
        assert last["kept"] is True  # this node ascended first, and its ascent did not prune it
        last["kept"] = None
        calls.append(1)
        return branching(search, unc, cov)

    monkeypatch.setattr(cover._Search, "_ascend", checked_ascend)
    monkeypatch.setattr(cover._Search, "_branching", checked_branching)
    out = sc.solve_exact(inst)
    assert out.status == sc.EXACT
    assert 0 < len(calls) < out.nodes


def test_ascent_prunes_wherever_universe_density_does(monkeypatch):
    # density, ceil(|uncovered| / max cov), is L(y) at y = unc / max cov, so the
    # ascent needs no density test before it; at the root it never beats the class LP
    ascend = cover._Search._ascend
    fired = []

    def checked_ascend(search, y, unc, cov, need, first):
        L, y = ascend(search, y, unc, cov, need, first)
        best_cov = int(cov.max(initial=0))
        if best_cov <= 0 or -(-int(np.count_nonzero(unc)) // best_cov) >= need:
            assert cover._ceil_bound(L) >= need
            fired.append(need)
        return L, y

    monkeypatch.setattr(cover._Search, "_ascend", checked_ascend)
    for spec_text, mode in FEASIBLE_GOLDEN:
        sc.solve_exact(golden_instance(spec_text, mode))
    for inst in oracle_synthetics():
        for heuristic in (True, False):
            solve_with_heuristic(monkeypatch, inst, heuristic)
    assert fired  # density would have pruned these nodes


@pytest.mark.parametrize("spec_text,mode,most", [("pgl2(9)", "all", 9), ("pgl2(9)", "involutions", 9),
                                                 ("psl2(11)", "all", 11)])
def test_search_ascends_from_the_first_node(spec_text, mode, most):
    # skipping the ascent in the first 64 nodes took 76, 76 and 59 nodes here
    assert sc.solve_exact(golden_instance(spec_text, mode)).nodes <= most


@pytest.mark.parametrize("spec_text,mode", FEASIBLE_GOLDEN)
def test_greedy_cover_is_the_element_scan_greedy_minus_redundant_picks(spec_text, mode):
    inst = golden_instance(spec_text, mode)
    scan = oracles.element_scan_greedy(inst)
    cert = sc.greedy_cover(inst)
    assert cert == oracles.drop_redundant_picks(inst, scan)
    index = {x: i for i, x in enumerate(inst.candidates.tolist())}
    hits = inst.covers[[index[x] for x in cert]].sum(axis=0)  # picks covering each target
    assert hits.min() >= 1
    assert all((hits[inst.covers[index[x]]] == 1).any() for x in cert)
    # the randomized restarts are the same greedy with a weight per candidate
    for seed in range(3):
        rng = random.Random(seed)
        weights = [1 + cover._WEIGHT_SPREAD * rng.random() for _ in inst.candidates]
        picks = cover._Search(inst)._restart(random.Random(seed))
        assert inst.candidates[picks].tolist() == \
            oracles.drop_redundant_picks(inst, oracles.element_scan_greedy(inst, weights))


# -- primal heuristic ----------------------------------------------------------------


@pytest.mark.parametrize("spec_text,mode", FEASIBLE_GOLDEN)
def test_restart_cover_has_no_redundant_pick(spec_text, mode):
    inst = golden_instance(spec_text, mode)
    search = cover._Search(inst)
    rng = random.Random(0)
    for _ in range(4):
        picks = search._restart(rng)
        hits = inst.covers[picks].sum(axis=0)  # picks covering each target
        assert len(set(picks)) == len(picks) and hits.min() >= 1
        # a pick is redundant when every target it covers has another pick
        assert all((hits[inst.covers[i]] == 1).any() for i in picks)


def test_solves_repeat_their_certificate(monkeypatch):
    for mode in ("all", "involutions"):
        inst = golden_instance("pgl2(9)", mode)
        first, second = sc.solve_exact(inst), sc.solve_exact(inst)
        assert first.certificate == second.certificate and first.nodes == second.nodes
        # the certificate is the heuristic's: the search alone takes more nodes
        with monkeypatch.context() as m:
            m.setattr(cover._Search, "_heuristic", no_heuristic_cover)
            assert sc.solve_exact(inst).nodes > first.nodes


@pytest.mark.parametrize("spec_text,mode", SMALL_GOLDEN_INSTANCES)
def test_interval_upper_is_its_certificate(spec_text, mode):
    inst = golden_instance(spec_text, mode)
    optimum, greedy = sc.solve_exact(inst).lower, len(sc.greedy_cover(inst))
    for node_limit in (0, 1, 8, 40):
        out = sc.solve_exact(inst, sc.SolveBudget(node_limit=node_limit))
        assert out.status in (sc.EXACT, sc.INTERVAL)
        assert out.lower <= optimum <= out.upper == len(out.certificate) <= greedy
        assert covers_instance(inst, out.certificate)


@pytest.mark.parametrize("mode", ["all", "involutions"])
def test_zero_time_limit_stops_at_the_first_node(mode):
    # greedy (10) is above the root bound (7), so only the search or the heuristic closes the gap
    inst = golden_instance("pgl2(9)", mode)
    out = sc.solve_exact(inst, sc.SolveBudget(time_limit=0))
    assert out.status == sc.INTERVAL and out.nodes <= 1
    assert out.lower <= 8 <= out.upper == len(out.certificate)
    assert covers_instance(inst, out.certificate)


# -- Lagrangian bound --------------------------------------------------------------

# (target x candidate incidence, y): L(y) is exactly 1, the optimum, but numpy's
# float64 sums come out a few ulps above 1; the eps allowance keeps ceil at 1
FLOAT_EDGE_CASES = [
    ([[1, 1], [1, 1], [0, 1], [0, 1]], [0.3, 0.2, 0.6, 0.7]),
    ([[1, 1, 0], [1, 0, 0], [1, 0, 1], [1, 1, 1]], [0.2, 0.6, 0.4, 0.05]),
    ([[0, 1], [0, 1], [0, 1], [0, 1], [1, 1]], [0.15, 0.6, 0.6, 0.6, 0.7]),
]


def instance_from_incidence(incidence):
    nu = len(incidence)
    rows = [sum(1 << t for t in range(nu) if incidence[t][i]) for i in range(len(incidence[0]))]
    return synthetic_instance(rows, nu)


def residual_vectors(search, uncovered, avail):
    """(unc, cov) of a node: uncovered targets, coverage of the available candidates."""
    unc = np.array([(uncovered >> t) & 1 for t in range(search.nu)], dtype=np.float64)
    cov = np.array([(r & uncovered).bit_count() if (avail >> i) & 1 else 0
                    for i, r in enumerate(oracles.rows_of(search.inst))], dtype=np.float64)
    return unc, cov


def test_lagrangian_never_exceeds_min_cover_on_synthetics():
    rng = np.random.default_rng(23)
    checked = 0
    for trial in range(200):
        nu = int(rng.integers(2, 9))
        rows = [int(rng.integers(1, 1 << nu)) for _ in range(int(rng.integers(2, 9)))]
        inst = synthetic_instance(rows, nu)
        search = cover._Search(inst)
        # a random node: some targets covered, some candidates gone
        uncovered = int(rng.integers(1, 1 << nu))
        avail = int(rng.integers(1, 1 << len(rows)))
        exact = oracles.min_cover_size([r & uncovered for i, r in enumerate(rows) if (avail >> i) & 1],
                                       target=uncovered)
        if exact is None:
            continue
        unc, cov = residual_vectors(search, uncovered, avail)
        for _ in range(10):
            y = rng.exponential(0.5, size=nu) * unc
            L, s, _ = search.lagrangian(y, cov > 0)
            assert cover._ceil_bound(L) <= exact, (trial, y)
            # fixing an available candidate into the cover adds its reduced cost 1 - s_i
            for i in np.flatnonzero(cov > 0):
                rest = uncovered & ~rows[i]
                others = [r & rest for j, r in enumerate(rows) if (avail >> j) & 1 and j != i]
                with_i = 1 + (oracles.min_cover_size(others, target=rest) if rest else 0)
                assert cover._ceil_bound(L + 1 - s[i]) <= with_i, (trial, i, y)
        checked += 1
    assert checked > 100
    for incidence, y in FLOAT_EDGE_CASES:
        search = cover._Search(instance_from_incidence(incidence))
        L, _, _ = search.lagrangian(np.array(y), np.ones(len(incidence[0]), dtype=bool))
        assert cover._ceil_bound(L) <= 1 == oracles.min_cover_size(
            oracles.rows_of(search.inst), target=(1 << search.nu) - 1)


def residual_lp(linprog, search, unc, cov):
    """Optimum of the node's LP relaxation; None when some uncovered target has no candidate."""
    rows, cols = np.flatnonzero(unc), np.flatnonzero(cov > 0)
    a = search.hit[np.ix_(rows, cols)]
    if not len(rows):
        return 0.0
    if (a.sum(axis=1) == 0).any():
        return None
    res = linprog(np.ones(len(cols)), A_ub=-a, b_ub=-np.ones(len(rows)), bounds=(0, 1), method="highs")
    assert res.status == 0
    return res.fun


@pytest.mark.parametrize("spec_text,mode", SMALL_GOLDEN_INSTANCES)
def test_lagrangian_bound_within_residual_lp(spec_text, mode):
    linprog = pytest.importorskip("scipy.optimize").linprog
    inst = golden_instance(spec_text, mode)
    search = cover._Search(inst)
    w, value = search.ccb.lp_dual
    y0 = np.array(w)[search.ccb.target_orbit]
    rows, full = oracles.rows_of(inst), (1 << inst.size) - 1
    n = len(rows)
    unc, cov = residual_vectors(search, full, (1 << n) - 1)
    root = residual_lp(linprog, search, unc, cov)
    # the class-counting LP is the root LP, so the orbit-constant seed is optimal there
    assert value == pytest.approx(root, abs=1e-9)
    assert search.lagrangian(y0, cov > 0)[0] == pytest.approx(root, abs=1e-9)
    rng = np.random.default_rng(len(spec_text))
    for _ in range(8):
        # a random node: a few candidates chosen, a few more excluded
        picked = rng.permutation(n)[:int(rng.integers(1, 8))]
        uncovered = full
        for i in picked[:max(1, len(picked) // 2)]:
            uncovered &= ~rows[i]
        avail = (1 << n) - 1
        for i in picked:
            avail &= ~(1 << int(i))
        unc, cov = residual_vectors(search, uncovered, avail)
        lp = residual_lp(linprog, search, unc, cov)
        if lp is None or not uncovered:
            continue
        y = y0 * unc
        L, _ = search._ascend(y, unc, cov, 1 << 20, search.lagrangian(y, cov > 0)[:2])
        assert L <= lp + 1e-9
        assert cover._ceil_bound(L) <= math.ceil(lp - 1e-9)


@pytest.mark.parametrize("spec_text,mode", SMALL_GOLDEN_INSTANCES)
def test_root_child_check_subsumes_class_reduced_cost(spec_text, mode):
    # the root's child check at y0 skips every class branch that reduced-cost
    # fixing by class skips: class c has reduced cost 1 - load_c in the class LP
    inst = golden_instance(spec_text, mode)
    search = cover._Search(inst)
    w, value = search.ccb.lp_dual
    y0 = np.array(w)[search.ccb.target_orbit]
    load = [sum(a * b for a, b in zip(kc, w)) for kc in search.ccb.k]
    picks, off_rows, off_cols = search.root_branches
    covs, uncs = search._children(search.hit.sum(axis=0), np.ones(search.nu, dtype=np.float64),
                                  picks, off_rows, off_cols)
    Ls, _, _ = search.lagrangian(y0 * uncs, covs > 0)
    assert len(Ls) == len(load)
    for L, load_c in zip(Ls.tolist(), load):
        assert 1 + cover._ceil_bound(L) >= cover._ceil_bound(value + 1 - load_c)


@pytest.mark.parametrize("mode", ["all", "involutions"])
def test_node_limit_interval_matches_oracle(mode):
    # the oracle needs thousands of nodes; the Lagrangian search finishes within
    # 500 and still stops as an interval on 4 (it closes in 9)
    table = sc.build(sc.pgl2(9))
    inst = sc.reduce_instance(sc.sol_incidence(table), involutions_only=(mode == "involutions"))
    for node_limit in (500, 4):
        budget = sc.SolveBudget(node_limit=node_limit)
        out = sc.solve_alpha(table, mode, budget)
        old = oracles.ScanningSearch(inst).solve(budget)
        assert old.status == sc.INTERVAL
        if node_limit == 500:
            assert out.status == sc.EXACT and out.nodes <= node_limit
        else:
            assert out.status == sc.INTERVAL and out.nodes == node_limit + 1
        assert old.lower <= out.lower <= 8 <= out.upper <= old.upper
        assert out.upper == len(out.certificate)
        assert verify_certificate(table, Certificate(sc.pgl2(9), mode, out.certificate_perms))


# -- pipelines ----------------------------------------------------------------------


def test_solve_alpha_rejects_solvable(s4):
    with pytest.raises(sc.GroupSolvable):
        sc.solve_alpha(s4)


def test_solve_alpha_quotient_path(sl25):
    out = sc.solve_alpha(sl25, "all")
    assert out.status == sc.EXACT and out.lower == 3
    assert out.quotient_level
    inv = sc.solve_alpha(sl25, "involutions")
    assert inv.status == sc.INFEASIBLE


def test_solve_alpha_psl29():
    out = sc.solve_alpha(sc.build(sc.psl2(9)))
    assert out.status == sc.EXACT and out.lower == 9


def test_solve_product_min_rule():
    t7 = sc.build(sc.psl2(7))
    t9 = sc.build(sc.psl2(9))
    out = sc.solve_product([t7, t9], "all")
    assert out.status == sc.EXACT and out.lower == 5
    inv = sc.solve_product([t7, t9], "involutions")
    assert inv.status == sc.EXACT and inv.lower == 9
    both_inf = sc.solve_product([t7, sc.build(sc.psl2(7))], "involutions")
    assert both_inf.status == sc.INFEASIBLE


def test_solve_product_drops_solvable_factor(s4):
    out = sc.solve_product([sc.build(sc.psl2(4)), s4], "all")
    assert out.status == sc.EXACT and out.lower == 3
    with pytest.raises(sc.GroupSolvable):
        sc.solve_product([s4, sc.build(sc.symmetric(3))], "all")


def test_product_certificate_embeds(s4):
    t4 = sc.build(sc.psl2(4))
    out = sc.solve_product([t4, s4], "all")
    assert out.certificate_perms is not None
    assert all(p.degree == t4.degree + s4.degree for p in out.certificate_perms)
    # the embedded permutations fix the solvable factor's points
    for p in out.certificate_perms:
        assert np.array_equal(p.images[t4.degree:], np.arange(s4.degree) + t4.degree)
    # and cover the product itself
    spec = sc.direct_product(sc.psl2(4), sc.symmetric(4))
    assert verify_certificate(sc.build(spec), Certificate(spec, "all", out.certificate_perms))


def test_wreath_fast_path():
    out = sc.solve_spec(sc.wreath(sc.psl2(4), 2, "cycle"), "all")
    assert out.status == sc.EXACT and out.lower == 3
    # a base with alpha > 3 stays an interval, no enumeration attempted
    out2 = sc.solve_spec(sc.wreath(sc.psl2(7), 3, "cycle"), "all")
    assert out2.status == sc.INTERVAL and (out2.lower, out2.upper) == (3, 5)
