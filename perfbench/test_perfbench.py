"""Self-tests of the benchmark's own checks, on a smoke configuration.

    python3 -m pytest -q perfbench

A5 and S5 stand in for the real groups in the ``sol`` and ``search``
shapes.  Nothing here asserts a wall-clock time.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from solvcover import cover, group  # noqa: E402

SMOKE = ("alternating(5)", "symmetric(5)")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def check_schema(res, kind):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int)
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == declared(kind)
    for m in res["metrics"].values():
        assert set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))
    json.dumps(res)


def test_sol_smoke_schema(tmp_path):
    wl = workloads.SolWorkload(SMOKE, tmp_path)
    raw = run.measure(wl, seed=1, seconds=0)
    assert len(raw["imports"]) == len(raw["walls"]) + 1
    res = run.result(raw, run.end_to_end_metrics(raw), run.END_TO_END_UNITS)
    check_schema(res, "end_to_end")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 2
    assert all(res["metrics"][name]["value"] > 0 for name in res["metrics"])


class RecordingSearch(workloads.SearchWorkload):
    """Keeps every outcome the ops return, to compare with the traced counts."""

    def __init__(self, groups):
        super().__init__(groups)
        self.outcomes = []

    def run(self, tables, op):
        out = super().run(tables, op)
        self.outcomes.append(out)
        return out


def test_search_smoke_traced_schema():
    wl = RecordingSearch(SMOKE)
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        raw = run.measure(wl, seed=1, seconds=0, tracer=tracer)
    res = run.result(raw, run.medians(raw["layers"]), tracing.per_layer_units())
    check_schema(res, "per_layer")
    assert res["correct"] and res["attempted"] == 4 and len(wl.outcomes) == 4
    layers = {name: m["value"] for name, m in res["metrics"].items()}
    # one pass: the traced node count is the nodes the pass's outcomes report
    assert layers["cover.nodes"] == sum(out.nodes for out in wl.outcomes) > 0
    assert layers["cover.search_s"] > 0 and layers["solvabilizer.reduce_s"] > 0
    assert layers["solvabilizer.sol_classes"] == 0  # set-up filled the Sol cache
    shares = raw["shares"][0]
    assert abs(sum(shares.values()) - 1) < 1e-9


def test_times_are_scaled_by_the_reference_next_to_them():
    nominal = reference.NOMINAL_S
    raw = {"op_times": [[(2.0, 1.0)], [(1.0, 1.0), (3.0, 1.0)], [(3.0, 3.0)]],
           "refs": [[2 * nominal, 2 * nominal], [nominal, nominal, 3 * nominal], [nominal, nominal]],
           "imports": [(0.5, 2 * nominal)], "setups": [1.0, 9.0], "setup_refs": [nominal, nominal, 5 * nominal]}
    m = run.end_to_end_metrics(raw)
    # each op is scaled by the mean of the references around it: 1, 1 + 1.5, 3
    assert m["pass_s"] == pytest.approx(2.5)
    assert m["pass_cpu_s"] == pytest.approx(1.5)  # 0.5, 1 + 0.5, 3
    assert m["setup_s"] == pytest.approx(0.25 + 2.0)  # import 0.25, set-ups 1 and 3
    assert reference.reference_seconds() > 0


def test_wrong_expected_value_counts_as_failure(tmp_path):
    golden = dict(workloads.GOLDEN, **{"alternating(5)": (4, 3)})
    for wl in (workloads.SolWorkload(SMOKE, tmp_path, golden=golden),
               workloads.SearchWorkload(SMOKE, golden=golden)):
        raw = run.measure(wl, seed=3, seconds=0)
        res = run.result(raw, {}, {})
        assert not res["correct"] and res["failed"] == 1, raw["failures"]
        assert "alternating(5)" in raw["failures"][0]


def test_verify_negative_control_and_sizes(tmp_path):
    certs = ROOT / "src" / "solvcover" / "data" / "certificates"
    for name in ("a5.cert", "s5.cert"):
        shutil.copy(certs / name, tmp_path / name)
    wl = workloads.VerifyWorkload(tmp_path)
    ops = wl.setup()
    assert [op.expected for op in ops].count(False) == 1
    raw = run.measure(wl, seed=1, seconds=0)
    assert raw["attempted"] == 3 and raw["failures"] == []
    golden = dict(workloads.GOLDEN, **{"symmetric(5)": (5, 4)})
    raw = run.measure(workloads.VerifyWorkload(tmp_path, golden=golden), seed=1, seconds=0)
    assert len(raw["failures"]) == 1 and "s5.cert" in raw["failures"][0]


def test_rejected_certificate_is_a_failure(tmp_path):
    wl = workloads.SearchWorkload(("alternating(5)",))
    tables = wl.setup()
    out = cover.solve_alpha(tables["alternating(5)"], cover.MODE_ALL)
    out.certificate_perms = out.certificate_perms[:-1]
    reason = wl.check(tables, ("alternating(5)", cover.MODE_ALL), out)
    assert reason and "certificate" in reason


def test_seed_sets_op_order():
    wl = workloads.SearchWorkload(SMOKE)
    orders = [run.measure(wl, seed=s, seconds=0)["first_order"] for s in (5, 5, 6, 8)]
    assert orders[0] == orders[1]
    assert all(sorted(o) == sorted(orders[0]) for o in orders)
    assert len({tuple(o) for o in orders}) > 1


def test_self_time_arithmetic():
    spans = [
        ("cover.solve_alpha", 0.0, 10.0, -1, 0),
        ("solvabilizer.sol", 1.0, 6.0, 0, 0),
        ("group.closure", 2.0, 5.0, 1, 0),
        ("group.closure", 7.0, 8.0, 0, 0),
        ("cover.search", 8.0, 9.0, 0, 0),
    ]
    counts = Counter({"cover.nodes": 50, "group.closure_cut": 1})
    m = tracing.pass_metrics(spans, counts, pass_s=12.0)
    assert m["cover.solve_alpha_s"] == 10 and m["cover.solve_alpha.self_s"] == 10 - 5 - 1 - 1
    assert m["solvabilizer.sol_s"] == 5 and m["solvabilizer.sol.self_s"] == 2
    assert m["group.closure_s"] == 4 and m["group.closure_calls"] == 2
    assert m["group.closure_cut"] == 1
    assert m["bench.pass.self_s"] == 2
    assert m["cover.nodes_per_s"] == 50
    shares = tracing.stage_shares(spans, 12.0)
    # the closure inside Sol is charged to Sol, the top-level one to solve_alpha
    assert shares["solvabilizer.sol"] * 12 == 5
    assert shares["cover.solve_alpha"] * 12 == 4
    assert abs(sum(shares.values()) - 1) < 1e-12


def test_install_restores_entry_points():
    before = (cover.build, cover.solve_exact, group.GroupTable.closure_indices)
    with tracing.install(tracing.Tracer()):
        assert cover.build is not before[0]
    assert (cover.build, cover.solve_exact, group.GroupTable.closure_indices) == before


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sol", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
