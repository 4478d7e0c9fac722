"""Run one benchmark workload of solvcover and print its metrics.

    python3 perfbench/run.py --workload sol --seed 1 --seconds 25 --trace 0

Run from the repository root.  One closed-loop client in one process, no
threads: set-up is repeated SETUP_REPEATS times, then timed passes over the
workload's ops (in an order drawn from the seed) run until ``--seconds`` is
used up, and every op's result is checked after its pass.  ``--trace 0``
reports the end-to-end metrics, each time scaled to the speed of a fixed
reference computation run next to it (see reference.py).  For ``setup_s``,
the package import is also timed in a fresh interpreter before the first
pass and after every pass.
``--trace 1`` wraps each layer's entry point (see tracing.py) and reports
per-layer totals per pass instead, and writes the spans to
``perfbench/_out/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

SETUP_REPEATS = 3

END_TO_END_UNITS = {"pass_s": "s", "pass_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Why these groups: see README.md.  `sol` and `search` were cut down from
# larger groups so that a run, set-up included, stays well under a minute.
SOL_GROUPS = ("alternating(6)", "psl2(8)")
SEARCH_GROUPS = ("pgl2(9)", "psl2(11)")
WORKLOADS = ("sol", "search", "verify")


def make_workload(name: str):
    import workloads

    if name == "sol":
        return workloads.SolWorkload(SOL_GROUPS, OUT / "sol")
    if name == "search":
        return workloads.SearchWorkload(SEARCH_GROUPS)
    return workloads.VerifyWorkload(ROOT / "src" / "solvcover" / "data" / "certificates")


def measure(workload, seed: int, seconds: float, tracer=None) -> dict:
    """Set up, then run timed passes for ``seconds``; returns raw samples.

    The reference computation (reference.py) runs before the first set-up,
    after every set-up, import and op, and before each pass, outside their
    timing; each timed interval is later scaled by the reference times taken
    right before and after it.
    """
    setups, setup_refs = [], [reference.reference_seconds()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - t0)
        setup_refs.append(reference.reference_seconds())
    ops = workload.ops(state)
    rng = random.Random(seed)
    walls, cpus, op_times, refs = [], [], [], []
    layer_samples, shares, span_passes, failures = [], [], [], []
    op_walls = {str(op): [] for op in ops}
    first_order = None
    attempted = 0
    begin = time.perf_counter()
    imports = [import_seconds()]
    while True:
        order = rng.sample(ops, len(ops))
        first_order = first_order or [str(op) for op in order]
        results, times, pass_refs = [], [], [reference.reference_seconds()]
        wall = cpu = 0.0
        for op_id, op in enumerate(order):
            if tracer is not None:
                tracer.op = op_id
                tracer.active = True
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                results.append((op, workload.run(state, op), None))
            except Exception as exc:  # a raising op is a failed op; the run goes on
                results.append((op, None, f"raised {exc!r}"))
                traceback.print_exc(file=sys.stderr)
            dt, dc = time.perf_counter() - t0, time.process_time() - c0
            if tracer is not None:
                tracer.active = False
            op_walls[str(op)].append(dt)
            wall += dt
            cpu += dc
            times.append((dt, dc))
            pass_refs.append(reference.reference_seconds())
        if tracer is not None:
            spans, counts = tracer.take()
            layer_samples.append(tracing.pass_metrics(spans, counts, wall))
            shares.append(tracing.stage_shares(spans, wall))
            span_passes.append(spans)
        walls.append(wall)
        cpus.append(cpu)
        op_times.append(times)
        refs.append(pass_refs)
        for op, result, reason in results:
            attempted += 1
            if reason is None:
                try:
                    reason = workload.check(state, op, result)
                except Exception as exc:  # a check that cannot complete fails the op
                    traceback.print_exc(file=sys.stderr)
                    reason = f"check raised {exc!r}"
            if reason:
                failures.append(f"{op}: {reason}")
        imports.append(import_seconds())
        if time.perf_counter() - begin + statistics.median(walls) > seconds:
            break
    return {"setups": setups, "setup_refs": setup_refs, "imports": imports, "walls": walls,
            "cpus": cpus, "op_times": op_times, "refs": refs, "attempted": attempted,
            "failures": failures, "layers": layer_samples, "shares": shares, "spans": span_passes,
            "ops_per_pass": len(ops), "first_order": first_order, "op_walls": op_walls}


def import_seconds() -> tuple[float, float]:
    """Seconds to import numpy and the workloads' modules in a fresh interpreter,
    and the reference time taken in the same interpreter right after.

    One import is a fraction of a second, so it catches the machine at one
    speed; ``setup_s`` takes the median of imports spread over the whole run,
    as ``pass_s`` takes the median of its passes.
    """
    code = ("import time; t = time.perf_counter(); import numpy, workloads; "
            "t = time.perf_counter() - t; import reference; "
            "print(t, reference.reference_seconds())")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    took, ref = map(float, out.split())
    return took, ref


def scaled(seconds: float, ref: float) -> float:
    """``seconds`` at the reference speed: as if the reference had taken NOMINAL_S."""
    return seconds * reference.NOMINAL_S / ref


def scaled_passes(raw: dict, column: int) -> list[float]:
    """Each pass's op times (``column`` 0 wall, 1 CPU), each op scaled by the
    mean of the reference times right before and after it, summed per pass."""
    return [sum(scaled(t[column], (before + after) / 2)
                for t, before, after in zip(times, refs, refs[1:]))
            for times, refs in zip(raw["op_times"], raw["refs"])]


def end_to_end_metrics(raw: dict) -> dict:
    """Medians of the scaled samples (see reference.py); the raw ones go to meta."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    refs = raw["setup_refs"]
    return {
        "pass_s": statistics.median(scaled_passes(raw, 0)),
        "pass_cpu_s": statistics.median(scaled_passes(raw, 1)),
        "setup_s": statistics.median(scaled(t, r) for t, r in raw["imports"])
        + statistics.median(scaled(t, (before + after) / 2)
                            for t, before, after in zip(raw["setups"], refs, refs[1:])),
        "peak_rss_mb": peak_kb / 1024,
    }


def medians(samples: list[dict]) -> dict:
    """Per-key median over passes (a key missing from a pass counts as 0)."""
    keys = dict.fromkeys(k for s in samples for k in s)
    return {k: statistics.median(s.get(k, 0.0) for s in samples) for k in keys}


def result(raw: dict, metrics: dict, units: dict) -> dict:
    """The result object printed as the last line of standard output."""
    failed = len(raw["failures"])
    return {
        "correct": failed == 0,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def commit() -> str:
    """HEAD of the checkout's git directory, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, raw: dict) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "workload": args.workload, "seed": args.seed, "traced": bool(args.trace),
        "run_seconds": args.seconds, "passes": len(raw["walls"]),
        "ops_per_pass": raw["ops_per_pass"], "first_pass_order": raw["first_order"],
        "setup_repeats": SETUP_REPEATS, "setup_samples_s": raw["setups"],
        "setup_reference_s": raw["setup_refs"], "import_samples_s": raw["imports"],
        "pass_samples_s": raw["walls"], "pass_cpu_samples_s": raw["cpus"],
        "pass_op_samples_s": raw["op_times"], "pass_reference_s": raw["refs"], "reference_nominal_s": reference.NOMINAL_S,
        "op_samples_s": raw["op_walls"],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "commit": commit(), "src_lines": src_lines,
        "failures": raw["failures"][:20],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "solvcover" / "__init__.py").is_file():
        print(f"error: no solvcover sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = make_workload(args.workload)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        with tracing.install(tracer):
            raw = measure(workload, args.seed, args.seconds, tracer)
        metrics, units = medians(raw["layers"]), tracing.per_layer_units()
    else:
        raw = measure(workload, args.seed, args.seconds)
        metrics, units = end_to_end_metrics(raw), END_TO_END_UNITS
    meta = metadata(args, raw)
    if tracer is not None:
        meta["stage_shares"] = dict(sorted(medians(raw["shares"]).items(), key=lambda kv: -kv[1]))
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracing.write_spans(path, raw["spans"], meta)
        meta["spans_file"] = str(path.relative_to(ROOT))

    failed, attempted = len(raw["failures"]), raw["attempted"]
    print(f"workload {args.workload}  seed {args.seed}  traced {bool(args.trace)}  "
          f"passes {len(raw['walls'])}  ops/pass {raw['ops_per_pass']}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6f} {units[name]}")
    print(f"  {'fail_ratio':34s} {failed / attempted:14.6f} ratio ({failed}/{attempted} ops)")
    if tracer is not None:
        print("  stage shares of bench.pass_s: " + ", ".join(
            f"{name} {share:.1%}" for name, share in meta["stage_shares"].items()))
    for reason in raw["failures"][:20]:
        print(f"  FAILED {reason}")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result(raw, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
