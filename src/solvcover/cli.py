"""Command-line surface: solve, verify, table.

Exit codes for solve: 0 on Exact/Infeasible, 2 when any requested mode ends
as an Interval (budget hit); verify: 0 valid, 1 invalid.  Every command exits
1 on an error, a file or directory it cannot read or write included, after
printing one "error: <Type>: ..." line to stderr.
The enumeration cap honors SOLVCOVER_CAP when --cap is absent.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import cover
from .constructions import build, parse_spec
from .cover import INTERVAL, MODE_ALL, MODE_INVOLUTIONS, SolveBudget
from .errors import BadParameter, SolvcoverError
from .group import DEFAULT_CAP
from .perm import format_cycles
from .records import OutcomeRecord, ResultRecord, parse_certificate_lines
from .theorems import Certificate, first_uncovered, verify_certificate


def _cap_from(args) -> int:
    if args.cap is not None:
        return args.cap
    env = os.environ.get("SOLVCOVER_CAP")
    try:
        return int(env) if env else DEFAULT_CAP
    except ValueError:
        raise BadParameter(f"SOLVCOVER_CAP must be an integer, got {env!r}") from None


def cmd_solve(args) -> int:
    cap = _cap_from(args)
    spec = parse_spec(args.group)
    budget = SolveBudget(time_limit=args.time_limit, node_limit=args.node_limit)
    modes = [MODE_ALL, MODE_INVOLUTIONS] if args.mode == "both" else (
        [MODE_ALL] if args.mode == "all" else [MODE_INVOLUTIONS])
    # classes, radicals and Sol live on the tables, so every mode shares them
    order, solve = cover.spec_solver(spec, budget, cap)
    rec = ResultRecord(group=str(spec), order=order)
    exit_code = 0
    for mode in modes:
        out = solve(mode)
        orec = OutcomeRecord.from_outcome(out, with_certificate=args.emit_certificate)
        if mode == MODE_ALL:
            rec.alpha = orec
        else:
            rec.alpha_inv = orec
        rec.reduction_log += [f"{mode}: {n}" for n in out.notes]
        label = "alpha" if mode == MODE_ALL else "alpha_inv"
        print(f"{spec.display_name()}  {label} = {orec.render_value()}"
              + ("  (quotient-level certificate)" if out.quotient_level else ""))
        if out.status == INTERVAL:
            exit_code = 2
    if args.out:
        Path(args.out).write_text(rec.to_text())
        print(f"wrote {args.out}")
    return exit_code


def cmd_verify(args) -> int:
    cap = _cap_from(args)
    spec = parse_spec(args.group)
    table = build(spec, cap)
    perms = parse_certificate_lines(Path(args.certificate).read_text(), degree=table.degree)
    cert = Certificate(spec, args.mode, perms)
    ok = verify_certificate(table, cert)
    if ok:
        print(f"valid: {len(perms)} solvabilizers cover {spec.display_name()}")
        return 0
    missing = first_uncovered(table, cert)
    if missing is None:
        print("invalid: mode constraint violated (non-involution in involutions mode)")
    else:
        p = table.permutation(missing)
        print(f"invalid: element {format_cycles(p)} (order {p.order()}) is uncovered")
    return 1


def cmd_table(args) -> int:
    if not Path(args.results).is_dir():
        raise NotADirectoryError(f"no results directory {args.results!r}")
    rows = []
    for path in sorted(Path(args.results).glob("*.result")):
        rows.append(ResultRecord.from_text(path.read_text()))
    rows.sort(key=lambda r: (r.order if r.order is not None else 1 << 60, r.group))

    def cell(rec):
        if rec is None:
            return "-"
        v = rec.render_value()
        return v if args.tsv else v.replace("inf", "∞")

    cells = [("Order", "Name", "alpha", "alpha_inv")]
    for r in rows:
        cells.append((str(r.order) if r.order is not None else "?", r.group,
                      cell(r.alpha), cell(r.alpha_inv)))
    if args.tsv:
        for row in cells:
            print("\t".join(row))
        return 0
    widths = [max(len(row[i]) for row in cells) for i in range(4)]
    for row in cells:
        print("  ".join(c.rjust(widths[i]) if i != 1 else c.ljust(widths[i])
                        for i, c in enumerate(row)).rstrip())
    return 0


@functools.cache  # built once per process: parse_args keeps no state between calls
def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="solvcover",
        description="Solvabilizer covering numbers of finite nonsolvable groups",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="compute alpha / alpha_inv for a group spec")
    sp.add_argument("--group", required=True, help="e.g. psl2(7), symmetric(6), wreath(psl2(4),2,cycle)")
    sp.add_argument("--mode", choices=["all", "involutions", "both"], default="all")
    sp.add_argument("--time-limit", type=float, default=60.0)
    sp.add_argument("--node-limit", type=int, default=10 ** 7)
    sp.add_argument("--cap", type=int, default=None)
    sp.add_argument("--out", default=None, help="write a ResultRecord file")
    sp.add_argument("--emit-certificate", action="store_true")
    sp.set_defaults(func=cmd_solve)

    vp = sub.add_parser("verify", help="check a certificate file against a group")
    vp.add_argument("--group", required=True)
    vp.add_argument("--certificate", required=True)
    vp.add_argument("--mode", choices=["all", "involutions"], default="all")
    vp.add_argument("--cap", type=int, default=None)
    vp.set_defaults(func=cmd_verify)

    tp = sub.add_parser("table", help="render collected ResultRecord files")
    tp.add_argument("--results", required=True, help="directory of *.result files")
    tp.add_argument("--tsv", action="store_true", help="machine-readable output")
    tp.set_defaults(func=cmd_table)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SolvcoverError, OSError) as e:  # OSError: an unreadable certificate or unwritable --out
        print(f"error: {e.__class__.__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
