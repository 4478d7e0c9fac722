"""The benchmark's workloads: their ops, pinned expected values and checks.

A workload has a set-up (repeated to measure ``setup_s``), a fixed list of
ops that the seed only reorders, ``run`` for one op and ``check`` for its
result.  ``run`` is what a pass times; ``check`` runs after the pass, so the
certificate checks of ``sol`` and ``search`` are not timed.  Every call into
the package goes through a module attribute looked up at call time, so the
traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path

from solvcover import cli, constructions, cover, theorems
from solvcover.errors import InfeasibleUniverse
from solvcover.perm import parse_cycles
from solvcover.records import ResultRecord, parse_certificate_lines
from solvcover.solvabilizer import sol_incidence

#: Expected (alpha, alpha_inv) per group; None = no involution cover exists.
#: Pinned from the GOLDEN table in tests/test_acceptance.py; keep them equal.
GOLDEN = {
    "alternating(5)": (3, 3),
    "symmetric(5)": (5, 5),
    "psl2(7)": (5, None),
    "pgl2(7)": (7, 7),
    "alternating(6)": (9, 9),
    "psl2(8)": (7, 7),
    "psl2(11)": (15, None),
    "m10": (9, 9),
    "pgl2(9)": (8, 8),
    "symmetric(6)": (9, 9),
    "psl2(13)": (13, 13),
    "pgl2(11)": (11, 11),
    "pgammal2(9)": (9, 9),
    "pgammal2(8)": (7, 7),
}

#: The certificate whose copy without its last element is the negative control.
NEGATIVE = "a5.cert"

MODES = (cover.MODE_ALL, cover.MODE_INVOLUTIONS)
LABELS = {cover.MODE_ALL: "alpha", cover.MODE_INVOLUTIONS: "alpha_inv"}


def _expected(golden: dict, group: str, mode: str):
    return golden[group][0 if mode == cover.MODE_ALL else 1]


def _check_value(status: str, value, expected) -> str | None:
    """Failure reason for one solved mode, or None when it matches."""
    if status not in (cover.EXACT, cover.INFEASIBLE):
        return f"status {status}"
    got = None if status == cover.INFEASIBLE else value
    if got != expected:
        return f"value {got}, expected {expected}"
    return None


def _check_certificate(table, group: str, mode: str, perms, value) -> str | None:
    if len(perms) != value:
        return f"certificate has {len(perms)} elements, value is {value}"
    cert = theorems.Certificate(constructions.parse_spec(group), mode, perms)
    if not theorems.verify_certificate(table, cert):
        return "certificate rejected by verify_certificate"
    return None


@dataclass
class SolWorkload:
    """What a user types: ``solvcover solve --mode both --emit-certificate --out``.

    Each op is one in-process ``cli.main`` call for one group.  Set-up builds
    one table per group, kept for checking the emitted certificates.
    """

    groups: tuple
    out_dir: Path
    golden: dict = field(default_factory=lambda: GOLDEN)

    def setup(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return {g: constructions.build(constructions.parse_spec(g)) for g in self.groups}

    def ops(self, tables):
        return list(self.groups)

    def run(self, tables, group):
        path = self.out_dir / (group.replace("(", "_").replace(")", "") + ".result")
        path.unlink(missing_ok=True)
        argv = ["solve", "--group", group, "--mode", "both", "--emit-certificate", "--out", str(path)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, path

    def check(self, tables, group, result) -> str | None:
        code, path = result
        if code != 0 or not path.exists():
            return f"exit code {code}, record {'written' if path.exists() else 'missing'}"
        rec = ResultRecord.from_text(path.read_text())
        table = tables[group]
        for mode in MODES:
            orec = getattr(rec, LABELS[mode])
            if orec is None:
                return f"no {LABELS[mode]} in the record"
            expected = _expected(self.golden, group, mode)
            reason = _check_value(orec.status, orec.lower, expected)
            if reason is None and orec.status == cover.EXACT:
                if orec.quotient_level or not orec.certificate:
                    return f"{LABELS[mode]}: no certificate on the group itself"
                perms = [parse_cycles(c, table.degree) for c in orec.certificate]
                reason = _check_certificate(table, group, mode, perms, orec.lower)
            if reason:
                return f"{LABELS[mode]}: {reason}"
        return None


@dataclass
class SearchWorkload:
    """``cover.solve_alpha`` on tables whose cached ``Sol`` set-up filled.

    Set-up builds each table and reduces it in both modes, which computes
    and caches ``Sol`` for every class the solves touch; the timed ops then
    spend their time in the universe, the reduction and the search.
    """

    groups: tuple
    golden: dict = field(default_factory=lambda: GOLDEN)

    def setup(self):
        tables = {g: constructions.build(constructions.parse_spec(g)) for g in self.groups}
        for table in tables.values():
            incidence = sol_incidence(table)
            for mode in MODES:
                with contextlib.suppress(InfeasibleUniverse):
                    cover.reduce_instance(incidence, involutions_only=(mode == cover.MODE_INVOLUTIONS))
        return tables

    def ops(self, tables):
        return [(g, mode) for g in self.groups for mode in MODES]

    def run(self, tables, op):
        group, mode = op
        return cover.solve_alpha(tables[group], mode)

    def check(self, tables, op, out) -> str | None:
        group, mode = op
        expected = _expected(self.golden, group, mode)
        reason = _check_value(out.status, out.lower, expected)
        if reason is None and out.status == cover.EXACT:
            if out.quotient_level or not out.certificate_perms:
                return "no certificate on the group itself"
            reason = _check_certificate(tables[group], group, mode, out.certificate_perms, out.lower)
        return reason


@dataclass
class CertificateOp:
    name: str
    group: str
    mode: str
    size: int
    text: str
    expected: bool

    def __str__(self):
        return self.name


@dataclass
class VerifyWorkload:
    """Check the shipped certificates, each on a freshly built table.

    Every pass also runs one negative control, ``NEGATIVE`` with its last
    element dropped, which must be rejected.
    """

    cert_dir: Path
    golden: dict = field(default_factory=lambda: GOLDEN)

    def setup(self):
        ops = []
        for path in sorted(self.cert_dir.glob("*.cert")):
            text = path.read_text()
            header = dict(line[2:].split(": ", 1) for line in text.splitlines() if line.startswith("# "))
            group, mode, size = header["group"], header["mode"], int(header["size"])
            ops.append(CertificateOp(path.name, group, mode, size, text, True))
            if path.name == NEGATIVE:
                dropped = "\n".join(text.rstrip("\n").splitlines()[:-1]) + "\n"
                ops.append(CertificateOp(path.name + ":last-dropped", group, mode, size - 1,
                                         dropped, False))
        return ops

    def ops(self, cert_ops):
        return list(cert_ops)

    def run(self, state, op: CertificateOp):
        spec = constructions.parse_spec(op.group)
        table = constructions.build(spec)
        perms = parse_certificate_lines(op.text, degree=table.degree)
        return theorems.verify_certificate(table, theorems.Certificate(spec, op.mode, perms))

    def check(self, state, op: CertificateOp, verdict) -> str | None:
        if verdict is not op.expected:
            return f"verdict {verdict}, expected {op.expected}"
        optimum = _expected(self.golden, op.group, op.mode)
        if op.expected and op.size != optimum:
            return f"certificate size {op.size}, pinned optimum {optimum}"
        return None
