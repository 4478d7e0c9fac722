"""Line-oriented result records and certificate files.

Result records are plain key/value text with two-space-indented list items,
no serialization library involved.  Certificate files carry one permutation
per line in 1-based cycle notation; '#' starts a comment, blank lines are
ignored.  Deterministic re-solves produce byte-identical records apart from
the timing fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .cover import EXACT, INFEASIBLE, INTERVAL, CoverOutcome, render_outcome
from .errors import BadParameter
from .perm import Permutation, format_cycles, min_degree_of, parse_cycles

ENGINE_VERSION = "solvcover 0.1.0"


@dataclass
class OutcomeRecord:
    status: str
    lower: int
    upper: Optional[int]
    nodes: int = 0
    seconds: float = 0.0
    quotient_level: bool = False
    certificate: Optional[list[str]] = None      # cycle-notation strings

    @classmethod
    def from_outcome(cls, out: CoverOutcome, with_certificate: bool) -> "OutcomeRecord":
        cert = None
        if with_certificate and out.certificate_perms:
            cert = [format_cycles(p) for p in out.certificate_perms]
        return cls(out.status, out.lower, out.upper, out.nodes, out.seconds,
                   out.quotient_level, cert)

    def render_value(self) -> str:
        return render_outcome(self.status, self.lower, self.upper)


def _number(kind, key: str, val: str):
    """kind(val) for a record field, BadParameter when val does not parse."""
    try:
        return kind(val)
    except ValueError:
        raise BadParameter(f"bad record value for {key!r}: {val!r}") from None


def _choice(key: str, val: Optional[str], allowed: tuple[str, ...]) -> str:
    """val itself when it is one of allowed, BadParameter otherwise (a missing val included)."""
    if val not in allowed:
        raise BadParameter(f"bad record value for {key!r}: {val!r}")
    return val


@dataclass
class ResultRecord:
    group: str
    order: Optional[int]
    alpha: Optional[OutcomeRecord] = None
    alpha_inv: Optional[OutcomeRecord] = None
    reduction_log: list[str] = field(default_factory=list)
    engine: str = ENGINE_VERSION

    def to_text(self) -> str:
        lines = [f"group: {self.group}"]
        lines.append(f"order: {self.order if self.order is not None else 'unknown'}")
        lines.append(f"engine: {self.engine}")
        for label, rec in (("alpha", self.alpha), ("alpha_inv", self.alpha_inv)):
            if rec is None:
                continue
            lines.append(f"{label}: {rec.render_value()}")
            lines.append(f"{label}.status: {rec.status}")
            lines.append(f"{label}.lower: {rec.lower}")
            lines.append(f"{label}.upper: {rec.upper if rec.upper is not None else 'none'}")
            lines.append(f"{label}.nodes: {rec.nodes}")
            lines.append(f"{label}.seconds: {rec.seconds:.3f}")
            lines.append(f"{label}.quotient_level: {str(rec.quotient_level).lower()}")
            if rec.certificate is not None:
                lines.append(f"{label}.certificate:")
                for c in rec.certificate:
                    lines.append(f"  {c}")
        if self.reduction_log:
            lines.append("reduction_log:")
            for item in self.reduction_log:
                lines.append(f"  {item}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ResultRecord":
        rec = cls(group="", order=None)
        current_list: Optional[list[str]] = None
        sub: dict[str, dict] = {"alpha": {}, "alpha_inv": {}}
        for raw in text.splitlines():
            if not raw.strip():
                continue
            if raw.startswith("  ") and current_list is not None:
                current_list.append(raw[2:])
                continue
            current_list = None
            if ":" not in raw:
                raise BadParameter(f"bad record line: {raw!r}")
            key, _, val = raw.partition(":")
            key, val = key.strip(), val.strip()
            if key == "group":
                rec.group = val
            elif key == "order":
                rec.order = None if val == "unknown" else _number(int, key, val)
            elif key == "engine":
                rec.engine = val
            elif key == "reduction_log":
                current_list = rec.reduction_log
            elif key in ("alpha", "alpha_inv"):
                sub[key]["value"] = val
            elif "." in key:
                label, _, fieldname = key.partition(".")
                if label not in sub:
                    raise BadParameter(f"bad record key: {key!r}")
                if fieldname == "certificate":
                    current_list = sub[label].setdefault("certificate", [])
                else:
                    sub[label][fieldname] = val
        for label, attr in (("alpha", "alpha"), ("alpha_inv", "alpha_inv")):
            d = sub[label]
            if not d:
                continue
            upper = d.get("upper", "none")
            setattr(rec, attr, OutcomeRecord(
                status=_choice(f"{label}.status", d.get("status"), (EXACT, INTERVAL, INFEASIBLE)),
                lower=_number(int, f"{label}.lower", d.get("lower", "0")),
                upper=None if upper == "none" else _number(int, f"{label}.upper", upper),
                nodes=_number(int, f"{label}.nodes", d.get("nodes", "0")),
                seconds=_number(float, f"{label}.seconds", d.get("seconds", "0")),
                quotient_level=_choice(f"{label}.quotient_level", d.get("quotient_level", "false"),
                                       ("true", "false")) == "true",
                certificate=d.get("certificate"),
            ))
        return rec

    def stable_text(self) -> str:
        """Record text with timing lines removed (for re-solve comparisons)."""
        keep = []
        for line in self.to_text().splitlines():
            key = line.partition(":")[0].strip()
            if key.endswith(".seconds"):
                continue
            keep.append(line)
        return "\n".join(keep) + "\n"


# -- certificate files -----------------------------------------------------------


def parse_certificate_lines(text: str, degree: Optional[int] = None) -> list[Permutation]:
    entries = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            entries.append(line)
    if not entries:
        return []
    if degree is None:
        degree = max(min_degree_of(e) for e in entries)
    return [parse_cycles(e, degree) for e in entries]


def format_certificate_lines(perms: list[Permutation], header: str = "") -> str:
    lines = []
    if header:
        for h in header.splitlines():
            lines.append(f"# {h}")
    lines += [format_cycles(p) for p in perms]
    return "\n".join(lines) + "\n"
