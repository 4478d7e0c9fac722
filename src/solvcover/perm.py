"""Permutations on points 0..degree-1, plus cycle-notation parsing/formatting.

Products compose right-to-left: (p * q)(x) = p(q(x)).  Files and display use
1-based points in cycle notation; everything internal is 0-based.
"""

from __future__ import annotations

import re
from math import lcm

import numpy as np

from .errors import BadParameter


class Permutation:
    """Immutable bijection of {0..degree-1}, stored as an image array."""

    __slots__ = ("images",)

    def __init__(self, images):
        arr = np.asarray(images, dtype=np.int64)
        if arr.ndim != 1:
            raise BadParameter("permutation images must be a 1-d sequence")
        if sorted(arr.tolist()) != list(range(len(arr))):
            raise BadParameter(f"not a bijection on 0..{len(arr) - 1}: {arr.tolist()}")
        arr.setflags(write=False)
        object.__setattr__(self, "images", arr)

    def __setattr__(self, *a):
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(np.arange(degree))

    @classmethod
    def from_cycles(cls, cycles, degree: int) -> "Permutation":
        """Build from 1-based cycles, e.g. [(1,2,3), (4,5)]."""
        img = list(range(degree))
        for cyc in cycles:
            pts = [c - 1 for c in cyc]
            if any(p < 0 or p >= degree for p in pts) or len(set(pts)) != len(pts):
                raise BadParameter(f"bad cycle {cyc} for degree {degree}")
            for i, p in enumerate(pts):
                img[p] = pts[(i + 1) % len(pts)]
        return cls(img)

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise BadParameter("degree mismatch")
        return Permutation(self.images[other.images])

    def inverse(self) -> "Permutation":
        inv = np.empty(self.degree, dtype=np.int64)
        inv[self.images] = np.arange(self.degree)
        return Permutation(inv)

    def __call__(self, point: int) -> int:
        return int(self.images[point])

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and np.array_equal(self.images, other.images)

    def __hash__(self) -> int:
        return hash(self.images.tobytes())

    def is_identity(self) -> bool:
        return bool(np.all(self.images == np.arange(self.degree)))

    def order(self) -> int:
        return perm_order(self.images)

    def cycles(self):
        """Cycle decomposition as 1-based tuples, longest-first stable order."""
        seen = [False] * self.degree
        out = []
        for s in range(self.degree):
            if seen[s]:
                continue
            cyc = []
            t = s
            while not seen[t]:
                seen[t] = True
                cyc.append(t + 1)
                t = int(self.images[t])
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r}, degree={self.degree})"

    def __str__(self) -> str:
        return format_cycles(self)


def perm_order(images) -> int:
    """Order of a permutation: lcm of its cycle lengths."""
    images = np.asarray(images)
    seen = [False] * len(images)
    o = 1
    for s in range(len(images)):
        if not seen[s]:
            length = 0
            t = s
            while not seen[t]:
                seen[t] = True
                t = int(images[t])
                length += 1
            o = lcm(o, length)
    return o


_CYCLE_RE = re.compile(r"\(\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based cycle notation like ``(1,2,3)(4,5)``; ``()`` is the identity."""
    text = text.strip()
    if text in ("()", "id", "identity", ""):
        return Permutation.identity(degree)
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise BadParameter(f"unparseable cycle notation: {text!r}")
    cycles = []
    for m in _CYCLE_RE.finditer(text):
        pts = tuple(int(x) for x in m.group(1).split(","))
        if len(pts) >= 2:
            cycles.append(pts)
    return Permutation.from_cycles(cycles, degree)


def format_cycles(perm: Permutation) -> str:
    cycles = perm.cycles()
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(p) for p in c) + ")" for c in cycles)


def min_degree_of(text: str) -> int:
    """Largest point mentioned in cycle notation (0 for the identity)."""
    pts = [int(x) for m in _CYCLE_RE.finditer(text) for x in m.group(1).split(",")]
    return max(pts, default=0)
