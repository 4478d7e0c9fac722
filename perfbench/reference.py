"""A fixed reference computation that gauges how fast the machine runs now.

On a shared host the speed of a core drifts by tens of percent over seconds
and minutes, so raw pass times of the same code differ from run to run by
more than any bound a regression check could use.  The runner times this
computation between ops and scales every timed interval by
``NOMINAL_S / reference time``: the result reads as seconds on a machine
where the reference takes ``NOMINAL_S``.  The reference does not touch
solvcover, so a change to the program moves the scaled times as it moves
the raw ones; only the machine's speed cancels.

The computation has the shape of the program's hot path (a breadth-first
closure of permutations with numpy rows, integer keys and a Python set):
the closure of S7 under a 7-cycle and a transposition, 5040 elements, run
``REPEATS`` times.  It is small so that it adds little to ``peak_rss_mb``.
"""

import time

import numpy as np

NOMINAL_S = 0.05

REPEATS = 6

_DEGREE = 7
_GENERATORS = np.array([[1, 2, 3, 4, 5, 6, 0], [1, 0, 2, 3, 4, 5, 6]], dtype=np.int64)
_WEIGHTS = _DEGREE ** np.arange(_DEGREE, dtype=np.int64)
_ORDER = 5040


def reference_seconds() -> float:
    """Wall seconds of ``REPEATS`` runs of the reference closure."""
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        _closure()
    return time.perf_counter() - t0


def _closure() -> None:
    frontier = np.arange(_DEGREE, dtype=np.int64)[None, :]
    seen = {int(frontier[0] @ _WEIGHTS)}
    while len(frontier):
        rows = []
        for g in _GENERATORS:
            cand = g[frontier]
            for r, key in enumerate((cand @ _WEIGHTS).tolist()):
                if key not in seen:
                    seen.add(key)
                    rows.append(cand[r])
        frontier = np.stack(rows) if rows else frontier[:0]
    if len(seen) != _ORDER:
        raise RuntimeError(f"reference closure has {len(seen)} elements, expected {_ORDER}")
