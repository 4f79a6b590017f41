"""Span tracer that times muskat's public functions from outside the package.

Each traced function is replaced, in every muskat module that holds it under
some name, by a wrapper that records one span: which function, its start and
end on ``time.perf_counter``, and the span that was open when it was called.
Spans live in flat arrays until the run ends.  Functions looked up through a
module attribute at call time (``fvm.run`` calling ``step``, ``cli`` calling
``profiles.continue_curve``) are therefore traced; a reference captured
before ``install`` is not, which is why the benchmark calls every entry
point through its module.
"""

from __future__ import annotations

import bisect
import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

TARGETS = (
    ("params", "thresholds"),
    ("numerics", "find_root_bracketed"),
    ("numerics", "newton_solve"),
    ("profiles", "steady_residual_fields"),
    ("profiles", "profile_from_zeta"),
    ("profiles", "continue_curve"),
    ("profiles", "even_profile"),
    ("functionals", "evaluate"),
    ("functionals", "energy_along_curve"),
    ("functionals", "dissipation"),
    ("fvm", "step"),
    ("fvm", "face_velocities"),
    ("fvm", "run"),
    ("fvm", "cell_averages"),
    ("fvm", "l2_distance"),
    ("fvm", "init_state"),
    ("cli", "main"),
)

# Argument keys whose distinct values give the repeat ratios: thresholds
# depend only on (R, eta); cell averages only on the profile and the grid.
KEYS = {
    "params.thresholds": lambda p, *_: (p.R, p.eta),
    "fvm.cell_averages": lambda q, grid, *_: (q.pieces, grid),
}


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{func}" for mod, func in TARGETS]
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.keys: dict[str, tuple[list[int], list]] = {k: ([], []) for k in KEYS}
        self._stack = [-1]
        self._bindings = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "muskat" or n.startswith("muskat.")]
        for i, (mod, func) in enumerate(TARGETS):
            orig = getattr(sys.modules[f"muskat.{mod}"], func)
            wrapper = self._wrap(i, orig, KEYS.get(self.names[i]))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._bindings.append((m, attr, orig, wrapper))

    def _wrap(self, i, func, keyfunc):
        fid, parent, start, end, stack = self.fid, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter
        key_idx, key_val = self.keys[self.names[i]] if keyfunc else (None, None)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(start)
            fid.append(i)
            parent.append(stack[-1])
            if keyfunc is not None:
                key_idx.append(idx)
                key_val.append(keyfunc(*args))
            stack.append(idx)
            start.append(clock())
            end.append(0.0)
            try:
                return func(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        for m, attr, _, wrapper in self._bindings:
            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig, _ in self._bindings:
            setattr(m, attr, orig)

    def mark(self) -> int:
        """Index of the next span; a pair of marks delimits one operation."""
        return len(self.start)

    def self_seconds(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        return dur - child

    def summarize(self, lo: int, hi: int, self_s: np.ndarray) -> dict[str, float]:
        """Calls and self time (ms) per function of the spans in [lo, hi)."""
        fid = np.frombuffer(self.fid, dtype=np.int32)[lo:hi]
        calls = np.bincount(fid, minlength=len(self.names))
        self_ms = np.bincount(fid, weights=self_s[lo:hi], minlength=len(self.names)) * 1e3
        out = {}
        for name, c, s in zip(self.names, calls, self_ms):
            out[f"{name}.calls"] = float(c)
            out[f"{name}.self_ms"] = float(s)
        return out

    def distinct(self, name: str, ranges) -> int:
        """Distinct argument keys of ``name`` over the span ranges [lo, hi)."""
        idx, vals = self.keys[name]
        seen = set()
        for lo, hi in ranges:
            seen.update(vals[bisect.bisect_left(idx, lo):bisect.bisect_left(idx, hi)])
        return len(seen)

    def write(self, path: Path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            fid=np.frombuffer(self.fid, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))
