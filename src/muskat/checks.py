"""The checks of a batch of piecewise-quadratic steady states, run at once
on arrays of their pieces padded to a common count, and the tolerances of
every construction.  A single construction is a batch of one."""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from .params import FluidParams

__all__ = ["Pieces", "field_failures", "steady_residuals", "raise_first", "check_pairs"]

CONTINUITY_TOL = 1e-10
MASS_TOL = 1e-10
STEADY_TOL = 1e-9


class Pieces:
    """The pieces of M fields as (M, P) arrays l, r, c0, c2, P the largest
    piece count; ``real`` masks out the zero pieces that pad shorter fields.
    ``left``, ``right`` and ``low`` are each piece's values c0 + c2 x^2 at
    its ends and its least value, squares taken as x * x: within an ulp of
    x**2, which is all a check against a tolerance needs."""

    def __init__(self, fields: Sequence):
        self.count = np.array([len(q.pieces) for q in fields], dtype=int)
        self.real = np.arange(max(self.count.max(initial=0), 1)) < self.count[:, None]
        cols = np.zeros((4,) + self.real.shape)
        flat = np.fromiter(chain.from_iterable(chain.from_iterable(q.pieces for q in fields)),
                           float)
        cols[:, self.real] = flat.reshape(-1, 4).T
        self.finite = np.isfinite(cols).all(axis=0)
        self.l, self.r, self.c0, self.c2 = cols
        with np.errstate(all="ignore"):  # a non-finite piece, which the checks report
            self.left = self.c0 + self.c2 * (self.l * self.l)
            self.right = self.c0 + self.c2 * (self.r * self.r)
            around_0 = (self.l < 0.0) & (0.0 < self.r)
            self.low = np.minimum(np.minimum(self.left, self.right),
                                  np.where(around_0, self.c0, np.inf))

    def take(self, rows) -> "Pieces":
        """The table of the fields at ``rows``, as wide as this one."""
        sub = object.__new__(Pieces)
        sub.__dict__.update({name: a[rows] for name, a in vars(self).items()})
        return sub


def field_failures(pcs: Pieces):
    """The profile-grade conditions (finite, ordered, non-negative,
    continuous, zero at the outer ends) on each field at once: (failed,
    error), failed[m] whether field m breaks one and error(m) the ValueError
    of its first broken condition, in the order a loop over the pieces meets
    them."""
    l, r, left, right, n = pcs.l, pcs.r, pcs.left, pcs.right, pcs.count
    tol, end = CONTINUITY_TOL, (np.arange(len(n)), np.maximum(n - 1, 0))
    width = np.fmax(np.fmax(np.abs(l[:, 0]), np.abs(r[end])), 1.0)[:, None]
    first = np.arange(l.shape[1]) == 0
    prev_r, prev_val = np.roll(r, 1, axis=1), np.roll(right, 1, axis=1)
    touching = ~first & (l - prev_r <= 1e-12 * width)
    # per piece, in the loop's order; the last three exclude each other
    conds = [(~pcs.finite, lambda m, j: "non-finite piece data"),
             (r <= l, lambda m, j: f"degenerate interval [{l[m, j]}, {r[m, j]}]"),
             (~first & (l < prev_r - 1e-12 * width), lambda m, j: "overlapping pieces"),
             (pcs.low < -tol, lambda m, j:
              f"negative values (min {pcs.low[m, j]:.3e}) on [{l[m, j]}, {r[m, j]}]"),
             (first & (np.abs(left) > tol), lambda m, j:
              f"nonzero value {left[m, j]:.3e} at outer endpoint {l[m, j]}"),
             (touching & (np.abs(left - prev_val) > tol), lambda m, j:
              f"jump {left[m, j] - prev_val[m, j]:.3e} at breakpoint {l[m, j]}"),
             (~first & ~touching & ((np.abs(prev_val) > tol) | (np.abs(left) > tol)),
              lambda m, j: f"nonzero value at a support gap near {l[m, j]}")]
    table = np.concatenate(
        [(n == 0)[:, None],
         (np.stack([c for c, _ in conds], axis=2) & pcs.real[..., None]).reshape(len(n), -1),
         ((np.abs(right[end]) > tol) & (n > 0))[:, None]], axis=1)

    def error(m: int) -> ValueError:
        t = int(table[m].argmax())
        if t == 0:
            return ValueError("empty piece list")
        if t == table.shape[1] - 1:
            j = n[m] - 1
            return ValueError(f"nonzero value {right[m, j]:.3e} at outer endpoint {r[m, j]}")
        j, c = divmod(t - 1, len(conds))
        return ValueError(conds[c][1](m, j))

    return table.any(axis=1), error


def steady_residuals(p: FluidParams, pcs: Pieces) -> np.ndarray:
    """``profiles.steady_residual_fields`` of each pair of a batch whose fields
    alternate F, G in ``pcs``, with the operations of a loop over each pair's
    intervals in that loop's order, so that each value is bitwise the loop's."""
    R, Rmu, e2 = p.R, p.R_mu, p.eta**2
    n = len(pcs.count) // 2
    ends = np.concatenate([pcs.l, pcs.r], axis=1).reshape(n, -1)
    real = np.tile(pcs.real, 2).reshape(n, -1)
    # a missing piece repeats the largest end, adding only empty intervals
    top = np.max(np.where(real, ends, -np.inf), axis=1, keepdims=True)
    breaks = np.sort(np.where(real, ends, top), axis=1)
    u, v = breaks[:, None, :-1], breaks[:, None, 1:]  # (pair, 1, interval)
    keep = v - u > 1e-13 * np.maximum(breaks[:, None, -1:] - breaks[:, None, :1], 1.0)
    # (c0, c2) of each field's first piece that reaches each midpoint, or (0, 0)
    # when that piece starts after it: what a forward walk over the pieces finds
    mid = np.repeat(0.5 * (u + v), 2, axis=0)[:, 0]
    reach = np.where(pcs.real, pcs.r, -np.inf)[:, None, :] >= mid[..., None]
    i = reach.argmax(axis=2)
    held = reach.any(axis=2) & (np.take_along_axis(pcs.l, i, axis=1) <= mid)
    c0, c2 = (np.where(held, np.take_along_axis(c, i, axis=1), 0.0).reshape(n, 2, -1)
              for c in (pcs.c0, pcs.c2))
    f2, g2 = c2[:, :1], c2[:, 1:]
    k = (2.0 * (np.array([[e2 * (1.0 + R)], [e2 * Rmu]]) * f2 + np.array([[R], [Rmu]]) * g2)
         + 1.0 / 3.0)
    xc = np.sqrt(-c0 / (3.0 * c2))  # the cubic is odd: equal at -xc
    inside = (c0 * c2 < 0.0) & (((u < xc) & (xc < v)) | ((u < -xc) & (-xc < v)))
    worst = np.zeros(n)
    for x, at in ((u, keep), (v, keep), (xc, keep & inside)):
        term = np.where(at, np.abs(k * x * (c0 + c2 * x * x)), 0.0).reshape(n, -1)
        worst = np.fmax(worst, np.fmax.reduce(term, axis=1))  # NaN skipped, as by max()
    return worst


def raise_first(checks) -> None:
    """``checks`` are (failed, error) pairs in the order one state's checks
    run, failed a boolean array over the states: raise error(k) of the first
    check that state k fails, k the first state that fails any."""
    failed = np.logical_or.reduce([f for f, _ in checks])
    if failed.any():
        k = int(failed.argmax())
        raise next(error(k) for f, error in checks if f[k])


def check_pairs(p: FluidParams, Fs, Gs, label: str | None = None) -> None:
    """Check every state (F_k, G_k) of a batch at once: every condition of
    ``field_failures`` on F_k and on G_k, their unit masses and, given the
    ``label`` of the construction that built the batch, the exact steady
    residual.  A labelled batch raises its field and mass failures as
    RuntimeError, since the package built its states; an unlabelled one
    (a pair built by hand) as ValueError.  Raises what checking one state
    at a time raises (see ``raise_first``)."""
    kind = ValueError if label is None else RuntimeError
    with np.errstate(all="ignore"):
        pcs = Pieces([q for pair in zip(Fs, Gs) for q in pair])
        failed, error = field_failures(pcs)
        # masses piece by piece in order, as mass() sums them; a failing
        # state's message quotes mass() itself
        mass = np.zeros(len(pcs.count))
        for l, r, c0, c2 in zip(pcs.l.T, pcs.r.T, pcs.c0.T, pcs.c2.T):
            mass += c0 * (r - l) + c2 * (r * r * r - l * l * l) / 3.0
        mF, mG = mass[0::2], mass[1::2]
        checks = [(failed[0::2], lambda k: kind(str(error(2 * k)))),
                  (failed[1::2], lambda k: kind(str(error(2 * k + 1)))),
                  ((np.abs(mF - 1.0) > MASS_TOL) | (np.abs(mG - 1.0) > MASS_TOL),
                   lambda k: kind(f"masses must be 1: got {Fs[k].mass()!r}, "
                                  f"{Gs[k].mass()!r}"))]
        if label is not None:
            res = steady_residuals(p, pcs)
            checks.append((res > STEADY_TOL, lambda k: RuntimeError(
                f"steady residual {res[k]:.3e} exceeds {STEADY_TOL} for {label}")))
    raise_first(checks)
