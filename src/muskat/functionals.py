"""Energy, moment and entropy functionals, exact on profiles.

The energy E drives the dynamics as a gradient flow; in self-similar
variables the relevant Liapunov functional is the rescaled energy
E_* = E + M2/6.  On steady states E_* = M2/2 = (3/2) E and the weighted
first moment M1 vanishes; along the continuation curve E_* is strictly
unimodal with its minimum at the even state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import FluidParams
from .profiles import CurvePoint, ProfilePair, curve_energy_closed_form

__all__ = [
    "FunctionalReport",
    "NegativeInputError",
    "MismatchError",
    "evaluate",
    "dissipation",
    "curve_reports",
    "energy_along_curve",
]

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(64)


class NegativeInputError(Exception):
    pass


class MismatchError(Exception):
    pass


@dataclass(frozen=True)
class FunctionalReport:
    energy: float
    rescaled_energy: float
    m1: float
    m2: float
    entropy: float
    dissipation: float | None = None


def _entropy_piecewise(*fields, floor: float = 1e-300) -> list[float]:
    """Gauss-Legendre quadrature of q ln q for each field, with 0 ln 0 = 0.

    The pieces of all fields are evaluated as one (pieces, nodes) array; each
    field's per-piece totals are then added in piece order.
    """
    pieces = [pc for q in fields for pc in q.pieces]
    l, r, c0, c2 = np.array(pieces, dtype=float).reshape(-1, 4).T[:, :, None]
    half = 0.5 * (r - l)
    x = 0.5 * (l + r) + half * _GAUSS_X
    v = c0 + c2 * x**2
    v = np.where(v > floor, v, 1.0)  # v ln v -> 0 there
    per_piece = (half[:, 0] * np.sum(_GAUSS_W * v * np.log(v), axis=1)).tolist()
    totals, start = [], 0
    for q in fields:
        total = 0.0
        for t in per_piece[start:start + len(q.pieces)]:
            total += t
        totals.append(total)
        start += len(q.pieces)
    return totals


def _report(p: FluidParams, iFF: float, iFG: float, iGG: float, m1: float, m2: float,
            entropy: float, dissipation: float | None = None) -> FunctionalReport:
    """Report from the L2 products of the fields, their moments and entropy."""
    e2, R = p.eta**2, p.R
    energy = 0.5 * e2 * (1.0 + R) * iFF + R * iFG + 0.5 * R / e2 * iGG
    return FunctionalReport(energy=energy, rescaled_energy=energy + m2 / 6.0, m1=m1, m2=m2,
                            entropy=entropy, dissipation=dissipation)


def _fields_report(F, G, p: FluidParams) -> FunctionalReport:
    for q in (F, G):
        for l, r, c0, c2 in q.pieces:
            lo = min(c0 + c2 * l**2, c0 + c2 * r**2, c0 if l < 0.0 < r else np.inf)
            if lo < -1e-12:
                raise NegativeInputError("fields must be non-negative")
    theta = p.theta
    h_f, h_g = _entropy_piecewise(F, G)
    return _report(p, F.inner(), F.inner(G), G.inner(),
                   m1=F.moment(1) + theta * G.moment(1),
                   m2=F.moment(2) + theta * G.moment(2),
                   entropy=h_f + theta * h_g)


def _state_report(state, p: FluidParams) -> FunctionalReport:
    """Report of a grid state, each sum a pairwise sum over one row of a
    (7, n) array of products: f², fg, g², the two moment integrands and
    the entropy density of f and of g."""
    u, grid = state.u, state.grid
    f, g = u
    lo_f, lo_g = np.minimum.reduce(u, axis=1)
    if lo_f < -1e-12 or lo_g < -1e-12:
        raise NegativeInputError("fields must be non-negative")
    h, x, theta = grid.h, grid.centers, p.theta
    q = np.empty((7, u.shape[1]))
    np.multiply(f, u, q[:2])
    np.multiply(g, g, q[2])
    w = f + theta * g
    np.multiply(w, x, q[3])
    np.multiply(w, x**2, q[4])
    pos = u > 1e-300
    q[5:] = np.where(pos, u * np.log(np.where(pos, u, 1.0)), 0.0)
    s_ff, s_fg, s_gg, s_m1, s_m2, s_hf, s_hg = np.add.reduce(q, axis=1).tolist()
    return _report(p, h * s_ff, h * s_fg, h * s_gg, m1=h * s_m1, m2=h * s_m2,
                   entropy=h * (s_hf + theta * s_hg), dissipation=dissipation(state, p))


def evaluate(obj, p: FluidParams) -> FunctionalReport:
    """Functional report for a profile, a raw field pair, or a grid state.

    Accepts a ProfilePair, a (u, v) pair of PiecewiseQuadratic, or a
    SimState.  On piecewise-quadratic inputs the L2 products are quartic
    integrals evaluated in closed form; on grid states cell averages stand
    in for midpoint values.
    """
    if isinstance(obj, ProfilePair):
        return _fields_report(obj.F, obj.G, p)
    if isinstance(obj, (tuple, list)) and len(obj) == 2:
        return _fields_report(obj[0], obj[1], p)
    return _state_report(obj, p)


def dissipation(state, p: FluidParams) -> float:
    """Discrete entropy dissipation of a grid state (vanishes on steady states).

    Cell-centered derivatives use central differences in the interior and
    one-sided differences in the first and last cell.
    """
    u = state.u
    n = u.shape[1]
    if n < 3:
        raise ValueError("dissipation needs at least 3 cells")
    h = state.grid.h
    x = state.grid.centers
    e2 = p.eta**2
    R, Rmu = p.R, p.R_mu
    d = np.empty_like(u)
    d[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2.0 * h)
    d[:, 0] = (u[:, 1] - u[:, 0]) / h
    d[:, -1] = (u[:, -1] - u[:, -2]) / h
    df, dg = d
    # rows: the velocities of f and g, then u times their squares
    v = np.array([[e2 * (1.0 + R)], [e2 * Rmu]]) * df
    v += np.array([[R], [Rmu]]) * dg
    v += x / 3.0
    np.square(v, v)
    v *= u
    s_f, s_g = np.add.reduce(v, axis=1).tolist()
    return 0.5 * h * (s_f + p.theta * s_g)


def curve_reports(curve: list[CurvePoint], tol: float = 1e-9) -> list[FunctionalReport]:
    """Functional report of each curve state, in curve order, cross-checked.

    E_* is computed by exact quadrature of the profile and independently
    from the closed form in fifth powers of the sextuplet; disagreement
    beyond ``tol`` raises MismatchError.
    """
    out = []
    for cp in curve:
        rep = evaluate(cp.profile, cp.profile.params)
        closed = curve_energy_closed_form(cp.profile.params, cp.zeta)
        if abs(closed - rep.rescaled_energy) > tol:
            raise MismatchError(
                f"energy mismatch at ell = {cp.ell:.6g}: quadrature "
                f"{rep.rescaled_energy:.15g} vs closed form {closed:.15g}")
        out.append(rep)
    return out


def energy_along_curve(curve: list[CurvePoint],
                       tol: float = 1e-9) -> list[tuple[float, float]]:
    """(ell, E_*) along a continuation curve, sorted by ell; see curve_reports."""
    reports = curve_reports(curve, tol)
    return sorted(((cp.ell, rep.rescaled_energy) for cp, rep in zip(curve, reports)),
                  key=lambda t: t[0])
