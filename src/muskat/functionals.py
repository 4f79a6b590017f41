"""Energy, moment and entropy functionals, exact on profiles.

The energy E drives the dynamics as a gradient flow; in self-similar
variables the relevant Liapunov functional is the rescaled energy
E_* = E + M2/6.  On steady states E_* = M2/2 = (3/2) E and the weighted
first moment M1 vanishes; along the continuation curve E_* is strictly
unimodal with its minimum at the even state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .params import FluidParams
from .checks import Pieces, raise_first
from .profiles import CurvePoint, ProfilePair, _closed_form_energies, _mirror

__all__ = [
    "FunctionalReport",
    "NegativeInputError",
    "MismatchError",
    "evaluate",
    "dissipation",
    "curve_reports",
    "energy_along_curve",
]


@cache
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of 64-point Gauss-Legendre quadrature on [-1, 1],
    read-only, computed on first use: importing numpy.polynomial for them
    would add milliseconds to every import of the package."""
    rule = np.polynomial.legendre.leggauss(64)
    for a in rule:
        a.flags.writeable = False
    return rule


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


# q ln q is taken as 0 where q is at most this, so 0 ln 0 = 0
_ENTROPY_FLOOR = 1e-300


def _entropy_piecewise(pcs: Pieces) -> list[float]:
    """Gauss-Legendre quadrature of q ln q for each field, with 0 ln 0 = 0.

    The pieces of all fields are evaluated as (pieces, nodes) arrays of at
    most 64 pieces, which bounds their memory; each field's per-piece totals
    are then added in piece order.
    """
    l, r, c0, c2 = (a[pcs.real][:, None] for a in (pcs.l, pcs.r, pcs.c0, pcs.c2))
    gauss_x, gauss_w = _gauss_rule()
    half, mid = 0.5 * (r - l), 0.5 * (l + r)
    h = np.empty(len(l))
    for b in range(0, len(l), 64):
        s = slice(b, b + 64)
        v = half[s] * gauss_x + mid[s]
        v = c0[s] + c2[s] * v**2
        v[~(v > _ENTROPY_FLOOR)] = 1.0  # v ln v -> 0 there
        h[s] = half[s, 0] * np.sum(gauss_w * v * np.log(v), axis=1)
    per_piece = np.zeros(pcs.real.shape)
    per_piece[pcs.real] = h
    return _column_sums(per_piece).tolist()


def _column_sums(terms: np.ndarray) -> np.ndarray:
    """Each row's sum, added column by column: the order of a loop's ``+=``."""
    totals = np.zeros(len(terms))
    for column in terms.T:
        totals += column
    return totals


def _products_and_moments(pcs: Pieces):
    """The L2 products F.F, F.G and G.G and the moments 1 and 2 of F and of G
    of each pair of a batch whose fields alternate F, G in ``pcs``, bitwise
    those of the scalar loops over pieces: powers by Python's float power,
    taken once per end distinct by its bits (so -0.0 keeps its own powers)
    and gathered to every piece end that holds it, overlaps [max(la, lb),
    min(ra, rb)] with Python's tie rule, each term in the scalar
    expression's order and exactly 0.0 where two pieces do not overlap, and
    the terms added in the loop's (a-piece, b-piece) order."""
    ends = np.stack([pcs.l, pcs.r])
    bits, at = np.unique(ends.view(np.int64).ravel(), return_inverse=True)
    xs = bits.view(np.float64).tolist()
    pw = {k: np.array([x**k for x in xs])[at].reshape(ends.shape) for k in (2, 3, 4, 5)}
    real, c0, c2 = pcs.real, pcs.c0, pcs.c2

    def moment(k: int) -> np.ndarray:
        (l1, r1), (l3, r3) = pw[k + 1], pw[k + 3]
        return _column_sums(np.where(real, c0 * (r1 - l1) / (k + 1) + c2 * (r3 - l3) / (k + 3),
                                     0.0))

    def inner(a: slice, b: slice) -> np.ndarray:
        def at(t):  # t of the a-piece and of the b-piece, as views over the pairs
            return t[a][:, :, None], t[b][:, None, :]

        def pick(t, b_wins):  # t of the b-piece where b_wins, else of the a-piece
            ta, tb = at(t)
            return np.where(b_wins, tb, ta)

        (la, lb), (ra, rb) = at(pcs.l), at(pcs.r)
        lb_wins, rb_wins = lb > la, rb < ra  # else max(la, lb) is la, min(ra, rb) is ra
        l, r = pick(pcs.l, lb_wins), pick(pcs.r, rb_wins)
        d3, d5 = (pick(pw[k][1], rb_wins) - pick(pw[k][0], lb_wins) for k in (3, 5))
        (a0, b0), (a2, b2), (real_a, real_b) = at(c0), at(c2), at(real)
        terms = a0 * b0 * (r - l) + (a0 * b2 + a2 * b0) * d3 / 3.0 + a2 * b2 * d5 / 5.0
        keep = real_a & real_b & ~(r <= l)
        return _column_sums(np.where(keep, terms, 0.0).reshape(len(terms), -1))

    F, G = slice(0, None, 2), slice(1, None, 2)
    m1, m2 = moment(1), moment(2)
    return inner(F, F), inner(F, G), inner(G, G), m1[F], m1[G], m2[F], m2[G]


def _report(p: FluidParams, iFF: float, iFG: float, iGG: float, m1: float, m2: float,
            entropy: float, dissipation: float | None = None) -> FunctionalReport:
    """Report from the L2 products of the fields, their moments and entropy."""
    e2, R = p.eta**2, p.R
    energy = 0.5 * e2 * (1.0 + R) * iFF + R * iFG + 0.5 * R / e2 * iGG
    return FunctionalReport(energy=energy, rescaled_energy=energy + m2 / 6.0, m1=m1, m2=m2,
                            entropy=entropy, dissipation=dissipation)


def _fields_reports(p: FluidParams, pairs) -> tuple[list[FunctionalReport], np.ndarray]:
    """Report of each (F, G) pair, and whether the pair dips below -1e-12
    anywhere: the entropy of all fields in one quadrature, the L2 products
    and moments exact, all from one table of the pieces."""
    with np.errstate(all="ignore"):
        pcs = Pieces([q for pair in pairs for q in pair])
        columns = [v.tolist() for v in _products_and_moments(pcs)]
    negative = (pcs.low < -1e-12).reshape(len(pairs), -1).any(axis=1)
    theta = p.theta
    h = _entropy_piecewise(pcs)
    return [_report(p, iFF, iFG, iGG, m1=m1F + theta * m1G, m2=m2F + theta * m2G,
                    entropy=h_f + theta * h_g)
            for iFF, iFG, iGG, m1F, m1G, m2F, m2G, h_f, h_g
            in zip(*columns, h[0::2], h[1::2])], negative


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
    pos = u > _ENTROPY_FLOOR
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
        obj = (obj.F, obj.G)
    if isinstance(obj, (tuple, list)) and len(obj) == 2:
        (rep,), (negative,) = _fields_reports(p, [obj])
        if negative:
            raise NegativeInputError("fields must be non-negative")
        return rep
    return _state_report(obj, p)


def dissipation(state, p: FluidParams) -> float:
    """Discrete entropy dissipation of a grid state, from central differences.

    Cell-centered derivatives use central differences in the interior and
    one-sided differences in the first and last cell.  This is not the
    upwind scheme's own dissipation, and it does not vanish on the scheme's
    steady states (on the rupture configuration it stalls near 1e-4); on the
    exact cell averages of a steady profile it decays as the grid refines.
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


def _mirror_images(a: ProfilePair, b: ProfilePair) -> bool:
    """Whether the fields of a are those of b mirrored about x = 0."""
    return list(a.F.pieces) == _mirror(b.F.pieces) and list(a.G.pieces) == _mirror(b.G.pieces)


def curve_reports(curve: list[CurvePoint], tol: float = 1e-9) -> list[FunctionalReport]:
    """Functional report of each curve state, in curve order, cross-checked.

    E_* is computed by exact quadrature of the profile and independently
    from the closed form in fifth powers of the sextuplet; disagreement
    beyond ``tol`` raises MismatchError.  The states must share one
    parameter triple; they are evaluated as one batch.  A state whose F and
    G are the mirror images of those of the state at the mirrored index
    (i and n - 1 - i, as ``continue_curve`` builds its sigma < 0 half) is
    not evaluated: E, E_*, M2 and H are mirror-invariant, so it takes its
    partner's report with M1 negated.  Every state keeps its own closed-form
    check.
    """
    if not curve:
        return []
    p = curve[0].profile.params
    if any(cp.profile.params != p for cp in curve):
        raise ValueError("curve states must share one parameter triple")
    n = len(curve)
    # source[i]: the state whose report state i takes, its mirror partner or itself
    source = [n - 1 - i if i < n - 1 - i and _mirror_images(curve[i].profile,
                                                            curve[n - 1 - i].profile) else i
              for i in range(n)]
    evaluated = sorted(set(source))
    at = {i: k for k, i in enumerate(evaluated)}
    own, negative = _fields_reports(
        p, [(curve[i].profile.F, curve[i].profile.G) for i in evaluated])
    reports = []
    for i, j in enumerate(source):
        rep = own[at[j]]
        if i != j:  # the partner's report with M1 negated, made without the initializer
            image = object.__new__(FunctionalReport)
            image.__dict__.update(rep.__dict__, m1=-rep.m1)
            rep = image
        reports.append(rep)
    negative = negative[[at[j] for j in source]]
    quad = [rep.rescaled_energy for rep in reports]
    closed = _closed_form_energies(p, np.array([cp.zeta for cp in curve], dtype=float)).tolist()
    raise_first([
        (negative, lambda k: NegativeInputError("fields must be non-negative")),
        (np.abs(np.subtract(closed, quad)) > tol, lambda k: MismatchError(
            f"energy mismatch at sigma = {curve[k].ell:.6g}: quadrature "
            f"{quad[k]:.15g} vs closed form {closed[k]:.15g}"))])
    return reports


def energy_along_curve(curve: list[CurvePoint],
                       tol: float = 1e-9) -> list[tuple[float, float]]:
    """(sigma, E_*) along a continuation curve, sorted by sigma (``CurvePoint.ell``);
    see curve_reports."""
    reports = curve_reports(curve, tol)
    return sorted(((cp.ell, rep.rescaled_energy) for cp, rep in zip(curve, reports)),
                  key=lambda t: t[0])
