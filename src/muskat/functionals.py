"""Energy, moment and entropy functionals, exact on profiles.

The energy E drives the dynamics as a gradient flow; in self-similar
variables the relevant Liapunov functional is the rescaled energy
E_* = E + M2/6.  On steady states E_* = M2/2 = (3/2) E and the weighted
first moment M1 vanishes; along the continuation curve E_* is strictly
unimodal with its minimum at the even state.  On piecewise-quadratic
fields every functional, the entropy included, is a closed form per piece.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import FluidParams
from .checks import Pieces, raise_first
from .profiles import CurvePoint, ProfilePair, _closed_form_energies

__all__ = [
    "FunctionalReport",
    "NegativeInputError",
    "MismatchError",
    "evaluate",
    "dissipation",
    "curve_reports",
    "energy_along_curve",
]


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


# a grid state's q ln q is taken as 0 where q is at most this, so 0 ln 0 = 0
_ENTROPY_FLOOR = 1e-300
_ENERGY_TOL = 1e-9  # the most that a curve state's two E_* may differ by


def _entropy_piecewise(pcs: Pieces) -> list[float]:
    """The integral of q ln q over each field, with 0 ln 0 = 0 (q ln|q| where
    rounding takes q below 0), in closed form on each piece q = c0 + c2 x^2
    over [l, r], its per-piece totals added in piece order.  With P' = q, no
    term is much larger than the piece's own integral: P(r) - P(l) is taken
    in factored form, and each log at the end farther from its argument's
    root, the other end's by log1p.  With real roots +-x0 (c0 c2 <= 0),
    ln|q| = ln|c2| + ln|x - x0| + ln|x + x0| and (P - P(rho)) ln|x - rho|
    vanishes at each root rho; else q = c2 (x^2 + a^2) brings in
    (4/3) c0 a arctan(x / a).  A piece with l + r < 0 is taken as its mirror
    (-r, -l, c0, c2), so mirrored fields get the same terms, bit for bit."""
    c0, c2 = pcs.c0, pcs.c2
    flip = pcs.l + pcs.r < 0.0
    l, r = np.where(flip, -pcs.r, pcs.l), np.where(flip, -pcs.l, pcs.r)
    w = r - l
    cubes = w * (r * r + r * l + l * l)  # r^3 - l^3
    mass = c0 * w + c2 * cubes / 3.0
    with np.errstate(all="ignore"):
        a2 = c0 / c2
        a, q_r = np.sqrt(a2), c0 + c2 * r * r
        no_root = (mass * np.log(np.abs(q_r))
                   - (c0 * l + c2 * l * l * l / 3.0) * np.log1p(-c2 * w * (r + l) / q_r)
                   + (4.0 / 3.0) * c0 * a * np.arctan2(a * w, a2 + r * l))
        q_e, tails = c2, 0.0  # q_e: c2 times each root's factor x - rho at its far end
        for rho in (np.sqrt(-a2), -np.sqrt(-a2)):
            far_r = np.abs(r - rho) >= np.abs(l - rho)
            g_e, g_o = np.where(far_r, r - rho, l - rho), np.where(far_r, l - rho, r - rho)
            t = np.where(far_r, -w, w) / g_e  # g_o / g_e - 1
            log_ratio = np.where(t > -0.5, np.log1p(t), np.log(np.abs(g_o / g_e)))
            p_o = c2 * g_o * g_o * (g_o + 3.0 * rho) / 3.0  # P - P(rho) at the near end
            q_e = q_e * g_e
            tails = tails + np.where(p_o == 0.0, 0.0, np.where(far_r, -p_o, p_o) * log_ratio)
        h = np.where(a2 > 0.0, no_root, mass * np.log(np.abs(q_e)) + tails)
        h += -(2.0 / 9.0) * c2 * cubes - (4.0 / 3.0) * c0 * w
        h = np.where(c2 == 0.0, np.where(c0 == 0.0, 0.0, mass * np.log(np.abs(c0))), h)
    return _column_sums(h).tolist()


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


def _fields_reports(p: FluidParams, pcs: Pieces) -> tuple[list[FunctionalReport], np.ndarray]:
    """Report of each (F, G) pair of a batch whose fields alternate F, G in
    ``pcs``, and whether the pair dips below -1e-12 anywhere: the entropy,
    the L2 products and the moments all exact, and all from the one table."""
    with np.errstate(all="ignore"):
        columns = [v.tolist() for v in _products_and_moments(pcs)]
    negative = (pcs.low < -1e-12).any(axis=1).reshape(-1, 2).any(axis=1)
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
        (rep,), (negative,) = _fields_reports(p, Pieces(obj))
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


def _mirrored(pcs: Pieces) -> np.ndarray:
    """Whether the fields of each state i of a batch whose fields alternate
    F, G in ``pcs`` are those of state n - 1 - i mirrored about x = 0, piece
    k the (-r, -l, c0, c2) of the partner's last but k, as ``profiles._mirror``."""
    j = np.arange(len(pcs.count)).reshape(-1, 2)[::-1].ravel()  # each field's partner
    k = np.maximum(pcs.count[j, None] - 1 - np.arange(pcs.real.shape[1]), 0)
    partner = np.stack([-pcs.r, -pcs.l, pcs.c0, pcs.c2])[:, j[:, None], k]
    same = (np.stack([pcs.l, pcs.r, pcs.c0, pcs.c2]) == partner).all(axis=0) | ~pcs.real
    return ((pcs.count == pcs.count[j]) & same.all(axis=1)).reshape(-1, 2).all(axis=1)


def curve_reports(curve: list[CurvePoint]) -> list[FunctionalReport]:
    """Functional report of each curve state, in curve order, cross-checked.

    E_* is computed by exact quadrature of the profile and independently
    from the closed form in fifth powers of the sextuplet; disagreement
    beyond 1e-9 raises MismatchError.  The states must share one
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
    pcs = Pieces([q for cp in curve for q in (cp.profile.F, cp.profile.G)])
    mirrored = _mirrored(pcs).tolist()
    # source[i]: the state whose report state i takes, its mirror partner or
    # itself; at[i]: that state's place among the evaluated ones
    source = [n - 1 - i if i < n - 1 - i and mirrored[i] else i for i in range(n)]
    evaluated, at = np.unique(source, return_inverse=True)
    own, negative = _fields_reports(p, pcs.take((2 * evaluated[:, None] + [0, 1]).ravel()))
    reports = []
    for i, (j, k) in enumerate(zip(source, at.tolist())):
        rep = own[k]
        if i != j:  # the partner's report with M1 negated, made without the initializer
            image = object.__new__(FunctionalReport)
            image.__dict__.update(rep.__dict__, m1=-rep.m1)
            rep = image
        reports.append(rep)
    negative = negative[at]
    quad = [rep.rescaled_energy for rep in reports]
    closed = _closed_form_energies(p, np.array([cp.zeta for cp in curve], dtype=float)).tolist()
    raise_first([
        (negative, lambda k: NegativeInputError("fields must be non-negative")),
        (np.abs(np.subtract(closed, quad)) > _ENERGY_TOL, lambda k: MismatchError(
            f"energy mismatch at sigma = {curve[k].ell:.6g}: quadrature "
            f"{quad[k]:.15g} vs closed form {closed[k]:.15g}"))])
    return reports


def energy_along_curve(curve: list[CurvePoint]) -> list[tuple[float, float]]:
    """(sigma, E_*) along a continuation curve, sorted by sigma (``CurvePoint.ell``);
    see curve_reports."""
    reports = curve_reports(curve)
    return sorted(((cp.ell, rep.rescaled_energy) for cp, rep in zip(curve, reports)),
                  key=lambda t: t[0])
