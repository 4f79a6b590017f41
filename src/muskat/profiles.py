"""Exact steady-profile constructions for the rescaled thin-film system.

Every steady state is piecewise quadratic in x with even powers only, so a
profile is stored symbolically as a list of intervals carrying (c0, c2)
coefficients.  Norms, moments and energies are then exact, which is what
lets the verification tolerances sit near machine precision.

The constructions follow three routes:

* even profiles: five parameter regimes, two of them with closed-form
  support radii, two reduced to a single monotone scalar equation (one
  directly, one through the fluid-swap duality), and one degenerate;
* non-symmetric profiles with connected supports: a scalar equation for the
  support ratio, solved on [0, 1);
* non-symmetric profiles with one disconnected support: an underdetermined
  five-equation polynomial system traced as a one-parameter curve by Newton
  continuation from the even solution, with endpoints snapped to the
  boundary constructions above; Newton runs on its two cubic equations in
  (alpha, beta) at fixed sigma = alpha + alpha1, the three quadratic ones
  solved in closed form.  The mirror x -> -x sends sigma to -sigma, so only
  the sigma > 0 half is traced and the other half is its mirror image.

``steady_state(p, sigma)`` builds any one state of that continuum, up to
+-``sigma_end(p)``; it, the curve and its ends share one set-up of p
(``_continuum_setup``).

Every state of sextuplet shape gamma1 <= beta1 <= alpha1 <= 0 <= alpha <=
beta <= gamma (even with a split film, connected, boundary, curve) gets its
pieces from the one function ``_zeta_pieces``.  Each returned state is built
and checked once: its algebraic system by the solver that computes it, in the
frame that solves it, then its fields in p by ``checks.check_pairs``, a whole
curve (its even state too) in one batch and a left connected state mirrored
before its batch.  Only ``profile_from_zeta``, given a sextuplet from outside,
checks a sextuplet's order and system residual in p.

Every one of these states whose even profile has F split (R_mu <= r_minus)
is built in the dual parameters and mapped back by the duality's dilation
alone, zeta -> lam * zeta (``_work_frame``, ``_p_frame_states``): such a
state, a whole curve included, is lam times the same state of its dual
triple, bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .checks import Pieces, check_pairs, steady_residuals
from .numerics import (
    NumericsError,
    find_root_bracketed,
    max_abs,
    newton_solve,
)
from .params import (
    _BAND,
    ContinuumClass,
    EvenCase,
    FluidParams,
    Regime,
    classify_regime,
    dual_params,
    thresholds,
)

__all__ = [
    "Piece",
    "PiecewiseQuadratic",
    "ProfilePair",
    "CurvePoint",
    "RegimeError",
    "InvalidZetaError",
    "ContinuationStallError",
    "even_profile",
    "connected_profile",
    "boundary_disconnected_profile",
    "steady_state",
    "sigma_end",
    "continue_curve",
    "curve_endpoint_kind",
    "profile_from_zeta",
    "reflect",
    "dual_transform",
    "steady_residual",
    "steady_residual_fields",
    "xi0",
    "xi3",
    "residuals_eq41_43",
    "residuals_d1",
    "residuals_R1",
    "residuals_R2",
    "profile_to_dict",
    "sample_profile",
]

_SYSTEM_TOL = 1e-10


def _system_tol(p: FluidParams) -> float:
    # the algebraic systems carry terms of size ~ 9 R_mu (1+R)(1+eta^2);
    # keep the absolute floor but stay a safe factor above float64 there
    scale = 9.0 * p.R_mu * (1.0 + p.R) * (1.0 + p.eta**2)
    return max(_SYSTEM_TOL, 5e-14 * scale)


def _require_solved(rows: Sequence[float], p: FluidParams, what: str) -> None:
    res = max_abs(rows)
    if not res <= _system_tol(p):  # a NaN residual fails too
        raise RuntimeError(f"{what} residual {res:.3e}")


class RegimeError(Exception):
    """Requested construction does not exist for these parameters."""


class InvalidZetaError(Exception):
    """Sextuplet fails the algebraic system or the ordering constraints."""


class ContinuationStallError(NumericsError):
    """Newton continuation failed repeatedly at the minimal step."""


# ----------------------------------------------------------------------
# piecewise-quadratic representation
# ----------------------------------------------------------------------

Piece = tuple[float, float, float, float]  # (l, r, c0, c2): c0 + c2*x^2 on [l, r]


def _kept_pieces(pieces: Sequence[Sequence[float]]) -> list:
    """The pieces wider than 1e-14 times the largest |end| (at least 1), in
    order of their left ends: a stable sort, run only when they are out of it."""
    scale = 1.0
    for l, r, _, _ in pieces:
        al, ar = abs(l), abs(r)
        w = ar if ar > al else al
        if w > scale:  # max()'s rule: a NaN never wins
            scale = w
    min_width = 1e-14 * scale
    kept, ordered = [], True
    for q in pieces:
        if q[1] - q[0] > min_width:
            if kept and not kept[-1][0] <= q[0]:
                ordered = False
            kept.append(q)
    if not ordered:
        kept.sort(key=lambda q: q[0])
    return kept


def _clean_pieces(pieces: Sequence[Sequence[float]]) -> tuple[Piece, ...]:
    return tuple([(float(l), float(r), float(c0), float(c2))
                  for l, r, c0, c2 in _kept_pieces(pieces)])


@dataclass(frozen=True)
class PiecewiseQuadratic:
    """Even-power quadratic segments; the function is zero off all pieces."""

    pieces: tuple[Piece, ...]

    @staticmethod
    def from_pieces(pieces: Iterable[Sequence[float]]) -> "PiecewiseQuadratic":
        return PiecewiseQuadratic(_clean_pieces(list(pieces)))

    # -- evaluation --------------------------------------------------

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        todo = np.ones_like(x, dtype=bool)
        for l, r, c0, c2 in self.pieces:
            m = todo & (x >= l) & (x <= r)
            out[m] = c0 + c2 * x[m] ** 2
            todo &= ~m
        return out

    # -- exact integrals ---------------------------------------------

    def mass(self) -> float:
        """Exact integral of the function, one piece at a time."""
        total = 0.0
        for l, r, c0, c2 in self.pieces:
            total += c0 * (r - l) + c2 * (r**3 - l**3) / 3.0
        return total

    # -- structure ----------------------------------------------------

    def peak(self) -> float:
        best = 0.0
        for l, r, c0, c2 in self.pieces:
            cand = [c0 + c2 * l**2, c0 + c2 * r**2]
            if l < 0.0 < r:
                cand.append(c0)
            best = max(best, *cand)
        return best

    def supports(self) -> list[tuple[float, float]]:
        """Maximal intervals of strict positivity (touching at a zero splits)."""
        if not self.pieces:
            return []
        tol = 1e-12 * max(self.peak(), 1.0)
        width = max(abs(self.pieces[0][0]), abs(self.pieces[-1][1]), 1.0)
        out: list[list[float]] = []
        for l, r, c0, c2 in self.pieces:
            joint = c0 + c2 * l**2
            if out and l - out[-1][1] <= 1e-12 * width and joint > tol:
                out[-1][1] = r
            else:
                out.append([l, r])
        return [(a, b) for a, b in out]


# ----------------------------------------------------------------------
# profile pair
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ProfilePair:
    """A steady pair (F, G), each of unit mass, with its parameters."""

    F: PiecewiseQuadratic
    G: PiecewiseQuadratic
    params: FluidParams
    label: str = ""
    zeta: tuple[float, ...] | None = None

    # grid -> read-only (2, n) stack of the exact cell averages of F and G
    _averages: dict = field(init=False, default_factory=dict, compare=False,
                            hash=False, repr=False)

    def __post_init__(self):
        check_pairs(self.params, [self.F], [self.G])

    @classmethod
    def _checked(cls, F, G, params, label, zeta) -> "ProfilePair":
        """A pair whose fields ``check_pairs`` has passed, built without
        running ``__post_init__``'s checks a second time."""
        pp = object.__new__(cls)
        pp.__dict__.update(F=F, G=G, params=params, label=label, zeta=zeta, _averages={})
        return pp

    @property
    def support_F(self) -> list[tuple[float, float]]:
        return self.F.supports()

    @property
    def support_G(self) -> list[tuple[float, float]]:
        return self.G.supports()


@dataclass(frozen=True)
class CurvePoint:
    """One steady state on the continuation curve; ``ell`` is its curve
    parameter sigma = alpha + alpha1 = zeta[2] + zeta[3], which is 0.0 at the
    even state and changes sign under the mirror x -> -x."""

    ell: float
    zeta: tuple[float, float, float, float, float, float]
    profile: ProfilePair


# ----------------------------------------------------------------------
# the algebraic systems, each as the tuple of its rows
# ----------------------------------------------------------------------


def residuals_eq41_43(p: FluidParams, a: float, b: float, g: float) -> tuple[float, ...]:
    R, Rmu, e2 = p.R, p.R_mu, p.eta**2
    s, q = Rmu - R, Rmu - R - 1.0
    return (s * b**3 - R * q * a**3 / (1.0 + R) - 4.5 * e2 * Rmu,
            g**3 - s * b**3 + q * a**3 - 4.5 * Rmu,
            g**2 - s * b**2 + q * a**2)


def residuals_d1(p: FluidParams, b1: float, a: float, b: float, g: float) -> tuple[float, ...]:
    R, Rmu, e2 = p.R, p.R_mu, p.eta**2
    s, q = Rmu - R, Rmu - R - 1.0
    return (Rmu * b1**3 - (1.0 + R) * s * b**3 + R * q * a**3 + 9.0 * e2 * Rmu * (1.0 + R),
            g**3 - s * b**3 + q * a**3 - 9.0 * Rmu,
            g**2 - s * b**2 + q * a**2,
            Rmu * b1**2 - (1.0 + R) * s * b**2 + R * q * a**2)


def residuals_R1(p: FluidParams, zeta: Sequence[float]) -> tuple[float, ...]:
    R, Rmu, e2 = p.R, p.R_mu, p.eta**2
    s, q = Rmu - R, Rmu - R - 1.0
    g1, b1, a1, a, b, g = zeta
    return (g1**2 - s * b1**2 + q * a1**2,
            g**2 - s * b**2 + q * a**2,
            R * (g1**2 - g**2) + s * (b1**2 - b**2),
            s * (b**3 - b1**3) - R * q * (a**3 - a1**3) / (1.0 + R) - 9.0 * e2 * Rmu,
            (g**3 - g1**3) - s * (b**3 - b1**3) + q * (a**3 - a1**3) - 9.0 * Rmu)


def residuals_R2(p: FluidParams, zeta: Sequence[float]) -> tuple[float, ...]:
    R, Rmu, e2 = p.R, p.R_mu, p.eta**2
    g1, b1, a1, a, b, g = zeta
    u, w = 1.0 + R - Rmu, R - Rmu
    return (Rmu * g1**2 - R * u * b1**2 + (1.0 + R) * w * a1**2,
            Rmu * g**2 - R * u * b**2 + (1.0 + R) * w * a**2,
            Rmu * (g**2 - g1**2) + w * (a**2 - a1**2),
            Rmu * (g**3 - g1**3) - R * u * (b**3 - b1**3) + (1.0 + R) * w * (a**3 - a1**3)
            - 9.0 * e2 * Rmu * (1.0 + R),
            u * (b**3 - b1**3) - w * (a**3 - a1**3) - 9.0 * Rmu)


def _sextuplet_system(p: FluidParams):
    """R1 (G split) for R_mu > R + 1, R2 (F split) for R_mu < R, else None."""
    if p.R_mu > p.R + 1.0:
        return residuals_R1
    if p.R_mu < p.R:
        return residuals_R2
    return None


# ----------------------------------------------------------------------
# steady residual
# ----------------------------------------------------------------------


def steady_residual_fields(F: PiecewiseQuadratic, G: PiecewiseQuadratic,
                           p: FluidParams) -> float:
    """Exact max of |F * (pressure_F)'| and |G * (pressure_G)'|.

    On each interval [u, v] between breakpoints of F and G, each field is one
    c0 + c2 x^2 and its pressure gradient is k x, so each term is the odd cubic
    k (c0 x + c2 x^3): largest in magnitude at u, at v (one-sided) or at
    x = +-sqrt(-c0 / (3 c2)) inside.  Intervals shorter than 1e-13 of the span
    come from breakpoints equal up to rounding and are skipped.
    """
    with np.errstate(all="ignore"):
        return float(steady_residuals(p, Pieces([F, G]))[0])


def steady_residual(pp: ProfilePair) -> float:
    return steady_residual_fields(pp.F, pp.G, pp.params)


def _field(pieces: tuple) -> PiecewiseQuadratic:
    """The field of these finished pieces, made without the dataclass's
    initializer."""
    q = object.__new__(PiecewiseQuadratic)
    q.__dict__["pieces"] = pieces
    return q


def _float_fields(fields) -> tuple[list, list]:
    """(Fs, Gs), each state's F pieces and G pieces made fields in one pass,
    the one ``_kept_pieces`` pass a state's pieces get; a curve sends only
    its traced states here and mirrors the other half from their fields
    (``_mirror_finished``).  Every piece is a
    tuple of floats, as ``_zeta_pieces``, the even forms and the symmetry
    maps build them, so the kept tuples serve as they are: each field holds
    the pieces of ``PiecewiseQuadratic.from_pieces``, whose float() of a
    Python float is that float (other entries, from parameters given as
    numpy scalars or a pair built by hand, keep their type and bits)."""
    Fs, Gs = out = ([], [])
    for state in fields:
        for pieces, dest in zip(state, out):
            dest.append(_field(tuple(_kept_pieces(pieces))))
    return Fs, Gs


def _finish_pairs(p: FluidParams, fields, label: str, zetas=None) -> list[ProfilePair]:
    """The pairs of p with each state's (F pieces, G pieces) and zeta, every
    state checked in one batch (see ``check_pairs``)."""
    Fs, Gs = _float_fields(fields)
    check_pairs(p, Fs, Gs, label)
    return [ProfilePair._checked(F, G, p, label, zeta)
            for F, G, zeta in zip(Fs, Gs, zetas or [None] * len(Fs))]


def _finish_pair(F, G, p, label, zeta=None) -> ProfilePair:
    zetas = None if zeta is None else [tuple(float(z) for z in zeta)]
    return _finish_pairs(p, [(F, G)], label, zetas)[0]


# ----------------------------------------------------------------------
# even profiles
# ----------------------------------------------------------------------


def _xi_even(y: float, A1: float, B1: float, A2: float, B2: float, q: float) -> float:
    return np.cbrt(A1 * y - B1) ** 2 - np.cbrt(A2 * y + B2) ** 2 + q


def _solve_even_case3(p: FluidParams) -> tuple[float, float, float]:
    """Support radii (alpha, beta, gamma) of the even profile with G split.

    Exists for R_mu >= r_plus (the caller's check: CASE3 compares exactly).
    At the threshold alpha = 0 with closed-form beta, gamma; above it, the
    radii of ``_split_G_radii``.
    """
    Rmu, e2 = p.R_mu, p.eta**2
    th = thresholds(p)
    if (Rmu - th.r_plus) / th.r_plus > _BAND:
        return _split_G_radii(p)
    b = (4.5 * Rmu * e2**3 / (1.0 + e2) ** 2) ** (1.0 / 3.0)
    g = (4.5 * Rmu * (1.0 + e2)) ** (1.0 / 3.0)
    return _checked_case3(p, 0.0, b, g)


def _split_G_radii(p: FluidParams) -> tuple[float, float, float]:
    """Split-G even radii with alpha > 0, for R_mu > r_plus (the caller's check):
    alpha solves a single scalar equation in Y = alpha^(-3) with a guaranteed
    sign-change bracket."""
    R, Rmu, e2 = p.R, p.R_mu, p.eta**2
    s, q = Rmu - R, Rmu - R - 1.0
    A1 = 4.5 * Rmu * (1.0 + e2)
    B1 = q / (1.0 + R)
    A2 = 4.5 * Rmu * e2 * math.sqrt(s)
    B2 = R * q * math.sqrt(s) / (1.0 + R)
    y2 = 2.0 / (9.0 * e2 * (1.0 + R))
    hi = max(2.0 * y2, y2 + 1.0)
    while _xi_even(hi, A1, B1, A2, B2, q) >= 0.0:
        hi *= 2.0
        if hi > 1e250:
            raise RuntimeError("failed to bracket the even-profile equation")
    Y = find_root_bracketed(lambda y: _xi_even(y, A1, B1, A2, B2, q), y2, hi)
    a = Y ** (-1.0 / 3.0)
    b = (R * q * a**3 / ((1.0 + R) * s) + 4.5 * Rmu * e2 / s) ** (1.0 / 3.0)
    g = (-q * a**3 / (1.0 + R) + 4.5 * Rmu * (1.0 + e2)) ** (1.0 / 3.0)
    if not a**3 < 4.5 * (1.0 + R) * e2:
        raise RuntimeError("inner radius bound violated")
    return _checked_case3(p, a, b, g)


def _checked_case3(p: FluidParams, a: float, b: float, g: float) -> tuple[float, float, float]:
    if not (0.0 <= a < b < g):
        raise RuntimeError(f"radii out of order: {a}, {b}, {g}")
    _require_solved(residuals_eq41_43(p, a, b, g), p, "even case-3 system")
    return a, b, g


def even_profile(p: FluidParams) -> ProfilePair:
    """The unique even steady state for the given parameters."""
    R, Rmu, e2 = p.R, p.R_mu, p.eta**2
    regime = classify_regime(p)
    case = regime.even_case

    if case is EvenCase.CASE1:
        b = (4.5 * e2 * Rmu / (Rmu - R)) ** (1.0 / 3.0)
        k = (Rmu - R) / (6.0 * e2 * Rmu)
        Fp = [(-b, b, k * b**2, -k)]
        return _finish_pair(Fp, Fp, p, "even-case1")

    if case is EvenCase.CASE2:
        b = (4.5 * e2 * Rmu / (Rmu - R)) ** (1.0 / 3.0)
        g = (4.5 * Rmu * (1.0 + e2)) ** (1.0 / 3.0)
        kF = (Rmu - R) / (6.0 * Rmu * e2)
        Fp = [(-b, b, kF * b**2, -kF)]
        mid = (g**2 + (R - Rmu) * b**2) / (6.0 * Rmu)
        Gp = [(-g, -b, g**2 / (6.0 * Rmu), -1.0 / (6.0 * Rmu)),
              (-b, b, mid, -(1.0 + R - Rmu) / (6.0 * Rmu)),
              (b, g, g**2 / (6.0 * Rmu), -1.0 / (6.0 * Rmu))]
        return _finish_pair(Fp, Gp, p, "even-case2")

    if case in (EvenCase.CASE3, EvenCase.CASE4):
        work, lam = _work_frame(p, regime)
        a, b, g = _solve_even_case3(work)
        (zeta,), (fields,) = _p_frame_states(p, [(-g, -b, -a, a, b, g)], lam)
        return _finish_pair(*fields, p, f"even-case{case.value}", zeta=zeta)

    # CASE5
    b = (4.5 * Rmu / (1.0 + R - Rmu)) ** (1.0 / 3.0)
    g = (4.5 * ((1.0 + R) * e2 + R)) ** (1.0 / 3.0)
    cF = g**2 / (6.0 * (1.0 + R) * e2) \
        - R * (1.0 + R - Rmu) * b**2 / (6.0 * (1.0 + R) * Rmu * e2)
    Fp = [(-g, -b, g**2 / (6.0 * (1.0 + R) * e2), -1.0 / (6.0 * (1.0 + R) * e2)),
          (-b, b, cF, -(Rmu - R) / (6.0 * Rmu * e2)),
          (b, g, g**2 / (6.0 * (1.0 + R) * e2), -1.0 / (6.0 * (1.0 + R) * e2))]
    kG = (1.0 + R - Rmu) / (6.0 * Rmu)
    Gp = [(-b, b, kG * b**2, -kG)]
    return _finish_pair(Fp, Gp, p, "even-case5")


# ----------------------------------------------------------------------
# non-symmetric profiles with connected supports
# ----------------------------------------------------------------------


def xi0(R_mu: float, z, R: float, eta: float):
    """The paper's xi_0(z): its zero z = alpha / beta in [0, 1) reduces the
    connected quadruple's system (``residuals_d1``); none below r_M."""
    e2 = eta**2
    s, q = R_mu - R, R_mu - R - 1.0
    return (-(1.0 + e2) * (1.0 + R) * s
            - ((1.0 + R) * s - R * q * z**2) ** 1.5 / math.sqrt(R_mu)
            + e2 * (1.0 + R) * (s - q * z**2) ** 1.5
            + q * (R + e2 * (1.0 + R)) * z**3)


def _connected_quadruple(p: FluidParams) -> tuple[float, float, float, float]:
    """(beta1, alpha, beta, gamma) for the connected profile.

    The caller has checked R_mu >= r_M (band included), in p or in its dual.
    """
    R, Rmu, eta = p.R, p.R_mu, p.eta
    e2 = eta**2
    th = thresholds(p)
    if (Rmu - th.r_M) / th.r_M <= _BAND:
        z = 0.0
    else:
        z = find_root_bracketed(lambda zz: xi0(Rmu, zz, R, eta), 0.0, 1.0 - 1e-12)
    s, q = Rmu - R, Rmu - R - 1.0
    x = math.sqrt(s - q * z**2)
    y = -math.sqrt(((1.0 + R) * s - R * q * z**2) / Rmu)
    denom = Rmu * y**2 * (1.0 - y) + R * q * z**2 * (1.0 - z)
    b = (9.0 * e2 * Rmu * (1.0 + R) / denom) ** (1.0 / 3.0)
    quad = (y * b, z * b, b, x * b)
    _require_solved(residuals_d1(p, *quad), p, "connected-profile system")
    return quad


def connected_profile(p: FluidParams, side: str = "right") -> ProfilePair:
    """Non-symmetric steady state with both supports connected.

    Exists only for R_mu >= r_M (lighter fluid extremely viscous) or
    R_mu <= r_m (dual).  ``side='right'`` returns the orientation in which
    the outer lobe sits at x > 0; 'left' its mirror image.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    _, work, lam, zeta_end, _, _ = _continuum_setup(p, ContinuumClass.CONNECTED_ENDPOINTS)
    # the sextuplet with its split support collapsed onto beta1, unmirrored
    _, (fields,) = _p_frame_states(p, [_reflect_zeta(zeta_end)], lam)
    label = "connected-large" if work is p else "connected-small"
    if side == "left":
        fields, label = [_mirror(q) for q in fields], label + "|reflected"
    return _finish_pair(*fields, p, label)


# ----------------------------------------------------------------------
# boundary profiles with one disconnected support (alpha = 0)
# ----------------------------------------------------------------------


def xi3(R_mu: float, y, R: float, eta: float):
    """The paper's xi_3(y): its zero y = beta1 / beta reduces the alpha = 0
    sextuplet's system (``residuals_R1``); none outside (r_plus, r_M)."""
    e2 = eta**2
    s, q = R_mu - R, R_mu - R - 1.0
    c = (s / R) ** 1.5
    return ((1.0 + e2) * s * y**3
            + e2 * c * np.maximum((1.0 + R) - y**2, 0.0) ** 1.5
            + (R + e2 * (1.0 + R)) * c * math.sqrt((1.0 + R) / q)
            * np.maximum(y**2 - 1.0, 0.0) ** 1.5
            + e2 * s**1.5 - (1.0 + e2) * s)


def _boundary_zeta(p: FluidParams) -> tuple[float, ...]:
    """Sextuplet with alpha = 0 solving the five-equation system directly.

    The caller has checked r_plus < R_mu < r_M (bands excluded), in p or in
    its dual; outside that window the equation has no admissible root.
    """
    R, Rmu, eta = p.R, p.R_mu, p.eta
    e2 = eta**2
    s, q = Rmu - R, Rmu - R - 1.0
    y0 = -math.sqrt((1.0 + R) * s / Rmu)
    y = find_root_bracketed(lambda yy: xi3(Rmu, yy, R, eta), y0, -1.0)
    t = math.sqrt(s)
    x = -math.sqrt(s / R) * math.sqrt((1.0 + R) - y**2)
    z = -math.sqrt((1.0 + R) * s / (R * q)) * math.sqrt(y**2 - 1.0)
    B = s * (1.0 - y**3) - s**1.5 * math.sqrt((1.0 + R) / (R * q)) * (y**2 - 1.0) ** 1.5
    b = (9.0 * e2 * Rmu / B) ** (1.0 / 3.0)
    zeta = (x * b, y * b, z * b, 0.0, b, t * b)
    _require_solved(residuals_R1(p, zeta), p, "boundary sextuplet")
    if not (zeta[0] < zeta[1] < zeta[2] < 0.0 < zeta[4] < zeta[5]):
        raise RuntimeError(f"boundary sextuplet out of order: {zeta}")
    return zeta


def _reflect_zeta(zeta: Sequence[float]) -> tuple[float, ...]:
    return tuple(-z for z in reversed(tuple(zeta)))


def boundary_disconnected_profile(p: FluidParams, side: str = "right") -> CurvePoint:
    """Curve endpoint with alpha = 0 (one support split at the origin).

    Exists for r_plus < R_mu < r_M, or in the dual window r_m < R_mu <
    r_minus where it is obtained by the fluid-swap transform.  ``side``
    picks one of the two mirror-image endpoints: 'right' is the first state
    of ``continue_curve`` (sigma < 0), built as the mirror image of 'left',
    the last one (sigma > 0), as the curve builds them.  'right' is
    ``steady_state`` at -``sigma_end``, 'left' at +``sigma_end``.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    cont = _continuum_setup(p, ContinuumClass.DISCONNECTED_ENDPOINTS)
    return _continuum_state(p, cont, -cont.sigma_end if side == "right" else cont.sigma_end)


# ----------------------------------------------------------------------
# profiles from a sextuplet
# ----------------------------------------------------------------------


def _zeta_pieces(p: FluidParams, zeta: Sequence[float]) -> tuple[list, list]:
    """Pieces of F and G for g1 <= b1 <= a1 <= 0 <= a <= b <= g: G split where
    ``_sextuplet_system`` is R1, else F split; zero-width pieces are dropped later."""
    g1, b1, a1, a, b, g = zeta
    R, Rmu, e2 = p.R, p.R_mu, p.eta**2
    kF = (Rmu - R) / (6.0 * Rmu * e2)  # negative when F is split
    kG = (1.0 + R - Rmu) / (6.0 * Rmu)
    if _sextuplet_system(p) is residuals_R1:
        c0m = (R * g1**2 + (Rmu - R) * b1**2) / (6.0 * (1.0 + R) * Rmu * e2)
        Fp = [(b1, a1, kF * b1**2, -kF),
              (a1, a, c0m, -1.0 / (6.0 * (1.0 + R) * e2)),
              (a, b, kF * b**2, -kF)]
        Gp = [(g1, b1, g1**2 / (6.0 * Rmu), -1.0 / (6.0 * Rmu)),
              (b1, a1, kG * a1**2, -kG),
              (a, b, kG * a**2, -kG),
              (b, g, g**2 / (6.0 * Rmu), -1.0 / (6.0 * Rmu))]
        return Fp, Gp
    cO = 1.0 / (6.0 * (1.0 + R) * e2)
    Fp = [(g1, b1, cO * g1**2, -cO),
          (b1, a1, kF * a1**2, -kF),
          (a, b, kF * a**2, -kF),
          (b, g, cO * g**2, -cO)]
    c0m = ((Rmu - R) * a1**2 + (1.0 + R - Rmu) * b1**2) / (6.0 * Rmu)
    Gp = [(b1, a1, kG * b1**2, -kG),
          (a1, a, c0m, -1.0 / (6.0 * Rmu)),
          (a, b, kG * b**2, -kG)]
    return Fp, Gp


def profile_from_zeta(p: FluidParams, zeta: Sequence[float]) -> ProfilePair:
    """Assemble the piecewise formulas attached to a disconnected sextuplet.

    The sextuplet must be finite, weakly ordered and satisfy the five-equation
    system of its regime (large R_mu: G split; small R_mu: F split) to within
    max(1e-8, 1e-12 * 9 R_mu (1 + R)(1 + eta^2)); degenerate entries (collapsed
    or zero-width intervals) produce the corresponding boundary profiles.
    """
    zeta = tuple(float(z) for z in zeta)
    if len(zeta) != 6 or not all(map(math.isfinite, zeta)):
        raise InvalidZetaError(f"bad sextuplet {zeta!r}")
    tol = 1e-12 * max(abs(zeta[0]), abs(zeta[5]), 1.0)
    if not (all(b - a >= -tol for a, b in zip(zeta, zeta[1:]))
            and zeta[2] <= tol and zeta[3] >= -tol):
        raise InvalidZetaError(f"ordering violated: {zeta}")
    system = _sextuplet_system(p)
    if system is None:
        raise InvalidZetaError("disconnected-support sextuplets require R_mu > R + 1 or R_mu < R")
    res = max_abs(system(p, zeta))
    if res > max(1e-8, 1e-12 * 9.0 * p.R_mu * (1.0 + p.R) * (1.0 + p.eta**2)):
        raise InvalidZetaError(f"system residual {res:.3e} too large")
    label = "zeta-large" if system is residuals_R1 else "zeta-small"
    return _finish_pair(*_zeta_pieces(p, zeta), p, label, zeta)


# ----------------------------------------------------------------------
# reflection / duality
# ----------------------------------------------------------------------


def _mirror(pieces: Sequence[Piece]) -> list:
    """The pieces of x -> q(-x), in order of their left ends."""
    return [(-r, -l, c0, c2) for l, r, c0, c2 in reversed(pieces)]


def reflect(pp: ProfilePair) -> ProfilePair:
    """Mirror image about x = 0 (also a steady state)."""
    fields = (_mirror(pp.F.pieces), _mirror(pp.G.pieces))
    return _finish_pairs(pp.params, [fields],
                         pp.label + "|reflected" if pp.label else "reflected",
                         [None if pp.zeta is None else _reflect_zeta(pp.zeta)])[0]


def dual_transform(pp: ProfilePair) -> ProfilePair:
    """Fluid-swap transform: (F, G) -> (lam G(lam .), lam F(lam .)).

    The result is a steady state for the dual parameters; applying the
    transform twice returns the original pair.
    """
    p1, lam = dual_params(pp.params)
    zeta1 = None
    if pp.zeta is not None:
        cand = tuple(z / lam for z in pp.zeta)
        system = _sextuplet_system(p1)
        if system is not None and max_abs(system(p1, cand)) < 1e-8:
            zeta1 = cand
    # q -> lam q(lam .), which keeps the mass
    fields = tuple([(l / lam, r / lam, lam * c0, lam**3 * c2) for l, r, c0, c2 in q.pieces]
                   for q in (pp.G, pp.F))
    return _finish_pairs(p1, [fields], (pp.label + "|dual") if pp.label else "dual",
                         [zeta1])[0]


# ----------------------------------------------------------------------
# continuation curve
# ----------------------------------------------------------------------


def _work_frame(p: FluidParams, regime: Regime) -> tuple[FluidParams, float]:
    """(work, lam): the frame in which the non-even states of p, and an even
    state with a split support, are built and their algebraic systems solved
    and checked.  That is p itself, with lam = 1.0, when its even profile has
    G split (CASE3), else the dual parameters, with the duality's lam, which
    can be 1.0 too: ``work is p`` tells the frames apart.  A work-frame
    sextuplet z maps to p as lam * z (``_p_frame_states``), the one map from
    the work frame to p."""
    if regime.even_case is EvenCase.CASE3:
        return p, 1.0
    return dual_params(p)


def _p_frame_states(p: FluidParams, zws: Sequence[Sequence[float]],
                    lam: float) -> tuple[list, list]:
    """(zetas, fields): the sextuplets in p of the work-frame ones zws, each
    dilated by the duality's lam (1.0 when p is the work frame), and each
    one's (F pieces, G pieces)."""
    zetas = [tuple([lam * z for z in zw]) for zw in zws]
    return zetas, [_zeta_pieces(p, zeta) for zeta in zetas]


def _mirror_finished(zetas: list, Fs: list, Gs: list) -> tuple[list, list, list]:
    """The mirror images of the states with these sextuplets and finished
    fields, in reverse order.  Each field is made from the mirror of the
    kept pieces as they are: those are the kept pieces of the mirror, since
    a piece's width and the |ends| that scale the width test do not change
    under the mirror, and ordered pieces stay ordered."""
    Fs, Gs = ([_field(tuple(_mirror(q.pieces))) for q in reversed(qs)] for qs in (Fs, Gs))
    return [_reflect_zeta(zeta) for zeta in reversed(zetas)], Fs, Gs


def _curve_points(p: FluidParams, work: FluidParams, zetas: list, Fs: list, Gs: list,
                  even_label: str | None = None) -> list[CurvePoint]:
    """The states of p with these sextuplets and finished fields, solved in
    ``work`` and checked as one batch (see ``check_pairs``), the centre one
    labelled ``even_label`` when that is given; a state's curve parameter is
    sigma = alpha + alpha1 of its sextuplet.  Each point is made without the
    dataclass's initializer, as ``ProfilePair._checked`` makes pairs."""
    label = "zeta-large" if work is p else "zeta-small"
    check_pairs(p, Fs, Gs, label)
    labels = [label] * len(zetas)
    if even_label is not None:
        labels[len(labels) // 2] = even_label
    points = []
    for zeta, F, G, own in zip(zetas, Fs, Gs, labels):
        cp = object.__new__(CurvePoint)
        cp.__dict__.update(ell=zeta[2] + zeta[3], zeta=zeta,
                           profile=ProfilePair._checked(F, G, p, own, zeta))
        points.append(cp)
    return points


# where the non-even states exist (None: any of them), for RegimeError
_EXIST = {
    None: "only the even steady state exists for R_mu in [{th.r_minus:.6g}, {th.r_plus:.6g}]",
    ContinuumClass.CONNECTED_ENDPOINTS: "connected non-symmetric profiles exist only for "
                                        "R_mu >= {th.r_M:.6g} or R_mu <= {th.r_m:.6g}",
    ContinuumClass.DISCONNECTED_ENDPOINTS: "alpha = 0 endpoints exist only for R_mu in "
                                           "({th.r_plus:.6g}, {th.r_M:.6g}) or "
                                           "({th.r_m:.6g}, {th.r_minus:.6g})",
}


class _Continuum(NamedTuple):
    """The set-up of p's continuum that all of its states share."""

    even_label: str  # "even-caseN", the label of its state at sigma = 0
    work: FluidParams  # the frame that solves its states (``_work_frame``)
    lam: float  # the dilation from that frame to p
    zeta_end: tuple  # its end at sigma > 0, in the work frame
    sigma_end: float  # that end's sigma in p
    tol: float  # the Newton tolerance of its states


def _continuum_setup(p: FluidParams, ends: ContinuumClass | None = None) -> _Continuum:
    """p's continuum set-up, its end at sigma > 0 the mirror of the connected
    quadruple collapsed onto beta1, or of the alpha = 0 sextuplet.
    RegimeError in the unique-even regime, or where the ends are not of the
    class ``ends``."""
    regime = classify_regime(p)
    if regime.continuum is ContinuumClass.UNIQUE_EVEN or ends not in (None, regime.continuum):
        raise RegimeError(_EXIST[ends].format(th=thresholds(p)) + f"; got {p.R_mu:.6g}")
    work, lam = _work_frame(p, regime)
    if regime.continuum is ContinuumClass.CONNECTED_ENDPOINTS:
        b1, a, b, g = _connected_quadruple(work)
        zeta_end = _reflect_zeta((b1, b1, b1, a, b, g))
    else:
        zeta_end = _reflect_zeta(_boundary_zeta(work))
    tol = max(1e-12, 1e-13 * 9.0 * work.R_mu * (1.0 + work.R) * (1.0 + work.eta**2))
    return _Continuum(f"even-case{regime.even_case.value}", work, lam, zeta_end,
                      lam * zeta_end[2] + lam * zeta_end[3], tol)


def _continuum_state(p: FluidParams, cont: _Continuum, sigma: float) -> CurvePoint:
    """``steady_state(p, sigma)`` on p's set-up ``cont``."""
    if not abs(sigma) <= cont.sigma_end:
        raise RegimeError(f"sigma must lie in [-sigma_end, sigma_end], sigma_end = "
                          f"{cont.sigma_end!r}; got {sigma!r}")
    work, lam = cont.work, cont.lam
    if abs(sigma) == cont.sigma_end:
        zw = cont.zeta_end
    else:
        a, b, g = _split_G_radii(work)
        zw = ((-g, -b, -a, a, b, g) if sigma == 0.0
              else _solve_R1_at(work, abs(sigma) / lam, 0.0, [a, b], None, None, cont.tol)[1])
    zetas, fields = _p_frame_states(p, [zw], lam)
    Fs, Gs = _float_fields(fields)
    if sigma < 0.0:
        zetas, Fs, Gs = _mirror_finished(zetas, Fs, Gs)
    return _curve_points(p, work, zetas, Fs, Gs, cont.even_label if sigma == 0.0 else None)[0]


def steady_state(p: FluidParams, sigma: float = 0.0) -> CurvePoint:
    """The checked steady state of p at sigma = alpha + alpha1, any state of
    the continuum that ``continue_curve`` samples, built as the curve builds
    its states: the even one from the curve's radii at 0, the curve's ends
    bitwise at +-``sigma_end(p)``, else one Newton solve at |sigma| from the
    even radii in the work frame, with its bisection.  The state at sigma < 0
    is the mirror image of the one at -sigma, its fields made as the curve
    makes them.  RegimeError for |sigma| > sigma_end, and in the unique-even
    regime, whose one steady state is ``even_profile(p)``."""
    return _continuum_state(p, _continuum_setup(p), sigma)


def sigma_end(p: FluidParams) -> float:
    """sigma of the sigma > 0 end of p's continuum, ``continue_curve(p)[-1].ell``;
    0.0 in the unique-even regime, where the continuum is the even state."""
    try:
        return _continuum_setup(p).sigma_end
    except RegimeError:  # the unique-even regime
        return 0.0


def _R1_reduced_funcs(p: FluidParams, sigma: float):
    """Rows 4 and 5 of R1 and their Jacobian in (alpha, beta) at fixed
    sigma = alpha + alpha1, with alpha1 = sigma - alpha and the other
    unknowns given by the three quadratic rows of R1 in closed form; NaN
    where a radicand is not positive.  Returns (F, J, complete):
    ``complete(u)`` is the sextuplet at u, gamma1 < beta1 < 0 < gamma, or None
    without one, remembered for the last iterate, so F, J and the caller share
    one completion per iterate.  J takes alpha and beta from u itself, so a
    hit on an iterate that differs only in the sign of a zero changes
    nothing it reads.  Every value of F and of the completion is bitwise
    that of the same expression in ``residuals_R1``."""
    R, Rmu, e2 = p.R, p.R_mu, p.eta**2
    s, q = Rmu - R, Rmu - R - 1.0
    Rq, R1 = R * q, 1.0 + R
    k = Rq / R1
    sR1 = s * R1
    c4, c5 = 9.0 * e2 * Rmu, 9.0 * Rmu
    last = [None, None]  # (alpha, beta) and its completion

    def complete(u):
        key = (u[0], u[1])
        if key != last[0]:
            a, b = key
            a1 = sigma - a
            a2, b2, a12 = a**2, b**2, a1**2
            g2 = s * b2 - q * a2
            b12 = b2 + Rq * (a12 - a2) / sR1
            g12 = s * b12 - q * a12
            zeta = None
            if g2 > 0.0 and b12 > 0.0 and g12 > 0.0:
                zeta = (-math.sqrt(g12), -math.sqrt(b12), a1, a, b, math.sqrt(g2))
            last[:] = key, zeta
        return last[1]

    def F(u):
        zeta = complete(u)
        if zeta is None:
            return math.nan, math.nan
        g1, b1, a1, a, b, g = zeta
        db3, da3 = b**3 - b1**3, a**3 - a1**3
        return s * db3 - Rq * da3 / R1 - c4, (g**3 - g1**3) - s * db3 + q * da3 - c5

    def J(u):
        zeta = complete(u)
        if zeta is None:
            return (math.nan, math.nan), (math.nan, math.nan)
        (g1, b1, _, _, _, g), (a, b) = zeta, u
        a1 = sigma - a
        # chain rule with d(alpha1) = -d(alpha): d(b1^3) = 3 b1 (b db - (k/s)(a + a1) da),
        # d(g^3) = 3 g (s b db - q a da), d(g1^3) = 3 g1 (s b db - (k (a + a1) - q a1) da)
        return ((3.0 * k * (a * (b1 - a) + a1 * (b1 - a1)), 3.0 * s * b * (b - b1)),
                (3.0 * (q * (a * (a - g) + a1 * (a1 - g1)) + k * (a + a1) * (g1 - b1)),
                 3.0 * s * b * (g - g1 - b + b1)))

    return F, J, complete


def _solve_R1_at(p: FluidParams, s_target: float, s_from: float, u_from: Sequence[float],
                 u_prev: Sequence[float] | None, s_prev: float | None,
                 tol: float) -> tuple[list[float], tuple]:
    """Newton solve in (alpha, beta) at sigma = s_target, bisecting the
    parameter step on failure; returns (alpha, beta) and the sextuplet.  The
    secant predictor works on the two Python floats, each entry as an array
    would."""
    s_cur, (u0, u1) = s_from, u_from
    u_sec, s_sec = u_prev, s_prev
    step = s_target - s_cur
    guard, zeta = 0, None
    while s_cur != s_target:
        if abs(step) > abs(s_target - s_cur):
            step = s_target - s_cur
        trial = s_cur + step
        if u_sec is not None and s_sec != s_cur:
            f = (trial - s_cur) / (s_cur - s_sec)
            pred = [u0 + (u0 - u_sec[0]) * f, u1 + (u1 - u_sec[1]) * f]
        else:
            pred = [u0, u1]
        F, J, complete = _R1_reduced_funcs(p, trial)
        try:
            u_new = newton_solve(F, J, pred, tol)
            z_new = complete(u_new)
            g1, b1, a1, a, b, g = z_new or (math.nan,) * 6
            ok = g1 < b1 < a1 < 0.0 < a < b < g
        except NumericsError:
            ok = False
        if ok:
            u_sec, s_sec = (u0, u1), s_cur
            (u0, u1), s_cur, zeta = u_new, trial, z_new
        else:
            step *= 0.5
            guard += 1
            if abs(step) < 1e-12 * max(abs(s_target), 1.0) or guard > 200:
                raise ContinuationStallError(
                    f"continuation stalled near sigma = {s_cur:.12g}")
    return [u0, u1], zeta


def continue_curve(p: FluidParams, n_points: int = 101) -> list[CurvePoint]:
    """The full one-parameter family of steady states through the even one.

    Returns ``n_points`` states, an odd number, ordered by the curve
    parameter sigma = alpha + alpha1 of each state's sextuplet, which the
    mirror x -> -x sends to -sigma.  The grid is symmetric in sigma: the
    even state sits at the centre with sigma exactly 0.0, and the endpoints
    are snapped to their exact boundary constructions at -sigma_end and
    +sigma_end.  Newton continuation traces the sigma > 0 half at fixed
    sigma in the work frame (``_work_frame``), up to the mirror image of the
    end that ``_connected_quadruple`` or ``_boundary_zeta`` computes there,
    and each traced state maps to p as lam * zeta: below r_minus the curve
    is lam times the curve of the dual parameters, state by state.  Only
    the traced states' pieces are made fields (``_float_fields``); each
    state i of the other half is the mirror image of state n - 1 - i, its
    fields made from the mirrors of those fields' pieces
    (``_mirror_finished``), so that ``reflect(curve[i])`` is ``curve[n - 1 -
    i]`` bitwise.  All n states, the even one from the grid's own radii
    included and labelled as such from the start, are checked in the
    curve's one batch.
    """
    if n_points < 5 or n_points % 2 == 0:
        raise ValueError(f"n_points must be odd and at least 5, got {n_points}")
    even_label, work, lam, zeta_end, _, tol = _continuum_setup(p)
    a_even, b_even, g_even = _split_G_radii(work)

    half = n_points // 2
    s_end = zeta_end[2] + zeta_end[3]
    zws = [(-g_even, -b_even, -a_even, a_even, b_even, g_even)]
    u_cur, s_cur, u_prev, s_prev = [a_even, b_even], 0.0, None, None
    for i in range(1, half):
        s_new = s_end * (i / half)
        u_new, zeta = _solve_R1_at(work, s_new, s_cur, u_cur, u_prev, s_prev, tol)
        zws.append(zeta)
        u_prev, s_prev, u_cur, s_cur = u_cur, s_cur, u_new, s_new
    zws.append(zeta_end)

    zetas, fields = _p_frame_states(p, zws, lam)
    Fs, Gs = _float_fields(fields)
    low_zetas, low_Fs, low_Gs = _mirror_finished(zetas[1:], Fs[1:], Gs[1:])
    return _curve_points(p, work, low_zetas + zetas, low_Fs + Fs, low_Gs + Gs, even_label)


def curve_endpoint_kind(p: FluidParams) -> str:
    """'connected-support' or 'alpha-zero', per the continuum class."""
    cont = classify_regime(p).continuum
    if cont is ContinuumClass.UNIQUE_EVEN:
        raise RegimeError("no curve endpoints in the unique-even regime")
    return "connected-support" if cont is ContinuumClass.CONNECTED_ENDPOINTS else "alpha-zero"


# ----------------------------------------------------------------------
# closed forms along the curve
# ----------------------------------------------------------------------


def _fifth_power_energy(p: FluidParams, zetas: np.ndarray) -> np.ndarray:
    R, Rmu, e2 = p.R, p.R_mu, p.eta**2
    # fifth powers by Python's float power, as the scalar form took them
    g1, b1, a1, a, b, g = np.reshape([z**5 for z in zetas.ravel().tolist()], zetas.shape).T
    return (R * (g - g1)
            + (Rmu - R) ** 2 * (b - b1)
            - R * (Rmu - R - 1.0) ** 2 * (a - a1) / (1.0 + R)
            ) / (90.0 * e2 * Rmu**2)


def _closed_form_energies(p: FluidParams, zetas: np.ndarray) -> np.ndarray:
    """Rescaled energy E_* of each curve state, a row of an (N, 6) array of
    sextuplets in p, from fifth powers of its entries (in the dual
    parameters for R_mu < R, where the state is lam times a dual one)."""
    system = _sextuplet_system(p)
    if system is residuals_R1:
        return _fifth_power_energy(p, zetas)
    if system is residuals_R2:
        p1, lam = dual_params(p)
        return _fifth_power_energy(p1, zetas / lam) / lam
    raise RegimeError("closed-form curve energy needs R_mu > R + 1 or R_mu < R")


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def profile_to_dict(pp: ProfilePair) -> dict:
    return {
        "params": {"R": pp.params.R, "R_mu": pp.params.R_mu, "eta": pp.params.eta},
        "label": pp.label,
        "zeta": list(pp.zeta) if pp.zeta is not None else None,
        "F": [{"l": l, "r": r, "c0": c0, "c2": c2} for l, r, c0, c2 in pp.F.pieces],
        "G": [{"l": l, "r": r, "c0": c0, "c2": c2} for l, r, c0, c2 in pp.G.pieces],
        "support_F": [list(iv) for iv in pp.support_F],
        "support_G": [list(iv) for iv in pp.support_G],
    }


_SAMPLE_MARGIN = 0.05  # share of the span sampled beyond each end


def sample_profile(pp: ProfilePair, n: int = 1001) -> np.ndarray:
    """Columns x, F, G, eta^2 F + G on a uniform grid spanning both supports."""
    lo = min(pp.F.pieces[0][0], pp.G.pieces[0][0])
    hi = max(pp.F.pieces[-1][1], pp.G.pieces[-1][1])
    pad = _SAMPLE_MARGIN * (hi - lo)
    x = np.linspace(lo - pad, hi + pad, n)
    Fx, Gx = pp.F(x), pp.G(x)
    return np.column_stack([x, Fx, Gx, pp.params.eta**2 * Fx + Gx])
