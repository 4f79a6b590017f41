"""Fluid parameters, regime thresholds, classification, and parameter duality.

The two-layer system is governed by three dimensionless numbers: a density
ratio ``R``, a viscosity-weighted ratio ``R_mu``, and a mass ratio ``eta``.
With the denser fluid (subscript minus) beneath, R = rho+/(rho- - rho+),
R_mu = R mu-/mu+, and eta^2 is the mass ratio f0/g0 of the two layers.
Once (R, eta) are fixed, five critical values of R_mu partition parameter
space into regimes with qualitatively different steady states:

* ``r0``, ``r_plus``, ``r_minus`` have closed forms,
* ``r_M`` is the unique root of an auxiliary scalar function on (1, oo)
  (shifted by R),
* ``r_m`` follows from ``r_M`` of the dual parameter set.

They order as  r_m < r_minus < r0 < r_plus < r_M;  ``thresholds`` raises
where two of them round to one float.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

from .numerics import find_root_bracketed

_BAND = 1e-13  # R_mu within this relative distance of a threshold counts as on it

__all__ = [
    "FluidParams",
    "RegimeThresholds",
    "EvenCase",
    "ContinuumClass",
    "Regime",
    "thresholds",
    "classify_regime",
    "dual_params",
    "xi2",
    "threshold_residual_small",
    "require_number",
]


def require_number(name: str, v, integer: bool = False) -> None:
    """ValueError unless v is an integer (or a finite real); bools are neither."""
    kind, what = (numbers.Integral, "an integer") if integer else (numbers.Real, "a finite real")
    if isinstance(v, bool) or not isinstance(v, kind) or not (integer or math.isfinite(v)):
        raise ValueError(f"{name} must be {what}, got {v!r}")


def _require_positive(obj, names) -> None:
    """ValueError unless each named field of obj is a positive finite real."""
    for name in names:
        v = getattr(obj, name)
        require_number(name, v)
        if not v > 0:
            raise ValueError(f"{name} must be positive, got {v!r}")


@dataclass(frozen=True)
class FluidParams:
    """Dimensionless parameter triple (R, R_mu, eta), all positive."""

    R: float
    R_mu: float
    eta: float

    def __post_init__(self):
        _require_positive(self, ("R", "R_mu", "eta"))

    @property
    def theta(self) -> float:
        """Weight of the second component in the moment functionals."""
        return self.R / (self.eta**2 * self.R_mu)


@dataclass(frozen=True)
class RegimeThresholds:
    """The five critical viscosity ratios for fixed (R, eta)."""

    r_m: float
    r_minus: float
    r0: float
    r_plus: float
    r_M: float


class EvenCase(enum.Enum):
    """Which of the five even-profile constructions applies."""

    CASE1 = 1  # R_mu == r0: F and G coincide on one interval
    CASE2 = 2  # r0 < R_mu < r_plus: nested intervals, F inside G
    CASE3 = 3  # R_mu >= r_plus: G disconnected (two side blobs)
    CASE4 = 4  # R_mu <= r_minus: F disconnected (two side blobs)
    CASE5 = 5  # r_minus < R_mu < r0: nested intervals, G inside F


class ContinuumClass(enum.Enum):
    UNIQUE_EVEN = "unique-even"
    CONNECTED_ENDPOINTS = "continuum-connected-endpoints"
    DISCONNECTED_ENDPOINTS = "continuum-disconnected-endpoints"


@dataclass(frozen=True)
class Regime:
    even_case: EvenCase
    continuum: ContinuumClass


def xi2(t: float, R: float, eta: float) -> float:
    """The paper's xi_2(t), whose unique zero t on (1, oo) is r_M - R."""
    return math.sqrt(t) * (eta**2 - math.sqrt((1.0 + R) / (t + R))) - 1.0 - eta**2


def _t_M(R: float, eta: float) -> float:
    """Unique zero of xi2 on (1, oo), bracketed then solved by Brent."""
    # xi2(1) = -2 and its slope at 1 is about eta^2 / 2, so xi2 is still near
    # -1.5 at 1 + 1/eta^2; the left end is 1 + 1e-9 up to eta of about 3.2e4
    a = 1.0 + min(1e-9, 1.0 / eta**2)
    if a == 1.0:
        raise RuntimeError(
            f"cannot bracket the large-threshold root at eta = {eta:.6g}: "
            "1 + 1/eta^2 rounds to 1, so eta must stay below about 9.4e7")
    # xi2 decreases up to t2 then increases to +oo; start past the minimum.
    t2 = R ** (2.0 / 3.0) * (1.0 + R) ** (1.0 / 3.0) / eta ** (4.0 / 3.0) - R
    b = max(2.0, t2) + 1.0
    fa = xi2(a, R, eta)
    while xi2(b, R, eta) <= 0.0:
        b *= 2.0
        if b > 1e30:
            raise RuntimeError("failed to bracket the large-threshold root")
    if fa >= 0.0:
        raise RuntimeError("unexpected sign of xi2 at the left bracket end")
    return find_root_bracketed(lambda t: xi2(t, R, eta), a, b)


def threshold_residual_small(r_m: float, R: float, eta: float) -> float:
    """Residual of r_m in its defining equation sqrt(1 + R - r_m) (sqrt(R / r_m) - c)
    = 1 + c, c = eta^2 (1 + R) / R: c xi_2(R (1 + R) / r_m - R) at the dual eta."""
    c = eta**2 * (1.0 + R) / R
    return math.sqrt(1.0 + R - r_m) * (math.sqrt(R / r_m) - c) - 1.0 - c


def thresholds(p: FluidParams) -> RegimeThresholds:
    """All five critical viscosity ratios for the parameter pair (R, eta).

    r_m is constructed from r_M of the dual parameters.  As a cross-check,
    the residuals of r_M and r_m in their defining equations, each divided
    by the size of its equation's terms, are asserted below 1e-10, and the
    five must order strictly.  The result is memoised per (R, eta).
    """
    return _thresholds(float(p.R), float(p.eta))


@lru_cache(maxsize=256)
def _thresholds(R: float, eta: float) -> RegimeThresholds:
    e2 = eta**2
    r0 = R + e2 / (1.0 + e2)
    r_plus = R + ((1.0 + e2) / e2) ** 2
    r_minus = R**3 * (1.0 + R) / (R**3 + (e2 * (1.0 + R) + R) ** 2)
    r_M = R + _t_M(R, eta)
    eta1 = math.sqrt(R / (1.0 + R)) / eta
    r_m = R * (1.0 + R) / (R + _t_M(R, eta1))
    # xi2 ends in -1 - eta^2 and r_m's equation in -1 - c: divided by those,
    # each residual is relative to terms of order 1 at any R and eta
    res_M = xi2(r_M - R, R, eta) / (1.0 + e2)
    res_m = threshold_residual_small(r_m, R, eta) / (1.0 + e2 * (1.0 + R) / R)
    if abs(res_M) > 1e-10 or abs(res_m) > 1e-10:
        raise RuntimeError(f"threshold residuals too large: {res_M:.3e}, {res_m:.3e}")
    th = RegimeThresholds(r_m=r_m, r_minus=r_minus, r0=r0, r_plus=r_plus, r_M=r_M)
    # two neighbours closer than R's ulp round to one value
    pairs = list(vars(th).items())
    for (lo, a), (hi, b) in zip(pairs, pairs[1:]):
        if not a < b:
            raise RuntimeError(f"thresholds not strictly ordered at R = {R!r}, eta = {eta!r}: "
                               f"{lo} = {a!r}, {hi} = {b!r}")
    return th


def classify_regime(p: FluidParams) -> Regime:
    """Even-profile case and continuum class for the given parameters.

    The continuum class alone decides which non-even states exist.  R_mu
    within the relative band _BAND of r_m, r_minus, r_plus or r_M is on that
    threshold, which belongs to the closed-interval side: only the even state
    on r_minus and r_plus, connected endpoints on r_m and r_M.  The even case
    compares exactly; R_mu equal to r_plus (r_minus) is CASE3 (CASE4).
    """
    th = thresholds(p)
    R_mu = p.R_mu
    if R_mu >= th.r_plus:
        even = EvenCase.CASE3
    elif R_mu <= th.r_minus:
        even = EvenCase.CASE4
    elif R_mu == th.r0:
        even = EvenCase.CASE1
    elif R_mu > th.r0:
        even = EvenCase.CASE2
    else:
        even = EvenCase.CASE5

    if th.r_minus * (1.0 - _BAND) <= R_mu <= th.r_plus * (1.0 + _BAND):
        cont = ContinuumClass.UNIQUE_EVEN
    elif R_mu <= th.r_m * (1.0 + _BAND) or R_mu >= th.r_M * (1.0 - _BAND):
        cont = ContinuumClass.CONNECTED_ENDPOINTS
    else:
        cont = ContinuumClass.DISCONNECTED_ENDPOINTS
    return Regime(even_case=even, continuum=cont)


def dual_params(p: FluidParams) -> tuple[FluidParams, float]:
    """Dual parameter triple and the spatial scale of the duality map.

    Swapping the roles of the two fluids sends (R, R_mu, eta) to
    (R, R(1+R)/R_mu, sqrt(R/(1+R))/eta); profiles transform through the
    dilation factor lambda = (eta^2 R_mu / R)^(1/3).  The map is an
    involution and exchanges the large- and small-R_mu regimes.
    """
    R, R_mu, eta = p.R, p.R_mu, p.eta
    R_mu1 = R * (1.0 + R) / R_mu
    eta1 = math.sqrt(R / (1.0 + R)) / eta
    lam = (eta**2 * R_mu / R) ** (1.0 / 3.0)
    return FluidParams(R=R, R_mu=R_mu1, eta=eta1), lam
