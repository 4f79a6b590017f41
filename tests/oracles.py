"""Independent constructions that the tests check the library against."""

import math
import operator
from typing import Sequence

import numpy as np

from muskat.functionals import FunctionalReport, NegativeInputError, _report
from muskat.checks import STEADY_TOL
from muskat.fvm import cell_averages
from muskat import numerics
from muskat.numerics import (
    MaxIterExceededError,
    SingularJacobianError,
    StepTooSmallError,
    find_root_bracketed,
    max_abs,
)
from muskat.params import FluidParams, dual_params, thresholds
from muskat.profiles import (
    InvalidZetaError,
    PiecewiseQuadratic,
    ProfilePair,
    RegimeError,
    _sextuplet_system,
    _system_tol,
    _zeta_pieces,
    residuals_R1,
    residuals_R2,
    steady_residual,
)


def residuals_eq51_53(p: FluidParams, a: float, b: float, g: float) -> tuple[float, ...]:
    """The three equations of the even radii with F split, written in p (the
    package solves the case-3 system of the dual parameters instead)."""
    R, Rmu, e2 = p.R, p.R_mu, p.eta**2
    return ((1.0 + R - Rmu) * b**3 - (R - Rmu) * a**3 - 4.5 * Rmu,
            Rmu * g**3 - R * (1.0 + R - Rmu) * b**3 + (1.0 + R) * (R - Rmu) * a**3
            - 4.5 * Rmu * (1.0 + R) * e2,
            Rmu * g**2 - R * (1.0 + R - Rmu) * b**2 + (1.0 + R) * (R - Rmu) * a**2)


def residuals_d2(p: FluidParams, b1: float, a: float, b: float, g: float) -> tuple[float, ...]:
    """The four equations of the connected quadruple below r_m, written in p
    (the package solves ``residuals_d1`` of the dual parameters instead)."""
    R, Rmu, e2 = p.R, p.R_mu, p.eta**2
    return (Rmu * g**3 + (1.0 + R) * (R - Rmu) * a**3 - R * (1.0 + R - Rmu) * b**3
            - 9.0 * e2 * Rmu * (1.0 + R),
            -(b1**3) - (R - Rmu) * a**3 + (1.0 + R - Rmu) * b**3 - 9.0 * Rmu,
            Rmu * g**2 + (1.0 + R) * (R - Rmu) * a**2 - R * (1.0 + R - Rmu) * b**2,
            b1**2 + (R - Rmu) * a**2 - (1.0 + R - Rmu) * b**2)


def solve_even_case4_direct(p: FluidParams) -> tuple[float, float, float]:
    """Duality-free solve of the split-F radii (independent cross-check).

    Eliminates beta and gamma, then finds the single admissible root of the
    remaining scalar equation in alpha by scan plus bracketed refinement.
    """
    R, Rmu, e2 = p.R, p.R_mu, p.eta**2
    th = thresholds(p)
    if (Rmu - th.r_minus) / th.r_minus > 1e-13:
        raise RegimeError("direct split-F solve outside its regime")
    u, w = 1.0 + R - Rmu, R - Rmu
    C1 = 4.5 * ((1.0 + R) * e2 + R)
    D1 = w / Rmu
    C2 = 4.5 * Rmu

    def gamma3(a):
        return C1 - D1 * a**3

    def beta3(a):
        return (C2 + w * a**3) / u

    def phi(a):
        return (Rmu * np.cbrt(gamma3(a)) ** 2
                - R * np.cbrt(u) * np.cbrt(C2 + w * a**3) ** 2
                + (1.0 + R) * w * a**2)

    a_max = C2 ** (1.0 / 3.0) * (1.0 - 1e-12)
    grid = np.linspace(0.0, a_max, 400)
    vals = phi(grid)
    a = None
    if vals[0] == 0.0:
        a = 0.0
    else:
        for i in range(len(grid) - 1):
            if vals[i] * vals[i + 1] <= 0.0:
                a = find_root_bracketed(phi, grid[i], grid[i + 1])
                break
    if a is None:
        raise RuntimeError("no admissible root in the direct split-F solve")
    b = beta3(a) ** (1.0 / 3.0)
    g = gamma3(a) ** (1.0 / 3.0)
    res = max_abs(residuals_eq51_53(p, a, b, g))
    if res > _system_tol(p):
        raise RuntimeError(f"direct split-F residual {res:.3e}")
    return a, b, g


def _R1_newton_funcs(p: FluidParams, a1: float):
    """Residual and Jacobian in (gamma1, beta1, alpha, beta, gamma) at fixed alpha1."""
    R, Rmu = p.R, p.R_mu
    s, q = Rmu - R, Rmu - R - 1.0

    def F(u):
        g1, b1, a, b, g = u
        return np.array(residuals_R1(p, (g1, b1, a1, a, b, g)))

    def J(u):
        g1, b1, a, b, g = u
        return np.array([
            [2.0 * g1, -2.0 * s * b1, 0.0, 0.0, 0.0],
            [0.0, 0.0, 2.0 * q * a, -2.0 * s * b, 2.0 * g],
            [2.0 * R * g1, 2.0 * s * b1, 0.0, -2.0 * s * b, -2.0 * R * g],
            [0.0, -3.0 * s * b1**2, -3.0 * R * q * a**2 / (1.0 + R), 3.0 * s * b**2, 0.0],
            [-3.0 * g1**2, 3.0 * s * b1**2, 3.0 * q * a**2, -3.0 * s * b**2, 3.0 * g**2],
        ])

    return F, J


def _coeffs_at(q: PiecewiseQuadratic, x: float) -> tuple[float, float]:
    return next(((c0, c2) for l, r, c0, c2 in q.pieces if l <= x <= r), (0.0, 0.0))


def steady_residual_fields_by_scan(F: PiecewiseQuadratic, G: PiecewiseQuadratic,
                                   p: FluidParams) -> float:
    """Exact steady residual, each interval's coefficients found by a scan of
    all pieces (the per-interval form of ``profiles.steady_residual_fields``)."""
    R, Rmu, e2 = p.R, p.R_mu, p.eta**2
    breaks = sorted({v for l, r, _, _ in F.pieces + G.pieces for v in (l, r)})
    min_len = 1e-13 * max(breaks[-1] - breaks[0], 1.0)
    worst = 0.0
    for u, v in zip(breaks[:-1], breaks[1:]):
        if v - u <= min_len:
            continue
        f0, f2 = _coeffs_at(F, 0.5 * (u + v))
        g0, g2 = _coeffs_at(G, 0.5 * (u + v))
        k_f = 2.0 * (e2 * (1.0 + R) * f2 + R * g2) + 1.0 / 3.0
        k_g = 2.0 * (e2 * Rmu * f2 + Rmu * g2) + 1.0 / 3.0
        for k, c0, c2 in ((k_f, f0, f2), (k_g, g0, g2)):
            xs = [u, v]
            if c0 * c2 < 0.0:
                xc = math.sqrt(-c0 / (3.0 * c2))
                xs += [x for x in (-xc, xc) if u < x < v]
            worst = max(worst, *(abs(k * x * (c0 + c2 * x * x)) for x in xs))
    return worst


def entropy_closed_form_by_loop(q: PiecewiseQuadratic) -> float:
    """The closed form of the integral of q ln q, one piece at a time and
    with numpy's scalar logarithms (the per-piece form of
    ``functionals._entropy_piecewise``, operation for operation)."""
    total = 0.0
    for l, r, c0, c2 in q.pieces:
        if l + r < 0.0:
            l, r = -r, -l
        w = r - l
        cubes = w * (r * r + r * l + l * l)
        mass = c0 * w + c2 * cubes / 3.0
        if c2 == 0.0:
            total += 0.0 if c0 == 0.0 else mass * np.log(np.abs(c0))
            continue
        a2 = c0 / c2
        if a2 > 0.0:
            a, q_r = np.sqrt(a2), c0 + c2 * r * r
            h = (mass * np.log(np.abs(q_r))
                 - (c0 * l + c2 * l * l * l / 3.0) * np.log1p(-c2 * w * (r + l) / q_r)
                 + (4.0 / 3.0) * c0 * a * np.arctan2(a * w, a2 + r * l))
        else:
            q_e, tails = c2, 0.0
            for rho in (np.sqrt(-a2), -np.sqrt(-a2)):
                far_r = abs(r - rho) >= abs(l - rho)
                g_e, g_o = (r - rho, l - rho) if far_r else (l - rho, r - rho)
                p_o = c2 * g_o * g_o * (g_o + 3.0 * rho) / 3.0
                q_e = q_e * g_e
                if p_o != 0.0:  # else g_o = 0, and the term is 0
                    t = (-w if far_r else w) / g_e
                    log_ratio = np.log1p(t) if t > -0.5 else np.log(np.abs(g_o / g_e))
                    tails = tails + (-p_o if far_r else p_o) * log_ratio
            h = mass * np.log(np.abs(q_e)) + tails
        total += h + (-(2.0 / 9.0) * c2 * cubes - (4.0 / 3.0) * c0 * w)
    return total


def entropy_by_graded_gauss(q: PiecewiseQuadratic, nodes: int = 20, depth: int = 48) -> float:
    """The integral of q ln q, with 0 ln 0 = 0, by composite Gauss-Legendre
    quadrature: each piece is cut at the real roots of c0 + c2 x^2 inside it
    (or at 0, near complex roots +-ia), and each part's halves are cut at
    offsets halving towards its ends, where q may vanish and (q ln q)' be
    singular, down to a last cell 2^-depth of the half wide."""
    gx, gw = np.polynomial.legendre.leggauss(nodes)
    offsets = np.append(0.5 ** np.arange(depth + 1), 0.0)  # of a half, from its end
    total = 0.0
    for l, r, c0, c2 in q.pieces:
        cuts = [l, r]
        if c2 != 0.0 and c0 * c2 <= 0.0:
            x0 = math.sqrt(-c0 / c2)
            cuts += [x for x in (-x0, x0) if l < x < r]
        elif l < 0.0 < r:
            cuts.append(0.0)
        cuts.sort()
        for a, b in zip(cuts[:-1], cuts[1:]):
            s = 0.5 * (b - a) * offsets
            half_width, mid = 0.5 * (s[:-1] - s[1:])[:, None], 0.5 * (s[:-1] + s[1:])[:, None]
            for x in (a + (mid + half_width * gx), b - (mid + half_width * gx)):
                v = c0 + c2 * x * x
                f = np.where(v != 0.0, v * np.log(np.abs(np.where(v != 0.0, v, 1.0))), 0.0)
                total += float(np.sum(half_width * gw * f))
    return total


def curve_jacobian_det(p: FluidParams, zeta: Sequence[float]) -> float:
    """Closed-form determinant of the Jacobian of ``_R1_newton_funcs``
    (positive inside the curve)."""
    R, Rmu = p.R, p.R_mu
    g1, b1, a1, a, b, g = zeta
    return (72.0 * (Rmu - R - 1.0) * (Rmu - R) ** 2 * a * b * b1 * g * g1
            * ((b - b1) * (g - a) + R * (g - g1) * (b - a)))


def state_report_by_field(state, p: FluidParams) -> FunctionalReport:
    """Functional report of a grid state, one field at a time (the per-field
    form of ``functionals._state_report``)."""
    f, g = state.f, state.g
    if np.min(f) < -1e-12 or np.min(g) < -1e-12:
        raise NegativeInputError("fields must be non-negative")
    h = state.grid.h
    x = state.grid.centers
    theta = p.theta
    hf = np.where(f > 1e-300, f * np.log(np.where(f > 1e-300, f, 1.0)), 0.0)
    hg = np.where(g > 1e-300, g * np.log(np.where(g > 1e-300, g, 1.0)), 0.0)
    return _report(p, h * float(np.sum(f * f)), h * float(np.sum(f * g)),
                   h * float(np.sum(g * g)),
                   m1=h * float(np.sum((f + theta * g) * x)),
                   m2=h * float(np.sum((f + theta * g) * x**2)),
                   entropy=h * float(np.sum(hf) + theta * np.sum(hg)),
                   dissipation=dissipation_by_field(state, p))


def dissipation_by_field(state, p: FluidParams) -> float:
    """Discrete entropy dissipation, one field at a time (the per-field form
    of ``functionals.dissipation``)."""
    f, g = state.f, state.g
    h = state.grid.h
    x = state.grid.centers
    e2 = p.eta**2
    R, Rmu = p.R, p.R_mu

    def cell_derivative(u):
        d = np.empty_like(u)
        d[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
        d[0] = (u[1] - u[0]) / h
        d[-1] = (u[-1] - u[-2]) / h
        return d

    df, dg = cell_derivative(f), cell_derivative(g)
    vf = e2 * (1.0 + R) * df + R * dg + x / 3.0
    vg = e2 * Rmu * df + Rmu * dg + x / 3.0
    return 0.5 * h * float(np.sum(f * vf**2) + p.theta * np.sum(g * vg**2))


def l2_distance_by_field(state, reference: ProfilePair) -> float:
    """L2 distance of a grid state to a profile's cell averages, summed as
    (f - F)² + (g - G)² per cell (the form of ``fvm.l2_distance``)."""
    fr = cell_averages(reference.F, state.grid)
    gr = cell_averages(reference.G, state.grid)
    return math.sqrt(state.grid.h * float(np.sum((state.f - fr) ** 2 + (state.g - gr) ** 2)))


def validate_by_loop(q: PiecewiseQuadratic) -> None:
    """Profile-grade checks of one field, one piece at a time (the scalar
    form of ``checks.field_failures``)."""
    if not q.pieces:
        raise ValueError("empty piece list")
    tol = 1e-10
    width = max(abs(q.pieces[0][0]), abs(q.pieces[-1][1]), 1.0)
    prev_r = None
    prev_val = None
    for l, r, c0, c2 in q.pieces:
        if not all(math.isfinite(v) for v in (l, r, c0, c2)):
            raise ValueError("non-finite piece data")
        if r <= l:
            raise ValueError(f"degenerate interval [{l}, {r}]")
        if prev_r is not None and l < prev_r - 1e-12 * width:
            raise ValueError("overlapping pieces")
        lo = min(c0 + c2 * l**2, c0 + c2 * r**2)
        if l < 0.0 < r:
            lo = min(lo, c0)
        if lo < -tol:
            raise ValueError(f"negative values (min {lo:.3e}) on [{l}, {r}]")
        left_val = c0 + c2 * l**2
        if prev_r is None:
            if abs(left_val) > tol:
                raise ValueError(f"nonzero value {left_val:.3e} at outer endpoint {l}")
        elif l - prev_r <= 1e-12 * width:
            if abs(left_val - prev_val) > tol:
                raise ValueError(f"jump {left_val - prev_val:.3e} at breakpoint {l}")
        else:
            if abs(prev_val) > tol or abs(left_val) > tol:
                raise ValueError(f"nonzero value at a support gap near {l}")
        prev_r, prev_val = r, c0 + c2 * r**2
    if abs(prev_val) > tol:
        raise ValueError(f"nonzero value {prev_val:.3e} at outer endpoint {prev_r}")


def check_pair_by_state(F: PiecewiseQuadratic, G: PiecewiseQuadratic, p: FluidParams,
                        label: str | None = None) -> None:
    """The checks of one construction on one state: validate F and G, their
    unit masses and, given the construction's ``label``, the exact steady
    residual (the scalar form of ``checks.check_pairs``).  With a label, the
    field and mass failures raise as RuntimeError."""
    try:
        validate_by_loop(F)
        validate_by_loop(G)
        mF, mG = F.mass(), G.mass()
        if abs(mF - 1.0) > 1e-10 or abs(mG - 1.0) > 1e-10:
            raise ValueError(f"masses must be 1: got {mF!r}, {mG!r}")
    except ValueError as exc:
        if label is None:
            raise
        raise RuntimeError(str(exc)) from None
    if label is not None:
        res = steady_residual_fields_by_scan(F, G, p)
        if res > STEADY_TOL:
            raise RuntimeError(f"steady residual {res:.3e} exceeds {STEADY_TOL} for {label}")


def profile_from_zeta_by_state(p: FluidParams, zeta: Sequence[float]):
    """(F, G) of ``profile_from_zeta`` built and checked one state at a time."""
    zeta = tuple(float(z) for z in zeta)
    if len(zeta) != 6 or not all(math.isfinite(z) for z in zeta):
        raise InvalidZetaError(f"bad sextuplet {zeta!r}")
    g1, b1, a1, a, b, g = zeta
    scale = max(abs(g1), abs(g), 1.0)
    mono = all(zeta[i + 1] - zeta[i] >= -1e-12 * scale for i in range(5))
    if not (mono and a1 <= 1e-12 * scale and a >= -1e-12 * scale):
        raise InvalidZetaError(f"ordering violated: {zeta}")
    system = _sextuplet_system(p)
    if system is None:
        raise InvalidZetaError(
            "disconnected-support sextuplets require R_mu > R + 1 or R_mu < R")
    res = max_abs(system(p, zeta))
    if res > max(1e-8, 1e-12 * 9.0 * p.R_mu * (1.0 + p.R) * (1.0 + p.eta**2)):
        raise InvalidZetaError(f"system residual {res:.3e} too large")
    F, G = (PiecewiseQuadratic.from_pieces(q) for q in _zeta_pieces(p, zeta))
    check_pair_by_state(F, G, p, "zeta-large" if system is residuals_R1 else "zeta-small")
    return F, G


def inner_by_loop(a: PiecewiseQuadratic, b: PiecewiseQuadratic | None = None) -> float:
    """Exact integral of a * b (or of a * a), one pair of pieces at a time (the
    scalar form of the products of ``functionals._products_and_moments``)."""
    b = a if b is None else b
    total = 0.0
    for la, ra, a0, a2 in a.pieces:
        for lb, rb, b0, b2 in b.pieces:
            l, r = max(la, lb), min(ra, rb)
            if r <= l:
                continue
            d1 = r - l
            d3 = r**3 - l**3
            d5 = r**5 - l**5
            total += a0 * b0 * d1 + (a0 * b2 + a2 * b0) * d3 / 3.0 + a2 * b2 * d5 / 5.0
    return total


def moment_by_loop(q: PiecewiseQuadratic, k: int) -> float:
    """Exact integral of x^k times q, k in {0, 1, 2}, one piece at a time (the
    scalar form of the moments of ``functionals._products_and_moments``)."""
    if k not in (0, 1, 2):
        raise ValueError("moment order must be 0, 1 or 2")
    total, k1, k3 = 0.0, k + 1, k + 3
    for l, r, c0, c2 in q.pieces:
        total += c0 * (r**k1 - l**k1) / k1 + c2 * (r**k3 - l**k3) / k3
    return total


def fields_report_by_loop(F: PiecewiseQuadratic, G: PiecewiseQuadratic,
                          p: FluidParams) -> FunctionalReport:
    """Report of a field pair, its screen and entropy one piece at a time
    (the scalar form of ``functionals._fields_reports``)."""
    for q in (F, G):
        for l, r, c0, c2 in q.pieces:
            lo = min(c0 + c2 * l**2, c0 + c2 * r**2, c0 if l < 0.0 < r else np.inf)
            if lo < -1e-12:
                raise NegativeInputError("fields must be non-negative")
    theta = p.theta
    return _report(p, inner_by_loop(F), inner_by_loop(F, G), inner_by_loop(G),
                   m1=moment_by_loop(F, 1) + theta * moment_by_loop(G, 1),
                   m2=moment_by_loop(F, 2) + theta * moment_by_loop(G, 2),
                   entropy=entropy_closed_form_by_loop(F) + theta * entropy_closed_form_by_loop(G))


def _fifth_power_energy_by_state(p: FluidParams, zeta: Sequence[float]) -> float:
    R, Rmu, e2 = p.R, p.R_mu, p.eta**2
    g1, b1, a1, a, b, g = zeta
    return (R * (g**5 - g1**5)
            + (Rmu - R) ** 2 * (b**5 - b1**5)
            - R * (Rmu - R - 1.0) ** 2 * (a**5 - a1**5) / (1.0 + R)
            ) / (90.0 * e2 * Rmu**2)


def curve_energy_closed_form_by_state(p: FluidParams, zeta: Sequence[float]) -> float:
    """Closed-form E_* of one sextuplet (the scalar form of
    ``profiles._closed_form_energies``)."""
    system = _sextuplet_system(p)
    if system is residuals_R1:
        return _fifth_power_energy_by_state(p, zeta)
    assert system is residuals_R2
    p1, lam = dual_params(p)
    return _fifth_power_energy_by_state(p1, tuple(z / lam for z in zeta)) / lam


def solve_step_by_elimination(A: Sequence[Sequence[float]], Fx: Sequence[float]) -> list[float]:
    """Solve A dx = -Fx for any number of unknowns by Gaussian elimination with
    partial pivoting, on a copy of A as lists of floats (the general form of
    ``numerics._solve_step``).

    The determinant is the signed product of the pivots.
    """
    A = [[float(v) for v in row] for row in A]
    n = len(Fx)
    scale = math.prod([math.hypot(*row) for row in A])
    b = [-v for v in Fx]
    det = 1.0
    for k in range(n):
        piv = k
        for i in range(k + 1, n):
            if abs(A[i][k]) > abs(A[piv][k]):
                piv = i
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            b[k], b[piv] = b[piv], b[k]
            det = -det
        Ak = A[k]
        det *= Ak[k]
        if Ak[k] == 0.0:
            break
        for i in range(k + 1, n):
            Ai = A[i]
            m = Ai[k] / Ak[k]
            for j in range(k + 1, n):
                Ai[j] -= m * Ak[j]
            b[i] -= m * b[k]
    if not math.isfinite(det) or abs(det) < 1e-14 * max(scale, 1e-300):
        raise SingularJacobianError(f"|det J| = {abs(det):.3e} below 1e-14 * scale")
    dx = [0.0] * n
    for k in range(n - 1, -1, -1):
        Ak = A[k]
        dx[k] = (b[k] - sum([Ak[j] * dx[j] for j in range(k + 1, n)])) / Ak[k]
    return dx


def max_abs_by_two_passes(v: Sequence[float]) -> float:
    """Max-norm that is NaN when any entry is: a NaN test, then Python's max
    (the two-pass form of ``numerics.max_abs``)."""
    if any(map(math.isnan, v)):
        return math.nan
    return max(map(abs, v))


def newton_solve_by_lists(F, J, x0: Sequence[float], tol: float) -> list[float]:
    """Damped Newton iteration in any number of unknowns that rebuilds the
    iterate, the residual and the Jacobian as lists of Python floats at every
    step (the list form of ``numerics.newton_solve``)."""
    x = [float(v) for v in x0]
    n = len(x)
    Fx = [float(v) for v in F(x)]
    norm = max_abs_by_two_passes(Fx)
    max_iter = numerics._NEWTON_MAX_ITER
    for _ in range(max_iter):
        if norm <= tol:
            return x
        dx = numerics._solve_step([[float(v) for v in row] for row in J(x)], Fx)
        t = 1.0
        while True:
            x_new = [x[i] + t * dx[i] for i in range(n)]
            F_new = [float(v) for v in F(x_new)]
            norm_new = max_abs_by_two_passes(F_new)
            if math.isfinite(norm_new) and norm_new < norm:
                break
            t *= numerics._DAMPING
            if t < numerics._MIN_STEP:
                raise StepTooSmallError(
                    f"line search stalled at step {t:.3e} with residual {norm:.3e}")
        x, Fx, norm = x_new, F_new, norm_new
    if norm <= tol:
        return x
    raise MaxIterExceededError(f"residual {norm:.3e} after {max_iter} iterations")


def clean_pieces_by_sort(pieces) -> tuple:
    """The pieces as float tuples, those not wider than 1e-14 times the
    largest |end| (at least 1) dropped, sorted by left end when out of order
    (the comprehension form of ``profiles._clean_pieces``)."""
    scale = max([1.0, *[abs(r) if abs(r) > abs(l) else abs(l) for l, r, _, _ in pieces]])
    min_width = 1e-14 * scale
    kept = [(float(l), float(r), float(c0), float(c2)) for l, r, c0, c2 in pieces
            if r - l > min_width]
    lefts = [q[0] for q in kept]
    if not all(map(operator.le, lefts, lefts[1:])):  # else the stable sort keeps them
        kept.sort(key=lambda q: q[0])
    return tuple(kept)


def R1_complete_by_rows(p: FluidParams, a1: float, a: float, b: float):
    """The sextuplet at (alpha1, alpha, beta) from the three quadratic rows of
    R1, with gamma1 < beta1 < 0 < gamma; None when a radicand is not positive
    (the per-call form of the completion in ``profiles._R1_reduced_funcs``)."""
    R, Rmu = p.R, p.R_mu
    s, q = Rmu - R, Rmu - R - 1.0
    g2 = s * b**2 - q * a**2
    b12 = b**2 + R * q * (a1**2 - a**2) / (s * (1.0 + R))
    g12 = s * b12 - q * a1**2
    if not (g2 > 0.0 and b12 > 0.0 and g12 > 0.0):
        return None
    return (-math.sqrt(g12), -math.sqrt(b12), a1, a, b, math.sqrt(g2))


def reflect_by_constructor(pp: ProfilePair) -> ProfilePair:
    """The mirror image of a pair built by the public constructor, each field
    through ``from_pieces`` (the per-pair form of ``profiles.reflect``)."""
    return ProfilePair(
        F=PiecewiseQuadratic.from_pieces([(-r, -l, c0, c2) for l, r, c0, c2 in pp.F.pieces]),
        G=PiecewiseQuadratic.from_pieces([(-r, -l, c0, c2) for l, r, c0, c2 in pp.G.pieces]),
        params=pp.params,
        label=pp.label + "|reflected" if pp.label else "reflected",
        zeta=None if pp.zeta is None else tuple(-z for z in reversed(pp.zeta)))


def dual_transform_by_constructor(pp: ProfilePair) -> ProfilePair:
    """The fluid-swap transform of a pair built by the public constructor,
    then checked for its steady residual (the per-pair form of
    ``profiles.dual_transform``)."""
    p1, lam = dual_params(pp.params)
    zeta1 = None
    if pp.zeta is not None:
        cand = tuple(z / lam for z in pp.zeta)
        system = _sextuplet_system(p1)
        if system is not None and max_abs(system(p1, cand)) < 1e-8:
            zeta1 = cand

    def scaled(q: PiecewiseQuadratic) -> PiecewiseQuadratic:
        return PiecewiseQuadratic.from_pieces(
            [(l / lam, r / lam, lam * c0, lam**3 * c2) for l, r, c0, c2 in q.pieces])

    new = ProfilePair(F=scaled(pp.G), G=scaled(pp.F), params=p1,
                      label=(pp.label + "|dual") if pp.label else "dual", zeta=zeta1)
    res = steady_residual(new)
    if res > STEADY_TOL:
        raise RuntimeError(f"dual pair steady residual {res:.3e}")
    return new
