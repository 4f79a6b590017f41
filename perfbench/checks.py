"""Output checks made apart from muskat.

Nothing here imports muskat.  The curve check rebuilds each steady state
from its sextuplet by a transcription of the steady equations of its own,
and the grid checks recompute masses, moments and the rescaled energy from
the cell values.  Every function returns a list of problems; an empty list
means the output passed.

Notation: the curve sextuplet is (gamma1, beta1, alpha1, alpha, beta, gamma).
For R_mu > R + 1 the lower fluid F has one support [beta1, beta] and G is
split around the gap (alpha1, alpha); for R_mu < R the roles swap.  Where
both fluids are present, the steady equations

    F (e2 (1+R) F + R G + x^2/6)' = 0,   G (e2 R_mu F + R_mu G + x^2/6)' = 0

make both pressures constant, so F and G are quadratics in x with the
x^2-coefficients kF = -(R_mu - R) / (6 e2 R_mu) and kG = -(1 + R - R_mu) /
(6 R_mu); where one fluid is alone its coefficient is -1 / (6 m) with
m = e2 (1+R) for F and m = R_mu for G.  The five conditions that fix a state
on the one-parameter curve are the unit masses of F and G, continuity of the
connected fluid across the gap, and continuity of the split fluid at beta1
and at beta.
"""

from __future__ import annotations

import math

import numpy as np

# the acceptance battery's tolerances
MASS_TOL = 1e-10
ALGEBRAIC_TOL = 1e-10
ENERGY_TOL = 1e-9
CONSERVATION_TOL = 1e-12
ESTAR_SLACK = 1e-10
# tolerances of this benchmark
REFLECT_TOL = 1e-9  # curve endpoints, as in the acceptance battery
TWIN_TOL = 1e-12
RATE_TOL = 0.025  # |fitted M1 decay rate + 1/3| on n = 200; probes stayed within 0.015
DIST_TOL = 1e-12


# ----------------------------------------------------------------------
# piecewise quadratics as lists of (l, r, c0, c2): c0 + c2 x^2 on [l, r]
# ----------------------------------------------------------------------


def _mass(pieces) -> float:
    return sum(c0 * (r - l) + c2 * (r**3 - l**3) / 3.0 for l, r, c0, c2 in pieces)


def _moment2(pieces) -> float:
    return sum(c0 * (r**3 - l**3) / 3.0 + c2 * (r**5 - l**5) / 5.0 for l, r, c0, c2 in pieces)


def _inner(pa, pb) -> float:
    total = 0.0
    for la, ra, a0, a2 in pa:
        for lb, rb, b0, b2 in pb:
            l, r = max(la, lb), min(ra, rb)
            if r > l:
                total += (a0 * b0 * (r - l) + (a0 * b2 + a2 * b0) * (r**3 - l**3) / 3.0
                          + a2 * b2 * (r**5 - l**5) / 5.0)
    return total


def _rescaled_energy(F, G, R, Rmu, eta) -> float:
    e2 = eta**2
    energy = 0.5 * e2 * (1.0 + R) * _inner(F, F) + R * _inner(F, G) + 0.5 * R / e2 * _inner(G, G)
    theta = R / (e2 * Rmu)
    return energy + (_moment2(F) + theta * _moment2(G)) / 6.0


def zeta_state(R: float, Rmu: float, eta: float, zeta):
    """The five residuals of a sextuplet and the pieces of its (F, G)."""
    e2 = eta**2
    g1, b1, a1, a, b, g = zeta
    kF = -(Rmu - R) / (6.0 * e2 * Rmu)
    kG = -(1.0 + R - Rmu) / (6.0 * Rmu)
    mF, mG = e2 * (1.0 + R), Rmu
    if Rmu > R + 1.0:  # G split, F connected
        m_c, k_c, m_s, k_s = mF, kF, mG, kG
    elif Rmu < R:  # F split, G connected
        m_c, k_c, m_s, k_s = mG, kG, mF, kF
    else:
        raise ValueError("no disconnected curve for R <= R_mu <= R + 1")
    # connected fluid: vanishes at beta1 and beta, alone on the gap
    c_mid = k_c * (a1**2 - b1**2) + a1**2 / (6.0 * m_c)
    conn = [(b1, a1, -k_c * b1**2, k_c), (a1, a, c_mid, -1.0 / (6.0 * m_c)),
            (a, b, -k_c * b**2, k_c)]
    # split fluid: vanishes at alpha1 and alpha, alone on its outer lobes
    split = [(g1, b1, g1**2 / (6.0 * m_s), -1.0 / (6.0 * m_s)),
             (b1, a1, -k_s * a1**2, k_s), (a, b, -k_s * a**2, k_s),
             (b, g, g**2 / (6.0 * m_s), -1.0 / (6.0 * m_s))]
    res = np.array([
        c_mid - a**2 / (6.0 * m_c) - k_c * (a**2 - b**2),
        (g1**2 - b1**2) / (6.0 * m_s) - k_s * (b1**2 - a1**2),
        (g**2 - b**2) / (6.0 * m_s) - k_s * (b**2 - a**2),
        _mass(conn) - 1.0,
        _mass(split) - 1.0,
    ])
    F, G = (conn, split) if Rmu > R + 1.0 else (split, conn)
    return res, F, G


def _weakly_ordered(zeta) -> bool:
    scale = max(abs(zeta[0]), abs(zeta[5]), 1.0)
    mono = all(zeta[i + 1] - zeta[i] >= -1e-12 * scale for i in range(5))
    return mono and zeta[2] <= 1e-12 * scale and zeta[3] >= -1e-12 * scale


def check_curve(params, curve_rows, fn_rows, n_points: int) -> list[str]:
    """`muskat curve` output: curve CSV rows (ell, sextuplet, E_star) and
    functionals CSV rows (ell, E, E_star, M1, M2, H)."""
    R, Rmu, eta = params
    tag = f"curve ({R:.6g}, {Rmu:.6g}, {eta:.6g})"
    problems = []
    curve_rows, fn_rows = np.asarray(curve_rows), np.asarray(fn_rows)
    if curve_rows.shape != (n_points, 8) or fn_rows.shape != (n_points, 6):
        return [f"{tag}: shapes {curve_rows.shape}, {fn_rows.shape}"]
    for row in curve_rows:
        zeta = row[1:7]
        if not _weakly_ordered(zeta):
            problems.append(f"{tag}: sextuplet not ordered at ell = {row[0]!r}")
            continue
        res, F, G = zeta_state(R, Rmu, eta, zeta)
        if np.max(np.abs(res[:3])) > ALGEBRAIC_TOL or np.max(np.abs(res[3:])) > MASS_TOL:
            problems.append(f"{tag}: system residual {np.max(np.abs(res)):.3e} at ell = {row[0]!r}")
        e_star = _rescaled_energy(F, G, R, Rmu, eta)
        if abs(e_star - row[7]) > ENERGY_TOL:
            problems.append(f"{tag}: E_star {row[7]!r} vs rebuilt {e_star!r}")
    ell, E, e_star, m1, m2 = fn_rows[:, 0], fn_rows[:, 1], fn_rows[:, 2], fn_rows[:, 3], fn_rows[:, 4]
    if not np.array_equal(ell, curve_rows[:, 0]):
        problems.append(f"{tag}: functionals rows do not match the curve rows")
    if np.max(np.abs(m1)) >= MASS_TOL:
        problems.append(f"{tag}: |M1| reaches {np.max(np.abs(m1)):.3e}")
    if np.max(np.abs(m2 - 2.0 * e_star)) >= ENERGY_TOL:
        problems.append(f"{tag}: M2 - 2 E_star reaches {np.max(np.abs(m2 - 2.0 * e_star)):.3e}")
    if np.max(np.abs(e_star - 1.5 * E)) >= ENERGY_TOL:
        problems.append(f"{tag}: E_star - 1.5 E reaches {np.max(np.abs(e_star - 1.5 * E)):.3e}")
    es = curve_rows[:, 7]
    d = np.diff(es)
    signed = d[np.abs(d) > 1e-12]
    flips = int(np.sum(np.sign(signed[:-1]) != np.sign(signed[1:])))
    if curve_rows[int(np.argmin(es)), 0] != 0.0 or flips > 1 or not signed[0] < 0.0 < signed[-1]:
        problems.append(f"{tag}: E_star not unimodal with its minimum at ell = 0")
    z_lo, z_hi = curve_rows[0, 1:7], curve_rows[-1, 1:7]
    if np.max(np.abs(z_hi + z_lo[::-1])) >= REFLECT_TOL:
        problems.append(f"{tag}: endpoints do not reflect")
    return problems


# ----------------------------------------------------------------------
# grid states: records are (t, f, g) on cell centres x with width h
# ----------------------------------------------------------------------


def components(u: np.ndarray, rel: float = 1e-9) -> int:
    """Runs of cells above rel * max(u)."""
    mask = u > rel * float(np.max(u))
    return int(mask[0]) + int(np.sum(mask[1:] & ~mask[:-1]))


def grid_functionals(params, x: np.ndarray, h: float, f: np.ndarray, g: np.ndarray):
    """(mass_f, mass_g, M1, E_star) of a grid state, cell values as midpoints."""
    R, Rmu, eta = params
    e2 = eta**2
    theta = R / (e2 * Rmu)
    energy = h * float(np.sum(0.5 * e2 * (1.0 + R) * f * f + R * f * g + 0.5 * R / e2 * g * g))
    w = f + theta * g
    return (h * float(np.sum(f)), h * float(np.sum(g)), h * float(np.sum(w * x)),
            energy + h * float(np.sum(w * x * x)) / 6.0)


def check_trajectory(tag: str, params, x, h, records) -> list[str]:
    """Conservation, positivity and decay of the rescaled energy."""
    problems = []
    vals = np.array([grid_functionals(params, x, h, f, g) for _, f, g in records])
    for k, name in ((0, "mass_f"), (1, "mass_g")):
        drift = np.max(np.abs(vals[:, k] - vals[0, k])) / vals[0, k]
        if drift > CONSERVATION_TOL:
            problems.append(f"{tag}: {name} drifts by {drift:.3e} relative")
    low = min(min(float(np.min(f)), float(np.min(g))) for _, f, g in records)
    if low < 0.0:
        problems.append(f"{tag}: negative cell {low:.3e}")
    rise = float(np.max(np.diff(vals[:, 3])))
    if rise > ESTAR_SLACK:
        problems.append(f"{tag}: E_star rises by {rise:.3e}")
    return problems


def check_rupture(params, x, h, records) -> list[str]:
    problems = check_trajectory("rupture", params, x, h, records)
    if not all(np.array_equal(f, f[::-1]) and np.array_equal(g, g[::-1]) for _, f, g in records):
        problems.append("rupture: mirror symmetry lost")
    ncf = [components(f) for _, f, _ in records]
    if any(components(g) != 1 for _, _, g in records):
        problems.append("rupture: g leaves one component")
    if ncf[0] != 1 or not any(a == 1 and b == 2 for a, b in zip(ncf[:-1], ncf[1:])):
        problems.append(f"rupture: f does not split from one component to two (counts {ncf[0]}..{ncf[-1]})")
    return problems


def cell_averages(pieces, faces: np.ndarray) -> np.ndarray:
    """Exact cell averages of a piecewise quadratic."""
    lo_f, hi_f = faces[:-1], faces[1:]
    out = np.zeros(lo_f.size)
    for l, r, c0, c2 in pieces:
        lo, hi = np.clip(lo_f, l, r), np.clip(hi_f, l, r)
        out += c0 * (hi - lo) + c2 * (hi**3 - lo**3) / 3.0
    return out / (faces[1] - faces[0])


def check_member(tag: str, params, x, faces, records, nearest, references) -> list[str]:
    """One selection member: records (t, f, g), nearest (index, distance) per
    record, references the (F pieces, G pieces) of the curve states."""
    h = float(faces[1] - faces[0])
    problems = check_trajectory(tag, params, x, h, records)
    t = np.array([r[0] for r in records])
    m1 = np.array([grid_functionals(params, x, h, f, g)[2] for _, f, g in records])
    rate = float(np.polyfit(t, np.log(np.abs(m1)), 1)[0])
    if abs(rate + 1.0 / 3.0) > RATE_TOL:
        problems.append(f"{tag}: M1 decays at rate {rate:.4f}, not -1/3")
    d = np.array([dist for _, dist in nearest])
    if not np.all(np.diff(d) < 0.0):
        problems.append(f"{tag}: nearest-state distance rises by {np.max(np.diff(d)):.3e}")
    _, f, g = records[-1]
    mine = [math.sqrt(h * float(np.sum((f - cell_averages(F, faces)) ** 2
                                       + (g - cell_averages(G, faces)) ** 2)))
            for F, G in references]
    i, dist = nearest[-1]
    if int(np.argmin(mine)) != i or abs(mine[i] - dist) > DIST_TOL:
        problems.append(f"{tag}: nearest state {i} at {dist!r}, recomputed "
                        f"{int(np.argmin(mine))} at {min(mine)!r}")
    return problems


def check_twins(tag: str, a, b) -> list[str]:
    """Final (f, g) of a member and of its mirror twin."""
    gap = max(float(np.max(np.abs(a[0] - b[0][::-1]))), float(np.max(np.abs(a[1] - b[1][::-1]))))
    return [] if gap <= TWIN_TOL else [f"{tag}: twins differ from mirror images by {gap:.3e}"]
