"""Independent constructions that the tests check the library against."""

import numpy as np

from muskat.numerics import find_root_bracketed
from muskat.params import FluidParams, thresholds
from muskat.profiles import RegimeError, _ROOT_CFG, _system_tol, residuals_eq51_53


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
                a = find_root_bracketed(phi, grid[i], grid[i + 1], _ROOT_CFG)
                break
    if a is None:
        raise RuntimeError("no admissible root in the direct split-F solve")
    b = beta3(a) ** (1.0 / 3.0)
    g = gamma3(a) ** (1.0 / 3.0)
    res = residuals_eq51_53(p, a, b, g)
    if res > _system_tol(p):
        raise RuntimeError(f"direct split-F residual {res:.3e}")
    return a, b, g
