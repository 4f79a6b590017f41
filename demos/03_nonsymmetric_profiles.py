#!/usr/bin/env python3
"""Non-symmetric steady states: connected pairs and alpha = 0 boundary states.

Outside the central band of viscosity ratios the even profile is not alone.
This script constructs the connected-support profiles at and beyond the
outer thresholds, plus a boundary profile with one support touching the
origin, and verifies the algebraic systems behind each.
"""

import numpy as np

from muskat.functionals import evaluate
from muskat.numerics import max_abs
from muskat.params import FluidParams, thresholds
from muskat.profiles import (
    boundary_disconnected_profile,
    connected_profile,
    residuals_R1,
    steady_residual,
)

TH = thresholds(FluidParams(1.0, 1.0, 1.0))

print("=== connected-support profiles (outer regimes) ===")
for rmu, note in [(TH.r_M, "exactly at the upper threshold"),
                  (21.0, "well above it"),
                  (TH.r_m, "exactly at the lower threshold"),
                  (0.01, "well below it")]:
    p = FluidParams(1.0, rmu, 1.0)
    pp = connected_profile(p, side="right")
    rep = evaluate(pp, p)
    print(f"R_mu = {rmu:9.5f} ({note})")
    print(f"    support F = {[(round(a, 4), round(b, 4)) for a, b in pp.support_F]}")
    print(f"    support G = {[(round(a, 4), round(b, 4)) for a, b in pp.support_G]}")
    print(f"    steady residual {steady_residual(pp):.1e}, M1 = {rep.m1:.1e}")

print("\n=== boundary profile with a support split at the origin ===")
p = FluidParams(1.0, 10.0, 1.0)
cp = boundary_disconnected_profile(p, side="right")
print(f"zeta = {np.round(cp.zeta, 6)}")
print(f"system residual = {max_abs(residuals_R1(p, cp.zeta)):.1e}")
print(f"support G = {[(round(a, 4), round(b, 4)) for a, b in cp.profile.support_G]}")
print("G vanishes at x = 0 from the right component: the contact point alpha = 0.")
