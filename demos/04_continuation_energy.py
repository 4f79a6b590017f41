#!/usr/bin/env python3
"""Trace the continuation curve of steady states and its energy landscape.

For R_mu beyond the outer thresholds a one-parameter family of steady
states runs through the even one.  The rescaled energy is strictly
unimodal along the family: the even state is the energy minimizer, the
curve endpoints cap both ends.  The curve parameter sigma = alpha + alpha1
changes sign under the mirror x -> -x, and E* is even in it.  The energy is
computed twice, by exact quadrature and by a closed form in fifth powers of
the support bounds.
"""

from pathlib import Path

import numpy as np

from muskat.functionals import energy_along_curve
from muskat.params import FluidParams
from muskat.profiles import continue_curve, curve_endpoint_kind

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

for rmu in (10.0, 21.0, 0.1):
    p = FluidParams(1.0, rmu, 1.0)
    curve = continue_curve(p, n_points=101)
    pairs = energy_along_curve(curve)  # raises if the two computations disagree
    sigmas = np.array([s for s, _ in pairs])
    es = np.array([v for _, v in pairs])
    i0 = int(np.argmin(es))
    print(f"R_mu = {rmu:6g}: {len(curve)} states, sigma in [{sigmas[0]:.4f}, {sigmas[-1]:.4f}], "
          f"endpoints: {curve_endpoint_kind(p)}")
    print(f"    E* ranges [{es.min():.6f}, {es.max():.6f}], minimum at sigma = {sigmas[i0]:g}")
    header = "sigma,gamma1,beta1,alpha1,alpha,beta,gamma,E_star"
    rows = np.array([[cp.ell, *cp.zeta, e] for cp, (_, e) in zip(curve, pairs)])
    np.savetxt(OUT / f"curve_Rmu{rmu:g}.csv", rows, delimiter=",",
               header=header, comments="")

print(f"\nwrote curve tables to {OUT}/")
print("each row is one steady state: its six support bounds and its energy.")
