"""Seeded randomized sweep across the whole parameter space.

Every construction must verify at parameters far from the reference point
(R = eta = 1), including extreme viscosity ratios where the dual systems
carry large coefficients.
"""

import numpy as np

from muskat.functionals import energy_along_curve, evaluate
from muskat.params import ContinuumClass, FluidParams, classify_regime, thresholds
from muskat.profiles import (
    boundary_disconnected_profile,
    connected_profile,
    continue_curve,
    even_profile,
    steady_residual,
)


def test_constructions_across_parameter_space():
    rng = np.random.default_rng(42)
    counts = {"even": 0, "connected": 0, "boundary": 0, "curve": 0}
    for trial in range(80):
        R = float(rng.uniform(0.1, 8.0))
        eta = float(rng.uniform(0.2, 5.0))
        th = thresholds(FluidParams(R, 1.0, eta))
        choices = [
            float(rng.uniform(0.2, 5.0) * th.r_M),
            float(rng.uniform(0.05, 0.95) * th.r_m),
            float(th.r_plus + (th.r_M - th.r_plus) * rng.uniform(0.05, 0.95)),
            float(th.r_m + (th.r_minus - th.r_m) * rng.uniform(0.05, 0.95)),
            float(th.r_minus + (th.r_plus - th.r_minus) * rng.uniform(0.01, 0.99)),
        ]
        p = FluidParams(R, choices[trial % 5], eta)
        pp = even_profile(p)
        assert steady_residual(pp) < 1e-9
        rep = evaluate(pp, p)
        scale = max(1.0, rep.m2)
        assert abs(rep.m2 - 2.0 * rep.rescaled_energy) < 1e-8 * scale
        assert abs(rep.m1) < 1e-9 * scale
        counts["even"] += 1
        reg = classify_regime(p)
        if reg.continuum is ContinuumClass.CONNECTED_ENDPOINTS:
            assert steady_residual(connected_profile(p)) < 1e-9
            counts["connected"] += 1
        elif reg.continuum is ContinuumClass.DISCONNECTED_ENDPOINTS:
            assert steady_residual(boundary_disconnected_profile(p).profile) < 1e-9
            counts["boundary"] += 1
        if trial % 20 == 0 and reg.continuum is not ContinuumClass.UNIQUE_EVEN:
            curve = continue_curve(p, 15)
            pairs = energy_along_curve(curve)
            es = np.array([e for _, e in pairs])
            assert pairs[int(np.argmin(es))][0] == 0.0
            counts["curve"] += 1
    assert counts["even"] == 80
    assert counts["connected"] > 10 and counts["boundary"] > 10
    assert counts["curve"] >= 2
