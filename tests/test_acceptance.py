"""Acceptance battery: one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The heavy simulation criteria (7, 8) sit at the end.
"""

import math
import time

import numpy as np
import pytest

from muskat.functionals import energy_along_curve, evaluate
from muskat.fvm import Grid, SimConfig, init_state, run
from muskat.numerics import max_abs
from muskat.params import FluidParams, thresholds
from muskat.profiles import (
    PiecewiseQuadratic,
    boundary_disconnected_profile,
    connected_profile,
    continue_curve,
    dual_transform,
    even_profile,
    profile_from_zeta,
    residuals_R1,
    residuals_R2,
    residuals_d1,
    residuals_eq41_43,
    steady_residual,
    xi0,
    xi3,
    _connected_quadruple,
    _solve_even_case3,
)
from oracles import residuals_d2, residuals_eq51_53, solve_even_case4_direct

TH = thresholds(FluidParams(1.0, 1.0, 1.0))


def _pq_bump(halfwidth: float) -> PiecewiseQuadratic:
    a = halfwidth
    return PiecewiseQuadratic.from_pieces([(-a, a, 0.75 / a, -0.75 / a**3)])


def _bump(center: float, halfwidth: float):
    c, a = center, halfwidth
    return lambda x: np.maximum(0.0, 0.75 / a * (1.0 - ((np.asarray(x) - c) / a) ** 2))


def _system_residual(pp) -> float:
    """Residual of the algebraic system matching the profile's regime."""
    p = pp.params
    if pp.zeta is not None:
        return max_abs(residuals_R1(p, pp.zeta) if p.R_mu > p.R + 1.0
                       else residuals_R2(p, pp.zeta))
    th = thresholds(p)
    if pp.label.startswith("even-case3"):
        a, b, g = _solve_even_case3(p)
        return max_abs(residuals_eq41_43(p, a, b, g))
    if pp.label.startswith("even-case4"):
        a, b, g = even_profile(p).zeta[3:]
        return max_abs(residuals_eq51_53(p, a, b, g))
    return 0.0  # closed-form cases (i), (ii), (v) have no residual system


def test_criterion_1_thresholds():
    t0 = time.time()
    th = thresholds(FluidParams(1.0, 1.0, 1.0))
    assert th.r_minus == 0.2
    assert th.r0 == 1.5
    assert th.r_plus == 5.0
    assert abs(th.r_M - 12.258) <= 1e-3
    assert abs(th.r_m - 0.058) <= 1e-3
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"\n[criterion 1] PASS: thresholds (0.2, 1.5, 5, {th.r_M:.3f}, "
          f"{th.r_m:.3f}) in {elapsed:.3f} s")


def test_criterion_2_regime_atlas():
    t0 = time.time()
    topo = {}
    for rmu in (0.1, 0.2, 1.0 / 3.0, 1.0, 1.25, 1.5, 5.0 / 3.0, 2.0, 3.0, 5.0, 10.0):
        p = FluidParams(1.0, rmu, 1.0)
        pp = even_profile(p)
        assert abs(pp.F.mass() - 1.0) <= 1e-10
        assert abs(pp.G.mass() - 1.0) <= 1e-10
        assert steady_residual(pp) < 1e-9
        assert _system_residual(pp) < 1e-10
        topo[rmu] = (len(pp.support_F), len(pp.support_G), pp.support_F == pp.support_G)
    for rmu in (0.1, 0.2):
        assert topo[rmu][0] == 2 and topo[rmu][1] == 1  # F disconnected
    assert topo[1.5] == (1, 1, True)  # fully overlapping supports
    for rmu in (5.0, 10.0):
        assert topo[rmu][0] == 1 and topo[rmu][1] == 2  # G disconnected
    assert _solve_even_case3(FluidParams(1.0, 5.0, 1.0))[0] == 0.0
    assert _solve_even_case3(FluidParams(1.0, 10.0, 1.0))[0] > 0.0
    for rmu in (1.0 / 3.0, 1.0, 1.25, 5.0 / 3.0, 2.0, 3.0):
        n_f, n_g, same = topo[rmu]
        assert n_f == 1 and n_g == 1 and not same  # connected, distinct
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"[criterion 2] PASS: 11-case atlas topology verified in {elapsed:.2f} s")


def test_criterion_3_connected_profiles():
    t0 = time.time()
    cases = [TH.r_M, 21.0, TH.r_m, 0.01]
    for rmu in cases:
        p = FluidParams(1.0, rmu, 1.0)
        pp = connected_profile(p, "right")
        assert steady_residual(pp) < 1e-9
        if rmu >= TH.r_M:
            b1, a, b, g = _connected_quadruple(p)
            assert max_abs(residuals_d1(p, b1, a, b, g)) < 1e-10
        else:
            from muskat.params import dual_params
            p1, lam = dual_params(p)
            b1, a, b, g = (lam * v for v in _connected_quadruple(p1))
            assert max_abs(residuals_d2(p, b1, a, b, g)) < 1e-10
        assert -b1 > a  # the off-center lobe dominates the contact point
        at_threshold = rmu in (TH.r_M, TH.r_m)
        assert (a == 0.0) == at_threshold  # alpha = 0 exactly at the thresholds
    elapsed = time.time() - t0
    print(f"[criterion 3] PASS: connected profiles at 4 cases in {elapsed:.2f} s")


def _check_curve(p, n_points, endpoint_kind):
    t0 = time.time()
    curve = continue_curve(p, n_points)
    assert len(curve) >= 51
    ells = [cp.ell for cp in curve]
    assert any(e == 0.0 for e in ells)

    # energy: exact quadrature vs fifth-power closed form within 1e-9,
    # strictly unimodal with minimum at ell = 0
    pairs = energy_along_curve(curve)
    es = np.array([e for _, e in pairs])
    i0 = int(np.argmin(es))
    assert pairs[i0][0] == 0.0
    d = np.diff(es)
    signed = d[np.abs(d) > 1e-12]
    flips = np.sum(np.sign(signed[:-1]) != np.sign(signed[1:]))
    assert flips <= 1 and signed[0] < 0.0 < signed[-1]

    # endpoint reflection pairing
    z_lo, z_hi = np.array(curve[0].zeta), np.array(curve[-1].zeta)
    assert np.max(np.abs(z_hi + z_lo[::-1])) < 1e-9

    # endpoints match their boundary construction
    if endpoint_kind == "alpha-zero":
        ref = np.array(boundary_disconnected_profile(p, "right").zeta)
        match_lo = np.max(np.abs(z_lo - ref))
        match_hi = np.max(np.abs(z_hi + ref[::-1]))
        assert min(match_lo, match_hi) < 1e-9 and max(match_lo, match_hi) < 1e-9
    else:
        b1, a, b, g = _connected_quadruple(p)
        ref = np.array([b1, b1, b1, a, b, g])
        assert np.max(np.abs(z_lo - ref)) < 1e-9
    elapsed = time.time() - t0
    assert elapsed < 30.0
    return elapsed


def test_criterion_4_curves():
    e1 = _check_curve(FluidParams(1.0, 10.0, 1.0), 101, "alpha-zero")
    e2 = _check_curve(FluidParams(1.0, 0.1, 1.0), 101, "alpha-zero")
    e3 = _check_curve(FluidParams(1.0, 21.0, 1.0), 101, "connected-support")
    print(f"[criterion 4] PASS: curves at (1,10,1) {e1:.1f} s, (1,0.1,1) {e2:.1f} s, "
          f"(1,21,1) {e3:.1f} s")


def test_criterion_5_nonexistence_scans():
    t0 = time.time()
    # no alpha = 0 disconnected solution below r_plus
    for rmu in (2.0, 3.0, 4.0, 5.0):
        y0 = -math.sqrt((1.0 + 1.0) * (rmu - 1.0) / rmu)
        if y0 >= -1.0 - 1e-12:
            continue  # empty window exactly at R_mu = R + 1
        ys = np.linspace(y0 + 1e-9, -1.0 - 1e-9, 10_000)
        vals = np.asarray(xi3(rmu, ys, 1.0, 1.0))
        sgn = np.sign(vals)
        assert int(np.sum(sgn[:-1] != sgn[1:])) == 0
        # monotonicity structure: xi3 increases in y on the window
        assert np.all(np.diff(vals) > 0.0)
    # no connected non-symmetric solution below r_M
    for rmu in (2.5, 5.0, 8.0, 12.0):
        zs = np.linspace(0.0, 1.0 - 1e-9, 10_000)
        vals = np.asarray(xi0(rmu, zs, 1.0, 1.0))
        assert np.max(vals) < 0.0
        # structure: decreasing then increasing toward the -2 R_mu limit
        d = np.diff(vals)
        signed = d[np.abs(d) > 0.0]
        assert np.sum(np.sign(signed[:-1]) != np.sign(signed[1:])) <= 1
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"[criterion 5] PASS: non-existence scans in {elapsed:.2f} s")


def test_criterion_6_steady_identities():
    profiles = []
    for rmu in (0.1, 0.2, 1.0 / 3.0, 1.0, 1.5, 2.0, 5.0, 10.0):
        profiles.append(even_profile(FluidParams(1.0, rmu, 1.0)))
    for rmu in (TH.r_M, 21.0, TH.r_m, 0.01):
        profiles.append(connected_profile(FluidParams(1.0, rmu, 1.0)))
    profiles.append(boundary_disconnected_profile(FluidParams(1.0, 10.0, 1.0)).profile)
    curve = continue_curve(FluidParams(1.0, 10.0, 1.0), 11)
    profiles.extend(cp.profile for cp in curve)
    for pp in profiles:
        rep = evaluate(pp, pp.params)
        assert abs(rep.m2 - 2.0 * rep.rescaled_energy) < 1e-9
        assert abs(rep.rescaled_energy - 1.5 * rep.energy) < 1e-9
        assert abs(rep.m1) < 1e-10
    print(f"[criterion 6] PASS: steady identities on {len(profiles)} profiles")


def test_criterion_7_simulator_conservation_and_decay():
    t0 = time.time()
    p = FluidParams(1.0, 1.0, 1.0)
    grid = Grid(n_cells=400)
    state = init_state((_bump(0.5, 1.5), _bump(-0.3, 1.2)), grid, renormalize=True)
    assert grid.h * state.f.sum() == pytest.approx(1.0, abs=1e-13)
    cfg = SimConfig(grid=grid, params=p, t_end=3.0, dt=2e-5, record_every=2500)
    rep = run(cfg, state)

    # masses constant to 1e-12 relative over the first 1e5 steps (t <= 2)
    sel = rep.times <= 2.0 + 1e-12
    for key in ("mass_f", "mass_g"):
        m = rep.data[key][sel]
        assert np.max(np.abs(m - m[0])) / m[0] <= 1e-12

    # fitted decay rate of the weighted first moment over t in [0, 3]
    m1, t = rep.data["M1"], rep.times
    rate = np.polyfit(t, np.log(np.abs(m1)), 1)[0]
    assert -0.35 <= rate <= -0.32

    # rescaled energy non-increasing up to 1e-10 slack
    assert np.all(np.diff(rep.data["E_star"]) <= 1e-10)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"[criterion 7] PASS: conservation + M1 rate {rate:.4f} in {elapsed:.1f} s")


def test_criterion_8_convergence_to_profiles():
    t0 = time.time()
    # (a) refinement: drift away from the even profile shrinks with h
    p = FluidParams(1.0, 2.0, 1.0)
    pp = even_profile(p)
    drifts = []
    for n in (200, 400, 800):
        grid = Grid(n_cells=n)
        cfg = SimConfig(grid=grid, params=p, t_end=1.0, dt=2e-5,
                        record_every=50_000, reference=pp)
        rep = run(cfg, init_state(pp, grid))
        drifts.append(rep.data["l2_dist"][-1])
    hs = np.array([10.0 / n for n in (200, 400, 800)])
    order = np.polyfit(np.log(hs), np.log(drifts), 1)[0]
    assert drifts[-1] < drifts[0]
    assert order >= 0.8

    # (b) film rupture at (1, 0.05, 1) from even connected data
    p5 = FluidParams(1.0, 0.05, 1.0)
    pp5 = even_profile(p5)
    grid = Grid(n_cells=400)
    state = init_state((_pq_bump(2.0), _pq_bump(2.0)), grid)
    cfg = SimConfig(grid=grid, params=p5, t_end=8.0, dt=2e-5,
                    record_every=2500, reference=pp5)
    rep = run(cfg, state)
    ncf = rep.data["n_components_f"]
    assert ncf[0] == 1
    assert np.any((ncf[:-1] == 1) & (ncf[1:] == 2))  # 1 -> 2 transition
    assert np.all(rep.data["n_components_g"] == 1)
    i03 = int(np.argmin(np.abs(rep.times - 0.3)))
    i30 = int(np.argmin(np.abs(rep.times - 3.0)))
    assert rep.data["l2_dist"][i30] < rep.data["l2_dist"][i03]
    elapsed = time.time() - t0
    assert elapsed < 300.0
    first_split = rep.times[np.argmax(ncf >= 2)]
    print(f"[criterion 8] PASS: order {order:.2f}; rupture at t = {first_split:.2f} "
          f"in {elapsed:.1f} s")


def test_criterion_9_duality():
    # involution at 1e-12 on pieces and parameters
    for rmu in (0.1, 2.0, 10.0, 21.0):
        pp = even_profile(FluidParams(1.0, rmu, 1.0))
        dd = dual_transform(dual_transform(pp))
        assert dd.params.R_mu == pytest.approx(pp.params.R_mu, rel=1e-12)
        for q1, q2 in ((pp.F, dd.F), (pp.G, dd.G)):
            assert len(q1.pieces) == len(q2.pieces)
            for pc, qc in zip(q1.pieces, q2.pieces):
                assert max(abs(x - y) for x, y in zip(pc, qc)) <= 1e-12

    # split-F radii from duality match the direct scalar reduction
    for rmu in (0.05, 0.1, 0.15, 0.2):
        p = FluidParams(1.0, rmu, 1.0)
        via_dual = even_profile(p).zeta[3:]
        direct = solve_even_case4_direct(p)
        assert max(abs(x - y) for x, y in zip(via_dual, direct)) <= 1e-10
    print("[criterion 9] PASS: duality involution and cross-construction")
