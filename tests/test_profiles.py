"""Steady-profile constructions: even, connected, disconnected, curve."""

import math

import numpy as np
import pytest

from muskat import numerics, profiles
from muskat.numerics import NumericsError, max_abs, newton_solve
from muskat.params import (
    ContinuumClass,
    EvenCase,
    FluidParams,
    classify_regime,
    dual_params,
    thresholds,
)
from muskat.profiles import (
    ContinuationStallError,
    InvalidZetaError,
    PiecewiseQuadratic,
    ProfilePair,
    RegimeError,
    boundary_disconnected_profile,
    connected_profile,
    continue_curve,
    curve_endpoint_kind,
    dual_transform,
    even_profile,
    profile_from_zeta,
    profile_to_dict,
    reflect,
    residuals_R1,
    residuals_R2,
    residuals_d1,
    residuals_eq41_43,
    sample_profile,
    sigma_end,
    steady_residual,
    steady_residual_fields,
    steady_state,
    xi0,
    xi3,
    _clean_pieces,
    _closed_form_energies,
    _float_fields,
    _system_tol,
    _R1_reduced_funcs,
    _boundary_zeta,
    _connected_quadruple,
    _require_solved,
    _solve_even_case3,
    _work_frame,
    _zeta_pieces,
)
from oracles import (
    R1_complete_by_rows,
    _R1_newton_funcs,
    clean_pieces_by_sort,
    curve_jacobian_det,
    dual_transform_by_constructor,
    moment_by_loop,
    newton_solve_by_lists,
    reflect_by_constructor,
    residuals_d2,
    residuals_eq51_53,
    solve_even_case4_direct,
    solve_step_by_elimination,
    steady_residual_fields_by_scan,
)

P1 = FluidParams(1.0, 1.0, 1.0)
TH1 = thresholds(P1)

CBRT_13_5 = 2.381101577952299   # 13.5 ** (1/3)
CBRT_9 = 2.080083823051904      # 9 ** (1/3)
CBRT_18 = 2.6207413942088964    # 18 ** (1/3)
CBRT_0_9 = 0.9654893846056297   # 0.9 ** (1/3)
CBRT_5_625 = 1.7784466522450313
CBRT_45 = 3.5568933044900626


# ----------------------------------------------------------------------
# piecewise-quadratic plumbing
# ----------------------------------------------------------------------


def test_moments_of_indicator():
    q = PiecewiseQuadratic.from_pieces([(-1.0, 1.0, 0.5, 0.0)])
    assert moment_by_loop(q, 0) == pytest.approx(1.0, abs=1e-15)
    assert moment_by_loop(q, 1) == 0.0
    assert moment_by_loop(q, 2) == pytest.approx(1.0 / 3.0, rel=1e-15)
    with pytest.raises(ValueError):
        moment_by_loop(q, 3)


def test_even_profile_moments():
    pp = even_profile(FluidParams(1.0, 1.5, 1.0))
    assert moment_by_loop(pp.F, 0) == pytest.approx(1.0, abs=1e-12)
    assert moment_by_loop(pp.G, 0) == pytest.approx(1.0, abs=1e-12)
    assert moment_by_loop(pp.F, 1) == pytest.approx(0.0, abs=1e-14)


def test_pair_requires_unit_masses():
    # a single-fluid parabolic blob with an empty partner is not admissible
    a = (4.5) ** (1 / 3)
    F = PiecewiseQuadratic.from_pieces([(-math.sqrt(6 * a), math.sqrt(6 * a), a, -1 / 6.0)])
    G = PiecewiseQuadratic.from_pieces([(-1.0, 1.0, 0.0, 0.0)])
    with pytest.raises(ValueError):
        ProfilePair(F=F, G=G, params=P1)


# ----------------------------------------------------------------------
# even profiles
# ----------------------------------------------------------------------


def test_even_case1_coincident():
    pp = even_profile(FluidParams(1.0, 1.5, 1.0))
    assert pp.label == "even-case1"
    (l, r, c0, c2), = pp.F.pieces
    assert r == pytest.approx(CBRT_13_5, rel=1e-14)
    assert pp.F.pieces == pp.G.pieces
    assert len(pp.support_F) == len(pp.support_G) == 1


def test_even_case2_nested():
    pp = even_profile(FluidParams(1.0, 2.0, 1.0))
    assert pp.label == "even-case2"
    assert pp.F.pieces[-1][1] == pytest.approx(CBRT_9, rel=1e-14)
    assert pp.G.pieces[-1][1] == pytest.approx(CBRT_18, rel=1e-14)
    assert pp.support_F == [(-CBRT_9, CBRT_9)]
    assert pp.support_G[0][0] == pytest.approx(-CBRT_18, rel=1e-14)


def test_even_case5_nested():
    pp = even_profile(FluidParams(1.0, 1.0 / 3.0, 1.0))
    assert pp.label == "even-case5"
    assert pp.G.pieces[-1][1] == pytest.approx(CBRT_0_9, rel=1e-14)
    assert pp.F.pieces[-1][1] == pytest.approx(CBRT_13_5, rel=1e-14)
    assert len(pp.support_F) == 1 and len(pp.support_G) == 1


def test_even_case3_at_threshold_closed_form():
    a, b, g = _solve_even_case3(FluidParams(1.0, 5.0, 1.0))
    assert a == 0.0
    assert b == pytest.approx(CBRT_5_625, rel=1e-14)
    assert g == pytest.approx(CBRT_45, rel=1e-14)
    assert g == pytest.approx(2.0 * b, rel=1e-14)  # 45 = 8 * 5.625


def test_even_case3_interior():
    p = FluidParams(1.0, 10.0, 1.0)
    a, b, g = _solve_even_case3(p)
    assert 0.0 < a < b < g
    assert max_abs(residuals_eq41_43(p, a, b, g)) < 1e-10

    # independent oracle: the scalar reduction has a single sign change
    R, Rmu, e2 = 1.0, 10.0, 1.0
    q, s = Rmu - R - 1.0, Rmu - R
    A1, B1 = 4.5 * Rmu * (1 + e2), q / (1 + R)
    A2, B2 = 4.5 * Rmu * e2 * math.sqrt(s), R * q * math.sqrt(s) / (1 + R)
    y2 = 2.0 / (9.0 * e2 * (1 + R))
    ys = np.linspace(y2, 50 * y2, 100_001)
    vals = np.cbrt(A1 * ys - B1) ** 2 - np.cbrt(A2 * ys + B2) ** 2 + q
    assert vals[0] > 0.0  # the bracket sanity value at the left end
    sgn = np.sign(vals)
    assert int(np.sum(sgn[:-1] != sgn[1:])) == 1
    assert y2 < a ** (-3) < 50 * y2


def test_even_case3_support_topology():
    pp = even_profile(FluidParams(1.0, 10.0, 1.0))
    assert pp.label == "even-case3"
    assert len(pp.support_F) == 1
    assert len(pp.support_G) == 2
    (l1, r1), (l2, r2) = pp.support_G
    assert l1 == pytest.approx(-r2, rel=1e-14) and r1 == pytest.approx(-l2, rel=1e-14)
    assert r1 > 0.0 or l2 > 0.0  # inner gap around the origin


def test_even_case4_dual_window():
    p = FluidParams(1.0, 0.2, 1.0)
    p1, _ = dual_params(p)
    th1 = thresholds(p1)
    # the dual of the small threshold lands exactly on the dual r_plus
    assert p1.R_mu == pytest.approx(10.0, rel=1e-14)
    assert th1.r_plus == pytest.approx(10.0, rel=1e-14)
    a, b, g = even_profile(p).zeta[3:]
    assert a == pytest.approx(0.0, abs=1e-13)
    assert max_abs(residuals_eq51_53(p, a, b, g)) < 1e-10


def test_even_case4_interior():
    p = FluidParams(1.0, 0.1, 1.0)
    pp = even_profile(p)
    a, b, g = pp.zeta[3:]
    assert 0.0 < a < b < g
    assert max_abs(residuals_eq51_53(p, a, b, g)) < 1e-10
    assert len(pp.support_F) == 2
    assert len(pp.support_G) == 1


def test_even_case4_direct_matches_duality():
    for rmu in (0.05, 0.1, 0.15):
        p = FluidParams(1.0, rmu, 1.0)
        via_dual = even_profile(p).zeta[3:]
        direct = solve_even_case4_direct(p)
        assert max(abs(x - y) for x, y in zip(via_dual, direct)) < 1e-10


def test_even_case4_round_trip():
    # dualizing the split-G solution of the dual parameters reproduces
    # the direct split-F profile
    p = FluidParams(1.0, 0.1, 1.0)
    p1, _ = dual_params(p)
    via_dual = dual_transform(even_profile(p1))
    direct = even_profile(p)
    for q1, q2 in ((via_dual.F, direct.F), (via_dual.G, direct.G)):
        assert len(q1.pieces) == len(q2.pieces)
        for pc, qc in zip(q1.pieces, q2.pieces):
            assert max(abs(x - y) for x, y in zip(pc, qc)) < 1e-10


def test_even_profiles_all_regimes_verify():
    for rmu in (0.1, 0.2, 1.0 / 3.0, 1.0, 1.25, 1.5, 5.0 / 3.0, 2.0, 3.0, 5.0, 10.0):
        p = FluidParams(1.0, rmu, 1.0)
        pp = even_profile(p)
        assert abs(pp.F.mass() - 1.0) < 1e-10
        assert abs(pp.G.mass() - 1.0) < 1e-10
        assert steady_residual(pp) < 1e-9
        # evenness of the construction
        assert moment_by_loop(pp.F, 1) == pytest.approx(0.0, abs=1e-13)


def test_degenerate_parameter_lines():
    # R_mu = R and R_mu = R + 1 reduce a quadratic coefficient to zero
    pp = even_profile(FluidParams(1.0, 1.0, 1.0))  # R_mu = R, case 5
    mid = [pc for pc in pp.F.pieces if pc[0] < 0.0 < pc[1]]
    assert mid and mid[0][3] == 0.0
    pp = even_profile(FluidParams(1.0, 2.0, 1.0))  # R_mu = R + 1, case 2
    mid = [pc for pc in pp.G.pieces if pc[0] < 0.0 < pc[1]]
    assert mid and mid[0][3] == 0.0


# ----------------------------------------------------------------------
# connected non-symmetric profiles
# ----------------------------------------------------------------------


def test_connected_alpha_zero_exactly_at_threshold():
    p = FluidParams(1.0, TH1.r_M, 1.0)
    b1, a, b, g = _connected_quadruple(p)
    assert a == 0.0
    assert -b1 > a
    assert max_abs(residuals_d1(p, b1, a, b, g)) < 1e-10


def test_connected_large_interior():
    p = FluidParams(1.0, 21.0, 1.0)
    b1, a, b, g = _connected_quadruple(p)
    assert 0.0 < a and b1 < 0.0 and -b1 > a
    assert max_abs(residuals_d1(p, b1, a, b, g)) < 1e-10
    pp = connected_profile(p, "right")
    assert abs(pp.F.mass() - 1.0) < 1e-10
    assert abs(pp.G.mass() - 1.0) < 1e-10
    assert steady_residual(pp) < 1e-9
    assert len(pp.support_F) == 1 and len(pp.support_G) == 1


def test_connected_small_supports():
    p = FluidParams(1.0, 0.01, 1.0)
    pp = connected_profile(p, "right")
    (fl, fr), = pp.support_F
    (gl, gr), = pp.support_G
    assert fl >= 0.0 and gl < 0.0  # F sits right of the origin, G straddles it
    assert steady_residual(pp) < 1e-9
    b1, a, b, g = pp.G.pieces[0][0], pp.F.pieces[0][0], pp.G.pieces[-1][1], pp.F.pieces[-1][1]
    assert max_abs(residuals_d2(p, b1, a, b, g)) < 1e-10


def test_connected_rejected_in_gap():
    with pytest.raises(RegimeError):
        connected_profile(FluidParams(1.0, 3.0, 1.0))
    with pytest.raises(RegimeError):
        connected_profile(FluidParams(1.0, 0.1, 1.0))


def test_connected_sides_mirror():
    p = FluidParams(1.0, 21.0, 1.0)
    right = connected_profile(p, "right")
    left = connected_profile(p, "left")
    x = np.linspace(-8, 8, 1001)
    assert np.allclose(left.F(x), right.F(-x), atol=1e-14)
    assert np.allclose(left.G(x), right.G(-x), atol=1e-14)


# ----------------------------------------------------------------------
# boundary (alpha = 0) disconnected profiles
# ----------------------------------------------------------------------


def test_boundary_zeta_direct_window():
    p = FluidParams(1.0, 10.0, 1.0)
    z = _boundary_zeta(p)
    g1, b1, a1, a, b, g = z
    assert g1 < b1 < a1 < 0.0 == a < b < g
    assert max_abs(residuals_R1(p, z)) < 1e-10


def test_require_solved_rejects_nan_residual():
    # a system whose residual is NaN is not solved, whatever the tolerance
    p = FluidParams(1.0, 10.0, 1.0)
    _require_solved((0.0, -1e-13), p, "test system")
    for rows in ((0.0, math.nan), (math.nan, 1e-13), (1.0,)):
        with pytest.raises(RuntimeError, match="test system residual"):
            _require_solved(rows, p, "test system")


def test_boundary_zeta_t_value():
    z = _boundary_zeta(FluidParams(1.0, 6.0, 1.0))
    assert z[5] / z[4] == pytest.approx(math.sqrt(5.0), rel=1e-13)


def test_xi3_endpoint_signs():
    # left end sign flips at the large threshold, right end at r_plus
    for rmu in (6.0, 8.0, 10.0, 12.0):
        y0 = -math.sqrt(2.0 * (rmu - 1.0) / rmu)
        assert xi3(rmu, -1.0, 1.0, 1.0) > 0.0  # rmu > r_plus
        assert xi3(rmu, y0, 1.0, 1.0) < 0.0    # rmu < r_M
    assert xi3(5.0, -1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    y0M = -math.sqrt(2.0 * (TH1.r_M - 1.0) / TH1.r_M)
    assert xi3(TH1.r_M, y0M, 1.0, 1.0) == pytest.approx(0.0, abs=1e-9)
    assert xi3(21.0, -1.0, 1.0, 1.0) > 0.0
    assert xi3(21.0, -math.sqrt(2.0 * 20.0 / 21.0), 1.0, 1.0) > 0.0


def test_boundary_profile_dual_window():
    p = FluidParams(1.0, 0.1, 1.0)
    cp = boundary_disconnected_profile(p, "right")
    assert max_abs(residuals_R2(p, cp.zeta)) < 1e-10
    pp = cp.profile
    assert abs(pp.F.mass() - 1.0) < 1e-10
    assert abs(pp.G.mass() - 1.0) < 1e-10
    # one of alpha / alpha1 vanishes at a boundary state
    assert min(abs(cp.zeta[2]), abs(cp.zeta[3])) == 0.0
    assert len(pp.support_F) == 2


def test_boundary_profile_rejected_outside_window():
    for rmu in (5.0, TH1.r_M, 21.0, 2.0):
        with pytest.raises(RegimeError):
            boundary_disconnected_profile(FluidParams(1.0, rmu, 1.0))


def test_nonexistence_scan_xi3():
    # no sign change strictly between the bracket ends below r_plus
    for rmu in (2.0, 3.0, 4.0, 5.0):
        y0 = -math.sqrt(2.0 * (rmu - 1.0) / rmu)
        if y0 >= -1.0 - 1e-12:
            continue  # the admissible window (y0, -1) is empty at R_mu = R + 1
        ys = np.linspace(y0 + 1e-9, -1.0 - 1e-9, 10_000)
        vals = xi3(rmu, ys, 1.0, 1.0)
        sgn = np.sign(vals)
        assert int(np.sum(sgn[:-1] != sgn[1:])) == 0


def test_nonexistence_scan_xi0():
    # the connected-profile reduction has no zero below the large threshold
    for rmu in (2.5, 5.0, 8.0, 12.0):
        zs = np.linspace(0.0, 1.0 - 1e-9, 10_000)
        vals = xi0(rmu, zs, 1.0, 1.0)
        assert np.max(vals) < 0.0


# ----------------------------------------------------------------------
# profiles from sextuplets
# ----------------------------------------------------------------------


def test_zeta_symmetric_equals_even():
    p = FluidParams(1.0, 10.0, 1.0)
    a, b, g = _solve_even_case3(p)
    pp = profile_from_zeta(p, (-g, -b, -a, a, b, g))
    ev = even_profile(p)
    x = np.linspace(-6, 6, 2001)
    assert np.allclose(pp.F(x), ev.F(x), atol=1e-12)
    assert np.allclose(pp.G(x), ev.G(x), atol=1e-12)


def test_zeta_collapsed_equals_connected():
    p = FluidParams(1.0, 21.0, 1.0)
    b1, a, b, g = _connected_quadruple(p)
    pp = profile_from_zeta(p, (b1, b1, b1, a, b, g))
    cn = connected_profile(p, "right")
    x = np.linspace(-8, 8, 2001)
    assert np.allclose(pp.F(x), cn.F(x), atol=1e-12)
    assert np.allclose(pp.G(x), cn.G(x), atol=1e-12)


def _typed_bits(pieces) -> list:
    """Each entry of each piece as (type, IEEE bytes)."""
    return [tuple((type(v), np.float64(v).tobytes()) for v in q) for q in pieces]


def _connected_zeta(p: FluidParams) -> tuple:
    work, lam = _work_frame(p, classify_regime(p))
    b1, a, b, g = (lam * v for v in _connected_quadruple(work))
    return (b1, b1, b1, a, b, g)


def _even_zeta(p: FluidParams) -> tuple:
    a, b, g = _solve_even_case3(p) if p.R_mu > p.R + 1.0 else even_profile(p).zeta[3:]
    return (-g, -b, -a, a, b, g)


@pytest.mark.parametrize("zeta_of, p", [
    (_connected_zeta, FluidParams(1.0, 21.0, 1.0)), (_connected_zeta, FluidParams(1.0, 0.01, 1.0)),
    (_even_zeta, FluidParams(1.0, 10.0, 1.0)), (_even_zeta, FluidParams(1.0, 0.1, 1.0)),
], ids=["connected-large", "connected-small", "even-case3", "even-case4"])
def test_float_fields_bitwise_equal_clean_pieces(zeta_of, p):
    # the one-pass field build keeps what _clean_pieces keeps, in its order,
    # as Python floats of the same bits: connected endpoints lose the pieces
    # collapsed onto beta1, the even state loses none
    fields = _zeta_pieces(p, zeta_of(p))
    built = _float_fields([fields])
    for pieces, (q,) in zip(fields, built):
        assert _typed_bits(q.pieces) == _typed_bits(_clean_pieces(pieces)) \
            == _typed_bits(clean_pieces_by_sort(pieces))
        assert q == PiecewiseQuadratic.from_pieces(pieces)
    dropped = sum(map(len, fields)) - sum(len(q.pieces) for (q,) in built)
    assert dropped == (3 if zeta_of is _connected_zeta else 0)


def test_float_fields_sort_out_of_order_pieces():
    # pieces out of order, one of zero width and two with tied left ends
    pieces = [(1.0, 2.0, 0.25, 0.0), (-1.0, 1.0, 0.5, 0.0), (0.5, 0.5, 3.0, 0.0),
              (-3.0, -1.0, 0.125, 0.0), (1.0, 1.5, 0.75, 0.0), (-4.0, -4.0 + 1e-15, 1.0, 0.0)]
    (q,), (r,) = _float_fields([(pieces, pieces[:2])])
    assert [v[0] for v in q.pieces] == [-3.0, -1.0, 1.0, 1.0]
    assert q.pieces[2:] == (pieces[0], pieces[4])  # the stable sort keeps tied pieces in order
    assert _typed_bits(q.pieces) == _typed_bits(_clean_pieces(pieces)) \
        == _typed_bits(clean_pieces_by_sort(pieces))
    assert r.pieces == (pieces[1], pieces[0])
    # from_pieces of any numbers: float tuples, as the comprehension form gives them
    for raw in (pieces, [(-1, 1, 1, 0), (2, 3, np.float64(0.5), np.float32(0.25))],
                [(math.nan, 1.0, 0.5, 0.0), (-2.0, 5.0, 0.5, 0.0), [3.0, 4.0, 1.0, 0.0]]):
        assert _typed_bits(_clean_pieces(raw)) == _typed_bits(clean_pieces_by_sort(raw))


def test_zeta_rejects_garbage():
    p = FluidParams(1.0, 10.0, 1.0)
    with pytest.raises(InvalidZetaError):
        profile_from_zeta(p, (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0))
    with pytest.raises(InvalidZetaError):
        profile_from_zeta(p, (-3.0, -2.0, 1.0, -1.0, 2.0, 3.0))


# ----------------------------------------------------------------------
# reflection and duality
# ----------------------------------------------------------------------


@pytest.mark.parametrize("rmu, case", [(2.0, 2), (10.0, 3), (0.05, 4)],
                         ids=["case2", "case3", "case4"])
def test_reflect_even_identity(rmu, case):
    # mirror symmetry bit for bit, also where the pieces come from a sextuplet
    pp = even_profile(FluidParams(1.0, rmu, 1.0))
    assert pp.label == f"even-case{case}"
    rr = reflect(pp)
    assert rr.F.pieces == pp.F.pieces
    assert rr.G.pieces == pp.G.pieces


def test_reflect_involution():
    pp = connected_profile(FluidParams(1.0, 21.0, 1.0))
    rr = reflect(reflect(pp))
    assert rr.F.pieces == pp.F.pieces
    assert rr.zeta == pp.zeta


def test_dual_mass_preserved():
    pp = even_profile(FluidParams(1.0, 10.0, 1.0))
    dd = dual_transform(pp)
    assert dd.F.mass() == pytest.approx(1.0, abs=1e-12)
    assert dd.G.mass() == pytest.approx(1.0, abs=1e-12)


def test_dual_involution():
    for rmu in (0.1, 2.0, 10.0):
        pp = even_profile(FluidParams(1.0, rmu, 1.0))
        dd = dual_transform(dual_transform(pp))
        for q1, q2 in ((pp.F, dd.F), (pp.G, dd.G)):
            for pc, qc in zip(q1.pieces, q2.pieces):
                assert max(abs(x - y) for x, y in zip(pc, qc)) < 1e-12


def test_dual_zeta_transfers():
    pp = even_profile(FluidParams(1.0, 10.0, 1.0))
    dd = dual_transform(pp)
    assert dd.zeta is not None
    assert max_abs(residuals_R2(dd.params, dd.zeta)) < 1e-8


def _symmetry_sources() -> list:
    # the even state of one triple per even case, a left connected state and
    # a left boundary endpoint
    evens = [even_profile(FluidParams(1.0, rmu, 1.0)) for rmu in (1.5, 2.0, 10.0, 0.05, 0.5)]
    assert [pp.label for pp in evens] == [f"even-case{k}" for k in range(1, 6)]
    return evens + [connected_profile(FluidParams(1.0, 21.0, 1.0), side="left"),
                    boundary_disconnected_profile(FluidParams(1.0, 0.1, 1.0), side="left").profile]


def _same_pair(a: ProfilePair, b: ProfilePair) -> None:
    for qa, qb in ((a.F, b.F), (a.G, b.G)):
        assert _typed_bits(qa.pieces) == _typed_bits(qb.pieces)
    assert a.zeta == b.zeta and a.label == b.label and a.params == b.params
    if a.zeta is not None:
        assert [type(z) for z in a.zeta] == [type(z) for z in b.zeta] == [float] * 6


def test_symmetry_maps_equal_the_constructor_forms():
    # through the construction batch the maps give what the public
    # constructor gives: piece bits and types, zeta, label and params
    for pp in _symmetry_sources():
        _same_pair(reflect(pp), reflect_by_constructor(pp))
        _same_pair(dual_transform(pp), dual_transform_by_constructor(pp))


def test_symmetry_maps_check_the_steady_residual_in_the_batch():
    # a pair of valid unit-mass fields that is not steady for its parameters
    pp = even_profile(FluidParams(1.0, 2.0, 1.0))
    off = ProfilePair(F=pp.F, G=pp.G, params=FluidParams(1.0, 3.0, 1.0))
    assert steady_residual(off) > 1e-9
    with pytest.raises(RuntimeError, match=r"steady residual .* exceeds 1e-09 for dual$"):
        dual_transform(off)
    with pytest.raises(RuntimeError, match="dual pair steady residual"):
        dual_transform_by_constructor(off)
    with pytest.raises(RuntimeError, match=r"steady residual .* exceeds 1e-09 for reflected$"):
        reflect(off)


def _counted(monkeypatch, name: str) -> list:
    """A list that grows by one at each call of profiles.<name>."""
    calls, fn = [], getattr(profiles, name)

    def run(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(profiles, name, run)
    return calls


@pytest.mark.parametrize("rmu, label", [(21.0, "connected-large|reflected"),
                                        (0.01, "connected-small|reflected")])
def test_left_connected_state_is_reflected_right_in_one_batch(rmu, label, monkeypatch):
    # mirrored before its one batch, the left state is reflect's image of the right one
    p = FluidParams(1.0, rmu, 1.0)
    batches = _counted(monkeypatch, "check_pairs")
    left = connected_profile(p, "left")
    assert len(batches) == 1
    _same_pair(left, reflect(connected_profile(p, "right")))
    assert left.label == label and left.zeta is None


@pytest.mark.parametrize("rmu", [10.0, 40.0, 0.1, 0.03])
def test_curve_checks_its_even_state_in_its_one_batch(rmu, monkeypatch):
    # one triple per continuum class; the even state is not rebuilt by even_profile
    batches, evens = _counted(monkeypatch, "check_pairs"), _counted(monkeypatch, "even_profile")
    curve = continue_curve(FluidParams(1.0, rmu, 1.0), 11)
    assert len(batches) == 1 and evens == []
    assert [cp.ell for cp in curve].count(0.0) == 1


# ----------------------------------------------------------------------
# steady residual as a detector
# ----------------------------------------------------------------------


def test_constructed_profiles_steady():
    for rmu in (0.1, 1.0, 2.0, 10.0):
        pp = even_profile(FluidParams(1.0, rmu, 1.0))
        assert steady_residual(pp) < 1e-9


def _pressure_constant_on_supports(pp):
    # global form of steadiness: each pressure is constant on every
    # connected component of its positivity set, not just stationary at
    # sampled points
    p = pp.params
    e2 = p.eta**2
    for q, coef_f, coef_g in ((pp.F, e2 * (1.0 + p.R), p.R),
                              (pp.G, e2 * p.R_mu, p.R_mu)):
        for lo, hi in q.supports():
            x = np.linspace(lo + 1e-9, hi - 1e-9, 2001)
            pressure = coef_f * pp.F(x) + coef_g * pp.G(x) + x**2 / 6.0
            if np.max(q(x)) <= 0.0:
                continue
            spread = np.max(pressure) - np.min(pressure)
            assert spread < 1e-10, f"pressure varies by {spread:.2e} on [{lo}, {hi}]"


def test_pressure_constant_on_each_component():
    for rmu in (0.1, 1.0 / 3.0, 1.5, 2.0, 10.0):
        _pressure_constant_on_supports(even_profile(FluidParams(1.0, rmu, 1.0)))
    _pressure_constant_on_supports(connected_profile(FluidParams(1.0, 21.0, 1.0)))
    _pressure_constant_on_supports(connected_profile(FluidParams(1.0, 0.01, 1.0)))
    _pressure_constant_on_supports(
        boundary_disconnected_profile(FluidParams(1.0, 10.0, 1.0)).profile)
    for cp in continue_curve(FluidParams(1.0, 10.0, 1.0), 9):
        _pressure_constant_on_supports(cp.profile)


def test_perturbation_detected():
    pp = even_profile(FluidParams(1.0, 2.0, 1.0))
    l, r, c0, c2 = pp.F.pieces[0]
    F_bad = PiecewiseQuadratic.from_pieces([(l, r, c0, c2 * (1.0 + 1e-3))])
    res = steady_residual_fields(F_bad, pp.G, pp.params)
    assert res > 1e-5


def _sampled_residual(F, G, p, n=10_000):
    """Dense-sample oracle: the residual at points strictly inside each interval."""
    R, Rmu, e2 = p.R, p.R_mu, p.eta**2

    def derivative(q, x):
        out = np.zeros_like(x)
        todo = np.ones_like(x, dtype=bool)
        for l, r, c0, c2 in q.pieces:
            m = todo & (x >= l) & (x <= r)
            out[m] = 2.0 * c2 * x[m]
            todo &= ~m
        return out

    breaks = sorted({v for l, r, _, _ in F.pieces + G.pieces for v in (l, r)})
    total_len = breaks[-1] - breaks[0]
    worst = 0.0
    for u, v in zip(breaks[:-1], breaks[1:]):
        if v - u <= 1e-13 * max(total_len, 1.0):
            continue
        m = max(64, int(n * (v - u) / total_len))
        x = u + (np.arange(m) + 0.5) * (v - u) / m
        dF, dG = derivative(F, x), derivative(G, x)
        res_f = F(x) * (e2 * (1.0 + R) * dF + R * dG + x / 3.0)
        res_g = G(x) * (e2 * Rmu * dF + Rmu * dG + x / 3.0)
        worst = max(worst, float(np.max(np.abs(res_f))), float(np.max(np.abs(res_g))))
    return worst


def _residual_test_profiles():
    out = [even_profile(FluidParams(1.0, rmu, 1.0))
           for rmu in (0.01, 0.1, 1.0 / 3.0, 1.5, 2.0, 10.0, 21.0)]
    out += [connected_profile(FluidParams(1.0, 21.0, 1.0)),
            connected_profile(FluidParams(1.0, 0.01, 1.0), side="left"),
            boundary_disconnected_profile(FluidParams(1.0, 10.0, 1.0)).profile,
            boundary_disconnected_profile(FluidParams(1.0, 0.1, 1.0), side="left").profile]
    for p in (FluidParams(1.0, 10.0, 1.0), FluidParams(1.0, 0.1, 1.0),
              FluidParams(2.0, 40.0, 0.8)):
        out += [cp.profile for cp in continue_curve(p, 9)]
    return out


def test_exact_residual_bounds_dense_sample():
    for pp in _residual_test_profiles():
        exact = steady_residual(pp)
        assert exact < 1e-9
        assert exact >= _sampled_residual(pp.F, pp.G, pp.params) - 1e-14


@pytest.mark.parametrize("eps", [1e-2, 1e-6])
def test_exact_residual_matches_dense_sample_off_steady(eps):
    for pp in _residual_test_profiles():
        F_bad = PiecewiseQuadratic.from_pieces(
            [(l, r, c0 * (1.0 + eps), c2 * (1.0 + eps)) for l, r, c0, c2 in pp.F.pieces])
        exact = steady_residual_fields(F_bad, pp.G, pp.params)
        sampled = _sampled_residual(F_bad, pp.G, pp.params)
        assert exact >= sampled - 1e-14
        assert exact == pytest.approx(sampled, rel=1e-2)


def test_exact_residual_walk_bitwise_equals_scan():
    # one forward walk over the sorted pieces finds the same coefficients as
    # a scan of all pieces for every interval
    for pp in _residual_test_profiles():
        # off-steady variants: scaled throughout, and bent on x < 0 only, where
        # the residual peaks at the negative critical point of a cubic
        for F in (pp.F, PiecewiseQuadratic.from_pieces(
                [(l, r, c0 * 1.01, c2 * 1.01) for l, r, c0, c2 in pp.F.pieces]),
                PiecewiseQuadratic.from_pieces(
                [(l, r, c0, c2 * 1.01 if r <= 0.0 else c2) for l, r, c0, c2 in pp.F.pieces])):
            walk = steady_residual_fields(F, pp.G, pp.params)
            scan = steady_residual_fields_by_scan(F, pp.G, pp.params)
            assert np.float64(walk).tobytes() == np.float64(scan).tobytes()


def test_residual_peak_at_interior_critical_point():
    # even case 1 has F = G = c0 + c2 x^2 on one interval; scaling F's c2 leaves
    # F nearly zero at the support ends, so |F (pressure_F)'| peaks inside, at
    # x^2 = -c0 / (3 c2), and no breakpoint carries the maximum
    pp = even_profile(FluidParams(1.0, 1.5, 1.0))
    p = pp.params
    (l, r, c0, c2), = pp.F.pieces
    c2_bad = c2 * (1.0 + 1e-3)
    F_bad = PiecewiseQuadratic.from_pieces([(l, r, c0, c2_bad)])
    k = 2.0 * p.eta**2 * (1.0 + p.R) * (c2_bad - c2)  # the steady k is zero
    xc = math.sqrt(-c0 / (3.0 * c2_bad))
    peak = abs(k * xc * (c0 + c2_bad * xc**2))
    assert abs(k * r * (c0 + c2_bad * r**2)) < 0.01 * peak
    res = steady_residual_fields(F_bad, pp.G, p)
    assert res == pytest.approx(peak, rel=1e-9)
    assert _sampled_residual(F_bad, pp.G, p) <= res


# ----------------------------------------------------------------------
# continuation curve
# ----------------------------------------------------------------------


def test_newton_converges_fast_near_curve_point():
    p = FluidParams(1.0, 10.0, 1.0)
    curve = continue_curve(p, 21)
    cp = curve[8]
    g1, b1, a1, a, b, g = cp.zeta
    F, J = _R1_newton_funcs(p, a1)
    start = np.array([g1, b1, a, b, g]) * (1.0 + 1e-3)
    iterations = 0
    x = start.copy()
    while np.max(np.abs(F(x))) > 1e-12:
        x = x + np.linalg.solve(J(x), -F(x))
        iterations += 1
        assert iterations <= 6
    assert np.allclose(x, [g1, b1, a, b, g], rtol=1e-9)


def _newton_five_unknowns(F, J, x0, tol=1e-13):
    """The oracle's Newton loop on the full five-unknown curve system: newton_solve
    steps two unknowns, so here the oracle's general elimination takes the step."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "_solve_step", solve_step_by_elimination)
        return newton_solve_by_lists(F, J, x0, tol)


@pytest.mark.parametrize("p, cls", [
    (FluidParams(1.0, 10.0, 1.0), ContinuumClass.DISCONNECTED_ENDPOINTS),
    (FluidParams(1.0, 21.0, 1.0), ContinuumClass.CONNECTED_ENDPOINTS),
    (FluidParams(1.0, 0.1, 1.0), ContinuumClass.DISCONNECTED_ENDPOINTS),
    (FluidParams(4.0, 0.7, 1.0), ContinuumClass.CONNECTED_ENDPOINTS),
], ids=["disconnected-large", "connected-large", "disconnected-small", "connected-small"])
def test_reduced_newton_matches_5x5_oracle(p, cls):
    # every interior state of the (alpha, beta) continuation solves the full
    # five-unknown system: the 5x5 Newton oracle, started 1e-6 away, returns it
    assert classify_regime(p).continuum is cls
    work, lam = (p, 1.0) if p.R_mu > p.R + 1.0 else dual_params(p)
    curve = continue_curve(p, 21)
    for cp in curve[1:-1]:
        if cp.ell == 0.0:
            continue
        zw = cp.zeta if lam == 1.0 else tuple(-z / lam for z in reversed(cp.zeta))
        assert max_abs(residuals_R1(work, zw)) < _system_tol(work)
        F, J = _R1_newton_funcs(work, zw[2])
        u = np.array([zw[0], zw[1], zw[3], zw[4], zw[5]])
        # row 5 adds terms as large as 9 R_mu, whose rounding can leave a few
        # of their ulps: a stop below 8 of them is out of float reach
        x = _newton_five_unknowns(F, J, u * (1.0 + 1e-6),
                                  max(1e-13, 8.0 * np.spacing(9.0 * work.R_mu)))
        assert np.max(np.abs(x - u)) <= 1e-10 * np.max(np.abs(u))


def test_reduced_jacobian_matches_central_differences():
    p = FluidParams(2.0, 40.0, 0.8)
    for cp in continue_curve(p, 9)[1:-1]:
        g1, b1, a1, a, b, g = cp.zeta
        F, J, _ = _R1_reduced_funcs(p, a1 + a)
        h = 1e-6
        fd = [[(F([a + h * (i == 0), b + h * (i == 1)])[r]
                - F([a - h * (i == 0), b - h * (i == 1)])[r]) / (2.0 * h) for i in (0, 1)]
              for r in (0, 1)]
        assert np.allclose(J([a, b]), fd, rtol=1e-8, atol=1e-8)
    # off the domain of the closed-form completion both return NaN
    F, J, _ = _R1_reduced_funcs(p, -1.0)
    assert all(math.isnan(v) for v in F([1.0, 0.0]))
    assert all(math.isnan(v) for row in J([1.0, 0.0]) for v in row)


@pytest.mark.parametrize("p", [FluidParams(1.0, 10.0, 1.0), FluidParams(2.0, 40.0, 0.8)],
                         ids=["disconnected", "connected"])
def test_reduced_funcs_bitwise_equal_residuals_R1(p):
    # F is rows 4 and 5 of residuals_R1 at the completed sextuplet, and the
    # completion solves the three quadratic rows at alpha1 = sigma - alpha as
    # the per-call form does, on the curve and around it
    rng = np.random.default_rng(3)
    for cp in continue_curve(p, 9)[1:-1]:
        g1, b1, a1, a, b, g = cp.zeta
        sigma = a1 + a
        F, J, complete = _R1_reduced_funcs(p, sigma)
        for u in [[a, b], *(np.array([a, b]) * (1.0 + 1e-3 * rng.normal(size=(4, 2)))).tolist()]:
            zeta = complete(u)
            assert np.array(zeta).tobytes() == np.array(
                R1_complete_by_rows(p, sigma - u[0], *u)).tobytes()
            assert np.array(F(u)).tobytes() == np.array(residuals_R1(p, zeta)[3:]).tobytes()
    assert R1_complete_by_rows(p, -1.0, 1.0, 0.0) is None and _R1_reduced_funcs(
        p, -1.0)[2]([1.0, 0.0]) is None


@pytest.mark.parametrize("rmu", [10.0, 21.0, 0.1, 0.01])
def test_curve_even_point_bitwise_equals_even_profile(rmu):
    p = FluidParams(1.0, rmu, 1.0)
    cp = next(cp for cp in continue_curve(p, 11) if cp.ell == 0.0)
    ev = even_profile(p)
    assert cp.profile.label == ev.label
    for q, r in ((cp.profile.F, ev.F), (cp.profile.G, ev.G)):
        assert np.array(q.pieces).tobytes() == np.array(r.pieces).tobytes()
    assert np.array(cp.zeta).tobytes() == np.array(ev.zeta).tobytes()
    assert np.array(cp.profile.zeta).tobytes() == np.array(ev.zeta).tobytes()


MIRROR_TRIPLES = [FluidParams(1.0, rmu, 1.0) for rmu in (10.0, 40.0, 0.1, 0.03)] + [
    FluidParams(4.0, 0.7, 1.0), FluidParams(4.0, 2.0, 1.0)]


@pytest.mark.parametrize("n", [21, 101])
@pytest.mark.parametrize("p", MIRROR_TRIPLES, ids=lambda p: f"{p.R:g}-{p.R_mu:g}-{p.eta:g}")
def test_reflected_curve_state_is_the_mirrored_index_bitwise(p, n):
    # the curve is closed under x -> -x state by state: pieces, zeta and -sigma
    curve = continue_curve(p, n)
    assert curve[n // 2].ell == 0.0 and curve[0].ell == -curve[-1].ell < 0.0
    for i, cp in enumerate(curve):
        image, twin = reflect(cp.profile), curve[n - 1 - i]
        assert _typed_bits(image.F.pieces) == _typed_bits(twin.profile.F.pieces)
        assert _typed_bits(image.G.pieces) == _typed_bits(twin.profile.G.pieces)
        assert np.array(image.zeta).tobytes() == np.array(twin.zeta).tobytes()
        assert twin.ell == -cp.ell == -(cp.zeta[2] + cp.zeta[3])
    sigmas = [cp.ell for cp in curve]
    assert all(a < b for a, b in zip(sigmas, sigmas[1:]))


@pytest.mark.parametrize("rmu", [10.0, 40.0, 0.1, 0.03])
def test_curve_keeps_only_traced_pieces_and_checks_every_state_once(rmu, monkeypatch):
    # only the traced half (sigma >= 0) goes through _kept_pieces, one call per
    # field; the mirrored half is made from its kept fields, and all n states
    # go to check_pairs in one batch
    kept, batches = [], []
    keep, check = profiles._kept_pieces, profiles.check_pairs

    def counting_keep(pieces):
        kept.append(1)
        return keep(pieces)

    def counting_check(p, Fs, Gs, label=None):
        batches.append((len(Fs), len(Gs)))
        return check(p, Fs, Gs, label)

    monkeypatch.setattr(profiles, "_kept_pieces", counting_keep)
    monkeypatch.setattr(profiles, "check_pairs", counting_check)
    n = 101
    curve = continue_curve(FluidParams(1.0, rmu, 1.0), n)
    assert len(curve) == n
    assert len(kept) == 2 * (n // 2 + 1)  # F and G of the even, traced and end states
    assert batches == [(n, n)]


def test_curve_n_points_must_be_odd_and_at_least_5():
    p = FluidParams(1.0, 10.0, 1.0)
    for n in (3, 4, 20, 100):
        with pytest.raises(ValueError, match=f"n_points must be odd and at least 5, got {n}"):
            continue_curve(p, n)
    assert len(continue_curve(p, 5)) == 5


def test_curve_direct_regime():
    p = FluidParams(1.0, 10.0, 1.0)
    curve = continue_curve(p, 51)
    assert len(curve) == 51
    ells = [cp.ell for cp in curve]
    assert ells == sorted(ells)
    assert any(e == 0.0 for e in ells)
    # even point sits at ell = 0
    cp0 = next(cp for cp in curve if cp.ell == 0.0)
    ev = even_profile(p)
    x = np.linspace(-6, 6, 801)
    assert np.allclose(cp0.profile.F(x), ev.F(x), atol=1e-12)
    # endpoints are the alpha = 0 boundary solutions
    z_lo = np.array(curve[0].zeta)
    z_ref = np.array(boundary_disconnected_profile(p, "right").zeta)
    assert np.max(np.abs(z_lo - z_ref)) < 1e-9
    # reflection pairing of the endpoints
    z_hi = np.array(curve[-1].zeta)
    assert np.max(np.abs(z_hi + z_lo[::-1])) < 1e-9
    # interior points satisfy the system
    for cp in curve[1:-1]:
        assert max_abs(residuals_R1(p, cp.zeta)) < 1e-10


def test_curve_connected_endpoints():
    p = FluidParams(1.0, 21.0, 1.0)
    curve = continue_curve(p, 51)
    b1, a, b, g = _connected_quadruple(p)
    z = curve[0].zeta
    assert max(abs(z[0] - b1), abs(z[1] - b1), abs(z[2] - b1),
               abs(z[3] - a), abs(z[4] - b), abs(z[5] - g)) < 1e-9
    # the endpoint profile equals the connected profile
    cn = connected_profile(p, "right")
    x = np.linspace(-8, 8, 801)
    assert np.allclose(curve[0].profile.F(x), cn.F(x), atol=1e-9)
    assert np.allclose(curve[0].profile.G(x), cn.G(x), atol=1e-9)


def test_curve_dual_regime():
    p = FluidParams(1.0, 0.1, 1.0)
    curve = continue_curve(p, 31)
    assert any(cp.ell == 0.0 for cp in curve)
    for cp in curve:
        assert max_abs(residuals_R2(p, cp.zeta)) < 1e-9
    z_lo, z_hi = np.array(curve[0].zeta), np.array(curve[-1].zeta)
    assert np.max(np.abs(z_hi + z_lo[::-1])) < 1e-9
    # boundary states have a vanishing inner contact point
    assert min(abs(z_lo[2]), abs(z_lo[3])) < 1e-12


def test_boundary_sides_match_curve_ends():
    for rmu in (10.0, 0.1):
        p = FluidParams(1.0, rmu, 1.0)
        curve = continue_curve(p, 21)
        right = boundary_disconnected_profile(p, "right")
        left = boundary_disconnected_profile(p, "left")
        assert right.ell == pytest.approx(curve[0].ell, abs=1e-12)
        assert left.ell == pytest.approx(curve[-1].ell, abs=1e-12)
        assert np.max(np.abs(np.array(left.zeta) - np.array(curve[-1].zeta))) < 1e-12
        assert np.max(np.abs(np.array(right.zeta) - np.array(curve[0].zeta))) < 1e-12
        # one map builds both, so they agree exactly
        for end, cp in ((right, curve[0]), (left, curve[-1])):
            assert end.ell == cp.ell and end.zeta == cp.zeta
            assert end.profile.F.pieces == cp.profile.F.pieces
            assert end.profile.G.pieces == cp.profile.G.pieces


# the four CI curve triples, one per continuum class, and the eight triples
# that the benchmark's `curves` workload draws with seed 1
STATE_TRIPLES = [FluidParams(1.0, rmu, 1.0) for rmu in (10.0, 40.0, 0.1, 0.03)] + [
    FluidParams(*t) for t in (
        (0.6611697993211959, 5.360737219056424, 1.259508243102017),
        (0.8498069674196521, 19.20475630407312, 0.9868220889328079),
        (1.938282584329332, 0.20328958157914323, 1.2092815502540002),
        (0.5303594682917347, 0.003801424183874422, 1.249362325381287),
        (2.439930826963744, 28.38791148464174, 0.7010226096834358),
        (2.2417417634321373, 51.83601975379535, 0.820280392379457),
        (3.2586679957046316, 1.4607277428913659, 0.7150008242828492),
        (1.5413958570132293, 0.028538669284977176, 1.3421779768589837))]


def _same_state(a, b) -> bool:
    """Pieces (with their types), zeta, sigma and label all bitwise equal."""
    return (_typed_bits(a.profile.F.pieces) == _typed_bits(b.profile.F.pieces)
            and _typed_bits(a.profile.G.pieces) == _typed_bits(b.profile.G.pieces)
            and np.array(a.zeta).tobytes() == np.array(b.zeta).tobytes()
            and np.float64(a.ell).tobytes() == np.float64(b.ell).tobytes()
            and a.profile.label == b.profile.label)


@pytest.mark.parametrize("p", STATE_TRIPLES, ids=lambda p: f"{p.R:.4g}-{p.R_mu:.4g}-{p.eta:.4g}")
def test_steady_state_is_the_curve_state_at_its_sigma(p):
    n = 101
    curve = continue_curve(p, n)
    assert sigma_end(p) == curve[-1].ell == -curve[0].ell
    # the even state and both exact ends, bitwise
    for i in (0, n // 2, n - 1):
        assert _same_state(steady_state(p, curve[i].ell), curve[i])
    assert _same_state(steady_state(p), curve[n // 2])
    # the interior states, each from one Newton solve, to the corrector's tolerance
    for cp in curve[1:n // 2] + curve[n // 2 + 1:-1]:
        state = steady_state(p, cp.ell)
        scale = max(abs(z) for z in cp.zeta)
        assert max(abs(a - b) for a, b in zip(state.zeta, cp.zeta)) <= 1e-12 * scale
        assert state.ell == state.zeta[2] + state.zeta[3]
        assert state.profile.label == cp.profile.label


@pytest.mark.parametrize("p", STATE_TRIPLES[:4], ids=lambda p: f"{p.R:g}-{p.R_mu:g}-{p.eta:g}")
def test_steady_state_at_minus_sigma_is_the_mirror_image(p):
    end = sigma_end(p)
    for sigma in (0.1 * end, 0.5 * end, 0.93 * end, end):
        state, image = steady_state(p, sigma), steady_state(p, -sigma)
        mirror = reflect(state.profile)
        assert _typed_bits(image.profile.F.pieces) == _typed_bits(mirror.F.pieces)
        assert _typed_bits(image.profile.G.pieces) == _typed_bits(mirror.G.pieces)
        assert np.array(image.zeta).tobytes() == np.array(mirror.zeta).tobytes()
        assert image.ell == -state.ell


def test_steady_state_outside_the_continuum_raises():
    for p in STATE_TRIPLES[:4]:
        end = sigma_end(p)
        for sigma in (np.nextafter(end, math.inf), -1.01 * end, math.inf, math.nan):
            with pytest.raises(RegimeError, match="sigma must lie in"):
                steady_state(p, sigma)
    # the unique-even regime, whose one steady state is even_profile(p)
    p = FluidParams(1.0, 2.0, 1.0)
    assert sigma_end(p) == 0.0
    for sigma in (0.0, 1e-12, -0.5):
        with pytest.raises(RegimeError, match="only the even steady state exists"):
            steady_state(p, sigma)


def test_curve_near_thresholds():
    # tiny windows just outside the unique-even band, both sides of r_M,
    # and extreme viscosity ratios
    from muskat.functionals import energy_along_curve
    for rmu in (5.0005, TH1.r_M * 0.99999, TH1.r_M * 1.00001,
                0.2 * 0.9999, TH1.r_m * 1.0001, 500.0, 1e-4):
        p = FluidParams(1.0, rmu, 1.0)
        curve = continue_curve(p, 15)
        pairs = energy_along_curve(curve, tol=1e-8)
        es = np.array([e for _, e in pairs])
        assert pairs[int(np.argmin(es))][0] == 0.0
        assert curve[0].ell < 0.0 < curve[-1].ell


def test_curve_regime_guard():
    with pytest.raises(RegimeError):
        continue_curve(FluidParams(1.0, 1.0, 1.0))
    with pytest.raises(RegimeError):
        continue_curve(FluidParams(1.0, 5.0, 1.0))


def _outcome(fn):
    """True when fn returns, False when it raises RegimeError."""
    try:
        fn()
    except RegimeError:
        return False
    return True


def test_constructions_exist_exactly_where_classify_regime_says():
    # R_mu = r (1 + delta) around every threshold, inside, at and outside the band,
    # and within 8 ulps of either band edge r (1 +- 1e-13)
    deltas = (0.0, 5e-14, -5e-14, 5e-13, -5e-13, 5e-12, -5e-12, 1e-6, -1e-6)
    for R, eta in ((1.0, 1.0), (2.0, 0.8), (0.5, 1.4)):
        th = thresholds(FluidParams(R, 1.0, eta))
        for r in (th.r_m, th.r_minus, th.r_plus, th.r_M):
            band = np.array([r * (1.0 + 1e-13), r * (1.0 - 1e-13)])
            edges = (band.view(np.int64)[:, None] + np.arange(-8, 9)).view(np.float64)
            for R_mu in [r * (1.0 + d) for d in deltas] + edges.ravel().tolist():
                p = FluidParams(R, R_mu, eta)
                cont = classify_regime(p).continuum
                even_profile(p)
                assert _outcome(lambda: continue_curve(p, 5)) is (
                    cont is not ContinuumClass.UNIQUE_EVEN), (p, cont)
                assert _outcome(lambda: connected_profile(p)) is (
                    cont is ContinuumClass.CONNECTED_ENDPOINTS), (p, cont)
                assert _outcome(lambda: boundary_disconnected_profile(p)) is (
                    cont is ContinuumClass.DISCONNECTED_ENDPOINTS), (p, cont)
                if cont is ContinuumClass.UNIQUE_EVEN:
                    continue
                # connected endpoints repeat one end of the sextuplet three times
                connected = curve_endpoint_kind(p) == "connected-support"
                curve = continue_curve(p, 5)
                for z in (curve[0].zeta, curve[-1].zeta):
                    assert bool(z[0] == z[1] == z[2] or z[3] == z[4] == z[5]) is connected, (p, z)


# R_mu = r_m (1 + 9e-14), r_m (1 - 9e-14), r_minus (1 - 9e-14) and r_minus (1 - 5e-14)
@pytest.mark.parametrize("build, R_mu", [
    (connected_profile, 8.327001008230983), (connected_profile, 8.327001008229484),
    (even_profile, 8.416803803789826), (even_profile, 8.416803803790163)])
def test_dual_regime_states_beside_r_m_and_r_minus_build(build, R_mu):
    # each state's algebraic system is checked once, in the dual frame that
    # solves it; judged again in p after the dilation, these raised
    # "dual connected-profile residual" 1.2e-10 and "even case-4 system
    # residual" 1.4e-10 to 2.5e-10
    pp = build(FluidParams(8.497812409839359, R_mu, 0.2))
    assert steady_residual(pp) < 1e-9
    assert abs(pp.F.mass() - 1.0) < 1e-10 and abs(pp.G.mass() - 1.0) < 1e-10


def test_constructions_follow_the_callers_regime_at_the_r_m_band_edge():
    # just outside the r_m band the dual triple lies just inside the r_M band;
    # each construction must decide by p's own regime, not by the dual's
    p = FluidParams(1.0, 0.05798649200835198, 1.0)
    assert classify_regime(p).continuum is ContinuumClass.DISCONNECTED_ENDPOINTS
    boundary_disconnected_profile(p)
    assert curve_endpoint_kind(p) == "alpha-zero"
    assert len(continue_curve(p, 5)) == 5
    with pytest.raises(RegimeError):
        connected_profile(p)


def test_work_frame_is_p_for_split_G_and_the_dual_otherwise():
    for R_mu in (10.0, 40.0):
        p = FluidParams(1.0, R_mu, 1.0)
        work, lam = _work_frame(p, classify_regime(p))
        assert work is p and lam == 1.0
    for R_mu in (0.1, 0.03, 0.05798649200835198):
        p = FluidParams(1.0, R_mu, 1.0)
        assert _work_frame(p, classify_regime(p)) == dual_params(p)
    # eta^2 R_mu = R makes lam exactly 1.0 below r_minus: the frame, and with
    # it the labels, follow from ``work is p``, not from lam
    p = FluidParams(10.0, 2.0, math.sqrt(5.0))
    assert _work_frame(p, classify_regime(p)) == dual_params(p) and dual_params(p)[1] == 1.0
    assert {cp.profile.label for cp in continue_curve(p, 5)} == {"zeta-small", "even-case4"}


@pytest.mark.parametrize("p", [FluidParams(1.0, 0.1, 1.0), FluidParams(1.0, 0.03, 1.0),
                               FluidParams(4.0, 0.7, 1.0), FluidParams(4.0, 2.0, 1.0)],
                         ids=["case4-alpha-zero", "case4-connected", "R4-case4", "R4-alpha-zero"])
def test_dual_regime_states_are_the_dilation_of_the_dual_states(p):
    # below r_minus every state is built in the dual parameters and mapped back
    # by the dilation zeta -> lam * zeta alone, so it is lam times the state of
    # the dual triple, bitwise, on the whole curve and for the even state
    p1, lam = dual_params(p)
    assert classify_regime(p).even_case is EvenCase.CASE4
    curve, dual_curve = continue_curve(p, 41), continue_curve(p1, 41)
    for cp, cp1 in zip(curve, dual_curve):
        assert cp.zeta == tuple(lam * z for z in cp1.zeta)
    assert even_profile(p).zeta == tuple(lam * z for z in even_profile(p1).zeta)


def test_curve_recovers_from_one_newton_failure(monkeypatch):
    p = FluidParams(1.0, 10.0, 1.0)
    ref = continue_curve(p, 11)
    calls = []

    def flaky(*args):
        # the first solve, next to the even state, fails once; the continuation
        # then halves its step, solves the midpoint and clamps the step to the target
        calls.append(None)
        if len(calls) == 1:
            raise NumericsError("injected failure")
        return newton_solve(*args)

    monkeypatch.setattr(profiles, "newton_solve", flaky)
    curve = continue_curve(p, 11)
    assert len(calls) >= 6  # the failed solve and the midpoint on top of 4 interior solves
    assert [cp.ell for cp in curve] == pytest.approx([cp.ell for cp in ref], abs=1e-10)
    for cp, rp in zip(curve, ref):
        assert max_abs(np.subtract(cp.zeta, rp.zeta)) < 1e-10


def test_curve_stalls_when_newton_always_fails(monkeypatch):
    def broken(*args):
        raise NumericsError("injected failure")

    monkeypatch.setattr(profiles, "newton_solve", broken)
    with pytest.raises(ContinuationStallError, match="stalled near sigma"):
        continue_curve(FluidParams(1.0, 10.0, 1.0), 11)


def test_curve_reflection_symmetry_interior():
    p = FluidParams(1.0, 10.0, 1.0)
    curve = continue_curve(p, 21)
    cp = curve[5]
    target = tuple(-z for z in reversed(cp.zeta))
    # solve the system at the reflected parameter value and compare
    F, J = _R1_newton_funcs(p, target[2])
    guess = np.array([target[0], target[1], target[3], target[4], target[5]])
    x = _newton_five_unknowns(F, J, guess * (1 + 1e-6))
    assert np.max(np.abs(x - guess)) < 1e-9


def test_jacobian_determinant_formula_matches_numeric():
    p = FluidParams(1.0, 10.0, 1.0)
    a, b, g = _solve_even_case3(p)
    zeta = (-g, -b, -a, a, b, g)
    formula = curve_jacobian_det(p, zeta)
    assert formula > 0.0
    F, J = _R1_newton_funcs(p, -a)
    numeric = abs(np.linalg.det(J(np.array([-g, -b, a, b, g]))))
    assert formula == pytest.approx(numeric, rel=1e-10)


def test_curve_energy_closed_form_matches_m2():
    from muskat.functionals import evaluate
    p = FluidParams(1.0, 10.0, 1.0)
    curve = continue_curve(p, 11)
    energies = _closed_form_energies(p, np.array([cp.zeta for cp in curve]))
    for cp, closed in zip(curve, energies):
        rep = evaluate(cp.profile, p)
        assert closed == pytest.approx(rep.m2 / 2.0, abs=1e-9)


# ----------------------------------------------------------------------
# structural invariants
# ----------------------------------------------------------------------


def test_support_interval_contains_origin():
    # for R_mu > R the F-support is one interval containing 0, and dually
    for rmu in (10.0, 21.0):
        pp = connected_profile(FluidParams(1.0, rmu, 1.0)) if rmu >= TH1.r_M \
            else even_profile(FluidParams(1.0, rmu, 1.0))
        (l, r), = pp.support_F
        assert l < 0.0 < r
    for rmu in (0.01, 0.1):
        pp = even_profile(FluidParams(1.0, rmu, 1.0))
        (l, r), = pp.support_G
        assert l < 0.0 < r


def test_serialization_round_trip_fields():
    pp = connected_profile(FluidParams(1.0, 21.0, 1.0))
    d = profile_to_dict(pp)
    assert d["params"]["R_mu"] == 21.0
    assert len(d["F"]) == len(pp.F.pieces)
    assert d["support_G"] == [list(iv) for iv in pp.support_G]
    rows = sample_profile(pp, n=101)
    assert rows.shape == (101, 4)
    assert np.allclose(rows[:, 3], pp.params.eta**2 * rows[:, 1] + rows[:, 2])
