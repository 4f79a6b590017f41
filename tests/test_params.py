"""Parameter reduction, thresholds, regime classification, duality."""

import math

import numpy as np
import pytest

from muskat.params import (
    ContinuumClass,
    EvenCase,
    FluidParams,
    classify_regime,
    dual_params,
    threshold_residual_small,
    thresholds,
    xi2,
)


def test_water_under_rapeseed_oil_is_below_r_minus():
    # rho- = 1, rho+ = 0.92, mu+/mu- = 67.84, equal masses: the physically
    # relevant small-R_mu regime
    p = FluidParams(11.5, 11.5 / 67.84, 1.0)
    assert p.R_mu == pytest.approx(0.16951, rel=1e-4)
    assert p.R_mu < thresholds(p).r_minus


def test_fluid_params_validation():
    with pytest.raises(ValueError):
        FluidParams(R=-1.0, R_mu=1.0, eta=1.0)
    with pytest.raises(ValueError):
        FluidParams(R=1.0, R_mu=0.0, eta=1.0)
    # a bool is no number, though Python counts True as 1
    for bad in ({"R": True}, {"R_mu": True}, {"eta": True}, {"R": "1"}, {"eta": math.nan}):
        with pytest.raises(ValueError):
            FluidParams(**{"R": 1.0, "R_mu": 2.0, "eta": 1.0, **bad})
    # numpy scalars are numbers
    assert FluidParams(np.int64(1), np.float64(2.0), 1).theta == pytest.approx(0.5)
    p = FluidParams(1.0, 2.0, 1.0)
    assert p.theta == pytest.approx(0.5)


@pytest.mark.parametrize("bad, message", [
    ({"R": True}, "R must be a finite real, got True"),
    ({"R_mu": "1"}, "R_mu must be a finite real, got '1'"),
    ({"eta": math.inf}, "eta must be a finite real"),
    ({"R": 0.0}, "R must be positive, got 0.0"),
])
def test_fluid_params_validation_messages(bad, message):
    with pytest.raises(ValueError, match=message):
        FluidParams(**{"R": 1.0, "R_mu": 2.0, "eta": 1.0, **bad})


def test_thresholds_reference_point():
    th = thresholds(FluidParams(1.0, 1.0, 1.0))
    assert th.r_minus == 0.2
    assert th.r0 == 1.5
    assert th.r_plus == 5.0
    assert th.r_M == pytest.approx(12.258, abs=1e-3)
    assert th.r_m == pytest.approx(0.058, abs=1e-3)


def test_thresholds_memoised_per_R_eta(monkeypatch):
    from muskat import params
    calls = []
    brent = params.find_root_bracketed
    monkeypatch.setattr(params, "find_root_bracketed",
                        lambda *args: calls.append(args) or brent(*args))
    params._thresholds.cache_clear()
    th = thresholds(FluidParams(1.7, 3.0, 0.9))
    assert len(calls) == 2  # r_M and, through the dual, r_m
    # R_mu plays no part, and an int R or eta is the same key as its float
    assert thresholds(FluidParams(1.7, 40.0, 0.9)) is th
    assert thresholds(FluidParams(2, 1.0, 1)) is thresholds(FluidParams(2.0, 5.0, 1.0))
    assert len(calls) == 4


def test_threshold_defining_residuals():
    p = FluidParams(1.0, 1.0, 1.0)
    th = thresholds(p)
    assert abs(xi2(th.r_M - p.R, p.R, p.eta)) < 1e-10
    assert abs(threshold_residual_small(th.r_m, p.R, p.eta)) < 1e-10


def test_threshold_cross_checks_pass_on_a_wide_grid():
    # divided by the size of their equations' terms, the residuals stay far
    # below 1e-10 from R = 1e-3 to 1e3 and eta = 1e-2 to 1e4
    for R in np.logspace(-3.0, 3.0, 40):
        for eta in np.logspace(-2.0, 4.0, 60):
            th = thresholds(FluidParams(float(R), 1.0, float(eta)))
            assert th.r_m < th.r_minus < th.r0 < th.r_plus < th.r_M


@pytest.mark.parametrize("R, eta", [(1.0, 7e4), (1.0, 1e5), (1.0, 1e6), (1.0, 1e-5), (1.0, 1e-6),
                                    (0.001, 1e5), (1000.0, 1e5), (0.001, 1e-5), (1000.0, 1e-5)])
def test_thresholds_at_large_and_small_eta(R, eta):
    # xi2 rises from -2 at t = 1 with slope about eta^2 / 2, so r_M's bracket
    # starts at 1 + 1/eta^2 for eta above about 3.2e4; a small eta meets the
    # same bracket through r_m's dual eta
    th = thresholds(FluidParams(R, 1.0, eta))
    assert th.r_m < th.r_minus < th.r0 < th.r_plus < th.r_M
    assert abs(xi2(th.r_M - R, R, eta)) / (1.0 + eta**2) < 1e-10
    c = eta**2 * (1.0 + R) / R
    assert abs(threshold_residual_small(th.r_m, R, eta)) / (1.0 + c) < 1e-10


def test_thresholds_name_the_eta_limit():
    # past eta of about 9.4e7, 1 + 1/eta^2 rounds to 1
    with pytest.raises(RuntimeError, match="eta must stay below about 9.4e7"):
        thresholds(FluidParams(1.0, 1.0, 1e8))


@pytest.mark.parametrize("R, eta", [(1e-3, 1e6), (1e-3, 1e7), (1e-3, 3e7)])
def test_r_M_bracket_doubles_past_1e30(R, eta):
    # r_m's dual eta puts its xi2 root at or beyond 1e30: the right bracket end
    # doubles until xi2 turns positive, which it does before b overflows
    th = thresholds(FluidParams(R, 1.0, eta))
    assert th.r_m < th.r_minus < th.r0 < th.r_plus < th.r_M
    assert abs(xi2(th.r_M - R, R, eta)) / (1.0 + eta**2) < 1e-10
    c = eta**2 * (1.0 + R) / R
    assert abs(threshold_residual_small(th.r_m, R, eta)) / (1.0 + c) < 1e-10


@pytest.mark.parametrize("R, eta, pair", [(1e3, 1e7, "r0 = 1001.0, r_plus = 1001.0"),
                                          (1e3, 1e-7, "r_m = 1000.0, r_minus = 1000.0")])
def test_thresholds_that_round_together_are_named_once_bracketed(R, eta, pair):
    # both brackets are found, and the thresholds collapse onto R's float
    with pytest.raises(RuntimeError, match=f"not strictly ordered at R = 1000.0, eta = {eta!r}: "
                                           f"{pair}$"):
        thresholds(FluidParams(R, 1.0, eta))


def test_an_eta_that_rounds_r_m_bracket_to_1_is_named():
    # r_m's dual eta of 7.1e39 puts its left bracket end 1 + 1/eta^2 at 1
    with pytest.raises(RuntimeError, match="1 \\+ 1/eta\\^2 rounds to 1"):
        thresholds(FluidParams(1.0, 1.0, 1e-40))


@pytest.mark.parametrize("R", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("eta", [1e-9, 1e-40, 1e-100, 1e-200, 1e-300, 5e-324,
                                 1e8, 1e155, 1e200, 1e300])
def test_an_extreme_eta_builds_or_names_itself_and_its_limit(R, eta):
    # both brackets are tested before any closed form, which would overflow
    # (eta^2 beyond 1e308) or divide by zero (eta^2 rounding to 0)
    limit = ("below about 9.4e7" if eta > 1.0
             else f"above about {math.sqrt(R / (1.0 + R)) / 9.4e7:.2g}")
    try:
        th = thresholds(FluidParams(R, 1.0, eta))
    except RuntimeError as exc:
        assert f"at eta = {eta:.6g}: " in str(exc) and "1 + 1/eta^2 rounds to 1" in str(exc)
        assert str(exc).endswith(limit)
    else:
        assert th.r_m < th.r_minus < th.r0 < th.r_plus < th.r_M


@pytest.mark.parametrize("R, eta", [(1.0, 1.0), (0.001, 15.117750706156615), (1.0, 1000.0)])
@pytest.mark.parametrize("which", ["r_M", "r_m"])
def test_threshold_cross_check_rejects_a_perturbed_root(R, eta, which, monkeypatch):
    # _t_M gives r_M first and then, through the dual, r_m: a root of either
    # call moved by 1e-8 relative fails the scaled cross-check
    from muskat import params
    t_M, calls = params._t_M, []

    def perturbed(R_, eta_):
        calls.append(None)
        t = t_M(R_, eta_)
        return t * (1.0 + 1e-8) if len(calls) == ("r_M", "r_m").index(which) + 1 else t

    monkeypatch.setattr(params, "_t_M", perturbed)
    params._thresholds.cache_clear()
    with pytest.raises(RuntimeError, match="threshold residuals too large"):
        thresholds(FluidParams(R, 1.0, eta))
    assert len(calls) == 2


def test_threshold_ordering_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        R, eta = rng.uniform(0.1, 10.0, size=2)
        th = thresholds(FluidParams(R, 1.0, eta))
        assert th.r_m < th.r_minus < th.r0 < th.r_plus < th.r_M
        assert abs(xi2(th.r_M - R, R, eta)) < 1e-10
        assert abs(threshold_residual_small(th.r_m, R, eta)) < 1e-10


def test_classify_regime_examples():
    r = classify_regime(FluidParams(1.0, 1.0, 1.0))
    assert r.even_case is EvenCase.CASE5
    assert r.continuum is ContinuumClass.UNIQUE_EVEN

    r = classify_regime(FluidParams(1.0, 10.0, 1.0))
    assert r.even_case is EvenCase.CASE3
    assert r.continuum is ContinuumClass.DISCONNECTED_ENDPOINTS

    r = classify_regime(FluidParams(1.0, 21.0, 1.0))
    assert r.even_case is EvenCase.CASE3
    assert r.continuum is ContinuumClass.CONNECTED_ENDPOINTS


def test_classify_regime_boundaries_closed_side():
    # exactly on a threshold: classified to the closed-interval side
    assert classify_regime(FluidParams(1.0, 5.0, 1.0)).even_case is EvenCase.CASE3
    assert classify_regime(FluidParams(1.0, 0.2, 1.0)).even_case is EvenCase.CASE4
    assert classify_regime(FluidParams(1.0, 1.5, 1.0)).even_case is EvenCase.CASE1
    assert classify_regime(FluidParams(1.0, 5.0, 1.0)).continuum is ContinuumClass.UNIQUE_EVEN


def test_dual_params_hand_values():
    p1, lam = dual_params(FluidParams(1.0, 2.0, 1.0))
    assert p1.R == 1.0
    assert p1.R_mu == pytest.approx(1.0, rel=1e-15)
    assert p1.eta == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert lam == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)


def test_dual_params_involution():
    rng = np.random.default_rng(1)
    for _ in range(50):
        R, R_mu, eta = rng.uniform(0.2, 8.0, size=3)
        p = FluidParams(R, R_mu, eta)
        pd, lam = dual_params(p)
        pdd, lam2 = dual_params(pd)
        assert pdd.R == pytest.approx(p.R, rel=1e-14)
        assert pdd.R_mu == pytest.approx(p.R_mu, rel=1e-14)
        assert pdd.eta == pytest.approx(p.eta, rel=1e-14)
        assert lam * lam2 == pytest.approx(1.0, rel=1e-14)


def test_dual_maps_large_threshold_to_small():
    p = FluidParams(1.0, 1.0, 1.0)
    th = thresholds(p)
    p_at_M = FluidParams(1.0, th.r_M, 1.0)
    pd, _ = dual_params(p_at_M)
    # r_m is defined through the dual large threshold
    assert pd.R_mu == pytest.approx(p.R * (1 + p.R) / th.r_M, rel=1e-14)
    th_d = thresholds(FluidParams(1.0, 1.0, pd.eta))
    assert th.r_m == pytest.approx(p.R * (1 + p.R) / th_d.r_M, rel=1e-12)


def test_dual_of_connected_regime_is_connected():
    th = thresholds(FluidParams(1.0, 1.0, 1.0))
    p = FluidParams(1.0, 21.0, 1.0)
    assert classify_regime(p).continuum is ContinuumClass.CONNECTED_ENDPOINTS
    pd, _ = dual_params(p)
    assert classify_regime(pd).continuum is ContinuumClass.CONNECTED_ENDPOINTS
