"""Root finder and damped Newton."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from muskat import numerics, profiles
from muskat.numerics import (
    MaxIterExceededError,
    NoBracketError,
    SingularJacobianError,
    find_root_bracketed,
    newton_solve,
)
from muskat.params import ContinuumClass, FluidParams, classify_regime, thresholds, xi2
from muskat.profiles import _solve_even_case3, continue_curve
from oracles import newton_solve_by_lists, solve_step_by_elimination


def test_sqrt2():
    x = find_root_bracketed(lambda t: t * t - 2.0, 1.0, 2.0)
    assert abs(x - math.sqrt(2.0)) < 1e-13


def test_threshold_function_root():
    # the auxiliary function behind the large threshold at R = eta = 1
    t = find_root_bracketed(lambda s: xi2(s, 1.0, 1.0), 1.0 + 1e-9, 40.0)
    assert 1.0 + t == pytest.approx(12.258, abs=1e-3)
    assert 1.0 + t == pytest.approx(thresholds(FluidParams(1.0, 1.0, 1.0)).r_M, rel=1e-12)


def test_odd_multiplicity_root():
    x = find_root_bracketed(lambda t: t**3, -1.0, 2.0)
    assert abs(x) < 1e-4  # cube flattens; bracket width controls x directly


def test_root_stays_in_bracket():
    x = find_root_bracketed(lambda t: math.cos(t), 0.0, 3.0)
    assert 0.0 <= x <= 3.0
    assert abs(x - math.pi / 2.0) < 1e-12


def test_no_bracket_raises():
    with pytest.raises(NoBracketError):
        find_root_bracketed(lambda t: t * t + 1.0, -1.0, 1.0)


def test_endpoint_root_returned():
    assert find_root_bracketed(lambda t: t, 0.0, 1.0) == 0.0


def test_brent_bisects_where_an_extrapolation_divides_by_zero():
    # scipy's C brentq gets +-inf or NaN there, which fails its short-step
    # test, and bisects: it converges in 11 iterations to these bits
    x = find_root_bracketed(lambda s: xi2(s, 1.0, 1e-40), 1.000000001, 7.968656700005689e+160)
    assert x.hex() == "0x1.09527e2b59410p+534"


def test_brent_bitwise_equals_scipy_brentq(monkeypatch):
    optimize = pytest.importorskip("scipy.optimize")
    solves = []  # arguments and result of every Brent solve
    brent = numerics._brent

    def record(f, a, fa, b, fb, xtol, rtol, max_iter):
        out = brent(f, a, fa, b, fb, xtol, rtol, max_iter)
        solves.append(((f, a, b, xtol, rtol, max_iter), out))
        return out

    monkeypatch.setattr(numerics, "_brent", record)
    find_root_bracketed(lambda t: t * t - 2.0, 1.0, 2.0)
    find_root_bracketed(lambda s: xi2(s, 1.0, 1.0), 1.0 + 1e-9, 40.0)
    find_root_bracketed(math.cos, 0.0, 3.0)
    # looser tolerances and iteration caps than find_root_bracketed's own,
    # through the port directly; unconverged iterates agree too
    numerics._brent(lambda t: t**3, -1.0, -1.0, 2.0, 8.0, 1e-14, 1e-13, 200)
    # r_M's bracket at (R, eta) = (1, 1e-40): an extrapolation divides by
    # zero, where brentq gets +-inf or NaN and bisects
    find_root_bracketed(lambda s: xi2(s, 1.0, 1e-40), 1.000000001, 7.968656700005689e+160)
    for k in (1, 2, 3):
        assert not numerics._brent(math.cos, 0.0, 1.0, 3.0, math.cos(3.0), 1e-14, 1e-13, k)[1]
    # xi2 brackets of the large threshold, _xi_even brackets of the split-G profile
    for R, eta, over in ((1.0, 1.0, 1.5), (2.5, 0.8, 1.1), (0.6, 1.3, 3.0)):
        r_plus = thresholds(FluidParams(R, 1.0, eta)).r_plus
        _solve_even_case3(FluidParams(R, over * r_plus, eta))

    sites = [f.__qualname__.split(".")[0] for (f, *_), _ in solves]
    assert sites.count("_split_G_radii") == 3 and sites.count("_t_M") >= 3
    for (f, a, b, xtol, rtol, max_iter), (x, converged) in solves:
        y, res = optimize.brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=max_iter,
                                 full_output=True, disp=False)
        assert x.hex() == float(y).hex()
        assert converged == res.converged


def test_brent_roots_are_python_floats():
    # a root whose last Brent step is a tolerance step is a Python float too
    assert type(find_root_bracketed(lambda t: t**3, -1.0, 2.0)) is float
    th = thresholds(FluidParams(1.0, 1.0, 1.0))
    assert [type(v) for v in vars(th).values()] == [float] * len(vars(th))
    for p, solve in ((FluidParams(1.0, 21.0, 1.0), _solve_even_case3),
                     (FluidParams(1.0, 0.05, 1.0), lambda p: profiles.even_profile(p).zeta[3:])):
        assert [type(v) for v in solve(p)] == [float] * 3
        pp = profiles.even_profile(p)
        assert {type(v) for q in (pp.F, pp.G) for piece in q.pieces for v in piece} == {float}


def test_nan_raises_value_error():
    with pytest.raises(ValueError, match="x=0.0"):
        find_root_bracketed(lambda t: math.nan if t == 0.0 else t, 0.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        find_root_bracketed(lambda t: math.nan if 0.0 < t < 3.0 else t - 1.0, 0.0, 3.0)


def test_max_iter_exceeded(monkeypatch):
    monkeypatch.setattr(numerics, "_BRENT_MAX_ITER", 1)
    with pytest.raises(MaxIterExceededError, match="in 1 iterations"):
        find_root_bracketed(math.cos, 0.0, 3.0)


def test_endpoints_evaluated_once():
    xs = []

    def f(t):
        xs.append(t)
        return math.cos(t)

    find_root_bracketed(f, 0.0, 3.0)
    assert xs[:2] == [0.0, 3.0]
    assert xs.count(0.0) == 1 and xs.count(3.0) == 1


def test_cli_import_leaves_scipy_out():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, muskat.cli; assert 'scipy' not in sys.modules, 'scipy loaded'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_newton_affine_one_step():
    F = lambda x: np.array([x[0] - 1.0, x[1] + 2.0])
    J = lambda x: np.eye(2)
    x = newton_solve(F, J, [0.0, 0.0], 1e-12)
    assert np.allclose(x, [1.0, -2.0], atol=1e-14)


def test_newton_quadratic_convergence():
    # every full step is accepted, and each residual is within a constant
    # times the square of the one before
    norms = []

    def F(x):
        r = (x[0] ** 2 - 4.0, x[1] ** 2 - 9.0)
        norms.append(max(map(abs, r)))
        return r

    J = lambda x: ((2.0 * x[0], 0.0), (0.0, 2.0 * x[1]))
    x = newton_solve(F, J, [3.0, 4.0], 1e-12)
    assert abs(x[0] - 2.0) < 1e-12 and abs(x[1] - 3.0) < 1e-12
    assert len(norms) <= 7
    assert all(n1 <= 0.1 * n0**2 for n0, n1 in zip(norms[:-1], norms[1:]) if n0 > 1e-8)


def test_newton_residual_bound():
    F = lambda x: np.array([math.sin(x[0]) - 0.5, x[1] ** 3 - 8.0])
    J = lambda x: np.array([[math.cos(x[0]), 0.0], [0.0, 3.0 * x[1] ** 2]])
    x = newton_solve(F, J, [0.4, 1.5], 1e-12)
    assert np.max(np.abs(F(x))) <= 1e-12


def test_newton_accepts_tuples():
    # F and J may return plain tuples; the root comes back as a list of floats
    F = lambda x: (x[0] ** 2 - 4.0, x[0] * x[1] - 6.0)
    J = lambda x: ((2.0 * x[0], 0.0), (x[1], x[0]))
    x = newton_solve(F, J, (3.0, 1.0), 1e-12)
    assert type(x) is list and [type(v) for v in x] == [float, float]
    assert np.allclose(x, [2.0, 3.0], rtol=1e-13)


def test_newton_pivots_on_zero_diagonal():
    F = lambda x: (x[1] - 2.0, x[0] - 3.0)
    J = lambda x: ((0.0, 1.0), (1.0, 0.0))
    assert newton_solve(F, J, [0.0, 0.0], 1e-12) == [3.0, 2.0]


def test_newton_nan_residual_halves_the_step():
    # the full first step leaves the domain of log; a NaN in any entry of
    # the residual makes the line search halve it
    F = lambda x: (x[1] - 5.0, math.log(x[0]) if x[0] > 0.0 else math.nan)
    J = lambda x: ((0.0, 1.0), (1.0 / x[0], 0.0))
    x = newton_solve(F, J, [3.0, 5.0], 1e-12)
    assert abs(x[0] - 1.0) < 1e-12 and x[1] == 5.0


def test_newton_singular_jacobian():
    F = lambda x: np.array([x[0] + x[1], x[0] + x[1]])
    J = lambda x: np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularJacobianError):
        newton_solve(F, J, [1.0, 1.0], 1e-12)


def test_newton_nearly_singular_jacobian():
    # |det J| = 1e-15 sits below 1e-14 times the product of the row norms
    F = lambda x: (x[0] + x[1] - 1.0, x[0] + x[1] - 1.0)
    J = lambda x: ((1.0, 1.0), (1.0, 1.0 + 1e-15))
    with pytest.raises(SingularJacobianError):
        newton_solve(F, J, [0.0, 0.0], 1e-12)


def test_newton_max_iter():
    # gradient never points at the root strongly enough within 2 iterations
    F = lambda x: np.array([math.atan(x[0]), x[1] - 1.0])
    J = lambda x: np.array([[1.0 / (1.0 + x[0] ** 2), 0.0], [0.0, 1.0]])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "_NEWTON_MAX_ITER", 2)
        with pytest.raises(MaxIterExceededError, match="after 2 iterations"):
            newton_solve(F, J, [50.0, 0.0], 1e-14)


NEWTON_TESTS = (test_newton_affine_one_step, test_newton_quadratic_convergence,
                test_newton_residual_bound, test_newton_accepts_tuples,
                test_newton_pivots_on_zero_diagonal, test_newton_nan_residual_halves_the_step,
                test_newton_singular_jacobian, test_newton_nearly_singular_jacobian,
                test_newton_max_iter)


def _solved(solve, F, J, x0, tol, max_iter, monkeypatch):
    """solve's root as bytes under the iteration cap ``max_iter``, or the
    type and message of what it raised."""
    monkeypatch.setattr(numerics, "_NEWTON_MAX_ITER", max_iter)
    try:
        return np.array(solve(F, J, x0, tol)).tobytes()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def test_newton_bitwise_equals_list_oracle(monkeypatch):
    # every system of the Newton tests above, recorded as they run: the
    # shipped loop on the returned floats gives the root bits of the loop
    # that rebuilds float lists, or raises its exception type and message
    systems = []

    def record(F, J, x0, tol):
        systems.append((F, J, x0, tol, numerics._NEWTON_MAX_ITER))
        return numerics.newton_solve(F, J, x0, tol)

    monkeypatch.setattr(sys.modules[__name__], "newton_solve", record)
    for test in NEWTON_TESTS:
        test()
    assert len(systems) == len(NEWTON_TESTS)
    outcomes = [_solved(numerics.newton_solve, *system, monkeypatch) for system in systems]
    assert outcomes == [_solved(newton_solve_by_lists, *system, monkeypatch)
                        for system in systems]
    assert sum(isinstance(out, tuple) for out in outcomes) == 3


def _step(solve, A, Fx):
    """solve's dx as bytes, or the type and message of what it raised."""
    try:
        return np.array(solve([list(row) for row in A], list(Fx))).tobytes()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


_rng = np.random.default_rng(7)
STEP_CASES = (
    [(A.tolist(), F.tolist()) for A, F in zip(_rng.normal(size=(40, 2, 2)),
                                              _rng.normal(size=(40, 2)))]
    + [([[0.0, 1.0], [1.0, 0.0]], [-2.0, -3.0]),  # zero diagonal pivot
       ([[0.0, 1.0], [0.0, 2.0]], [1.0, 1.0]),  # zero first column: no pivot
       ([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]),  # exactly singular
       ([[1.0, 1.0], [1.0, 1.0 + 1e-14]], [1.0, 0.0]),  # |det| below 1e-14 * scale
       ([[1.0, 1.0], [1.0, 1.0 + 4e-14]], [1.0, 0.0]),  # |det| above it
       ([[2.0, 0.0], [0.0, 3.0]], [0.0, 1.0]),  # -0.0 - 0.0 in the back substitution
       ([[2.0, -0.0], [0.0, 3.0]], [0.0, -1.0]),
       ([[math.nan, 1.0], [1.0, 1.0]], [1.0, 1.0]),
       ([[0.0, math.nan], [0.0, 1.0]], [1.0, 1.0]),
       ([[1e200, 1e200], [1e200, -1e200]], [1.0, 1.0]),
       ([[1e-200, 0.0], [0.0, 1e-200]], [1.0, 1.0]),
       ([[1.0, 0.0], [0.0, 1e-15]], [1.0, 1.0])]  # regular: the row norms scale the test
    # |first column| tied: the first row stays the pivot row
    + [([[x, y], [-x, z]], [u, v]) for x, y, z, u, v in _rng.normal(size=(20, 5))])


def test_written_out_step_bitwise_equals_general_elimination():
    for A, Fx in STEP_CASES:
        assert _step(numerics._solve_step, A, Fx) == _step(solve_step_by_elimination, A, Fx), A
    raised = [_step(numerics._solve_step, A, Fx) for A, Fx in STEP_CASES]
    assert sum(isinstance(r, tuple) and r[0] is SingularJacobianError for r in raised) >= 5
    eye3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(ValueError):
        numerics._solve_step(eye3, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):  # newton_solve, too, solves two unknowns only
        newton_solve(lambda x: (1.0, 1.0, 1.0), lambda x: eye3, [0.0, 0.0, 0.0], 1e-12)
    with pytest.raises(ValueError):
        newton_solve(lambda x: (x[0] - 1.0,), lambda x: ((1.0,),), [0.0], 1e-12)


@pytest.mark.parametrize("R_mu, cls", [
    (10.0, ContinuumClass.DISCONNECTED_ENDPOINTS), (40.0, ContinuumClass.CONNECTED_ENDPOINTS),
    (0.1, ContinuumClass.DISCONNECTED_ENDPOINTS), (0.03, ContinuumClass.CONNECTED_ENDPOINTS),
], ids=["disconnected-large", "connected-large", "disconnected-small", "connected-small"])
def test_curve_zetas_bitwise_with_general_elimination(R_mu, cls, monkeypatch):
    p = FluidParams(1.0, R_mu, 1.0)
    assert classify_regime(p).continuum is cls
    curve = continue_curve(p, 21)
    monkeypatch.setattr(numerics, "_solve_step", solve_step_by_elimination)
    oracle = continue_curve(p, 21)
    assert ([np.array([cp.ell, *cp.zeta]).tobytes() for cp in curve]
            == [np.array([cp.ell, *cp.zeta]).tobytes() for cp in oracle])


@pytest.mark.parametrize("p", [
    FluidParams(1.0, 10.0, 1.0), FluidParams(1.0, 40.0, 1.0), FluidParams(1.0, 0.1, 1.0),
    FluidParams(1.0, 0.03, 1.0), FluidParams(1.0, 21.0, 1.0), FluidParams(4.0, 0.7, 1.0),
], ids=lambda p: f"{p.R:g}-{p.R_mu:g}-{p.eta:g}")
def test_curve_bitwise_with_list_oracle_newton(p, monkeypatch):
    # the continuation on Python floats gives the curve of the list loop,
    # with one newton_solve call per corrector solve in both: at least one
    # for each of the 9 interior states of the traced half
    def counted(solve, calls):
        def run(*args):
            calls.append(None)
            return solve(*args)
        return run

    shipped, listed = [], []
    monkeypatch.setattr(profiles, "newton_solve", counted(newton_solve, shipped))
    curve = continue_curve(p, 21)
    monkeypatch.setattr(profiles, "newton_solve", counted(newton_solve_by_lists, listed))
    oracle = continue_curve(p, 21)
    assert ([np.array([cp.ell, *cp.zeta]).tobytes() for cp in curve]
            == [np.array([cp.ell, *cp.zeta]).tobytes() for cp in oracle])
    assert len(shipped) == len(listed) >= 9
