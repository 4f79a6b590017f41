"""The package's two solvers: bracketed scalar roots and a two-unknown damped Newton.

Every profile construction in this package reduces to either a single
monotone (or unimodal) scalar equation, solved here by Brent's method on a
sign-change bracket at one fixed tolerance, or to the curve system reduced
to two equations in (alpha, beta), solved by Newton iterations in Python
floats with an analytic Jacobian and a backtracking line search.

The Brent solver is a line-by-line port of scipy's ``brentq``
(``Zeros/brentq.c``): the same IEEE operations in the same order, so every
root is bitwise the one ``brentq`` returns, without importing scipy.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

__all__ = [
    "NumericsError",
    "NoBracketError",
    "MaxIterExceededError",
    "SingularJacobianError",
    "StepTooSmallError",
    "find_root_bracketed",
    "newton_solve",
    "max_abs",
]


class NumericsError(Exception):
    """Base class for solver failures."""


class NoBracketError(NumericsError):
    pass


class MaxIterExceededError(NumericsError):
    pass


class SingularJacobianError(NumericsError):
    pass


class StepTooSmallError(NumericsError):
    pass


# the tolerances of every threshold and profile root in this package: the
# relative one is 4*eps, the least that scipy's brentq accepts, and the last
# bits of every root depend on them
_RTOL = 4.0 * 2.0**-52
_XTOL = 1e-15
_BRENT_MAX_ITER = 200

# Newton's line search scales the step by _DAMPING until the residual
# decreases, and gives up below _MIN_STEP
_DAMPING = 0.5
_MIN_STEP = 1e-12
_NEWTON_MAX_ITER = 60


def find_root_bracketed(f: Callable[[float], float], a: float, b: float) -> float:
    """Root of ``f`` inside the sign-change bracket [a, b] (Brent's method).

    Raises NoBracketError when f(a) and f(b) have the same strict sign,
    ValueError when f returns NaN, and MaxIterExceededError when Brent fails
    to converge within _BRENT_MAX_ITER iterations.  The result never leaves
    [a, b].
    """
    a, b = float(a), float(b)
    fa, fb = _value(f, a), _value(f, b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise NoBracketError(f"f({a}) = {fa:.6g} and f({b}) = {fb:.6g} have the same sign")
    x, converged = _brent(f, a, fa, b, fb, _XTOL, _RTOL, _BRENT_MAX_ITER)
    if not converged:
        raise MaxIterExceededError(f"no convergence in {_BRENT_MAX_ITER} iterations")
    return x


def _value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
    return fx


def _brent(f, xpre: float, fpre: float, xcur: float, fcur: float,
           xtol: float, rtol: float, max_iter: int) -> tuple[float, bool]:
    """Brent's method from a bracket whose end values are nonzero, of opposite sign.

    Port of scipy's ``brentq.c`` loop; returns the last iterate and whether
    it converged.  ``xblk`` is the far end of the current bracket, ``spre``
    and ``scur`` the previous two steps.
    """
    xblk = fblk = spre = scur = 0.0
    for _ in range(max_iter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, True

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's step is then +-inf or NaN, which bisects
                stry = math.nan
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    return xcur, False


def newton_solve(F: Callable[[list[float]], Sequence[float]],
                 J: Callable[[list[float]], Sequence[Sequence[float]]],
                 x0: Sequence[float], tol: float) -> list[float]:
    """Damped Newton iteration for F(x) = 0 in two unknowns, with analytic
    Jacobian J, to a max-norm residual of at most ``tol``.

    F and J receive the iterate as a list of floats.  F returns a sequence
    of the residual's entries and J a sequence of the Jacobian's rows
    (tuples, lists or arrays); the entries are used as returned, so they
    must be floats: Python floats, or numpy float64 scalars, which are
    floats too and give the same results.  The loop runs in those floats:
    the step comes from Gaussian elimination with partial pivoting, and J
    counts as singular when the product of the pivots is below 1e-14 times
    the product of the row norms (the Hadamard bound).  The step is halved
    until the max-norm residual decreases; a residual that is NaN or
    infinite counts as no decrease.  Returns the root as a list of two
    floats.  Raises SingularJacobianError / StepTooSmallError /
    MaxIterExceededError (after _NEWTON_MAX_ITER iterations) on the
    corresponding failures, and ValueError for other than two unknowns.
    """
    x = [float(v) for v in x0]
    if len(x) != 2:
        raise ValueError(f"newton_solve solves two unknowns, not {len(x)}")
    Fx = F(x)
    norm = max_abs(Fx)
    for _ in range(_NEWTON_MAX_ITER):
        if norm <= tol:
            return x
        dx = _solve_step(J(x), Fx)
        t = 1.0
        while True:
            x_new = [x[0] + t * dx[0], x[1] + t * dx[1]]
            F_new = F(x_new)
            norm_new = max_abs(F_new)
            if math.isfinite(norm_new) and norm_new < norm:
                break
            t *= _DAMPING
            if t < _MIN_STEP:
                raise StepTooSmallError(
                    f"line search stalled at step {t:.3e} with residual {norm:.3e}")
        x, Fx, norm = x_new, F_new, norm_new
    if norm <= tol:
        return x
    raise MaxIterExceededError(f"residual {norm:.3e} after {_NEWTON_MAX_ITER} iterations")


def max_abs(v: Sequence[float]) -> float:
    """Max-norm that is NaN when any entry is (Python's max would skip it),
    in one pass; like max(), the first of equal largest entries."""
    best = None
    for e in v:
        a = abs(e)
        if a != a:
            return math.nan
        if best is None or a > best:
            best = a
    if best is None:
        raise ValueError("max() arg is an empty sequence")
    return best


def _solve_step(A: Sequence[Sequence[float]], Fx: Sequence[float]) -> list[float]:
    """Solve A dx = -Fx for two unknowns: Gaussian elimination with partial
    pivoting, written out.  The determinant is the signed product of the
    pivots; an elimination that meets a zero pivot stops there."""
    if len(Fx) != 2:
        raise ValueError(f"_solve_step solves two unknowns, not {len(Fx)}")
    ((a, b), (c, d)), b0, b1 = A, -Fx[0], -Fx[1]
    scale = math.hypot(a, b) * math.hypot(c, d)
    det = 1.0
    if abs(c) > abs(a):
        a, b, c, d, b0, b1, det = c, d, a, b, b1, b0, -1.0
    det *= a
    if a != 0.0:
        m = c / a
        d -= m * b
        b1 -= m * b0
        det *= d
    if not math.isfinite(det) or abs(det) < 1e-14 * max(scale, 1e-300):
        raise SingularJacobianError(f"|det J| = {abs(det):.3e} below 1e-14 * scale")
    dx1 = b1 / d
    return [(b0 - (0.0 + b * dx1)) / a, dx1]  # 0.0 + as sum() adds a term to 0
