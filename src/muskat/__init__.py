"""Self-similar profiles and simulation of the gravity-driven thin-film
two-fluid system.

Submodules:

* ``params``      -- parameter triple, regime thresholds, classification, duality
* ``numerics``    -- bracketed scalar roots and damped Newton
* ``checks``      -- the checks of a batch of piecewise-quadratic states
* ``profiles``    -- exact piecewise-quadratic steady states and the
                     continuation curve
* ``functionals`` -- energy / moment / entropy machinery
* ``fvm``         -- explicit upwind finite-volume scheme
* ``cli``         -- command-line front end
"""

from . import functionals, fvm, numerics, params, profiles
from .params import (
    ContinuumClass,
    EvenCase,
    FluidParams,
    Regime,
    RegimeThresholds,
    classify_regime,
    dual_params,
    thresholds,
)
from .profiles import (
    CurvePoint,
    PiecewiseQuadratic,
    ProfilePair,
    RegimeError,
    boundary_disconnected_profile,
    connected_profile,
    continue_curve,
    dual_transform,
    even_profile,
    profile_from_zeta,
    reflect,
    steady_residual,
)

__version__ = "0.1.0"
