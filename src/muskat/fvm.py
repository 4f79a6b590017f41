"""Explicit upwind finite-volume scheme for the rescaled two-layer system.

Both equations are advection laws with velocities built from the pressure
gradients; the fluxes take the donor cell according to the face velocity
sign, and the boundary fluxes vanish, so both discrete masses are conserved
by telescoping.  The time step is plain forward Euler with an optional CFL
and positivity guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .params import FluidParams
from .profiles import PiecewiseQuadratic, ProfilePair

__all__ = [
    "Grid",
    "SimState",
    "SimConfig",
    "TrajectoryReport",
    "CflViolationError",
    "NegativeCellError",
    "SupportOutsideDomainError",
    "NonpositiveTimeError",
    "init_state",
    "face_velocities",
    "step",
    "run",
    "support_components",
    "l2_distance",
    "cell_averages",
    "self_similar_solution",
    "to_self_similar",
    "from_self_similar",
]


class CflViolationError(Exception):
    pass


class NegativeCellError(Exception):
    pass


class SupportOutsideDomainError(Exception):
    pass


class NonpositiveTimeError(Exception):
    pass


@dataclass(frozen=True)
class Grid:
    """Uniform mesh of n_cells control volumes on [x_left, x_right]."""

    n_cells: int
    x_left: float = -5.0
    x_right: float = 5.0

    def __post_init__(self):
        if self.n_cells < 3:
            raise ValueError("need at least 3 cells")
        if not self.x_right > self.x_left:
            raise ValueError("empty domain")

    @property
    def h(self) -> float:
        return (self.x_right - self.x_left) / self.n_cells

    @cached_property
    def faces(self) -> np.ndarray:
        n = self.n_cells
        if self.x_left == -self.x_right:
            # symmetric construction keeps mirrored faces bitwise equal
            return self.h * (np.arange(n + 1) - n / 2.0)
        return self.x_left + self.h * np.arange(n + 1)

    @cached_property
    def centers(self) -> np.ndarray:
        f = self.faces
        return 0.5 * (f[:-1] + f[1:])


@dataclass
class SimState:
    f: np.ndarray
    g: np.ndarray
    t: float
    grid: Grid
    step_count: int = 0

    def copy(self) -> "SimState":
        return SimState(self.f.copy(), self.g.copy(), self.t, self.grid, self.step_count)


@dataclass
class SimConfig:
    grid: Grid
    params: FluidParams
    t_end: float
    dt: float = 1e-5
    cfl_check: bool = True
    record_every: int = 1000
    reference: ProfilePair | None = None

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")


@dataclass
class TrajectoryReport:
    times: np.ndarray
    data: dict[str, np.ndarray]
    states: list[SimState]
    final: SimState
    grid: Grid


# ----------------------------------------------------------------------
# initialization
# ----------------------------------------------------------------------


def cell_averages(q: PiecewiseQuadratic, grid: Grid) -> np.ndarray:
    """Exact cell averages of a piecewise quadratic whose support lies in the grid."""
    if q.pieces:
        lo, hi = q.pieces[0][0], q.pieces[-1][1]
        if lo < grid.x_left - 1e-12 or hi > grid.x_right + 1e-12:
            raise SupportOutsideDomainError(
                f"support [{lo:.4g}, {hi:.4g}] leaves the domain "
                f"[{grid.x_left}, {grid.x_right}]")
    faces = grid.faces
    out = np.zeros(grid.n_cells)
    for l, r, c0, c2 in q.pieces:
        lo = np.maximum(faces[:-1], l)
        hi = np.minimum(faces[1:], r)
        w = np.clip(hi - lo, 0.0, None)
        mask = w > 0.0
        out[mask] += (c0 * (hi[mask] - lo[mask])
                      + c2 * (hi[mask] ** 3 - lo[mask] ** 3) / 3.0)
    return out / grid.h


def _gauss_cell_averages(func: Callable, grid: Grid, order: int = 5) -> np.ndarray:
    gx, gw = np.polynomial.legendre.leggauss(order)
    faces = grid.faces
    mid = 0.5 * (faces[:-1] + faces[1:])
    half = 0.5 * grid.h
    x = mid[:, None] + half * gx[None, :]
    vals = np.asarray(func(x.ravel()), dtype=float).reshape(x.shape)
    return 0.5 * vals @ gw


def init_state(source, grid: Grid, renormalize: bool = False) -> SimState:
    """Discretize initial data to cell averages.

    ``source`` is a ProfilePair, a pair of PiecewiseQuadratic, or a pair of
    callables; profile/piecewise sources integrate exactly, callables use
    5-point Gauss quadrature per cell.  Raises when the support leaves the
    domain or a component has no mass.
    """
    if isinstance(source, ProfilePair):
        comps = (source.F, source.G)
    elif isinstance(source, (tuple, list)) and len(source) == 2:
        comps = tuple(source)
    else:
        raise TypeError("source must be a ProfilePair or a pair of components")

    fields = []
    for comp in comps:
        if isinstance(comp, PiecewiseQuadratic):
            fields.append(cell_averages(comp, grid))
        else:
            fields.append(_gauss_cell_averages(comp, grid))
    f, g = fields
    for name, u in (("f", f), ("g", g)):
        if float(np.sum(u)) * grid.h <= 0.0:
            raise ValueError(f"initial {name} has no mass")
        if np.min(u) < -1e-12:
            raise ValueError(f"initial {name} is negative somewhere")
    if renormalize:
        f = f / (grid.h * float(np.sum(f)))
        g = g / (grid.h * float(np.sum(g)))
    return SimState(f=f, g=g, t=0.0, grid=grid)


# ----------------------------------------------------------------------
# scheme
# ----------------------------------------------------------------------


def face_velocities(state: SimState, p: FluidParams) -> tuple[np.ndarray, np.ndarray]:
    """Velocities at the interior faces (length n_cells - 1)."""
    f, g = state.f, state.g
    x = state.grid.centers
    h = state.grid.h
    e2 = p.eta**2
    drift = -(x[1:] + x[:-1]) / 6.0
    df = (f[1:] - f[:-1]) / h
    dg = (g[1:] - g[:-1]) / h
    A = drift - (1.0 + p.R) * e2 * df - p.R * dg
    B = drift - e2 * p.R_mu * df - p.R_mu * dg
    return A, B


def _upwind_flux(vel: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Interior-face donor-cell fluxes, zero-padded at the boundary."""
    flux = np.zeros(u.size + 1)
    flux[1:-1] = np.maximum(vel, 0.0) * u[:-1] - np.maximum(-vel, 0.0) * u[1:]
    return flux


def step(state: SimState, cfg: SimConfig) -> SimState:
    """One explicit Euler step of the upwind scheme with no-flux boundaries."""
    p = cfg.params
    h = state.grid.h
    dt = cfg.dt
    A, B = face_velocities(state, p)
    if cfg.cfl_check:
        vmax = max(float(np.max(np.abs(A))), float(np.max(np.abs(B))), 0.0)
        if dt * vmax / h > 1.0:
            raise CflViolationError(
                f"dt * max|velocity| / h = {dt * vmax / h:.3g} > 1; reduce dt")
    Ff = _upwind_flux(A, state.f)
    Fg = _upwind_flux(B, state.g)
    f_new = state.f - (dt / h) * (Ff[1:] - Ff[:-1])
    g_new = state.g - (dt / h) * (Fg[1:] - Fg[:-1])
    if cfg.cfl_check and (np.min(f_new) < 0.0 or np.min(g_new) < 0.0):
        raise NegativeCellError(
            f"negative cell after step at t = {state.t:.6g}; reduce dt")
    return SimState(f=f_new, g=g_new, t=state.t + dt, grid=state.grid,
                    step_count=state.step_count + 1)


def support_components(u: np.ndarray, rel_threshold: float = 1e-9) -> int:
    """Number of contiguous runs of cells above rel_threshold * max."""
    peak = float(np.max(u)) if u.size else 0.0
    if peak <= 0.0:
        return 0
    mask = u > rel_threshold * peak
    return int(np.sum(mask[1:] & ~mask[:-1]) + (1 if mask[0] else 0))


def l2_distance(state: SimState, reference: ProfilePair) -> float:
    """L2 distance of cell averages to the exact averages of a profile."""
    h = state.grid.h
    fr = cell_averages(reference.F, state.grid)
    gr = cell_averages(reference.G, state.grid)
    return math.sqrt(h * float(np.sum((state.f - fr) ** 2 + (state.g - gr) ** 2)))


def run(cfg: SimConfig, initial: SimState) -> TrajectoryReport:
    """March to t_end, recording diagnostics every cfg.record_every steps."""
    from .functionals import evaluate  # deferred: functionals imports profiles

    p = cfg.params
    state = initial.copy()
    n_steps = int(round(cfg.t_end / cfg.dt))
    h = state.grid.h

    fr = gr = None
    if cfg.reference is not None:
        fr = cell_averages(cfg.reference.F, state.grid)
        gr = cell_averages(cfg.reference.G, state.grid)

    cols = ("mass_f", "mass_g", "M1", "M2", "E", "E_star", "H", "I",
            "n_components_f", "n_components_g", "l2_dist")
    records: dict[str, list[float]] = {c: [] for c in cols}
    times: list[float] = []
    states: list[SimState] = []

    def record(s: SimState):
        rep = evaluate(s, p)
        times.append(s.t)
        records["mass_f"].append(h * float(np.sum(s.f)))
        records["mass_g"].append(h * float(np.sum(s.g)))
        records["M1"].append(rep.m1)
        records["M2"].append(rep.m2)
        records["E"].append(rep.energy)
        records["E_star"].append(rep.rescaled_energy)
        records["H"].append(rep.entropy)
        records["I"].append(rep.dissipation)
        records["n_components_f"].append(support_components(s.f))
        records["n_components_g"].append(support_components(s.g))
        if fr is not None:
            d = math.sqrt(h * float(np.sum((s.f - fr) ** 2 + (s.g - gr) ** 2)))
        else:
            d = math.nan
        records["l2_dist"].append(d)
        states.append(s.copy())

    record(state)
    for k in range(n_steps):
        state = step(state, cfg)
        if (k + 1) % cfg.record_every == 0 or k == n_steps - 1:
            record(state)

    return TrajectoryReport(
        times=np.asarray(times),
        data={c: np.asarray(v) for c, v in records.items()},
        states=states, final=state, grid=state.grid)


# ----------------------------------------------------------------------
# change of variables between the normalized and rescaled systems
# ----------------------------------------------------------------------


def self_similar_solution(pp: ProfilePair, t: float, x) -> tuple[np.ndarray, np.ndarray]:
    """Spreading solution t^(-1/3) (F, G)(x t^(-1/3)) of the normalized system."""
    if t <= 0.0:
        raise NonpositiveTimeError("self-similar evaluation needs t > 0")
    s = t ** (-1.0 / 3.0)
    x = np.asarray(x, dtype=float)
    return s * pp.F(s * x), s * pp.G(s * x)


def to_self_similar(times: Sequence[float], states: Sequence) -> list:
    """Map normalized-system states (s, y-grid, f, g) to rescaled variables.

    Each state at normalized time s >= 0 lands at rescaled time
    t = log(1 + s) on the compressed grid x = y exp(-t/3), with fields
    multiplied by exp(t/3); masses are unchanged.
    """
    out = []
    for s, (y, fv, gv) in zip(times, states):
        if s < 0.0:
            raise NonpositiveTimeError("normalized time must be >= 0")
        t = math.log1p(s)
        scale = math.exp(t / 3.0)
        out.append((t, np.asarray(y) / scale, scale * np.asarray(fv),
                    scale * np.asarray(gv)))
    return out


def from_self_similar(times: Sequence[float], states: Sequence) -> list:
    """Inverse of to_self_similar: rescaled states back to normalized ones."""
    out = []
    for t, (x, fv, gv) in zip(times, states):
        if t < 0.0:
            raise NonpositiveTimeError("rescaled time must be >= 0")
        s = math.expm1(t)
        scale = math.exp(t / 3.0)
        out.append((s, np.asarray(x) * scale, np.asarray(fv) / scale,
                    np.asarray(gv) / scale))
    return out
