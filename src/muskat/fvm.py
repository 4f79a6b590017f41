"""Explicit upwind finite-volume scheme for the rescaled two-layer system.

Both equations are advection laws with velocities built from the pressure
gradients; the fluxes take the donor cell according to the face velocity
sign, and the boundary fluxes vanish, so both discrete masses are conserved
by telescoping.  The time step is forward Euler, and it raises if
dt·max|velocity|/h exceeds 1 or a cell turns negative.  Both fields live in
one (2, n) array, so every array operation of a step runs once for the pair.

A step reads that array as one flat lane of 2n cells, f then g, with flat
face k between flat cells k and k + 1.  The seam face between the last f
cell and the first g cell has zero drift and zero velocity coefficients, so
its velocity and flux are exactly zero, as at the two boundary faces.  The
coefficients, the drift and every scratch array are built once per (grid,
params, dt) and thread and kept on the SimConfig, so a step makes fourteen
numpy calls and allocates only its result and the donor-cell values.  The
states, the errors and the step that raises them are bitwise those of a
per-field two-array step on finite data: a zero flux may carry the other
sign of zero, which changes no cell unless that cell holds -0.0.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .functionals import evaluate
from .params import FluidParams, require_number
from .profiles import PiecewiseQuadratic, ProfilePair

__all__ = [
    "Grid",
    "SimState",
    "SimConfig",
    "TrajectoryReport",
    "CflViolationError",
    "NegativeCellError",
    "SupportOutsideDomainError",
    "init_state",
    "face_velocities",
    "step",
    "run",
    "support_components",
    "l2_distance",
    "cell_averages",
]

# cells above this fraction of the peak count as support
_SUPPORT_REL_THRESHOLD = 1e-9


class CflViolationError(Exception):
    pass


class NegativeCellError(Exception):
    pass


class SupportOutsideDomainError(Exception):
    pass


@dataclass(frozen=True)
class Grid:
    """Uniform mesh of n_cells control volumes on [x_left, x_right]."""

    n_cells: int
    x_left: float = -5.0
    x_right: float = 5.0

    def __post_init__(self):
        require_number("n_cells", self.n_cells, integer=True)
        require_number("x_left", self.x_left)
        require_number("x_right", self.x_right)
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

    @cached_property
    def face_drift(self) -> np.ndarray:
        """Confinement velocity -x/3 at the interior faces."""
        x = self.centers
        return -(x[1:] + x[:-1]) / 6.0


class SimState:
    """Grid state at time t; ``f`` and ``g`` are the rows of one (2, n) array ``u``."""

    __slots__ = ("u", "t", "grid", "step_count")

    def __init__(self, f, g, t: float, grid: Grid, step_count: int = 0):
        self.u = np.array((f, g), dtype=float)
        self.t = t
        self.grid = grid
        self.step_count = step_count

    @classmethod
    def _of(cls, u: np.ndarray, t: float, grid: Grid, step_count: int) -> "SimState":
        """Wrap a (2, n) array without copying it."""
        s = cls.__new__(cls)
        s.u, s.t, s.grid, s.step_count = u, t, grid, step_count
        return s

    @property
    def f(self) -> np.ndarray:
        return self.u[0]

    @property
    def g(self) -> np.ndarray:
        return self.u[1]

    def copy(self) -> "SimState":
        return SimState._of(self.u.copy(), self.t, self.grid, self.step_count)


@dataclass
class SimConfig:
    grid: Grid
    params: FluidParams
    t_end: float
    dt: float = 1e-5
    record_every: int = 1000
    reference: ProfilePair | None = None
    _kernel: _Kernel | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        require_number("dt", self.dt)
        require_number("t_end", self.t_end)
        require_number("record_every", self.record_every, integer=True)
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
    """Exact cell averages of a piecewise quadratic whose support lies in the grid.

    The result is computed once per profile and grid, kept on the profile,
    and returned read-only.
    """
    out = q._averages.get(grid)
    if out is None:
        out = q._averages[grid] = _exact_cell_averages(q, grid)
        out.flags.writeable = False
    return out


def _exact_cell_averages(q: PiecewiseQuadratic, grid: Grid) -> np.ndarray:
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


def _gauss_cell_averages(func: Callable, grid: Grid) -> np.ndarray:
    """5-point Gauss-Legendre cell averages, mirror-exact on a symmetric grid.

    The nodes are made exactly antisymmetric and the weights exactly
    symmetric, and each node pair is summed before weighting, so an even
    function gets bitwise even averages.
    """
    gx, gw = np.polynomial.legendre.leggauss(5)
    gx = 0.5 * (gx - gx[::-1])
    gw = 0.5 * (gw + gw[::-1])
    x = grid.centers[:, None] + (0.5 * grid.h) * gx[None, :]
    v = np.asarray(func(x.ravel()), dtype=float).reshape(x.shape)
    return 0.5 * (gw[2] * v[:, 2] + gw[1] * (v[:, 1] + v[:, 3]) + gw[0] * (v[:, 0] + v[:, 4]))


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

    u = np.empty((2, grid.n_cells))
    for row, comp in zip(u, comps):
        if isinstance(comp, PiecewiseQuadratic):
            row[:] = cell_averages(comp, grid)
        else:
            row[:] = _gauss_cell_averages(comp, grid)
    for name, row in zip("fg", u):
        if float(np.sum(row)) * grid.h <= 0.0:
            raise ValueError(f"initial {name} has no mass")
        if np.min(row) < -1e-12:
            raise ValueError(f"initial {name} is negative somewhere")
    if renormalize:
        for row in u:
            row /= grid.h * float(np.sum(row))
    return SimState._of(u, 0.0, grid, 0)


# ----------------------------------------------------------------------
# scheme
# ----------------------------------------------------------------------


class _Kernel:
    """Constants and scratch of the upwind step for one (grid, params, dt).

    Velocities are (2, n): flat face k is entry k of the flattened array, so
    column n - 1 holds the seam face in row f and the right boundary in row
    g, both with zero drift and coefficients.  The flux array behind the
    ``flux_*`` views has one entry per flat face plus the two boundary faces
    at its ends, which stay zero.
    """

    __slots__ = ("grid", "params", "dt", "thread", "h", "dt_h", "coef", "drift", "du",
                 "du_head", "du_cols", "term", "term_df", "term_dg", "v", "v_head", "vabs",
                 "mask", "flux_head", "flux_tail", "flux_interior", "dflux", "dflux_rows")

    def __init__(self, grid: Grid, p: FluidParams, dt: float):
        n = grid.n_cells
        self.grid, self.params, self.dt = grid, p, dt
        self.thread = threading.get_ident()
        self.h = grid.h
        self.dt_h = dt / self.h
        e2 = p.eta**2
        # coef[c, r]: coefficient of the gradient of field c in the velocity of field r
        self.coef = np.zeros((2, 2, n))
        self.coef[:, :, :-1] = [[[(1.0 + p.R) * e2], [e2 * p.R_mu]], [[p.R], [p.R_mu]]]
        self.drift = np.zeros((2, n))
        self.drift[:, :-1] = grid.face_drift
        self.du = np.zeros(2 * n)  # gradients at the flat faces; the last entry stays 0
        self.du_head, self.du_cols = self.du[:-1], self.du.reshape(2, 1, n)
        self.term = np.empty((2, 2, n))
        self.term_df, self.term_dg = self.term
        self.v = np.empty((2, n))
        self.v_head = self.v.reshape(-1)[:-1]
        self.vabs = np.empty((2, n))
        self.mask = np.empty(2 * n - 1, dtype=bool)
        flux = np.zeros(2 * n + 1)
        self.flux_head, self.flux_tail, self.flux_interior = flux[:-1], flux[1:], flux[1:-1]
        self.dflux = np.empty(2 * n)
        self.dflux_rows = self.dflux.reshape(2, n)

    def velocities(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Velocities (2, n) at the flat faces between cells ``lo`` and ``hi``."""
        np.subtract(hi, lo, out=self.du_head)
        np.divide(self.du, self.h, out=self.du)
        np.multiply(self.coef, self.du_cols, out=self.term)
        np.subtract(self.drift, self.term_df, out=self.v)
        return np.subtract(self.v, self.term_dg, out=self.v)


def face_velocities(state: SimState, p: FluidParams) -> np.ndarray:
    """Velocities (A, B) of f and g at the interior faces, shape (2, n_cells - 1)."""
    uf = state.u.reshape(-1)
    k = _Kernel(state.grid, p, dt=1.0)  # dt does not enter the velocities
    return k.velocities(uf[:-1], uf[1:])[:, :-1].copy()


def step(state: SimState, cfg: SimConfig) -> SimState:
    """One explicit Euler step of the upwind scheme with no-flux boundaries."""
    grid, u = state.grid, state.u
    k = cfg._kernel
    if (k is None or k.grid is not grid or k.params is not cfg.params
            or k.dt != cfg.dt or k.thread != threading.get_ident()):
        # numpy releases the GIL in these loops, so each thread gets its own scratch
        k = cfg._kernel = _Kernel(grid, cfg.params, cfg.dt)
    uf = u.reshape(-1)
    lo, hi = uf[:-1], uf[1:]
    v = k.velocities(lo, hi)
    vmax = float(np.maximum.reduce(np.absolute(v, out=k.vabs), axis=None))
    if k.dt * vmax / k.h > 1.0:
        raise CflViolationError(
            f"dt * max|velocity| / h = {k.dt * vmax / k.h:.3g} > 1; reduce dt")
    # donor-cell fluxes at the interior flat faces
    np.greater(k.v_head, 0.0, out=k.mask)
    np.multiply(np.where(k.mask, lo, hi), k.v_head, out=k.flux_interior)
    dflux = np.subtract(k.flux_tail, k.flux_head, out=k.dflux)
    np.multiply(dflux, k.dt_h, out=dflux)
    u_new = np.subtract(u, k.dflux_rows)
    if np.minimum.reduce(u_new, axis=None) < 0.0:
        raise NegativeCellError(
            f"negative cell after step at t = {state.t:.6g}; reduce dt")
    return SimState._of(u_new, state.t + k.dt, grid, state.step_count + 1)


def support_components(u: np.ndarray) -> int:
    """Number of contiguous runs of cells above _SUPPORT_REL_THRESHOLD * max."""
    peak = float(np.max(u)) if u.size else 0.0
    if peak <= 0.0:
        return 0
    mask = u > _SUPPORT_REL_THRESHOLD * peak
    return int(np.sum(mask[1:] & ~mask[:-1]) + (1 if mask[0] else 0))


def l2_distance(state: SimState, reference: ProfilePair) -> float:
    """L2 distance of cell averages to the exact averages of a profile."""
    h = state.grid.h
    fr = cell_averages(reference.F, state.grid)
    gr = cell_averages(reference.G, state.grid)
    return math.sqrt(h * float(np.sum((state.f - fr) ** 2 + (state.g - gr) ** 2)))


def run(cfg: SimConfig, initial: SimState) -> TrajectoryReport:
    """March to t_end, recording diagnostics every cfg.record_every steps."""
    p = cfg.params
    state = initial.copy()
    n_steps = int(round(cfg.t_end / cfg.dt))
    h = state.grid.h

    cols = ("mass_f", "mass_g", "M1", "M2", "E", "E_star", "H", "I",
            "n_components_f", "n_components_g", "l2_dist")
    rows: list[tuple] = []  # (t, *cols) per record
    states: list[SimState] = []

    def record(s: SimState):
        rep = evaluate(s, p)
        rows.append((s.t, h * float(np.sum(s.f)), h * float(np.sum(s.g)), rep.m1, rep.m2,
                     rep.energy, rep.rescaled_energy, rep.entropy, rep.dissipation,
                     support_components(s.f), support_components(s.g),
                     math.nan if cfg.reference is None else l2_distance(s, cfg.reference)))
        states.append(s.copy())

    record(state)
    for done in range(0, n_steps, cfg.record_every):
        for _ in range(min(cfg.record_every, n_steps - done)):
            state = step(state, cfg)
        record(state)

    times, *columns = zip(*rows)
    return TrajectoryReport(
        times=np.asarray(times),
        data={c: np.asarray(v) for c, v in zip(cols, columns)},
        states=states, final=state, grid=state.grid)
