"""Explicit upwind finite-volume scheme for the rescaled two-layer system.

Both equations are advection laws with velocities built from the pressure
gradients; the fluxes take the donor cell according to the face velocity
sign, and the boundary fluxes vanish, so both discrete masses are conserved
by telescoping.  The time step is forward Euler, and a march raises if a
step's dt·max|velocity|/h exceeds 1 or its new state has a negative cell,
and also when either is NaN.  Both fields live in one (2, n) array, so
every array operation of a step runs once for the pair.

The scheme reads that array as one flat lane of 2n cells, f then g, with
flat face k between flat cells k and k + 1.  The seam face between the last
f cell and the first g cell has zero drift and zero velocity coefficients, so
its velocity and flux are exactly zero, as at the two ends of the lane.  A
private kernel, built once per (grid, params, dt, lane size) and thread and
kept on the SimConfig, holds the coefficients and the drift.  It marches a
whole record interval in one call, in chunks of up to 16 steps: each step
writes its velocities and its new state into the next row of two chunk
buffers, and picks its donor cells into a scratch buffer, so it makes
twelve numpy calls and allocates nothing.  Those calls cost mostly
dispatch, which a Python-float operand or a reduce raises, so every operand
is an array of the call's own shape (constant lanes of h, dt/h and zeros),
except in the one coefficient product that broadcasts the gradients over
both velocity rows.  The two guards are checked once per chunk, by
reductions over all its rows; a chunk that fails is marched again from its
start one step per chunk, so the same check raises at its first failing
step, with the message of a check after every step.  ``step`` is a march of
one step, copied into a fresh array.

The data have compact support, and a donor-cell flux carries no mass past a
zero cell in one step: a cell turns nonzero only next to a nonzero one.  In
a chunk of J steps the occupied columns therefore spread by at most J cells
on each side, and a march steps only a window of columns [a, b), the same in
both rows: the occupied columns widened by one chunk on each side, rounded
outwards to a multiple of 8 and clipped to the lane.  The window is read as
a flat lane of its own, f then g, whose seam and ends carry zero flux; it
owns the chunk buffers, the constant lanes and the step's scratch.  Outside
it every cell is zero for the whole chunk, so every face there carries a
zero flux and no cell changes.  After each chunk, mass in the window's
outer 16 columns on a side that is not a lane end widens the window before
the next chunk, and each march fits its window afresh to its start.  At a
face outside the window both cells are zero, so the gradient terms are
exactly zero and the velocity is the pure drift -x/3: the advective guard
takes the largest |drift| of those faces with the window's own velocities,
and reads, as the positivity guard does, what a guard over the whole lane
would.

Mirror-even data on a grid symmetric about 0 stays mirror-even to the last
bit, and the centre face then carries only a zero flux.  For such data with
an even cell count, ``run`` marches just the left half of both fields, a
lane of n cells whose right end stands in for the centre face, and mirrors
it back at each record.  The states, the errors and the step that raises
them are bitwise those of a per-field two-array step on finite data: a zero
flux may carry the other sign of zero, which changes no cell unless that
cell holds -0.0.  For the same reason a -0.0 cell at or beyond a window's
edge stays -0.0, where a step of the whole lane could turn it into +0.0;
the initial data muskat builds hold no -0.0.
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
    "l2_distance",
    "cell_averages",
]

# cells above this fraction of the peak count as support
_SUPPORT_REL_THRESHOLD = 1e-9
# steps per guard check of the march: both guards read a whole chunk at once
_CHUNK = 16
# the march's window edges are multiples of this many columns
_QUANTUM = 8
# the step's ufuncs, looked up once
_divide, _greater, _multiply, _subtract = np.divide, np.greater, np.multiply, np.subtract


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
    # cells per lane row -> _Kernel, rebuilt by _kernel when stale
    _kernels: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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
    """Exact cell averages of a piecewise quadratic whose support lies in the
    grid, as a new array on every call (``l2_distance`` keeps a pair's)."""
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


# numpy's leggauss(5), nodes made exactly antisymmetric and weights (of the
# centre node, then of each node pair) exactly symmetric
_GAUSS5_X = (-0.906179845938664, -0.5384693101056831, 0.0,
             0.5384693101056831, 0.906179845938664)
_GAUSS5_W = (0.5688888888888887, 0.4786286704993663, 0.23692688505618928)


def _gauss_cell_averages(func: Callable, grid: Grid) -> np.ndarray:
    """5-point Gauss-Legendre cell averages, mirror-exact on a symmetric grid.

    Each node pair is summed before weighting, so an even function gets
    bitwise even averages.
    """
    x = grid.centers[:, None] + (0.5 * grid.h) * np.array(_GAUSS5_X)
    v = np.asarray(func(x.ravel()), dtype=float).reshape(x.shape)
    w0, w1, w2 = _GAUSS5_W
    return 0.5 * (w0 * v[:, 2] + w1 * (v[:, 1] + v[:, 3]) + w2 * (v[:, 0] + v[:, 4]))


def init_state(source, grid: Grid, renormalize: bool = False) -> SimState:
    """Discretize initial data to cell averages.

    ``source`` is a ProfilePair, a pair of PiecewiseQuadratic, or a pair of
    callables; profile/piecewise sources integrate exactly, callables use
    5-point Gauss quadrature per cell.  Raises when the support leaves the
    domain, or a component is not finite, has no mass or is negative.
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
        # NaN passes both comparisons below
        if not np.isfinite(row).all():
            raise ValueError(f"initial {name} is not finite")
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
    """Constants of the upwind march on a lane of 2 x ``cells`` cells.

    The lane is a (2, cells) array whose faces are the first ``cells - 1``
    interior faces of the grid in each row; its two ends carry no flux.  A
    march steps only a window of columns, the same in both rows, through the
    ``_Window`` that ``_fit`` builds and keeps until the columns change.
    """

    __slots__ = ("grid", "params", "dt", "thread", "cells", "h", "coef", "drift_abs", "lane",
                 "window")

    def __init__(self, grid: Grid, p: FluidParams, dt: float, cells: int):
        self.grid, self.params, self.dt, self.cells = grid, p, dt, cells
        self.thread = threading.get_ident()
        self.h = grid.h
        e2 = p.eta**2
        # coef[c, r]: coefficient of the gradient of field c in the velocity of field r
        self.coef = np.array([[[(1.0 + p.R) * e2], [e2 * p.R_mu]], [[p.R], [p.R_mu]]])
        self.drift_abs = np.absolute(grid.face_drift[:cells - 1])
        self.lane = np.empty((2, cells))
        self.window = None

    def _fit(self, lane: np.ndarray) -> "_Window":
        """The window of ``lane`` for the next chunk, with ``lane``'s cells in its state row 0.

        It holds the occupied columns widened by _CHUNK on each side, rounded
        outwards to _QUANTUM and clipped to the lane.
        """
        cols = np.flatnonzero(lane.any(axis=0))
        lo, hi = (int(cols[0]), int(cols[-1]) + 1) if cols.size else (0, 0)
        a = max(0, (lo - _CHUNK) // _QUANTUM * _QUANTUM)
        b = min(self.cells, -((-hi - _CHUNK) // _QUANTUM) * _QUANTUM)
        w = self.window
        if w is None or w.a != a or w.b != b:
            w = self.window = _Window(self, a, b)
        w.states[0] = lane[:, a:b]
        return w

    def march(self, start: np.ndarray, steps: int, t: float):
        """Take ``steps`` steps from the (2, cells) array ``start`` at time ``t``.

        ``start`` is left as it was.  Returns the last state, the kernel's
        own lane that the next march overwrites, and its time.  Both guards
        are checked once per chunk; a chunk that fails is marched again one
        step per chunk, so the check raises at its first failing step.
        """
        dt, h, lane = self.dt, self.h, self.lane
        greater, multiply, subtract = _greater, _multiply, _subtract
        copyto, putmask, count_nonzero = np.copyto, np.putmask, np.count_nonzero
        lane[...] = start
        w = self._fit(lane)
        chunk, last = _CHUNK, 0
        # steps computed past a failing one may overflow; they are discarded
        with np.errstate(all="ignore"):
            while steps:
                if last:
                    states[0] = states[last]
                    # mass in a band may leave the window within the next chunk
                    for band in w.bands:
                        if count_nonzero(band):
                            lane[:, w.a:w.b] = states[0]
                            w = self._fit(lane)
                            break
                states, vrows, velocities, dt_h = w.states, w.velocity_rows, w.velocities, w.dt_h
                zeros, mask, donor, dflux = w.zeros, w.mask, w.donor, w.dflux
                dflux_rows = w.dflux_rows
                flux_head, flux_tail, flux_interior = w.flux_head, w.flux_tail, w.flux_interior
                last = min(steps, chunk)
                for u, lo, hi, new, v, v_head in w.rows[:last]:
                    velocities(lo, hi, v)
                    # donor-cell fluxes at the interior flat faces: the left
                    # cell where the velocity is positive, else the right one
                    greater(v_head, zeros, mask)
                    copyto(donor, hi)
                    putmask(donor, mask, lo)
                    multiply(donor, v_head, flux_interior)
                    subtract(flux_tail, flux_head, dflux)
                    multiply(dflux, dt_h, dflux)
                    subtract(u, dflux_rows, new)
                # the guards, written so that NaN fails both comparisons
                cfl = dt * max(float(np.maximum.reduce(vrows[:last], None)),
                               -float(np.minimum.reduce(vrows[:last], None)), w.outside) / h
                low = np.minimum.reduce(states[1:last + 1], None)
                if not (cfl <= 1.0 and low >= 0.0):
                    if last > 1:
                        chunk, last = 1, 0  # march the chunk again from its state row 0
                        continue
                    if not cfl <= 1.0:
                        raise CflViolationError(
                            f"dt * max|velocity| / h = {cfl:.3g} > 1; reduce dt" if cfl > 1.0
                            else f"NaN velocity in step at t = {t:.6g}; the state is not finite")
                    raise NegativeCellError(f"{'negative' if low < 0.0 else 'NaN'} cell after "
                                            f"step at t = {t:.6g}; reduce dt")
                for _ in range(last):
                    t += dt
                steps -= last
        lane[:, w.a:w.b] = w.states[last]
        return lane, t


class _Window:
    """The step's operands and scratch on the columns [a, b) of a kernel's lane.

    Both rows of the window are read flat as a lane of 2 x m cells, m = b - a,
    f then g, with flat face k between flat cells k and k + 1.  Velocities
    are (2, m): column m - 1 holds the seam face in row f and the window's
    right end in row g, both with zero drift and coefficients.  The flux
    array behind the ``flux_*`` views has one entry per flat face plus the
    two ends of the window, which stay zero.  Step j of a chunk reads row j
    of ``states`` and writes its velocities into row j of ``velocity_rows``
    and its new state into row j + 1 of ``states``; ``h_lane``, ``dt_h``
    and ``zeros`` are read-only constant lanes of h, dt/h and 0.

    A lane face outside the window joins two zero cells, so its gradient
    terms are exactly zero and its velocity is the pure drift; ``outside``
    is the largest |drift| of those faces, which the advective guard takes
    with the window's own velocities.  ``bands`` are flat slices of state
    row 0 covering the outer _CHUNK columns of each side that is not a lane
    end: a nonzero cell there may spread out of the window in the next chunk.
    """

    __slots__ = ("a", "b", "operands", "states", "velocity_rows", "rows", "h_lane", "dt_h",
                 "zeros", "mask", "donor", "flux_head", "flux_tail", "flux_interior", "dflux",
                 "dflux_rows", "outside", "bands")

    def __init__(self, k: _Kernel, a: int, b: int):
        m, n, c = b - a, k.cells, _CHUNK
        self.a, self.b = a, b
        self.h_lane, self.dt_h = np.full(2 * m, k.h), np.full(2 * m, k.dt / k.h)
        self.zeros = np.zeros(2 * m - 1)
        for lane in (self.h_lane, self.dt_h, self.zeros):
            lane.flags.writeable = False
        coef = np.zeros((2, 2, m))
        coef[:, :, :-1] = k.coef
        drift = np.zeros((2, m))
        drift[:, :-1] = k.grid.face_drift[a:b - 1]
        # the gradient terms of f and g: v = (drift - term_f) - term_g
        terms = np.empty((2, 2, m))
        du = np.zeros(2 * m)  # gradients at the flat faces; the last entry stays 0
        # in the order of their first use in ``velocities``
        self.operands = (du[:-1], du, self.h_lane, coef, du.reshape(2, 1, m), terms, drift, *terms)
        self.states = np.empty((c + 1, 2, m))
        self.velocity_rows = np.empty((c, 2, m))
        # per step j: state j, its flat left and right cells, state j + 1,
        # velocities j and their interior flat faces
        flat = self.states.reshape(c + 1, -1)
        self.rows = [(self.states[j], flat[j, :-1], flat[j, 1:], self.states[j + 1], v,
                      v.reshape(-1)[:-1]) for j, v in enumerate(self.velocity_rows)]
        self.mask = np.empty(2 * m - 1, dtype=bool)
        self.donor = np.empty(2 * m - 1)
        flux = np.zeros(2 * m + 1)
        self.flux_head, self.flux_tail, self.flux_interior = flux[:-1], flux[1:], flux[1:-1]
        self.dflux = np.empty(2 * m)
        self.dflux_rows = self.dflux.reshape(2, m)
        d = k.drift_abs
        self.outside = max(float(np.max(d[:a], initial=0.0)),
                           float(np.max(d[b - 1:], initial=0.0)))
        # f's right band and g's left band are one slice
        if a and b < n:
            cuts = ((0, c), (m - c, m + c), (2 * m - c, 2 * m))
        elif a:
            cuts = ((0, c), (m, m + c))
        elif b < n:
            cuts = ((m - c, m), (2 * m - c, 2 * m))
        else:
            cuts = ()
        self.bands = [flat[0, lo:hi] for lo, hi in cuts]

    def velocities(self, lo: np.ndarray, hi: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Velocities (2, m) at the flat faces between cells ``lo`` and ``hi``, into ``out``."""
        # a step's twelve calls cost mostly dispatch, so outputs go by position
        # (the out keyword costs about 0.1 us a call), every operand but the
        # broadcast gradients is an array of the call's own shape, and the
        # nine operands come in one attribute load
        du_head, du, h, coef, du_cols, terms, drift, term_f, term_g = self.operands
        _subtract(hi, lo, du_head)
        _divide(du, h, du)
        _multiply(coef, du_cols, terms)
        _subtract(drift, term_f, out)
        return _subtract(out, term_g, out)


def _kernel(cfg: SimConfig, grid: Grid, cells: int) -> _Kernel:
    """The config's kernel for lanes of 2 x ``cells`` cells on ``grid``, rebuilt when stale;
    ValueError when ``grid``, the state's, is not the config's."""
    if grid != cfg.grid:
        raise ValueError(f"state grid {grid} differs from config grid {cfg.grid}")
    k = cfg._kernels.get(cells)
    if (k is None or k.grid is not grid or k.params is not cfg.params
            or k.dt != cfg.dt or k.thread != threading.get_ident()):
        # numpy releases the GIL in these loops, so each thread gets its own scratch
        k = cfg._kernels[cells] = _Kernel(grid, cfg.params, cfg.dt, cells)
    return k


def face_velocities(state: SimState, p: FluidParams) -> np.ndarray:
    """Velocities (A, B) of f and g at the interior faces, shape (2, n_cells - 1)."""
    uf, n = state.u.reshape(-1), state.grid.n_cells
    w = _Window(_Kernel(state.grid, p, 1.0, n), 0, n)  # dt does not enter the velocities
    return w.velocities(uf[:-1], uf[1:], np.empty_like(state.u))[:, :-1]


def step(state: SimState, cfg: SimConfig) -> SimState:
    """One explicit Euler step of the upwind scheme with no-flux boundaries."""
    grid = state.grid
    u_new, t = _kernel(cfg, grid, grid.n_cells).march(state.u, 1, state.t)
    return SimState._of(u_new.copy(), t, grid, state.step_count + 1)


def _support_components(u: np.ndarray) -> int:
    """Number of contiguous runs of cells above _SUPPORT_REL_THRESHOLD * max."""
    peak = float(np.max(u)) if u.size else 0.0
    if peak <= 0.0:
        return 0
    mask = u > _SUPPORT_REL_THRESHOLD * peak
    return int(np.sum(mask[1:] & ~mask[:-1]) + (1 if mask[0] else 0))


def l2_distance(state: SimState, reference: ProfilePair) -> float:
    """L2 distance of cell averages to the exact averages of a profile, which
    are computed once per pair and grid and kept on the pair, read-only."""
    grid = state.grid
    ref = reference._averages.get(grid)
    if ref is None:
        ref = reference._averages[grid] = np.stack(
            [cell_averages(reference.F, grid), cell_averages(reference.G, grid)])
        ref.flags.writeable = False
    d = np.subtract(state.u, ref)
    np.square(d, d)
    return math.sqrt(grid.h * float(np.add.reduce(np.add(d[0], d[1], d[0]))))


def run(cfg: SimConfig, initial: SimState) -> TrajectoryReport:
    """March to t_end, recording diagnostics every cfg.record_every steps.

    Mirror-even data on a symmetric grid with an even cell count stays
    mirror-even, so only the left half of each field is marched: its lane
    ends where the centre face, which carries no flux, stands.  When a guard
    raises, the error carries the records finished so far as ``report``.
    """
    p, grid = cfg.params, initial.grid
    n_steps = int(round(cfg.t_end / cfg.dt))
    n, h = grid.n_cells, grid.h
    half = (grid.x_left == -grid.x_right and n % 2 == 0
            and np.array_equal(initial.u, initial.u[:, ::-1]))
    cells = n // 2 if half else n
    k = _kernel(cfg, grid, cells)
    a = initial.u[:, :cells]

    cols = ("mass_f", "mass_g", "M1", "M2", "E", "E_star", "H", "I",
            "n_components_f", "n_components_g", "l2_dist")
    rows: list[tuple] = []  # (t, *cols) per record
    states: list[SimState] = []

    def record(s: SimState):
        rep = evaluate(s, p)
        mass_f, mass_g = np.add.reduce(s.u, axis=1).tolist()
        rows.append((s.t, h * mass_f, h * mass_g, rep.m1, rep.m2,
                     rep.energy, rep.rescaled_energy, rep.entropy, rep.dissipation,
                     _support_components(s.f), _support_components(s.g),
                     math.nan if cfg.reference is None else l2_distance(s, cfg.reference)))
        states.append(s)  # a fresh array that no later step writes, so kept uncopied

    def report() -> TrajectoryReport:
        times, *columns = zip(*rows)
        return TrajectoryReport(
            times=np.asarray(times),
            data={c: np.asarray(v) for c, v in zip(cols, columns)},
            states=states, final=state, grid=grid)

    state = initial.copy()
    record(state)
    t, count = initial.t, initial.step_count
    try:
        for done in range(0, n_steps, cfg.record_every):
            steps = min(cfg.record_every, n_steps - done)
            a, t = k.march(a, steps, t)
            count += steps
            u = np.concatenate((a, a[:, ::-1]), axis=1) if half else a.copy()
            state = SimState._of(u, t, grid, count)
            record(state)
    except (CflViolationError, NegativeCellError) as exc:
        exc.report = report()
        raise
    return report()
