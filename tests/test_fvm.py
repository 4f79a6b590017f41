"""Upwind finite-volume scheme: discretization, conservation, dynamics."""

import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from muskat import fvm
from muskat.fvm import (
    CflViolationError,
    Grid,
    NegativeCellError,
    SimConfig,
    SimState,
    SupportOutsideDomainError,
    cell_averages,
    face_velocities,
    init_state,
    l2_distance,
    run,
    step,
    _support_components,
)
from muskat.params import FluidParams
from muskat.profiles import PiecewiseQuadratic, even_profile

P11 = FluidParams(1.0, 1.0, 1.0)


def bump(center: float, halfwidth: float):
    c, a = center, halfwidth
    return lambda x: np.maximum(0.0, 0.75 / a * (1.0 - ((np.asarray(x) - c) / a) ** 2))


# ----------------------------------------------------------------------
# grid and initialization
# ----------------------------------------------------------------------


def test_grid_basics():
    g = Grid(n_cells=10)
    assert g.h == pytest.approx(1.0)
    assert np.all(np.diff(g.faces) > 0)
    assert g.faces[0] == -5.0 and g.faces[-1] == 5.0
    assert np.array_equal(g.centers, -g.centers[::-1])  # exact symmetry
    with pytest.raises(ValueError):
        Grid(n_cells=2)


def test_init_uniform_pair_alignment():
    u = PiecewiseQuadratic.from_pieces([(-1.0, 1.0, 0.5, 0.0)])
    st = init_state((u, u), Grid(n_cells=10))
    # faces at the integers: the two cells covering [-1, 1] carry 1/2
    expect = np.zeros(10)
    expect[4] = expect[5] = 0.5
    assert np.allclose(st.f, expect, atol=1e-15)
    assert st.grid.h * st.f.sum() == pytest.approx(1.0, abs=1e-15)


def test_init_even_profile_exact_masses():
    p = FluidParams(1.0, 2.0, 1.0)
    st = init_state(even_profile(p), Grid(n_cells=400))
    assert st.grid.h * st.f.sum() == pytest.approx(1.0, abs=1e-12)
    assert st.grid.h * st.g.sum() == pytest.approx(1.0, abs=1e-12)


def test_init_rejects_zero_mass():
    z = PiecewiseQuadratic.from_pieces([(-1.0, 1.0, 0.0, 0.0)])
    u = PiecewiseQuadratic.from_pieces([(-1.0, 1.0, 0.5, 0.0)])
    with pytest.raises(ValueError):
        init_state((u, z), Grid(n_cells=10))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_init_rejects_non_finite_values(bad):
    # NaN fails the mass and sign comparisons, so only a finiteness check stops it
    spoilt = lambda x: np.where(np.abs(x) < 0.1, bad, bump(0.0, 1.0)(x))
    with pytest.raises(ValueError, match="initial g is not finite"):
        init_state((bump(0.0, 1.0), spoilt), Grid(n_cells=50))
    with pytest.raises(ValueError, match="initial f is not finite"):
        init_state((spoilt, bump(0.0, 1.0)), Grid(n_cells=50), renormalize=True)


def test_init_rejects_support_outside_domain():
    wide = PiecewiseQuadratic.from_pieces([(-7.0, 7.0, 1.0 / 14.0, 0.0)])
    with pytest.raises(SupportOutsideDomainError):
        init_state((wide, wide), Grid(n_cells=10))
    # the same guard covers a reference profile: G reaches +-5.481 here
    state = init_state(even_profile(P11), Grid(n_cells=10))
    with pytest.raises(SupportOutsideDomainError):
        l2_distance(state, even_profile(FluidParams(1.0, 21.0, 1.0)))


def _cell_averages_oracle(q: PiecewiseQuadratic, g: Grid) -> np.ndarray:
    """Reference: exact cell averages recomputed on every call."""
    faces = g.faces
    out = np.zeros(g.n_cells)
    for l, r, c0, c2 in q.pieces:
        lo = np.maximum(faces[:-1], l)
        hi = np.minimum(faces[1:], r)
        mask = np.clip(hi - lo, 0.0, None) > 0.0
        out[mask] += (c0 * (hi[mask] - lo[mask])
                      + c2 * (hi[mask] ** 3 - lo[mask] ** 3) / 3.0)
    return out / g.h


def test_cell_averages_computed_once_and_read_only(monkeypatch):
    pp = even_profile(FluidParams(1.0, 2.0, 1.0))
    g = Grid(n_cells=50)
    # cell_averages computes afresh: a new array on each call, bitwise the oracle's
    avg = cell_averages(pp.F, g)
    assert avg.tobytes() == _cell_averages_oracle(pp.F, g).tobytes()
    again = cell_averages(pp.F, g)
    assert again is not avg and again.tobytes() == avg.tobytes()
    avg[:] = 7.0
    assert cell_averages(pp.F, g).tobytes() == again.tobytes()
    # l2_distance builds the pair's (2, n) stack once per grid and keeps it read-only
    st, st_equal_grid = init_state(pp, g), init_state(pp, Grid(n_cells=50))
    calls = []
    monkeypatch.setattr(fvm, "cell_averages",
                        lambda q, grid: calls.append(q) or cell_averages(q, grid))
    for state in (st, st, st_equal_grid):
        l2_distance(state, pp)
    assert len(calls) == 2 and calls[0] is pp.F and calls[1] is pp.G
    stack = pp._averages[g]
    assert stack.tobytes() == np.stack([_cell_averages_oracle(pp.F, g),
                                        _cell_averages_oracle(pp.G, g)]).tobytes()
    assert not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0] = 1.0
    # the state holds writable copies; writing to them leaves the stack alone
    st.f[:] = 7.0
    st.g[:] = 7.0
    assert pp._averages[g] is stack
    assert stack.tobytes() == np.stack([_cell_averages_oracle(pp.F, g),
                                        _cell_averages_oracle(pp.G, g)]).tobytes()


def test_l2_distance_equals_uncached_formula():
    p = FluidParams(4.0, 2.0, 1.0)
    g = Grid(n_cells=200)
    st = init_state((bump(0.5, 1.5), bump(-0.3, 1.8)), g, renormalize=True)
    for ref in (even_profile(p), even_profile(FluidParams(1.0, 0.1, 1.0))):
        fr, gr = _cell_averages_oracle(ref.F, g), _cell_averages_oracle(ref.G, g)
        expect = math.sqrt(g.h * float(np.sum((st.f - fr) ** 2 + (st.g - gr) ** 2)))
        assert l2_distance(st, ref) == expect
        assert l2_distance(st, ref) == expect  # again, from the stored averages


@pytest.mark.parametrize("rmu, R", [(0.7, 4.0), (10.0, 1.0)])
def test_mirrored_data_is_nearest_to_the_mirrored_curve_state(rmu, R):
    # the pairing the selection workload relies on, without a run: on a
    # symmetric grid, cell averages between curve states i and i + 1, and
    # their mirror image, are nearest to states i and n - 1 - i, at the same
    # distance up to the rounding of the averages
    from muskat.profiles import continue_curve
    curve = continue_curve(FluidParams(R, rmu, 1.0), 41)
    n, grid = len(curve), Grid(n_cells=200)
    for i in (3, 12, 27):
        a, b = (np.stack([cell_averages(cp.profile.F, grid), cell_averages(cp.profile.G, grid)])
                for cp in (curve[i], curve[i + 1]))
        u = 0.7 * a + 0.3 * b
        d, d_mirrored = ([l2_distance(SimState(f, g, 0.0, grid), cp.profile) for cp in curve]
                         for f, g in ((u[0], u[1]), (u[0, ::-1], u[1, ::-1])))
        assert int(np.argmin(d)) == i and int(np.argmin(d_mirrored)) == n - 1 - i
        assert d[i] > 1e-4 and abs(d_mirrored[n - 1 - i] - d[i]) <= 1e-15


def test_cell_averages_quadratic_exact():
    # averages of a full parabola integrate back to the exact mass
    p = FluidParams(1.0, 2.0, 1.0)
    pp = even_profile(p)
    g = Grid(n_cells=37)  # deliberately unaligned
    avg = cell_averages(pp.F, g)
    assert g.h * avg.sum() == pytest.approx(1.0, abs=1e-13)


# ----------------------------------------------------------------------
# face velocities and upwind step
# ----------------------------------------------------------------------


def test_face_velocities_pure_drift():
    g = Grid(n_cells=10)
    st = SimState(f=np.full(10, 0.3), g=np.full(10, 0.2), t=0.0, grid=g)
    A, B = face_velocities(st, P11)
    mid = 0.5 * (g.centers[1:] + g.centers[:-1])
    assert np.allclose(A, -mid / 3.0, atol=1e-14)
    assert np.allclose(B, -mid / 3.0, atol=1e-14)


def test_face_velocities_antisymmetric_for_even_state():
    g = Grid(n_cells=16)
    a = 2.0
    prof = PiecewiseQuadratic.from_pieces([(-a, a, 0.75 / a, -0.75 / a**3)])
    st = init_state((prof, prof), g)
    assert np.array_equal(st.f, st.f[::-1])  # exact cell-average symmetry
    A, B = face_velocities(st, FluidParams(1.0, 2.0, 1.0))
    assert np.array_equal(A, -A[::-1])
    assert np.array_equal(B, -B[::-1])


def test_three_cell_hand_example():
    g = Grid(n_cells=3, x_left=-5.0, x_right=5.0)
    st = SimState(f=np.array([0.0, 0.3, 0.0]), g=np.zeros(3), t=0.0, grid=g)
    A, B = face_velocities(st, P11)
    assert A[0] == pytest.approx(10.0 / 18.0 - 0.18, abs=1e-15)   # 0.37556
    assert A[1] == pytest.approx(-10.0 / 18.0 + 0.18, abs=1e-15)  # -0.37556
    # B carries the cross-diffusion term eta^2 R_mu (f_2 - f_1) / h = 0.09
    assert np.allclose(B, [10.0 / 18.0 - 0.09, -10.0 / 18.0 + 0.09], atol=1e-15)
    # both donor cells are empty, so the upwind fluxes vanish identically
    cfg = SimConfig(grid=g, params=P11, t_end=1e-5, dt=1e-5, record_every=1)
    st2 = step(st, cfg)
    assert np.array_equal(st2.f, st.f)
    assert np.array_equal(st2.g, st.g)


def test_single_cell_spike_velocities():
    g = Grid(n_cells=8)
    f = np.zeros(8)
    f[3] = 0.4
    st = SimState(f=f, g=np.zeros(8), t=0.0, grid=g)
    p = FluidParams(1.0, 1.0, 1.0)
    A, _ = face_velocities(st, p)
    mid = 0.5 * (g.centers[1:] + g.centers[:-1])
    # faces adjacent to the spike carry -(1+R) eta^2 * (+-f)/h on top of drift
    assert A[2] == pytest.approx(-mid[2] / 3.0 - 2.0 * 0.4 / g.h, abs=1e-14)
    assert A[3] == pytest.approx(-mid[3] / 3.0 + 2.0 * 0.4 / g.h, abs=1e-14)


def test_step_conserves_mass_exactly_stepwise():
    g = Grid(n_cells=50)
    st = init_state((bump(0.5, 1.5), bump(-0.4, 1.0)), g, renormalize=True)
    cfg = SimConfig(grid=g, params=P11, t_end=1.0, dt=1e-4, record_every=100)
    m0f, m0g = st.f.sum(), st.g.sum()
    for _ in range(100):
        st = step(st, cfg)
    assert st.f.sum() == pytest.approx(m0f, rel=1e-13)
    assert st.g.sum() == pytest.approx(m0g, rel=1e-13)


def test_step_and_run_reject_a_state_on_another_grid():
    st = init_state((bump(0.5, 1.5), bump(-0.4, 1.0)), Grid(n_cells=400), renormalize=True)
    cfg = SimConfig(grid=Grid(n_cells=200), params=P11, t_end=1e-3, dt=1e-4)
    with pytest.raises(ValueError, match="differs from config grid"):
        step(st, cfg)
    with pytest.raises(ValueError, match="differs from config grid"):
        run(cfg, st)
    # an equal grid built apart is the same grid
    assert step(st, SimConfig(grid=Grid(n_cells=400), params=P11, t_end=1e-3)).t > 0.0


def test_step_zero_state_fixed_point():
    g = Grid(n_cells=8)
    st = SimState(f=np.zeros(8), g=np.zeros(8), t=0.0, grid=g)
    cfg = SimConfig(grid=g, params=P11, t_end=1e-3, dt=1e-3, record_every=1)
    st2 = step(st, cfg)
    assert np.array_equal(st2.f, st.f) and np.array_equal(st2.g, st.g)


def _two_array_step(state: SimState, cfg: SimConfig) -> SimState:
    """Reference scheme on f and g as two separate arrays; step must match it bitwise."""
    p, g = cfg.params, state.grid
    h, dt, x, e2 = g.h, cfg.dt, g.centers, p.eta**2
    f, gg = state.f, state.g
    drift = -(x[1:] + x[:-1]) / 6.0
    df = (f[1:] - f[:-1]) / h
    dg = (gg[1:] - gg[:-1]) / h
    A = drift - (1.0 + p.R) * e2 * df - p.R * dg
    B = drift - e2 * p.R_mu * df - p.R_mu * dg

    def flux(vel, u):
        out = np.zeros(u.size + 1)
        out[1:-1] = np.maximum(vel, 0.0) * u[:-1] - np.maximum(-vel, 0.0) * u[1:]
        return out

    Ff, Fg = flux(A, f), flux(B, gg)
    return SimState(f=f - (dt / h) * (Ff[1:] - Ff[:-1]),
                    g=gg - (dt / h) * (Fg[1:] - Fg[:-1]), t=state.t + dt, grid=g)


def _skewed_bumps(background: float = 0.0):
    f, g = bump(0.5, 1.5), bump(-0.4, 1.8)
    return lambda x: background + f(x), lambda x: background + g(x)


@pytest.mark.parametrize("n, background, dt, steps, goes_negative", [
    pytest.param(200, 0.0, 2e-5, 2000, False, id="200"),
    pytest.param(400, 0.0, 2e-5, 2000, False, id="400"),
    # mass in the last f cell and the first g cell: the flat lane's seam face
    # between them must carry no flux
    pytest.param(200, 0.05, 2e-5, 2000, False, id="seam"),
    # a dt that drives cells negative within a few steps: the guard must stop
    # the step that takes the oracle below zero, and no earlier one
    pytest.param(200, 0.0, 1e-3, 10, True, id="guard-stops-negative"),
])
def test_step_matches_two_array_oracle_bitwise(n, background, dt, steps, goes_negative):
    p = FluidParams(4.0, 2.0, 1.3)
    g = Grid(n_cells=n)
    st = init_state(_skewed_bumps(background), g, renormalize=True)
    cfg = SimConfig(grid=g, params=p, t_end=1.0, dt=dt)
    ref = st
    try:
        for _ in range(steps):
            st = step(st, cfg)
            ref = _two_array_step(ref, cfg)
            assert st.t == ref.t and np.array_equal(st.u, ref.u)
    except NegativeCellError:
        assert goes_negative and 0 < st.step_count < steps and st.u.min() >= 0.0
        assert _two_array_step(ref, cfg).u.min() < 0.0
        return
    assert not goes_negative and st.step_count == steps
    assert not np.array_equal(st.f, st.f[::-1])  # the state is asymmetric
    assert np.all(np.isfinite(st.u))
    if background:
        assert st.f[-1] > 0.0 and st.g[0] > 0.0


def test_step_follows_a_changed_dt():
    p = FluidParams(4.0, 2.0, 1.3)
    g = Grid(n_cells=200)
    st = init_state(_skewed_bumps(), g, renormalize=True)
    cfg = SimConfig(grid=g, params=p, t_end=1.0, dt=2e-5)
    ref = st
    for dt in (2e-5, 1e-5, 2e-5):
        cfg.dt = dt
        for _ in range(50):
            st = step(st, cfg)
            ref = _two_array_step(ref, cfg)
        assert np.array_equal(st.u, ref.u)


def test_threads_stepping_one_config_match_one_thread():
    # more threads than cores and frequent switches, so steps of different
    # threads interleave inside one config's kernel
    p = FluidParams(4.0, 2.0, 1.3)
    g = Grid(n_cells=400)
    centers = [(0.5, -0.4), (-0.3, 0.6), (0.2, 0.1), (-0.6, -0.2)]
    starts = [init_state((bump(cf, 1.6), bump(cg, 1.9)), g, renormalize=True)
              for cf, cg in centers]

    def march(st, cfg, barrier=None):
        if barrier is not None:
            barrier.wait()
        for _ in range(1000):
            st = step(st, cfg)
        return st

    expect = [march(st, SimConfig(grid=g, params=p, t_end=1.0, dt=2e-5)) for st in starts]
    shared = SimConfig(grid=g, params=p, t_end=1.0, dt=2e-5)
    barrier = threading.Barrier(len(starts), timeout=60)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(starts)) as pool:
            futures = [pool.submit(march, st, shared, barrier) for st in starts]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(got, expect):
        assert a.step_count == 1000
        assert np.array_equal(a.u, b.u)


def test_face_velocities_match_two_array_oracle_bitwise():
    p = FluidParams(4.0, 2.0, 1.3)
    g = Grid(n_cells=200)
    st = init_state(_skewed_bumps(0.05), g, renormalize=True)
    h, x, e2 = g.h, g.centers, p.eta**2
    f, gg = st.f, st.g
    # the velocity lines of _two_array_step
    drift = -(x[1:] + x[:-1]) / 6.0
    df = (f[1:] - f[:-1]) / h
    dg = (gg[1:] - gg[:-1]) / h
    A = drift - (1.0 + p.R) * e2 * df - p.R * dg
    B = drift - e2 * p.R_mu * df - p.R_mu * dg
    v = face_velocities(st, p)
    assert v.shape == (2, 199)
    assert np.array_equal(v[0], A) and np.array_equal(v[1], B)


def test_cfl_violation_raised():
    g = Grid(n_cells=50)
    st = init_state((bump(0.0, 2.0), bump(0.0, 2.0)), g, renormalize=True)
    cfg = SimConfig(grid=g, params=P11, t_end=1.0, dt=0.5, record_every=1)
    with pytest.raises(CflViolationError):
        step(st, cfg)


@pytest.mark.parametrize("dt, error, message, at_step", [
    (4e-4, NegativeCellError, "t = 3.8208;", 9552),
    (0.5, CflViolationError, "= 33.2 > 1;", 0),
])
def test_guards_on_readme_rupture_config(dt, error, message, at_step):
    # (R, R_mu, eta) = (1, 0.05, 1) with the even bumps of half-width 2 on n = 400
    p = FluidParams(1.0, 0.05, 1.0)
    g = Grid(n_cells=400)
    a = 2.0
    prof = PiecewiseQuadratic.from_pieces([(-a, a, 0.75 / a, -0.75 / a**3)])
    st = init_state((prof, prof), g)
    cfg = SimConfig(grid=g, params=p, t_end=8.0, dt=dt)
    with pytest.raises(error, match=message.replace(".", r"\.")):
        while True:
            st = step(st, cfg)
    assert st.step_count == at_step


@pytest.mark.parametrize("march", [run, step])
def test_nan_cell_stops_the_march_at_step_0(march):
    # the faces of a NaN cell get NaN velocities, which fail the advective
    # guard; run's first chunk of 16 steps fails, and its first step raises
    g = Grid(n_cells=100)
    st = init_state((bump(0.0, 2.0), bump(0.3, 1.3)), g, renormalize=True)
    st.u[1, 60] = math.nan
    cfg = SimConfig(grid=g, params=FluidParams(1.0, 2.0, 1.0), t_end=0.01, dt=1e-5)
    with pytest.raises(CflViolationError, match=r"^NaN velocity in step at t = 0;") as caught:
        march(st, cfg) if march is step else march(cfg, st)
    assert "nan" not in str(caught.value)
    if march is run:
        rep = caught.value.report
        assert len(rep.states) == len(rep.times) == 1 and rep.times[0] == 0.0
        assert rep.final.step_count == 0
        assert np.array_equal(rep.final.u, st.u, equal_nan=True)


# ----------------------------------------------------------------------
# trajectories
# ----------------------------------------------------------------------


def _even_bump(halfwidth: float) -> PiecewiseQuadratic:
    a = halfwidth
    return PiecewiseQuadratic.from_pieces([(-a, a, 0.75 / a, -0.75 / a**3)])


def _index_mirrored(grid: Grid) -> SimState:
    """Even bump averages of the symmetric grid of as many cells, placed on ``grid``."""
    st = init_state((_even_bump(2.0), _even_bump(1.3)), Grid(n_cells=grid.n_cells))
    return SimState(f=st.f, g=st.g, t=0.0, grid=grid)


@pytest.mark.parametrize("start, p, dt, t_end, record_every, lane", [
    # mirror-even data on a symmetric grid with even n: the half lane
    pytest.param(lambda: init_state((_even_bump(2.0), _even_bump(1.3)), Grid(n_cells=400)),
                 FluidParams(1.0, 0.05, 1.0), 2e-5, 0.01, 100, 200, id="even-400"),
    pytest.param(lambda: init_state(_skewed_bumps(), Grid(n_cells=200), renormalize=True),
                 FluidParams(4.0, 2.0, 1.3), 2e-5, 0.01, 100, 200, id="skewed"),
    pytest.param(lambda: init_state((_even_bump(2.0), _even_bump(1.3)), Grid(n_cells=401)),
                 FluidParams(1.0, 2.0, 1.0), 2e-5, 0.01, 100, 401, id="even-odd-n"),
    # index-mirrored cells whose grid is not symmetric about 0: the drift
    # is not mirror-odd, so the state does not stay mirrored
    pytest.param(lambda: _index_mirrored(Grid(n_cells=200, x_left=-4.0, x_right=6.0)),
                 FluidParams(1.0, 2.0, 1.0), 2e-5, 0.01, 100, 200, id="asymmetric-domain"),
    pytest.param(lambda: init_state((_even_bump(2.0), _even_bump(1.3)), Grid(n_cells=200)),
                 FluidParams(1.0, 2.0, 1.0), 2e-5, 0.005, 60, 100, id="uneven-records"),
])
def test_run_matches_step_loop_bitwise(start, p, dt, t_end, record_every, lane):
    st = start()
    cfg = SimConfig(grid=st.grid, params=p, t_end=t_end, dt=dt, record_every=record_every)
    rep = run(cfg, st)
    assert set(cfg._kernels) == {lane}  # the lane that run marched
    n_steps = int(round(t_end / dt))
    expect = [st]
    ref_cfg = SimConfig(grid=st.grid, params=p, t_end=t_end, dt=dt)
    for i in range(1, n_steps + 1):
        st = step(st, ref_cfg)
        if i % record_every == 0 or i == n_steps:
            expect.append(st)
    assert len(rep.states) == len(expect) == len(rep.times)
    for got, want in zip(rep.states, expect):
        assert got.t == want.t and got.step_count == want.step_count
        assert np.array_equal(got.u, want.u)
    assert np.array_equal(rep.times, [s.t for s in expect])
    assert rep.final.step_count == n_steps and np.array_equal(rep.final.u, expect[-1].u)
    assert not np.array_equal(rep.final.u, rep.states[0].u)  # the march moved the state


@pytest.mark.parametrize("dt, error, message, record_every", [
    pytest.param(4e-4, NegativeCellError, "t = 3.8208;", 1000,
                 id="0.0004-NegativeCellError-t = 3.8208;"),
    pytest.param(0.5, CflViolationError, "= 33.2 > 1;", 1000,
                 id="0.5-CflViolationError-= 33.2 > 1;"),
    # the failing step is 9553: the first step of a record interval of 16,
    # the last of a guard chunk within an interval of 17, and a middle one
    *[pytest.param(4e-4, NegativeCellError, "t = 3.8208;", every, id=f"0.0004-every-{every}")
      for every in (1, 15, 16, 17)],
])
def test_run_guards_on_readme_rupture_config(dt, error, message, record_every):
    # the start of test_guards_on_readme_rupture_config, marched by run on the half lane
    g = Grid(n_cells=400)
    st = init_state((_even_bump(2.0), _even_bump(2.0)), g)
    cfg = SimConfig(grid=g, params=FluidParams(1.0, 0.05, 1.0), t_end=8.0, dt=dt,
                    record_every=record_every)
    # the steps marched past a failing one must not warn either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message.replace(".", r"\.")) as caught:
            run(cfg, st)
    assert set(cfg._kernels) == {200}
    # the records finished before the guard fired come back with the error
    rep = caught.value.report
    good = 9552 if error is NegativeCellError else 0
    records = 1 + good // record_every
    assert len(rep.states) == len(rep.times) == len(rep.data["E"]) == records
    assert rep.final.step_count == rep.states[-1].step_count == good - good % record_every
    assert np.array_equal(rep.final.u, rep.states[-1].u)
    assert np.allclose(rep.times, dt * record_every * np.arange(records), rtol=0.0, atol=1e-12)


@pytest.fixture
def windows(monkeypatch):
    """(a, b, cells) of every window a march fits: one per march, one per widening."""
    seen = []
    fit = fvm._Kernel._fit

    def recording(kernel, lane):
        w = fit(kernel, lane)
        seen.append((w.a, w.b, kernel.cells))
        return w

    monkeypatch.setattr(fvm._Kernel, "_fit", recording)
    return seen


def _run_against_two_array_oracle(st: SimState, p: FluidParams, dt: float) -> None:
    """Run 4 record intervals of 500 steps; every record must be the oracle's, byte for byte."""
    cfg = SimConfig(grid=st.grid, params=p, t_end=2000 * dt, dt=dt, record_every=500)
    rep = run(cfg, st)
    assert len(rep.states) == 5
    ref = st
    for got in rep.states[1:]:
        for _ in range(500):
            ref = _two_array_step(ref, cfg)
        assert got.t == ref.t and got.u.tobytes() == ref.u.tobytes()
    assert not np.array_equal(rep.final.u, st.u)


def test_half_lane_window_widens_within_a_record_interval(windows):
    st = init_state((_even_bump(0.4), _even_bump(0.3)), Grid(n_cells=400))
    _run_against_two_array_oracle(st, FluidParams(1.0, 0.05, 1.0), 2e-5)
    assert all(0 < a and b == cells == 200 for a, b, cells in windows)
    assert len(windows) > 4  # some of the 4 marches widened its window before its last chunk
    assert windows[-1][0] < windows[0][0]


def test_full_lane_window_follows_both_edges_of_skewed_bumps(windows):
    st = init_state((bump(0.5, 0.4), bump(-0.4, 0.5)), Grid(n_cells=200), renormalize=True)
    _run_against_two_array_oracle(st, FluidParams(4.0, 2.0, 1.3), 1e-5)
    assert all(0 < a and b < cells == 200 for a, b, cells in windows)
    assert windows[-1][0] < windows[0][0] and windows[-1][1] > windows[0][1]


def test_window_reaching_lane_ends(windows):
    p = FluidParams(4.0, 2.0, 1.3)
    # f in the first cell and g in the last: the window is the whole lane
    st = init_state((bump(-4.2, 0.8), bump(4.3, 0.7)), Grid(n_cells=200), renormalize=True)
    assert st.f[0] > 0.0 and st.g[-1] > 0.0
    _run_against_two_array_oracle(st, p, 1e-5)
    assert set(windows) == {(0, 200, 200)}
    # both in the left end cells: the window grows rightwards from the lane's left end
    windows.clear()
    st = init_state((bump(-4.2, 0.8), bump(-3.9, 0.7)), Grid(n_cells=200), renormalize=True)
    _run_against_two_array_oracle(st, p, 1e-5)
    assert all(a == 0 and b < cells == 200 for a, b, cells in windows)
    assert windows[-1][1] > windows[0][1]


def test_advective_guard_reads_the_drift_outside_the_window(windows):
    # weak coupling: the gradient terms stay below the drift |x|/3 at the domain
    # ends, so the largest |velocity| is the pure drift at an end face, outside
    # the window of the narrow bumps
    p = FluidParams(0.1, 0.1, 0.1)
    g = Grid(n_cells=200)
    st = init_state((bump(0.2, 0.5), bump(-0.1, 0.5)), g, renormalize=True)
    v = face_velocities(st, p)
    dt = 0.04
    number = dt * float(np.max(np.abs(v))) / g.h
    cfg = SimConfig(grid=g, params=p, t_end=1.0, dt=dt, record_every=10)
    with pytest.raises(CflViolationError) as caught:
        run(cfg, st)
    assert str(caught.value) == f"dt * max|velocity| / h = {number:.3g} > 1; reduce dt"
    # a full-lane check fails before the first step, and so did this march
    assert caught.value.report.final.step_count == 0
    [(a, b, _)] = windows
    assert 0 < a and b < 200
    assert dt * float(np.max(np.abs(v[:, a:b - 1]))) / g.h <= 1.0 < number
    with pytest.raises(CflViolationError, match=f"= {number:.3g} > 1;"):
        step(st, cfg)


def test_kernel_fits_a_new_window_for_every_start(windows):
    # a narrow start, a start filling the lane, then the narrow start again, on
    # one config's kernel: each run must match a run on a fresh config
    p = FluidParams(4.0, 2.0, 1.3)
    g = Grid(n_cells=200)
    narrow = init_state((bump(0.5, 0.4), bump(-0.4, 0.5)), g, renormalize=True)
    wide = init_state(_skewed_bumps(0.05), g, renormalize=True)
    cfg = SimConfig(grid=g, params=p, t_end=0.005, dt=1e-5, record_every=100)
    fitted, kernels = [], []
    for st in (narrow, wide, narrow):
        windows.clear()
        rep = run(cfg, st)
        fitted.append(list(windows))
        kernels.append(cfg._kernels[200])
        fresh = run(SimConfig(grid=g, params=p, t_end=0.005, dt=1e-5, record_every=100), st)
        assert len(rep.states) == len(fresh.states) == 6
        for a, b in zip(rep.states, fresh.states):
            assert a.u.tobytes() == b.u.tobytes()
    assert kernels[0] is kernels[1] is kernels[2]
    assert fitted[0] == fitted[2] and fitted[0][0][1] - fitted[0][0][0] < 200
    assert set(fitted[1]) == {(0, 200, 200)}


def _drift_balanced(grid: Grid) -> SimState:
    """Quadratic f and g of (R, R_mu, eta) = (1, 0.05, 1) whose gradient terms cancel
    the drift at every face, so the velocities are rounding errors: about 1e-12."""
    x = grid.centers
    return SimState(f=1.0 + 19.0 / 6.0 * x**2, g=200.0 - 6.5 * x**2, t=0.0, grid=grid)


def test_kernel_reused_after_failed_march_steps_like_a_fresh_one():
    # the README rupture config at dt = 0.5: run's first chunk fails the
    # advective guard at step 0, and the chunk's discarded steps overflow
    g = Grid(n_cells=400)
    p = FluidParams(1.0, 0.05, 1.0)
    cfg = SimConfig(grid=g, params=p, t_end=8.0, dt=0.5)
    start = init_state((_even_bump(2.0), _even_bump(2.0)), g)
    with pytest.raises(CflViolationError, match=r"= 33\.2 > 1;"):
        run(cfg, start)
    with pytest.raises(CflViolationError, match=r"= 33\.2 > 1;"):
        step(start, cfg)
    half, full = cfg._kernels[200], cfg._kernels[400]
    assert not np.isfinite(half.window.states).all()
    for w in (half.window, full.window):
        for lane in (w.h_lane, w.dt_h, w.zeros):
            assert not lane.flags.writeable

    # the same config marches another start on the same kernels; at dt = 0.5
    # the balance holds for two steps and the third fails the guard
    cfg.t_end, cfg.record_every = 1.5, 1
    fresh = SimConfig(grid=g, params=p, t_end=1.5, dt=0.5, record_every=1)
    st = _drift_balanced(g)
    reports = []
    for c in (cfg, fresh):
        with pytest.raises(CflViolationError, match=r"= 3\.27 > 1;") as caught:
            run(c, st)
        reports.append(caught.value.report)
    assert cfg._kernels[200] is half  # run marched the half lane of the failed run
    assert len(reports[0].states) == len(reports[1].states) == 3
    for a, b in zip(*(r.states for r in reports)):
        assert a.t == b.t and np.array_equal(a.u, b.u)
    assert not np.array_equal(reports[0].final.u, st.u)  # the two steps moved the state
    a, b = st, st
    for _ in range(2):
        a, b = step(a, cfg), step(b, fresh)
        assert np.array_equal(a.u, b.u)
    assert cfg._kernels[400] is full


@pytest.mark.parametrize("start, lane", [
    pytest.param(lambda: init_state((_even_bump(2.0), _even_bump(1.3)), Grid(n_cells=200)),
                 100, id="half-lane"),
    pytest.param(lambda: init_state(_skewed_bumps(), Grid(n_cells=200), renormalize=True),
                 200, id="full-lane"),
])
def test_run_records_share_no_memory(start, lane):
    st = start()
    cfg = SimConfig(grid=st.grid, params=FluidParams(1.0, 2.0, 1.0), t_end=0.01, dt=2e-5,
                    record_every=100)
    rep = run(cfg, st)
    k = cfg._kernels[lane]
    assert len(rep.states) == 6
    for i, s in enumerate(rep.states):
        assert not np.shares_memory(s.u, st.u)
        assert not np.shares_memory(s.u, k.window.states)
        assert not np.shares_memory(s.u, k.lane)
        for earlier in rep.states[:i]:
            assert not np.shares_memory(s.u, earlier.u)


def test_even_data_stays_even():
    p = FluidParams(1.0, 2.0, 1.0)
    g = Grid(n_cells=100)
    cfg = SimConfig(grid=g, params=p, t_end=0.05, dt=5e-5, record_every=200)
    # exact profile averages, and centred bumps through Gauss quadrature as
    # the CLI builds them
    for st in (init_state(even_profile(p), g),
               init_state((bump(0.0, 2.0), bump(0.0, 1.3)), g, renormalize=True)):
        rep = run(cfg, st)
        for s in rep.states:
            assert np.array_equal(s.f, s.f[::-1])
            assert np.array_equal(s.g, s.g[::-1])


def test_run_mass_conservation_and_energy_decay():
    p = FluidParams(1.0, 2.0, 1.0)
    g = Grid(n_cells=100)
    st = init_state((bump(0.8, 1.5), bump(-0.5, 1.2)), g, renormalize=True)
    cfg = SimConfig(grid=g, params=p, t_end=0.5, dt=5e-5, record_every=500)
    rep = run(cfg, st)
    mf, mg = rep.data["mass_f"], rep.data["mass_g"]
    assert np.max(np.abs(mf - mf[0])) / mf[0] < 1e-12
    assert np.max(np.abs(mg - mg[0])) / mg[0] < 1e-12
    assert np.all(np.diff(rep.data["E_star"]) <= 1e-10)
    assert np.all(rep.data["I"] >= 0.0)


def test_entropy_growth_bound():
    # the entropy can grow at most linearly with slope (1 + theta) / 3
    p = FluidParams(1.0, 2.0, 1.0)
    g = Grid(n_cells=100)
    st = init_state((bump(0.7, 1.4), bump(-0.6, 1.3)), g, renormalize=True)
    cfg = SimConfig(grid=g, params=p, t_end=0.5, dt=5e-5, record_every=500)
    rep = run(cfg, st)
    H = rep.data["H"]
    t = rep.times
    slope = (1.0 + p.theta) / 3.0
    for i in range(1, len(t)):
        assert H[i] - H[0] <= slope * (t[i] - t[0]) + 1e-8


def test_first_moment_decay_short_run():
    p = FluidParams(1.0, 1.0, 1.0)
    g = Grid(n_cells=200)
    st = init_state((bump(0.5, 1.5), bump(0.5, 1.5)), g, renormalize=True)
    cfg = SimConfig(grid=g, params=p, t_end=1.0, dt=5e-5, record_every=1000)
    rep = run(cfg, st)
    m1 = rep.data["M1"]
    t = rep.times
    rate = np.polyfit(t, np.log(np.abs(m1)), 1)[0]
    assert -0.36 < rate < -0.30


def test_l2_distance_and_components():
    p = FluidParams(1.0, 2.0, 1.0)
    pp = even_profile(p)
    g = Grid(n_cells=200)
    st = init_state(pp, g)
    assert l2_distance(st, pp) == pytest.approx(0.0, abs=1e-13)
    assert _support_components(st.f) == 1
    two = np.zeros(200)
    two[40:60] = 1.0
    two[120:140] = 0.5
    assert _support_components(two) == 2
    assert _support_components(np.zeros(4)) == 0
