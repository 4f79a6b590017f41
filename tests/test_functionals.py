"""Energy / moment / entropy functionals and the curve energy profile."""

import dataclasses
import math

import numpy as np
import pytest

from muskat.checks import Pieces
from muskat.functionals import (
    MismatchError,
    _entropy_piecewise,
    _fields_reports,
    _products_and_moments,
    NegativeInputError,
    dissipation,
    energy_along_curve,
    evaluate,
)
from muskat.fvm import Grid, SimState, init_state, l2_distance
from muskat.params import FluidParams
from muskat.profiles import (
    PiecewiseQuadratic,
    boundary_disconnected_profile,
    connected_profile,
    continue_curve,
    even_profile,
)
from oracles import (
    dissipation_by_field,
    entropy_by_graded_gauss,
    entropy_closed_form_by_loop,
    fields_report_by_loop,
    inner_by_loop,
    l2_distance_by_field,
    moment_by_loop,
    state_report_by_field,
)


def test_indicator_pair_hand_values():
    u = PiecewiseQuadratic.from_pieces([(-1.0, 1.0, 0.5, 0.0)])
    p = FluidParams(1.0, 1.0, 1.0)  # theta = 1
    rep = evaluate((u, u), p)
    assert rep.energy == pytest.approx(1.25, abs=1e-15)
    assert rep.m2 == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert rep.m1 == 0.0
    assert rep.rescaled_energy == pytest.approx(1.25 + 1.0 / 9.0, rel=1e-14)
    # entropy of a flat 1/2 blob: 2 * (1/2) ln(1/2) per component
    assert rep.entropy == pytest.approx(2.0 * math.log(0.5), rel=1e-10)


def test_negative_input_rejected():
    u = PiecewiseQuadratic.from_pieces([(-1.0, 1.0, 0.5, 0.0)])
    v = PiecewiseQuadratic.from_pieces([(-1.0, 1.0, -0.5, 0.0)])
    with pytest.raises(NegativeInputError):
        evaluate((u, v), FluidParams(1.0, 1.0, 1.0))


def test_even_profile_first_moment_vanishes():
    for rmu in (0.1, 1.0, 2.0, 10.0):
        p = FluidParams(1.0, rmu, 1.0)
        rep = evaluate(even_profile(p), p)
        assert abs(rep.m1) < 1e-10


def test_steady_state_identities():
    # M2 = 2 E_*, E_* = 1.5 E on every steady profile
    cases = [(1.0, rmu, 1.0) for rmu in (0.1, 0.2, 1.0, 1.5, 2.0, 5.0, 10.0)]
    cases += [(4.0, 0.7, 1.0), (4.0, 2.0, 1.0), (0.5, 3.0, 2.0)]
    for R, rmu, eta in cases:
        p = FluidParams(R, rmu, eta)
        rep = evaluate(even_profile(p), p)
        assert abs(rep.m2 - 2.0 * rep.rescaled_energy) < 1e-9
        assert abs(rep.rescaled_energy - 1.5 * rep.energy) < 1e-9


def test_steady_identities_nonsymmetric():
    p = FluidParams(1.0, 21.0, 1.0)
    rep = evaluate(connected_profile(p), p)
    assert abs(rep.m2 - 2.0 * rep.rescaled_energy) < 1e-9
    assert abs(rep.m1) < 1e-10


def test_rescaled_energy_definition():
    p = FluidParams(1.0, 2.0, 1.0)
    rep = evaluate(even_profile(p), p)
    assert rep.rescaled_energy == rep.energy + rep.m2 / 6.0


def test_entropy_finite_on_profiles():
    for rmu in (0.1, 2.0, 10.0):
        p = FluidParams(1.0, rmu, 1.0)
        rep = evaluate(even_profile(p), p)
        assert math.isfinite(rep.entropy)


def test_grid_state_report_matches_profile():
    p = FluidParams(1.0, 2.0, 1.0)
    pp = even_profile(p)
    st = init_state(pp, Grid(n_cells=2000))
    rep_grid = evaluate(st, p)
    rep_exact = evaluate(pp, p)
    assert rep_grid.energy == pytest.approx(rep_exact.energy, rel=1e-4)
    assert rep_grid.m2 == pytest.approx(rep_exact.m2, rel=1e-4)
    assert rep_grid.dissipation is not None and rep_grid.dissipation >= 0.0


def test_dissipation_steady_refinement_rate():
    p = FluidParams(1.0, 2.0, 1.0)
    pp = even_profile(p)
    vals = [dissipation(init_state(pp, Grid(n_cells=n)), p) for n in (250, 500, 1000)]
    assert vals[0] > vals[1] > vals[2] > 0.0
    rates = [math.log2(vals[i] / vals[i + 1]) for i in range(2)]
    for r in rates:
        assert 1.5 < r < 2.6


def test_dissipation_positive_off_steady():
    g = Grid(n_cells=200)
    bump = lambda x: np.maximum(0.0, 0.375 * (1.0 - ((np.asarray(x) - 1.0) / 2.0) ** 2))
    st = init_state((bump, bump), g, renormalize=True)
    assert dissipation(st, FluidParams(1.0, 1.0, 1.0)) > 0.0


def test_dissipation_nonnegative_random_states():
    rng = np.random.default_rng(3)
    g = Grid(n_cells=64)
    for _ in range(20):
        st = SimState(f=rng.uniform(0, 1, 64), g=rng.uniform(0, 1, 64), t=0.0, grid=g)
        assert dissipation(st, FluidParams(1.0, 2.0, 0.7)) >= 0.0


def test_energy_along_curve_unimodal():
    p = FluidParams(1.0, 10.0, 1.0)
    curve = continue_curve(p, 41)
    pairs = energy_along_curve(curve)
    es = np.array([e for _, e in pairs])
    i0 = int(np.argmin(es))
    assert pairs[i0][0] == 0.0
    d = np.diff(es)
    assert np.all(d[:i0] < 0.0) and np.all(d[i0:] > 0.0)


def test_energy_reflection_pairs_match():
    p = FluidParams(1.0, 10.0, 1.0)
    curve = continue_curve(p, 21)
    pairs = dict()
    for cp in curve:
        pairs[cp.ell] = cp
    lo, hi = curve[0], curve[-1]
    e_lo = evaluate(lo.profile, p).rescaled_energy
    e_hi = evaluate(hi.profile, p).rescaled_energy
    assert e_lo == pytest.approx(e_hi, abs=1e-10)


def test_energy_mismatch_detection():
    p = FluidParams(1.0, 10.0, 1.0)
    curve = continue_curve(p, 7)
    bad = [curve[0].__class__(ell=cp.ell, zeta=tuple(z * (1 + 2e-4) for z in cp.zeta),
                              profile=cp.profile) for cp in curve]
    with pytest.raises(MismatchError):
        energy_along_curve(bad)


def test_entropy_one_array_bitwise_equals_per_piece_loop():
    profiles = [even_profile(FluidParams(1.0, rmu, 1.0))
                for rmu in (0.01, 0.1, 1.0 / 3.0, 1.0 + 0.5, 2.0, 10.0)]
    profiles.append(connected_profile(FluidParams(1.0, 21.0, 1.0)))
    for p in (FluidParams(1.0, 10.0, 1.0), FluidParams(1.0, 0.1, 1.0),
              FluidParams(1.0, 21.0, 1.0), FluidParams(4.0, 0.7, 1.0)):
        profiles += [cp.profile for cp in continue_curve(p, 9)]
    for pp in profiles:
        whole = _entropy_piecewise(Pieces([pp.F, pp.G]))
        loop = [entropy_closed_form_by_loop(pp.F), entropy_closed_form_by_loop(pp.G)]
        assert np.array(whole).tobytes() == np.array(loop).tobytes()
    assert _entropy_piecewise(Pieces([PiecewiseQuadratic(())])) == [0.0]


def _entropy_cases() -> dict[str, list[PiecewiseQuadratic]]:
    """The fields of every construction kind, R = eta = 1: the five even cases,
    connected and boundary states on both sides, and curve states built in
    p's frame (R_mu > R + 1, G split) and in the dual frame (R_mu < R)."""
    def fields(pps):
        return [q for pp in pps for q in (pp.F, pp.G)]

    def p(rmu):
        return FluidParams(1.0, rmu, 1.0)

    even = [even_profile(p(rmu)) for rmu in (1.5, 2.0, 10.0, 0.1, 0.5)]
    assert [pp.label for pp in even] == [f"even-case{k}" for k in range(1, 6)]
    sides = ("left", "right")
    return {
        "even": fields(even),
        "connected": fields(connected_profile(p(rmu), side) for rmu in (21.0, 0.01)
                            for side in sides),
        "boundary": fields(boundary_disconnected_profile(p(rmu), side).profile
                           for rmu in (10.0, 0.1) for side in sides),
        "curve-p-frame": fields(cp.profile for rmu in (10.0, 40.0)
                                for cp in continue_curve(p(rmu), 9)),
        "curve-dual-frame": fields(cp.profile for rmu in (0.1, 0.03)
                                   for cp in continue_curve(p(rmu), 9)),
    }


@pytest.mark.parametrize("case", ["even", "connected", "boundary", "curve-p-frame",
                                  "curve-dual-frame"])
def test_entropy_closed_form_meets_graded_gauss_oracle(case):
    fields = _entropy_cases()[case]
    closed = _entropy_piecewise(Pieces(fields))
    oracle = [entropy_by_graded_gauss(q) for q in fields]
    assert max(abs(c - o) for c, o in zip(closed, oracle)) <= 1e-14


@pytest.mark.parametrize("b", [0.05, 0.7, 1.0, 3.0, 40.0])
def test_entropy_of_a_whole_cap_is_exact(b):
    # a unit-mass cap 3/(4b^3) (b^2 - x^2) on [-b, b] has entropy ln(3/b) - 5/3,
    # where 64-point Gauss erred by 1.74e-7 for every b
    cap = PiecewiseQuadratic(((-b, b, 0.75 / b, -0.75 / b**3),))
    exact = math.log(3.0 / b) - 5.0 / 3.0
    (closed,) = _entropy_piecewise(Pieces([cap]))
    assert abs(closed - exact) <= 1e-14
    assert abs(entropy_by_graded_gauss(cap) - exact) <= 1e-14


def test_entropy_of_a_mirrored_piece_is_bitwise_its_own():
    pieces = [PiecewiseQuadratic((pc,)) for q in _entropy_cases()["curve-dual-frame"]
              for pc in q.pieces]
    pieces += [PiecewiseQuadratic(((-1.0, 1.0, 0.0, 2.0),)),  # a double root inside
               PiecewiseQuadratic(((-0.5, 2.0, 0.7, 0.0),))]  # constant
    mirrored = [PiecewiseQuadratic(((-r, -l, c0, c2),)) for q in pieces
                for l, r, c0, c2 in q.pieces]
    assert np.array(_entropy_piecewise(Pieces(pieces))).tobytes() == \
        np.array(_entropy_piecewise(Pieces(mirrored))).tobytes()


def _products_and_moments_by_loop(pairs) -> list[bytes]:
    """The columns of ``_products_and_moments`` from the scalar loops, as bytes."""
    cols = [[inner_by_loop(F), inner_by_loop(F, G), inner_by_loop(G),
             moment_by_loop(F, 1), moment_by_loop(G, 1), moment_by_loop(F, 2),
             moment_by_loop(G, 2)] for F, G in pairs]
    return [np.array(c).tobytes() for c in zip(*cols)]


def _products_and_moments_batched(pairs) -> list[bytes]:
    pcs = Pieces([q for pair in pairs for q in pair])
    return [c.tobytes() for c in _products_and_moments(pcs)]


@pytest.mark.parametrize("p", [FluidParams(1.0, 10.0, 1.0), FluidParams(1.0, 40.0, 1.0),
                               FluidParams(1.0, 0.1, 1.0), FluidParams(1.0, 0.03, 1.0)],
                         ids=["disconnected-large", "connected-large", "disconnected-small",
                              "connected-small"])
def test_products_and_moments_bitwise_equal_scalar_loops_on_curves(p):
    pairs = [(cp.profile.F, cp.profile.G) for cp in continue_curve(p, 41)]
    assert _products_and_moments_batched(pairs) == _products_and_moments_by_loop(pairs)


def test_products_and_moments_bitwise_equal_scalar_loops_on_hand_built_fields():
    q = PiecewiseQuadratic
    fields = [
        q(((-1.0, 0.0, 1.0, -1.0), (0.0, 1.0, 1.0, -1.0))),  # touching at 0
        q(((-1.0, -0.0, 0.5, -0.5), (0.0, 1.0, 0.5, -0.5))),  # -0.0 against 0.0: max/min ties
        q(((-3.0, -2.0, 2.5, -0.25),)),  # disjoint from the others
        q(((-0.5, 0.5, 2.0, -8.0),)),  # inside the first two
        q(((-2.0, -1.0, 0.3, 0.1), (-1.0, -0.25, 0.7, -0.3), (0.25, 0.75, 0.2, 0.4),
           (0.75, 1.5, 0.9, -0.4))),  # four pieces: the others are padded
        q(((-1.0, 1.0, 0.75, -0.75),)),  # the same ends as the first two
        q(()),
    ]
    pairs = [(F, G) for F in fields for G in fields]
    assert _products_and_moments_batched(pairs) == _products_and_moments_by_loop(pairs)
    rng = np.random.default_rng(3)
    ends = np.array([-2.0, -1.5, -1.0, -0.25, -0.0, 0.0, 0.5, 1.0, 1.0 / 3.0, 2.0])
    for _ in range(20):
        fields = []
        for n in rng.integers(0, 6, size=8):
            lr = rng.choice(ends, size=(n, 2))
            fields.append(q(tuple((min(l, r), max(l, r) + (l == r), *rng.normal(size=2))
                                  for l, r in lr)))
        pairs = list(zip(fields[::2], fields[1::2]))
        assert _products_and_moments_batched(pairs) == _products_and_moments_by_loop(pairs)


def _bits_of_report(rep) -> list[bytes]:
    return [np.float64(v).tobytes() for v in dataclasses.astuple(rep)[:5]]


@pytest.mark.parametrize("p", [FluidParams(1.0, 10.0, 1.0), FluidParams(1.0, 0.1, 1.0)],
                         ids=["disconnected-large", "disconnected-small"])
def test_products_and_moments_bitwise_equal_loops_on_signed_zeros_and_padding(p):
    # the alpha-zero endpoint and its mirror share one batch, so -0.0 and 0.0
    # breakpoints (and the 0.0 that pads short fields) are all present; the
    # even fields of one and three pieces, of other triples, are padded to four
    ends = [boundary_disconnected_profile(p, side).profile for side in ("left", "right")]
    zeros = {np.float64(x).tobytes() for pp in ends for q in (pp.F, pp.G)
             for piece in q.pieces for x in piece[:2] if x == 0.0}
    assert zeros == {np.float64(0.0).tobytes(), np.float64(-0.0).tobytes()}
    short = [even_profile(FluidParams(1.0, rmu, 1.0)) for rmu in (1.5, 2.0, 1.2)]
    assert [pp.label for pp in short] == ["even-case1", "even-case2", "even-case5"]
    assert max(len(q.pieces) for pp in ends for q in (pp.F, pp.G)) == 4
    pairs = [(pp.F, pp.G) for pp in ends + short + ends[::-1]]
    assert _products_and_moments_batched(pairs) == _products_and_moments_by_loop(pairs)
    reports, _ = _fields_reports(p, Pieces([q for pair in pairs for q in pair]))
    assert [_bits_of_report(rep) for rep in reports] == [
        _bits_of_report(fields_report_by_loop(F, G, p)) for F, G in pairs]


def test_evaluate_bitwise_equals_fields_report_by_loop():
    p = FluidParams(2.0, 0.5, 1.3)
    pairs = [(pp.F, pp.G) for pp in (even_profile(p), connected_profile(FluidParams(1.0, 21.0, 1.0)))]
    pairs += [(cp.profile.F, cp.profile.G) for cp in continue_curve(FluidParams(1.0, 0.1, 1.0), 9)]
    bumps = [PiecewiseQuadratic(((-1.0, -0.0, 0.75, -0.75), (0.0, 1.0, 0.75, -0.75))),
             PiecewiseQuadratic(((-0.5, 1.5, 0.5, -0.125),))]
    pairs += [(F, G) for F in bumps for G in bumps]
    for F, G in pairs:
        rep, expect = evaluate((F, G), p), fields_report_by_loop(F, G, p)
        for name, value in dataclasses.asdict(rep).items():
            assert np.float64(value).tobytes() == np.float64(getattr(expect, name)).tobytes(), name


def _bump(center: float, halfwidth: float, background: float = 0.0):
    c, a = center, halfwidth
    return lambda x: background + np.maximum(0.0, 1.0 - ((np.asarray(x) - c) / a) ** 2)


@pytest.mark.parametrize("n", [3, 200, 401, 20000])
@pytest.mark.parametrize("kind", ["skewed", "mirror-even", "background", "g-zero"])
def test_grid_state_report_and_distance_bitwise_equal_per_field_forms(n, kind):
    g = Grid(n_cells=n)
    if kind == "skewed":
        st = init_state((_bump(0.7, 2.0), _bump(-0.4, 1.6)), g, renormalize=True)
    elif kind == "mirror-even":
        st = init_state((_bump(0.0, 2.0), _bump(0.0, 1.2)), g, renormalize=True)
    elif kind == "background":
        # every cell nonzero, the last f cell and the first g cell included
        st = init_state((_bump(0.7, 2.0, 1e-3), _bump(-0.4, 1.6, 1e-3)), g, renormalize=True)
    else:
        f = init_state((_bump(0.3, 1.7), _bump(0.3, 1.7)), g, renormalize=True).f
        st = SimState(f=f, g=np.zeros(n), t=0.0, grid=g)
    for p in (FluidParams(1.0, 0.05, 1.0), FluidParams(4.0, 2.0, 0.7)):
        rep, expect = evaluate(st, p), state_report_by_field(st, p)
        for name, value in dataclasses.asdict(rep).items():
            assert np.float64(value).tobytes() == np.float64(getattr(expect, name)).tobytes(), name
        assert dissipation(st, p) == dissipation_by_field(st, p)
    for p in (FluidParams(4.0, 2.0, 1.0), FluidParams(1.0, 0.1, 1.0)):
        ref = even_profile(p)
        assert l2_distance(st, ref) == l2_distance_by_field(st, ref)
