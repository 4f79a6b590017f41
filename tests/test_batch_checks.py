"""The batched checks and reports of a curve against their per-state forms.

Every state of a continuation curve is checked, and every functional report
computed, in one batch.  These tests hold the batch to the scalar checkers
of ``oracles``: the same pieces, reports, CLI bytes and exceptions.
"""

import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from muskat import cli
from muskat.checks import Pieces, check_pairs, field_failures
from muskat.functionals import MismatchError, curve_reports, evaluate
from muskat.params import ContinuumClass, FluidParams, classify_regime
from muskat.profiles import (
    InvalidZetaError,
    PiecewiseQuadratic,
    ProfilePair,
    _closed_form_energies,
    boundary_disconnected_profile,
    connected_profile,
    continue_curve,
    even_profile,
    profile_from_zeta,
    steady_residual,
)
from oracles import (
    check_pair_by_state,
    curve_energy_closed_form_by_state,
    fields_report_by_loop,
    profile_from_zeta_by_state,
    steady_residual_fields_by_scan,
    validate_by_loop,
)

# one triple in each continuum class
CLASSES = {
    ContinuumClass.DISCONNECTED_ENDPOINTS: [FluidParams(1.0, 10.0, 1.0),
                                            FluidParams(1.0, 0.1, 1.0)],
    ContinuumClass.CONNECTED_ENDPOINTS: [FluidParams(1.0, 21.0, 1.0),
                                         FluidParams(1.0, 0.01, 1.0)],
}
TRIPLES = [p for ps in CLASSES.values() for p in ps]


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _raised(fn):
    try:
        fn()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


def _raise_field_failure(q: PiecewiseQuadratic) -> None:
    with np.errstate(all="ignore"):
        failed, error = field_failures(Pieces([q]))
    if failed[0]:
        raise error(0)


def test_triples_cover_all_four_classes():
    for cont, ps in CLASSES.items():
        assert all(classify_regime(p).continuum is cont for p in ps)
    assert len({(p.R_mu > p.R + 1.0, cont) for cont, ps in CLASSES.items() for p in ps}) == 4


def _mirrored(q: PiecewiseQuadratic) -> PiecewiseQuadratic:
    return PiecewiseQuadratic(tuple((-r, -l, c0, c2) for l, r, c0, c2 in reversed(q.pieces)))


def _negated_m1(rep):
    return dataclasses.replace(rep, m1=-rep.m1)


@pytest.mark.parametrize("p", TRIPLES, ids=lambda p: f"{p.R}-{p.R_mu}-{p.eta}")
def test_curve_batch_bitwise_equals_per_state_oracles(p, tmp_path):
    # the traced half (sigma >= 0) is bitwise the per-state constructions and
    # reports; each state of the other half is bitwise the mirror image of its
    # partner, with its partner's report and M1 negated
    n = 21
    curve = continue_curve(p, n)
    half = n // 2
    for i, cp in enumerate(curve):
        if i < half:
            twin = curve[n - 1 - i]
            F, G = _mirrored(twin.profile.F), _mirrored(twin.profile.G)
            assert cp.zeta == tuple(-z for z in reversed(twin.zeta)) and cp.ell == -twin.ell
            check_pair_by_state(F, G, p, cp.profile.label)
        elif i == half:
            assert cp.ell == 0.0
            F, G = cp.profile.F, cp.profile.G
            check_pair_by_state(F, G, p, cp.profile.label)
        else:
            F, G = profile_from_zeta_by_state(p, cp.zeta)
        assert cp.profile.zeta == cp.zeta and cp.profile.params is p
        assert cp.profile.F.pieces == F.pieces and cp.profile.G.pieces == G.pieces
    reports = curve_reports(curve)
    traced = [fields_report_by_loop(cp.profile.F, cp.profile.G, p) for cp in curve[half:]]
    oracle = [_negated_m1(rep) for rep in traced[:0:-1]] + traced
    for rep, expect in zip(reports, oracle):
        for name, value in dataclasses.asdict(rep).items():
            assert _bits(value) == _bits(getattr(expect, name)), name
    closed = _closed_form_energies(p, np.array([cp.zeta for cp in curve]))
    assert [_bits(c) for c in closed] == [
        _bits(curve_energy_closed_form_by_state(p, cp.zeta)) for cp in curve]

    argv = ["curve", "--R", repr(p.R), "--R-mu", repr(p.R_mu), "--eta", repr(p.eta),
            "-n", str(n), "--out-dir", str(tmp_path / "cli")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    stem = f"curve_R{p.R:g}_Rmu{p.R_mu:g}_eta{p.eta:g}"
    cli._write_csv(tmp_path / "curve.csv",
                   ["sigma", "gamma1", "beta1", "alpha1", "alpha", "beta", "gamma", "E_star"],
                   [[cp.ell, *cp.zeta, rep.rescaled_energy] for cp, rep in zip(curve, oracle)])
    cli._write_csv(tmp_path / "functionals.csv", ["sigma", "E", "E_star", "M1", "M2", "H"],
                   [[cp.ell, rep.energy, rep.rescaled_energy, rep.m1, rep.m2, rep.entropy]
                    for cp, rep in zip(curve, oracle)])
    assert (tmp_path / "cli" / f"{stem}.csv").read_bytes() == \
        (tmp_path / "curve.csv").read_bytes()
    assert (tmp_path / "cli" / f"{stem}_functionals.csv").read_bytes() == \
        (tmp_path / "functionals.csv").read_bytes()


@pytest.mark.parametrize("p", TRIPLES, ids=lambda p: f"{p.R}-{p.R_mu}-{p.eta}")
def test_mirrored_reports_match_the_loop_on_the_mirrored_pieces(p):
    # a report taken over from the mirror partner is the report of the state's
    # own pieces to 1e-15: E, E_*, M2 and H relative to themselves, and M1,
    # which vanishes on a steady state, relative to M2
    n = 21
    curve = continue_curve(p, n)
    reports = curve_reports(curve)
    for i in range(n // 2):
        rep, own = reports[i], fields_report_by_loop(curve[i].profile.F, curve[i].profile.G, p)
        assert _bits(rep.m1) == _bits(-reports[n - 1 - i].m1)
        for name in ("energy", "rescaled_energy", "m2", "entropy"):
            assert getattr(rep, name) == getattr(reports[n - 1 - i], name)
            assert abs(getattr(rep, name) - getattr(own, name)) <= 1e-15 * abs(getattr(own, name))
        assert abs(rep.m1 - own.m1) <= 1e-15 * own.m2


def test_a_state_without_its_mirror_partner_is_evaluated_on_its_own():
    p = FluidParams(1.0, 10.0, 1.0)
    curve = continue_curve(p, 9)

    def assert_own_reports(states, reports):
        for cp, rep in zip(states, reports):
            expect = fields_report_by_loop(cp.profile.F, cp.profile.G, p)
            for name, value in dataclasses.asdict(rep).items():
                assert _bits(value) == _bits(getattr(expect, name)), name

    # no state at index i is the mirror image of the one at n - 1 - i
    for states in (curve[:6], curve[1:], curve[::-1][2:], [curve[0], curve[4], curve[7]]):
        assert_own_reports(states, curve_reports(states))
    # state 2 in the place of state 1: neither it nor state 7 has a partner
    altered = curve[:1] + curve[2:3] + curve[2:]
    reports = curve_reports(altered)
    assert_own_reports([altered[1], altered[7]], [reports[1], reports[7]])
    assert reports[0] == _negated_m1(reports[8]) and reports[2] == _negated_m1(reports[6])


def test_mismatch_in_one_state_raises_its_scalar_message():
    p = FluidParams(1.0, 10.0, 1.0)
    curve = continue_curve(p, 9)
    k = 6
    bad = curve[k] = dataclasses.replace(
        curve[k], zeta=tuple(z * (1 + 2e-4) for z in curve[k].zeta))
    quad = fields_report_by_loop(bad.profile.F, bad.profile.G, p).rescaled_energy
    closed = curve_energy_closed_form_by_state(p, bad.zeta)
    with pytest.raises(MismatchError) as info:
        curve_reports(curve)
    assert str(info.value) == (f"energy mismatch at sigma = {bad.ell:.6g}: quadrature "
                               f"{quad:.15g} vs closed form {closed:.15g}")


PROFILES = ([("even", p) for p in TRIPLES]
            + [("connected", p) for p in CLASSES[ContinuumClass.CONNECTED_ENDPOINTS]]
            + [("curve-endpoint", p) for p in CLASSES[ContinuumClass.DISCONNECTED_ENDPOINTS]])


@pytest.mark.parametrize("kind, p", PROFILES, ids=lambda v: v if isinstance(v, str)
                         else f"{v.R}-{v.R_mu}-{v.eta}")
def test_profile_cli_and_steady_residual_bitwise(kind, p, tmp_path, capsys):
    pp = {"even": even_profile, "connected": connected_profile,
          "curve-endpoint": lambda p: boundary_disconnected_profile(p).profile}[kind](p)
    check_pair_by_state(pp.F, pp.G, p, pp.label)
    assert _bits(steady_residual(pp)) == _bits(steady_residual_fields_by_scan(pp.F, pp.G, p))
    assert cli.main(["profile", "--kind", kind, "--R", repr(p.R), "--R-mu", repr(p.R_mu),
                     "--eta", repr(p.eta), "--out-dir", str(tmp_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    rep = fields_report_by_loop(pp.F, pp.G, p)
    assert _bits(evaluate(pp, p).entropy) == _bits(rep.entropy)
    expect = {"energy": rep.energy, "rescaled_energy": rep.rescaled_energy, "M1": rep.m1,
              "M2": rep.m2, "entropy": rep.entropy,
              "steady_residual": steady_residual_fields_by_scan(pp.F, pp.G, p)}
    for name, value in expect.items():
        assert _bits(out[name]) == _bits(value), name


# ----------------------------------------------------------------------
# each check of the batch raises what the scalar check raises
# ----------------------------------------------------------------------

P = FluidParams(1.0, 10.0, 1.0)  # G split: G has pieces (g1, b1), (b1, a1), (a, b), (b, g)
BATCH = 6


def _state(i: int = 2):
    return continue_curve(P, 9)[i].profile


def _with_piece(q: PiecewiseQuadratic, j: int, piece) -> PiecewiseQuadratic:
    pieces = list(q.pieces)
    pieces[j] = piece(*pieces[j])
    return PiecewiseQuadratic(tuple(pieces))


def _keep_left_raise_right(l, r, c0, c2):
    # the value at l stays (up to rounding), the value at r rises from zero
    c2_new = c2 * (1.0 - 1e-4)
    return l, r, c0 + (c2 - c2_new) * l * l, c2_new


def _scaled(q: PiecewiseQuadratic, c: float) -> PiecewiseQuadratic:
    return PiecewiseQuadratic(tuple((l, r, c * c0, c * c2) for l, r, c0, c2 in q.pieces))


BREAKS = {
    "non-finite": lambda F, G: (F, _with_piece(G, 1, lambda l, r, c0, c2: (l, r, math.nan, c2))),
    "degenerate": lambda F, G: (F, _with_piece(G, 1, lambda l, r, c0, c2: (l, l, c0, c2))),
    "overlap": lambda F, G: (F, _with_piece(G, 2, lambda l, r, c0, c2: (
        G.pieces[1][1] - 1e-9, r, c0, c2))),
    "negative": lambda F, G: (F, _with_piece(G, 1, lambda l, r, c0, c2: (l, r, c0 - 1e-3, c2))),
    "jump": lambda F, G: (F, _with_piece(G, 1, lambda l, r, c0, c2: (l, r, c0 + 1e-6, c2))),
    "left outer endpoint": lambda F, G: (
        F, _with_piece(G, 0, lambda l, r, c0, c2: (l, r, c0 + 1e-6, c2))),
    "right outer endpoint": lambda F, G: (F, _with_piece(G, 3, _keep_left_raise_right)),
    "support gap": lambda F, G: (
        F, _with_piece(G, 2, lambda l, r, c0, c2: (l, r, c0 + 1e-6, c2))),
    "empty": lambda F, G: (F, PiecewiseQuadratic(())),
    "mass of F": lambda F, G: (_scaled(F, 1.5), G),
    "mass of G": lambda F, G: (F, _scaled(G, 1.0 + 1e-9)),
    "steady residual": lambda F, G: (G, F),
}


@pytest.mark.parametrize("k", [None, 0, 3, BATCH - 1], ids=lambda k: f"k={k}")
@pytest.mark.parametrize("case", BREAKS)
def test_each_broken_condition_raises_as_the_scalar_check(case, k):
    pp = _state()
    F, G = BREAKS[case](pp.F, pp.G)
    # a labelled batch was built by the package, so every failure is RuntimeError
    expect = _raised(lambda: check_pair_by_state(F, G, P, "zeta-large"))
    assert expect is not None and expect[0] is RuntimeError
    Fs, Gs = [F], [G]
    if k is not None:
        states = [cp.profile for cp in continue_curve(P, BATCH + 1) if cp.ell != 0.0]
        Fs, Gs = [s.F for s in states], [s.G for s in states]
        Fs[k], Gs[k] = F, G
    assert _raised(lambda: check_pairs(P, Fs, Gs, "zeta-large")) == expect
    if case != "steady residual":  # a pair built by hand: the same message, ValueError
        by_hand = _raised(lambda: check_pair_by_state(F, G, P))
        assert by_hand == (ValueError, expect[1])
        assert _raised(lambda: ProfilePair(F=F, G=G, params=P)) == by_hand
    for q in (F, G):
        assert _raised(lambda: _raise_field_failure(q)) == _raised(lambda: validate_by_loop(q))


def test_first_failing_state_wins_over_later_checks_of_later_states():
    states = [cp.profile for cp in continue_curve(P, BATCH + 1) if cp.ell != 0.0]
    Fs, Gs = [s.F for s in states], [s.G for s in states]
    Fs[3], Gs[3] = BREAKS["non-finite"](Fs[3], Gs[3])
    Fs[1], Gs[1] = BREAKS["steady residual"](Fs[1], Gs[1])
    expect = _raised(lambda: check_pair_by_state(Fs[1], Gs[1], P, "zeta-large"))
    assert expect[0] is RuntimeError
    assert _raised(lambda: check_pairs(P, Fs, Gs, "zeta-large")) == expect
    # without the steady residual state 1 passes, and state 3 fails first
    assert _raised(lambda: check_pairs(P, Fs, Gs)) == _raised(lambda: validate_by_loop(Gs[3]))


ZETA_BREAKS = {
    "non-finite": lambda z: (*z[:3], math.inf, *z[4:]),
    "ordering": lambda z: (z[0], z[1], z[3], z[2], z[4], z[5]),
    "system residual": lambda z: tuple(1.01 * v for v in z),
}


@pytest.mark.parametrize("p", TRIPLES, ids=lambda p: f"{p.R}-{p.R_mu}-{p.eta}")
@pytest.mark.parametrize("case", ZETA_BREAKS)
def test_each_broken_sextuplet_raises_as_the_scalar_check(case, p):
    zetas = [cp.zeta for cp in continue_curve(p, 7) if cp.ell != 0.0]
    bad = ZETA_BREAKS[case](zetas[2])
    expect = _raised(lambda: profile_from_zeta_by_state(p, bad))
    assert expect[0] is InvalidZetaError
    assert _raised(lambda: profile_from_zeta(p, bad)) == expect
