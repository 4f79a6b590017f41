"""Command-line front end: thresholds, profile, curve, simulate, verify.

All numeric output is written with 17 significant digits so that re-running
a command reproduces byte-identical files.  Exit codes: 0 success, 2 usage
(including a simulate config that lacks a parameter, holds an unknown key,
whose t_end is not a whole number of steps, or whose profiles or bumps leave
the grid), 3 regime error, 4 numerical failure.  A simulation stopped by a
step guard still writes the records it finished, with a manifest whose
"error" names the guard, and exits 4.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__, functionals, fvm, profiles
from .numerics import NumericsError
from .params import ContinuumClass, FluidParams, classify_regime, require_number, thresholds
from .profiles import InvalidZetaError, RegimeError

_FMT = "%.17g"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REGIME = 3
EXIT_NUMERICAL = 4


def _write_csv(path: Path, header: list[str], rows, row_fmt: str | None = None) -> None:
    row_fmt = row_fmt or ",".join([_FMT] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write("".join([",".join(header) + "\n", *[row_fmt % tuple(row) for row in rows]]))


def _out_dir(args) -> Path:
    root = args.out_dir or os.environ.get("MUSKAT_OUT_DIR") or "."
    d = Path(root)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _write_json(path: Path, obj, **kw) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, **kw)
        fh.write("\n")


def _write_manifest(args, out: Path, outputs: list[Path], p: FluidParams, **extra) -> None:
    _write_json(out / f"manifest_{args.command}.json", {
        "command": args.command,
        "argv": args.argv,
        "version": __version__,
        "outputs": [str(q) for q in outputs],
        "wall_time_s": time.time() - args.t0,
        "params": dataclasses.asdict(p),
        **extra,
    }, sort_keys=True)


def _params_from_args(args) -> FluidParams:
    # argparse already rejects non-positive flags; this guards direct calls
    return FluidParams(R=args.R, R_mu=getattr(args, "R_mu", 1.0), eta=args.eta)


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _unimodal(sigmas, es: np.ndarray) -> bool:
    """Whether E* along a curve sorted by sigma, of odd length, is exactly
    even about its centre, where |sigma| <= 1e-12, and falls strictly
    towards it: so it changes direction once, at its least value."""
    c = len(es) // 2
    return (len(es) % 2 == 1 and abs(sigmas[c]) <= 1e-12 and np.array_equal(es, es[::-1])
            and bool(np.all(np.diff(es[:c + 1]) < 0.0)))


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_thresholds(args) -> int:
    p = _params_from_args(args)
    th = thresholds(p)
    payload = {
        "R": p.R,
        "eta": p.eta,
        "r_m": th.r_m,
        "r_minus": th.r_minus,
        "r0": th.r0,
        "r_plus": th.r_plus,
        "r_M": th.r_M,
        "regime_boundaries": {
            "unique_even": [th.r_minus, th.r_plus],
            "disconnected_endpoints": [[th.r_m, th.r_minus], [th.r_plus, th.r_M]],
            "connected_endpoints": [[0.0, th.r_m], [th.r_M, None]],
        },
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_profile(args) -> int:
    p = _params_from_args(args)
    if args.kind == "even":
        pp = profiles.even_profile(p)
    elif args.kind == "connected":
        pp = profiles.connected_profile(p, side=args.side)
    elif args.kind == "curve-endpoint":
        pp = profiles.boundary_disconnected_profile(p, side=args.side).profile
    else:
        return _usage_error(f"unknown kind {args.kind!r}")

    out = _out_dir(args)
    stem = f"profile_{args.kind}_R{args.R:g}_Rmu{args.R_mu:g}_eta{args.eta:g}"
    json_path = out / f"{stem}.json"
    _write_json(json_path, profiles.profile_to_dict(pp))
    csv_path = out / f"{stem}.csv"
    _write_csv(csv_path, ["x", "F", "G", "eta2F_plus_G"],
               profiles.sample_profile(pp, n=args.n_samples))

    rep = functionals.evaluate(pp, p)
    print(json.dumps({
        "label": pp.label,
        "support_F": [list(iv) for iv in pp.support_F],
        "support_G": [list(iv) for iv in pp.support_G],
        "n_components_F": len(pp.support_F),
        "n_components_G": len(pp.support_G),
        "energy": rep.energy,
        "rescaled_energy": rep.rescaled_energy,
        "M1": rep.m1,
        "M2": rep.m2,
        "entropy": rep.entropy,
        "steady_residual": profiles.steady_residual(pp),
    }, indent=2))
    _write_manifest(args, out, [json_path, csv_path], p)
    return EXIT_OK


def cmd_curve(args) -> int:
    p = _params_from_args(args)
    curve = profiles.continue_curve(p, n_points=args.n_points)
    reports = functionals.curve_reports(curve)

    es = np.array([rep.rescaled_energy for rep in reports])
    if not _unimodal([cp.ell for cp in curve], es):
        raise NumericsError("curve energy is not unimodal with minimum at sigma = 0")
    i_min = int(np.argmin(es))

    out = _out_dir(args)
    stem = f"curve_R{args.R:g}_Rmu{args.R_mu:g}_eta{args.eta:g}"
    csv_path = out / f"{stem}.csv"
    header = ["sigma", "gamma1", "beta1", "alpha1", "alpha", "beta", "gamma", "E_star"]
    # sigma and E_* are in both CSVs: each is formatted once, and written by %s
    both = [(_FMT % cp.ell, _FMT % rep.rescaled_energy) for cp, rep in zip(curve, reports)]
    _write_csv(csv_path, header, [(s, *cp.zeta, e) for (s, e), cp in zip(both, curve)],
               "%s," + ",".join([_FMT] * 6) + ",%s\n")

    fn_path = out / f"{stem}_functionals.csv"
    _write_csv(fn_path, ["sigma", "E", "E_star", "M1", "M2", "H"],
               [(s, rep.energy, e, rep.m1, rep.m2, rep.entropy)
                for (s, e), rep in zip(both, reports)],
               f"%s,{_FMT},%s,{_FMT},{_FMT},{_FMT}\n")

    kind = profiles.curve_endpoint_kind(p)
    report = {
        "n_points": len(curve),
        "sigma_minus": curve[0].ell,
        "sigma_plus": curve[-1].ell,
        "endpoint_kind": kind,
        "E_star_min": float(es[i_min]),
        "E_star_min_at_sigma": curve[i_min].ell,
        "endpoints": {
            "lower": {"zeta": list(curve[0].zeta), "label": kind},
            "upper": {"zeta": list(curve[-1].zeta), "label": kind},
        },
    }
    json_path = out / f"{stem}_endpoints.json"
    text = json.dumps(report, indent=2) + "\n"  # the file's bytes are stdout's
    json_path.write_text(text)
    print(text, end="")
    _write_manifest(args, out, [csv_path, fn_path, json_path], p)
    return EXIT_OK


def _bump(c: float, a: float):
    return lambda x: np.maximum(0.0, 0.75 / a * (1.0 - ((np.asarray(x) - c) / a) ** 2))


# every simulate config key; each number goes to the dataclass that checks it
_PARAM_KEYS = ("R", "R_mu", "eta")
_GRID_KEYS = ("n_cells", "x_left", "x_right")
_RUN_KEYS = ("t_end", "dt", "record_every")
_CONFIG_KEYS = {*_PARAM_KEYS, *_GRID_KEYS, *_RUN_KEYS,
                "initial", "reference", "snapshot_every_records"}
_INITIAL_KEYS = {"even-profile": {"kind"},
                 "bumps": {"kind", "center_f", "halfwidth_f", "center_g", "halfwidth_g"}}


def _reject_unknown(keys, known, where: str) -> None:
    unknown = sorted(set(keys) - known)
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")


def _simulation_from_config(cfg) -> tuple[fvm.SimConfig, fvm.SimState, int | None]:
    """The run, initial state and snapshot stride of a config, all checked first."""
    if not isinstance(cfg, dict):
        raise ValueError("config is not a JSON object")
    _reject_unknown(cfg, _CONFIG_KEYS, "config")
    missing = [k for k in (*_PARAM_KEYS, "t_end") if k not in cfg]
    if missing:
        raise ValueError(f"config lacks {', '.join(missing)}")
    spec = cfg.get("initial", {"kind": "even-profile"})
    if not isinstance(spec, dict):
        raise ValueError(f"initial must be a JSON object, got {spec!r}")
    kind = spec.get("kind", "even-profile")
    if not isinstance(kind, str) or kind not in _INITIAL_KEYS:
        raise ValueError(f"unknown initial-condition kind {kind!r}")
    _reject_unknown(spec, _INITIAL_KEYS[kind], f"initial {kind}")
    reference = cfg.get("reference", "even-profile")
    if reference not in ("even-profile", "none"):
        raise ValueError(f'reference must be "even-profile" or "none", got {reference!r}')
    snap_every = cfg.get("snapshot_every_records")
    if "snapshot_every_records" in cfg:
        require_number("snapshot_every_records", snap_every, integer=True)
        if snap_every < 1:
            raise ValueError(f"snapshot_every_records must be at least 1, got {snap_every}")

    def given(keys):
        return {k: cfg[k] for k in keys if k in cfg}

    p = FluidParams(**given(_PARAM_KEYS))
    grid = fvm.Grid(**{"n_cells": 400, **given(_GRID_KEYS)})
    even = profiles.even_profile(p) if "even-profile" in (kind, reference) else None
    sim_cfg = fvm.SimConfig(grid=grid, params=p, **given(_RUN_KEYS),
                            reference=even if reference == "even-profile" else None)
    if kind == "even-profile":
        return sim_cfg, fvm.init_state(even, grid), snap_every
    bumps = []
    for name in ("f", "g"):
        c, a = spec.get(f"center_{name}", 0.0), spec.get(f"halfwidth_{name}", 2.0)
        require_number(f"center_{name}", c)
        require_number(f"halfwidth_{name}", a)
        if not a > 0.0:
            raise ValueError(f"halfwidth_{name} must be positive, got {a}")
        # quadrature would clip a bump that leaves the grid, and
        # renormalizing would hide the lost mass
        if c - a < grid.x_left or c + a > grid.x_right:
            raise fvm.SupportOutsideDomainError(
                f"bump {name} on [{c - a:.4g}, {c + a:.4g}] leaves the domain "
                f"[{grid.x_left}, {grid.x_right}]")
        bumps.append(_bump(c, a))
    return sim_cfg, fvm.init_state(tuple(bumps), grid, renormalize=True), snap_every


def cmd_simulate(args) -> int:
    try:
        raw = Path(args.config).read_bytes()
        cfg = json.loads(raw)
    except (OSError, json.JSONDecodeError) as exc:
        return _usage_error(f"cannot read config {args.config}: {exc}")
    sim_cfg, state, snap_every = _simulation_from_config(cfg)
    out = _out_dir(args)
    try:
        rep, error = fvm.run(sim_cfg, state), None
    except (fvm.CflViolationError, fvm.NegativeCellError) as exc:
        # write the records finished before the guard fired, then exit 4
        rep, error = exc.report, exc

    outputs = [out / "trajectory.csv"]
    _write_csv(outputs[0], ["t", *rep.data], np.column_stack([rep.times, *rep.data.values()]))

    snap_every = snap_every or max(1, len(rep.states) // 8)
    e2 = sim_cfg.params.eta**2
    for s in rep.states[::snap_every]:
        # the step count keeps records closer than the printed t apart
        path = out / f"snapshot_t{s.t:.6f}_step{s.step_count}.csv"
        _write_csv(path, ["x_i", "f_i", "g_i", "eta2f_plus_g"],
                   np.column_stack([sim_cfg.grid.centers, s.f, s.g, e2 * s.f + s.g]))
        outputs.append(path)

    import hashlib  # here, not at the top: only simulate maps OpenSSL's libcrypto
    _write_manifest(args, out, outputs, sim_cfg.params, config=cfg,
                    config_sha256=hashlib.sha256(raw).hexdigest(),
                    **({} if error is None else {"error": str(error)}))
    if error is not None:
        raise error
    ncf = rep.data["n_components_f"]
    summary = {
        "t_end": rep.times[-1],
        "mass_f_drift": float(np.max(np.abs(rep.data["mass_f"] - rep.data["mass_f"][0]))),
        "rupture_f": bool(np.any(ncf > ncf[0])),
        "first_f_split_t": float(rep.times[np.argmax(ncf > ncf[0])]) if np.any(ncf > ncf[0]) else None,
        "final_l2_dist": (None if sim_cfg.reference is None  # NaN is not JSON
                          else float(rep.data["l2_dist"][-1])),
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_verify(args) -> int:
    p = _params_from_args(args)
    th = thresholds(p)
    regime = classify_regime(p)
    checks: dict[str, bool] = {}

    def attempt(fn, *args):
        """fn(*args), or the exception it raised."""
        try:
            return fn(*args)
        except Exception as exc:  # report, never crash the battery
            return exc

    def check(name: str, fn, state=None) -> None:
        # a state that failed to build fails each of its checks with its error
        result = state if isinstance(state, Exception) else attempt(lambda: bool(fn(state)))
        if isinstance(result, Exception):
            print(f"  [{name}] raised {type(result).__name__}: {result}", file=sys.stderr)
        checks[name] = result is True

    check("threshold-ordering",
          lambda _: th.r_m < th.r_minus < th.r0 < th.r_plus < th.r_M)

    def even_checks(pp):
        rep = functionals.evaluate(pp, p)
        return (abs(pp.F.mass() - 1) < 1e-10 and abs(pp.G.mass() - 1) < 1e-10
                and profiles.steady_residual(pp) < 1e-9
                and abs(rep.m1) < 1e-10
                and abs(rep.m2 - 2 * rep.rescaled_energy) < 1e-9
                and abs(rep.rescaled_energy - 1.5 * rep.energy) < 1e-9)

    def dual_checks(pp):
        dd = profiles.dual_transform(profiles.dual_transform(pp))
        return all(
            abs(a - b) < 1e-12
            for q1, q2 in ((pp.F, dd.F), (pp.G, dd.G))
            for pc, qc in zip(q1.pieces, q2.pieces)
            for a, b in zip(pc, qc))

    even = attempt(profiles.even_profile, p)
    check("even-profile", even_checks, even)
    check("duality-involution", dual_checks, even)

    if regime.continuum is not ContinuumClass.UNIQUE_EVEN:
        def curve_checks(curve):
            sigmas, es = zip(*functionals.energy_along_curve(curve))
            return _unimodal(sigmas, np.array(es))

        curve = attempt(profiles.continue_curve, p, 21)
        check("curve-energy-unimodal", curve_checks, curve)
        connected = regime.continuum is ContinuumClass.CONNECTED_ENDPOINTS
        # the curve's first state is bitwise the continuum's 'right' end, of
        # either class; only a curve that failed leaves the end to build
        end = curve[0].profile if not isinstance(curve, Exception) else attempt(
            lambda: profiles.connected_profile(p) if connected
            else profiles.boundary_disconnected_profile(p).profile)
        check("connected-profile" if connected else "boundary-profile",
              lambda pp: profiles.steady_residual(pp) < 1e-9, end)

    ok = all(checks.values())
    for name, passed in checks.items():
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
    print(json.dumps({"params": dataclasses.asdict(p),
                      "regime": {"even_case": regime.even_case.name,
                                 "continuum": regime.continuum.value},
                      "all_passed": ok}, indent=2))
    return EXIT_OK if ok else EXIT_NUMERICAL


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def _positive(value: str) -> float:
    x = float(value)
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"{value!r} is not a positive number")
    return x


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once; parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="muskat",
                                 description="Self-similar profiles and upwind "
                                             "finite-volume runs for the two-layer "
                                             "thin-film system")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, func, flags=("--R", "--R-mu", "--eta")):
        """The subcommand's parser, running func; it takes the parameter flags
        first, each a positive number ("--R-mu" is stored as R_mu)."""
        cmd = sub.add_parser(name, help=help)
        cmd.set_defaults(func=func)
        for flag in flags:
            cmd.add_argument(flag, type=_positive, required=True)
        return cmd

    command("thresholds", "print the five critical viscosity ratios", cmd_thresholds,
            ("--R", "--eta"))

    pr = command("profile", "construct one steady profile", cmd_profile)
    pr.add_argument("--kind", choices=["even", "connected", "curve-endpoint"],
                    default="even")
    pr.add_argument("--side", choices=["left", "right"], default="right")
    pr.add_argument("-n", "--n-samples", type=int, default=1001)
    pr.add_argument("--out-dir", default=None)

    cv = command("curve", "trace the continuation curve of steady states", cmd_curve)
    cv.add_argument("-n", "--n-points", type=int, default=101,
                    help="number of states, odd and at least 5 (else a usage error, "
                         "exit 2): the even state at the centre, sigma = 0")
    cv.add_argument("--out-dir", default=None)

    sim = command("simulate", "run the upwind finite-volume scheme", cmd_simulate, ())
    sim.add_argument("--config", required=True)
    sim.add_argument("--out-dir", default=None)

    command("verify", "run the invariant battery for one triple", cmd_verify)

    return ap


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors already
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    args.argv, args.t0 = argv, time.time()  # recorded in the manifests
    try:
        return args.func(args)
    except (RegimeError, InvalidZetaError) as exc:
        print(f"regime error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except (NumericsError, fvm.CflViolationError, fvm.NegativeCellError,
            functionals.MismatchError, RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, fvm.SupportOutsideDomainError) as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
