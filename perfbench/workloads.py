"""The three workloads: their seeded inputs, their operations and their checks.

A workload hands out one round of operations at a time.  Every operation
carries a class; operations of one class do equal work, and ``pass_counts``
says how many operations of each class make one pass over the inputs.  The
harness times each operation and calls ``collect`` with its result outside
the timed region.  Every call into muskat goes through a module attribute,
so the tracer's rebinding reaches it.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import numpy as np

from muskat import cli, fvm, profiles
from muskat.params import FluidParams, thresholds

import checks


class OperationFailed(Exception):
    pass


# ----------------------------------------------------------------------
# curves: `muskat curve -n 101` over seeded triples of all four classes
# ----------------------------------------------------------------------

CURVE_CLASSES = ("disconnected-large", "connected-large", "disconnected-small",
                 "connected-small")


def draw_curve_triple(rng: random.Random, kind: str) -> tuple[float, float, float]:
    """(R, R_mu, eta) inside the R_mu window of one continuum class.

    R and eta are log-uniform on [0.5, 4] and [0.7, 1.4]; R_mu sits between
    20 % and 80 % of its window, so no draw lands on a threshold.
    """
    R = float(np.exp(rng.uniform(np.log(0.5), np.log(4.0))))
    eta = float(np.exp(rng.uniform(np.log(0.7), np.log(1.4))))
    th = thresholds(FluidParams(R, 1.0, eta))
    u = rng.uniform(0.2, 0.8)
    if kind == "disconnected-large":
        Rmu = th.r_plus + u * (th.r_M - th.r_plus)
    elif kind == "connected-large":
        Rmu = th.r_M * (1.1 + u)
    elif kind == "disconnected-small":
        Rmu = th.r_m + u * (th.r_minus - th.r_m)
    else:
        Rmu = th.r_m * (0.3 + 0.6 * u)
    return R, float(Rmu), eta


def read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Curves:
    name = "curves"

    def __init__(self, seed: int, short: bool, out_dir: Path):
        rng = random.Random(seed)
        per_class = 1 if short else 2
        self.inputs = [draw_curve_triple(rng, kind)
                       for _ in range(per_class) for kind in CURVE_CLASSES]
        self.n_points = 21 if short else 101
        self.out_dir = out_dir
        self.pass_counts = {i: 1 for i in range(len(self.inputs))}
        self.outputs: dict[int, list[Path]] = {i: [] for i in self.pass_counts}
        self.bytes_written: dict[int, list[int]] = {i: [] for i in self.pass_counts}

    def ops(self, r: int):
        for i, (R, Rmu, eta) in enumerate(self.inputs):
            out = self.out_dir / f"r{r:03d}-i{i}"
            argv = ["curve", "--R", repr(R), "--R-mu", repr(Rmu), "--eta", repr(eta),
                    "-n", str(self.n_points), "--out-dir", str(out)]
            yield i, (lambda argv=argv: self._curve(argv)), out

    @staticmethod
    def _curve(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise OperationFailed(f"muskat {' '.join(argv)} exited {code}")

    def collect(self, r, cls, tag, result):
        self.outputs[cls].append(tag)
        self.bytes_written[cls].append(sum(p.stat().st_size for p in tag.iterdir()))

    def pass_figures(self) -> dict[str, float]:
        """Curve states, states solved by Newton, and bytes written per pass."""
        return {"curve_states": self.n_points * len(self.inputs),
                "interior_states": (self.n_points - 3) * len(self.inputs),
                "bytes_written": sum(float(np.mean(b)) for b in self.bytes_written.values())}

    def report(self) -> list[str]:
        return []

    def check(self) -> list[str]:
        problems = []
        for i, dirs in self.outputs.items():
            R, Rmu, eta = self.inputs[i]
            stem = f"curve_R{R:g}_Rmu{Rmu:g}_eta{eta:g}"
            first = dirs[0]
            problems += checks.check_curve(
                self.inputs[i], read_csv(first / f"{stem}.csv"),
                read_csv(first / f"{stem}_functionals.csv"), self.n_points)
            # later rounds must reproduce the first byte for byte
            for d in dirs[1:]:
                for suffix in (".csv", "_functionals.csv", "_endpoints.json"):
                    if (d / f"{stem}{suffix}").read_bytes() != (first / f"{stem}{suffix}").read_bytes():
                        problems.append(f"curve input {i}: {d.name}/{stem}{suffix} differs from round 0")
        return problems


# ----------------------------------------------------------------------
# chained simulations: one fvm.run per record interval
# ----------------------------------------------------------------------


class _Chains:
    """Simulations driven as chains of fvm.run calls, one record interval
    each.  The first interval of a chain also builds its initial state."""

    def __init__(self, grid, dt: float, steps: int, intervals: int):
        self.grid, self.dt, self.steps, self.intervals = grid, dt, steps, intervals
        self.x = grid.centers
        self.faces = grid.faces
        self.h = grid.h
        self._state = {}
        self.records = {}  # chain -> [(t, f, g)] of round 0
        self.finals = {}  # chain -> [(f, g)] at the end of each round

    def interval_config(self, params, reference=None):
        cfg = fvm.SimConfig(grid=self.grid, params=params, t_end=self.steps * self.dt,
                            dt=self.dt, record_every=self.steps, reference=reference)
        if int(round(cfg.t_end / cfg.dt)) != self.steps:
            raise ValueError("record interval is not a whole number of steps")
        return cfg

    def advance(self, chain, cfg, source, renormalize):
        state = self._state.get(chain)
        if state is None:
            state = fvm.init_state(source, self.grid, renormalize=renormalize)
        return fvm.run(cfg, state)

    def keep(self, r, chain, k, rep):
        self._state[chain] = None if k == self.intervals - 1 else rep.final
        recs = [(s.t, s.f, s.g) for s in (rep.states if k == 0 else rep.states[1:])]
        if r == 0:
            self.records.setdefault(chain, []).extend(recs)
        if k == self.intervals - 1:
            self.finals.setdefault(chain, []).append((rep.final.f, rep.final.g))

    def check_rounds(self) -> list[str]:
        problems = []
        for chain, finals in self.finals.items():
            f0, g0 = finals[0]
            if any(not (np.array_equal(f, f0) and np.array_equal(g, g0)) for f, g in finals[1:]):
                problems.append(f"{chain}: a later round ends in another state than round 0")
        return problems


class Rupture:
    """The README's `simulate` configuration, driven interval by interval.

    The bumps are built as exact piecewise quadratics, so the even datum is
    even to the last bit (the CLI's `bumps` uses Gauss quadrature, which is
    not).
    """

    name = "rupture"
    params = (1.0, 0.05, 1.0)

    def __init__(self, seed: int, short: bool, out_dir: Path):
        # the configuration is fixed; the seed selects nothing here
        dt, steps = (2e-4, 250) if short else (2e-5, 2500)
        self.chains = _Chains(fvm.Grid(n_cells=400), dt, steps, intervals=160)
        p = FluidParams(*self.params)
        self.cfg = self.chains.interval_config(p, profiles.even_profile(p))
        a = 2.0
        bump = profiles.PiecewiseQuadratic.from_pieces([(-a, a, 0.75 / a, -0.75 / a**3)])
        self.source = (bump, bump)
        self.pass_counts = {"head": 1, "body": self.chains.intervals - 1}

    def ops(self, r: int):
        for k in range(self.chains.intervals):
            yield ("head" if k == 0 else "body"), (
                lambda: self.chains.advance("rupture", self.cfg, self.source, False)), k

    def collect(self, r, cls, k, rep):
        self.chains.keep(r, "rupture", k, rep)

    def pass_figures(self) -> dict[str, float]:
        return {}

    def report(self) -> list[str]:
        return []

    def check(self) -> list[str]:
        c = self.chains
        return (checks.check_rupture(self.params, c.x, c.h, c.records["rupture"])
                + c.check_rounds())


SELECTION_TRIPLES = ((4.0, 0.7, 1.0), (4.0, 2.0, 1.0), (1.0, 10.0, 1.0), (1.0, 0.1, 1.0))


def _bump(center: float, halfwidth: float):
    c, a = center, halfwidth
    return lambda x: np.maximum(0.0, 0.75 / a * (1.0 - ((np.asarray(x) - c) / a) ** 2))


def diffusion_number(params, dt: float, h: float, f: np.ndarray, g: np.ndarray) -> float:
    """max dt lambda_max / h^2 over cells, lambda_max the largest eigenvalue of
    the mobility matrix [[(1+R) e2 f, R f], [e2 R_mu g, R_mu g]]; explicit
    Euler keeps cells non-negative while this stays at most 1/2."""
    R, Rmu, eta = params
    e2 = eta**2
    a11, a12, a21, a22 = (1.0 + R) * e2 * f, R * f, e2 * Rmu * g, Rmu * g
    tr, det = a11 + a22, a11 * a22 - a12 * a21
    lam = 0.5 * (tr + np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0)))
    return dt * float(np.max(lam)) / h**2


class Selection:
    """Skewed bumps and their mirror twins run towards the steady states.

    Half-widths of 1.3-1.8 (f) and 1.5-2.0 (g) keep the initial diffusion
    number below 0.45 at dt = 2e-4 for every triple; narrower g bumps at
    R_mu = 10 reach 0.58 and fail the positivity check.  The centres are
    drawn so that |M1(0)| >= 0.2: the fitted decay rate of a first moment
    that starts near zero says little about -1/3.
    """

    name = "selection"
    n_points = 41

    def __init__(self, seed: int, short: bool, out_dir: Path):
        rng = random.Random(seed)
        triples = SELECTION_TRIPLES[1::2] if short else SELECTION_TRIPLES
        dt, steps, t_end = 2e-4, 250, 3.0
        self.chains = _Chains(fvm.Grid(n_cells=200), dt, steps,
                              intervals=int(round(t_end / (dt * steps))))
        self.members = []
        self.references = {}
        self.max_diffusion_number = 0.0
        x = self.chains.x
        for tr in triples:
            p = FluidParams(*tr)
            self.references[tr] = profiles.continue_curve(p, self.n_points)
            cf, af = rng.uniform(0.3, 0.7), rng.uniform(1.3, 1.8)
            cg, ag = rng.uniform(-0.5, -0.2), rng.uniform(1.5, 2.0)
            while abs(cf + p.theta * cg) < 0.2:  # M1 at t = 0, kept off zero
                cg = rng.uniform(-0.5, -0.2)
            for twin in (1.0, -1.0):
                src = (_bump(twin * cf, af), _bump(twin * cg, ag))
                self.max_diffusion_number = max(
                    self.max_diffusion_number,
                    diffusion_number(tr, dt, self.chains.h, src[0](x), src[1](x)))
                self.members.append((tr, twin, src, self.chains.interval_config(p)))
        if self.max_diffusion_number > 0.45:
            raise ValueError(f"initial diffusion number {self.max_diffusion_number:.3f} > 0.45")
        self.nearest = {}  # member -> [(index, distance)] of round 0
        self.pass_counts = {}
        for m in range(len(self.members)):
            self.pass_counts[(m, "head")] = 1
            self.pass_counts[(m, "body")] = self.chains.intervals - 1

    def _nearest(self, tr, state):
        d = [fvm.l2_distance(state, cp.profile) for cp in self.references[tr]]
        i = int(np.argmin(d))
        return i, d[i]

    def _op(self, m, k):
        tr, _, src, cfg = self.members[m]
        rep = self.chains.advance(m, cfg, src, True)
        states = rep.states if k == 0 else rep.states[1:]
        return rep, [self._nearest(tr, s) for s in states]

    def ops(self, r: int):
        # interval-major, so that each member's operations spread over the
        # whole round instead of sitting in one stretch of it
        for k in range(self.chains.intervals):
            for m in range(len(self.members)):
                yield (m, "head" if k == 0 else "body"), (lambda m=m, k=k: self._op(m, k)), k

    def collect(self, r, cls, k, result):
        m = cls[0]
        rep, nearest = result
        self.chains.keep(r, m, k, rep)
        if r == 0:
            self.nearest.setdefault(m, []).extend(nearest)

    def pass_figures(self) -> dict[str, float]:
        return {}

    def report(self) -> list[str]:
        """The largest initial diffusion number, and the curve parameter of
        the state each member ends nearest to."""
        out = [f"max initial diffusion number {self.max_diffusion_number:.3f}"]
        for m, (tr, twin, _, _) in enumerate(self.members):
            i, d = self.nearest[m][-1]
            ell = self.references[tr][i].ell
            out.append(f"selected {tr} twin {twin:+.0f}: ell = {ell:+.4f} (state {i}, L2 {d:.3e})")
        return out

    def check(self) -> list[str]:
        c = self.chains
        problems = c.check_rounds()
        for m, (tr, twin, _, _) in enumerate(self.members):
            refs = [(cp.profile.F.pieces, cp.profile.G.pieces) for cp in self.references[tr]]
            problems += checks.check_member(f"selection {tr} twin {twin:+.0f}", tr, c.x, c.faces,
                                            c.records[m], self.nearest[m], refs)
            if twin < 0:
                a, b = self.chains.finals[m - 1][0], self.chains.finals[m][0]
                problems += checks.check_twins(f"selection {tr}", a, b)
        return problems


WORKLOADS = {w.name: w for w in (Curves, Rupture, Selection)}
