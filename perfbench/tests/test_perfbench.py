"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import checks  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from muskat import fvm  # noqa: E402


def run_rounds(wl, rounds=1):
    for r in range(rounds):
        for cls, fn, tag in wl.ops(r):
            wl.collect(r, cls, tag, fn())
    return wl


@pytest.mark.parametrize("name", ["curves", "rupture", "selection"])
def test_short_mode_passes_its_checks(name, tmp_path):
    result, lines, _, _ = harness.measure(name, 5, 0.0, False, tmp_path, short=True)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] > 0
    assert result["metrics"]["pass_s"]["value"] > 0.0


def test_traced_short_run_reports_every_layer_metric(tmp_path):
    result, lines, run_dir, _ = harness.measure("selection", 2, 0.0, True, tmp_path, short=True)
    assert result["correct"], lines
    assert [m for m, _ in harness.LAYER_METRICS] == list(result["metrics"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # one pass: 4 members x 60 intervals x 250 steps, 61 scans of 41 states each
    assert m["fvm.step.calls"] == 4 * 60 * 250
    assert m["fvm.l2_distance.calls"] == 4 * 61 * 41
    assert m["fvm.cell_averages.calls"] == 2 * m["fvm.l2_distance.calls"]
    # 2 triples x 41 states x (F, G) distinct profiles
    assert m["fvm.cell_averages.repeat_ratio"] == m["fvm.cell_averages.calls"] / (2 * 41 * 2)
    assert m["setup.profiles.steady_residual_fields.calls"] > 0
    assert (run_dir / "spans.npz").is_file()


def test_failed_setup_probe_still_prints_a_result(tmp_path, monkeypatch, capsys):
    def timed_out(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run.subprocess, "run", timed_out)
    assert run.setup_seconds("curves", 1) is None
    code = run.main(["--workload", "curves", "--seed", "1", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and not result["correct"]
    assert result["attempted"] > 0 and result["failed"] == 0
    assert "setup_s" not in result["metrics"] and "pass_s" in result["metrics"]


def test_rupture_chain_is_bitwise_a_single_run(tmp_path):
    wl = workloads.Rupture(0, False, tmp_path)
    intervals = 8  # t = 0.4
    states = []
    for k, (cls, fn, tag) in zip(range(intervals), wl.ops(0)):
        rep = fn()
        wl.collect(0, cls, tag, rep)
        states += rep.states if k == 0 else rep.states[1:]
    cfg = wl.cfg
    single = fvm.SimConfig(grid=cfg.grid, params=cfg.params, t_end=intervals * cfg.t_end,
                           dt=cfg.dt, record_every=cfg.record_every, reference=cfg.reference)
    rep = fvm.run(single, fvm.init_state(wl.source, cfg.grid))
    assert len(rep.states) == len(states) == intervals + 1
    for a, b in zip(rep.states, states):
        assert a.t == b.t and np.array_equal(a.f, b.f) and np.array_equal(a.g, b.g)


@pytest.fixture(scope="module")
def curves_output(tmp_path_factory):
    wl = run_rounds(workloads.Curves(4, True, tmp_path_factory.mktemp("curves")))
    i = 0
    R, Rmu, eta = wl.inputs[i]
    stem = wl.outputs[i][0] / f"curve_R{R:g}_Rmu{Rmu:g}_eta{eta:g}"
    rows = workloads.read_csv(Path(f"{stem}.csv"))
    fn_rows = workloads.read_csv(Path(f"{stem}_functionals.csv"))
    assert checks.check_curve(wl.inputs[i], rows, fn_rows, wl.n_points) == []
    return wl.inputs[i], rows, fn_rows, wl.n_points


@pytest.mark.parametrize("where", ["sextuplet", "order", "E_star", "M1", "M2", "endpoint"])
def test_curve_checker_rejects_a_perturbed_output(curves_output, where):
    params, rows, fn_rows, n = curves_output
    rows, fn_rows = rows.copy(), fn_rows.copy()
    mid = n // 2 + 2
    if where == "sextuplet":
        rows[mid, 4] *= 1.0 + 1e-8  # alpha
    elif where == "order":
        rows[mid, 2], rows[mid, 3] = rows[mid, 3], rows[mid, 2]
    elif where == "E_star":
        rows[mid, 7] = rows[:, 7].min() - 1e-3  # a second minimum
    elif where == "M1":
        fn_rows[mid, 3] = 1e-9
    elif where == "M2":
        fn_rows[mid, 4] += 1e-8
    else:
        rows[-1, 1] += 1e-8
    assert checks.check_curve(params, rows, fn_rows, n)


@pytest.fixture(scope="module")
def rupture_records(tmp_path_factory):
    wl = run_rounds(workloads.Rupture(0, True, tmp_path_factory.mktemp("rupture")))
    c = wl.chains
    records = c.records["rupture"]
    assert checks.check_rupture(wl.params, c.x, c.h, records) == []
    return wl.params, c.x, c.h, records


@pytest.mark.parametrize("where", ["symmetry", "mass", "negative", "energy", "no-split"])
def test_rupture_checker_rejects_a_perturbed_output(rupture_records, where):
    params, x, h, records = rupture_records
    records = [(t, f.copy(), g.copy()) for t, f, g in records]
    t, f, g = records[40]
    if where == "symmetry":
        f[150] = np.nextafter(f[150], 1.0)
    elif where == "mass":
        g *= 1.0 + 1e-11
    elif where == "negative":
        f[0] = -1e-300
    elif where == "energy":
        f += 1e-3 * f.max() * (np.abs(x) < 0.5)
    else:
        records = [r for r in records if checks.components(r[1]) < 2]
    assert checks.check_rupture(params, x, h, records)


@pytest.fixture(scope="module")
def selection_run(tmp_path_factory):
    wl = run_rounds(workloads.Selection(1, True, tmp_path_factory.mktemp("selection")))
    assert wl.check() == []
    return wl


@pytest.mark.parametrize("where", ["distance-rises", "distance-wrong", "twin", "rate", "mass"])
def test_selection_checker_rejects_a_perturbed_output(selection_run, where):
    wl = selection_run
    c = wl.chains
    tr = wl.members[0][0]
    refs = [(cp.profile.F.pieces, cp.profile.G.pieces) for cp in wl.references[tr]]
    records = [(t, f.copy(), g.copy()) for t, f, g in c.records[0]]
    nearest = list(wl.nearest[0])
    if where == "distance-rises":
        i, d = nearest[5]
        nearest[5] = (i, nearest[4][1] * (1.0 + 1e-9))
    elif where == "distance-wrong":
        i, d = nearest[-1]
        nearest[-1] = (i, d + 1e-10)
    elif where == "twin":
        f, g = c.finals[1][0]
        twin = (f.copy(), g.copy())
        twin[1][120] += 1e-11
        assert checks.check_twins("t", c.finals[0][0], twin)
        return
    elif where == "rate":
        records = [(t, f, g) for t, f, g in records[: len(records) // 4]]
        records = [(2.0 * t, f, g) for t, f, g in records]
        nearest = nearest[: len(records)]
    else:
        records[7][2][100] *= 1.0 + 1e-6
    assert checks.check_member("m", tr, c.x, c.faces, records, nearest, refs)
