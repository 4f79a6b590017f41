"""Command-line interface: outputs, exit codes, manifest reproducibility."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from muskat.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_REGIME, EXIT_USAGE, _unimodal, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


DECOY_ARGV = ["host-program", "--not", "a", "muskat", "command"]


def test_thresholds_stdout(capsys):
    code, out, _ = run_cli(capsys, "thresholds", "--R", "1", "--eta", "1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["r_minus"] == 0.2
    assert payload["r0"] == 1.5
    assert payload["r_plus"] == 5.0
    assert abs(payload["r_M"] - 12.258) < 1e-3
    assert abs(payload["r_m"] - 0.058) < 1e-3


def test_thresholds_ordering_other_eta(capsys):
    code, out, _ = run_cli(capsys, "thresholds", "--R", "1", "--eta", "0.5")
    payload = json.loads(out)
    vals = [payload[k] for k in ("r_m", "r_minus", "r0", "r_plus", "r_M")]
    assert code == EXIT_OK and vals == sorted(vals)


def test_thresholds_of_small_R_large_eta(capsys):
    # both threshold cross-checks are scaled to their equations' terms, so
    # this point passes them
    code, out, _ = run_cli(capsys, "thresholds", "--R", "0.001", "--eta", "15.117750706156615")
    assert code == EXIT_OK
    payload = json.loads(out)
    vals = [payload[k] for k in ("r_m", "r_minus", "r0", "r_plus", "r_M")]
    assert vals == sorted(vals)


def test_thresholds_usage_error(capsys):
    code, _, _ = run_cli(capsys, "thresholds", "--R", "0", "--eta", "1")
    assert code == EXIT_USAGE


def test_profile_even_files(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", DECOY_ARGV)
    argv = ["profile", "--R", "1", "--R-mu", "10", "--eta", "1",
            "--kind", "even", "--out-dir", str(tmp_path)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    info = json.loads(out)
    assert info["label"] == "even-case3"
    assert info["n_components_G"] == 2
    assert info["steady_residual"] < 1e-9
    files = {p.name for p in tmp_path.iterdir()}
    assert "profile_even_R1_Rmu10_eta1.json" in files
    assert "profile_even_R1_Rmu10_eta1.csv" in files
    assert "manifest_profile.json" in files
    manifest = json.loads((tmp_path / "manifest_profile.json").read_text())
    assert len(manifest["outputs"]) == 2
    assert manifest["argv"] == argv


def test_profile_connected(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "profile", "--R", "1", "--R-mu", "21", "--eta", "1",
                           "--kind", "connected", "--side", "right",
                           "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    info = json.loads(out)
    assert info["n_components_F"] == 1 and info["n_components_G"] == 1
    assert abs(info["M1"]) < 1e-10


@pytest.mark.parametrize("rmu", ["21", "40", "100", "0.03", "0.01"])
def test_connected_profile_energy_is_the_curve_ends(tmp_path, capsys, rmu):
    # 'right' is the curve's first state and 'left' its last, so each
    # prints the E_* of that row of the curve's functionals CSV
    triple = ["--R", "1", "--R-mu", rmu, "--eta", "1", "--out-dir", str(tmp_path)]
    assert run_cli(capsys, "curve", *triple, "-n", "21")[0] == EXIT_OK
    rows = (tmp_path / f"curve_R1_Rmu{rmu}_eta1_functionals.csv").read_text().splitlines()
    assert rows[0].split(",")[2] == "E_star"
    for side, row in (("right", rows[1]), ("left", rows[-1])):
        code, out, _ = run_cli(capsys, "profile", *triple, "--kind", "connected", "--side", side)
        assert code == EXIT_OK
        assert json.loads(out)["rescaled_energy"] == float(row.split(",")[2])


def test_profile_regime_error_exit_3(tmp_path, capsys):
    code, _, err = run_cli(capsys, "profile", "--R", "1", "--R-mu", "3", "--eta", "1",
                           "--kind", "connected", "--out-dir", str(tmp_path))
    assert code == EXIT_REGIME
    assert "12.258" in err  # names the admissible window


def test_profile_regime_error_leaves_no_out_dir(tmp_path, capsys):
    out = tmp_path / "x"
    code, _, _ = run_cli(capsys, "profile", "--R", "1", "--R-mu", "2", "--eta", "1",
                         "--kind", "connected", "--out-dir", str(out))
    assert code == EXIT_REGIME
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["curve", "-n", "7"], ["profile", "--kind", "connected"]], ids=["curve", "connected"])
def test_a_built_state_that_fails_its_mass_check_is_a_numerical_failure(tmp_path, capsys, argv):
    # G's mass misses 1 by 1.04e-10 on this connected endpoint: the package
    # built the state, so this is exit 4, not the usage code 2
    code, _, err = run_cli(capsys, *argv, "--R", "20", "--R-mu", "21.010048977205354",
                           "--eta", "20", "--out-dir", str(tmp_path / "out"))
    assert code == EXIT_NUMERICAL and "masses must be 1" in err


@pytest.mark.parametrize("argv", [
    ["thresholds", "--R", "1", "--eta", "1e80"],
    ["thresholds", "--R", "1", "--eta", "1e-80"],
    ["thresholds", "--R", "1", "--eta", "1e-300"],
    ["verify", "--R", "1e300", "--R-mu", "1", "--eta", "1"],
    ["profile", "--R", "1", "--R-mu", "1e300", "--eta", "1", "--kind", "connected"]])
def test_overflow_on_extreme_parameters_is_a_numerical_failure(tmp_path, capsys, monkeypatch,
                                                               argv):
    # an OverflowError or ZeroDivisionError is exit 4 with one line, not a
    # traceback, and no output directory is made
    out = tmp_path / "out"
    monkeypatch.setenv("MUSKAT_OUT_DIR", str(out))
    if argv[0] == "profile":
        argv = argv + ["--out-dir", str(out)]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == EXIT_NUMERICAL and stdout == ""
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("eta, pair", [("5011872.336272735", "r_plus = 1001.0000000000001, r_M"),
                                       ("1.9952623149688787e-07", "r_m = 999.9999999999999, r_minus")])
def test_thresholds_that_round_to_one_value_are_a_numerical_failure(capsys, eta, pair):
    code, out, err = run_cli(capsys, "thresholds", "--R", "1000", "--eta", eta)
    assert code == EXIT_NUMERICAL and out == ""
    assert "not strictly ordered" in err and pair in err


def test_curve_usage_error_leaves_no_out_dir(tmp_path, capsys):
    out = tmp_path / "curve_even"
    code, _, err = run_cli(capsys, "curve", "--R", "1", "--R-mu", "10", "--eta", "1",
                           "-n", "20", "--out-dir", str(out))
    assert code == EXIT_USAGE and "odd" in err
    assert not out.exists()


def test_curve_command(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", DECOY_ARGV)
    argv = ["curve", "--R", "1", "--R-mu", "10", "--eta", "1",
            "-n", "21", "--out-dir", str(tmp_path)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["n_points"] == 21
    assert rep["E_star_min_at_sigma"] == 0.0
    assert rep["sigma_minus"] == -rep["sigma_plus"] < 0.0
    assert rep["endpoint_kind"] == "alpha-zero"
    body = (tmp_path / "curve_R1_Rmu10_eta1.csv").read_text().splitlines()
    assert body[0].startswith("sigma,gamma1,beta1,alpha1,alpha,beta,gamma,E_star")
    assert len(body) == 22
    fn = (tmp_path / "curve_R1_Rmu10_eta1_functionals.csv").read_text().splitlines()
    assert fn[0] == "sigma,E,E_star,M1,M2,H"
    assert len(fn) == 22
    manifest = json.loads((tmp_path / "manifest_curve.json").read_text())
    assert manifest["argv"] == argv


@pytest.mark.parametrize("rmu", ["10", "40", "0.1", "0.03"])
def test_curve_stdout_is_the_endpoints_file_byte_for_byte(tmp_path, capsys, rmu):
    code, out, _ = run_cli(capsys, "curve", "--R", "1", "--R-mu", rmu, "--eta", "1",
                           "-n", "21", "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    assert out.encode() == (tmp_path / f"curve_R1_Rmu{rmu}_eta1_endpoints.json").read_bytes()


@pytest.mark.parametrize("n", ["20", "3", "0"])
def test_curve_n_points_not_odd_and_at_least_5_is_a_usage_error(tmp_path, capsys, n):
    code, _, err = run_cli(capsys, "curve", "--R", "1", "--R-mu", "10", "--eta", "1",
                           "-n", n, "--out-dir", str(tmp_path))
    assert code == EXIT_USAGE
    assert f"n_points must be odd and at least 5, got {n}" in err
    assert not list(tmp_path.glob("curve_*"))


def test_curve_regime_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "curve", "--R", "1", "--R-mu", "1", "--eta", "1",
                           "--out-dir", str(tmp_path))
    assert code == EXIT_REGIME
    assert "[0.2, 5]" in err


def test_curve_endpoint_labels(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "curve", "--R", "1", "--R-mu", "21", "--eta", "1",
                           "-n", "11", "--out-dir", str(tmp_path))
    rep = json.loads(out)
    assert code == EXIT_OK and rep["endpoint_kind"] == "connected-support"


def test_simulate_and_manifest_reproducibility(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", DECOY_ARGV)
    cfg = {
        "R": 1.0, "R_mu": 2.0, "eta": 1.0,
        "n_cells": 60, "dt": 1e-4, "t_end": 0.02, "record_every": 50,
        "initial": {"kind": "even-profile"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    argv1 = ["simulate", "--config", str(cfg_path), "--out-dir", str(out1)]
    code, summary, _ = run_cli(capsys, *argv1)
    assert code == EXIT_OK
    info = json.loads(summary)
    assert info["mass_f_drift"] < 1e-12
    code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg_path),
                         "--out-dir", str(out2))
    assert code == EXIT_OK
    # bit-identical CSV bodies on re-run
    b1 = (out1 / "trajectory.csv").read_bytes()
    b2 = (out2 / "trajectory.csv").read_bytes()
    assert b1 == b2
    snaps1 = sorted(p.name for p in out1.glob("snapshot_t*.csv"))
    snaps2 = sorted(p.name for p in out2.glob("snapshot_t*.csv"))
    assert snaps1 == snaps2 and snaps1
    for name in snaps1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = json.loads((out1 / "manifest_simulate.json").read_text())
    assert manifest["config_sha256"] == json.loads(
        (out2 / "manifest_simulate.json").read_text())["config_sha256"]
    # the digest is that of the config file's bytes, computed here independently
    assert manifest["config_sha256"] == hashlib.sha256(cfg_path.read_bytes()).hexdigest()
    assert manifest["argv"] == argv1


def test_simulate_rupture_logged(tmp_path, capsys):
    # reduced-scale film-rupture run through the CLI surface
    cfg = {
        "R": 1.0, "R_mu": 0.05, "eta": 1.0,
        "n_cells": 200, "dt": 5e-5, "t_end": 8.0, "record_every": 8000,
        "initial": {"kind": "bumps", "center_f": 0.0, "halfwidth_f": 2.0,
                    "center_g": 0.0, "halfwidth_g": 2.0},
    }
    cfg_path = tmp_path / "rupture.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg_path),
                           "--out-dir", str(tmp_path / "out"))
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary["rupture_f"] is True
    assert summary["first_f_split_t"] is not None
    # trajectory CSV shows the distance to the split profile shrinking
    body = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    cols = body[0].split(",")
    i_l2 = cols.index("l2_dist")
    l2 = [float(row.split(",")[i_l2]) for row in body[1:]]
    assert l2[-1] < 0.1 * l2[1]


def test_simulate_guard_failure_writes_finished_records(tmp_path, capsys):
    # the README's simulate config at 20x its dt: the CFL guard fires near t = 3.82
    cfg = {
        "R": 1.0, "R_mu": 0.05, "eta": 1.0,
        "n_cells": 400, "dt": 4e-4, "t_end": 8.0, "record_every": 1000,
        "initial": {"kind": "bumps", "center_f": 0.0, "halfwidth_f": 2.0,
                    "center_g": 0.0, "halfwidth_g": 2.0},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                                "--out-dir", str(out))
    assert code == EXIT_NUMERICAL and stdout == ""
    assert err.startswith("numerical failure: dt * max|velocity| / h = 1.03 > 1;")
    body = (out / "trajectory.csv").read_text().splitlines()
    t = [float(row.split(",")[0]) for row in body[1:]]
    assert np.allclose(t, 0.4 * np.arange(10), rtol=0.0, atol=1e-12)
    manifest = json.loads((out / "manifest_simulate.json").read_text())
    assert manifest["error"] == err[len("numerical failure: "):].strip()
    assert manifest["outputs"][0] == str(out / "trajectory.csv")
    assert all(Path(p).exists() for p in manifest["outputs"])


def test_simulate_bad_config(tmp_path, capsys):
    bad = tmp_path / "nope.json"
    code, _, _ = run_cli(capsys, "simulate", "--config", str(bad))
    assert code == EXIT_USAGE


@pytest.mark.parametrize("cfg, says", [
    ({"R": 1.0, "R_mu": 2.0, "t_end": 0.01}, "lacks eta"),
    ([1.0, 2.0], "not a JSON object"),
    # the even profile at R_mu = 21 has G reaching +-5.481, outside [-5, 5]:
    # as initial data, and as the l2_dist reference of bumps data
    ({"R": 1.0, "R_mu": 21.0, "eta": 1.0, "t_end": 0.01, "n_cells": 60},
     "leaves the domain"),
    ({"R": 1.0, "R_mu": 21.0, "eta": 1.0, "t_end": 0.01, "n_cells": 60,
      "initial": {"kind": "bumps"}}, "leaves the domain"),
    # a bump on [2, 6] would be clipped to [2, 5] and the loss renormalized away
    ({"R": 1.0, "R_mu": 2.0, "eta": 1.0, "t_end": 0.01, "n_cells": 100,
      "initial": {"kind": "bumps", "center_f": 4.0, "halfwidth_f": 2.0}},
     "leaves the domain"),
    ({"R": 1.0, "R_mu": 2.0, "eta": 1.0, "t_end": 0.01, "n_cells": 100,
      "initial": {"kind": "bumps", "halfwidth_g": 0.0}}, "must be positive"),
    # numbers of the wrong kind are usage errors, not tracebacks
    ({"R": 1.0, "R_mu": 2.0, "eta": 1.0, "t_end": 0.01, "n_cells": 400.0},
     "n_cells must be an integer"),
    ({"R": 1.0, "R_mu": 2.0, "eta": 1.0, "t_end": 0.01, "n_cells": True},
     "n_cells must be an integer"),
    ({"R": 1.0, "R_mu": 2.0, "eta": 1.0, "t_end": 0.01, "record_every": 2500.0},
     "record_every must be an integer"),
    ({"R": 1.0, "R_mu": 2.0, "eta": 1.0, "t_end": 0.01, "dt": "2e-5"},
     "dt must be a finite real"),
    ({"R": 1.0, "R_mu": 2.0, "eta": 1.0, "t_end": math.inf},
     "t_end must be a finite real"),
    # checked before the run, not after it has written trajectory.csv
    ({"R": 1.0, "R_mu": 2.0, "eta": 1.0, "t_end": 0.01, "snapshot_every_records": 2.0},
     "snapshot_every_records must be an integer"),
    ({"R": 1.0, "R_mu": 2.0, "eta": 1.0, "t_end": 0.01, "snapshot_every_records": 0},
     "snapshot_every_records must be at least 1"),
    ({"R": 1.0, "R_mu": 2.0, "eta": 1.0, "t_end": 0.01, "initial": "bumps"},
     "initial must be a JSON object"),
    ({"R": 1.0, "R_mu": 2.0, "eta": 1.0, "t_end": 0.01,
      "initial": {"kind": "bumps", "center_f": "1"}}, "center_f must be a finite real"),
    # misspelt or unknown keys and values are refused, not ignored
    ({"R": 1.0, "R_mu": 2.0, "eta": 1.0, "t_end": 0.01, "reference": "even_profile"},
     "reference must be"),
    ({"R": 1.0, "R_mu": 2.0, "eta": 1.0, "t_end": 0.01, "dtt": 1e-4},
     "unknown config key(s): dtt"),
    ({"R": 1.0, "R_mu": 2.0, "eta": 1.0, "t_end": 0.01,
      "initial": {"kind": "bumps", "centre_f": 3.0}}, "unknown initial bumps key(s): centre_f"),
    ({"R": 1.0, "R_mu": 2.0, "eta": 1.0, "t_end": 0.01,
      "initial": {"kind": "even-profile", "center_f": 1.0}},
     "unknown initial even-profile key(s): center_f"),
    ({"R": True, "R_mu": 2.0, "eta": 1.0, "t_end": 0.01}, "R must be a finite real"),
    ({"R": 1.0, "R_mu": 2.0, "eta": 1.0, "t_end": 0.01, "cfl_check": False},
     "unknown config key(s): cfl_check"),
])
def test_simulate_config_errors_exit_2(tmp_path, capsys, cfg, says):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                           "--out-dir", str(tmp_path / "out"))
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and says in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out" / "trajectory.csv").exists()


def test_simulate_without_reference(tmp_path, capsys):
    # the even profile at R_mu = 21 leaves [-5, 5], so it can be no reference
    cfg = {"R": 1.0, "R_mu": 21.0, "eta": 1.0, "t_end": 0.01, "n_cells": 60,
           "record_every": 250, "reference": "none", "initial": {"kind": "bumps"}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg_path),
                           "--out-dir", str(tmp_path / "out"))
    assert code == EXIT_OK
    assert math.isnan(json.loads(out)["final_l2_dist"])
    body = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    i_l2 = body[0].split(",").index("l2_dist")
    assert len(body) == 6
    assert all(math.isnan(float(row.split(",")[i_l2])) for row in body[1:])


def test_simulate_snapshots_closer_than_printed_t_keep_their_files(tmp_path, capsys):
    # eleven records 1e-7 apart, each one a snapshot; t prints with 6 decimals
    cfg = {"R": 1.0, "R_mu": 2.0, "eta": 1.0, "n_cells": 60, "dt": 1e-7, "t_end": 1e-6,
           "record_every": 1, "snapshot_every_records": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg_path), "--out-dir", str(out))
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest_simulate.json").read_text())
    listed = [p for p in manifest["outputs"] if "snapshot_t" in p]
    assert len(listed) == len(set(listed)) == 11
    assert sorted(str(p) for p in out.glob("snapshot_t*.csv")) == sorted(listed)


def test_curve_and_verify_share_one_unimodality_guard():
    es = np.array([2.0, 1.0, 2.0])
    assert _unimodal([-1.0, 1e-12, 1.0], es)
    assert not _unimodal([-1.0, 2e-12, 1.0], es)
    # two changes of direction
    assert not _unimodal([-2.0, -1.0, 0.0, 1.0], np.array([1.0, 2.0, 0.5, 1.0]))


def _unimodal_by_sign_changes(sigmas, es) -> bool:
    """The guard's earlier form: E* changes direction at most once and is
    least where |sigma| <= 1e-12."""
    d = np.diff(es)
    return (int(np.sum(np.sign(d[:-1]) != np.sign(d[1:]))) <= 1
            and abs(sigmas[int(np.argmin(es))]) <= 1e-12)


def _curve_energies(n: int = 21):
    from muskat.functionals import curve_reports
    from muskat.params import FluidParams
    from muskat.profiles import continue_curve
    curve = continue_curve(FluidParams(1.0, 10.0, 1.0), n)
    es = np.array([rep.rescaled_energy for rep in curve_reports(curve)])
    sigmas = [cp.ell for cp in curve]
    assert _unimodal(sigmas, es) and _unimodal_by_sign_changes(sigmas, es)
    return sigmas, es


def test_unimodality_guard_rejects_a_bumped_energy():
    # E* changed at one index: rejected wherever the earlier guard rejects it,
    # and off the centre always, since E* is no longer even
    sigmas, es = _curve_energies()
    c, rejected_before = len(es) // 2, 0
    for k in range(len(es)):
        for factor in (1.0 + 1e-12, 0.9, 1.1):
            bumped = es.copy()
            bumped[k] *= factor
            before = _unimodal_by_sign_changes(sigmas, bumped)
            rejected_before += not before
            assert _unimodal(sigmas, bumped) <= before
            assert not _unimodal(sigmas, bumped) or k == c
    assert rejected_before > 0
    raised = es.copy()
    raised[c] *= 1.1  # above its neighbours
    assert not _unimodal(sigmas, raised) and not _unimodal_by_sign_changes(sigmas, raised)


def test_unimodality_guard_rejects_a_minimum_off_the_centre():
    sigmas, es = _curve_energies()
    cases = [np.roll(es, k) for k in (-3, -1, 1, 3)]
    # even, with two minima either side of the centre
    cases.append(np.array([3.0, 2.0, 1.0, 1.5, 1.0, 2.0, 3.0]))
    for case in cases:
        s = sigmas if len(case) == len(sigmas) else [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
        assert not _unimodal_by_sign_changes(s, case)
        assert not _unimodal(s, case)


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--R", "1", "--R-mu", "2", "--eta", "1")
    assert code == EXIT_OK
    assert "PASS" in out and "FAIL" not in out


def test_verify_boundary_case(capsys):
    # R_mu exactly at the coincident-support threshold
    code, out, _ = run_cli(capsys, "verify", "--R", "1", "--R-mu", "1.5", "--eta", "1")
    assert code == EXIT_OK
    assert '"even_case": "CASE1"' in out


def test_verify_curve_regime(capsys):
    code, out, _ = run_cli(capsys, "verify", "--R", "1", "--R-mu", "10", "--eta", "1")
    assert code == EXIT_OK
    assert "curve-energy-unimodal" in out


# R_mu within the 1e-13 relative band of a threshold counts as on it, in every command
def test_verify_just_above_r_plus_is_unique_even(capsys):
    code, out, _ = run_cli(capsys, "verify", "--R", "1", "--R-mu", "5.00000000000025",
                           "--eta", "1")
    assert code == EXIT_OK
    assert out.count("PASS") == 3 and "FAIL" not in out
    assert '"continuum": "unique-even"' in out


def test_curve_just_below_r_M_has_alpha_zero_endpoints(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "curve", "--R", "1", "--R-mu", "12.258047468784872",
                           "--eta", "1", "-n", "11", "--out-dir", str(tmp_path))
    assert code == EXIT_OK and json.loads(out)["endpoint_kind"] == "alpha-zero"
    first = (tmp_path / "curve_R1_Rmu12.258_eta1.csv").read_text().splitlines()[1]
    g1, b1, a1, a = (float(v) for v in first.split(",")[1:5])
    assert a == 0.0 and g1 < b1 < a1 < 0.0


def test_curve_just_below_r_minus_names_the_callers_window(tmp_path, capsys):
    code, _, err = run_cli(capsys, "curve", "--R", "1", "--R-mu", "0.19999999999999002",
                           "--eta", "1", "--out-dir", str(tmp_path))
    assert code == EXIT_REGIME
    assert "only the even steady state exists for R_mu in [0.2, 5]; got 0.2" in err


@pytest.mark.parametrize("argv, exit_code, says", [
    (["profile", "--kind", "connected"], EXIT_REGIME,
     "connected non-symmetric profiles exist only for"),
    (["curve", "-n", "11"], EXIT_OK, '"endpoint_kind": "alpha-zero"'),
    (["verify"], EXIT_OK, "PASS  boundary-profile"),
])
def test_just_above_r_m_is_disconnected(tmp_path, capsys, argv, exit_code, says):
    extra = [] if argv[0] == "verify" else ["--out-dir", str(tmp_path)]
    code, out, err = run_cli(capsys, *argv, "--R", "0.5", "--R-mu", "0.003777706334895534",
                             "--eta", "1.4", *extra)
    assert code == exit_code
    assert says in out + err and "FAIL" not in out


# just outside the r_m band, where the dual triple lies inside the r_M band: each
# construction follows the caller's regime, not the dual's
@pytest.mark.parametrize("argv, says", [
    (["curve", "-n", "11"], '"endpoint_kind": "alpha-zero"'),
    (["verify"], "PASS  boundary-profile"),
])
def test_just_outside_the_r_m_band_is_disconnected(tmp_path, capsys, argv, says):
    extra = [] if argv[0] == "verify" else ["--out-dir", str(tmp_path)]
    code, out, _ = run_cli(capsys, *argv, "--R", "1", "--R-mu", "0.05798649200835198",
                           "--eta", "1", *extra)
    assert code == EXIT_OK
    assert says in out and "FAIL" not in out


def test_env_var_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MUSKAT_OUT_DIR", str(tmp_path / "envout"))
    code, _, _ = run_cli(capsys, "profile", "--R", "1", "--R-mu", "2", "--eta", "1",
                         "--kind", "even")
    assert code == EXIT_OK
    assert (tmp_path / "envout" / "profile_even_R1_Rmu2_eta1.json").exists()
