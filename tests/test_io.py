"""Artifact files and the command line wrapper."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import parabgk
from parabgk import (ConvergenceRecord, MomentField, TimingReport,
                     build_spatial_grid, read_convergence, read_snapshot,
                     write_convergence, write_snapshots, write_timing)
from parabgk import runner
from parabgk.cli import main

MICRO = """\
case = sod
x_min = 0.0
x_max = 2.0
n_x = 12
v_max = 8.0
n_vx = 8
n_vy = 8
n_vz = 8
epsilon = 1e-2
bc = absorbing
t_final = 0.05
n_g = 2
n_f = 8
k_max = 2
tol = 1e-8
"""


def _random_snapshots(n_snap, n_x, seed=7):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_snap):
        out.append(MomentField(rng.uniform(0.1, 2.0, n_x),
                               rng.standard_normal((n_x, 3)),
                               rng.uniform(0.1, 3.0, n_x)))
    return out


def test_snapshot_round_trip_is_exact(tmp_path):
    space = build_spatial_grid(0.0, 2.0, 5)
    snapshots = _random_snapshots(3, 5)
    paths = write_snapshots(snapshots, space, tmp_path)
    assert [p.name for p in paths] == ["snap_00000.csv", "snap_00001.csv",
                                       "snap_00002.csv"]
    for U, path in zip(snapshots, paths):
        cols = read_snapshot(path)
        assert np.array_equal(cols["x"], space.centers)
        assert np.array_equal(cols["rho"], U.rho)
        assert np.array_equal(cols["ux"], U.u[:, 0])
        assert np.array_equal(cols["uy"], U.u[:, 1])
        assert np.array_equal(cols["uz"], U.u[:, 2])
        assert np.array_equal(cols["theta"], U.theta)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,rho,ux,uy,uz,theta"
        assert len(lines) == 6  # header + one row per cell


def test_convergence_round_trip(tmp_path):
    records = [ConvergenceRecord(1, 0.125, 2.5),
               ConvergenceRecord(2, 1.7e-9, 1.0625)]
    path = write_convergence(records, tmp_path)
    assert path.name == "convergence.csv"
    assert path.read_text().splitlines()[0] == "k,error,seconds"
    assert read_convergence(path) == records


def test_artifact_bytes_are_pinned(tmp_path):
    # comma-separated, one header line, CR LF line ends, no quoting, and
    # every float as Python's shortest round-trip repr
    space = build_spatial_grid(0.0, 1.0, 2)
    U = MomentField(np.array([1.0, 0.1 + 0.2]),
                    np.array([[-0.0, 1e-05, 2.0], [0.5, -1.5, 0.0]]),
                    np.array([1e-05, 3.0]))
    [snap] = write_snapshots([U], space, tmp_path)
    assert snap.read_bytes() == (b"x,rho,ux,uy,uz,theta\r\n"
                                 b"0.25,1.0,-0.0,1e-05,2.0,1e-05\r\n"
                                 b"0.75,0.30000000000000004,0.5,-1.5,0.0,3.0\r\n")
    records = [ConvergenceRecord(1, 0.1 + 0.2, 1e-05),
               ConvergenceRecord(2, 1.7e-09, 0.5)]
    log = write_convergence(records, tmp_path)
    assert log.read_bytes() == (b"k,error,seconds\r\n"
                                b"1,0.30000000000000004,1e-05\r\n"
                                b"2,1.7e-09,0.5\r\n")


def test_timing_report_fields(tmp_path):
    report = TimingReport(iterations=[0.5, 0.25], t_lift=0.01, t_kin=0.4,
                          t_proj=0.02, t_fluid=0.005, fine_seconds=3.0,
                          fluid_seconds=0.1, parareal_seconds=1.5,
                          speedup=2.0, k_opt=4)
    path = write_timing(report, tmp_path)
    data = json.loads(path.read_text())
    assert data["iterations"] == [0.5, 0.25]
    assert data["speedup"] == 2.0 and data["k_opt"] == 4
    assert set(data) == {"iterations", "t_lift", "t_kin", "t_proj", "t_fluid",
                         "fine_seconds", "fluid_seconds", "parareal_seconds",
                         "speedup", "k_opt"}


def test_cli_run_fluid_mode(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MICRO)
    out = tmp_path / "artifacts"
    code = main(["run", "--config", str(cfg), "--mode", "fluid",
                 "--out", str(out)])
    assert code == 0
    assert "wrote fluid artifacts" in capsys.readouterr().out
    snaps = sorted(p.name for p in out.glob("snap_*.csv"))
    assert snaps == ["snap_00000.csv", "snap_00001.csv", "snap_00002.csv"]
    assert not (out / "convergence.csv").exists()


def test_module_entry_point_runs_the_cli(tmp_path):
    # `python -m parabgk` from a source checkout writes what cli.main writes
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MICRO)
    src = str(Path(parabgk.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    by_module, by_main = tmp_path / "module", tmp_path / "main"
    done = subprocess.run([sys.executable, "-m", "parabgk", "run", "--config", str(cfg),
                           "--mode", "fine", "--out", str(by_module)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "wrote fine artifacts" in done.stdout
    assert main(["run", "--config", str(cfg), "--mode", "fine", "--out", str(by_main)]) == 0
    names = sorted(p.name for p in by_main.glob("snap_*.csv"))
    assert names == sorted(p.name for p in by_module.glob("snap_*.csv"))
    assert len(names) == 3
    for name in names:
        assert (by_module / name).read_bytes() == (by_main / name).read_bytes()


def test_cli_run_parareal_writes_convergence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MICRO)
    out = tmp_path / "artifacts"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    records = read_convergence(out / "convergence.csv")
    assert [r.k for r in records] == list(range(1, len(records) + 1))
    assert len(records) <= 2


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("preset = sod\nn_q = 3\n")
    code = main(["run", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown key" in err
    # an override is checked like the file, before any directory is made
    cfg.write_text(MICRO)
    out = tmp_path / "out"
    for command in (["run", "--mode", "fine"], ["run"], ["compare"]):
        code = main(command + ["--config", str(cfg), "--workers", "0",
                               "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "need workers >= 1, got 0" in err
        assert not out.exists()
    # an epsilon whose relaxation rate overflows is refused at the config,
    # not in the first window after the output directory exists
    cfg.write_text(MICRO.replace("epsilon = 1e-2", "epsilon = 5e-324"))
    for command in (["run", "--mode", "fine"], ["run"], ["compare"]):
        code = main(command + ["--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "epsilon = 5e-324" in err
        assert not out.exists()


def test_cli_reports_missing_config(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["run", "--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(missing) in err


def test_cli_reports_output_path_that_is_a_file(tmp_path, capsys, monkeypatch):
    # the unusable directory is reported before any solve starts
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the output directory was made")

    monkeypatch.setattr(runner, "solve", no_solve)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MICRO)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    for command in ("run", "compare"):
        assert main([command, "--config", str(cfg), "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(taken) in err


def test_cli_rejects_infinite_bound(tmp_path, capsys):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("preset = sod\nt_final = inf\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "t_final" in err
    assert not (tmp_path / "out").exists()


def test_cli_compare_reports_speedup(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MICRO)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    assert "speedup" in capsys.readouterr().out
    for sub in ("fluid", "fine", "parareal"):
        assert (out / sub / "snap_00000.csv").exists()
    assert (out / "parareal" / "convergence.csv").exists()
    data = json.loads((out / "timing.json").read_text())
    assert data["speedup"] > 0.0
    assert data["k_opt"] >= 1
    assert data["fine_seconds"] > 0.0
