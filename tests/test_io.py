"""Artifact files and the command line wrapper."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import parabgk
from parabgk import (ConfigurationError, ConvergenceRecord, MomentField,
                     build_spatial_grid, read_convergence, read_snapshot,
                     write_convergence, write_snapshots, write_timing)
from parabgk import cli, config, runner
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


@pytest.mark.parametrize("n_x", [60, 10])
def test_a_snapshot_of_another_cell_count_is_refused(tmp_path, n_x):
    # zip once cut the rows to the shorter of the snapshot and the grid: a
    # 60-cell snapshot on a 50-cell grid lost 10 cells without a word
    space = build_spatial_grid(0.0, 2.0, 50)
    snapshots = _random_snapshots(2, 50) + _random_snapshots(1, n_x)
    with pytest.raises(ConfigurationError,
                       match=rf"^snapshot 2 has {n_x} cells for a grid of 50$"):
        write_snapshots(snapshots, space, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_convergence_round_trip(tmp_path):
    records = [ConvergenceRecord(1, 0.125, 2.5),
               ConvergenceRecord(2, 1.7e-9, 1.0625)]
    path = write_convergence(records, tmp_path)
    assert path.name == "convergence.csv"
    assert path.read_text().splitlines()[0] == "k,error,seconds"
    assert read_convergence(path) == records


@pytest.mark.parametrize("read, text, line, why", [
    (read_snapshot, "x,rho\r\n1,abc\r\n", 2, "could not convert string to float: 'abc'"),
    (read_snapshot, "x,rho\r\n1,2\r\n3\r\n", 3, "1 fields where 2 are needed"),
    (read_convergence, "k,error,seconds\r\n1,0.5\r\n", 2, "2 fields where 3 are needed"),
    (read_convergence, "k,error\r\n1,0.5\r\n", 1, "2 fields where 3 are needed"),
    (read_convergence, "k,error,seconds\r\n1.5,0.5,1.0\r\n", 2, "invalid literal"),
    (read_snapshot, "", 1, "no header"),
    (read_convergence, "", 1, "no header"),
], ids=["snapshot-text", "snapshot-short-row", "convergence-short-row",
        "convergence-short-header", "convergence-fractional-k", "snapshot-empty",
        "convergence-empty"])
def test_a_malformed_file_is_refused_by_path_and_line(tmp_path, read, text, line, why):
    # a field that is not a number, and a row of two fields, once escaped
    # as bare ValueErrors from float() and from unpacking
    path = tmp_path / "table.csv"
    path.write_text(text, newline="")
    with pytest.raises(ConfigurationError, match=re.escape(f"{path} line {line}: {why}")):
        read(path)


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
    report = dict(iterations=[0.5, 0.25], t_lift=0.01, t_kin=0.4, t_proj=0.02,
                  t_fluid=0.005, fine_seconds=3.0, fluid_seconds=0.1,
                  parareal_seconds=1.5, speedup=2.0, k_opt=4, windows_solved=19,
                  ceiling=20 / 19, efficiency=1.0, ceiling_frac=1.9,
                  gap_fine=1e-3)
    path = write_timing(report, tmp_path)
    # the report as given, its keys in order
    assert list(json.loads(path.read_text()).items()) == list(report.items())


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


def _python_m_parabgk(*args):
    """`python -m parabgk args` from a source checkout, its output captured."""
    src = str(Path(parabgk.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "parabgk", *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_module_entry_point_runs_the_cli(tmp_path):
    # `python -m parabgk` from a source checkout writes what cli.main writes
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MICRO)
    by_module, by_main = tmp_path / "module", tmp_path / "main"
    done = _python_m_parabgk("run", "--config", cfg, "--mode", "fine",
                             "--out", by_module)
    assert done.returncode == 0, done.stderr
    assert "wrote fine artifacts" in done.stdout
    assert main(["run", "--config", str(cfg), "--mode", "fine", "--out", str(by_main)]) == 0
    names = sorted(p.name for p in by_main.glob("snap_*.csv"))
    assert names == sorted(p.name for p in by_module.glob("snap_*.csv"))
    assert len(names) == 3
    for name in names:
        assert (by_module / name).read_bytes() == (by_main / name).read_bytes()


def test_module_entry_point_end_to_end(tmp_path):
    # each command through `python -m parabgk`: its exit code, its output
    # and the files it writes
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MICRO)
    fluid = tmp_path / "fluid"
    done = _python_m_parabgk("run", "--config", cfg, "--mode", "fluid", "--out", fluid)
    assert done.returncode == 0, done.stderr
    assert len(list(fluid.glob("snap_*.csv"))) == 3  # n_g + 1
    cmp = tmp_path / "cmp"
    done = _python_m_parabgk("compare", "--config", cfg, "--workers", 1, "--out", cmp)
    assert done.returncode == 0, done.stderr
    assert "speedup" in done.stdout
    timing = json.loads((cmp / "timing.json").read_text())
    assert list(timing) == ["iterations", "t_lift", "t_kin", "t_proj", "t_fluid",
                            "fine_seconds", "fluid_seconds", "parareal_seconds",
                            "speedup", "k_opt", "windows_solved", "ceiling",
                            "efficiency", "ceiling_frac", "gap_fine"]
    cfg.write_text(MICRO + "colour = red\n")
    done = _python_m_parabgk("run", "--config", cfg, "--out", tmp_path / "bad")
    assert done.returncode == 2
    assert done.stderr.startswith("error:") and "unknown key 'colour'" in done.stderr
    assert "Traceback" not in done.stderr and not (tmp_path / "bad").exists()


BLAST_SMALL = """\
preset = blast
n_x = 50
n_vx = 8
n_vy = 8
n_vz = 8
t_final = 0.25
n_g = 10
n_f = 40
epsilon = 1e-2
k_max = 5
workers = 1
"""


def test_blast_with_absorbing_ends_fails_parareal_loudly(tmp_path):
    # the Euler coarse cannot carry blast's absorbing ends: iteration 1's
    # correction drives cell 0's density negative, and the run says so in
    # one line. ROADMAP item 2's coarse should make this a convergence test.
    cfg = tmp_path / "blast.cfg"
    cfg.write_text(BLAST_SMALL)
    done = _python_m_parabgk("run", "--config", cfg, "--out", tmp_path / "absorbing")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith(
        "error: iteration 1 correction at window 3 left the physical regime: "
        "corrected density at cell 0 is -0.2447"), done.stderr
    assert "Traceback" not in done.stderr
    # with periodic ends the same problem runs all its iterations
    cfg.write_text(BLAST_SMALL + "bc = periodic\n")
    done = _python_m_parabgk("run", "--config", cfg, "--out", tmp_path / "periodic")
    assert done.returncode == 0, done.stderr


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


def test_cli_overrides_make_one_config(tmp_path, monkeypatch):
    # the flags given replace the file's settings in one checked step
    path = tmp_path / "run.cfg"
    path.write_text(MICRO)
    given = []
    monkeypatch.setattr(cli, "run_mode", lambda cfg: given.append(cfg) or "X")
    monkeypatch.setattr(cli, "run_comparison",
                        lambda cfg: given.append(cfg) or {"speedup": 1.0, "k_opt": 1})
    checks = []
    check = config.RunConfig.__post_init__
    monkeypatch.setattr(config.RunConfig, "__post_init__",
                        lambda self: checks.append(None) or check(self))
    file_cfg = config.parse_config(path)
    cases = [
        (["run"], file_cfg),
        (["run", "--mode", "fluid", "--workers", "3", "--out", "X"],
         replace(file_cfg, mode="fluid", workers=3, out_dir="X")),
        (["compare", "--workers", "2"], replace(file_cfg, workers=2)),
    ]
    for command, expected in cases:
        given.clear()
        checks.clear()
        assert main(command[:1] + ["--config", str(path)] + command[1:]) == 0
        assert given == [expected]
        # the file's config and the overridden one, whatever the flag count
        assert len(checks) == 2
    assert given[0].mode == "parareal"  # compare keeps the file's mode


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
