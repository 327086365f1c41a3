"""Outer iteration: sweeps, jumps, corrections, cost model."""

import math
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parabgk
from parabgk import (PRESETS, BlowUpError, BoundaryKind, ConfigurationError,
                     CorrectionOvershootError, Discretization, KineticParams,
                     MomentField, PhaseGrid, PararealConfig,
                     SolverError, build_spatial_grid, build_time_grids,
                     build_velocity_grid, estimate_k_opt,
                     fine_moment_chain, initial_coarse_sweep, lift,
                     parareal_cost, project, propagate_fluid, propagate_kinetic,
                     run_parareal, sequential_correction)
from parabgk import cli, config, parareal, runner
from parabgk import kinetic as kinetic_module
from parabgk.parareal import compute_jumps, make_executor


def _tiny_disc(n_g=4, n_f=16, n_x=12, n_v=8, bc=BoundaryKind.ABSORBING,
               t_final=0.1):
    phase = PhaseGrid(build_spatial_grid(0.0, 2.0, n_x),
                      build_velocity_grid(8.0, n_v))
    return Discretization(phase, build_time_grids(t_final, n_g, n_f), bc)


def _sod_like(n_x):
    x = build_spatial_grid(0.0, 2.0, n_x).centers
    return MomentField(np.where(x < 1.0, 1.0, 0.125), np.zeros((n_x, 3)),
                       np.where(x < 1.0, 1.0, 0.8))


def _uniform(n_x, rho=1.0, theta=1.0):
    return MomentField(np.full(n_x, rho), np.zeros((n_x, 3)),
                       np.full(n_x, theta))


def test_coarse_sweep_matches_direct_fluid_composition():
    disc = _tiny_disc()
    U0 = _sod_like(12)
    traj = initial_coarse_sweep(U0, disc, None)
    assert len(traj.snapshots) == disc.time.n_g + 1
    assert traj.snapshots[0].sup_distance(U0) == 0.0
    U = U0
    times = disc.time.coarse_times
    for n in range(1, disc.time.n_g + 1):
        U = propagate_fluid(U, float(times[n - 1]), float(times[n]),
                            disc.phase.space, None, disc.bc)
        assert traj.snapshots[n].sup_distance(U) == 0.0


def test_coarse_sweep_steps_each_window_to_its_own_end():
    # the windows come from linspace, so most are not t_final / n_g wide to
    # the last bit; each coarse window is stepped from its start to its own
    # end under the CFL bound alone, as a direct Euler solve of that span is
    disc = _tiny_disc(n_g=50, n_f=200, t_final=0.25)
    times = disc.time.coarse_times
    assert np.any(np.diff(times) != 0.25 / 50)
    traj = initial_coarse_sweep(_sod_like(12), disc, None)
    U = _sod_like(12)
    for n in range(1, disc.time.n_g + 1):
        U = propagate_fluid(U, float(times[n - 1]), float(times[n]),
                            disc.phase.space, None, disc.bc)
        assert traj.snapshots[n].rho.tobytes() == U.rho.tobytes(), n
        assert traj.snapshots[n].u.tobytes() == U.u.tobytes(), n
        assert traj.snapshots[n].theta.tobytes() == U.theta.tobytes(), n


def test_coarse_sweep_single_window():
    disc = _tiny_disc(n_g=1, n_f=4)
    U0 = _sod_like(12)
    traj = initial_coarse_sweep(U0, disc, None)
    assert len(traj.snapshots) == 2


def test_coarse_sweep_preserves_equilibrium():
    disc = _tiny_disc(bc=BoundaryKind.PERIODIC)
    traj = initial_coarse_sweep(_uniform(12), disc, None)
    for snap in traj.snapshots:
        assert snap.sup_distance(_uniform(12)) <= 1e-13


def test_jumps_vanish_on_equilibrium():
    # fine and coarse propagators both fix a uniform Maxwellian state, so the
    # defect is pure velocity-quadrature noise (dv = 0.5 at theta = 1)
    disc = _tiny_disc(bc=BoundaryKind.PERIODIC, n_v=32)
    kinetic = KineticParams(epsilon=1e-2)
    traj = initial_coarse_sweep(_uniform(12), disc, None)
    compute_jumps(traj, 1, disc, kinetic, None)
    for jump in traj.jumps:
        assert abs(jump.rho).max() <= 1e-12
        assert abs(jump.u).max() <= 1e-12
        assert abs(jump.theta).max() <= 1e-12


def test_compute_jumps_last_window_only():
    disc = _tiny_disc()
    kinetic = KineticParams(epsilon=1e-2)
    traj = initial_coarse_sweep(_sod_like(12), disc, None)
    compute_jumps(traj, disc.time.n_g, disc, kinetic, None)
    touched = [np.any(j.rho != 0.0) for j in traj.jumps]
    assert touched == [False, False, False, True]


def test_parallel_jumps_bitwise_equal_serial():
    disc = _tiny_disc()
    kinetic = KineticParams(epsilon=1e-2)
    serial = initial_coarse_sweep(_sod_like(12), disc, None)
    compute_jumps(serial, 1, disc, kinetic, None)
    pooled = initial_coarse_sweep(_sod_like(12), disc, None)
    executor = make_executor(2, disc, kinetic, None)
    try:
        compute_jumps(pooled, 1, disc, kinetic, None, executor=executor)
    finally:
        executor.shutdown()
    for a, b in zip(serial.jumps, pooled.jumps):
        assert np.array_equal(a.rho, b.rho)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.theta, b.theta)


def test_pool_has_no_more_processes_than_windows(monkeypatch):
    # a forked pool starts all its processes at the first task, each holding
    # a window state; run_parareal sizes it to min(workers, n_g), so with 2
    # windows, 4 workers start 2 processes rather than leave 2 idle
    disc = _tiny_disc(n_g=2, n_f=8)
    kinetic = KineticParams(epsilon=1e-2)
    before = {child.pid for child in multiprocessing.active_children()}
    started = []

    def counted(*args, **kwargs):
        compute_jumps(*args, **kwargs)
        started.append(len([child for child in multiprocessing.active_children()
                            if child.pid not in before]))

    monkeypatch.setattr(parareal, "compute_jumps", counted)
    pooled, _ = run_parareal(_sod_like(12), PararealConfig(1, 1e-300, workers=4),
                             disc, kinetic)
    serial, _ = run_parareal(_sod_like(12), PararealConfig(1, 1e-300), disc, kinetic)
    assert started == [2, 0]
    for a, b in zip(serial.jumps, pooled.jumps):
        assert a.rho.tobytes() == b.rho.tobytes()
        assert a.u.tobytes() == b.u.tobytes()
        assert a.theta.tobytes() == b.theta.tobytes()


def test_one_window_runs_without_a_pool(monkeypatch):
    # n_p = min(workers, n_g) = 1: the one window's fine solve runs in this
    # process, as with one worker, and no pool is forked to do it
    def no_pool(*args):
        raise AssertionError("a pool was started for one window")

    disc = _tiny_disc(n_g=1, n_f=4)
    kinetic = KineticParams(epsilon=1e-2)
    serial, records = run_parareal(_sod_like(12), PararealConfig(2, 1e-300),
                                   disc, kinetic)
    monkeypatch.setattr(parareal, "make_executor", no_pool)
    traj, got = run_parareal(_sod_like(12), PararealConfig(2, 1e-300, workers=2),
                             disc, kinetic)
    assert [(r.k, r.error) for r in got] == [(r.k, r.error) for r in records]
    for a, b in zip(serial.snapshots, traj.snapshots):
        assert a.rho.tobytes() == b.rho.tobytes()
        assert a.u.tobytes() == b.u.tobytes()
        assert a.theta.tobytes() == b.theta.tobytes()


def test_pool_processes_end_with_the_run(monkeypatch):
    # the pool is shut down, waiting for its workers, whether the run
    # returns or a window fails
    before = {child.pid for child in multiprocessing.active_children()}

    def run():
        return run_parareal(_sod_like(12),
                            PararealConfig(k_max=2, tol=1e-300, workers=2),
                            _tiny_disc(), KineticParams(epsilon=1e-2))

    _, records = run()
    assert len(records) == 2
    assert {child.pid for child in multiprocessing.active_children()} == before
    monkeypatch.setattr(kinetic_module, "bgk_relax", _relax_failing_in_workers)
    with pytest.raises(SolverError, match=r"^iteration 1 at window [1-4] failed: "
                       r"MemoryError"):
        run()
    assert {child.pid for child in multiprocessing.active_children()} == before


def test_coarse_windows_are_solved_only_by_the_sweeps(monkeypatch):
    # the jumps reuse the coarse solve of the sweep that moved each window's
    # start: iteration 0 solves n_g windows, iteration k the n_g - k + 1 its
    # correction moves, and compute_jumps none
    disc = _tiny_disc(n_g=5, n_f=20)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return propagate_fluid(*args, **kwargs)

    monkeypatch.setattr(parareal, "propagate_fluid", counted)
    K, n_g = 3, disc.time.n_g
    _, records = run_parareal(_sod_like(12), PararealConfig(k_max=K, tol=1e-300),
                              disc, KineticParams(epsilon=1e-2))
    assert len(records) == K
    assert len(calls) == n_g + sum(n_g - k + 1 for k in range(1, K + 1))


def test_one_field_reaches_both_propagators(monkeypatch):
    # the coarse sweeps apply the kinetic solves' field object itself on the
    # run's spatial grid, and prepare hands out that same field object, or
    # None for a case without a field
    cfg = replace(PRESETS["beams"], n_x=12, n_vx=16, n_vy=4, n_vz=4,
                  t_final=0.05, n_g=3, n_f=6, k_max=2, tol=1e-300)
    disc, kinetic, force, U0 = runner.prepare(cfg)
    assert force is kinetic.force and force is not None
    assert runner.prepare(replace(cfg, case="sod", bc="absorbing"))[2] is None
    coarse_fields, fine_fields, coarse_grids = [], [], []

    def coarse(U, t0, t1, grid, force, *args, **kwargs):
        coarse_fields.append(force)
        coarse_grids.append(grid)
        return propagate_fluid(U, t0, t1, grid, force, *args, **kwargs)

    def fine(f, t0, t1, grid, params, *args, **kwargs):
        fine_fields.append(params.force)
        return propagate_kinetic(f, t0, t1, grid, params, *args, **kwargs)

    monkeypatch.setattr(parareal, "propagate_fluid", coarse)
    monkeypatch.setattr(parareal, "propagate_kinetic", fine)
    run_parareal(U0, PararealConfig(k_max=2, tol=1e-300, workers=1), disc, kinetic)
    assert len(coarse_fields) == 3 + 3 + 2 and len(fine_fields) == 3 + 2
    assert all(field is kinetic.force for field in coarse_fields + fine_fields)
    assert all(grid is disc.phase.space for grid in coarse_grids)


def _assert_coarse_is_fresh(traj, disc):
    for n in range(1, disc.time.n_g + 1):
        fresh = parareal._coarse_window(n, traj.snapshots[n - 1], disc, None)
        assert traj.coarse[n - 1].rho.tobytes() == fresh.rho.tobytes()
        assert traj.coarse[n - 1].u.tobytes() == fresh.u.tobytes()
        assert traj.coarse[n - 1].theta.tobytes() == fresh.theta.tobytes()


def test_stored_coarse_is_the_sweep_solve_of_each_window_start():
    # coarse[n-1] is the Euler solve of window n from snapshots[n-1], bit for
    # bit, after the coarse sweep and after every correction
    disc = _tiny_disc()
    kinetic = KineticParams(epsilon=1e-2)
    traj = initial_coarse_sweep(_sod_like(12), disc, None)
    _assert_coarse_is_fresh(traj, disc)
    for k in range(1, disc.time.n_g + 1):
        compute_jumps(traj, k, disc, kinetic, None)
        sequential_correction(traj, k, disc, None)
        _assert_coarse_is_fresh(traj, disc)


def test_frozen_prefix_reproduces_fine_chain():
    disc = _tiny_disc()
    kinetic = KineticParams(epsilon=1e-2)
    U0 = _sod_like(12)
    chain = fine_moment_chain(U0, disc, kinetic)
    cfg = PararealConfig(k_max=3, tol=1e-300)
    traj, _ = run_parareal(U0, cfg, disc, kinetic)
    for n in range(0, 4):  # snapshots 0..k are fine-exact after k iterations
        assert traj.snapshots[n].sup_distance(chain[n]) <= 1e-13


# Counted in a fresh interpreter: glibc returns freed memory to the OS by
# thresholds that adapt to the process's earlier allocations, so the count in
# a process that has already run other tests says little about a real run.
_CHAIN_FAULTS = """
import resource
import numpy as np
from parabgk import (BoundaryKind, Discretization, KineticParams, MomentField,
                     PhaseGrid, build_spatial_grid, build_time_grids,
                     build_velocity_grid, fine_moment_chain)
n_g = 20
phase = PhaseGrid(build_spatial_grid(0.0, 2.0, 50), build_velocity_grid(8.0, 16))
disc = Discretization(phase, build_time_grids(0.005 * n_g, n_g, 2 * n_g),
                      BoundaryKind.ABSORBING)
x = phase.space.centers
U0 = MomentField(np.where(x < 1.0, 1.0, 0.125), np.zeros((50, 3)),
                 np.where(x < 1.0, 1.0, 0.8))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
fine_moment_chain(U0, disc, KineticParams(epsilon=1e-2))
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / n_g)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor page fault counts as Linux reports them")
def test_fine_chain_reuses_its_pages():
    # every window runs on the same buffers, so after their first touch a
    # window faults in few new pages; fresh arrays per window fault in
    # about 1250 at 50 x 16^3 (1.6 MB arrays)
    src = str(Path(parabgk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _CHAIN_FAULTS], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert float(done.stdout) < 200


def _full_sweep_parareal(U0, k_max, disc, kinetic):
    """Textbook parareal: every iteration revisits all windows.

    U^k_n = G(U^k_{n-1}) + F(U^{k-1}_{n-1}) - G(U^{k-1}_{n-1}), with F the
    lifted kinetic window projected back and G the Euler window.
    """
    times = disc.time.coarse_times

    def coarse(U, n):
        return propagate_fluid(U, float(times[n - 1]), float(times[n]),
                               disc.phase.space, kinetic.force, disc.bc)

    def fine(U, n):
        f = propagate_kinetic(lift(U, disc.phase), float(times[n - 1]),
                              float(times[n]), disc.phase, kinetic, disc.bc,
                              dt_max=disc.time.dt_f)
        return project(f, disc.phase)

    windows = range(1, disc.time.n_g + 1)
    U = [U0]
    for n in windows:
        U.append(coarse(U[-1], n))
    for _ in range(k_max):
        jumps = [fine(U[n - 1], n) - coarse(U[n - 1], n) for n in windows]
        new = [U0]
        for n in windows:
            new.append(coarse(new[-1], n) + jumps[n - 1])
        U = new
    return U


def test_frozen_prefix_equivalent_to_full_sweep():
    # run_parareal skips windows that can no longer change; the classic sweep
    # over all windows must agree with it to rounding at every iteration count
    disc = _tiny_disc()
    kinetic = KineticParams(epsilon=1e-2)
    U0 = _sod_like(12)
    for k_max in (1, 2, 4):
        a, _ = run_parareal(U0, PararealConfig(k_max=k_max, tol=1e-300), disc, kinetic)
        b = _full_sweep_parareal(U0, k_max, disc, kinetic)
        assert len(a.snapshots) == len(b)
        for x, y in zip(a.snapshots, b):
            assert x.sup_distance(y) <= 1e-12


_TEST_PID = os.getpid()
_relax = kinetic_module.bgk_relax


def _relax_killing_workers(*args, **kwargs):
    # a pool worker that exits hard breaks the pool; this process never exits
    if os.getpid() != _TEST_PID:
        os._exit(1)
    return _relax(*args, **kwargs)


def _relax_failing_in_workers(*args, **kwargs):
    if os.getpid() != _TEST_PID:
        raise MemoryError("no room for the window")
    return _relax(*args, **kwargs)


@pytest.mark.parametrize("k_max, workers, name", [
    (2.5, 1, "k_max"), (math.nan, 1, "k_max"), (2, 1.5, "workers"),
])
def test_iteration_counts_must_be_integers(k_max, workers, name):
    # a float count once passed the checks, and run_mode died on it with a
    # bare TypeError from range()
    bad = k_max if name == "k_max" else workers
    message = rf"^need an integer {name}, got {bad!r}$"
    with pytest.raises(ConfigurationError, match=message):
        PararealConfig(k_max=k_max, tol=1e-3, workers=workers)
    with pytest.raises(ConfigurationError, match=message):
        replace(PRESETS["sod"], k_max=k_max, workers=workers)


def _tiny_config(tmp_path):
    """A config file of the _tiny_disc() problem with sod data."""
    path = tmp_path / "run.cfg"
    path.write_text("case = sod\nx_min = 0.0\nx_max = 2.0\nn_x = 12\n"
                    "v_max = 8.0\nn_vx = 8\nn_vy = 8\nn_vz = 8\n"
                    "epsilon = 1e-2\nbc = absorbing\nt_final = 0.1\n"
                    "n_g = 4\nn_f = 16\nk_max = 2\ntol = 1e-300\n")
    return path


def _assert_window_failure_exits_2(tmp_path, monkeypatch, capsys, workers=2,
                                   epsilon=1e-2):
    """A failing window: SolverError naming the window, exit code 2.

    Faults come in through epsilon or through kinetic.bgk_relax, patched by
    the caller before the pool forks.
    """
    disc = _tiny_disc()
    with pytest.raises(SolverError, match=r"iteration 1 at window [1-4]\b") as info:
        run_parareal(_sod_like(12),
                     PararealConfig(k_max=2, tol=1e-300, workers=workers),
                     disc, KineticParams(epsilon=epsilon))

    build_params = config.build_params

    def failing_params(cfg, disc):
        return replace(build_params(cfg, disc), epsilon=epsilon)

    monkeypatch.setattr(runner, "build_params", failing_params)
    path = _tiny_config(tmp_path)
    assert cli.main(["run", "--config", str(path), "--workers", str(workers),
                     "--out", str(tmp_path / "out")]) == 2
    assert "iteration 1 at window" in capsys.readouterr().err
    return info.value


def test_dead_worker_surfaces_as_solver_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(kinetic_module, "bgk_relax", _relax_killing_workers)
    _assert_window_failure_exits_2(tmp_path, monkeypatch, capsys)


def test_window_exception_surfaces_as_solver_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(kinetic_module, "bgk_relax", _relax_failing_in_workers)
    error = _assert_window_failure_exits_2(tmp_path, monkeypatch, capsys)
    assert isinstance(error.__cause__, MemoryError)
    assert "MemoryError: no room for the window" in str(error)

    # the serial path maps the same way, a SolverError from the window included
    disc = _tiny_disc()
    traj = initial_coarse_sweep(_sod_like(12), disc, None)

    def out_of_memory(*args, **kwargs):
        raise MemoryError("no room for the window")

    monkeypatch.setattr(kinetic_module, "bgk_relax", out_of_memory)
    with pytest.raises(SolverError, match=r"iteration 2 at window 2\b") as info:
        compute_jumps(traj, 2, disc, KineticParams(epsilon=1e-2), None)
    assert isinstance(info.value.__cause__, MemoryError)

    def solver_failure(*args, **kwargs):
        raise CorrectionOvershootError("own failure", slice_index=3)

    monkeypatch.setattr(kinetic_module, "bgk_relax", solver_failure)
    with pytest.raises(SolverError, match=r"^iteration 1 at window 1 failed: "
                       r"CorrectionOvershootError: own failure$") as info:
        compute_jumps(traj, 1, disc, KineticParams(epsilon=1e-2), None)
    assert isinstance(info.value.__cause__, CorrectionOvershootError)
    assert info.value.__cause__.slice_index == 3


def test_window_blow_up_names_iteration_and_window(tmp_path, monkeypatch, capsys):
    for workers in (1, 2):
        error = _assert_window_failure_exits_2(tmp_path, monkeypatch, capsys,
                                               workers=workers, epsilon=5e-324)
        assert str(error) == ("iteration 1 at window 1 failed: BlowUpError: "
                              "relaxation rate dt/epsilon is inf in every cell "
                              "at step 1")
        assert isinstance(error.__cause__, BlowUpError)
        assert error.__cause__.step == 1


def _fail_on_third_call(propagate):
    """propagate, but its third call raises BlowUpError."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise BlowUpError("planted failure at step 1", step=1)
        return propagate(*args, **kwargs)

    return wrapped


_PLANTED = "failed: BlowUpError: planted failure at step 1"


def test_coarse_sweep_names_the_failing_window(monkeypatch):
    monkeypatch.setattr(parareal, "propagate_fluid",
                        _fail_on_third_call(propagate_fluid))
    with pytest.raises(SolverError, match=f"^window 3 {_PLANTED}$") as info:
        initial_coarse_sweep(_sod_like(12), _tiny_disc(), None)
    assert isinstance(info.value.__cause__, BlowUpError)


def test_fluid_mode_names_the_failing_window(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(parareal, "propagate_fluid",
                        _fail_on_third_call(propagate_fluid))
    assert cli.main(["run", "--config", str(_tiny_config(tmp_path)), "--mode",
                     "fluid", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: window 3 {_PLANTED}\n"


def test_correction_names_the_failing_window(monkeypatch):
    # a failing coarse solve inside the correction names the iteration and
    # the window; an overshoot keeps its own CorrectionOvershootError
    disc = _tiny_disc()
    traj = initial_coarse_sweep(_sod_like(12), disc, None)
    monkeypatch.setattr(parareal, "propagate_fluid",
                        _fail_on_third_call(propagate_fluid))
    with pytest.raises(SolverError, match="^iteration 1 correction at window 3 "
                       f"{_PLANTED}$") as info:
        sequential_correction(traj, 1, disc, None)
    assert type(info.value) is SolverError
    assert isinstance(info.value.__cause__, BlowUpError)


def test_fine_chain_names_the_failing_window(monkeypatch):
    disc = _tiny_disc()
    monkeypatch.setattr(parareal, "propagate_kinetic",
                        _fail_on_third_call(propagate_kinetic))
    with pytest.raises(SolverError, match=f"^window 3 {_PLANTED}$") as info:
        fine_moment_chain(_sod_like(12), disc, KineticParams(epsilon=1e-2))
    assert isinstance(info.value.__cause__, BlowUpError)


def test_fine_chain_refuses_a_start_of_another_cell_count():
    # a 4-cell start on a 5-cell grid once escaped lift as a bare broadcast
    # ValueError, then failed inside window 1 with a message about lift's out
    disc = _tiny_disc(n_x=5)
    with pytest.raises(ConfigurationError,
                       match=r"^fine chain's start state has 4 cells for a grid of 5$"):
        fine_moment_chain(_sod_like(4), disc, KineticParams(epsilon=1e-2))


class _FailFirstCallPerProcess:
    """A relaxation that logs every call, fails a process's first one, sleeps after.

    Each forked worker holds its own copy of `failed_in`, so every worker's
    first window fails and all later windows run at a few ms per step.
    """

    def __init__(self, log):
        self.log = log
        self.failed_in = set()

    def __call__(self, *args, **kwargs):
        with open(self.log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        if os.getpid() not in self.failed_in:
            self.failed_in.add(os.getpid())
            raise MemoryError("first call in this process")
        time.sleep(0.005)
        return _relax(*args, **kwargs)


def test_failing_window_cancels_queued_windows(tmp_path, monkeypatch):
    # 16 windows of 4 steps each; one relaxation call per step
    disc = _tiny_disc(n_g=16, n_f=64)
    relax = _FailFirstCallPerProcess(tmp_path / "calls.log")
    monkeypatch.setattr(kinetic_module, "bgk_relax", relax)
    with pytest.raises(SolverError, match=r"^iteration 1 at window 1 failed: "
                       r"MemoryError"):
        run_parareal(_sod_like(12), PararealConfig(k_max=1, tol=1e-300, workers=2),
                     disc, KineticParams(epsilon=1e-2))
    calls = relax.log.read_text().split()
    assert os.getpid() not in map(int, calls)  # every window ran in a worker
    # running every window takes 16 * 4 calls; only the few windows already
    # handed to the pool's call queue when window 1 failed may still run
    assert len(calls) <= 16 * 4 // 2


def test_immediate_stop_on_loose_tolerance():
    disc = _tiny_disc()
    kinetic = KineticParams(epsilon=1e-2)
    _, records = run_parareal(_sod_like(12),
                              PararealConfig(k_max=5, tol=math.inf),
                              disc, kinetic)
    assert len(records) == 1


def test_worker_pool_run_is_deterministic():
    disc = _tiny_disc()
    kinetic = KineticParams(epsilon=1e-2)
    U0 = _sod_like(12)
    solo, rec1 = run_parareal(U0, PararealConfig(k_max=3, tol=1e-300, workers=1),
                              disc, kinetic)
    duo, rec2 = run_parareal(U0, PararealConfig(k_max=3, tol=1e-300, workers=2),
                             disc, kinetic)
    assert [r.error for r in rec1] == [r.error for r in rec2]
    for a, b in zip(solo.snapshots, duo.snapshots):
        assert np.array_equal(a.rho, b.rho)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.theta, b.theta)


def test_correction_overshoot_aborts_with_slice_index():
    disc = _tiny_disc()
    traj = initial_coarse_sweep(_sod_like(12), disc, None)
    traj.jumps[2].rho[:] = -10.0  # drives density negative in window 3
    with pytest.raises(CorrectionOvershootError) as info:
        sequential_correction(traj, 1, disc, None)
    assert info.value.slice_index == 3
    # named as every other window failure is: the iteration, then the window
    assert str(info.value).startswith(
        "iteration 1 correction at window 3 left the physical regime: "
        "corrected density at cell 0 is ")


def test_zero_jumps_give_zero_error():
    disc = _tiny_disc()
    traj = initial_coarse_sweep(_sod_like(12), disc, None)
    assert sequential_correction(traj, 1, disc, None) == 0.0


def test_config_validation():
    with pytest.raises(ConfigurationError):
        PararealConfig(k_max=0, tol=1e-8)
    with pytest.raises(ConfigurationError):
        PararealConfig(k_max=1, tol=0.0)
    with pytest.raises(ConfigurationError):
        PararealConfig(k_max=1, tol=1e-8, workers=0)


def test_estimate_k_opt_documented_example():
    assert estimate_k_opt(10.0, 0.1, 0.05, 0.05, 100, 32) == 24
    assert estimate_k_opt(10.0, 0.0, 0.0, 0.0, 100, 1) == 1


def test_compare_charges_k_opt_to_the_processes_that_run(tmp_path, monkeypatch):
    # k_opt models the pool of n_p = min(workers, n_g) processes, as the
    # report's ceiling and efficiency do, not the workers asked for
    given = []

    def recorded(*args, **kwargs):
        given.append(kwargs["n_p"])
        return estimate_k_opt(*args, **kwargs)

    monkeypatch.setattr(runner, "estimate_k_opt", recorded)
    cfg = config.RunConfig(case="sod", x_min=0.0, x_max=2.0, n_x=12, v_max=8.0,
                           n_vx=8, n_vy=8, n_vz=8, epsilon=1e-2, bc="absorbing",
                           t_final=0.05, n_g=1, n_f=4, k_max=1, tol=1e-300,
                           workers=2)
    report = runner.run_comparison(cfg, tmp_path)
    assert given == [1]
    assert report["efficiency"] == report["speedup"]


@pytest.mark.parametrize("args, message", [
    ((1.0, 0.1, 0.1, 0.1, 10, 0), r"^need n_p >= 1, got 0$"),
    ((1.0, 0.1, 0.1, 0.1, 0, 2), r"^need n_g >= 1, got 0$"),
    ((1.0, 0.1, 0.1, 0.1, 10, 2.0), r"^need an integer n_p, got 2\.0$"),
    ((0.0, 0.0, 0.0, 0.0, 10, 2), r"^need a finite t_kin > 0, got 0\.0$"),
    ((math.nan, 0.1, 0.1, 0.1, 10, 2), r"^need a finite t_kin > 0, got nan$"),
    ((math.inf, 0.1, 0.1, 0.1, 10, 2), r"^need a finite t_kin > 0, got inf$"),
    ((1.0, -0.1, 0.1, 0.1, 10, 2), r"^need a finite t_fluid >= 0, got -0\.1$"),
    ((1.0, 0.1, math.nan, 0.1, 10, 2), r"^need a finite t_lift >= 0, got nan$"),
    ((1.0, 0.1, 0.1, math.inf, 10, 2), r"^need a finite t_proj >= 0, got inf$"),
    ((1.0, 0.1, 0.1, "0.1", 10, 2), r"^need a real number t_proj, got '0\.1'$"),
])
def test_cost_model_refuses_inputs_out_of_range(args, message):
    # each raised a bare ZeroDivisionError or ValueError, or gave a number
    with pytest.raises(ConfigurationError, match=message):
        estimate_k_opt(*args)
    with pytest.raises(ConfigurationError, match=message):
        parareal_cost(3, *args)


def test_parareal_cost_break_even():
    # one fewer iteration than the estimate still beats the serial fine cost;
    # the estimate itself may exceed it by up to one window of coarse work
    t_kin, t_fluid, t_lift, t_proj, n_g, n_p = 10.0, 0.1, 0.05, 0.05, 100, 32
    k_opt = estimate_k_opt(t_kin, t_fluid, t_lift, t_proj, n_g, n_p)
    serial = n_g * t_kin
    assert parareal_cost(k_opt - 1, t_kin, t_fluid, t_lift, t_proj, n_g, n_p) <= serial
    assert parareal_cost(k_opt + 1, t_kin, t_fluid, t_lift, t_proj, n_g, n_p) > serial


@settings(max_examples=100, deadline=None)
@given(t_kin=st.floats(min_value=0.1, max_value=100.0),
       t_fluid=st.floats(min_value=0.001, max_value=1.0),
       n_g=st.integers(min_value=2, max_value=500),
       n_p=st.integers(min_value=1, max_value=64))
def test_k_opt_is_the_break_even_ceiling(t_kin, t_fluid, n_g, n_p):
    t_lift = t_proj = 0.01
    k_opt = estimate_k_opt(t_kin, t_fluid, t_lift, t_proj, n_g, n_p)
    serial = n_g * t_kin
    assert k_opt >= 1
    if k_opt > 1:
        assert parareal_cost(k_opt - 1, t_kin, t_fluid, t_lift, t_proj,
                             n_g, n_p) <= serial * (1.0 + 1e-12)
