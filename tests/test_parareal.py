"""Outer iteration: sweeps, jumps, corrections, cost model, partitioning."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from parabgk import (BoundaryKind, ConfigurationError, CorrectionOvershootError,
                     Discretization, FluidParams, KineticParams, MomentField,
                     PhaseGrid, PararealConfig, SolverError, build_spatial_grid,
                     build_time_grids, build_velocity_grid, estimate_k_opt,
                     fine_moment_chain, initial_coarse_sweep, lift,
                     parareal_cost, project, propagate_fluid, propagate_kinetic,
                     run_parareal, sequential_correction, work_distribution)
from parabgk import cli, runner
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
    fluid = FluidParams()
    traj = initial_coarse_sweep(U0, disc, fluid)
    assert len(traj.snapshots) == disc.time.n_g + 1
    assert traj.snapshots[0].sup_distance(U0) == 0.0
    U = U0
    times = disc.time.coarse_times
    for n in range(1, disc.time.n_g + 1):
        U = propagate_fluid(U, float(times[n - 1]), float(times[n]), disc.phase,
                            fluid, disc.bc, dt_max=disc.time.dt_g)
        assert traj.snapshots[n].sup_distance(U) == 0.0


def test_coarse_sweep_single_window():
    disc = _tiny_disc(n_g=1, n_f=4)
    U0 = _sod_like(12)
    traj = initial_coarse_sweep(U0, disc, FluidParams())
    assert len(traj.snapshots) == 2


def test_coarse_sweep_preserves_equilibrium():
    disc = _tiny_disc(bc=BoundaryKind.PERIODIC)
    traj = initial_coarse_sweep(_uniform(12), disc, FluidParams())
    for snap in traj.snapshots:
        assert snap.sup_distance(_uniform(12)) <= 1e-13


def test_jumps_vanish_on_equilibrium():
    # fine and coarse propagators both fix a uniform Maxwellian state, so the
    # defect is pure velocity-quadrature noise (dv = 0.5 at theta = 1)
    disc = _tiny_disc(bc=BoundaryKind.PERIODIC, n_v=32)
    kinetic = KineticParams(epsilon=1e-2)
    traj = initial_coarse_sweep(_uniform(12), disc, FluidParams())
    compute_jumps(traj, 1, disc, kinetic, FluidParams())
    for jump in traj.jumps:
        assert abs(jump.rho).max() <= 1e-12
        assert abs(jump.u).max() <= 1e-12
        assert abs(jump.theta).max() <= 1e-12


def test_compute_jumps_last_window_only():
    disc = _tiny_disc()
    kinetic = KineticParams(epsilon=1e-2)
    traj = initial_coarse_sweep(_sod_like(12), disc, FluidParams())
    compute_jumps(traj, disc.time.n_g, disc, kinetic, FluidParams())
    touched = [np.any(j.rho != 0.0) for j in traj.jumps]
    assert touched == [False, False, False, True]


def test_parallel_jumps_bitwise_equal_serial():
    disc = _tiny_disc()
    kinetic = KineticParams(epsilon=1e-2)
    fluid = FluidParams()
    serial = initial_coarse_sweep(_sod_like(12), disc, fluid)
    compute_jumps(serial, 1, disc, kinetic, fluid)
    pooled = initial_coarse_sweep(_sod_like(12), disc, fluid)
    executor = make_executor(2, disc, kinetic, fluid)
    try:
        compute_jumps(pooled, 1, disc, kinetic, fluid, executor=executor)
    finally:
        executor.shutdown()
    for a, b in zip(serial.jumps, pooled.jumps):
        assert np.array_equal(a.rho, b.rho)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.theta, b.theta)


def test_frozen_prefix_reproduces_fine_chain():
    disc = _tiny_disc()
    kinetic = KineticParams(epsilon=1e-2)
    fluid = FluidParams()
    U0 = _sod_like(12)
    chain = fine_moment_chain(U0, disc, kinetic)
    cfg = PararealConfig(k_max=3, tol=1e-300)
    traj, _ = run_parareal(U0, cfg, disc, kinetic, fluid)
    assert traj.frozen_upto == 3
    for n in range(0, 4):  # snapshots 0..k are fine-exact after k iterations
        assert traj.snapshots[n].sup_distance(chain[n]) <= 1e-13


def _full_sweep_parareal(U0, k_max, disc, kinetic, fluid):
    """Textbook parareal: every iteration revisits all windows.

    U^k_n = G(U^k_{n-1}) + F(U^{k-1}_{n-1}) - G(U^{k-1}_{n-1}), with F the
    lifted kinetic window projected back and G the Euler window.
    """
    times = disc.time.coarse_times

    def coarse(U, n):
        return propagate_fluid(U, float(times[n - 1]), float(times[n]), disc.phase,
                               fluid, disc.bc, dt_max=disc.time.dt_g)

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
    fluid = FluidParams()
    U0 = _sod_like(12)
    for k_max in (1, 2, 4):
        a, _ = run_parareal(U0, PararealConfig(k_max=k_max, tol=1e-300),
                            disc, kinetic, fluid)
        b = _full_sweep_parareal(U0, k_max, disc, kinetic, fluid)
        assert len(a.snapshots) == len(b)
        for x, y in zip(a.snapshots, b):
            assert x.sup_distance(y) <= 1e-12


_TEST_PID = os.getpid()


def _tau_killing_workers(rho, theta):
    # a pool worker that exits hard breaks the pool; this process never exits
    if os.getpid() != _TEST_PID:
        os._exit(1)
    return 1.0


def test_dead_worker_surfaces_as_solver_error(tmp_path, monkeypatch, capsys):
    disc = _tiny_disc()
    kinetic = KineticParams(epsilon=1e-2, tau=_tau_killing_workers)
    with pytest.raises(SolverError, match=r"iteration 1 at window [1-4]\b"):
        run_parareal(_sod_like(12), PararealConfig(k_max=2, tol=1e-300, workers=2),
                     disc, kinetic, FluidParams())

    build_params = runner.build_params

    def dying_params(cfg, disc):
        kinetic, fluid = build_params(cfg, disc)
        kinetic.tau = _tau_killing_workers
        return kinetic, fluid

    monkeypatch.setattr(runner, "build_params", dying_params)
    config = tmp_path / "run.cfg"
    config.write_text("case = sod\nx_min = 0.0\nx_max = 2.0\nn_x = 12\n"
                      "v_max = 8.0\nn_vx = 8\nn_vy = 8\nn_vz = 8\n"
                      "epsilon = 1e-2\nbc = absorbing\nt_final = 0.1\n"
                      "n_g = 4\nn_f = 16\nk_max = 2\ntol = 1e-300\n")
    assert cli.main(["run", "--config", str(config), "--workers", "2",
                     "--out", str(tmp_path / "out")]) == 2
    assert "iteration 1 at window" in capsys.readouterr().err


def test_immediate_stop_on_loose_tolerance():
    disc = _tiny_disc()
    kinetic = KineticParams(epsilon=1e-2)
    traj, records = run_parareal(_sod_like(12),
                                 PararealConfig(k_max=5, tol=math.inf),
                                 disc, kinetic, FluidParams())
    assert len(records) == 1
    assert traj.iteration == 1


def test_sink_receives_records_in_order():
    disc = _tiny_disc()
    kinetic = KineticParams(epsilon=1e-2)
    seen = []
    _, records = run_parareal(_sod_like(12), PararealConfig(k_max=3, tol=1e-300),
                              disc, kinetic, FluidParams(), sink=seen.append)
    assert [r.k for r in seen] == [1, 2, 3]
    assert seen == records


def test_worker_pool_run_is_deterministic():
    disc = _tiny_disc()
    kinetic = KineticParams(epsilon=1e-2)
    fluid = FluidParams()
    U0 = _sod_like(12)
    solo, rec1 = run_parareal(U0, PararealConfig(k_max=3, tol=1e-300, workers=1),
                              disc, kinetic, fluid)
    duo, rec2 = run_parareal(U0, PararealConfig(k_max=3, tol=1e-300, workers=2),
                             disc, kinetic, fluid)
    assert [r.error for r in rec1] == [r.error for r in rec2]
    for a, b in zip(solo.snapshots, duo.snapshots):
        assert np.array_equal(a.rho, b.rho)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.theta, b.theta)


def test_correction_overshoot_aborts_with_slice_index():
    disc = _tiny_disc()
    traj = initial_coarse_sweep(_sod_like(12), disc, FluidParams())
    traj.jumps[2].rho[:] = -10.0  # drives density negative in window 3
    with pytest.raises(CorrectionOvershootError) as info:
        sequential_correction(traj, 1, disc, FluidParams())
    assert info.value.slice_index == 3


def test_zero_jumps_give_zero_error():
    disc = _tiny_disc()
    traj = initial_coarse_sweep(_sod_like(12), disc, FluidParams())
    assert sequential_correction(traj, 1, disc, FluidParams()) == 0.0


def test_config_validation():
    with pytest.raises(ConfigurationError):
        PararealConfig(k_max=0, tol=1e-8)
    with pytest.raises(ConfigurationError):
        PararealConfig(k_max=1, tol=0.0)
    with pytest.raises(ConfigurationError):
        PararealConfig(k_max=1, tol=1e-8, workers=0)


def test_work_distribution_documented_examples():
    assert work_distribution(10, 3, 0)[:2] == (1, 4)
    assert work_distribution(10, 3, 1)[:2] == (5, 7)
    assert work_distribution(10, 3, 2)[:2] == (8, 10)
    for rank in range(4):
        r = work_distribution(4, 4, rank)
        assert (r.start, r.end, r.size) == (rank + 1, rank + 1, 1)
    empty = work_distribution(5, 8, 5)
    assert empty.start == 6 and empty.end == 5 and empty.size == 0


def test_work_distribution_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        work_distribution(10, 0, 0)
    with pytest.raises(ConfigurationError):
        work_distribution(10, 3, 3)
    with pytest.raises(ConfigurationError):
        work_distribution(-1, 3, 0)


@settings(max_examples=200, deadline=None)
@given(work=st.integers(min_value=0, max_value=64),
       n_p=st.integers(min_value=1, max_value=16))
def test_work_distribution_partitions_exactly(work, n_p):
    owned = []
    for rank in range(n_p):
        r = work_distribution(work, n_p, rank)
        assert r.size == max(0, r.end - r.start + 1)
        owned.extend(range(r.start, r.end + 1))
    assert sorted(owned) == list(range(1, work + 1))
    sizes = [work_distribution(work, n_p, rank).size for rank in range(n_p)]
    assert max(sizes) - min(sizes) <= 1  # even split up to the remainder


def test_estimate_k_opt_documented_example():
    assert estimate_k_opt(10.0, 0.1, 0.05, 0.05, 100, 32) == 24
    assert estimate_k_opt(10.0, 0.0, 0.0, 0.0, 100, 1) == 1


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
