"""Acceptance gate: one test per shipped claim, tolerances pinned.

Each test is self-contained and states its instance inline so a failure
identifies the broken claim directly from the pytest -v line.
"""

import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from oracles import relax_weight, riemann_density

from parabgk import (BoundaryKind, Discretization, KineticParams,
                     MomentField, PhaseGrid, PararealConfig,
                     RunConfig, build_spatial_grid, build_time_grids,
                     build_velocity_grid, estimate_k_opt,
                     external_force, fine_moment_chain, initial_coarse_sweep,
                     initial_distribution, lift, project, propagate_fluid,
                     propagate_kinetic, read_convergence, read_snapshot,
                     run_comparison,
                     run_mode, run_parareal, sod_moments)
from parabgk.parareal import compute_jumps, make_executor


def _disc(n_x, n_v, t_final, n_g, n_f, bc=BoundaryKind.ABSORBING, v_max=8.0):
    phase = PhaseGrid(build_spatial_grid(0.0, 2.0, n_x),
                      build_velocity_grid(v_max, n_v))
    return Discretization(phase, build_time_grids(t_final, n_g, n_f), bc)


def _sup_gap(snapshots, reference):
    return max(a.sup_distance(b) for a, b in zip(snapshots, reference))


def test_criterion_01_parareal_reproduces_fine_chain():
    # tiny shock tube: k_max equal to the window count must recover the
    # window-wise fine trajectory; 8 nodes per axis need a tight bound or the
    # moment round trip distorts theta enough to overshoot
    disc = _disc(20, 8, 0.1, 8, 32, v_max=5.0)
    kinetic = KineticParams(epsilon=1e-2)
    U0 = sod_moments(disc.phase.space)
    tic = time.perf_counter()
    chain = fine_moment_chain(U0, disc, kinetic)
    traj, _ = run_parareal(U0, PararealConfig(k_max=8, tol=1e-300), disc, kinetic)
    elapsed = time.perf_counter() - tic
    assert _sup_gap(traj.snapshots, chain) <= 1e-10
    assert elapsed < 30.0


def test_criterion_02_exponential_convergence():
    disc = _disc(50, 16, 0.25, 50, 200)
    kinetic = KineticParams(epsilon=1e-2)
    U0 = sod_moments(disc.phase.space)
    tic = time.perf_counter()
    _, records = run_parareal(U0, PararealConfig(k_max=10, tol=1e-300), disc, kinetic)
    elapsed = time.perf_counter() - tic
    errors = [rec.error for rec in records]
    assert len(errors) == 10
    assert all(errors[i + 1] < errors[i] for i in range(7))
    k = np.arange(1, 11)
    y = np.log10(errors)
    slope, intercept = np.polyfit(k, y, 1)
    residual = y - (slope * k + intercept)
    r_squared = 1.0 - (residual @ residual) / ((y - y.mean()) @ (y - y.mean()))
    assert slope < 0.0
    assert r_squared > 0.9
    assert elapsed < 300.0


def test_criterion_03_first_iteration_corrects_first_window():
    disc = _disc(20, 8, 0.1, 8, 32, v_max=5.0)
    kinetic = KineticParams(epsilon=1e-2)
    U0 = sod_moments(disc.phase.space)
    traj, _ = run_parareal(U0, PararealConfig(k_max=1, tol=1e-300), disc, kinetic)
    f = lift(U0, disc.phase)
    f = propagate_kinetic(f, 0.0, float(disc.time.coarse_times[1]), disc.phase,
                          kinetic, disc.bc, dt_max=disc.time.dt_f)
    assert traj.snapshots[1].sup_distance(project(f, disc.phase)) <= 1e-12


def test_criterion_04_lift_project_fidelity():
    thetas = [0.25, 0.8, 1.0, 2.0]
    vels = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, -1.0, 0.0),
            (0.5, 0.5, -0.5), (-0.25, 0.0, 0.75)]
    rho = np.tile([0.5, 1.0, 2.0, 0.125], 5)
    u = np.repeat(np.asarray(vels), 4, axis=0)
    theta = np.tile(thetas, 5)
    U = MomentField(rho, u, theta)

    def max_error(points):
        grid = PhaseGrid(build_spatial_grid(0.0, 2.0, rho.size),
                         build_velocity_grid(8.0, points))
        got = project(lift(U, grid), grid)
        return max(np.abs(got.rho - U.rho).max(),
                   np.abs(got.u - U.u).max(),
                   np.abs(got.theta - U.theta).max())

    coarse, fine = max_error(16), max_error(32)
    assert fine <= 1e-5
    assert coarse > fine


def test_criterion_05_homogeneous_relaxation_closed_form():
    # uniform non-Maxwellian state: transport is inert, so 50 implicit steps
    # must land on the scalar convex recurrence exactly to rounding; 32 nodes
    # per axis keep the per-step moment quadrature drift below 1e-16
    grid = PhaseGrid(build_spatial_grid(0.0, 2.0, 4),
                     build_velocity_grid(8.0, 32))
    n_x = 4
    ones = np.ones(n_x)
    u1 = np.zeros((n_x, 3))
    u1[:, 0] = 0.5
    u2 = np.zeros((n_x, 3))
    u2[:, 0] = -0.75
    f0 = (lift(MomentField(ones, u1, 0.6 * ones), grid)
          + lift(MomentField(0.5 * ones, u2, 0.5 * ones), grid))
    epsilon, dt, steps = 0.1, 2e-3, 50
    kinetic = KineticParams(epsilon=epsilon)
    got = propagate_kinetic(f0.copy(), 0.0, dt * steps, grid, kinetic,
                            BoundaryKind.PERIODIC, dt_max=dt)
    M0 = lift(project(f0, grid), grid, normalize_mass=True)
    a = relax_weight([dt / epsilon] * steps)
    expected = a * f0 + (1.0 - a) * M0
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(f0).max()


def test_criterion_06_conservation_over_500_steps():
    # kinetic: discrete mass is exact up to roundoff under periodic transport
    # plus relaxation
    disc = _disc(30, (16, 8, 8), 0.1, 1, 500, bc=BoundaryKind.PERIODIC)
    kinetic = KineticParams(epsilon=1e-2)
    U0 = sod_moments(disc.phase.space)
    f = lift(U0, disc.phase)
    cell = disc.phase.velocity.cell_volume * disc.phase.space.dx
    mass0 = float(f.sum()) * cell
    f = propagate_kinetic(f, 0.0, 0.1, disc.phase, kinetic, disc.bc,
                          dt_max=0.1 / 500)
    mass1 = float(f.sum()) * cell
    assert abs(mass1 - mass0) / mass0 <= 1e-12

    # fluid, at its own CFL steps: all five conserved densities, momentum
    # drift scaled by the mass because the initial momentum is zero
    space = disc.phase.space
    V = propagate_fluid(U0, 0.0, 0.1, space, None, disc.bc)
    dx = space.dx
    mass_a = float(U0.rho.sum()) * dx
    mass_b = float(V.rho.sum()) * dx
    mom_a = (U0.rho[:, None] * U0.u).sum(axis=0) * dx
    mom_b = (V.rho[:, None] * V.u).sum(axis=0) * dx
    en_a = (0.5 * U0.rho * (U0.u ** 2).sum(axis=1)
            + 1.5 * U0.rho * U0.theta).sum() * dx
    en_b = (0.5 * V.rho * (V.u ** 2).sum(axis=1)
            + 1.5 * V.rho * V.theta).sum() * dx
    assert abs(mass_b - mass_a) / mass_a <= 1e-12
    assert np.abs(mom_b - mom_a).max() / mass_a <= 1e-12
    assert abs(en_b - en_a) / en_a <= 1e-12


def test_criterion_07_sod_density_matches_exact_riemann():
    space = build_spatial_grid(0.0, 2.0, 200)
    U0 = sod_moments(space)
    t = 0.1
    U = propagate_fluid(U0, 0.0, t, space, None, BoundaryKind.ABSORBING)
    exact = riemann_density((1.0, 0.0, 1.0), (0.125, 0.0, 0.1),
                            (space.centers - 1.0) / t)
    l1 = float(np.abs(U.rho - exact).sum() * space.dx)
    assert l1 <= 0.05


def test_criterion_08_kinetic_approaches_fluid_as_epsilon_shrinks():
    # smooth velocity perturbation: the physical viscosity gap scales with
    # epsilon at first order while the scheme-difference floor stays below it
    # for this data, so the L1 density gap must shrink along the sequence
    n_x = 100
    space = build_spatial_grid(0.0, 2.0, n_x)
    phase = PhaseGrid(space, build_velocity_grid(8.0, 16))
    u = np.zeros((n_x, 3))
    u[:, 0] = 0.2 * np.sin(np.pi * space.centers)
    U0 = MomentField(np.ones(n_x), u, 2.0 * np.ones(n_x))
    t = 0.05
    fluid_ref = propagate_fluid(U0, 0.0, t, space, None,
                                BoundaryKind.PERIODIC)

    def gap(epsilon):
        f = lift(U0, phase)
        f = propagate_kinetic(f, 0.0, t, phase, KineticParams(epsilon=epsilon),
                              BoundaryKind.PERIODIC)
        U = project(f, phase)
        return float(np.abs(U.rho - fluid_ref.rho).sum() * space.dx)

    gaps = [gap(eps) for eps in (1e-1, 1e-2, 1e-3)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_criterion_10_k_opt_example():
    assert estimate_k_opt(10.0, 0.1, 0.05, 0.05, 100, 32) == 24


@pytest.mark.skipif(os.cpu_count() is None or os.cpu_count() < 4,
                    reason="wall-time scaling clause needs >= 4 cores")
def test_criterion_10_first_iteration_scales_with_workers():
    disc = _disc(50, 16, 0.1, 8, 160)
    kinetic = KineticParams(epsilon=1e-2)
    U0 = sod_moments(disc.phase.space)

    def first_iteration_seconds(workers):
        traj = initial_coarse_sweep(U0, disc, None)
        executor = make_executor(workers, disc, kinetic, None) if workers > 1 else None
        try:
            tic = time.perf_counter()
            compute_jumps(traj, 1, disc, kinetic, None, executor=executor)
            return time.perf_counter() - tic
        finally:
            if executor is not None:
                executor.shutdown()

    t1 = first_iteration_seconds(1)
    t2 = first_iteration_seconds(2)
    t4 = first_iteration_seconds(4)
    assert t1 > t2 > t4


def test_criterion_11_outputs_identical_across_worker_counts():
    outputs = {}
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for workers in (1, 2, 8):
            cfg = RunConfig(case="sod", x_min=0.0, x_max=2.0, n_x=20,
                            v_max=5.0, n_vx=8, n_vy=8, n_vz=8, epsilon=1e-2,
                            bc="absorbing", t_final=0.1, n_g=8, n_f=32,
                            k_max=8, tol=1e-8, workers=workers)
            out = run_mode(cfg, f"{tmp}/w{workers}")
            snaps = {p.name: p.read_bytes() for p in sorted(out.glob("snap_*.csv"))}
            records = read_convergence(out / "convergence.csv")
            outputs[workers] = (snaps, [(r.k, r.error) for r in records])
    base_snaps, base_records = outputs[1]
    assert len(base_snaps) == 9
    for workers in (2, 8):
        snaps, records = outputs[workers]
        assert snaps == base_snaps  # byte-identical files
        assert records == base_records


def _artifacts(out):
    """Snapshot bytes by file name and the (k, error) pairs, if any, of one run."""
    snaps = {p.name: p.read_bytes() for p in sorted(out.glob("snap_*.csv"))}
    log = out / "convergence.csv"
    records = [(r.k, r.error) for r in read_convergence(log)] if log.exists() else None
    return snaps, records


def test_compare_writes_what_each_mode_writes(tmp_path):
    # the criterion-11 instance: compare's per-mode artifacts are run_mode's
    cfg = RunConfig(case="sod", x_min=0.0, x_max=2.0, n_x=20, v_max=5.0, n_vx=8,
                    n_vy=8, n_vz=8, epsilon=1e-2, bc="absorbing", t_final=0.1,
                    n_g=8, n_f=32, k_max=8, tol=1e-8, workers=2)
    cmp = tmp_path / "compare"
    report = run_comparison(cfg, cmp)
    # the pool runs no coarse solve: t_fluid is the fluid mode's mean window
    timing = json.loads((cmp / "timing.json").read_text())
    assert timing == report  # timing.json holds the report
    assert 0.0 < timing["t_fluid"] <= timing["fluid_seconds"]
    # the efficiency keys follow from the report's own fields: K iterations
    # solve K n_g - K (K - 1) / 2 of the n_g = 8 windows, on n_p = 2 processes
    K, n_p = len(timing["iterations"]), 2
    assert len(read_convergence(cmp / "parareal" / "convergence.csv")) == K
    assert timing["windows_solved"] == K * 8 - K * (K - 1) // 2
    assert timing["ceiling"] == n_p * 8 / timing["windows_solved"]
    assert timing["efficiency"] == timing["speedup"] / n_p
    assert timing["ceiling_frac"] == timing["speedup"] / timing["ceiling"]
    # gap_fine is the sup-norm gap between the snapshots the two runs wrote
    par, fine = ([read_snapshot(path) for path in sorted((cmp / mode).glob("snap_*.csv"))]
                 for mode in ("parareal", "fine"))
    gaps = [np.abs(a[key] - b[key]).max() for a, b in zip(par, fine)
            for key in ("rho", "ux", "uy", "uz", "theta")]
    assert len(gaps) == 9 * 5 and timing["gap_fine"] == max(gaps) > 0.0
    for mode in ("fluid", "fine", "parareal"):
        alone = _artifacts(run_mode(replace(cfg, mode=mode), tmp_path / mode))
        assert len(alone[0]) == 9
        assert (alone[1] is not None) == (mode == "parareal")
        assert _artifacts(cmp / mode) == alone


def test_criterion_12_confined_beams_concentrate_and_converge():
    phase = PhaseGrid(build_spatial_grid(0.0, 2.0, 50),
                      build_velocity_grid(6.0, (64, 8, 8)))
    disc = Discretization(phase, build_time_grids(0.5, 8, 240),
                          BoundaryKind.PERIODIC)
    force = external_force(phase.space.centers)
    kinetic = KineticParams(epsilon=1e-3, force=force)
    U0 = project(initial_distribution("beams", phase), phase)
    chain = fine_moment_chain(U0, disc, kinetic)
    traj, _ = run_parareal(U0, PararealConfig(k_max=6, tol=1e-300), disc, kinetic)
    assert _sup_gap(traj.snapshots, chain) <= 1e-4
    final = traj.snapshots[-1]
    peak_x = phase.space.centers[int(np.argmax(final.rho))]
    assert abs(peak_x - 1.0) <= 0.1
    assert final.rho.max() > 1.05 * U0.rho.max()
