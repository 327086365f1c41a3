"""Built-in problems: preset tables, initial data, confining field."""

import tracemalloc

import numpy as np
import pytest

from parabgk import (ConfigurationError, PRESETS, PhaseGrid, RunConfig,
                     beams_components, blast_moments,
                     build_spatial_grid, build_velocity_grid, external_force,
                     force_field, initial_distribution, initial_moments, lift,
                     project, sod_moments)
from parabgk import cases, runner


def test_preset_table():
    sod = PRESETS["sod"]
    assert (sod.n_x, sod.v_max) == (200, 8.0)
    assert (sod.n_vx, sod.n_vy, sod.n_vz) == (32, 32, 32)
    assert sod.epsilon == 1e-2 and sod.bc == "absorbing"
    assert (sod.t_final, sod.n_g, sod.n_f) == (0.5, 200, 800)
    assert (sod.k_max, sod.tol) == (80, 1e-8)
    blast = PRESETS["blast"]
    assert blast.k_max == 10
    beams = PRESETS["beams"]
    assert beams.epsilon == 1e-5 and beams.bc == "periodic"
    assert (beams.n_vx, beams.n_vy, beams.n_vz) == (256, 16, 16)
    assert all(preset.case == name and preset.preset is None
               for name, preset in PRESETS.items())


def test_sod_moments_classify_cells_by_center():
    space = build_spatial_grid(0.0, 2.0, 10)
    U = sod_moments(space)
    assert np.all(U.rho[:5] == 1.0) and np.all(U.rho[5:] == 0.125)
    assert np.all(U.theta[:5] == 1.0) and np.all(U.theta[5:] == 0.8)
    assert np.all(U.u == 0.0)


def test_blast_moments_three_bands():
    space = build_spatial_grid(0.0, 2.0, 10)
    U = blast_moments(space)
    assert np.all(U.rho == 1.0)
    # centers 0.1, 0.3 sit left of 0.4; 1.7, 1.9 right of 1.6
    assert list(U.u[:, 0]) == [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, -1.0]
    assert list(U.theta) == [2.0, 2.0, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 2.0, 2.0]


def test_external_force_roots_and_sample():
    E = external_force(np.array([0.0, 1.0, 2.0]))
    assert np.all(E == 0.0)
    assert external_force(np.array([0.5]))[0] == 0.791015625
    assert external_force(np.array([1.5]))[0] == -0.791015625


def test_external_force_antisymmetric_about_midpoint():
    s = np.array([0.5, 0.25, 0.125, 0.0625, 0.75, 0.875])
    assert np.array_equal(external_force(1.0 + s), -external_force(1.0 - s))
    # pushes toward the midpoint from both sides
    assert np.all(external_force(1.0 - s) > 0.0)
    assert np.all(external_force(1.0 + s) < 0.0)


def test_beams_built_in_place():
    # the second beam is added into the first one block of x rows at a time
    # (8 rows of 128x16x16 here): one array and one block at the peak, and
    # the same bytes as the plain sum, on a one-block grid and on one whose
    # last block is short
    for n_x, n_v in ((8, (32, 16, 16)), (44, (128, 16, 16))):
        grid = PhaseGrid(build_spatial_grid(0.0, 2.0, n_x), build_velocity_grid(8.0, n_v))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            f = initial_distribution("beams", grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        block = min(n_x, 8) * f[0].nbytes
        assert peak <= f.nbytes + block + f[0].nbytes
        fwd, bwd = (lift(U, grid) for U in beams_components(grid.space))
        assert f.tobytes() == (fwd + bwd).tobytes()


def test_beams_mixture_moments():
    grid = PhaseGrid(build_spatial_grid(0.0, 2.0, 4),
                     build_velocity_grid(8.0, (64, 32, 32)))
    U = project(initial_distribution("beams", grid), grid)
    assert np.abs(U.rho - 2.0).max() <= 1e-11
    # the two beams mirror each other node for node, so the folded first
    # moment cancels exactly
    assert np.all(U.u == 0.0)
    assert np.abs(U.theta - 4.0 / 3.0).max() <= 1e-10


@pytest.mark.parametrize("n_v", [16, (128, 16, 16), (15, 9, 7)])
@pytest.mark.parametrize("case", ["sod", "blast", "beams"])
def test_initial_moments_match_the_projected_distribution(case, n_v):
    # the moments from the components' marginals equal the cube's to
    # rounding, entry by entry, so an entry that is zero on the cube, u_y
    # and u_z everywhere, u_x in blast's middle band and all of beams', is
    # exactly zero here too
    grid = PhaseGrid(build_spatial_grid(0.0, 2.0, 50), build_velocity_grid(8.0, n_v))
    want = project(initial_distribution(case, grid), grid)
    got = initial_moments(case, grid)
    for a, b in ((got.rho, want.rho), (got.u, want.u), (got.theta, want.theta)):
        assert np.all(np.abs(a - b) <= 1e-15 * np.abs(b))
    assert np.all(got.u[:, 1:] == 0.0)
    if case == "beams":
        assert np.all(got.u == 0.0)


def _cfg(case, **overrides):
    values = dict(case=case, x_min=0.0, x_max=2.0, n_x=50, v_max=8.0, n_vx=128,
                  n_vy=16, n_vz=16, epsilon=1e-5, bc="periodic", t_final=0.01,
                  n_g=4, n_f=16, k_max=4, tol=1e-3)
    return RunConfig(**{**values, **overrides})


def test_prepare_builds_no_distribution():
    # at the beams-small benchmark geometry a state is 13 MB; set-up holds
    # the two beams' 1D tables, n_x (n_vx + n_vy + n_vz) doubles each (0.98 %
    # of the state together), and numpy's ufunc buffers for their broadcast
    # operands (measured peak 1.8 %), nothing near a cube
    cfg = _cfg("beams")
    runner.prepare(cfg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        disc, _, _, U0 = runner.prepare(cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 0.02 * 8 * cfg.n_x * cfg.n_vx * cfg.n_vy * cfg.n_vz
    assert U0.sup_distance(initial_moments("beams", disc.phase)) == 0.0


@pytest.mark.parametrize("mode, calls", [("fluid", 0), ("parareal", 0), ("fine", 1)])
def test_only_fine_mode_builds_the_initial_distribution(monkeypatch, tmp_path,
                                                        mode, calls):
    # with one worker every window runs in this process, so none of the
    # parareal mode's work builds a distribution from the case
    seen = []

    def counted(case, grid):
        seen.append(case)
        return initial_distribution(case, grid)

    monkeypatch.setattr(runner, "initial_distribution", counted)
    monkeypatch.setattr(cases, "initial_distribution", counted)
    runner.run_mode(_cfg("sod", n_x=12, n_vx=8, n_vy=6, n_vz=4, epsilon=1e-2,
                         bc="absorbing", n_g=2, n_f=4, k_max=2, workers=1,
                         mode=mode), tmp_path)
    assert len(seen) == calls


def test_force_field_dispatch():
    space = build_spatial_grid(0.0, 2.0, 8)
    assert force_field("sod", space) is None
    assert force_field("blast", space) is None
    field = force_field("beams", space)
    assert field.shape == (8,)
    assert np.array_equal(field, external_force(space.centers))


def test_unknown_case_rejected():
    grid = PhaseGrid(build_spatial_grid(0.0, 2.0, 4),
                     build_velocity_grid(8.0, 8))
    with pytest.raises(ConfigurationError, match="^unknown case 'vortex'$"):
        initial_distribution("vortex", grid)
    with pytest.raises(ConfigurationError, match="^unknown case 'vortex'$"):
        force_field("vortex", grid.space)
