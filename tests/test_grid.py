"""Mesh builders: placement, symmetry, validation."""

import numpy as np
import pytest

from parabgk import (BlowUpError, BoundaryKind, ConfigurationError,
                     build_spatial_grid, build_time_grids, build_velocity_grid)
from parabgk.grid import march


def test_spatial_grid_paper_resolution():
    grid = build_spatial_grid(0.0, 2.0, 200)
    assert grid.dx == 0.01
    assert grid.centers[0] == 0.005
    assert grid.n_x == 200
    assert grid.centers.shape == (200,)


def test_spatial_grid_two_cells():
    grid = build_spatial_grid(0.0, 1.0, 2)
    assert grid.dx == 0.5
    assert list(grid.centers) == [0.25, 0.75]


def test_spatial_grid_coarse_force_case():
    assert build_spatial_grid(0.0, 2.0, 100).dx == 0.02


def test_spatial_grid_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        build_spatial_grid(1.0, 1.0, 10)
    with pytest.raises(ConfigurationError):
        build_spatial_grid(2.0, 0.0, 10)
    with pytest.raises(ConfigurationError):
        build_spatial_grid(0.0, 2.0, 1)


def test_velocity_grid_spacing():
    assert build_velocity_grid(8.0, 32).dv == (0.5, 0.5, 0.5)
    assert build_velocity_grid(8.0, 256).dv[0] == 0.0625


def test_velocity_grid_two_point_centers():
    grid = build_velocity_grid(8.0, 2)
    assert list(grid.centers[0]) == [-4.0, 4.0]


def test_velocity_grid_centers_odd_symmetric_bitwise():
    # negating the grid index must negate the center with no rounding residue,
    # otherwise symmetric data stops projecting to u = 0 exactly
    for n in (7, 8, 32, 33):
        c = build_velocity_grid(8.0, n).centers[0]
        assert np.all(c + c[::-1] == 0.0)


def test_velocity_grid_per_axis_counts():
    grid = build_velocity_grid(8.0, (64, 8, 8))
    assert grid.n_v == (64, 8, 8)
    assert grid.dv == (0.25, 2.0, 2.0)
    assert grid.cell_volume == 0.25 * 2.0 * 2.0


def test_velocity_grid_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        build_velocity_grid(0.0, 8)
    with pytest.raises(ConfigurationError):
        build_velocity_grid(-1.0, 8)
    with pytest.raises(ConfigurationError):
        build_velocity_grid(8.0, (4, 4))
    with pytest.raises(ConfigurationError):
        build_velocity_grid(8.0, (4, 0, 4))


def test_time_grids_nesting():
    tg = build_time_grids(0.5, 200, 800)
    assert tg.dt_g == 0.5 / 200
    assert tg.dt_f == 0.5 / 800
    assert tg.coarse_times.shape == (201,)
    assert tg.coarse_times[0] == 0.0
    assert tg.coarse_times[-1] == 0.5  # linspace pins the endpoint exactly


def test_time_grids_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        build_time_grids(0.0, 10, 20)
    with pytest.raises(ConfigurationError):
        build_time_grids(1.0, 0, 20)
    with pytest.raises(ConfigurationError):
        build_time_grids(1.0, 10, 5)


def test_boundary_kind_values():
    assert BoundaryKind("absorbing") is BoundaryKind.ABSORBING
    assert BoundaryKind("periodic") is BoundaryKind.PERIODIC


def test_march_schedule_and_guards():
    # steps are min(stable, dt_max, remaining); the last one is partial
    steps = []

    def advance(t, dt):
        steps.append(dt)
        return t + dt

    def no_fault(t):
        return None

    assert march(0.0, 0.0, 1.0, lambda t: 0.3, advance, no_fault) == 1.0
    assert steps == [0.3, 0.3, 0.3, 1.0 - (0.3 + 0.3 + 0.3)]
    steps.clear()
    march(0.0, 0.0, 1.0, lambda t: 0.3, advance, no_fault, dt_max=0.25)
    assert steps == [0.25] * 4
    steps.clear()
    state = object()
    assert march(state, 0.5, 0.5, lambda t: 0.3, advance, no_fault) is state
    assert steps == []
    with pytest.raises(ConfigurationError):
        march(0.0, 1.0, 0.5, lambda t: 0.3, advance, no_fault)
    with pytest.raises(BlowUpError, match="went bad at step 3") as info:
        march(0.0, 0.0, 1.0, lambda t: 0.1, advance,
              lambda t: "went bad" if t > 0.25 else None)
    assert info.value.step == 3
