"""Mesh builders: placement, symmetry, validation."""

import math
from dataclasses import fields

import numpy as np
import pytest

from parabgk import (BlowUpError, BoundaryKind, ConfigurationError,
                     DegenerateStateError, build_spatial_grid, build_time_grids,
                     build_velocity_grid)
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
    assert [f.name for f in fields(tg)] == ["n_g", "dt_f", "coarse_times"]
    assert tg.n_g == 200
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


@pytest.mark.parametrize("build, args, name", [
    (build_spatial_grid, (0.0, math.inf, 10), "x_max"),
    (build_velocity_grid, (math.inf, 8), "v_max"),
    (build_time_grids, (math.inf, 10, 20), "t_final"),
    (build_spatial_grid, (-1e308, 1e308, 10), "x_max"),
    (build_velocity_grid, (1e308, 8), "v_max"),
], ids=["x_max", "v_max", "t_final", "x-span", "v-width"])
def test_builders_reject_infinite_bounds(build, args, name):
    # an infinite bound would otherwise run on NaN cell widths or window
    # times; finite bounds whose span overflows gave infinite cell widths
    # (and, in velocity, a NaN center with a numpy warning)
    with pytest.raises(ConfigurationError, match=f"need finite {name}"):
        build(*args)


@pytest.mark.parametrize("build, args, message", [
    (build_spatial_grid, (0.0, 2.0, 2.5), "n_x, got 2.5"),
    (build_velocity_grid, (8.0, 6.5), "n_v, got 6.5"),
    (build_time_grids, (1.0, 2.5, 5), "n_g, got 2.5"),
], ids=["n_x", "n_v", "n_g"])
def test_builders_reject_non_integer_counts(build, args, message):
    # unchecked, 2.5 cells gave n_x = 2 with three centers, 6.5 velocity
    # cells per axis gave 6, and 2.5 windows a bare TypeError from linspace
    with pytest.raises(ConfigurationError, match=f"need an integer {message}$"):
        build(*args)


@pytest.mark.parametrize("build, args, message", [
    (build_spatial_grid, (0.0, "2", 4), "a real number x_max, got '2'"),
    (build_velocity_grid, ("8", 4), "a real number v_max, got '8'"),
    (build_velocity_grid, (8.0, None), "a count or three counts n_v, got None"),
    (build_time_grids, ("1", 2, 4), "a real number t_final, got '1'"),
    (build_time_grids, (10**400, 2, 4), "a real number t_final, got 1000"),
], ids=["x_max", "v_max", "n_v", "t_final", "huge-t_final"])
def test_builders_reject_a_setting_that_is_not_a_number(build, args, message):
    # these raised a bare TypeError (or, for an int past the float range,
    # OverflowError) from math.isfinite or tuple()
    with pytest.raises(ConfigurationError, match=f"^need {message}"):
        build(*args)


def test_boundary_kind_values():
    assert BoundaryKind("absorbing") is BoundaryKind.ABSORBING
    assert BoundaryKind("periodic") is BoundaryKind.PERIODIC


def test_march_schedule_and_guards():
    # steps are min(stable, remaining); the last one is partial
    steps = []

    def advance(t, dt):
        steps.append(dt)
        return t + dt

    assert march(0.0, 0.0, 1.0, lambda t: 0.3, advance) == 1.0
    assert steps == [0.3, 0.3, 0.3, 1.0 - (0.3 + 0.3 + 0.3)]
    steps.clear()
    # a cap that divides the span takes whole steps, with no trailing microstep
    march(0.0, 0.0, 1.0, lambda t: 0.25, advance)
    assert steps == [0.25] * 4
    steps.clear()
    state = object()
    assert march(state, 0.5, 0.5, lambda t: 0.3, advance) is state
    assert steps == []
    with pytest.raises(ConfigurationError):
        march(0.0, 1.0, 0.5, lambda t: 0.3, advance)

    # a state that turns degenerate inside a step is a blow-up at that step,
    # the one way a step fails
    def degenerate_advance(t, dt):
        if t + dt > 0.15:
            raise DegenerateStateError("density at cell 4 is nan")
        return t + dt

    with pytest.raises(BlowUpError,
                       match="^density at cell 4 is nan at step 2$") as info:
        march(0.0, 0.0, 1.0, lambda t: 0.1, degenerate_advance)
    assert info.value.step == 2
    assert isinstance(info.value.__cause__, DegenerateStateError)


def _stepper(limit=1000):
    """An advance that counts its calls and fails after limit of them, so a
    march that would never end stops with an AssertionError instead."""
    calls = []

    def advance(state, dt):
        calls.append(dt)
        if len(calls) > limit:
            raise AssertionError(f"march took {limit} steps of {calls[-1]}")
        return state

    return advance, calls


@pytest.mark.parametrize("t0, t1, message", [
    (0.0, math.nan, r"^need finite t1 >= t0, got \[0\.0, nan\]$"),
    (0.0, math.inf, r"^need finite t1 >= t0, got \[0\.0, inf\]$"),
    (math.nan, 1.0, r"^need finite t1 >= t0, got \[nan, 1\.0\]$"),
    (-math.inf, 0.0, r"^need finite t1 >= t0, got \[-inf, 0\.0\]$"),
    (-1e308, 1e308, r"^need finite t1 >= t0"),
], ids=["nan-end", "inf-end", "nan-start", "-inf-start", "overflowing-span"])
def test_march_refuses_a_span_it_cannot_step(t0, t1, message):
    # a non-finite end once returned the state after zero steps; it is
    # refused before a step
    advance, calls = _stepper()
    with pytest.raises(ConfigurationError, match=message):
        march(0.0, t0, t1, lambda t: 0.1, advance)
    assert calls == []


@pytest.mark.parametrize("stable", [0.0, -0.1, math.nan])
def test_march_fails_a_step_whose_size_is_not_positive(stable):
    # a stability cap that underflowed to 0, or came out negative or NaN,
    # once stepped forever or ended the span at once; it fails step 1
    advance, calls = _stepper()
    with pytest.raises(BlowUpError,
                       match=rf"^step size is {stable}, not > 0 at step 1$") as info:
        march(0.0, 0.0, 1.0, lambda t: stable, advance)
    assert info.value.step == 1
    assert calls == []


def test_march_names_the_step_whose_cap_fails():
    # a stable_dt that meets a state it cannot bound fails that step
    def stable(t):
        if t > 0.25:
            raise DegenerateStateError("the largest wave speed is 0.0")
        return 0.1

    with pytest.raises(BlowUpError, match=r"^the largest wave speed is 0\.0 "
                                          r"at step 4$") as info:
        march(0.0, 0.0, 1.0, stable, lambda t, dt: t + dt)
    assert info.value.step == 4
