"""Coarse propagator: flux formulas, symmetry, conservation, guards."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from parabgk import (BlowUpError, BoundaryKind, ConfigurationError,
                     DegenerateStateError, MomentField, build_spatial_grid,
                     conserved_to_primitive, euler_flux, primitive_to_conserved,
                     propagate_fluid, rusanov_flux, stable_dt_fluid)


def _grid(n_x=50, x_max=2.0):
    # the Euler layer needs only the spatial grid
    return build_spatial_grid(0.0, x_max, n_x)


def _packed(rho, ux, theta):
    U = MomentField(np.array([rho]), np.array([[ux, 0.0, 0.0]]), np.array([theta]))
    return primitive_to_conserved(U)[0]


def test_euler_flux_examples():
    assert list(euler_flux(_packed(1.0, 0.0, 1.0))) == [0.0, 1.0, 0.0, 0.0, 0.0]
    assert_allclose(euler_flux(_packed(1.0, 1.0, 2.0)),
                    [1.0, 3.0, 0.0, 0.0, 5.5], rtol=1e-15)
    assert_allclose(euler_flux(_packed(0.125, 0.0, 0.8)),
                    [0.0, 0.1, 0.0, 0.0, 0.0], atol=1e-16)


def test_rusanov_consistency():
    v = _packed(0.9, 0.4, 1.3)
    assert_allclose(rusanov_flux(v, v), euler_flux(v), rtol=1e-15)


def test_rusanov_sod_interface_value():
    got = rusanov_flux(_packed(1.0, 0.0, 1.0), _packed(0.125, 0.0, 0.8))
    assert_allclose(got, [0.4375, 0.55, 0.0, 0.0, 0.675], rtol=1e-15)


def test_rusanov_mirrored_states_have_zero_mass_flux():
    left = _packed(0.7, 0.9, 1.1)
    right = _packed(0.7, -0.9, 1.1)
    assert rusanov_flux(left, right)[0] == 0.0


def test_stable_dt_examples():
    grid = _grid(n_x=200)
    x = grid.centers
    sod = MomentField(np.where(x < 1.0, 1.0, 0.125), np.zeros((200, 3)),
                      np.where(x < 1.0, 1.0, 0.8))
    dt = stable_dt_fluid(primitive_to_conserved(sod), grid)
    assert dt == pytest.approx(0.9 * 0.01 / 1.0, rel=1e-14)

    grid2 = _grid(n_x=4)  # dx = 0.5
    uni = MomentField(np.ones(4), np.zeros((4, 3)), np.ones(4))
    dt2 = stable_dt_fluid(primitive_to_conserved(uni), grid2)
    assert dt2 == pytest.approx(0.45, rel=1e-14)


def test_stable_dt_refuses_a_state_with_no_wave_speed():
    # every cell at rest with theta = 0 once divided by zero
    cold = MomentField(np.ones(4), np.zeros((4, 3)), np.zeros(4))
    with pytest.raises(DegenerateStateError,
                       match=r"^the largest wave speed is 0\.0, not a finite "
                             r"positive number$"):
        stable_dt_fluid(primitive_to_conserved(cold), _grid(n_x=4))


def test_stable_dt_refuses_a_state_with_no_cells():
    # an empty state once failed in numpy's reduction of the wave speeds
    with pytest.raises(DegenerateStateError, match=r"^fluid state has no cells$"):
        stable_dt_fluid(np.empty((0, 5)), _grid(n_x=4))


@pytest.mark.parametrize("t0, t1", [(0.0, math.nan), (0.0, math.inf),
                                    (math.nan, 0.1), (math.inf, math.inf),
                                    (-math.inf, -math.inf)])
def test_propagate_refuses_an_end_that_is_not_finite(t0, t1):
    # a NaN or infinite end once returned the start state after zero steps,
    # and two equal infinite ends a copy of it
    grid = _grid(n_x=4)
    U = MomentField(np.ones(4), np.zeros((4, 3)), np.ones(4))
    with pytest.raises(ConfigurationError, match=r"^need finite t1 >= t0"):
        propagate_fluid(U, t0, t1, grid, None, BoundaryKind.PERIODIC)


def test_constant_state_is_preserved():
    grid = _grid(n_x=16)
    U = MomentField(np.full(16, 0.7), np.tile([0.3, 0.0, 0.0], (16, 1)),
                    np.full(16, 1.2))
    out = propagate_fluid(U, 0.0, 0.3, grid, None, BoundaryKind.PERIODIC)
    assert U.sup_distance(out) <= 1e-13


def test_mirror_symmetry():
    # reflecting x and u_x commutes with the update: evolve data that equals
    # its own reflection and check the symmetry survives many steps exactly
    grid = _grid(n_x=40)
    x = grid.centers
    rho = 1.0 + 0.5 * np.exp(-8.0 * (x - 1.0) ** 2)
    rho = 0.5 * (rho + rho[::-1])  # bitwise symmetric despite inexact centers
    ux = np.sin(np.pi * x)
    ux = 0.5 * (ux - ux[::-1])  # bitwise antisymmetric about x = 1
    U = MomentField(rho, np.stack([ux, np.zeros(40), np.zeros(40)], axis=1),
                    np.full(40, 1.0))
    out = propagate_fluid(U, 0.0, 0.2, grid, None, BoundaryKind.PERIODIC)
    assert np.array_equal(out.rho, out.rho[::-1])
    assert np.array_equal(out.u[:, 0], -out.u[::-1, 0])
    assert np.array_equal(out.theta, out.theta[::-1])


def test_conservation_many_steps_periodic():
    grid = _grid()
    x = grid.centers
    U = MomentField(np.where(x < 1.0, 1.0, 0.125), np.zeros((50, 3)),
                    np.where(x < 1.0, 1.0, 0.8))
    V0 = primitive_to_conserved(U)
    mass0 = math.fsum(V0[:, 0])
    en0 = math.fsum(V0[:, 4])
    out = propagate_fluid(U, 0.0, 1.0, grid, None, BoundaryKind.PERIODIC)
    V1 = primitive_to_conserved(out)
    assert abs(math.fsum(V1[:, 0]) - mass0) <= 1e-13 * mass0
    assert abs(math.fsum(V1[:, 1])) <= 1e-13 * mass0
    assert abs(math.fsum(V1[:, 4]) - en0) <= 1e-13 * en0


def test_force_source_accounting():
    # one explicit step: momentum gains dt * sum(rho E) and energy gains
    # dt * sum(rho u_x E); fluxes telescope away under periodic wrap
    grid = _grid(n_x=20)
    x = grid.centers
    force = -5.0 * x ** 4 * (x - 2.0) ** 4 * (x - 1.0)
    rho = np.full(20, 2.0)
    ux = 0.1 * np.sin(np.pi * x)
    U = MomentField(rho, np.stack([ux, np.zeros(20), np.zeros(20)], axis=1),
                    np.full(20, 1.0))
    V0 = primitive_to_conserved(U)
    dt = 1e-3
    out = propagate_fluid(U, 0.0, dt, grid, force, BoundaryKind.PERIODIC)
    V1 = primitive_to_conserved(out)
    dmom = math.fsum(V1[:, 1]) - math.fsum(V0[:, 1])
    den = math.fsum(V1[:, 4]) - math.fsum(V0[:, 4])
    assert dmom == pytest.approx(dt * math.fsum(rho * force), rel=1e-12)
    assert den == pytest.approx(dt * math.fsum(V0[:, 1] * force), rel=1e-10)
    assert math.fsum(V1[:, 0]) == pytest.approx(math.fsum(V0[:, 0]), rel=1e-14)


def test_sod_density_profile_against_exact_solution():
    from oracles import riemann_density
    grid = _grid(n_x=200)
    x = grid.centers
    U = MomentField(np.where(x < 1.0, 1.0, 0.125), np.zeros((200, 3)),
                    np.where(x < 1.0, 1.0, 0.8))
    t = 0.05
    out = propagate_fluid(U, 0.0, t, grid, None, BoundaryKind.ABSORBING)
    exact = riemann_density((1.0, 0.0, 1.0), (0.125, 0.0, 0.1), (x - 1.0) / t)
    l1 = float(np.sum(np.abs(out.rho - exact)) * grid.dx)
    assert l1 <= 0.05


def test_empty_interval_and_reversed_interval():
    grid = _grid(n_x=4)
    U = MomentField(np.ones(4), np.zeros((4, 3)), np.ones(4))
    # an empty interval returns a new field that shares no array with U
    same = propagate_fluid(U, 0.5, 0.5, grid, None, BoundaryKind.PERIODIC)
    assert same is not U
    assert not any(np.shares_memory(a, b) for a, b in
                   zip((same.rho, same.u, same.theta), (U.rho, U.u, U.theta)))
    assert same.sup_distance(U) == 0.0
    with pytest.raises(ConfigurationError):
        propagate_fluid(U, 1.0, 0.5, grid, None, BoundaryKind.PERIODIC)


def test_an_empty_span_takes_the_conserved_round_trip_and_no_step():
    # an empty span goes through march, which takes no step, so a moving
    # state comes back as its conserved round trip, not as a copy
    x = _grid(n_x=20).centers
    U = MomentField(1.0 + 0.3 * np.sin(np.pi * x),
                    np.stack([0.3 * np.cos(np.pi * x), 0.1 * x, -0.2 * x], axis=1),
                    0.7 + 0.1 * x)
    same = propagate_fluid(U, 0.25, 0.25, _grid(n_x=20), np.ones(20),
                           BoundaryKind.ABSORBING)
    trip = conserved_to_primitive(primitive_to_conserved(U))
    for got, want in zip((same.rho, same.u, same.theta), (trip.rho, trip.u, trip.theta)):
        assert got.tobytes() == want.tobytes()
    assert same.sup_distance(U) <= 1e-15


@pytest.mark.parametrize("theta, message", [
    (0.0, r"^fluid's initial temperature at cell 0 is 0\.0, not a finite positive"),
    (-1.0, r"^fluid's initial temperature at cell 0 is -1\.0, not a finite positive"),
    (None, r"^fluid's initial density has no cells$"),
], ids=["cold-at-rest", "negative-theta", "no-cells"])
def test_a_start_state_that_is_not_physical_is_refused(theta, message):
    # cells at rest at theta = 0 once divided by a zero wave speed, theta = -1
    # blamed a density of nan after a numpy warning, and no cells failed in a
    # numpy reduction; each is now refused before the first step
    n_x = 0 if theta is None else 4
    U = MomentField(np.ones(n_x), np.zeros((n_x, 3)), np.full(n_x, theta))
    for bc in BoundaryKind:
        with pytest.raises(DegenerateStateError, match=message):
            propagate_fluid(U, 0.0, 0.1, _grid(n_x=4), None, bc)


@pytest.mark.parametrize("n_x", [10, 60])
@pytest.mark.parametrize("field", [False, True], ids=["no-field", "field"])
def test_a_start_state_of_another_cell_count_is_refused(n_x, field):
    # a 10-cell state on a 50-cell grid once came back with 10 cells, stepped
    # with the 50-cell dx, and with a field failed inside numpy mid-step
    grid = _grid()
    U = MomentField(np.ones(n_x), np.zeros((n_x, 3)), np.ones(n_x))
    force = np.zeros(50) if field else None
    with pytest.raises(ConfigurationError,
                       match=rf"^fluid's initial state has {n_x} cells for a grid of 50$"):
        propagate_fluid(U, 0.0, 0.1, grid, force, BoundaryKind.PERIODIC)


def test_blow_up_reports_step():
    # a strong decelerating field is outside the acoustic CFL budget, so the
    # explicit source drives the pressure negative and the guard must fire
    grid = _grid()
    u = np.zeros((50, 3))
    u[:, 0] = 1.0
    U = MomentField(np.ones(50), u, np.full(50, 1e-3))
    with pytest.raises(BlowUpError) as info:
        propagate_fluid(U, 0.0, 1.0, grid, np.full(50, -1000.0),
                        BoundaryKind.PERIODIC)
    assert info.value.step >= 1
    assert re.fullmatch(r"fluid (density|pressure) at cell \d+ is .* at step \d+",
                        str(info.value))


def test_propagate_respects_adaptive_schedule():
    # each step is min(stable_dt_fluid, remaining) on the packed conserved
    # state; a manual replay of that schedule must land on the identical
    # state, with the CFL bound taking every step but a shorter last one
    grid = _grid(n_x=40)
    x = grid.centers
    U = MomentField(np.where(x < 1.0, 1.0, 0.125), np.zeros((40, 3)),
                    np.where(x < 1.0, 1.0, 0.8))
    span = 0.3
    out = propagate_fluid(U, 0.0, span, grid, None, BoundaryKind.ABSORBING)
    v = primitive_to_conserved(U)
    elapsed = 0.0
    binding = set()
    while span - elapsed > 1e-12 * span:
        stable = stable_dt_fluid(v, grid)
        dt = min(stable, span - elapsed)
        binding.add("cfl" if dt == stable else "rest")
        ext = np.concatenate([v[:1], v, v[-1:]])
        face = rusanov_flux(ext[:-1], ext[1:])
        v = v - (dt / grid.dx) * (face[1:] - face[:-1])
        elapsed += dt
    assert binding == {"cfl", "rest"}
    want = conserved_to_primitive(v)
    assert np.array_equal(out.rho, want.rho)
    assert np.array_equal(out.u, want.u)
    assert np.array_equal(out.theta, want.theta)
