"""Coarse propagator: flux formulas, symmetry, conservation, guards."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from parabgk import (BlowUpError, BoundaryKind, ConfigurationError, FluidParams,
                     MomentField, PhaseGrid, build_spatial_grid,
                     build_velocity_grid, conserved_to_primitive, euler_flux,
                     primitive_to_conserved, propagate_fluid, rusanov_flux,
                     stable_dt_fluid)


def _grid(n_x=50, x_max=2.0):
    # the velocity cube is irrelevant to the fluid path but PhaseGrid carries it
    return PhaseGrid(build_spatial_grid(0.0, x_max, n_x),
                     build_velocity_grid(8.0, 4))


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
    x = grid.space.centers
    sod = MomentField(np.where(x < 1.0, 1.0, 0.125), np.zeros((200, 3)),
                      np.where(x < 1.0, 1.0, 0.8))
    dt = stable_dt_fluid(primitive_to_conserved(sod), grid, FluidParams())
    assert dt == pytest.approx(0.9 * 0.01 / 1.0, rel=1e-14)

    grid2 = _grid(n_x=4)  # dx = 0.5
    uni = MomentField(np.ones(4), np.zeros((4, 3)), np.ones(4))
    dt2 = stable_dt_fluid(primitive_to_conserved(uni), grid2, FluidParams())
    assert dt2 == pytest.approx(0.45, rel=1e-14)


def test_constant_state_is_preserved():
    grid = _grid(n_x=16)
    U = MomentField(np.full(16, 0.7), np.tile([0.3, 0.0, 0.0], (16, 1)),
                    np.full(16, 1.2))
    out = propagate_fluid(U, 0.0, 0.3, grid, FluidParams(), BoundaryKind.PERIODIC)
    assert U.sup_distance(out) <= 1e-13


def test_mirror_symmetry():
    # reflecting x and u_x commutes with the update: evolve data that equals
    # its own reflection and check the symmetry survives many steps exactly
    grid = _grid(n_x=40)
    x = grid.space.centers
    rho = 1.0 + 0.5 * np.exp(-8.0 * (x - 1.0) ** 2)
    rho = 0.5 * (rho + rho[::-1])  # bitwise symmetric despite inexact centers
    ux = np.sin(np.pi * x)
    ux = 0.5 * (ux - ux[::-1])  # bitwise antisymmetric about x = 1
    U = MomentField(rho, np.stack([ux, np.zeros(40), np.zeros(40)], axis=1),
                    np.full(40, 1.0))
    out = propagate_fluid(U, 0.0, 0.2, grid, FluidParams(), BoundaryKind.PERIODIC)
    assert np.array_equal(out.rho, out.rho[::-1])
    assert np.array_equal(out.u[:, 0], -out.u[::-1, 0])
    assert np.array_equal(out.theta, out.theta[::-1])


def test_conservation_many_steps_periodic():
    grid = _grid()
    x = grid.space.centers
    U = MomentField(np.where(x < 1.0, 1.0, 0.125), np.zeros((50, 3)),
                    np.where(x < 1.0, 1.0, 0.8))
    V0 = primitive_to_conserved(U)
    mass0 = math.fsum(V0[:, 0])
    en0 = math.fsum(V0[:, 4])
    out = propagate_fluid(U, 0.0, 1.0, grid, FluidParams(), BoundaryKind.PERIODIC,
                          dt_max=2e-3)
    V1 = primitive_to_conserved(out)
    assert abs(math.fsum(V1[:, 0]) - mass0) <= 1e-13 * mass0
    assert abs(math.fsum(V1[:, 1])) <= 1e-13 * mass0
    assert abs(math.fsum(V1[:, 4]) - en0) <= 1e-13 * en0


def test_force_source_accounting():
    # one explicit step: momentum gains dt * sum(rho E) and energy gains
    # dt * sum(rho u_x E); fluxes telescope away under periodic wrap
    grid = _grid(n_x=20)
    x = grid.space.centers
    force = -5.0 * x ** 4 * (x - 2.0) ** 4 * (x - 1.0)
    rho = np.full(20, 2.0)
    ux = 0.1 * np.sin(np.pi * x)
    U = MomentField(rho, np.stack([ux, np.zeros(20), np.zeros(20)], axis=1),
                    np.full(20, 1.0))
    V0 = primitive_to_conserved(U)
    dt = 1e-3
    out = propagate_fluid(U, 0.0, dt, grid, FluidParams(force=force),
                          BoundaryKind.PERIODIC)
    V1 = primitive_to_conserved(out)
    dmom = math.fsum(V1[:, 1]) - math.fsum(V0[:, 1])
    den = math.fsum(V1[:, 4]) - math.fsum(V0[:, 4])
    assert dmom == pytest.approx(dt * math.fsum(rho * force), rel=1e-12)
    assert den == pytest.approx(dt * math.fsum(V0[:, 1] * force), rel=1e-10)
    assert math.fsum(V1[:, 0]) == pytest.approx(math.fsum(V0[:, 0]), rel=1e-14)


def test_sod_density_profile_against_exact_solution():
    from oracles import riemann_density
    grid = _grid(n_x=200)
    x = grid.space.centers
    U = MomentField(np.where(x < 1.0, 1.0, 0.125), np.zeros((200, 3)),
                    np.where(x < 1.0, 1.0, 0.8))
    t = 0.05
    out = propagate_fluid(U, 0.0, t, grid, FluidParams(), BoundaryKind.ABSORBING)
    exact = riemann_density((1.0, 0.0, 1.0), (0.125, 0.0, 0.1), (x - 1.0) / t)
    l1 = float(np.sum(np.abs(out.rho - exact)) * grid.space.dx)
    assert l1 <= 0.05


def test_empty_interval_and_reversed_interval():
    grid = _grid(n_x=4)
    U = MomentField(np.ones(4), np.zeros((4, 3)), np.ones(4))
    assert propagate_fluid(U, 0.5, 0.5, grid, FluidParams(),
                           BoundaryKind.PERIODIC) is U
    with pytest.raises(ConfigurationError):
        propagate_fluid(U, 1.0, 0.5, grid, FluidParams(), BoundaryKind.PERIODIC)


def test_blow_up_reports_step():
    # a strong decelerating field is outside the acoustic CFL budget, so the
    # explicit source drives the pressure negative and the guard must fire
    grid = _grid()
    u = np.zeros((50, 3))
    u[:, 0] = 1.0
    U = MomentField(np.ones(50), u, np.full(50, 1e-3))
    with pytest.raises(BlowUpError) as info:
        propagate_fluid(U, 0.0, 1.0, grid, FluidParams(force=np.full(50, -1000.0)),
                        BoundaryKind.PERIODIC)
    assert info.value.step >= 1


def test_propagate_respects_adaptive_schedule():
    # each step is min(stable_dt_fluid, dt_max, remaining) on the packed
    # conserved state; a manual replay of that schedule must land on the
    # identical state, with both the cap and the CFL bound taking turns
    grid = _grid(n_x=40)
    x = grid.space.centers
    U = MomentField(np.where(x < 1.0, 1.0, 0.125), np.zeros((40, 3)),
                    np.where(x < 1.0, 1.0, 0.8))
    params = FluidParams()
    dt_max = 0.04
    span = 0.3
    out = propagate_fluid(U, 0.0, span, grid, params, BoundaryKind.ABSORBING,
                          dt_max=dt_max)
    v = primitive_to_conserved(U)
    elapsed = 0.0
    binding = set()
    while span - elapsed > 1e-12 * span:
        stable = stable_dt_fluid(v, grid, params)
        dt = min(stable, dt_max, span - elapsed)
        binding.add("cfl" if dt == stable else "cap" if dt == dt_max else "rest")
        ext = np.concatenate([v[:1], v, v[-1:]])
        face = rusanov_flux(ext[:-1], ext[1:])
        v = v - (dt / grid.space.dx) * (face[1:] - face[:-1])
        elapsed += dt
    assert binding == {"cfl", "cap", "rest"}
    want = conserved_to_primitive(v)
    assert np.array_equal(out.rho, want.rho)
    assert np.array_equal(out.u, want.u)
    assert np.array_equal(out.theta, want.theta)
