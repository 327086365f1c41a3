"""Projection quadrature and the primitive/conserved algebra."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from parabgk import (DegenerateStateError, Distribution,
                     MomentField, PhaseGrid, build_spatial_grid,
                     build_velocity_grid, conserved_to_primitive, lift,
                     primitive_to_conserved, project)
from oracles import gauss_moments


def _grid(n_x=4, v_max=8.0, n_v=32):
    return PhaseGrid(build_spatial_grid(0.0, 2.0, n_x),
                     build_velocity_grid(v_max, n_v))


def _uniform(n_x, rho, u, theta):
    return MomentField(np.full(n_x, float(rho)),
                       np.tile(np.asarray(u, dtype=float), (n_x, 1)),
                       np.full(n_x, float(theta)))


def test_project_matches_brute_force_oracle():
    grid = _grid()
    rho, u, theta = 1.3, (0.4, -0.2, 0.9), 0.7
    U = project(lift(_uniform(4, rho, u, theta), grid), grid)
    mass, ubar, theta_bar = gauss_moments(rho, u, theta, grid.velocity.centers)
    assert_allclose(U.rho[0], mass, rtol=1e-13)
    assert_allclose(U.u[0], ubar, atol=1e-13)
    assert_allclose(U.theta[0], theta_bar, rtol=1e-13)


def test_project_standard_maxwellian_within_quadrature_bound():
    grid = _grid()
    U = project(lift(_uniform(4, 1.0, (0.0, 0.0, 0.0), 1.0), grid), grid)
    assert_allclose(U.rho, 1.0, atol=1e-6)
    assert_allclose(U.u, 0.0, atol=1e-6)
    assert_allclose(U.theta, 1.0, atol=1e-6)


def test_project_even_data_gives_exact_zero_velocity():
    grid = _grid(n_x=2, n_v=16)
    rng = np.random.default_rng(7)
    half = rng.uniform(0.1, 1.0, size=(2, 8, 16, 16))
    vals = np.concatenate([half, half[:, ::-1]], axis=1)  # even in v_x
    U = project(Distribution(vals), grid)
    assert np.all(U.u[:, 0] == 0.0)


def test_project_point_mass_is_exact():
    # all mass in one velocity node: u is that node, theta is exactly zero
    grid = _grid(n_x=2, n_v=8)
    vals = np.zeros((2, 8, 8, 8))
    vals[:, 5, 2, 7] = 1.0 / grid.velocity.cell_volume
    U = project(Distribution(vals), grid)
    c = grid.velocity.centers
    assert np.all(U.rho == 1.0)
    assert list(U.u[0]) == [c[0][5], c[1][2], c[2][7]]
    assert np.all(U.theta == 0.0)


def test_project_zero_distribution_is_degenerate():
    grid = _grid(n_x=2, n_v=8)
    with pytest.raises(DegenerateStateError):
        project(Distribution(np.zeros((2, 8, 8, 8))), grid)


def test_primitive_to_conserved_examples():
    # packed per cell as (rho, rho u_x, rho u_y, rho u_z, E)
    v = primitive_to_conserved(_uniform(1, 1.0, (0.0, 0.0, 0.0), 1.0))
    assert v.shape == (1, 5)
    assert v[0, 4] == 1.5
    v = primitive_to_conserved(_uniform(1, 1.0, (1.0, 0.0, 0.0), 2.0))
    assert v[0, 4] == 3.5
    assert list(v[0, 1:4]) == [1.0, 0.0, 0.0]
    v = primitive_to_conserved(_uniform(1, 0.125, (0.0, 0.0, 0.0), 0.8))
    assert v[0, 4] == 0.15000000000000002


def test_conserved_to_primitive_examples():
    U = conserved_to_primitive(np.array([[1.0, 0.0, 0.0, 0.0, 1.5]]))
    assert U.theta[0] == 1.0
    U = conserved_to_primitive(np.array([[1.0, 1.0, 0.0, 0.0, 3.5]]))
    assert U.theta[0] == 2.0
    assert list(U.u[0]) == [1.0, 0.0, 0.0]


def test_conserved_to_primitive_rejects_degenerate():
    with pytest.raises(DegenerateStateError):
        conserved_to_primitive(np.array([[1.0, 0.0, 0.0, 0.0, 0.0]]))
    with pytest.raises(DegenerateStateError):
        conserved_to_primitive(np.array([[-1.0, 0.0, 0.0, 0.0, 1.0]]))


def test_round_trip_on_random_states():
    rng = np.random.default_rng(3)
    U = MomentField(rng.uniform(0.1, 3.0, 20),
                    rng.uniform(-2.0, 2.0, (20, 3)),
                    rng.uniform(0.05, 4.0, 20))
    W = conserved_to_primitive(primitive_to_conserved(U))
    assert U.sup_distance(W) <= 1e-13 * 4.0


def test_moment_field_algebra():
    a = _uniform(3, 1.0, (0.5, 0.0, 0.0), 1.0)
    b = _uniform(3, 0.25, (0.1, 0.0, 0.0), 0.5)
    s = a + b
    d = a - b
    assert np.all(s.rho == 1.25)
    assert np.all(d.theta == 0.5)
    assert a.sup_distance(a.copy()) == 0.0
    assert a.sup_distance(b) == 0.75
