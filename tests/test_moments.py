"""Projection quadrature and the primitive/conserved algebra."""

import dataclasses
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from parabgk import (ConfigurationError, DegenerateStateError, KineticParams,
                     MomentField, PhaseGrid, bgk_relax, build_spatial_grid,
                     build_velocity_grid, conserved_to_primitive, lift,
                     maxwellian_marginals, moments_of_marginals,
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
    # data even in one velocity axis has exactly zero mean velocity along it,
    # which keeps the snapshots' uy and uz columns at 0.0 on every built-in case
    grid = _grid(n_x=2, n_v=16)
    rng = np.random.default_rng(7)
    for axis in (1, 2, 3):
        half = np.moveaxis(rng.uniform(0.1, 1.0, size=(2, 8, 16, 16)), 1, axis)
        vals = np.concatenate([half, np.flip(half, axis=axis)], axis=axis)
        U = project(vals, grid)
        assert np.all(U.u[:, axis - 1] == 0.0)


def test_project_point_mass_is_exact():
    # all mass in one velocity node: u is that node, theta is exactly zero
    grid = _grid(n_x=2, n_v=8)
    vals = np.zeros((2, 8, 8, 8))
    vals[:, 5, 2, 7] = 1.0 / grid.velocity.cell_volume
    U = project(vals, grid)
    c = grid.velocity.centers
    assert np.all(U.rho == 1.0)
    assert list(U.u[0]) == [c[0][5], c[1][2], c[2][7]]
    assert np.all(U.theta == 0.0)


def test_project_zero_distribution_is_degenerate():
    # zero mass, a NaN node and an infinite node all leave no finite
    # positive density; the first such cell is named
    grid = _grid(n_x=3, n_v=8)
    for bad in (0.0, math.nan, math.inf):
        f = lift(_uniform(3, 1.0, (0.0, 0.0, 0.0), 1.0), grid)
        f[1:, 4, 4, 4] = bad
        if bad == 0.0:
            f[1:] = 0.0
        with pytest.raises(DegenerateStateError, match=r"at cell 1 is "):
            project(f, grid)


@pytest.mark.parametrize("shape", [(50, 8, 8, 4), (50, 8, 8), (10, 8, 8, 8),
                                   (0, 8, 8, 8)],
                         ids=["short-v_z", "3-D", "10-cells", "no-cells"])
def test_project_refuses_f_of_another_shape_than_the_grid(shape):
    # a short velocity axis once raised a bare ValueError and a 3-D array an
    # AxisError; project now refuses each as the relaxation does, in one check
    grid = _grid(n_x=50, n_v=8)
    f = np.ones(shape)
    with pytest.raises(ConfigurationError) as projected:
        project(f, grid)
    with pytest.raises(ConfigurationError) as relaxed:
        bgk_relax(f, 0.1, grid, KineticParams(epsilon=1.0))
    want = (rf"needs f of shape \(50, 8, 8, 8\) with n_x >= 1, "
            rf"got {re.escape(str(shape))}$")
    assert re.fullmatch("projection " + want, str(projected.value))
    assert re.fullmatch("relaxation " + want, str(relaxed.value))


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
    # a good cell, then the bad one, which is named
    for bad in ([1.0, 0.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0, 1.0],
                [math.nan, 0.0, 0.0, 0.0, 1.0], [math.inf, 0.0, 0.0, 0.0, 1.0],
                [1.0, 0.0, 0.0, 0.0, math.nan], [1.0, 0.0, 0.0, 0.0, math.inf]):
        v = np.array([[1.0, 0.0, 0.0, 0.0, 1.5], bad])
        with pytest.raises(DegenerateStateError, match=r"at cell 1 is "):
            conserved_to_primitive(v)


def test_a_state_with_no_cells_is_refused():
    # the checks once failed inside numpy, reshaping an empty array
    grid = _grid(n_v=4)
    empty = _uniform(0, 1.0, (0.0, 0.0, 0.0), 1.0)
    for call, what in ((lambda: empty.require_physical("state"), "state density"),
                       (lambda: lift(empty, grid), "lift's density"),
                       (lambda: maxwellian_marginals(empty, grid), "lift's density"),
                       (lambda: moments_of_marginals([np.empty((0, 4))] * 3, grid),
                        "density in projection"),
                       (lambda: conserved_to_primitive(np.empty((0, 5))),
                        "density in conserved state")):
        with pytest.raises(DegenerateStateError, match=f"^{what} has no cells$"):
            call()


@pytest.mark.parametrize("rho, u, theta", [
    ((5,), (5, 2), (5,)), ((5,), (5, 3), (4,)), ((5,), (5,), (5,)),
    ((5, 1), (5, 3), (5,)), ((), (3,), ()), ((0,), (0,), (0,)),
], ids=["u-of-2-columns", "theta-short", "u-1d", "rho-2d", "scalars", "no-cells-u-1d"])
def test_a_moment_field_of_parts_that_disagree_is_refused(rho, u, theta):
    # a 2-column u once reached write_snapshots as rows of 5 fields under a
    # 6-field header, lift as an IndexError, and a short theta lost a row
    with pytest.raises(ConfigurationError, match=re.escape(
            f"got shapes {(rho, u, theta)}")):
        MomentField(np.ones(rho), np.zeros(u), np.ones(theta))


def test_a_moment_field_of_parts_that_are_not_arrays_is_refused():
    # lists once escaped as a bare AttributeError from .shape
    with pytest.raises(ConfigurationError, match=re.escape(
            "a MomentField needs numpy arrays, got types ('list', 'list', 'list')")):
        MomentField([1.0], [[0.0, 0.0, 0.0]], [1.0])
    with pytest.raises(ConfigurationError, match=re.escape(
            "got types ('ndarray', 'ndarray', 'float')")):
        MomentField(np.ones(1), np.zeros((1, 3)), 1.0)


def test_a_moment_field_part_cannot_be_rebound():
    # a 2-column u rebound after construction once reached write_snapshots
    # as rows of 5 fields under the 6-field header; elements stay writable
    U = _uniform(5, 1.0, (0, 0, 0), 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        U.u = np.zeros((5, 2))
    U.theta[1:] = 0.5
    assert U.u.shape == (5, 3) and U.theta[1] == 0.5


@pytest.mark.parametrize("shapes", [
    [(5, 4)] * 3, [(5, 8)] * 2, [(5, 8), (5, 8), (4, 8)], [(8,)] * 3, [],
], ids=["other-n-v", "two", "cells-disagree", "1d", "none"])
def test_marginals_that_do_not_fit_the_grid_are_refused(shapes):
    # three (5, 4) marginals on an 8^3 grid once failed in a numpy broadcast,
    # and two marginals with an IndexError
    with pytest.raises(ConfigurationError, match=re.escape(
            f"need shapes (n, 8), (n, 8), (n, 8) for one n, got {tuple(shapes)}")):
        moments_of_marginals([np.ones(s) for s in shapes], _grid(n_x=5, n_v=8))


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
