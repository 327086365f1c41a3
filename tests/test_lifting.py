"""Maxwellian reconstruction against scalar oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from parabgk import (DegenerateStateError, MomentField, PhaseGrid,
                     build_spatial_grid, build_velocity_grid, lift, project)
from oracles import maxwellian_value


def _grid(n_v=32, v_max=8.0, n_x=2):
    return PhaseGrid(build_spatial_grid(0.0, 2.0, n_x),
                     build_velocity_grid(v_max, n_v))


def _uniform(n_x, rho, u, theta):
    return MomentField(np.full(n_x, float(rho)),
                       np.tile(np.asarray(u, dtype=float), (n_x, 1)),
                       np.full(n_x, float(theta)))


def test_lift_matches_scalar_formula_nodewise():
    grid = _grid(n_v=8)
    rho, u, theta = 0.7, (0.5, -0.3, 1.1), 0.9
    f = lift(_uniform(2, rho, u, theta), grid)
    c = grid.velocity.centers
    for jx in (0, 3, 7):
        for jy in (1, 6):
            for jz in (0, 5):
                want = maxwellian_value(rho, u, theta, (c[0][jx], c[1][jy], c[2][jz]))
                # the separable fast path exponentiates per axis, so far-out
                # nodes accumulate a few ulps relative to the single-exp form
                assert_allclose(f.values[0, jx, jy, jz], want, rtol=1e-12)


def test_round_trip_recovers_moments():
    grid = _grid()
    U = _uniform(2, 1.0, (0.0, 0.0, 0.0), 1.0)
    V = project(lift(U, grid), grid)
    assert U.sup_distance(V) <= 1e-6


def test_round_trip_error_shrinks_with_resolution():
    U = _uniform(2, 1.0, (0.5, 0.0, -0.5), 0.8)
    errs = []
    for n_v in (16, 32):
        grid = _grid(n_v=n_v)
        errs.append(U.sup_distance(project(lift(U, grid), grid)))
    assert errs[1] < errs[0]


def test_normalized_lift_has_exact_mass():
    # theta = 0.25 at dv = 0.5 leaves a visible quadrature mass defect; the
    # normalization flag must remove it to rounding
    grid = _grid()
    U = _uniform(2, 1.0, (0.0, 0.0, 0.0), 0.25)
    raw_mass = lift(U, grid).values.sum(axis=(1, 2, 3)) * grid.velocity.cell_volume
    assert np.all(np.abs(raw_mass - 1.0) < 1e-3)
    norm_mass = (lift(U, grid, normalize_mass=True).values.sum(axis=(1, 2, 3))
                 * grid.velocity.cell_volume)
    assert_allclose(norm_mass, 1.0, rtol=1e-14)


def test_lift_rejects_degenerate_inputs():
    grid = _grid(n_v=8)
    with pytest.raises(DegenerateStateError):
        lift(_uniform(2, 0.0, (0, 0, 0), 1.0), grid)
    with pytest.raises(DegenerateStateError):
        lift(_uniform(2, 1.0, (0, 0, 0), -1.0), grid)


def test_lift_varies_per_cell():
    grid = _grid(n_v=32, n_x=3)
    U = MomentField(np.array([0.5, 1.0, 2.0]),
                    np.array([[0.0, 0, 0], [0.5, 0, 0], [-0.5, 0, 0]]),
                    np.array([0.5, 1.0, 2.0]))
    V = project(lift(U, grid), grid)
    assert U.sup_distance(V) <= 1e-5
