"""Maxwellian reconstruction against scalar oracles."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from parabgk import (ConfigurationError, DegenerateStateError, MomentField,
                     PhaseGrid, build_spatial_grid, build_velocity_grid, lift,
                     maxwellian_marginals, project)
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
                assert_allclose(f[0, jx, jy, jz], want, rtol=1e-12)


def _broadcast_lift(U, grid, normalize_mass, weight):
    """The cube as the 4-D broadcast product g_x (g_y g_z) of lift's tables."""
    v = grid.velocity
    inv2t = 1.0 / (2.0 * U.theta)
    g = []
    for axis in range(3):
        d = v.centers[axis][None, :] - U.u[:, axis, None]
        g.append(np.exp(-(d * d) * inv2t[:, None]))
    if normalize_mass:
        amp = U.rho / (g[0].sum(axis=1) * g[1].sum(axis=1) * g[2].sum(axis=1)
                       * v.cell_volume)
    else:
        amp = U.rho / (2.0 * np.pi * U.theta) ** 1.5
    gx = g[0] * (amp * weight)[:, None]
    gyz = g[1][:, :, None] * g[2][:, None, :]
    return gx[:, :, None, None] * gyz[:, None]


@pytest.mark.parametrize("normalize_mass", [False, True])
def test_lift_fills_every_node_on_anisotropic_grid(normalize_mass):
    # distinct counts per axis catch a plane filled in the wrong order; each
    # cell has its own moments, and a row slice of the moments must give the
    # same bytes as the same rows of the whole lift, whether lift allocates,
    # fills a given out or fills a block of rows of a larger array; the
    # weight scales every cell, and a zero weight gives a zero cube
    n_x = 5
    grid = PhaseGrid(build_spatial_grid(0.0, 2.0, n_x),
                     build_velocity_grid(4.0, (9, 4, 6)))
    rng = np.random.default_rng(11)
    U = MomentField(rng.uniform(0.5, 1.5, n_x), rng.uniform(-0.6, 0.6, (n_x, 3)),
                    rng.uniform(0.6, 1.4, n_x))
    weights = (0.25, 0.0)
    f = lift(U, grid, normalize_mass=normalize_mass)
    scaled = [lift(U, grid, normalize_mass=normalize_mass, weight=w) for w in weights]
    c = grid.velocity.centers
    dvol = grid.velocity.cell_volume
    for i in range(n_x):
        nodes = [(jx, jy, jz) for jx in range(9) for jy in range(4) for jz in range(6)]
        want = [maxwellian_value(U.rho[i], U.u[i], U.theta[i],
                                 (c[0][jx], c[1][jy], c[2][jz])) for jx, jy, jz in nodes]
        if normalize_mass:
            mass = math.fsum(want) * dvol
            want = [w * U.rho[i] / mass for w in want]
        for node, w in zip(nodes, want):
            assert f[(i,) + node] == pytest.approx(w, rel=1e-12)
            for weight, cube in zip(weights, scaled):
                assert cube[(i,) + node] == pytest.approx(weight * w, rel=1e-12)
    assert not scaled[1].any()
    rows = slice(1, 4)
    part = MomentField(U.rho[rows], U.u[rows], U.theta[rows])
    assert lift(part, grid, normalize_mass=normalize_mass).tobytes() == f[rows].tobytes()
    for weight, cube in zip(weights, scaled):
        want = _broadcast_lift(U, grid, normalize_mass, weight)
        assert cube.tobytes() == want.tobytes()
        out = np.full_like(want, np.nan)
        assert lift(U, grid, normalize_mass, out=out, weight=weight) is out
        assert out.tobytes() == want.tobytes()
        block = np.full_like(want, np.nan)
        lift(part, grid, normalize_mass, out=block[rows], weight=weight)
        assert block[rows].tobytes() == want[rows].tobytes()
        assert np.isnan(block[:1]).all() and np.isnan(block[4:]).all()


def test_lift_rejects_an_out_it_cannot_fill_in_place():
    # a strided view cannot be reshaped without a copy, which would leave
    # out unwritten
    grid = _grid(n_v=8)
    strided = np.zeros((2, 8, 8, 16))[..., ::2]
    with pytest.raises(ConfigurationError, match="C-contiguous"):
        lift(_uniform(2, 1.0, (0, 0, 0), 1.0), grid, out=strided)
    assert not strided.any()


@pytest.mark.parametrize("dtype", [np.float32, np.complex128])
def test_lift_rejects_an_out_of_another_dtype(dtype):
    # a float32 out once escaped einsum as a bare TypeError about casting
    out = np.zeros((5, 8, 8, 8), dtype=dtype)
    with pytest.raises(ConfigurationError, match=re.escape(
            f"lift needs a C-contiguous float64 out of shape (5, 8, 8, 8), got shape "
            f"(5, 8, 8, 8), dtype {np.dtype(dtype)}, C-contiguous True")):
        lift(_uniform(5, 1.0, (0, 0, 0), 1.0), _grid(n_v=8, n_x=5), out=out)
    assert not out.any()


@pytest.mark.parametrize("shape", [(4, 8, 8, 8), (6, 8, 8, 8), (5, 8, 8, 4), (5, 512)])
def test_lift_rejects_an_out_of_another_shape(shape):
    # 4 rows for 5 cells once failed in numpy's reshape, and 6 rows were
    # filled only in part
    out = np.zeros(shape)
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"out of shape (5, 8, 8, 8), got shape {shape}")):
        lift(_uniform(5, 1.0, (0, 0, 0), 1.0), _grid(n_v=8, n_x=5), out=out)
    assert not out.any()


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
    raw_mass = lift(U, grid).sum(axis=(1, 2, 3)) * grid.velocity.cell_volume
    assert np.all(np.abs(raw_mass - 1.0) < 1e-3)
    norm_mass = (lift(U, grid, normalize_mass=True).sum(axis=(1, 2, 3))
                 * grid.velocity.cell_volume)
    assert_allclose(norm_mass, 1.0, rtol=1e-14)


def test_lift_rejects_degenerate_inputs():
    # the first cell whose rho or theta is not a finite positive number is named
    grid = _grid(n_v=8, n_x=4)
    for bad in (0.0, -1.0, math.nan, math.inf):
        for field in ("rho", "theta"):
            U = _uniform(4, 1.0, (0, 0, 0), 1.0)
            getattr(U, field)[2:] = bad
            with pytest.raises(DegenerateStateError, match=r"at cell 2 is "):
                lift(U, grid)
    # a velocity that is not finite would fill the cell's cube with NaN
    for bad in (math.nan, math.inf):
        U = _uniform(4, 1.0, (0, 0, 0), 1.0)
        U.u[2, 1] = bad
        with pytest.raises(DegenerateStateError,
                           match=r"^lift's velocity at cell 2 is .*, not finite$"):
            lift(U, grid)
    # at this theta the nearest nodes, dv/2 from the mean, give factors that
    # underflow to 0, so the mass-normalising amplitude is inf; the
    # unnormalised one stays finite
    grid = _grid(n_v=16, n_x=4)
    U = _uniform(4, 1.0, (0, 0, 0), 1.0)
    U.theta[1:] = 1e-6
    with pytest.raises(DegenerateStateError,
                       match=r"^lift's amplitude at cell 1 is inf, not a finite "
                             r"positive number$"):
        lift(U, grid, normalize_mass=True)
    assert np.all(np.isfinite(lift(U, grid)))


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, -1.0, "0.5", None])
def test_lift_refuses_a_weight_that_is_not_a_finite_number_at_least_zero(weight):
    # it gave a NaN, an inf or a partly negative cube, or a bare TypeError;
    # out is left as it was
    grid = _grid(n_v=4, n_x=4)
    out = np.full((4, 4, 4, 4), 7.0)
    with pytest.raises(DegenerateStateError,
                       match=rf"^lift's weight is {re.escape(repr(weight))}, "
                             r"not a finite number >= 0$"):
        lift(_uniform(4, 1.0, (0, 0, 0), 1.0), grid, out=out, weight=weight)
    assert np.all(out == 7.0)


def test_maxwellian_marginals_share_lifts_checks():
    # at theta = 1e-300 the amplitude rho / (2 pi theta)^1.5 overflows
    grid = _grid(n_v=16, n_x=4)
    U = _uniform(4, 1.0, (0, 0, 0), 1.0)
    U.theta[1:] = 1e-300
    with pytest.raises(DegenerateStateError,
                       match=r"^lift's amplitude at cell 1 is inf, not a finite "):
        maxwellian_marginals(U, grid)
    U.rho[2] = math.nan
    with pytest.raises(DegenerateStateError, match=r"^lift's density at cell 2 is nan"):
        maxwellian_marginals(U, grid)


@pytest.mark.parametrize("n_v", [16, (128, 16, 16), (15, 9, 7)])
def test_maxwellian_marginals_match_the_cubes_axis_sums(n_v):
    # against the exactly rounded axis sums of lift's cube, entry by entry;
    # the float64 sums of the cube are themselves off by up to ~6e-15 on
    # 128x16x16. Cell 0 has u = 0 and the odd grid a zero centre, where every
    # marginal is symmetric bit for bit
    n_x = 5
    grid = PhaseGrid(build_spatial_grid(0.0, 2.0, n_x), build_velocity_grid(8.0, n_v))
    rng = np.random.default_rng(4)
    U = MomentField(rng.uniform(0.5, 1.5, n_x), rng.uniform(-1.0, 1.0, (n_x, 3)),
                    rng.uniform(0.3, 2.0, n_x))
    U.u[0] = 0.0
    f = lift(U, grid)
    got = maxwellian_marginals(U, grid)
    for axis, marg in enumerate(got):
        cube = np.moveaxis(f, axis + 1, 1)
        want = np.array([[math.fsum(cube[i, j].ravel()) for j in range(cube.shape[1])]
                         for i in range(n_x)])
        assert marg.shape == want.shape
        assert np.all(np.abs(marg - want) <= 1e-15 * want)
        assert np.array_equal(marg[0], marg[0][::-1])


def test_lift_varies_per_cell():
    grid = _grid(n_v=32, n_x=3)
    U = MomentField(np.array([0.5, 1.0, 2.0]),
                    np.array([[0.0, 0, 0], [0.5, 0, 0], [-0.5, 0, 0]]),
                    np.array([0.5, 1.0, 2.0]))
    V = project(lift(U, grid), grid)
    assert U.sup_distance(V) <= 1e-5
