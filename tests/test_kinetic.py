"""Fine propagator: transport stencil, relaxation blend, step control.

The quantitative checks pair each solver call with an independent scalar
accounting (fsum bookkeeping, closed-form recurrences) rather than re-running
the vectorized kernels.
"""

import math
import re
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from parabgk import (BlowUpError, BoundaryKind, ConfigurationError,
                     DegenerateStateError, KineticParams, MomentField,
                     PhaseGrid, RunConfig, bgk_relax, build_discretization,
                     build_params, build_spatial_grid, build_velocity_grid,
                     initial_distribution, lift, project,
                     propagate_fluid, propagate_kinetic, stable_dt_kinetic,
                     SolverError, transport_update)
from parabgk import kinetic, runner
from parabgk.runner import run_fine_mode
from oracles import reduced_fine, relax_weight, transport_reference


def _grid(n_x=8, v_max=8.0, n_v=8, x_max=2.0):
    return PhaseGrid(build_spatial_grid(0.0, x_max, n_x),
                     build_velocity_grid(v_max, n_v))


def _uniform(n_x, rho, u, theta):
    return MomentField(np.full(n_x, float(rho)),
                       np.tile(np.asarray(u, dtype=float), (n_x, 1)),
                       np.full(n_x, float(theta)))


def test_stable_dt_formula():
    grid = _grid(n_x=200, n_v=8)
    assert stable_dt_kinetic(grid, KineticParams(epsilon=1.0)) == 0.5 * 0.01 / 8.0
    half = _grid(n_x=400, n_v=8)
    assert stable_dt_kinetic(half, KineticParams(epsilon=1.0)) == pytest.approx(
        0.5 * 0.5 * 0.01 / 8.0, rel=1e-15)


def test_stable_dt_with_field():
    grid = PhaseGrid(build_spatial_grid(0.0, 2.0, 100),
                     build_velocity_grid(8.0, (256, 8, 8)))
    params = KineticParams(epsilon=1.0, force=np.full(100, 0.8))
    assert stable_dt_kinetic(grid, params) == pytest.approx(
        0.5 / (8.0 / 0.02 + 0.8 / 0.0625), rel=1e-15)


def test_transport_preserves_constants_periodic():
    grid = _grid()
    f = lift(_uniform(8, 1.0, (0.3, 0.0, 0.0), 1.0), grid)
    out = transport_update(f.copy(), 1e-3, grid, KineticParams(epsilon=1.0),
                           BoundaryKind.PERIODIC)
    assert np.array_equal(out, f)


def test_transport_upwind_moves_one_cell():
    grid = _grid()
    cx = grid.velocity.centers[0]
    j = int(np.argmax(cx))  # fastest rightward node
    vals = np.zeros((8, 8, 8, 8))
    vals[3, j, 4, 4] = 1.0
    # dt chosen so v dt / dx = 1: the whole parcel lands one cell right
    dt = grid.space.dx / cx[j]
    out = transport_update(vals, dt, grid, KineticParams(epsilon=1.0),
                           BoundaryKind.PERIODIC)
    assert out[4, j, 4, 4] == pytest.approx(1.0, rel=1e-14)
    assert out[3, j, 4, 4] == 0.0
    assert out.sum() == pytest.approx(1.0, rel=1e-14)


def test_transport_absorbing_lets_mass_leave():
    grid = _grid()
    cx = grid.velocity.centers[0]
    j = int(np.argmax(cx))
    vals = np.zeros((8, 8, 8, 8))
    vals[7, j, 4, 4] = 1.0  # rightmost cell, rightward velocity
    dt = grid.space.dx / cx[j]
    out = transport_update(vals, dt, grid, KineticParams(epsilon=1.0),
                           BoundaryKind.ABSORBING)
    assert out.sum() == 0.0


def test_field_term_momentum_source():
    # spatially uniform + periodic kills the x-flux, so the only momentum
    # change is the field source: d/dt (rho u_x) = E rho for interior support
    grid = _grid(n_x=4, n_v=32)
    e_field = 0.7
    params = KineticParams(epsilon=1.0, force=np.full(4, e_field))
    U = _uniform(4, 1.3, (0.2, 0.0, 0.0), 0.9)
    f = lift(U, grid)
    before = project(f, grid)
    dt = 1e-3
    out = project(transport_update(f, dt, grid, params, BoundaryKind.PERIODIC), grid)
    gained = out.rho * out.u[:, 0] - before.rho * before.u[:, 0]
    assert_allclose(gained, dt * e_field * before.rho, rtol=1e-12)


def test_field_term_conserves_mass():
    grid = _grid(n_x=4, n_v=16)
    params = KineticParams(epsilon=1.0, force=np.full(4, 0.9))
    f = lift(_uniform(4, 1.0, (0.0, 0.0, 0.0), 1.0), grid)
    out = transport_update(f.copy(), 2e-3, grid, params, BoundaryKind.PERIODIC)
    assert out.sum() == pytest.approx(f.sum(), rel=1e-14)


@pytest.mark.parametrize("n_vx", [1, 2, 5, 8])
@pytest.mark.parametrize("bc", [BoundaryKind.PERIODIC, BoundaryKind.ABSORBING])
@pytest.mark.parametrize("with_field", [False, True])
def test_transport_matches_scalar_oracle(n_vx, bc, with_field):
    # odd n_vx keeps a v_x = 0 column; n_vx = 2 has one interior v_x face, so
    # the two cells it joins take disjoint slices of the flux; random data
    # makes every donor cell, including those across the boundary, visible
    # in the result
    n_x = 6
    grid = PhaseGrid(build_spatial_grid(0.0, 2.0, n_x),
                     build_velocity_grid(8.0, (n_vx, 3, 2)))
    rng = np.random.default_rng(n_vx)
    f = rng.uniform(0.1, 1.0, size=(n_x, n_vx, 3, 2))
    force = rng.uniform(-1.0, 1.0, size=n_x) if with_field else None
    params = KineticParams(epsilon=1.0, force=force)
    dt = stable_dt_kinetic(grid, params)
    got = transport_update(f.copy(), dt, grid, params, bc)
    want = transport_reference(f, dt, grid.space.dx,
                               grid.velocity.centers[0], grid.velocity.dv[0],
                               bc is BoundaryKind.PERIODIC, force)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_field_with_one_vx_cell_is_inert():
    # one v_x cell has no interior face and the cube faces carry no flux
    grid = PhaseGrid(build_spatial_grid(0.0, 2.0, 8),
                     build_velocity_grid(8.0, (1, 4, 4)))
    f = lift(_uniform(8, 1.0, (0.0, 0.2, 0.0), 1.0), grid)
    field = KineticParams(epsilon=1e-2, force=np.full(8, 0.5))
    plain = KineticParams(epsilon=1e-2)
    got = transport_update(f.copy(), 1e-3, grid, field, BoundaryKind.PERIODIC)
    want = transport_update(f.copy(), 1e-3, grid, plain, BoundaryKind.PERIODIC)
    assert got.tobytes() == want.tobytes()
    out = propagate_kinetic(f, 0.0, 0.05, grid, field, BoundaryKind.PERIODIC)
    assert np.all(np.isfinite(out))


def _field_instance(n_x=20, n_v=(32, 16, 16)):
    grid = PhaseGrid(build_spatial_grid(0.0, 2.0, n_x),
                     build_velocity_grid(8.0, n_v))
    x = grid.space.centers
    U = MomentField(1.0 + 0.3 * np.sin(np.pi * x), np.zeros((n_x, 3)),
                    np.full(n_x, 0.9))
    params = KineticParams(epsilon=1e-2, force=0.5 * np.sin(np.pi * x))
    return grid, params, lift(U, grid)


def test_propagate_advances_its_argument_in_place():
    # the call returns the array it was given, stepped exactly as a manual
    # transport + relax loop on the same schedule steps a copy
    grid, params, f0 = _field_instance(n_x=8, n_v=(8, 4, 4))
    cap = stable_dt_kinetic(grid, params)
    span = 3.5 * cap
    f = f0.copy()
    got = propagate_kinetic(f, 0.0, span, grid, params, BoundaryKind.PERIODIC)
    assert got is f
    want = f0.copy()
    elapsed = 0.0
    while span - elapsed > 1e-12 * span:
        dt = min(cap, span - elapsed)
        assert transport_update(want, dt, grid, params, BoundaryKind.PERIODIC) is want
        assert bgk_relax(want, dt, grid, params) is want
        elapsed += dt
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bc", [BoundaryKind.PERIODIC, BoundaryKind.ABSORBING])
def test_kernels_same_bytes_with_and_without_buffers(bc, monkeypatch):
    # the relaxation's blocking does not show in the result: blocks of 1 and
    # 3 of the n_x = 8 rows, the latter leaving a short last block, give the
    # bytes of the default, where the whole state is one block
    grid, field, f = _field_instance(n_x=8, n_v=(9, 4, 4))
    f *= np.random.default_rng(2).uniform(0.5, 1.5, size=f.shape)
    assert kinetic._block_rows(grid) == 8
    for params in (field, KineticParams(epsilon=field.epsilon)):
        dt = stable_dt_kinetic(grid, params)
        whole_relax = bgk_relax(f.copy(), dt, grid, params)
        whole_window = propagate_kinetic(f.copy(), 0.0, 2.5 * dt, grid, params, bc)
        for rows in (1, 3):
            monkeypatch.setattr(kinetic, "_BLOCK_BYTES", rows * f[0].nbytes)
            assert kinetic._block_rows(grid) == rows
            probe = f.copy()
            assert propagate_kinetic(probe, 0.0, 2.5 * dt, grid, params, bc) is probe
            assert probe.tobytes() == whole_window.tobytes()

            probe = f.copy()
            assert bgk_relax(probe, dt, grid, params) is probe
            assert probe.tobytes() == whole_relax.tobytes()
            monkeypatch.undo()


@contextmanager
def _caller_bufsize(size):
    saved = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(saved)


def test_kinetic_step_changes_no_numpy_setting(monkeypatch):
    # a window changes nothing process-wide, numpy's ufunc buffer included
    grid, params, f = _field_instance(n_x=8, n_v=(9, 4, 4))

    def refuse(*args):
        raise AssertionError("np.setbufsize called")

    monkeypatch.setattr(np, "setbufsize", refuse)
    for bc in (BoundaryKind.PERIODIC, BoundaryKind.ABSORBING):
        propagate_kinetic(f, 0.0, 2.5 * stable_dt_kinetic(grid, params), grid,
                          params, bc)


@pytest.mark.parametrize("instance", ["field", "sod"])
def test_propagate_same_bytes_at_any_caller_buffer_size(instance):
    # the numerics do not depend on numpy's ufunc buffering
    if instance == "field":
        grid, params, f0 = _field_instance(n_x=8, n_v=(9, 4, 4))
        bc = BoundaryKind.PERIODIC
    else:
        grid = _grid(n_x=50, n_v=16)
        params, f0 = KineticParams(epsilon=1e-2), initial_distribution("sod", grid)
        bc = BoundaryKind.ABSORBING
    span = 4 * stable_dt_kinetic(grid, params)
    results = []
    for size in (16, 8192):
        with _caller_bufsize(size):
            results.append(propagate_kinetic(f0.copy(), 0.0, span, grid, params,
                                             bc).tobytes())
    assert results[0] == results[1]


def _traced_peak(call):
    """tracemalloc peak of call() above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_window_allocation_peak():
    # the state is the caller's; each relaxation allocates one block of 16 of
    # the 100 rows and frees it before the next transport allocates its few
    # rows, so the two are never alive together; the remaining temporaries
    # are per-cell, per-row or per-plane
    grid, params, f0 = _field_instance(n_x=100, n_v=(64, 16, 16))
    span = 4 * stable_dt_kinetic(grid, params)
    assert kinetic._block_rows(grid) == 16
    row = f0[0].nbytes
    for bc in (BoundaryKind.PERIODIC, BoundaryKind.ABSORBING):
        peak = _traced_peak(lambda: propagate_kinetic(f0, 0.0, span, grid,
                                                      params, bc))
        assert peak <= 16 * row + 3.5 * row, bc


@pytest.mark.parametrize("bc", [BoundaryKind.PERIODIC, BoundaryKind.ABSORBING])
def test_transport_allocation_peak(bc):
    # the transport sweeps the rows through one-row scratches: the increment,
    # the Courant numbers, the v_x flux and donor planes, and the inflow half
    # rows (behind, and beyond when periodic)
    grid, params, f = _field_instance(n_x=100, n_v=(64, 16, 16))
    dt = stable_dt_kinetic(grid, params)
    peak = _traced_peak(lambda: transport_update(f, dt, grid, params, bc))
    assert peak <= 5.5 * f[0].nbytes


@pytest.mark.parametrize("bc", ["periodic", "absorbing"])
def test_fine_mode_holds_one_state(bc):
    # the initial beams and every window share one state array; the blocks
    # of the initial data, the transport and the relaxation are 16 of the
    # 100 rows
    cfg = RunConfig(case="beams", x_min=0.0, x_max=2.0, n_x=100, v_max=8.0,
                    n_vx=64, n_vy=16, n_vz=16, epsilon=1e-2, bc=bc, t_final=0.01,
                    n_g=2, n_f=4, k_max=1, tol=1e-3, mode="fine")
    disc = build_discretization(cfg)
    params = build_params(cfg, disc)
    state_bytes = 8 * cfg.n_x * cfg.n_vx * cfg.n_vy * cfg.n_vz
    assert _traced_peak(lambda: run_fine_mode(cfg, disc, params)) <= 1.3 * state_bytes


def test_relax_fixed_point():
    grid = _grid(n_x=2, n_v=32)
    U = _uniform(2, 1.0, (0.0, 0.0, 0.0), 1.0)
    f = lift(U, grid, normalize_mass=True)
    out = bgk_relax(f.copy(), 1e-2, grid, KineticParams(epsilon=1e-2))
    assert np.max(np.abs(out - f)) <= 1e-14


def test_relax_with_zero_rate_leaves_f():
    # epsilon = inf gives lam = 0, which folds a zero weight into the Maxwellian
    grid = _grid(n_x=3, n_v=8)
    f = lift(_uniform(3, 1.0, (0.1, 0.0, 0.0), 0.8), grid) * 1.2
    out = bgk_relax(f.copy(), 1e-2, grid, KineticParams(epsilon=math.inf))
    assert out.tobytes() == f.tobytes()


def test_relax_is_convex_blend():
    # lambda = 1: the update must sit exactly halfway between f and the
    # Maxwellian of f's own moments, nodewise
    grid = _grid(n_x=2, n_v=16)
    rng = np.random.default_rng(5)
    base = lift(_uniform(2, 1.0, (0.0, 0.0, 0.0), 1.0), grid)
    f = base * rng.uniform(0.5, 1.5, size=base.shape)
    dt, eps = 0.25, 0.25
    out = bgk_relax(f.copy(), dt, grid, KineticParams(epsilon=eps))
    m = lift(project(f, grid), grid, normalize_mass=True)
    assert_allclose(out, 0.5 * (f + m), rtol=1e-14)
    # a node holding zero mass moves to exactly half the Maxwellian value
    probe = f.copy()
    probe[0, 3, 4, 5] = 0.0
    m2 = lift(project(probe, grid), grid, normalize_mass=True)
    out2 = bgk_relax(probe, dt, grid, KineticParams(epsilon=eps))
    assert out2[0, 3, 4, 5] == pytest.approx(0.5 * m2[0, 3, 4, 5], rel=1e-14)


def test_relax_strong_collision_limit():
    grid = _grid(n_x=2, n_v=16)
    base = lift(_uniform(2, 1.0, (0.0, 0.0, 0.0), 1.0), grid)
    f = base * 1.3
    lam = 1e-2 / 1e-6  # dt / epsilon
    out = bgk_relax(f.copy(), 1e-2, grid, KineticParams(epsilon=1e-6))
    m = lift(project(f, grid), grid, normalize_mass=True)
    gap0 = np.max(np.abs(f - m))
    assert np.max(np.abs(out - m)) <= gap0 / lam * 1.001


def test_relax_conserves_discrete_mass():
    grid = _grid(n_x=3, n_v=16)
    rng = np.random.default_rng(9)
    base = lift(_uniform(3, 1.0, (0.1, -0.2, 0.3), 0.8), grid)
    f = base * rng.uniform(0.8, 1.2, size=base.shape)
    before = f.sum(axis=(1, 2, 3))
    out = bgk_relax(f, 5e-3, grid, KineticParams(epsilon=1e-2))
    assert_allclose(out.sum(axis=(1, 2, 3)), before, rtol=1e-14)


def test_homogeneous_relaxation_matches_scalar_recurrence():
    # no gradients and no field: transport is the identity, so m steps reduce
    # nodewise to f_m = a f_0 + (1 - a) M with a from the closed form
    grid = _grid(n_x=2, n_v=32)
    f0 = lift(_uniform(2, 0.6, (0.5, 0.0, 0.0), 0.6), grid) \
        + lift(_uniform(2, 0.4, (-0.75, 0.0, 0.0), 0.5), grid)
    eps, dt, steps = 1e-1, 2e-3, 12
    params = KineticParams(epsilon=eps)
    f = f0.copy()
    for _ in range(steps):
        f = transport_update(f, dt, grid, params, BoundaryKind.PERIODIC)
        f = bgk_relax(f, dt, grid, params)
    a = relax_weight([dt / eps] * steps)
    U0 = project(f0, grid)
    m_eq = lift(U0, grid, normalize_mass=True)
    want = a * f0 + (1.0 - a) * m_eq
    assert np.max(np.abs(f - want)) <= 1e-13 * f0.max()


def test_propagate_empty_interval_returns_input():
    grid = _grid(n_x=2, n_v=8)
    f = lift(_uniform(2, 1.0, (0, 0, 0), 1.0), grid)
    assert propagate_kinetic(f, 0.3, 0.3, grid, KineticParams(epsilon=1.0),
                             BoundaryKind.PERIODIC) is f


def test_propagate_rejects_reversed_interval():
    grid = _grid(n_x=2, n_v=8)
    f = lift(_uniform(2, 1.0, (0, 0, 0), 1.0), grid)
    with pytest.raises(ConfigurationError):
        propagate_kinetic(f, 1.0, 0.0, grid, KineticParams(epsilon=1.0),
                          BoundaryKind.PERIODIC)


@pytest.mark.parametrize("t0, t1, dt_max", [(math.nan, 0.1, None), (0.0, math.inf, None),
                                            (0.0, 0.1, math.nan), (0.0, 0.1, 0.0),
                                            (0.0, 0.1, -1e-3)])
def test_propagate_refuses_an_end_or_cap_it_cannot_step(t0, t1, dt_max):
    # each once returned f after zero steps, stepped forever or ignored the
    # NaN cap; a NaN must not slip through min with the stability cap
    grid = _grid(n_x=2, n_v=8)
    f = lift(_uniform(2, 1.0, (0, 0, 0), 1.0), grid)
    before = f.copy()
    message = (r"^need finite t1 >= t0" if dt_max is None
               else rf"^need dt_max > 0, got {re.escape(str(dt_max))}$")
    with pytest.raises(ConfigurationError, match=message):
        propagate_kinetic(f, t0, t1, grid, KineticParams(epsilon=1.0),
                          BoundaryKind.PERIODIC, dt_max)
    assert np.array_equal(f, before)


def test_propagate_respects_dt_cap():
    # span = 3.5 caps: four steps, the last a partial one; the manual replay
    # of the same schedule must land on the identical state
    grid = _grid(n_x=8, n_v=8)
    params = KineticParams(epsilon=1e-1)
    U = MomentField(np.linspace(1.0, 2.0, 8), np.zeros((8, 3)), np.full(8, 0.8))
    f0 = lift(U, grid)
    cap = stable_dt_kinetic(grid, params)
    span = 3.5 * cap
    out = propagate_kinetic(f0.copy(), 0.0, span, grid, params, BoundaryKind.PERIODIC)
    f = f0.copy()
    elapsed = 0.0
    while span - elapsed > 1e-12 * span:
        dt = min(cap, span - elapsed)
        f = transport_update(f, dt, grid, params, BoundaryKind.PERIODIC)
        f = bgk_relax(f, dt, grid, params)
        elapsed += dt
    assert np.array_equal(out, f)


def test_absorbing_outflow_accounting():
    # mass lost over a window equals the accumulated boundary fluxes; the
    # bookkeeping replays the solver's own step schedule with fsum sums
    grid = _grid(n_x=10, n_v=8)
    params = KineticParams(epsilon=1e-2)
    x = grid.space.centers
    U = MomentField(np.where(x < 1.0, 1.0, 0.125), np.zeros((10, 3)),
                    np.where(x < 1.0, 1.0, 0.8))
    f = lift(U, grid)
    dvol = grid.velocity.cell_volume
    dx = grid.space.dx
    cx = grid.velocity.centers[0]
    vp = np.maximum(cx, 0.0)
    vm = np.minimum(cx, 0.0)
    cap = stable_dt_kinetic(grid, params)
    span = 10.5 * cap
    mass0 = math.fsum(f.ravel()) * dvol * dx
    outflow = []
    elapsed = 0.0
    while span - elapsed > 1e-12 * span:
        dt = min(cap, span - elapsed)
        right = np.einsum("j,jkl->", vp, f[-1])
        left = np.einsum("j,jkl->", -vm, f[0])
        outflow.append(dt * (right + left) * dvol)
        f = transport_update(f, dt, grid, params, BoundaryKind.ABSORBING)
        f = bgk_relax(f, dt, grid, params)
        elapsed += dt
    mass1 = math.fsum(f.ravel()) * dvol * dx
    lost = mass0 - mass1
    assert lost > 0.0
    assert abs(lost - math.fsum(outflow)) <= 1e-12 * mass0


def test_propagate_reports_blow_up_step():
    grid = _grid(n_x=4, n_v=8)
    f = lift(_uniform(4, 1.0, (0, 0, 0), 1.0), grid)
    f[0, 0, 0, 0] = np.nan
    with pytest.raises(BlowUpError) as info:
        propagate_kinetic(f, 0.0, 0.1, grid, KineticParams(epsilon=1e-2),
                          BoundaryKind.PERIODIC)
    assert info.value.step == 1
    # the relaxation's projection meets the NaN density and names its cell
    assert str(info.value) == ("density in projection at cell 0 is nan, not a "
                               "finite positive number at step 1")


@pytest.mark.parametrize("epsilon", [math.nan, -0.5, 0.0])
def test_kinetic_params_refuses_an_epsilon_not_positive(epsilon):
    # a NaN, negative or zero epsilon is refused where it is made, not at the
    # first relaxation step; a negative rate would otherwise blend to a finite
    # but meaningless state
    with pytest.raises(ConfigurationError, match=rf"^need epsilon > 0, got {epsilon}$"):
        KineticParams(epsilon=epsilon)
    with pytest.raises(ConfigurationError, match=r"^need epsilon > 0"):
        replace(KineticParams(epsilon=1e-2), epsilon=epsilon)


@pytest.mark.parametrize("epsilon", [5e-324])
def test_propagate_rejects_a_rate_outside_its_range(epsilon):
    # a positive epsilon so small that dt/epsilon overflows to inf
    grid = _grid(n_x=4, n_v=8)
    f = lift(_uniform(4, 1.0, (0, 0, 0), 1.0), grid)
    with pytest.raises(BlowUpError,
                       match=r"^relaxation rate dt/epsilon is \S+ in every cell "
                             r"at step 1$") as info:
        propagate_kinetic(f, 0.0, 0.1, grid, KineticParams(epsilon=epsilon),
                          BoundaryKind.PERIODIC)
    assert info.value.step == 1
    assert isinstance(info.value.__cause__, DegenerateStateError)


def test_replace_checks_the_field_again():
    # replace is the one way to change a KineticParams, and it checks the
    # new field as construction does
    with pytest.raises(ConfigurationError, match=r"^the field is nan in cell 0$"):
        replace(KineticParams(epsilon=1e-2), force=np.full(8, np.nan))


def _field_with(n, cell, value):
    force = np.full(n, 0.5)
    force[cell] = value
    return force


@pytest.mark.parametrize("force, message, mis_sized", [
    (_field_with(8, 3, np.nan), r"^the field is nan in cell 3$", False),
    (_field_with(8, 5, -np.inf), r"^the field is -inf in cell 5$", False),
    (np.full((8, 1), 0.5), r"^the field must hold one value per cell, got "
                           r"shape \(8, 1\)$", False),
    (np.empty(0), r"^the field must hold one value per cell, got shape \(0,\)$",
     False),
    (np.full(10, 0.5), r"^the field has 10 values for 8 cells$", True),
    (np.full(6, 0.5), r"^the field has 6 values for 8 cells$", True),
], ids=["nan", "inf", "2-D", "empty", "long", "short"])
def test_a_field_not_one_finite_value_per_cell_is_refused(force, message, mis_sized):
    # a NaN field once passed E_max = NaN > 0 as false and ran field-free; a
    # long one sized the step from cells that do not exist, a short one
    # failed with an IndexError, and the transport step alone once took a
    # long field's first values without a word
    grid = _grid(n_x=8, n_v=6)
    f = initial_distribution("sod", grid)
    params = lambda: KineticParams(epsilon=1e-2, force=force)  # noqa: E731
    for call in (lambda: propagate_kinetic(f, 0.0, 0.01, grid, params(),
                                           BoundaryKind.ABSORBING),
                 lambda: transport_update(f, 0.01, grid, params(),
                                          BoundaryKind.PERIODIC),
                 lambda: bgk_relax(f, 0.01, grid, params())):
        with pytest.raises(ConfigurationError, match=message):
            call()
    if mis_sized:
        # the Euler coarse refuses the same field before its first step
        with pytest.raises(ConfigurationError, match=message):
            propagate_fluid(project(f, grid), 0.0, 0.01, grid.space, force,
                            BoundaryKind.ABSORBING)


_ENTRIES = st.one_of(st.just(0.0),
                     st.floats(-300.0, 100.0).map(lambda e: 10.0 ** e))


# cell 0, one 1e100 and one 1e-215 entry, has a subnormal temperature and a
# mean exactly on a node, so its Maxwellian's factor sums are NaN: only lift's
# amplitude check stops it
_SUBNORMAL_THETA = [0.0] * 4 + [1e100, 1e-215] + [0.0] * 6 + [1.0] * 12


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(_ENTRIES, min_size=24, max_size=24),
       log_epsilon=st.floats(-300.0, 3.0))
@example(entries=_SUBNORMAL_THETA, log_epsilon=-2.0)
def test_relax_of_a_finite_state_is_finite_or_raises(entries, log_epsilon):
    # with the rate check, project's mass check and lift's checks, a finite
    # state needs no finiteness scan after the relaxation
    grid = _grid(n_x=2, n_v=(3, 2, 2))
    f = np.array(entries)
    params = KineticParams(epsilon=10.0 ** log_epsilon)
    try:
        out = bgk_relax(f.reshape(2, 3, 2, 2), stable_dt_kinetic(grid, params),
                        grid, params)
    except DegenerateStateError:
        return
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("case, bc", [("sod", "absorbing"), ("blast", "periodic"),
                                      ("beams", "periodic")])
def test_fine_mode_matches_reduced_velocity_oracle(case, bc):
    # the oracle runs the same scheme on the (v_y, v_z)-reduced marginal with
    # its own upwind, field flux and Maxwellian; beams carries the field. The
    # CFL cap binds below the window length, so each window ends on a
    # partial step
    cfg = RunConfig(case=case, x_min=0.0, x_max=2.0, n_x=12, v_max=6.0, n_vx=10,
                    n_vy=6, n_vz=4, epsilon=1e-2, bc=bc, t_final=0.08, n_g=4,
                    n_f=4, k_max=1, tol=1e-8, mode="fine")
    disc = build_discretization(cfg)
    params = build_params(cfg, disc)
    assert (params.force is not None) == (case == "beams")
    got = run_fine_mode(cfg, disc, params)
    phase = disc.phase
    want = reduced_fine(initial_distribution(case, phase), phase.space.dx,
                        phase.velocity.v_max, phase.velocity.centers, params.epsilon,
                        params.force, 0.5, bc == "periodic",
                        disc.time.coarse_times, disc.time.dt_f)
    assert len(got) == len(want) == cfg.n_g + 1
    for U, (rho, u, theta) in zip(got, want):
        assert U.sup_distance(MomentField(rho, u, theta)) <= 1e-13


@pytest.mark.parametrize("window", [1, 3])
def test_fine_mode_names_the_failing_window(monkeypatch, window):
    # a step failure names its window as parareal's does, while the step
    # counts from that window's start; windows before it run as usual
    cfg = RunConfig(case="sod", x_min=0.0, x_max=2.0, n_x=12, v_max=6.0, n_vx=8,
                    n_vy=6, n_vz=4, epsilon=1e-2, bc="absorbing", t_final=0.08,
                    n_g=4, n_f=4, k_max=1, tol=1e-8, mode="fine")
    disc = build_discretization(cfg)
    params = build_params(cfg, disc)
    t_fail = float(disc.time.coarse_times[window - 1])
    solved = []

    def tiny_epsilon_in_window(f, t0, t1, grid, params, *args, **kwargs):
        if t0 == t_fail:
            params = KineticParams(epsilon=5e-324)
        solved.append(t0)
        return propagate_kinetic(f, t0, t1, grid, params, *args, **kwargs)

    monkeypatch.setattr(runner, "propagate_kinetic", tiny_epsilon_in_window)
    with pytest.raises(SolverError,
                       match=rf"^window {window} failed: BlowUpError: relaxation "
                             r"rate dt/epsilon is inf in every cell at step 1$") as info:
        run_fine_mode(cfg, disc, params)
    assert type(info.value) is SolverError
    assert isinstance(info.value.__cause__, BlowUpError)
    assert len(solved) == window
