"""Loud inputs in the moment, Euler and kinetic layers: a state over 0, 1,
2 or 5 cells whose entries are positive, zero, negative, NaN or infinite
gives a finite result or a SolverError, never another exception. Tier-1
turns a numpy RuntimeWarning into an error, so a warning fails these tests
too."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parabgk import (BoundaryKind, KineticParams, MomentField, PhaseGrid,
                     SolverError, SpatialGrid, bgk_relax, build_velocity_grid,
                     conserved_to_primitive, lift, maxwellian_marginals, project,
                     propagate_fluid, propagate_kinetic, transport_update)

_N_X = (0, 1, 2, 5)
_VELOCITY = build_velocity_grid(4.0, 2)
_FINITE = st.one_of(st.floats(0.25, 4.0), st.floats(-4.0, -0.25), st.just(0.0))
_ANY = st.one_of(_FINITE, st.sampled_from([math.nan, math.inf, -math.inf]))


def _rows(entries, width):
    """(n_x, width) arrays of the given entries, n_x one of _N_X."""
    return st.sampled_from(_N_X).flatmap(
        lambda n: st.lists(entries, min_size=n * width, max_size=n * width).map(
            lambda flat: np.array(flat, dtype=float).reshape(n, width)))


def _moments(rows):
    # columns rho, u_x, u_y, u_z, theta
    return MomentField(rows[:, 0].copy(), rows[:, 1:4].copy(), rows[:, 4].copy())


def _space(n_x):
    return SpatialGrid(n_x, 0.5, 0.5 * (np.arange(n_x) + 0.5))


def _finite_or_refused(call):
    """call's result, every array of which must be finite, or None when it
    raises a SolverError."""
    try:
        out = call()
    except SolverError:
        return None
    arrays = (out.rho, out.u, out.theta) if isinstance(out, MomentField) else out
    assert all(np.all(np.isfinite(a)) for a in arrays)
    return out


# the two refusals the Euler layer once got wrong: cold cells at rest divided
# by a zero wave speed, a negative temperature took a square root with a
# warning, and a state with no cells failed inside numpy
_COLD_AT_REST = np.array([[1.0, 0.0, 0.0, 0.0, 0.0]] * 2)
_NEGATIVE_THETA = np.array([[1.0, 0.0, 0.0, 0.0, -1.0]])
_NO_CELLS = np.empty((0, 5))
# an infinite momentum and energy leave inf - inf for the internal energy
_INFINITE_ENERGY = np.array([[1.0, math.inf, 0.0, 0.0, math.inf]])


@settings(max_examples=200, deadline=None)
@given(rows=_rows(_ANY, 5))
@example(rows=_COLD_AT_REST)
@example(rows=_NEGATIVE_THETA)
@example(rows=_NO_CELLS)
@example(rows=_INFINITE_ENERGY)
def test_moment_layers_take_any_state(rows):
    U = _moments(rows)
    grid = PhaseGrid(_space(len(rows)), _VELOCITY)
    if _finite_or_refused(lambda: U.require_physical("state") or ()) is not None:
        # a state that passes has cells, each finite with rho, theta > 0
        assert len(rows) and np.all(np.isfinite(rows))
        assert np.all(U.rho > 0.0) and np.all(U.theta > 0.0)
    _finite_or_refused(lambda: (lift(U, grid),))
    _finite_or_refused(lambda: maxwellian_marginals(U, grid))
    _finite_or_refused(lambda: conserved_to_primitive(rows))


@settings(max_examples=200, deadline=None)
@given(rows=_rows(_ANY, 5), bc=st.sampled_from(BoundaryKind),
       with_field=st.booleans())
@example(rows=_COLD_AT_REST, bc=BoundaryKind.ABSORBING, with_field=False)
@example(rows=_NEGATIVE_THETA, bc=BoundaryKind.PERIODIC, with_field=False)
@example(rows=_NO_CELLS, bc=BoundaryKind.PERIODIC, with_field=False)
def test_euler_layer_takes_any_state(rows, bc, with_field):
    n_x = len(rows)
    force = np.full(n_x, -1.0) if with_field else None
    _finite_or_refused(lambda: propagate_fluid(_moments(rows), 0.0, 0.05,
                                               _space(n_x), force, bc))


# a cell holding +inf and -inf, and a row past the float range, once made
# project's sums warn before its density check refused them
_OPPOSITE_INFINITIES = np.array([[math.inf, -math.inf] + [1.0] * 6, [1.0] * 8])
_HUGE_ROW = np.array([[1e308] * 8, [1.0] * 8])
_TWO_ROWS = np.ones((2, 8))


@settings(max_examples=200, deadline=None)
@given(cells=_rows(_ANY, 8))
@example(cells=np.empty((0, 8)))
@example(cells=_OPPOSITE_INFINITIES)
@example(cells=_HUGE_ROW)
def test_projection_takes_any_distribution(cells):
    grid = PhaseGrid(_space(len(cells)), _VELOCITY)
    _finite_or_refused(lambda: project(cells.reshape(-1, 2, 2, 2), grid))


# The kinetic layers take an f of n_x cells of 2^3 velocities on a grid that
# matches it, or differs from it in n_x or in n_v, and a step dt (the end of
# propagate_kinetic's span from 0) that is positive, zero, negative, NaN or
# infinite.
_STEPS = st.one_of(st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3),
                   st.sampled_from([0.0, math.nan, math.inf]))
_KINETIC = dict(mismatch=st.sampled_from([None, "n_x", "n_v"]), dt=_STEPS,
                bc=st.sampled_from(BoundaryKind), with_field=st.booleans())


def _kinetic_setup(n_x, mismatch, with_field):
    """The phase grid for an f of n_x cells, differing from f on the axis
    mismatch names, and a function making KineticParams with one field value
    per grid cell when with_field (an empty field is refused)."""
    grid_n_x = (n_x - 1 if n_x else 1) if mismatch == "n_x" else n_x
    velocity = build_velocity_grid(4.0, (2, 2, 1)) if mismatch == "n_v" else _VELOCITY
    force = np.full(grid_n_x, -1.0) if with_field else None
    return (PhaseGrid(_space(grid_n_x), velocity),
            lambda: KineticParams(epsilon=1e-2, force=force))


def _refused(call):
    with pytest.raises(SolverError):
        call()


@settings(max_examples=200, deadline=None)
@given(cells=_rows(_FINITE, 8), **_KINETIC)
@example(cells=_NO_CELLS, mismatch=None, dt=0.1, bc=BoundaryKind.PERIODIC,
         with_field=False)
@example(cells=np.empty((0, 8)), mismatch=None, dt=0.1, bc=BoundaryKind.ABSORBING,
         with_field=False)
@example(cells=_TWO_ROWS, mismatch="n_v", dt=0.1, bc=BoundaryKind.PERIODIC,
         with_field=False)
@example(cells=_TWO_ROWS, mismatch="n_x", dt=0.1, bc=BoundaryKind.ABSORBING,
         with_field=True)
@example(cells=_TWO_ROWS, mismatch=None, dt=-0.1, bc=BoundaryKind.PERIODIC,
         with_field=False)
@example(cells=_TWO_ROWS, mismatch=None, dt=math.nan, bc=BoundaryKind.PERIODIC,
         with_field=True)
@example(cells=_TWO_ROWS, mismatch=None, dt=math.inf, bc=BoundaryKind.ABSORBING,
         with_field=False)
@example(cells=_TWO_ROWS, mismatch=None, dt=1e308, bc=BoundaryKind.PERIODIC,
         with_field=True)
def test_transport_steps_what_it_can_and_refuses_the_rest(cells, mismatch, dt, bc,
                                                          with_field):
    """An f of no cells or of another shape than the grid's, and a dt
    outside [0, inf) or whose Courant bound dt v_max / dx (8 dt here)
    overflows, are refused; any other step returns a finite f. The entries
    are finite because the transport has no finiteness scan by design: a
    NaN or inf entry is left to the relaxation's projection, which the next
    test covers. A drawn positive dt is at most 1, where the Courant number
    is at most 4 and the step, unstable or not, stays finite."""
    n_x = len(cells)
    grid, params = _kinetic_setup(n_x, mismatch, with_field)
    f = cells.reshape(-1, 2, 2, 2)
    call = lambda: transport_update(f.copy(), dt, grid, params(), bc)  # noqa: E731
    if mismatch or not n_x or not 0.0 <= dt * 8.0 < math.inf:
        _refused(call)
    else:
        assert _finite_or_refused(call) is not None


@settings(max_examples=200, deadline=None)
@given(cells=_rows(_ANY, 8), **_KINETIC)
@example(cells=_NO_CELLS, mismatch=None, dt=0.1, bc=BoundaryKind.PERIODIC,
         with_field=False)
@example(cells=_TWO_ROWS, mismatch="n_v", dt=0.1, bc=BoundaryKind.PERIODIC,
         with_field=False)
@example(cells=_TWO_ROWS, mismatch="n_x", dt=0.1, bc=BoundaryKind.ABSORBING,
         with_field=True)
@example(cells=_TWO_ROWS, mismatch=None, dt=0.0, bc=BoundaryKind.PERIODIC,
         with_field=False)
@example(cells=_TWO_ROWS, mismatch=None, dt=-0.1, bc=BoundaryKind.PERIODIC,
         with_field=False)
@example(cells=_TWO_ROWS, mismatch=None, dt=math.nan, bc=BoundaryKind.PERIODIC,
         with_field=True)
@example(cells=_OPPOSITE_INFINITIES, mismatch=None, dt=0.1,
         bc=BoundaryKind.PERIODIC, with_field=False)
@example(cells=_HUGE_ROW, mismatch=None, dt=0.1, bc=BoundaryKind.ABSORBING,
         with_field=True)
def test_relaxation_and_propagation_take_any_distribution(cells, mismatch, dt, bc,
                                                          with_field):
    """bgk_relax with dt, and propagate_kinetic over [0, dt], refuse an f of
    no cells or of another shape than the grid's and a dt outside [0, inf).
    Any other call returns a finite f or a SolverError, except that
    propagation over [0, 0] takes no step and returns f as it was given."""
    n_x = len(cells)
    grid, params = _kinetic_setup(n_x, mismatch, with_field)
    f = cells.reshape(-1, 2, 2, 2)
    relax = lambda: bgk_relax(f.copy(), dt, grid, params())  # noqa: E731
    propagate = lambda: propagate_kinetic(f.copy(), 0.0, dt, grid,  # noqa: E731
                                          params(), bc)
    for call in (relax, propagate):
        if mismatch or not n_x or not 0.0 <= dt < math.inf:
            _refused(call)
        elif call is propagate and dt == 0.0:
            assert np.array_equal(call(), f, equal_nan=True)
        else:
            _finite_or_refused(call)
