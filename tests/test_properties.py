"""Loud inputs in the moment and Euler layers: a state over 0, 1, 2 or 5
cells whose entries are positive, zero, negative, NaN or infinite gives a
finite result or a SolverError, never another exception. Tier-1 turns a
numpy RuntimeWarning into an error, so a warning fails these tests too."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parabgk import (BoundaryKind, MomentField, PhaseGrid, SolverError,
                     SpatialGrid, build_velocity_grid, conserved_to_primitive,
                     lift, maxwellian_marginals, project, propagate_fluid)

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


@settings(max_examples=200, deadline=None)
@given(cells=_rows(st.one_of(_FINITE, st.just(math.nan)), 8))
@example(cells=np.empty((0, 8)))
def test_projection_takes_any_finite_or_nan_distribution(cells):
    # +inf and -inf in one cell make numpy warn while summing it, before the
    # density check can refuse the cell, so they are left out here
    grid = PhaseGrid(_space(len(cells)), _VELOCITY)
    _finite_or_refused(lambda: project(cells.reshape(-1, 2, 2, 2), grid))
