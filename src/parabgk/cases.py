"""Built-in test problems: initial data and confining field of each case."""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .grid import PhaseGrid, SpatialGrid
from .kinetic import _block_rows
from .lifting import lift
from .moments import MomentField

__all__ = [
    "CASES",
    "sod_moments",
    "blast_moments",
    "sod_initial",
    "blast_initial",
    "beams_initial",
    "external_force",
    "initial_distribution",
    "force_field",
]


def _piecewise(space: SpatialGrid, edges, states) -> MomentField:
    """states[i] applies on [edges[i-1], edges[i]); cells are classified by center."""
    x = space.centers
    rho = np.empty_like(x)
    u = np.zeros((x.size, 3))
    theta = np.empty_like(x)
    lo = -np.inf
    for edge, (r, ux, t) in zip(list(edges) + [np.inf], states):
        mask = (x >= lo) & (x < edge)
        rho[mask] = r
        u[mask, 0] = ux
        theta[mask] = t
        lo = edge
    return MomentField(rho, u, theta)


def sod_moments(space: SpatialGrid) -> MomentField:
    """Shock tube data: (1, 0, 1) left of x = 1, (0.125, 0, 0.8) right."""
    return _piecewise(space, [1.0], [(1.0, 0.0, 1.0), (0.125, 0.0, 0.8)])


def blast_moments(space: SpatialGrid) -> MomentField:
    """Two opposed streams feeding a hot band between x = 0.4 and x = 1.6."""
    return _piecewise(space, [0.4, 1.6],
                      [(1.0, 1.0, 2.0), (1.0, 0.0, 0.25), (1.0, -1.0, 2.0)])


def sod_initial(grid: PhaseGrid) -> np.ndarray:
    """Local Maxwellian of the shock tube moments."""
    return lift(sod_moments(grid.space), grid)


def blast_initial(grid: PhaseGrid) -> np.ndarray:
    """Local Maxwellian of the blast moments."""
    return lift(blast_moments(grid.space), grid)


def beams_initial(grid: PhaseGrid) -> np.ndarray:
    """Sum of two unit-density Maxwellian beams at u_x = +1 and -1.

    The mixture is not a Maxwellian: its moments are rho = 2, u = 0 and
    theta = 4/3 (per-axis variances 2, 1, 1 averaged over three axes). The
    forward beam is lifted into the result and the backward one added one
    block of x rows at a time, so the only array besides the result is one
    block.
    """
    n_x = grid.space.n_x
    ones = np.ones(n_x)
    u_fwd = np.zeros((n_x, 3))
    u_fwd[:, 0] = 1.0
    f = lift(MomentField(ones, u_fwd, ones.copy()), grid)
    rows = _block_rows(grid)
    block = np.empty((rows,) + grid.velocity.n_v)
    for a in range(0, n_x, rows):
        b = min(a + rows, n_x)
        back = MomentField(ones[a:b], -u_fwd[a:b], ones[a:b])
        f[a:b] += lift(back, grid, out=block[:b - a])
    return f


def external_force(x: np.ndarray) -> np.ndarray:
    """Confining field -5 x^4 (x-2)^4 (x-1): zero at 0, 1, 2, pushes mass to x = 1."""
    x = np.asarray(x, dtype=float)
    return -5.0 * x ** 4 * (x - 2.0) ** 4 * (x - 1.0)


# Each case's initial distribution and field; a None field means force-free.
CASES = {
    "sod": (sod_initial, None),
    "blast": (blast_initial, None),
    "beams": (beams_initial, external_force),
}


def _case(name: str):
    if name not in CASES:
        raise ConfigurationError(f"unknown case '{name}'")
    return CASES[name]


def initial_distribution(case: str, grid: PhaseGrid) -> np.ndarray:
    initial, _ = _case(case)
    return initial(grid)


def force_field(case: str, space: SpatialGrid) -> np.ndarray | None:
    """Per-cell field of the case, or None when the case is force-free."""
    _, field = _case(case)
    return None if field is None else field(space.centers)
