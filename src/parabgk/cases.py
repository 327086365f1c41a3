"""Built-in test problems: initial data and confining field of each case.

A case's initial distribution is a sum of cell-local Maxwellians, its
components: one for sod and blast, two beams for beams. Everything else
follows from that list. initial_distribution lifts the components into one
array, and initial_moments takes the moments of the same sum from the
components' 1D marginals, which are linear in the distribution, so the
coarse solver and the outer iteration start without a distribution ever
being built.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .grid import PhaseGrid, SpatialGrid
from .kinetic import _block_rows
from .moments import MomentField, lift, maxwellian_marginals, moments_of_marginals

__all__ = [
    "CASES",
    "sod_moments",
    "blast_moments",
    "beams_components",
    "external_force",
    "initial_distribution",
    "initial_moments",
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


def beams_components(space: SpatialGrid) -> list[MomentField]:
    """Two unit-density, unit-temperature Maxwellian beams at u_x = +1 and -1.

    Their sum is not a Maxwellian: its moments are rho = 2, u = 0 and
    theta = 4/3 (per-axis variances 2, 1, 1 averaged over three axes).
    """
    ones = np.ones(space.n_x)
    u = np.zeros((space.n_x, 3))
    u[:, 0] = 1.0
    return [MomentField(ones, u, ones), MomentField(ones, -u, ones)]


def external_force(x: np.ndarray) -> np.ndarray:
    """Confining field -5 x^4 (x-2)^4 (x-1): zero at 0, 1, 2, pushes mass to x = 1."""
    x = np.asarray(x, dtype=float)
    return -5.0 * x ** 4 * (x - 2.0) ** 4 * (x - 1.0)


# Each case's Maxwellian components and its field; a None field means
# force-free.
CASES = {
    "sod": (lambda space: [sod_moments(space)], None),
    "blast": (lambda space: [blast_moments(space)], None),
    "beams": (beams_components, external_force),
}


def _case(name: str):
    if name not in CASES:
        raise ConfigurationError(f"unknown case '{name}'")
    return CASES[name]


def initial_distribution(case: str, grid: PhaseGrid) -> np.ndarray:
    """The sum of the case's Maxwellian components on the phase grid.

    The first component is lifted into the result and each further one is
    added one block of x rows at a time, as many as the relaxation's blocks
    hold, so the only array besides the result is one block.
    """
    components, _ = _case(case)
    first, *rest = components(grid.space)
    f = lift(first, grid)
    n_x, rows = grid.space.n_x, _block_rows(grid)
    block = np.empty((rows,) + grid.velocity.n_v) if rest else None
    for U in rest:
        for a in range(0, n_x, rows):
            b = min(a + rows, n_x)
            part = MomentField(U.rho[a:b], U.u[a:b], U.theta[a:b])
            f[a:b] += lift(part, grid, out=block[:b - a])
    return f


def initial_moments(case: str, grid: PhaseGrid) -> MomentField:
    """Moments of initial_distribution(case, grid), with no distribution built.

    The mixture's marginals are the sums of its components' Maxwellian
    marginals. They equal the cube's axis sums to rounding, and mirrored
    beams give a marginal symmetric bit for bit, so the moments match
    project's to rounding and a mean velocity that is zero by symmetry
    stays exactly 0.
    """
    components, _ = _case(case)
    first, *rest = components(grid.space)
    margs = maxwellian_marginals(first, grid)
    for U in rest:
        for total, part in zip(margs, maxwellian_marginals(U, grid)):
            total += part
    return moments_of_marginals(margs, grid)


def force_field(case: str, space: SpatialGrid) -> np.ndarray | None:
    """Per-cell field of the case, or None when the case is force-free."""
    _, field = _case(case)
    return None if field is None else field(space.centers)
