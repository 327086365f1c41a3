"""Built-in test problems and their published discretizations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import BoundaryKind, PhaseGrid, SpatialGrid
from .lifting import Distribution, lift
from .moments import MomentField, project

__all__ = [
    "CasePreset",
    "PRESETS",
    "sod_moments",
    "blast_moments",
    "sod_initial",
    "blast_initial",
    "beams_initial",
    "external_force",
    "initial_distribution",
    "initial_moments",
    "force_field",
]


@dataclass(frozen=True)
class CasePreset:
    """Reference setup of one test problem at publication scale."""

    name: str
    x_min: float
    x_max: float
    n_x: int
    v_max: float
    n_v: tuple[int, int, int]
    epsilon: float
    bc: BoundaryKind
    t_final: float
    n_g: int
    n_f: int
    k_max: int
    tol: float
    has_force: bool


PRESETS = {
    "sod": CasePreset("sod", 0.0, 2.0, 200, 8.0, (32, 32, 32), 1e-2,
                      BoundaryKind.ABSORBING, 0.5, 200, 800, 80, 1e-8, False),
    "blast": CasePreset("blast", 0.0, 2.0, 200, 8.0, (32, 32, 32), 1e-2,
                        BoundaryKind.ABSORBING, 0.5, 200, 800, 10, 1e-8, False),
    "beams": CasePreset("beams", 0.0, 2.0, 100, 8.0, (256, 16, 16), 1e-5,
                        BoundaryKind.PERIODIC, 0.5, 200, 800, 80, 1e-8, True),
}


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


def sod_initial(grid: PhaseGrid) -> Distribution:
    """Local Maxwellian of the shock tube moments."""
    return lift(sod_moments(grid.space), grid)


def blast_initial(grid: PhaseGrid) -> Distribution:
    """Local Maxwellian of the blast moments."""
    return lift(blast_moments(grid.space), grid)


def beams_initial(grid: PhaseGrid) -> Distribution:
    """Sum of two unit-density Maxwellian beams at u_x = +1 and -1.

    The mixture is not a Maxwellian: its moments are rho = 2, u = 0 and
    theta = 4/3 (per-axis variances 2, 1, 1 averaged over three axes).
    """
    n_x = grid.space.n_x
    ones = np.ones(n_x)
    u_fwd = np.zeros((n_x, 3))
    u_fwd[:, 0] = 1.0
    fwd = lift(MomentField(ones, u_fwd, ones.copy()), grid)
    bwd = lift(MomentField(ones, -u_fwd, ones.copy()), grid)
    return Distribution(fwd.values + bwd.values)


def external_force(x: np.ndarray) -> np.ndarray:
    """Confining field -5 x^4 (x-2)^4 (x-1): zero at 0, 1, 2, pushes mass to x = 1."""
    x = np.asarray(x, dtype=float)
    return -5.0 * x ** 4 * (x - 2.0) ** 4 * (x - 1.0)


_INITIAL = {"sod": sod_initial, "blast": blast_initial, "beams": beams_initial}


def initial_distribution(case: str, grid: PhaseGrid) -> Distribution:
    if case not in _INITIAL:
        raise ConfigurationError(f"unknown case '{case}'")
    return _INITIAL[case](grid)


def initial_moments(case: str, grid: PhaseGrid) -> MomentField:
    """Projected moments of the case's kinetic initial state."""
    return project(initial_distribution(case, grid), grid)


def force_field(case: str, space: SpatialGrid) -> np.ndarray | None:
    """Per-cell field of the case, or None when the case is force-free."""
    if case not in _INITIAL:
        raise ConfigurationError(f"unknown case '{case}'")
    if PRESETS[case].has_force:
        return external_force(space.centers)
    return None
