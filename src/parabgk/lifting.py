"""Maxwellian reconstruction of a distribution from moment data."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError
from .grid import PhaseGrid
from .moments import MomentField

__all__ = ["Distribution", "lift"]


@dataclass
class Distribution:
    """Discrete distribution f[i, jx, jy, jz] on a phase grid."""

    values: np.ndarray  # (n_x, n_vx, n_vy, n_vz)


def lift(U: MomentField, grid: PhaseGrid, normalize_mass: bool = False) -> Distribution:
    """Cell-local Maxwellians evaluated at the velocity centers.

    The Gaussian factorizes over the axes, so only three small 1D exponential
    tables are computed per cell and the cube is filled with outer products.
    With normalize_mass the result is rescaled per cell so that the discrete
    mass matches rho exactly rather than up to quadrature error.
    """
    if np.any(U.rho <= 0.0) or np.any(U.theta <= 0.0):
        raise DegenerateStateError("lift requires rho > 0 and theta > 0 in every cell")
    v = grid.velocity
    inv2t = 1.0 / (2.0 * U.theta)
    factors = []
    for axis in range(3):
        d = v.centers[axis][None, :] - U.u[:, axis, None]
        factors.append(np.exp(-(d * d) * inv2t[:, None]))
    amp = U.rho / (2.0 * np.pi * U.theta) ** 1.5
    gx = factors[0] * amp[:, None]
    vals = gx[:, :, None, None] * factors[1][:, None, :, None] * factors[2][:, None, None, :]
    if normalize_mass:
        mass = vals.sum(axis=(1, 2, 3)) * v.cell_volume
        vals *= (U.rho / mass)[:, None, None, None]
    return Distribution(vals)
