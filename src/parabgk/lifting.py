"""Maxwellian reconstruction of a distribution from moment data."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateStateError
from .grid import PhaseGrid
from .moments import MomentField

__all__ = ["lift"]


def lift(U: MomentField, grid: PhaseGrid, normalize_mass: bool = False,
         out: np.ndarray | None = None,
         weight: float | np.ndarray = 1.0) -> np.ndarray:
    """Cell-local Maxwellians f[i, jx, jy, jz] evaluated at the velocity centers.

    The Gaussian factorizes over the axes, so only three small 1D exponential
    tables are computed per cell, and the cube is filled as g_x times the
    (v_y, v_z) plane g_y g_z, into out when it is given. The amplitude is
    scaled by the per-cell weight, which may be zero. With normalize_mass the
    discrete mass matches rho exactly rather than up to quadrature error: the
    mass of a separable product is the product of the three 1D sums.
    """
    if np.any(U.rho <= 0.0) or np.any(U.theta <= 0.0):
        raise DegenerateStateError("lift requires rho > 0 and theta > 0 in every cell")
    v = grid.velocity
    inv2t = 1.0 / (2.0 * U.theta)
    factors = []
    for axis in range(3):
        d = v.centers[axis][None, :] - U.u[:, axis, None]
        factors.append(np.exp(-(d * d) * inv2t[:, None]))
    if normalize_mass:
        sums = [g.sum(axis=1) for g in factors]
        amp = U.rho / (sums[0] * sums[1] * sums[2] * v.cell_volume)
    else:
        amp = U.rho / (2.0 * np.pi * U.theta) ** 1.5
    gx = factors[0] * (amp * weight)[:, None]
    gyz = factors[1][:, :, None] * factors[2][:, None, :]
    return np.multiply(gx[:, :, None, None], gyz[:, None], out=out)
