"""Maxwellian reconstruction of a distribution from moment data.

The cube is filled with np.einsum as one outer product per cell of g_x and
the flattened (v_y, v_z) plane. The 4-D broadcast multiply
g_x[:, :, None, None] * g_yz[:, None] computes the same products, bit for
bit, but its broadcast operands have runs far shorter than half of numpy's
ufunc buffer (8192 elements by default), so numpy copies them through that
buffer, and at the default size it takes about twice as long as einsum,
whose loops do not use the buffer. The fill changes no numpy state, so it
serves the window lift, the relaxation's Maxwellian and the initial data at
whatever buffer size the caller has set.
"""

from __future__ import annotations

import numpy as np

from .grid import PhaseGrid
from .moments import MomentField, require_positive

__all__ = ["lift"]


def lift(U: MomentField, grid: PhaseGrid, normalize_mass: bool = False,
         out: np.ndarray | None = None,
         weight: float = 1.0) -> np.ndarray:
    """Cell-local Maxwellians f[i, jx, jy, jz] evaluated at the velocity centers.

    rho and theta must be finite and positive in every cell and u finite, and
    so must the amplitude the cell's Maxwellian is scaled to, else a
    DegenerateStateError names the first cell that is not. The Gaussian
    factorizes over the axes, so only three small 1D exponential
    tables are computed per cell, and the cube is filled as one outer product
    per cell, g_x times the flattened (v_y, v_z) plane g_y g_z, into out when
    it is given; out must be C-contiguous. The amplitude of every cell is
    scaled by the one weight, which may be zero. With normalize_mass the
    discrete mass matches rho exactly rather than up to quadrature error: the
    mass of a separable product is the product of the three 1D sums.
    """
    U.require_physical("lift's")
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
    require_positive(amp, "lift's amplitude")
    gx = factors[0] * (amp * weight)[:, None]
    gyz = factors[1][:, :, None] * factors[2][:, None, :]
    n, n_vx = gx.shape
    if out is None:
        out = np.empty((n,) + v.n_v)
    elif not out.flags.c_contiguous:
        # reshape would hand einsum a copy and out would stay unwritten
        raise ValueError("lift needs a C-contiguous out")
    np.einsum("ij,ik->ijk", gx, gyz.reshape(n, -1), out=out.reshape(n, n_vx, -1))
    return out
