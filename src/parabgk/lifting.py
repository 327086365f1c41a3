"""Maxwellian reconstruction of a distribution from moment data.

A cell's Maxwellian factorizes over the velocity axes, so everything here
starts from three small 1D exponential tables per cell and an amplitude.
lift fills the cube from them; maxwellian_marginals gives the cube's three
1D marginals without building it, since a separable cube's marginal along
an axis is that axis's table times the amplitude and the other two tables'
sums.

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

__all__ = ["lift", "maxwellian_marginals"]


def _tables(U: MomentField, grid: PhaseGrid, normalize_mass: bool):
    """Each cell's three 1D exponential tables, their sums and its amplitude,
    after lift's checks. A subnormal theta or a huge |u| can overflow a table
    or the amplitude on the way; numpy's warnings are silenced there, because
    the checks on the input and on the amplitude are what decide.
    """
    U.require_physical("lift's")
    v = grid.velocity
    with np.errstate(all="ignore"):
        inv2t = 1.0 / (2.0 * U.theta)
        tables = []
        for axis in range(3):
            g = v.centers[axis][None, :] - U.u[:, axis, None]
            g *= g
            np.negative(g, out=g)
            g *= inv2t[:, None]
            tables.append(np.exp(g, out=g))
        sums = [g.sum(axis=1) for g in tables]
        if normalize_mass:
            amp = U.rho / (sums[0] * sums[1] * sums[2] * v.cell_volume)
        else:
            amp = U.rho / (2.0 * np.pi * U.theta) ** 1.5
    require_positive(amp, "lift's amplitude")
    return tables, sums, amp


def lift(U: MomentField, grid: PhaseGrid, normalize_mass: bool = False,
         out: np.ndarray | None = None,
         weight: float = 1.0) -> np.ndarray:
    """Cell-local Maxwellians f[i, jx, jy, jz] evaluated at the velocity centers.

    rho and theta must be finite and positive in every cell and u finite, and
    so must the amplitude the cell's Maxwellian is scaled to, else a
    DegenerateStateError names the first cell that is not. The cube is filled
    as one outer product per cell, g_x times the flattened (v_y, v_z) plane
    g_y g_z, into out when it is given; out must be C-contiguous. The
    amplitude of every cell is scaled by the one weight, which may be zero.
    With normalize_mass the discrete mass matches rho exactly rather than up
    to quadrature error: the mass of a separable product is the product of
    the three 1D sums.
    """
    (gx, gy, gz), _, amp = _tables(U, grid, normalize_mass)
    gx *= (amp * weight)[:, None]
    gyz = gy[:, :, None] * gz[:, None, :]
    n, n_vx = gx.shape
    if out is None:
        out = np.empty((n,) + grid.velocity.n_v)
    elif not out.flags.c_contiguous:
        # reshape would hand einsum a copy and out would stay unwritten
        raise ValueError("lift needs a C-contiguous out")
    np.einsum("ij,ik->ijk", gx, gyz.reshape(n, -1), out=out.reshape(n, n_vx, -1))
    return out


def maxwellian_marginals(U: MomentField, grid: PhaseGrid) -> list[np.ndarray]:
    """The three 1D marginals of lift(U, grid), without the cube.

    Marginal a is an (n_x, n_v[a]) array: the sum of the cube over the other
    two velocity axes, with no cell-volume factor, as project forms it. It
    is table a scaled by the amplitude and the other two tables' sums, so
    it equals the cube's axis sum to rounding, and a table symmetric about
    v = 0 gives a marginal symmetric bit for bit. The checks are lift's.
    """
    tables, sums, amp = _tables(U, grid, normalize_mass=False)
    for axis, g in enumerate(tables):
        b, c = (s for other, s in enumerate(sums) if other != axis)
        g *= (amp * b * c)[:, None]
    return tables
