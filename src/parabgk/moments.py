"""Velocity moments of distributions and the Maxwellians that lift them back.

The moment triple (rho, u, theta) is the primitive description shared by the
coarse solver and the outer iteration. Projection uses plain midpoint
quadrature on the velocity cube, and every moment it takes is a moment of
one of the cube's three 1D marginals: project sums the cube down to them and
moments_of_marginals does the rest, so a distribution known only through its
marginals has its moments without a cube. The temperature is taken around
the already-computed discrete mean, so a point mass projects to theta = 0
instead of a rounding residue.

The way back is a cell's Maxwellian, which factorizes over the velocity
axes, so it starts from three small 1D exponential tables per cell and an
amplitude. lift fills the cube from them; maxwellian_marginals gives the
cube's three 1D marginals without building it, since a separable cube's
marginal along an axis is that axis's table times the amplitude and the
other two tables' sums. Both directions share one marginal convention: the
cube summed over the other two velocity axes, with no cell-volume factor.

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

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateStateError
from .grid import PhaseGrid

__all__ = [
    "MomentField",
    "project",
    "moments_of_marginals",
    "lift",
    "maxwellian_marginals",
]


@dataclass(frozen=True)
class MomentField:
    """Primitive moments per spatial cell: density, bulk velocity, temperature.

    Parts that are not numpy arrays are refused with a ConfigurationError
    naming their types, and parts whose shapes are not rho (n,), u (n, 3)
    and theta (n,) for one n with one naming the shapes; n may be 0. The
    parts cannot be rebound, so the checks hold for as long as the field
    lives; the arrays' elements can still be written.
    """

    rho: np.ndarray    # (n_x,)
    u: np.ndarray      # (n_x, 3)
    theta: np.ndarray  # (n_x,)

    def __post_init__(self):
        if not (isinstance(self.rho, np.ndarray) and isinstance(self.u, np.ndarray)
                and isinstance(self.theta, np.ndarray)):
            types = tuple(type(part).__name__ for part in (self.rho, self.u, self.theta))
            raise ConfigurationError(f"a MomentField needs numpy arrays, got types {types}")
        shapes = (self.rho.shape, self.u.shape, self.theta.shape)
        n = shapes[0][:1]
        if not n or shapes != (n, n + (3,), n):
            raise ConfigurationError("a MomentField needs rho (n,), u (n, 3) and "
                                     f"theta (n,), got shapes {shapes}")

    @property
    def n_x(self) -> int:
        return self.rho.shape[0]

    def require_physical(self, what: str) -> None:
        """Raise DegenerateStateError naming the first cell whose rho or theta
        is not a finite positive number or whose u is not finite, or saying
        that the state has no cells; each quantity is named as what followed
        by its own name."""
        require_positive(self.rho, f"{what} density")
        require_positive(self.theta, f"{what} temperature")
        _require(np.isfinite(self.u), self.u, f"{what} velocity", "finite")

    def copy(self) -> "MomentField":
        return MomentField(self.rho.copy(), self.u.copy(), self.theta.copy())

    def __add__(self, other: "MomentField") -> "MomentField":
        return MomentField(self.rho + other.rho, self.u + other.u,
                           self.theta + other.theta)

    def __sub__(self, other: "MomentField") -> "MomentField":
        return MomentField(self.rho - other.rho, self.u - other.u,
                           self.theta - other.theta)

    def sup_distance(self, other: "MomentField") -> float:
        """Largest absolute componentwise difference over all cells."""
        return max(float(np.max(np.abs(self.rho - other.rho))),
                   float(np.max(np.abs(self.u - other.u))),
                   float(np.max(np.abs(self.theta - other.theta))))


def _require(ok: np.ndarray, values: np.ndarray, what: str, wanted: str) -> None:
    # a cell fails when any of its entries does; values[cell] is its row
    if not len(ok):
        raise DegenerateStateError(f"{what} has no cells")
    if ok.all():
        return
    bad = np.flatnonzero(~ok.reshape(len(ok), -1).all(axis=1))[0]
    raise DegenerateStateError(f"{what} at cell {bad} is {values[bad]}, not {wanted}")


def require_positive(values: np.ndarray, what: str) -> None:
    """Raise DegenerateStateError naming the first cell whose value is not a
    finite positive number, or saying that there are no cells; NaN and inf
    fail too."""
    _require(np.isfinite(values) & (values > 0.0), values, what,
             "a finite positive number")


def _folded_first_moment(marg: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # Fold mirrored velocity pairs before summing: even marginals then cancel
    # exactly, so symmetric data projects to u = 0 with no rounding residue.
    # For odd counts the middle center is exactly 0 and drops out.
    n = centers.size
    half = n // 2
    head = marg[:, :half]
    tail = marg[:, : n - half - 1 : -1]
    return (head - tail) @ centers[:half]


def project(f: np.ndarray, grid: PhaseGrid) -> MomentField:
    """First-order quadrature moments of a distribution f[i, jx, jy, jz].

    The three 1D marginals take two passes over the cube: the v_x marginal
    directly, and the v_y and v_z marginals from the (v_y, v_z) plane sums.
    An f whose shape is not the grid's (n_x,) + n_v, or that has no cells,
    raises ConfigurationError.
    """
    grid.require_shape(f, "projection")
    # +inf and -inf in one cell, or a sum past the float range, would warn
    # here; the density check of moments_of_marginals refuses that cell
    with np.errstate(invalid="ignore", over="ignore"):
        plane = f.sum(axis=1)
        margs = (f.sum(axis=(2, 3)), plane.sum(axis=2), plane.sum(axis=1))
    return moments_of_marginals(margs, grid)


def moments_of_marginals(margs, grid: PhaseGrid) -> MomentField:
    """Quadrature moments of a distribution given by its three 1D marginals.

    margs[a] is an (n_x, n_v[a]) array, the distribution summed over the
    other two velocity axes with no cell-volume factor; marginals of other
    shapes, or not three of them, raise ConfigurationError naming the shapes
    needed and given, and marginals of no cells DegenerateStateError.
    Two-pass form: the discrete mean u is computed first and the temperature
    accumulates |v - u|^2 around it, one separable term per velocity axis.
    """
    v = grid.velocity
    got = tuple([m.shape for m in margs])
    n = got[0][:1] if got else ()
    if not n or got != tuple([n + (k,) for k in v.n_v]):
        need = ", ".join(f"(n, {k})" for k in v.n_v)
        raise ConfigurationError(f"moments of marginals need shapes {need} "
                                 f"for one n, got {got}")
    dvol = v.cell_volume
    with np.errstate(invalid="ignore", over="ignore"):  # the check decides
        rho = margs[0].sum(axis=1) * dvol
    require_positive(rho, "density in projection")
    mom = np.stack([_folded_first_moment(m, c) for m, c in zip(margs, v.centers)],
                   axis=1) * dvol
    u = mom / rho[:, None]
    e2 = np.zeros_like(rho)
    for axis in range(3):
        shifted = v.centers[axis][None, :] - u[:, axis, None]
        shifted *= shifted
        e2 += np.einsum("ij,ij->i", shifted, margs[axis])
    theta = e2 * dvol / (3.0 * rho)
    return MomentField(rho, u, theta)


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
    g_y g_z, into out when it is given; an out that is not a C-contiguous
    float64 array of shape (U.n_x,) + n_v raises ConfigurationError. The
    amplitude of every cell is scaled by the one weight, a finite number
    >= 0, else a DegenerateStateError names it. With normalize_mass the
    discrete mass matches rho exactly rather than up to quadrature error:
    the mass of a separable product is the product of the three 1D sums.
    """
    if not (isinstance(weight, numbers.Real) and 0.0 <= weight < math.inf):
        raise DegenerateStateError(f"lift's weight is {weight!r}, "
                                   "not a finite number >= 0")
    shape = (U.n_x,) + grid.velocity.n_v
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or not out.flags.c_contiguous or out.dtype != np.float64:
        # reshape would fail, or hand einsum a copy and leave out unwritten;
        # einsum cannot cast the float64 products to float32, and no caller
        # reads a cube of another dtype
        raise ConfigurationError(f"lift needs a C-contiguous float64 out of shape {shape}, "
                                 f"got shape {out.shape}, dtype {out.dtype}, "
                                 f"C-contiguous {out.flags.c_contiguous}")
    (gx, gy, gz), _, amp = _tables(U, grid, normalize_mass)
    gx *= (amp * weight)[:, None]
    gyz = gy[:, :, None] * gz[:, None, :]
    n, n_vx = gx.shape
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
