"""Velocity moments and the fluid-state algebra built on them.

The moment triple (rho, u, theta) is the primitive description shared by the
coarse solver and the outer iteration; (rho, rho u, E) with
E = rho |u|^2 / 2 + 3 rho theta / 2, packed per cell into an (n_x, 5) array,
is the conserved form used by the flux update. Projection uses plain midpoint
quadrature on the velocity cube, and every moment it takes is a moment of
one of the cube's three 1D marginals: project sums the cube down to them and
moments_of_marginals does the rest, so a distribution known only through its
marginals (lifting.maxwellian_marginals) has its moments without a cube. The
temperature is taken around the already-computed discrete mean, so a point
mass projects to theta = 0 instead of a rounding residue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError
from .grid import PhaseGrid

__all__ = [
    "MomentField",
    "project",
    "moments_of_marginals",
    "primitive_to_conserved",
    "conserved_to_primitive",
]


@dataclass
class MomentField:
    """Primitive moments per spatial cell: density, bulk velocity, temperature."""

    rho: np.ndarray    # (n_x,)
    u: np.ndarray      # (n_x, 3)
    theta: np.ndarray  # (n_x,)

    @property
    def n_x(self) -> int:
        return self.rho.shape[0]

    def require_physical(self, what: str) -> None:
        """Raise DegenerateStateError naming the first cell whose rho or theta
        is not a finite positive number or whose u is not finite; each
        quantity is named as what followed by its own name."""
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
    bad = np.flatnonzero(~ok.reshape(ok.shape[0], -1).all(axis=1))
    if bad.size:
        raise DegenerateStateError(f"{what} at cell {bad[0]} is {values[bad[0]]}, "
                                   f"not {wanted}")


def require_positive(values: np.ndarray, what: str) -> None:
    """Raise DegenerateStateError naming the first cell whose value is not a
    finite positive number; NaN and inf fail too."""
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
    """
    plane = f.sum(axis=1)
    return moments_of_marginals((f.sum(axis=(2, 3)), plane.sum(axis=2),
                                 plane.sum(axis=1)), grid)


def moments_of_marginals(margs, grid: PhaseGrid) -> MomentField:
    """Quadrature moments of a distribution given by its three 1D marginals.

    margs[a] is an (n_x, n_v[a]) array, the distribution summed over the
    other two velocity axes with no cell-volume factor. Two-pass form: the
    discrete mean u is computed first and the temperature accumulates
    |v - u|^2 around it, one separable term per velocity axis.
    """
    v = grid.velocity
    dvol = v.cell_volume
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


def primitive_to_conserved(U: MomentField) -> np.ndarray:
    """Packed conserved states (rho, rho u, E) of shape (n_x, 5)."""
    v = np.empty((U.n_x, 5))
    v[:, 0] = U.rho
    v[:, 1:4] = U.rho[:, None] * U.u
    kinetic = 0.5 * U.rho * np.einsum("ij,ij->i", U.u, U.u)
    v[:, 4] = kinetic + 1.5 * U.rho * U.theta
    return v


def conserved_to_primitive(v: np.ndarray) -> MomentField:
    """Primitive moments of packed conserved states (n_x, 5)."""
    rho = v[:, 0].copy()
    require_positive(rho, "density in conserved state")
    mom = v[:, 1:4]
    u = mom / rho[:, None]
    internal = v[:, 4] - 0.5 * np.einsum("ij,ij->i", mom, u)
    require_positive(internal, "internal energy in conserved state")
    return MomentField(rho, u, internal / (1.5 * rho))
