"""Velocity moments and the fluid-state algebra built on them.

The moment triple (rho, u, theta) is the primitive description shared by the
coarse solver and the outer iteration; (rho, rho u, E) with
E = rho |u|^2 / 2 + 3 rho theta / 2, packed per cell into an (n_x, 5) array,
is the conserved form used by the flux update. Projection uses plain midpoint
quadrature on the velocity cube. The temperature is taken around the
already-computed discrete mean, so a point mass projects to theta = 0 instead
of a rounding residue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError
from .grid import PhaseGrid

__all__ = [
    "MomentField",
    "project",
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


def _folded_first_moment(marg: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # Fold mirrored velocity pairs before summing: even marginals then cancel
    # exactly, so symmetric data projects to u = 0 with no rounding residue.
    # For odd counts the middle center is exactly 0 and drops out.
    n = centers.size
    half = n // 2
    head = marg[:, :half]
    tail = marg[:, : n - half - 1 : -1]
    return (head - tail) @ centers[:half]


def project(f: "Distribution", grid: PhaseGrid) -> MomentField:
    """First-order quadrature moments of a distribution.

    Two-pass form: the discrete mean u is computed first and the temperature
    accumulates |v - u|^2 around it, one separable term per velocity axis.
    """
    v = grid.velocity
    vals = f.values
    dvol = v.cell_volume
    margs = (vals.sum(axis=(2, 3)), vals.sum(axis=(1, 3)), vals.sum(axis=(1, 2)))
    rho = margs[0].sum(axis=1) * dvol
    if np.any(rho <= 0.0):
        bad = int(np.argmax(rho <= 0.0))
        raise DegenerateStateError(f"nonpositive density in projection at cell {bad}")
    mom = np.stack([_folded_first_moment(m, c) for m, c in zip(margs, v.centers)],
                   axis=1) * dvol
    u = mom / rho[:, None]
    e2 = np.zeros_like(rho)
    for axis in range(3):
        shifted = v.centers[axis][None, :] - u[:, axis, None]
        e2 += np.einsum("ij,ij->i", shifted * shifted, margs[axis])
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
    if np.any(rho <= 0.0):
        raise DegenerateStateError("nonpositive density in conserved state")
    mom = v[:, 1:4]
    u = mom / rho[:, None]
    internal = v[:, 4] - 0.5 * np.einsum("ij,ij->i", mom, u)
    if np.any(internal <= 0.0):
        raise DegenerateStateError("nonpositive internal energy in conserved state")
    return MomentField(rho, u, internal / (1.5 * rho))
