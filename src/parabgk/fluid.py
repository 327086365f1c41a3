"""Coarse propagator: first-order finite-volume compressible Euler solver.

The solver needs only the spatial grid. Its conserved state per cell is
(rho, rho u, E) with E = rho |u|^2 / 2 + 3 rho theta / 2, packed per cell
into an (n_x, 5) array, and pressure p = rho theta (monoatomic closure).
This module alone reads and writes that layout, and converts it to and from
the primitive moments (rho, u, theta) that the rest of the package uses.

Interface fluxes are central with max-speed dissipation; the wave speed
estimate is |u_x| + sqrt(theta) on each side. The case's external field,
the same per-cell array the kinetic solver applies, enters as an explicit
source on x-momentum and energy.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DegenerateStateError
from .grid import BoundaryKind, SpatialGrid, march
from .moments import MomentField, require_positive

__all__ = [
    "primitive_to_conserved",
    "conserved_to_primitive",
    "euler_flux",
    "rusanov_flux",
    "stable_dt_fluid",
    "propagate_fluid",
]

_CFL = 0.9  # Courant number of the Euler step


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
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which the check refuses
        internal = v[:, 4] - 0.5 * np.einsum("ij,ij->i", mom, u)
    require_positive(internal, "internal energy in conserved state")
    return MomentField(rho, u, internal / (1.5 * rho))


def _pressure(v: np.ndarray) -> np.ndarray:
    # p = rho theta = (E - rho |u|^2 / 2) / (3/2)
    kinetic = 0.5 * (v[..., 1] ** 2 + v[..., 2] ** 2 + v[..., 3] ** 2) / v[..., 0]
    return (v[..., 4] - kinetic) / 1.5


def euler_flux(v: np.ndarray) -> np.ndarray:
    """Physical flux of packed conserved states (..., 5) along x."""
    v = np.asarray(v, dtype=float)
    ux = v[..., 1] / v[..., 0]
    p = _pressure(v)
    out = np.empty_like(v)
    out[..., 0] = v[..., 1]
    out[..., 1] = v[..., 1] * ux + p
    out[..., 2] = v[..., 2] * ux
    out[..., 3] = v[..., 3] * ux
    out[..., 4] = ux * (v[..., 4] + p)
    return out


def _wave_speed(v: np.ndarray) -> np.ndarray:
    # |u_x| + sqrt(theta) of packed states
    return np.abs(v[..., 1] / v[..., 0]) + np.sqrt(_pressure(v) / v[..., 0])


def rusanov_flux(vl: np.ndarray, vr: np.ndarray) -> np.ndarray:
    """Central flux with local max-speed dissipation between two states."""
    vl = np.asarray(vl, dtype=float)
    vr = np.asarray(vr, dtype=float)
    s = np.maximum(_wave_speed(vl), _wave_speed(vr))
    return 0.5 * (euler_flux(vl) + euler_flux(vr)) - 0.5 * s[..., None] * (vr - vl)


def stable_dt_fluid(v: np.ndarray, space: SpatialGrid) -> float:
    """Acoustic CFL bound 0.9 dx / max(|u_x| + sqrt(theta)) of packed states
    on the SpatialGrid `space`; DegenerateStateError if there are no cells
    or that largest wave speed is not a finite positive number (every cell
    at rest with theta = 0)."""
    if not len(v):
        raise DegenerateStateError("fluid state has no cells")
    speed = float(np.max(_wave_speed(v)))
    if not 0.0 < speed < np.inf:
        raise DegenerateStateError(f"the largest wave speed is {speed}, "
                                   "not a finite positive number")
    return _CFL * space.dx / speed


def propagate_fluid(U0: MomentField, t0: float, t1: float, space: SpatialGrid,
                    force: np.ndarray | None, bc: BoundaryKind) -> MomentField:
    """Advance primitive moments from t0 to t1 on the conserved variables of
    the SpatialGrid `space` through march; the result is a new MomentField,
    over an empty span, where no step is taken, equal to U0 up to the
    rounding of the conserved round trip. Each step is the CFL bound of
    stable_dt_fluid, or what remains of the span when that is less.

    `force` is the per-cell field E_i along x (None means no field), the
    kinetic solver's `KineticParams.force`.

    A start state that is not physical (see MomentField.require_physical)
    is refused with a DegenerateStateError, and a field or a start state
    whose length is not the cell count, and a t0 or t1 that is not finite
    (march's check), with a ConfigurationError, before any step. A step
    that leaves a density or pressure that is not a finite positive number
    raises BlowUpError naming the step and the cell; a non-finite momentum
    or energy makes the pressure non-finite.
    """
    if force is not None and len(force) != space.n_x:
        raise ConfigurationError(f"the field has {len(force)} values "
                                 f"for {space.n_x} cells")
    U0.require_physical("fluid's initial")
    if U0.n_x != space.n_x:
        raise ConfigurationError(f"fluid's initial state has {U0.n_x} cells "
                                 f"for a grid of {space.n_x}")
    dx = space.dx
    periodic = bc is BoundaryKind.PERIODIC

    def advance(v, dt):
        # ghost cells: the wrapped neighbour, or a copy of the boundary cell
        # (transmissive) so gradients vanish at the edge
        lo, hi = (v[-1:], v[:1]) if periodic else (v[:1], v[-1:])
        ext = np.concatenate((lo, v, hi))
        face = rusanov_flux(ext[:-1], ext[1:])
        new = v - (dt / dx) * (face[1:] - face[:-1])
        if force is not None:
            new[:, 1] += dt * v[:, 0] * force
            new[:, 4] += dt * v[:, 1] * force
        require_positive(new[:, 0], "fluid density")
        require_positive(_pressure(new), "fluid pressure")
        return new

    v = march(primitive_to_conserved(U0), t0, t1,
              lambda v: stable_dt_fluid(v, space), advance)
    return conserved_to_primitive(v)
