"""Coarse propagator: first-order finite-volume compressible Euler solver.

Conserved state per cell is (rho, rho u, E) with E = rho |u|^2 / 2
+ 3 rho theta / 2 and pressure p = rho theta (monoatomic closure). Interface
fluxes are central with max-speed dissipation; the wave speed estimate is
|u_x| + sqrt(theta) on each side. The case's external field, the same
per-cell array the kinetic solver applies, enters as an explicit source on
x-momentum and energy.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .grid import BoundaryKind, PhaseGrid, march
from .moments import (MomentField, conserved_to_primitive, primitive_to_conserved,
                      require_positive)

__all__ = [
    "euler_flux",
    "rusanov_flux",
    "stable_dt_fluid",
    "propagate_fluid",
]

_CFL = 0.9  # Courant number of the Euler step


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


def stable_dt_fluid(v: np.ndarray, grid: PhaseGrid) -> float:
    """Acoustic CFL bound 0.9 dx / max(|u_x| + sqrt(theta)) of packed states."""
    return _CFL * grid.space.dx / float(np.max(_wave_speed(v)))


def _ghosted(v: np.ndarray, bc: BoundaryKind) -> np.ndarray:
    ext = np.empty((v.shape[0] + 2, 5))
    ext[1:-1] = v
    if bc is BoundaryKind.PERIODIC:
        ext[0] = v[-1]
        ext[-1] = v[0]
    else:
        # transmissive: copy the boundary cell so gradients vanish at the edge
        ext[0] = v[0]
        ext[-1] = v[-1]
    return ext


def propagate_fluid(U0: MomentField, t0: float, t1: float, grid: PhaseGrid,
                    force: np.ndarray | None, bc: BoundaryKind,
                    dt_max: float | None = None) -> MomentField:
    """Advance primitive moments from t0 to t1 on the conserved variables.

    `force` is the per-cell field E_i along x (None means no field), the
    kinetic solver's `KineticParams.force`.

    A step that leaves a density or pressure that is not a finite positive
    number raises BlowUpError naming the step and the cell; a non-finite
    momentum or energy makes the pressure non-finite. A field whose length
    is not the cell count is refused before any step.
    """
    if force is not None and len(force) != grid.space.n_x:
        raise ConfigurationError(f"the field has {len(force)} values "
                                 f"for {grid.space.n_x} cells")
    if t1 == t0:
        return U0
    dx = grid.space.dx

    def advance(v, dt):
        ext = _ghosted(v, bc)
        face = rusanov_flux(ext[:-1], ext[1:])
        new = v - (dt / dx) * (face[1:] - face[:-1])
        if force is not None:
            new[:, 1] += dt * v[:, 0] * force
            new[:, 4] += dt * v[:, 1] * force
        require_positive(new[:, 0], "fluid density")
        require_positive(_pressure(new), "fluid pressure")
        return new

    v = march(primitive_to_conserved(U0), t0, t1,
              lambda v: stable_dt_fluid(v, grid), advance, dt_max)
    return conserved_to_primitive(v)
