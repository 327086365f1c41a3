"""Coarse propagator: first-order finite-volume compressible Euler solver.

Conserved state per cell is (rho, rho u, E) with E = rho |u|^2 / 2
+ 3 rho theta / 2 and pressure p = rho theta (monoatomic closure). Interface
fluxes are central with max-speed dissipation; the wave speed estimate is
|u_x| + sqrt(theta) on each side. An external field enters as an explicit
source on x-momentum and energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import BoundaryKind, PhaseGrid, march
from .moments import MomentField, conserved_to_primitive, primitive_to_conserved

__all__ = [
    "FluidParams",
    "euler_flux",
    "rusanov_flux",
    "stable_dt_fluid",
    "propagate_fluid",
]


@dataclass
class FluidParams:
    force: Optional[np.ndarray] = None  # per-cell E_i along x; None means 0
    cfl: float = 0.9


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


def rusanov_flux(vl: np.ndarray, vr: np.ndarray) -> np.ndarray:
    """Central flux with local max-speed dissipation between two states."""
    vl = np.asarray(vl, dtype=float)
    vr = np.asarray(vr, dtype=float)
    speed_l = np.abs(vl[..., 1] / vl[..., 0]) + np.sqrt(_pressure(vl) / vl[..., 0])
    speed_r = np.abs(vr[..., 1] / vr[..., 0]) + np.sqrt(_pressure(vr) / vr[..., 0])
    s = np.maximum(speed_l, speed_r)
    return 0.5 * (euler_flux(vl) + euler_flux(vr)) - 0.5 * s[..., None] * (vr - vl)


def stable_dt_fluid(v: np.ndarray, grid: PhaseGrid, params: FluidParams) -> float:
    """Acoustic CFL bound cfl dx / max(|u_x| + sqrt(theta)) of packed states."""
    ux = v[:, 1] / v[:, 0]
    theta = _pressure(v) / v[:, 0]
    rate = float(np.max(np.abs(ux) + np.sqrt(theta)))
    return params.cfl * grid.space.dx / rate


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
                    params: FluidParams, bc: BoundaryKind,
                    dt_max: float | None = None) -> MomentField:
    """Advance primitive moments from t0 to t1 on the conserved variables."""
    if t1 == t0:
        return U0
    dx = grid.space.dx
    force = params.force

    def advance(v, dt):
        ext = _ghosted(v, bc)
        face = rusanov_flux(ext[:-1], ext[1:])
        new = v - (dt / dx) * (face[1:] - face[:-1])
        if force is not None:
            new[:, 1] += dt * v[:, 0] * force
            new[:, 4] += dt * v[:, 1] * force
        return new

    def fault(v):
        if not np.all(np.isfinite(v)):
            return "fluid propagation lost finiteness"
        if np.any(v[:, 0] <= 0.0) or np.any(_pressure(v) <= 0.0):
            return "fluid propagation left the physical regime"
        return None

    v = march(primitive_to_conserved(U0), t0, t1,
              lambda v: stable_dt_fluid(v, grid, params), advance, fault, dt_max)
    return conserved_to_primitive(v)
