"""Fine propagator: finite-volume transport with implicit relaxation.

One step treats the stiff collision term implicitly and everything else
explicitly. Transport is a conservative unsplit update: upwind fluxes in x
(the only inhomogeneous direction) and, when an external field is present,
central fluxes with max-speed dissipation along v_x. The relaxation toward
the local Maxwellian is linear in f because the Maxwellian depends on f only
through moments the collision operator conserves, so the implicit solve
reduces to a closed-form blend of f and M at the post-transport moments.

Sign convention: f_t + v f_x + E f_vx = (tau / eps) (M - f), so a positive
field accelerates particles toward positive v_x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import BoundaryKind, PhaseGrid, march
from .lifting import Distribution, lift
from .moments import project

__all__ = [
    "constant_tau",
    "ConstantTau",
    "KineticParams",
    "stable_dt_kinetic",
    "transport_update",
    "bgk_relax",
    "propagate_kinetic",
]


def constant_tau(rho, theta):
    """Unit collision frequency, the default closure."""
    return 1.0


@dataclass(frozen=True)
class ConstantTau:
    """Constant collision frequency that stays picklable for worker pools."""

    value: float

    def __call__(self, rho, theta):
        return self.value


@dataclass
class KineticParams:
    """Knobs of the kinetic solver.

    tau must accept (rho, theta) arrays and broadcast; force is the per-cell
    field E_i along x (None means no field).
    """

    epsilon: float
    tau: Callable = constant_tau
    force: Optional[np.ndarray] = None
    cfl: float = 0.5


def _max_field(params: KineticParams) -> float:
    if params.force is None:
        return 0.0
    return float(np.max(np.abs(params.force)))


def stable_dt_kinetic(grid: PhaseGrid, params: KineticParams) -> float:
    """CFL-stable explicit step: cfl / (v_max/dx + E_max/dv_x)."""
    rate = grid.velocity.v_max / grid.space.dx
    e_max = _max_field(params)
    if e_max > 0.0:
        rate += e_max / grid.velocity.dv[0]
    return params.cfl / rate


def transport_update(f: Distribution, dt: float, grid: PhaseGrid,
                     params: KineticParams, bc: BoundaryKind) -> Distribution:
    """One explicit transport step (no collisions).

    Upwind in x with ghost cells per boundary kind; for absorbing boundaries
    the ghosts are empty, which zeroes inflow and lets outflow leave freely.
    The field term advects along v_x with zero flux through the cube faces.
    """
    vals = f.values
    n_x = vals.shape[0]
    space = grid.space
    cx = grid.velocity.centers[0]
    vp = np.maximum(cx, 0.0)[None, :, None, None]
    vm = np.minimum(cx, 0.0)[None, :, None, None]

    ghosted = np.empty((n_x + 2,) + vals.shape[1:])
    ghosted[1:-1] = vals
    if bc is BoundaryKind.PERIODIC:
        ghosted[0] = vals[-1]
        ghosted[-1] = vals[0]
    else:
        ghosted[0] = 0.0
        ghosted[-1] = 0.0

    # Face m sits between ghosted cells m and m+1; donor cell depends on sign.
    flux = vp * ghosted[:-1] + vm * ghosted[1:]
    out = vals - (dt / space.dx) * (flux[1:] - flux[:-1])

    e_max = _max_field(params)
    if e_max > 0.0:
        field = params.force[:, None, None, None]
        lo = vals[:, :-1]
        hi = vals[:, 1:]
        face = 0.5 * field * (lo + hi) - 0.5 * e_max * (hi - lo)
        dv_x = grid.velocity.dv[0]
        out[:, 0] -= (dt / dv_x) * face[:, 0]
        out[:, 1:-1] -= (dt / dv_x) * (face[:, 1:] - face[:, :-1])
        out[:, -1] -= (dt / dv_x) * (-face[:, -1])
    return Distribution(out)


def bgk_relax(f: Distribution, dt: float, grid: PhaseGrid,
              params: KineticParams) -> Distribution:
    """Implicit relaxation toward the Maxwellian of the current moments."""
    U = project(f, grid)
    lam = dt * np.asarray(params.tau(U.rho, U.theta), dtype=float) / params.epsilon
    lam = np.broadcast_to(lam, U.rho.shape)[:, None, None, None]
    M = lift(U, grid, normalize_mass=True)
    return Distribution((f.values + lam * M.values) / (1.0 + lam))


def propagate_kinetic(f0: Distribution, t0: float, t1: float, grid: PhaseGrid,
                      params: KineticParams, bc: BoundaryKind,
                      dt_max: float | None = None) -> Distribution:
    """Advance f0 from t0 to t1 with steps min(stability cap, dt_max, remaining)."""
    cap = stable_dt_kinetic(grid, params)

    def advance(f, dt):
        f = transport_update(f, dt, grid, params, bc)
        return bgk_relax(f, dt, grid, params)

    def fault(f):
        if not np.all(np.isfinite(f.values)):
            return "kinetic propagation lost finiteness"
        return None

    return march(f0, t0, t1, lambda f: cap, advance, fault, dt_max)
