"""Fine propagator: finite-volume transport with implicit relaxation.

One step treats the stiff collision term implicitly and everything else
explicitly. Transport is a conservative unsplit update: upwind fluxes in x
(the only inhomogeneous direction) and, when an external field is present,
central fluxes with max-speed dissipation along v_x. The x-upwind is split by
the sign of v_x, so each half differences the one neighbour it takes from and
no ghosted copy of f is built. The v_x flux through a face is the sum of two
donor terms, one from each neighbouring cell, and each term is applied to
both cells it joins. The relaxation toward the local Maxwellian is linear in
f because the Maxwellian depends on f only through moments the collision
operator conserves, so the implicit solve reduces to a closed-form blend of f
and M at the post-transport moments, done in place.

A distribution is a plain array f[i, jx, jy, jz] of shape
(n_x, n_vx, n_vy, n_vz). A window allocates its arrays once and reuses them
for every step: two state arrays the steps alternate between and a spare
array for fluxes and the Maxwellian. transport_update and bgk_relax take these
as optional out/scratch arguments; without them they allocate their own and
leave their input untouched.

Sign convention: f_t + v f_x + E f_vx = (tau / eps) (M - f), so a positive
field accelerates particles toward positive v_x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import BoundaryKind, PhaseGrid, march
from .lifting import lift
from .moments import project

__all__ = [
    "ConstantTau",
    "KineticParams",
    "stable_dt_kinetic",
    "transport_update",
    "bgk_relax",
    "propagate_kinetic",
]


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
    tau: Callable = ConstantTau(1.0)
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


def _upwind_half(f: np.ndarray, out: np.ndarray, flux: np.ndarray,
                 speed: np.ndarray, dtdx: float, periodic: bool,
                 rightward: bool) -> None:
    """out = f - dtdx * (flux out - flux in) on one sign half of the v_x axis.

    flux[i] = speed * f[i] is what cell i donates through its downwind face:
    the right face for rightward speeds, the left face otherwise. Beyond an
    absorbing boundary the donor cell is empty, so no flux enters.
    """
    np.multiply(f, speed, out=flux)
    if rightward:
        np.subtract(flux[1:], flux[:-1], out=out[1:])
        if periodic:
            np.subtract(flux[0], flux[-1], out=out[0])
        else:
            out[0] = flux[0]
    else:
        np.subtract(flux[1:], flux[:-1], out=out[:-1])
        if periodic:
            np.subtract(flux[0], flux[-1], out=out[-1])
        else:
            np.negative(flux[-1], out=out[-1])
    out *= dtdx
    np.subtract(f, out, out=out)


def transport_update(f: np.ndarray, dt: float, grid: PhaseGrid,
                     params: KineticParams, bc: BoundaryKind,
                     out: np.ndarray | None = None,
                     spare: np.ndarray | None = None) -> np.ndarray:
    """One explicit transport step (no collisions).

    Upwind in x, split by the sign of v_x so that each half differences one
    neighbour; for absorbing boundaries no flux enters and outflow leaves
    freely. A v_x = 0 column does not move. The field term advects along v_x
    with zero flux through the cube faces; its interior fluxes are formed one
    donor side at a time in spare.

    out receives the result and must not overlap f; spare (shaped like f) is
    scratch. Either left as None is allocated, and f is never written.
    """
    n_vx = f.shape[1]
    if out is None:
        out = np.empty_like(f)
    elif np.may_share_memory(out, f):
        raise ValueError("transport_update cannot write over its input")
    if spare is None:
        spare = np.empty_like(f)
    cx = grid.velocity.centers[0]
    dtdx = dt / grid.space.dx
    periodic = bc is BoundaryKind.PERIODIC

    # Centers ascend and are odd-symmetric: negative speeds first, then at
    # most one zero column, then positive speeds.
    neg = slice(0, int(np.count_nonzero(cx < 0.0)))
    pos = slice(n_vx - int(np.count_nonzero(cx > 0.0)), n_vx)
    for half, rightward in ((neg, False), (pos, True)):
        _upwind_half(f[:, half], out[:, half], spare[:, half],
                     cx[half][None, :, None, None], dtdx, periodic, rightward)
    out[:, neg.stop:pos.start] = f[:, neg.stop:pos.start]

    e_max = _max_field(params)
    # With one v_x cell there is no interior face, and the cube faces carry
    # no flux, so the field term vanishes.
    if n_vx > 1 and e_max > 0.0:
        # The central flux with max-speed dissipation through the face between
        # v_x cells j and j+1 is a f_j + b f_{j+1}, with a = (E + E_max) / 2
        # and b = (E - E_max) / 2; each half leaves cell j and enters j+1.
        half_dtdv = 0.5 * dt / grid.velocity.dv[0]
        field = params.force[:, None, None, None]
        flux = spare[:, :-1]
        for donor, weight in ((f[:, :-1], field + e_max),
                              (f[:, 1:], field - e_max)):
            np.multiply(donor, weight * half_dtdv, out=flux)
            out[:, :-1] -= flux
            out[:, 1:] += flux
    return out


def bgk_relax(f: np.ndarray, dt: float, grid: PhaseGrid,
              params: KineticParams, out: np.ndarray | None = None,
              spare: np.ndarray | None = None) -> np.ndarray:
    """Implicit relaxation toward the Maxwellian of the current moments.

    The result (f + lam M) / (1 + lam) goes to out, which may be f itself;
    the Maxwellian M is built in spare. Either left as None is allocated.
    """
    U = project(f, grid)
    lam = dt * np.asarray(params.tau(U.rho, U.theta), dtype=float) / params.epsilon
    lam = np.broadcast_to(lam, U.rho.shape)[:, None, None, None]
    M = lift(U, grid, normalize_mass=True, out=spare)
    M *= lam
    if out is None:
        out = np.empty_like(M)
    np.add(f, M, out=out)
    out /= 1.0 + lam
    return out


def propagate_kinetic(f0: np.ndarray, t0: float, t1: float, grid: PhaseGrid,
                      params: KineticParams, bc: BoundaryKind,
                      dt_max: float | None = None) -> np.ndarray:
    """Advance f0 from t0 to t1 with steps min(stability cap, dt_max, remaining).

    The buffers are allocated once per call: two state arrays that the steps
    alternate between and a spare array. f0 is only read. The result is one
    of this call's own arrays, except for an empty interval, which returns f0
    itself.
    """
    cap = stable_dt_kinetic(grid, params)
    shape = f0.shape
    states = (np.empty(shape), np.empty(shape))
    spare = np.empty(shape)

    def advance(f, dt):
        out = states[1] if f is states[0] else states[0]
        f = transport_update(f, dt, grid, params, bc, out=out, spare=spare)
        return bgk_relax(f, dt, grid, params, out=out, spare=spare)

    def fault(f):
        if not np.all(np.isfinite(f)):
            return "kinetic propagation lost finiteness"
        return None

    return march(f0, t0, t1, lambda f: cap, advance, fault, dt_max)
