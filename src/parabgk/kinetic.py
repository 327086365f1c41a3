"""Fine propagator: finite-volume transport with implicit relaxation.

One step treats the stiff collision term implicitly and everything else
explicitly. Transport is a conservative unsplit update: upwind fluxes in x
(the only inhomogeneous direction) and, when an external field is present,
central fluxes with max-speed dissipation along v_x. The x-upwind is split by
the sign of v_x, so each half differences the one neighbour it takes from and
no ghosted copy of f is built. The relaxation toward the local Maxwellian is
linear in f because the Maxwellian depends on f only through moments the
collision operator conserves, so the implicit solve reduces to a closed-form
blend of f and M at the post-transport moments, done in place.

A window allocates its arrays once and reuses them for every step: two state
arrays the steps alternate between, a spare array for fluxes and the
Maxwellian, and with a field the v_x face array. transport_update and
bgk_relax take these as optional out/scratch arguments; without them they
allocate their own and leave their input untouched.

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


def _has_field_flux(params: KineticParams, n_vx: int) -> bool:
    # With one v_x cell there is no interior face, and the cube faces carry
    # no flux, so the field term vanishes.
    return n_vx > 1 and _max_field(params) > 0.0


def transport_update(f: Distribution, dt: float, grid: PhaseGrid,
                     params: KineticParams, bc: BoundaryKind,
                     out: np.ndarray | None = None,
                     spare: np.ndarray | None = None,
                     face: np.ndarray | None = None) -> Distribution:
    """One explicit transport step (no collisions).

    Upwind in x, split by the sign of v_x so that each half differences one
    neighbour; for absorbing boundaries no flux enters and outflow leaves
    freely. A v_x = 0 column does not move. The field term advects along v_x
    with zero flux through the cube faces.

    out receives the result and must not overlap f; spare (shaped like f) and
    face (one v_x cell fewer than f) are scratch. Each one left as None is
    allocated, and f is never written.
    """
    vals = f.values
    n_x, n_vx = vals.shape[:2]
    if out is None:
        out = np.empty_like(vals)
    elif np.may_share_memory(out, vals):
        raise ValueError("transport_update cannot write over its input")
    if spare is None:
        spare = np.empty_like(vals)
    cx = grid.velocity.centers[0]
    dtdx = dt / grid.space.dx
    periodic = bc is BoundaryKind.PERIODIC

    # Centers ascend and are odd-symmetric: negative speeds first, then at
    # most one zero column, then positive speeds.
    neg = slice(0, int(np.count_nonzero(cx < 0.0)))
    pos = slice(n_vx - int(np.count_nonzero(cx > 0.0)), n_vx)
    for half, rightward in ((neg, False), (pos, True)):
        _upwind_half(vals[:, half], out[:, half], spare[:, half],
                     cx[half][None, :, None, None], dtdx, periodic, rightward)
    out[:, neg.stop:pos.start] = vals[:, neg.stop:pos.start]

    if _has_field_flux(params, n_vx):
        if face is None:
            face = np.empty((n_x, n_vx - 1) + vals.shape[2:])
        work = spare[:, :-1]
        lo = vals[:, :-1]
        hi = vals[:, 1:]
        # face = 0.5 E (lo + hi) - 0.5 E_max (hi - lo), central flux with
        # max-speed dissipation through the interior v_x faces
        np.add(lo, hi, out=face)
        face *= 0.5 * params.force[:, None, None, None]
        np.subtract(hi, lo, out=work)
        work *= 0.5 * _max_field(params)
        face -= work
        dtdv = dt / grid.velocity.dv[0]
        np.multiply(face[:, 0], dtdv, out=work[:, 0])
        out[:, 0] -= work[:, 0]
        inner = work[:, :-1]
        np.subtract(face[:, 1:], face[:, :-1], out=inner)
        inner *= dtdv
        out[:, 1:-1] -= inner
        np.negative(face[:, -1], out=work[:, 0])
        work[:, 0] *= dtdv
        out[:, -1] -= work[:, 0]
    return Distribution(out)


def bgk_relax(f: Distribution, dt: float, grid: PhaseGrid,
              params: KineticParams, out: np.ndarray | None = None,
              spare: np.ndarray | None = None) -> Distribution:
    """Implicit relaxation toward the Maxwellian of the current moments.

    The result (f + lam M) / (1 + lam) goes to out, which may be f.values
    itself; the Maxwellian M is built in spare. Either left as None is
    allocated.
    """
    U = project(f, grid)
    lam = dt * np.asarray(params.tau(U.rho, U.theta), dtype=float) / params.epsilon
    lam = np.broadcast_to(lam, U.rho.shape)[:, None, None, None]
    M = lift(U, grid, normalize_mass=True, out=spare).values
    M *= lam
    if out is None:
        out = np.empty_like(M)
    np.add(f.values, M, out=out)
    out /= 1.0 + lam
    return Distribution(out)


def propagate_kinetic(f0: Distribution, t0: float, t1: float, grid: PhaseGrid,
                      params: KineticParams, bc: BoundaryKind,
                      dt_max: float | None = None) -> Distribution:
    """Advance f0 from t0 to t1 with steps min(stability cap, dt_max, remaining).

    The buffers are allocated once per call: two state arrays that the steps
    alternate between, a spare array and, with a field, the v_x face array.
    f0 is only read, and the result is one of this call's own arrays.
    """
    cap = stable_dt_kinetic(grid, params)
    shape = f0.values.shape
    states = (np.empty(shape), np.empty(shape))
    spare = np.empty(shape)
    face = None
    if _has_field_flux(params, shape[1]):
        face = np.empty((shape[0], shape[1] - 1) + shape[2:])

    def advance(f, dt):
        out = states[1] if f.values is states[0] else states[0]
        f = transport_update(f, dt, grid, params, bc, out=out, spare=spare,
                             face=face)
        return bgk_relax(f, dt, grid, params, out=out, spare=spare)

    def fault(f):
        if not np.all(np.isfinite(f.values)):
            return "kinetic propagation lost finiteness"
        return None

    return march(f0, t0, t1, lambda f: cap, advance, fault, dt_max)
