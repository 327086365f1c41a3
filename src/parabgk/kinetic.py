"""Fine propagator: finite-volume transport with implicit relaxation.

One step treats the stiff collision term implicitly and everything else
explicitly. Transport is a conservative unsplit update: upwind fluxes in x
(the only inhomogeneous direction) and, when an external field is present,
central fluxes with max-speed dissipation along v_x. The x-upwind is split by
the sign of v_x and takes the convex form f + c (f_upwind - f) with
c = dt/dx |v_x|, which needs no scratch. The v_x flux through a face is the
sum of two donor terms, one from each neighbouring cell, and each term is
applied to both cells it joins. The relaxation toward the local Maxwellian is
linear in f because the Maxwellian depends on f only through moments the
collision operator conserves, so the implicit solve reduces to the blend
f / (1 + lam) + M lam / (1 + lam), the second weight folded into M.

A distribution is a plain array f[i, jx, jy, jz] of shape
(n_x, n_vx, n_vy, n_vz). A window runs on two state arrays the steps
alternate between; window_buffers makes that pair. The transport reads one
and writes the other over whole arrays, forming the v_x field flux one x row
at a time in a one-row scratch of its own. The relaxation then blends in
place and builds its Maxwellian in the state the transport has just read,
which the step no longer needs, one block of x rows at a time, as many as
fit in _BLOCK_BYTES, so that each block is blended while it is still cached.
transport_update and bgk_relax take the buffers as optional out/spare
arguments and propagate_kinetic takes the pair, so a caller that runs many
windows allocates it once and every window reuses the same, already
touched, pages. Without buffers each call allocates its own and leaves its
input untouched.

numpy copies a strided ufunc operand through its operand buffer when the
operand's contiguous runs are shorter than half that buffer (8192 elements by
default), and that path costs 3-4x as much per element as the direct one. A
sign half of the x-upwind is strided with runs of n_vx/2 * n_vy * n_vz
elements: 2048 on a 16^3 grid, which takes the slow path, and 16384 at
128x16x16, which does not. transport_update therefore runs its ufuncs under
a _UFUNC_BUFFER-element buffer and restores the caller's size when it ends,
also on an error. project stays at the caller's size: its reductions are
about a fifth faster buffered. The buffer size moves no result bit.

Sign convention: f_t + v f_x + E f_vx = (M - f) / eps, so a positive field
accelerates particles toward positive v_x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateStateError
from .grid import BoundaryKind, PhaseGrid, march
from .lifting import lift
from .moments import MomentField, project

__all__ = [
    "KineticParams",
    "stable_dt_kinetic",
    "transport_update",
    "bgk_relax",
    "propagate_kinetic",
    "window_buffers",
]

_BLOCK_BYTES = 1 << 21  # about one core's L2, so a block is reused while cached
# ufunc buffer, in elements, for the transport's strided operands; numpy
# requires a multiple of 16
_UFUNC_BUFFER = 256
_CFL = 0.5  # Courant number of the explicit transport


@dataclass
class KineticParams:
    """What the kinetic solver needs to know of the physics.

    Collisions relax f toward M at rate 1/epsilon (epsilon = inf is the
    collisionless limit); force is the per-cell field E_i along x (None
    means no field).
    """

    epsilon: float
    force: Optional[np.ndarray] = None


def _max_field(params: KineticParams) -> float:
    if params.force is None:
        return 0.0
    return float(np.max(np.abs(params.force)))


def stable_dt_kinetic(grid: PhaseGrid, params: KineticParams) -> float:
    """CFL-stable explicit step: 0.5 / (v_max/dx + E_max/dv_x)."""
    rate = grid.velocity.v_max / grid.space.dx
    e_max = _max_field(params)
    if e_max > 0.0:
        rate += e_max / grid.velocity.dv[0]
    return _CFL / rate


def window_buffers(grid: PhaseGrid, first: np.ndarray | None = None):
    """The two state arrays of a window, for propagate_kinetic.

    The arrays are uninitialised; first, when given, serves as the first
    state instead of a new array.
    """
    shape = (grid.space.n_x,) + grid.velocity.n_v
    if first is None:
        first = np.empty(shape)
    return first, np.empty(shape)


def _upwind_half(f: np.ndarray, out: np.ndarray, courant: np.ndarray,
                 periodic: bool, rightward: bool) -> None:
    """out = f + courant * (f_upwind - f) on one sign half of v_x.

    The upwind cell is the left neighbour for rightward speeds; leftward
    speeds mirror x. Beyond an absorbing boundary the upwind cell is empty.
    """
    if not rightward:
        f, out = f[::-1], out[::-1]
    np.subtract(f[:-1], f[1:], out=out[1:])
    if periodic:
        np.subtract(f[-1], f[0], out=out[0])
    else:
        np.negative(f[0], out=out[0])
    out *= courant
    out += f


def transport_update(f: np.ndarray, dt: float, grid: PhaseGrid,
                     params: KineticParams, bc: BoundaryKind,
                     out: np.ndarray | None = None) -> np.ndarray:
    """One explicit transport step (no collisions).

    Upwind in x in the convex form f + c (f_upwind - f), split by the sign of
    v_x; for absorbing boundaries no flux enters and outflow leaves freely. A
    v_x = 0 column has c = 0 and does not move. The field term advects along
    v_x with zero flux through the cube faces; its interior fluxes are formed
    one x row and one donor side at a time in a one-row scratch, the only
    one the step uses. Both run under a _UFUNC_BUFFER-element ufunc buffer
    (see the module docstring).

    out receives the result and must not overlap f; left as None it is
    allocated. f is never written.
    """
    n_vx = f.shape[1]
    if out is None:
        out = np.empty_like(f)
    elif np.may_share_memory(out, f):
        raise ValueError("transport_update cannot write over its input")
    cx = grid.velocity.centers[0]
    courant = dt / grid.space.dx * np.abs(cx)[None, :, None, None]
    periodic = bc is BoundaryKind.PERIODIC
    # Centers ascend and are odd-symmetric: negative speeds first, then at
    # most one zero column, then positive speeds.
    neg = int(np.count_nonzero(cx < 0.0))
    # The central flux with max-speed dissipation through the face between
    # v_x cells j and j+1 is a f_j + b f_{j+1}, with a = (E + E_max) / 2 and
    # b = (E - E_max) / 2; each half leaves cell j and enters j+1. With one
    # v_x cell there is no interior face, and the cube faces carry no flux.
    e_max = _max_field(params) if n_vx > 1 else 0.0
    half_dtdv = 0.5 * dt / grid.velocity.dv[0]
    # np.errstate does not restore the buffer size before numpy 2.0
    saved = np.setbufsize(_UFUNC_BUFFER)
    try:
        for half, rightward in ((slice(0, neg), False), (slice(neg, n_vx), True)):
            _upwind_half(f[:, half], out[:, half], courant[:, half], periodic,
                         rightward)
        if e_max > 0.0:
            flux = np.empty((n_vx - 1,) + f.shape[2:])
            for i, field in enumerate(params.force):
                for donor, weight in ((f[i, :-1], field + e_max),
                                      (f[i, 1:], field - e_max)):
                    np.multiply(donor, weight * half_dtdv, out=flux)
                    out[i, :-1] -= flux
                    out[i, 1:] += flux
    finally:
        np.setbufsize(saved)
    return out


def bgk_relax(f: np.ndarray, dt: float, grid: PhaseGrid,
              params: KineticParams, out: np.ndarray | None = None,
              spare: np.ndarray | None = None) -> np.ndarray:
    """Implicit relaxation toward the Maxwellian of the current moments.

    The result (f + lam M) / (1 + lam) goes to out, which may be f itself, as
    f / (1 + lam) plus the Maxwellian with lam / (1 + lam) folded into its
    amplitude, where lam = dt / epsilon; lam = 0 leaves f unchanged, and a
    lam outside [0, inf) (a NaN, zero or negative epsilon, or one so small
    that dt / epsilon overflows) raises DegenerateStateError. The moments are
    projected once, and project rejects a non-finite entry of f through the
    mass of its cell; lift builds the Maxwellian in spare, one block of x
    rows at a time, on that block's moments. A block is as many rows as fit
    in _BLOCK_BYTES, and no more than spare holds: spare is any C-contiguous
    array of at least one x row that overlaps neither f nor out, a whole
    state included. Either buffer left as None is allocated, spare as one
    block.
    """
    lam = dt / params.epsilon if params.epsilon else np.inf
    if not 0.0 <= lam < np.inf:
        raise DegenerateStateError(f"relaxation rate dt/epsilon is {lam} in every cell")
    U = project(f, grid)
    keep, weight = 1.0 / (1.0 + lam), lam / (1.0 + lam)
    if out is None:
        out = np.empty_like(f)
    n_x, row = f.shape[0], f.shape[1:]
    rows = max(1, min(n_x, _BLOCK_BYTES // f[0].nbytes))
    if spare is None:
        spare = np.empty((rows,) + row)
    rows = min(rows, spare.shape[0])
    for a in range(0, n_x, rows):
        b = min(a + rows, n_x)
        M = lift(MomentField(U.rho[a:b], U.u[a:b], U.theta[a:b]), grid,
                 normalize_mass=True, out=spare[:b - a], weight=weight)
        np.multiply(f[a:b], keep, out=out[a:b])
        out[a:b] += M
    return out


def propagate_kinetic(f0: np.ndarray, t0: float, t1: float, grid: PhaseGrid,
                      params: KineticParams, bc: BoundaryKind,
                      dt_max: float | None = None,
                      buffers: tuple | None = None) -> np.ndarray:
    """Advance f0 from t0 to t1 with steps min(stability cap, dt_max, remaining).

    The steps alternate between two state arrays: each transports into the
    state it does not read and relaxes there in place, and the relaxation
    builds its Maxwellian in the other state, the transport's input once
    that is a window state, or the still unused state on a first step from
    a caller's f0, which is never written. buffers, when given, is that pair
    as window_buffers makes it, and f0 may be one of its two states: it is
    then overwritten, so a window holds two arrays. Without buffers the call
    allocates its own, f0 is only read, and a window holds its initial
    state besides. The result is one of the two states, except for an empty
    interval, which returns f0 itself. A step fails only through bgk_relax's
    checks, which name the cell; march adds the step.
    """
    cap = stable_dt_kinetic(grid, params)
    states = window_buffers(grid) if buffers is None else buffers

    def advance(f, dt):
        out, free = (states[1], states[0]) if f is states[0] else states
        f = transport_update(f, dt, grid, params, bc, out=out)
        return bgk_relax(f, dt, grid, params, out=out, spare=free)

    return march(f0, t0, t1, lambda f: cap, advance, dt_max)
