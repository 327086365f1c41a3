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
alternate between and a spare of one block of x rows, as many as fit in
_BLOCK_BYTES (all of f when it is that small); window_buffers makes that
triple. Only the v_x field flux and the Maxwellian use the spare, and both
are local in x; the x-upwind reads its neighbour row from the input, so the
step runs block by block with no halo. transport_update and bgk_relax take
the buffers as optional out/spare arguments and block by the spare's row
count, and propagate_kinetic takes the whole triple, so a caller that runs
many windows allocates it once and every window reuses the same, already
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

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

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


@dataclass
class KineticParams:
    """Knobs of the kinetic solver.

    Collisions relax f toward M at rate 1/epsilon (epsilon = inf is the
    collisionless limit); force is the per-cell field E_i along x (None
    means no field).
    """

    epsilon: float
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


def _spare(shape: tuple[int, ...]) -> np.ndarray:
    """One block of x rows of an array of this shape."""
    row = shape[1:]
    rows = max(1, min(shape[0], _BLOCK_BYTES // (8 * math.prod(row))))
    return np.empty((rows,) + row)


def window_buffers(grid: PhaseGrid, first: np.ndarray | None = None):
    """Two state arrays and one block of x rows, for propagate_kinetic.

    The arrays are uninitialised; first, when given, serves as the first
    state instead of a new array.
    """
    shape = (grid.space.n_x,) + grid.velocity.n_v
    if first is None:
        first = np.empty(shape)
    return first, np.empty(shape), _spare(shape)


def _blocks(n_x: int, rows: int):
    return (slice(i, min(i + rows, n_x)) for i in range(0, n_x, rows))


def _upwind_half(f: np.ndarray, out: np.ndarray, courant: np.ndarray,
                 periodic: bool, rightward: bool, rows: slice) -> None:
    """out = f + courant * (f_upwind - f) on rows of one sign half of v_x.

    The upwind cell is the left neighbour for rightward speeds; leftward
    speeds mirror x. Beyond an absorbing boundary the upwind cell is empty.
    """
    if not rightward:
        f, out = f[::-1], out[::-1]
        rows = slice(f.shape[0] - rows.stop, f.shape[0] - rows.start)
    a, b = rows.start, rows.stop
    np.subtract(f[a:b - 1], f[a + 1:b], out=out[a + 1:b])
    if a > 0 or periodic:
        np.subtract(f[a - 1], f[a], out=out[a])
    else:
        np.negative(f[a], out=out[a])
    out[a:b] *= courant
    out[a:b] += f[a:b]


def transport_update(f: np.ndarray, dt: float, grid: PhaseGrid,
                     params: KineticParams, bc: BoundaryKind,
                     out: np.ndarray | None = None,
                     spare: np.ndarray | None = None) -> np.ndarray:
    """One explicit transport step (no collisions).

    Upwind in x in the convex form f + c (f_upwind - f), split by the sign of
    v_x; for absorbing boundaries no flux enters and outflow leaves freely. A
    v_x = 0 column has c = 0 and does not move. The field term advects along
    v_x with zero flux through the cube faces; its interior fluxes are formed
    one donor side at a time in spare, the only scratch the step uses. Both
    run block by block over the spare's rows of x cells, under a
    _UFUNC_BUFFER-element ufunc buffer (see the module docstring).

    out receives the result and must not overlap f; spare holds one block of
    x rows. Either left as None is allocated, and f is never written.
    """
    n_x, n_vx = f.shape[:2]
    if out is None:
        out = np.empty_like(f)
    elif np.may_share_memory(out, f):
        raise ValueError("transport_update cannot write over its input")
    if spare is None:
        spare = _spare(f.shape)
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
        for rows in _blocks(n_x, spare.shape[0]):
            for half, rightward in ((slice(0, neg), False), (slice(neg, n_vx), True)):
                _upwind_half(f[:, half], out[:, half], courant[:, half], periodic,
                             rightward, rows)
            if e_max > 0.0:
                field = params.force[rows, None, None, None]
                flux = spare[:rows.stop - rows.start, :-1]
                for donor, weight in ((f[rows, :-1], field + e_max),
                                      (f[rows, 1:], field - e_max)):
                    np.multiply(donor, weight * half_dtdv, out=flux)
                    out[rows, :-1] -= flux
                    out[rows, 1:] += flux
    finally:
        np.setbufsize(saved)
    return out


def bgk_relax(f: np.ndarray, dt: float, grid: PhaseGrid,
              params: KineticParams, out: np.ndarray | None = None,
              spare: np.ndarray | None = None) -> np.ndarray:
    """Implicit relaxation toward the Maxwellian of the current moments.

    The result (f + lam M) / (1 + lam) goes to out, which may be f itself, as
    f / (1 + lam) plus the Maxwellian with lam / (1 + lam) folded into its
    amplitude, where lam = dt / epsilon; lam = 0 leaves f unchanged. The
    moments are projected once; lift builds the Maxwellian in spare, one
    block of x rows at a time, on that block's moments. Either buffer left as
    None is allocated.
    """
    U = project(f, grid)
    lam = dt / params.epsilon
    keep, weight = 1.0 / (1.0 + lam), lam / (1.0 + lam)
    if out is None:
        out = np.empty_like(f)
    if spare is None:
        spare = _spare(f.shape)
    for rows in _blocks(f.shape[0], spare.shape[0]):
        M = lift(MomentField(U.rho[rows], U.u[rows], U.theta[rows]), grid,
                 normalize_mass=True, out=spare[:rows.stop - rows.start],
                 weight=weight)
        np.multiply(f[rows], keep, out=out[rows])
        out[rows] += M
    return out


def propagate_kinetic(f0: np.ndarray, t0: float, t1: float, grid: PhaseGrid,
                      params: KineticParams, bc: BoundaryKind,
                      dt_max: float | None = None,
                      buffers: tuple | None = None) -> np.ndarray:
    """Advance f0 from t0 to t1 with steps min(stability cap, dt_max, remaining).

    The steps alternate between two state arrays and share a spare of one
    block of x rows. buffers, when given, is that triple as window_buffers
    makes it, and f0 may be one of its two states: it is then overwritten,
    so a window holds two states and one block. Without buffers the call
    allocates its own, f0 is only read, and a window holds its initial
    state besides. The result is one of the two states, except for an empty
    interval, which returns f0 itself.
    """
    cap = stable_dt_kinetic(grid, params)
    *states, spare = window_buffers(grid) if buffers is None else buffers

    def advance(f, dt):
        out = states[1] if f is states[0] else states[0]
        f = transport_update(f, dt, grid, params, bc, out=out, spare=spare)
        return bgk_relax(f, dt, grid, params, out=out, spare=spare)

    def fault(f):
        if not np.all(np.isfinite(f)):
            return "kinetic propagation lost finiteness"
        return None

    return march(f0, t0, t1, lambda f: cap, advance, fault, dt_max)
