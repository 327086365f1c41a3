"""Fine propagator: finite-volume transport with implicit relaxation.

One step treats the stiff collision term implicitly and everything else
explicitly. Transport is a conservative unsplit update: upwind fluxes in x
(the only inhomogeneous direction) and, when an external field is present,
central fluxes with max-speed dissipation along v_x. The x-upwind is split by
the sign of v_x and takes the convex form f + c (f_upwind - f) with
c = dt/dx |v_x|. The v_x flux through a face is the
sum of two donor terms, one from each neighbouring cell, and each term is
applied to both cells it joins. The relaxation toward the local Maxwellian is
linear in f because the Maxwellian depends on f only through moments the
collision operator conserves, so the implicit solve reduces to the blend
f / (1 + lam) + M lam / (1 + lam), the second weight folded into M.

A distribution is a plain array f[i, jx, jy, jz] of shape
(n_x, n_vx, n_vy, n_vz). Every call here advances the array it is given in
place and returns it; a caller who wants to keep the input passes a copy.
A step works on the state one block of x rows at a time, as many rows as
fit in _BLOCK_BYTES, so that each block is reused while it is still cached.
The transport forms a block's upwind increments in the block from the
state's old values, keeps one-row copies of the old rows a later block
still reads, forms each row's v_x field fluxes in one-row scratches before
the row changes, and then adds both to the rows. The relaxation blends in
place and builds its Maxwellian in the block. The block is the optional
spare of transport_update, bgk_relax and propagate_kinetic, and
window_block makes one, so a caller that runs many windows allocates it
once and every window reuses the same, already touched, pages. Without a
spare each call allocates its own block.

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
    "window_block",
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


def _block_rows(grid: PhaseGrid) -> int:
    """x rows in a block: as many as fit in _BLOCK_BYTES, at least one."""
    row_bytes = np.dtype(float).itemsize * int(np.prod(grid.velocity.n_v))
    return max(1, min(grid.space.n_x, _BLOCK_BYTES // row_bytes))


def window_block(grid: PhaseGrid) -> np.ndarray:
    """An uninitialised block of _block_rows(grid) x rows, a step's spare."""
    return np.empty((_block_rows(grid),) + grid.velocity.n_v)


def _block_buffer(f: np.ndarray, spare: np.ndarray | None, grid: PhaseGrid,
                  who: str):
    """A kernel's spare, a new block when it is None, and its block rows.

    A spare that overlaps f raises ValueError before anything is written. A
    block is _block_rows(grid) rows and no more than spare holds.
    """
    if spare is None:
        spare = window_block(grid)
    elif np.may_share_memory(spare, f):
        raise ValueError(f"{who}'s spare overlaps its input")
    return spare, min(_block_rows(grid), spare.shape[0])


def _upwind_half(f: np.ndarray, inc: np.ndarray, courant: np.ndarray,
                 edge: np.ndarray | None, rightward: bool) -> None:
    """inc = courant * (f_upwind - f) on one sign half of v_x of a block of rows.

    The upwind cell is the left neighbour for rightward speeds; leftward
    speeds mirror x. edge is the upwind row just outside the block, None
    beyond an absorbing boundary, where the upwind cell is empty.
    """
    if not rightward:
        f, inc = f[::-1], inc[::-1]
    np.subtract(f[:-1], f[1:], out=inc[1:])
    if edge is None:
        np.negative(f[0], out=inc[0])
    else:
        np.subtract(edge, f[0], out=inc[0])
    inc *= courant


def transport_update(f: np.ndarray, dt: float, grid: PhaseGrid,
                     params: KineticParams, bc: BoundaryKind,
                     spare: np.ndarray | None = None) -> np.ndarray:
    """One explicit transport step (no collisions).

    Upwind in x in the convex form f + c (f_upwind - f), split by the sign of
    v_x; for absorbing boundaries no flux enters and outflow leaves freely. A
    v_x = 0 column has c = 0 and does not move. The field term advects along
    v_x with zero flux through the cube faces, as two donor fluxes per
    interior face.

    The step runs in place on f, one block of x rows at a time: both sign
    halves' increments c (f_upwind - f) go to spare while the block still
    holds its old values, each row's field fluxes are formed from its old
    values in two one-row scratches, and then the row takes the increment
    and the fluxes. The rows a later block reads after they have changed,
    the last of each block and, when periodic, the first of all, are kept
    as one-row copies. A block is as many rows as fit in _BLOCK_BYTES and
    no more than spare holds. Everything runs under a _UFUNC_BUFFER-element
    ufunc buffer (see the module docstring).

    spare is any C-contiguous array of at least one x row; None allocates
    one block. A spare that overlaps f raises ValueError before anything is
    written. Beyond the block, a step allocates a few x rows. Returns f.
    """
    n_x, n_vx = f.shape[:2]
    spare, rows = _block_buffer(f, spare, grid, "transport_update")
    cx = grid.velocity.centers[0]
    courant = dt / grid.space.dx * np.abs(cx)[None, :, None, None]
    periodic = bc is BoundaryKind.PERIODIC
    # Centers ascend and are odd-symmetric: negative speeds first, then at
    # most one zero column, then positive speeds.
    neg = int(np.count_nonzero(cx < 0.0))
    left, right = slice(0, neg), slice(neg, n_vx)
    # The old rows read after they change: the leftward half of the first
    # row, which the periodic wrap hands to the last block, and the
    # rightward half of each block's last row, which the next block reads.
    first = f[0, left].copy() if periodic else None
    carry = np.empty_like(f[0, right])
    # The central flux with max-speed dissipation through the face between
    # v_x cells j and j+1 is a f_j + b f_{j+1}, with a = (E + E_max) / 2 and
    # b = (E - E_max) / 2; each half leaves cell j and enters j+1. With one
    # v_x cell there is no interior face, and the cube faces carry no flux.
    e_max = _max_field(params) if n_vx > 1 else 0.0
    half_dtdv = 0.5 * dt / grid.velocity.dv[0]
    if e_max > 0.0:
        faces = (n_vx - 1,) + f.shape[2:]
        fluxes = (np.empty(faces), np.empty(faces))
    # np.errstate does not restore the buffer size before numpy 2.0
    saved = np.setbufsize(_UFUNC_BUFFER)
    try:
        for a in range(0, n_x, rows):
            b = min(a + rows, n_x)
            block, inc = f[a:b], spare[:b - a]
            # each half's upwind row just outside the block
            edges = (f[b, left] if b < n_x else first,
                     carry if a > 0 else (f[-1, right] if periodic else None))
            for half, edge, rightward in zip((left, right), edges, (False, True)):
                _upwind_half(block[:, half], inc[:, half], courant[:, half],
                             edge, rightward)
            if b < n_x:
                np.copyto(carry, f[b - 1, right])
            if e_max == 0.0:
                block += inc
                continue
            for i in range(a, b):
                field = params.force[i]
                np.multiply(f[i, :-1], (field + e_max) * half_dtdv, out=fluxes[0])
                np.multiply(f[i, 1:], (field - e_max) * half_dtdv, out=fluxes[1])
                f[i] += inc[i - a]
                for flux in fluxes:
                    f[i, :-1] -= flux
                    f[i, 1:] += flux
    finally:
        np.setbufsize(saved)
    return f


def bgk_relax(f: np.ndarray, dt: float, grid: PhaseGrid,
              params: KineticParams, spare: np.ndarray | None = None) -> np.ndarray:
    """Implicit relaxation toward the Maxwellian of the current moments.

    f becomes (f + lam M) / (1 + lam), in place and returned, as
    f / (1 + lam) plus the Maxwellian with lam / (1 + lam) folded into its
    amplitude, where lam = dt / epsilon; lam = 0 leaves f unchanged, and a
    lam outside [0, inf) (a NaN, zero or negative epsilon, or one so small
    that dt / epsilon overflows) raises DegenerateStateError. The moments are
    projected once, and project rejects a non-finite entry of f through the
    mass of its cell; lift builds the Maxwellian in spare, one block of x
    rows at a time, on that block's moments. A block is as many rows as fit
    in _BLOCK_BYTES, and no more than spare holds: spare is any C-contiguous
    array of at least one x row, a whole state included, and None allocates
    one block. A spare that overlaps f raises ValueError as in
    transport_update.
    """
    lam = dt / params.epsilon if params.epsilon else np.inf
    if not 0.0 <= lam < np.inf:
        raise DegenerateStateError(f"relaxation rate dt/epsilon is {lam} in every cell")
    spare, rows = _block_buffer(f, spare, grid, "bgk_relax")
    U = project(f, grid)
    keep, weight = 1.0 / (1.0 + lam), lam / (1.0 + lam)
    n_x = f.shape[0]
    for a in range(0, n_x, rows):
        b = min(a + rows, n_x)
        M = lift(MomentField(U.rho[a:b], U.u[a:b], U.theta[a:b]), grid,
                 normalize_mass=True, out=spare[:b - a], weight=weight)
        np.multiply(f[a:b], keep, out=f[a:b])
        f[a:b] += M
    return f


def propagate_kinetic(f: np.ndarray, t0: float, t1: float, grid: PhaseGrid,
                      params: KineticParams, bc: BoundaryKind,
                      dt_max: float | None = None,
                      spare: np.ndarray | None = None) -> np.ndarray:
    """Advance f in place from t0 to t1 and return it.

    Steps are min(stability cap, dt_max, remaining). Each step transports f
    and relaxes it, both through one block of x rows: spare, as window_block
    makes it, or one block allocated for the call. A step fails only
    through bgk_relax's checks, which name the cell; march adds the step.
    """
    cap = stable_dt_kinetic(grid, params)
    if spare is None:
        spare = window_block(grid)

    def advance(f, dt):
        f = transport_update(f, dt, grid, params, bc, spare=spare)
        return bgk_relax(f, dt, grid, params, spare=spare)

    return march(f, t0, t1, lambda f: cap, advance, dt_max)
