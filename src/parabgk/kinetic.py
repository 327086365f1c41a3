"""Fine propagator: finite-volume transport with implicit relaxation.

One step treats the stiff collision term implicitly and everything else
explicitly. Transport is a conservative unsplit update: upwind fluxes in x
(the only inhomogeneous direction) and, when an external field is present,
central fluxes with max-speed dissipation along v_x. The x-upwind is split by
the sign of v_x and takes the convex form f + c (f_upwind - f) with
c = dt/dx |v_x|. The v_x flux through a face is the sum of two donor terms,
one from each neighbouring cell, formed once and applied to both cells it
joins. The relaxation toward the local Maxwellian is linear in f because
the Maxwellian depends on f only through moments the collision operator
conserves, so the implicit solve reduces to the blend
f / (1 + lam) + M lam / (1 + lam), the second weight folded into M.

A distribution is a plain array f[i, jx, jy, jz] of shape
(n_x, n_vx, n_vy, n_vz). Every call here advances the array it is given in
place and returns it; a caller who wants to keep the input passes a copy.
The transport sweeps the x rows in order. It forms each row's whole
increment, the upwind difference plus the net v_x field flux, in a one-row
scratch from old values, and the row takes it in one add. What enters past
either end is the far row's old half when periodic and zero when absorbing,
so both boundaries follow one inflow rule, and all its operands are
contiguous parts of rows. The relaxation works one block of x rows at a
time, as many as fit in _BLOCK_BYTES, so that each block is reused while it
is still cached: it blends in place and builds its Maxwellian in one
block-sized array that each call allocates and frees, so the block and the
transport's rows are never alive together.

Sign convention: f_t + v f_x + E f_vx = (M - f) / eps, so a positive field
accelerates particles toward positive v_x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DegenerateStateError
from .grid import BoundaryKind, PhaseGrid, march
from .moments import MomentField, lift, project

__all__ = [
    "KineticParams",
    "stable_dt_kinetic",
    "transport_update",
    "bgk_relax",
    "propagate_kinetic",
]

_BLOCK_BYTES = 1 << 21  # about one core's L2, so a block is reused while cached
_CFL = 0.5  # Courant number of the explicit transport


@dataclass(frozen=True)
class KineticParams:
    """What the kinetic solver needs to know of the physics, checked when
    made; frozen, so dataclasses.replace, which checks again, is the one way
    to change it.

    Collisions relax f toward M at rate 1/epsilon, with epsilon > 0 (a NaN,
    zero or negative epsilon raises ConfigurationError; epsilon = inf is the
    collisionless limit); force is the per-cell field E_i along x (None
    means no field), a 1-D array of at least one finite value, kept as given.
    """

    epsilon: float
    force: Optional[np.ndarray] = None

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ConfigurationError(f"need epsilon > 0, got {self.epsilon}")
        if self.force is None:
            return
        if np.ndim(self.force) != 1 or not np.size(self.force):
            raise ConfigurationError("the field must hold one value per cell, "
                                     f"got shape {np.shape(self.force)}")
        bad = np.flatnonzero(~np.isfinite(self.force))
        if bad.size:
            raise ConfigurationError(f"the field is {self.force[bad[0]]} in cell {bad[0]}")


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


def _require_shape(f: np.ndarray, grid: PhaseGrid, what: str) -> None:
    """ConfigurationError unless f has the grid's shape (n_x,) + n_v, n_x >= 1."""
    want = (grid.space.n_x,) + grid.velocity.n_v
    if np.shape(f) != want or not want[0]:
        raise ConfigurationError(f"{what} needs f of shape {want} with n_x >= 1, "
                                 f"got {np.shape(f)}")


def _block_rows(grid: PhaseGrid) -> int:
    """x rows in a block: as many as fit in _BLOCK_BYTES, at least one."""
    row_bytes = np.dtype(float).itemsize * int(np.prod(grid.velocity.n_v))
    return max(1, min(grid.space.n_x, _BLOCK_BYTES // row_bytes))


def transport_update(f: np.ndarray, dt: float, grid: PhaseGrid,
                     params: KineticParams, bc: BoundaryKind) -> np.ndarray:
    """One explicit transport step (no collisions), in place on f; returns f.

    Upwind in x in the convex form f + c (f_upwind - f), split by the sign of
    v_x; for absorbing boundaries no flux enters and outflow leaves freely. A
    v_x = 0 column has c = 0 and does not move. The field term advects along
    v_x with zero flux through the cube faces; each interior face's flux is
    the sum of two donor terms, formed once.

    The step sweeps the x rows in ascending order. Each row's increment,
    c (f_upwind - f) plus the net field flux into each cell, is formed in a
    one-row scratch from old values, and the row then takes it in one add.
    What enters past each end is behind, for the rightward half, and
    beyond, for the leftward half: the far row's old half when periodic,
    and zero when absorbing (a zero half row for behind, the scalar 0.0 for
    beyond). The leftward half's upwind row, the next one, is still old, and
    behind carries each row's old rightward half on to the next. A step
    allocates at most about five x rows.

    f of another shape than the grid's, or of no cells, raises
    ConfigurationError, and a dt outside [0, inf), or so large that the
    Courant number dt v_max / dx overflows, DegenerateStateError. The
    entries of f are not scanned: a non-finite one is left, without a numpy
    warning, to the relaxation's projection.
    """
    _require_shape(f, grid, "transport")
    if not 0.0 <= dt * grid.velocity.v_max / grid.space.dx < np.inf:
        raise DegenerateStateError(f"transport step dt is {dt}, not in [0, inf) "
                                   "with a finite Courant number")
    n_x, n_vx = f.shape[:2]
    cx = grid.velocity.centers[0]
    # A full row, not a (n_vx, 1, 1) broadcast: the broadcast measured 2 to
    # 11 % slower sod-converge windows.
    courant = np.broadcast_to((dt / grid.space.dx * np.abs(cx))[:, None, None],
                              f.shape[1:]).copy()
    # Centers ascend and are odd-symmetric: negative speeds first, then at
    # most one zero column, then positive speeds.
    neg = int(np.count_nonzero(cx < 0.0))
    left, right = f[:, :neg], f[:, neg:]
    inc = np.empty_like(f[0])
    inc_left, inc_right = inc[:neg], inc[neg:]
    if bc is BoundaryKind.PERIODIC:
        behind, beyond = right[-1].copy(), left[0].copy()
    else:
        behind, beyond = np.zeros_like(right[0]), 0.0
    # The central flux with max-speed dissipation through the face between
    # v_x cells j and j+1 is a f_j + b f_{j+1}, with a = (E + E_max) / 2 and
    # b = (E - E_max) / 2; it leaves cell j and enters j+1. With one v_x
    # cell there is no interior face, and the cube faces carry no flux.
    e_max = _max_field(params) if n_vx > 1 else 0.0
    half_dtdv = 0.5 * dt / grid.velocity.dv[0]
    if e_max > 0.0:
        flux, donor = np.empty((2, n_vx - 1) + f.shape[2:])
    # A NaN or inf entry is not scanned for: it makes its cell's mass
    # non-finite and the relaxation's projection refuses the cell, so the
    # warnings inf - inf or an overflow would raise on the way are silenced.
    with np.errstate(invalid="ignore", over="ignore"):
        for i, row in enumerate(f):
            np.subtract(behind, right[i], out=inc_right)
            np.subtract(left[i + 1] if i + 1 < n_x else beyond, left[i],
                        out=inc_left)
            inc *= courant
            np.copyto(behind, right[i])
            if e_max > 0.0:
                field = params.force[i]
                np.multiply(row[:-1], (field + e_max) * half_dtdv, out=flux)
                np.multiply(row[1:], (field - e_max) * half_dtdv, out=donor)
                flux += donor
                inc[:-1] -= flux
                inc[1:] += flux
            row += inc
    return f


def bgk_relax(f: np.ndarray, dt: float, grid: PhaseGrid,
              params: KineticParams) -> np.ndarray:
    """Implicit relaxation toward the Maxwellian of the current moments.

    f becomes (f + lam M) / (1 + lam), in place and returned, as
    f / (1 + lam) plus the Maxwellian with lam / (1 + lam) folded into its
    amplitude, where lam = dt / epsilon; lam = 0 leaves f unchanged, and a
    lam outside [0, inf) (a negative dt, or an epsilon so small that
    dt / epsilon overflows; KineticParams refuses any epsilon that is not
    > 0) raises DegenerateStateError. The moments are
    projected once, and project rejects a non-finite entry of f through the
    mass of its cell; lift builds the Maxwellian one block of x rows at a
    time, on that block's moments, in one array of _block_rows(grid) rows
    allocated for the call. f of another shape than the grid's, or of no
    cells, raises ConfigurationError.
    """
    _require_shape(f, grid, "relaxation")
    lam = dt / params.epsilon
    if not 0.0 <= lam < np.inf:
        raise DegenerateStateError(f"relaxation rate dt/epsilon is {lam} in every cell")
    rows = _block_rows(grid)
    block = np.empty((rows,) + f.shape[1:])
    U = project(f, grid)
    keep, weight = 1.0 / (1.0 + lam), lam / (1.0 + lam)
    n_x = f.shape[0]
    for a in range(0, n_x, rows):
        b = min(a + rows, n_x)
        M = lift(MomentField(U.rho[a:b], U.u[a:b], U.theta[a:b]), grid,
                 normalize_mass=True, out=block[:b - a], weight=weight)
        np.multiply(f[a:b], keep, out=f[a:b])
        f[a:b] += M
    return f


def propagate_kinetic(f: np.ndarray, t0: float, t1: float, grid: PhaseGrid,
                      params: KineticParams, bc: BoundaryKind,
                      dt_max: float | None = None) -> np.ndarray:
    """Advance f in place from t0 to t1 and return it.

    Steps are min(stability cap, dt_max, remaining). Each step transports f
    one x row at a time and then relaxes it one block of x rows at a time,
    each kernel allocating and freeing its own scratch. A step fails only
    through bgk_relax's checks, which name the cell; march adds the step.
    An f of another shape than the grid's, or of no cells, and a field
    whose length is not the cell count are refused before any step.
    """
    _require_shape(f, grid, "kinetic propagation")
    if params.force is not None and len(params.force) != grid.space.n_x:
        raise ConfigurationError(f"the field has {len(params.force)} values "
                                 f"for {grid.space.n_x} cells")
    cap = stable_dt_kinetic(grid, params)

    def advance(f, dt):
        f = transport_update(f, dt, grid, params, bc)
        return bgk_relax(f, dt, grid, params)

    return march(f, t0, t1, lambda f: cap, advance, dt_max)
