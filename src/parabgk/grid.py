"""Phase-space and time discretizations.

Space is a uniform cell-centered grid on [x_min, x_max]. Velocity is a
cell-centered cube on [-v_max, v_max]^3 with an independent point count per
axis, so strongly anisotropic resolutions (fine along v_x, coarse transverse)
stay affordable. Time carries two nested uniform levels: coarse windows for
the outer iteration and a fine step cap used inside each window; `march` is
the one stepping loop both propagators run inside a window.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import BlowUpError, ConfigurationError, DegenerateStateError

__all__ = [
    "BoundaryKind",
    "SpatialGrid",
    "VelocityGrid",
    "TimeGrids",
    "PhaseGrid",
    "Discretization",
    "build_spatial_grid",
    "build_velocity_grid",
    "build_time_grids",
    "march",
]

# Fraction of the remaining span below which it is treated as already reached;
# guards against a spurious final microstep from accumulated rounding.
_SPAN_GUARD = 1e-12


class BoundaryKind(Enum):
    """Spatial boundary treatment: zero inflow or periodic wrap."""

    ABSORBING = "absorbing"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class SpatialGrid:
    n_x: int
    dx: float
    centers: np.ndarray  # (n_x,), x_min + (i + 1/2) dx


@dataclass(frozen=True)
class VelocityGrid:
    """Cell-centered velocity cube [-v_max, v_max]^3, per-axis counts."""

    v_max: float
    n_v: tuple[int, int, int]
    dv: tuple[float, float, float]
    centers: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def cell_volume(self) -> float:
        return self.dv[0] * self.dv[1] * self.dv[2]


@dataclass(frozen=True)
class TimeGrids:
    """Coarse windows [T^n, T^n+1] with a fine step cap inside each."""

    n_g: int
    dt_f: float
    coarse_times: np.ndarray  # (n_g + 1,), coarse_times[-1] == t_final exactly


@dataclass(frozen=True)
class PhaseGrid:
    space: SpatialGrid
    velocity: VelocityGrid

    def require_shape(self, f: np.ndarray, what: str) -> None:
        """ConfigurationError naming what unless f has this grid's shape
        (n_x,) + n_v with n_x >= 1."""
        want = (self.space.n_x,) + self.velocity.n_v
        if np.shape(f) != want or not want[0]:
            raise ConfigurationError(f"{what} needs f of shape {want} with n_x >= 1, "
                                     f"got {np.shape(f)}")


@dataclass(frozen=True)
class Discretization:
    """Everything one problem setup fixes about meshes and boundaries."""

    phase: PhaseGrid
    time: TimeGrids
    bc: BoundaryKind


def _count(name: str, n) -> int:
    """n as an int, or a ConfigurationError naming the count if it is not an
    integer (a float such as 2.5 or 2.0 included) or is past the float range,
    where no spacing could be divided by it."""
    try:
        n = operator.index(n)
        float(n)
    except TypeError:
        raise ConfigurationError(f"need an integer {name}, got {n!r}") from None
    except OverflowError:
        raise ConfigurationError(f"need {name} within the float range, got an "
                                 f"integer of {n.bit_length()} bits") from None
    return n


def _real(name: str, x) -> float:
    """x as a float, or a ConfigurationError naming the value if it is not a
    real number (a string, None or an int too large for a float included)."""
    try:
        if isinstance(x, numbers.Real):
            return float(x)
    except OverflowError:
        pass
    raise ConfigurationError(f"need a real number {name}, got {x!r}")


def _spacing(name: str, width: float) -> float:
    """width, or a ConfigurationError naming it if it is not > 0, as when the
    span over the count underflows to zero."""
    if not width > 0.0:
        raise ConfigurationError(f"need {name} > 0, got {width}")
    return width


def build_spatial_grid(x_min: float, x_max: float, n_x: int) -> SpatialGrid:
    """Uniform grid of n_x cells on [x_min, x_max]."""
    x_min, x_max = _real("x_min", x_min), _real("x_max", x_max)
    if not (math.isfinite(x_max - x_min) and x_max > x_min):
        raise ConfigurationError(f"need finite x_max > x_min, got [{x_min}, {x_max}]")
    n_x = _count("n_x", n_x)
    if n_x < 2:
        raise ConfigurationError(f"need n_x >= 2, got {n_x}")
    dx = _spacing("dx", (x_max - x_min) / n_x)
    centers = x_min + (np.arange(n_x) + 0.5) * dx
    return SpatialGrid(n_x, dx, centers)


def _axis_centers(v_max: float, n: int) -> np.ndarray:
    dv = 2.0 * v_max / n
    # (j - (n-1)/2) * dv keeps the centers odd-symmetric to the last bit.
    return (np.arange(n) - (n - 1) / 2.0) * dv


def build_velocity_grid(v_max: float, n_v: int | tuple[int, int, int]) -> VelocityGrid:
    """Velocity cube with scalar or per-axis point counts."""
    v_max = _real("v_max", v_max)
    # the cube's width 2 v_max, and so its spacing, must be finite too
    if not (math.isfinite(2.0 * v_max) and v_max > 0):
        raise ConfigurationError(f"need finite v_max > 0, got {v_max}")
    try:
        counts = (n_v, n_v, n_v) if np.isscalar(n_v) else tuple(n_v)
    except TypeError:
        raise ConfigurationError(
            f"need a count or three counts n_v, got {n_v!r}") from None
    counts = tuple(_count("n_v", n) for n in counts)
    if len(counts) != 3 or any(n < 1 for n in counts):
        raise ConfigurationError(f"need three per-axis counts >= 1, got {n_v}")
    dv = tuple(_spacing("dv", 2.0 * v_max / n) for n in counts)
    centers = tuple(_axis_centers(v_max, n) for n in counts)
    return VelocityGrid(v_max, counts, dv, centers)


def build_time_grids(t_final: float, n_g: int, n_f: int) -> TimeGrids:
    """Nested coarse/fine time levels over [0, t_final]."""
    t_final = _real("t_final", t_final)
    if not (math.isfinite(t_final) and t_final > 0):
        raise ConfigurationError(f"need finite t_final > 0, got {t_final}")
    n_g, n_f = _count("n_g", n_g), _count("n_f", n_f)
    if n_g < 1 or n_f < n_g:
        raise ConfigurationError(f"need n_f >= n_g >= 1, got n_g={n_g}, n_f={n_f}")
    dt_f = _spacing("dt_f", t_final / n_f)
    return TimeGrids(n_g, dt_f, np.linspace(0.0, t_final, n_g + 1))


def march(state, t0: float, t1: float, stable_dt: Callable, advance: Callable):
    """Advance state from t0 to t1 with steps min(stable_dt(state), remaining).

    t0 <= t1 must be finite, else a ConfigurationError is raised before any
    step. stable_dt(state) returns the step cap, or raises
    DegenerateStateError on a state it cannot bound; advance(state, dt)
    returns the next state, or raises DegenerateStateError naming the cell
    where it meets a state it cannot use. Either, or a step whose size is not
    > 0 (a cap that is 0 or NaN), fails the step: march raises a BlowUpError
    with the 1-based step.
    """
    span = t1 - t0
    if not 0.0 <= span < math.inf:
        raise ConfigurationError(f"need finite t1 >= t0, got [{t0}, {t1}]")
    elapsed = 0.0
    step = 0
    while span - elapsed > _SPAN_GUARD * span:
        step += 1
        try:
            dt = min(stable_dt(state), span - elapsed)
            if not dt > 0.0:
                raise DegenerateStateError(f"step size is {dt}, not > 0")
            state = advance(state, dt)
        except DegenerateStateError as exc:
            raise BlowUpError(f"{exc} at step {step}", step=step) from exc
        elapsed += dt
    return state
