"""Outer iteration: coarse sweeps corrected by windowed fine solves.

The expensive kinetic solves of distinct time windows depend only on the
previous iterate, so they run as independent tasks on a worker pool; the
cheap coarse corrections stay sequential. Each task writes its own jump slot
and no reduction depends on completion order, so results are bitwise
identical for any worker count.

After iteration k the first k snapshots coincide with the window-wise fine
chain (`fine_moment_chain`) and never change again, so both loops of
iteration k start at window k. The classic sweep over all windows yields the
same iterates to rounding at higher cost; the tests keep it as an oracle.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from concurrent.futures import Executor, FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, CorrectionOvershootError, SolverError
from .fluid import FluidParams, propagate_fluid
from .grid import Discretization
from .kinetic import KineticParams, propagate_kinetic
from .lifting import lift
from .moments import MomentField, project

__all__ = [
    "PararealConfig",
    "ConvergenceRecord",
    "ParTrajectory",
    "WorkRange",
    "initial_coarse_sweep",
    "compute_jumps",
    "sequential_correction",
    "run_parareal",
    "fine_moment_chain",
    "work_distribution",
    "parareal_cost",
    "estimate_k_opt",
]


@dataclass
class PararealConfig:
    """Iteration controls; stop once k exceeds k_max or the error drops below tol."""

    k_max: int
    tol: float
    workers: int = 1

    def __post_init__(self):
        if self.k_max < 1:
            raise ConfigurationError(f"need k_max >= 1, got {self.k_max}")
        if not self.tol > 0.0:
            raise ConfigurationError(f"need tol > 0, got {self.tol}")
        if self.workers < 1:
            raise ConfigurationError(f"need workers >= 1, got {self.workers}")


@dataclass
class ConvergenceRecord:
    k: int
    error: float
    seconds: float


@dataclass
class ParTrajectory:
    """State of the outer iteration over one time horizon.

    snapshots[n] approximates the moments at coarse time T^n for the current
    iterate; jumps[n-1] stores the fine-minus-coarse defect of window n. Jump
    buffers are allocated once and reused across iterations.
    """

    snapshots: list[MomentField]
    jumps: list[MomentField]
    iteration: int = 0
    frozen_upto: int = 0


class WorkRange(NamedTuple):
    """Inclusive window range [start, end] owned by one worker rank, and its size."""

    start: int
    end: int
    size: int


def _zero_like(U: MomentField) -> MomentField:
    return MomentField(np.zeros_like(U.rho), np.zeros_like(U.u),
                       np.zeros_like(U.theta))


def initial_coarse_sweep(U0: MomentField, disc: Discretization,
                         fluid: FluidParams) -> ParTrajectory:
    """Iteration 0: one serial coarse pass over all windows."""
    times = disc.time.coarse_times
    snapshots = [U0.copy()]
    for n in range(1, disc.time.n_g + 1):
        snapshots.append(propagate_fluid(snapshots[-1], float(times[n - 1]),
                                         float(times[n]), disc.phase, fluid,
                                         disc.bc, dt_max=disc.time.dt_g))
    jumps = [_zero_like(U0) for _ in range(disc.time.n_g)]
    return ParTrajectory(snapshots, jumps)


def _window_jump(n: int, U: MomentField, disc: Discretization,
                 kinetic: KineticParams, fluid: FluidParams):
    """Fine-minus-coarse defect of window n started from U, with stage timings."""
    times = disc.time.coarse_times
    t_a, t_b = float(times[n - 1]), float(times[n])
    tic = time.perf_counter()
    f = lift(U, disc.phase, normalize_mass=False)
    t_lift = time.perf_counter() - tic
    tic = time.perf_counter()
    f = propagate_kinetic(f, t_a, t_b, disc.phase, kinetic, disc.bc,
                          dt_max=disc.time.dt_f)
    t_kin = time.perf_counter() - tic
    tic = time.perf_counter()
    fine = project(f, disc.phase)
    t_proj = time.perf_counter() - tic
    tic = time.perf_counter()
    coarse = propagate_fluid(U, t_a, t_b, disc.phase, fluid, disc.bc,
                             dt_max=disc.time.dt_g)
    t_fluid = time.perf_counter() - tic
    return n, fine - coarse, (t_lift, t_kin, t_proj, t_fluid)


# Per-process context for pool workers, installed by the pool initializer so
# each submitted task only ships the small moment payload.
_WORKER_CTX = None


def _init_worker(disc, kinetic, fluid):
    global _WORKER_CTX
    _WORKER_CTX = (disc, kinetic, fluid)


def _window_jump_remote(args):
    n, rho, u, theta = args
    disc, kinetic, fluid = _WORKER_CTX
    return _window_jump(n, MomentField(rho, u, theta), disc, kinetic, fluid)


def make_executor(workers: int, disc: Discretization, kinetic: KineticParams,
                  fluid: FluidParams) -> Executor:
    """Process pool whose workers carry the problem context."""
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        ctx = multiprocessing.get_context()
    return ProcessPoolExecutor(max_workers=workers, mp_context=ctx,
                               initializer=_init_worker,
                               initargs=(disc, kinetic, fluid))


def _store_jump(slot: MomentField, delta: MomentField) -> None:
    slot.rho[:] = delta.rho
    slot.u[:] = delta.u
    slot.theta[:] = delta.theta


def compute_jumps(traj: ParTrajectory, k: int, disc: Discretization,
                  kinetic: KineticParams, fluid: FluidParams,
                  executor: Executor | None = None,
                  timing: dict | None = None) -> None:
    """Fill the jump slots of windows k..n_g from the previous iterate.

    Windows are dispatched as independent tasks with dynamic assignment when
    an executor is given; each result lands in its own slot, so the outcome
    does not depend on scheduling. A worker that dies breaks the pool; that
    surfaces as a SolverError naming the iteration and the window.
    """
    indices = range(k, disc.time.n_g + 1)
    stage_max = [0.0, 0.0, 0.0, 0.0]
    if executor is None:
        for n in indices:
            _, delta, stages = _window_jump(n, traj.snapshots[n - 1], disc,
                                            kinetic, fluid)
            _store_jump(traj.jumps[n - 1], delta)
            stage_max = [max(a, b) for a, b in zip(stage_max, stages)]
    else:
        window_of = {executor.submit(_window_jump_remote,
                                     (n, traj.snapshots[n - 1].rho,
                                      traj.snapshots[n - 1].u,
                                      traj.snapshots[n - 1].theta)): n
                     for n in indices}
        pending = set(window_of)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for fut in sorted(done, key=window_of.get):
                try:
                    n, delta, stages = fut.result()
                except BrokenProcessPool as exc:
                    raise SolverError(
                        f"worker pool broke in iteration {k} at window "
                        f"{window_of[fut]}: {exc}") from exc
                _store_jump(traj.jumps[n - 1], delta)
                stage_max = [max(a, b) for a, b in zip(stage_max, stages)]
    if timing is not None:
        for key, value in zip(("t_lift", "t_kin", "t_proj", "t_fluid"), stage_max):
            timing[key] = max(timing.get(key, 0.0), value)


def sequential_correction(traj: ParTrajectory, k: int, disc: Discretization,
                          fluid: FluidParams) -> float:
    """Coarse sweep plus stored jumps from window k on; returns the error.

    The error is the largest absolute componentwise change over all windows.
    A correction that leaves the physical regime aborts the run: the jump
    data cannot be trusted past that point.
    """
    times = disc.time.coarse_times
    old = traj.snapshots
    new = [s.copy() for s in old]
    error = 0.0
    for n in range(k, disc.time.n_g + 1):
        coarse = propagate_fluid(new[n - 1], float(times[n - 1]), float(times[n]),
                                 disc.phase, fluid, disc.bc,
                                 dt_max=disc.time.dt_g)
        corrected = coarse + traj.jumps[n - 1]
        finite = (np.all(np.isfinite(corrected.rho))
                  and np.all(np.isfinite(corrected.u))
                  and np.all(np.isfinite(corrected.theta)))
        if not finite or np.any(corrected.rho <= 0.0) or np.any(corrected.theta <= 0.0):
            raise CorrectionOvershootError(
                f"correction left the physical regime in window {n}", slice_index=n)
        error = max(error, corrected.sup_distance(old[n]))
        new[n] = corrected
    traj.snapshots = new
    traj.iteration = k
    traj.frozen_upto = min(k, disc.time.n_g)
    return error


def run_parareal(U0: MomentField, config: PararealConfig, disc: Discretization,
                 kinetic: KineticParams, fluid: FluidParams,
                 sink: Optional[Callable[[ConvergenceRecord], None]] = None,
                 timing: dict | None = None):
    """Full outer iteration; returns the trajectory and convergence records."""
    traj = initial_coarse_sweep(U0, disc, fluid)
    records: list[ConvergenceRecord] = []
    executor = None
    if config.workers > 1:
        executor = make_executor(config.workers, disc, kinetic, fluid)
    try:
        for k in range(1, config.k_max + 1):
            tic = time.perf_counter()
            compute_jumps(traj, k, disc, kinetic, fluid, executor=executor,
                          timing=timing)
            error = sequential_correction(traj, k, disc, fluid)
            record = ConvergenceRecord(k, error, time.perf_counter() - tic)
            records.append(record)
            if sink is not None:
                sink(record)
            if error < config.tol:
                break
    finally:
        if executor is not None:
            executor.shutdown()
    return traj, records


def fine_moment_chain(U0: MomentField, disc: Discretization,
                      kinetic: KineticParams) -> list[MomentField]:
    """Window-wise fine reference: lift, solve, project for each window in turn.

    This is the trajectory the outer iteration reproduces exactly once k
    reaches the window count.
    """
    times = disc.time.coarse_times
    out = [U0.copy()]
    for n in range(1, disc.time.n_g + 1):
        f = lift(out[-1], disc.phase, normalize_mass=False)
        f = propagate_kinetic(f, float(times[n - 1]), float(times[n]), disc.phase,
                              kinetic, disc.bc, dt_max=disc.time.dt_f)
        out.append(project(f, disc.phase))
    return out


def work_distribution(work: int, n_p: int, rank: int) -> WorkRange:
    """Deal `work` one-based windows to `n_p` ranks as evenly as possible.

    Integer recipe: chunk = work // n_p with the remainder spread over the
    lowest ranks. Ranges are inclusive; a rank with start > end owns nothing.
    """
    if n_p < 1:
        raise ConfigurationError(f"need n_p >= 1, got {n_p}")
    if not 0 <= rank < n_p:
        raise ConfigurationError(f"need 0 <= rank < n_p, got rank {rank}")
    if work < 0:
        raise ConfigurationError(f"need work >= 0, got {work}")
    chunk = work // n_p
    remainder = work % n_p
    start = rank * chunk + min(remainder, rank) + 1
    end = (rank + 1) * chunk + min(remainder, rank + 1)
    return WorkRange(start, end, max(0, end - start + 1))


def parareal_cost(k: int, t_kin: float, t_fluid: float, t_lift: float,
                  t_proj: float, n_g: int, n_p: int) -> float:
    """Modeled wall time of k corrected iterations on n_p workers."""
    per_window = (t_lift + t_proj + t_kin + t_fluid) / n_p + t_fluid
    return t_fluid + n_g * k * per_window


def estimate_k_opt(t_kin: float, t_fluid: float, t_lift: float, t_proj: float,
                   n_g: int, n_p: int) -> int:
    """Largest useful iteration count before the outer loop stops paying off.

    Ceiling of the break-even point of parareal_cost against the serial fine
    cost n_g * t_kin, clamped to at least one iteration.
    """
    per_window = (t_lift + t_proj + t_kin + t_fluid) / n_p + t_fluid
    ratio = (n_g * t_kin - t_fluid) / (n_g * per_window)
    return max(1, math.ceil(ratio))
