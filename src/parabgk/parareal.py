"""Outer iteration: coarse sweeps corrected by windowed fine solves.

The expensive kinetic solves of distinct time windows depend only on the
previous iterate, so they run as independent tasks on a worker pool that
lifts, solves and projects. The cheap coarse solves stay sequential in the
main process: each sweep solves every window it moves once and keeps the
result, so a window's jump is its pooled fine result minus the coarse value
the previous sweep stored. Both propagators apply the case's one field,
`KineticParams.force`. Jumps are formed in window order into each window's
own slot, so they are bitwise identical for any worker count.

After iteration k the first k snapshots coincide with the window-wise fine
chain (`fine_moment_chain`) and never change again, so both loops of
iteration k start at window k. The classic sweep over all windows yields the
same iterates to rounding at higher cost; the tests keep it as an oracle.

The serial passes over all windows, U_{n+1} = P(U_n) with the coarse or the
fine propagator as P (the initial coarse sweep, the window-wise fine chain
and runner's fine mode), step through one window chain, which names the
window a SolverError came from. A pool is shut down, waiting for its
workers, however the iteration ends.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import time
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (ConfigurationError, CorrectionOvershootError,
                     DegenerateStateError, SolverError)
from .fluid import propagate_fluid
from .grid import Discretization, _count, _real
from .kinetic import KineticParams, propagate_kinetic
from .moments import MomentField, lift, project

__all__ = [
    "PararealConfig",
    "ConvergenceRecord",
    "ParTrajectory",
    "initial_coarse_sweep",
    "compute_jumps",
    "sequential_correction",
    "run_parareal",
    "fine_moment_chain",
    "parareal_cost",
    "estimate_k_opt",
]


@dataclass(frozen=True)
class PararealConfig:
    """Iteration controls; stop once k exceeds k_max or the error drops below tol.

    Checked when made: k_max and workers are integers >= 1 and tol is a real
    number > 0.
    Frozen, so dataclasses.replace, which checks again, is the one way to
    change a control.
    """

    k_max: int
    tol: float
    workers: int = 1

    def __post_init__(self):
        if _count("k_max", self.k_max) < 1:
            raise ConfigurationError(f"need k_max >= 1, got {self.k_max}")
        if not _real("tol", self.tol) > 0.0:
            raise ConfigurationError(f"need tol > 0, got {self.tol}")
        if _count("workers", self.workers) < 1:
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
    iterate; coarse[n-1] is the Euler solve of window n from snapshots[n-1],
    set by the sweep that made snapshots[n]; jumps[n-1] holds the latest
    fine-minus-coarse defect of window n (zero until that window is first
    solved).
    """

    snapshots: list[MomentField]
    coarse: list[MomentField]
    jumps: list[MomentField]


def _zero_like(U: MomentField) -> MomentField:
    return MomentField(np.zeros_like(U.rho), np.zeros_like(U.u),
                       np.zeros_like(U.theta))


def _coarse_window(n: int, U: MomentField, disc: Discretization,
                   force: np.ndarray | None) -> MomentField:
    """Euler solve of window n from U under the per-cell field `force`, in
    steps that the CFL bound alone caps, to the window's end."""
    times = disc.time.coarse_times
    return propagate_fluid(U, float(times[n - 1]), float(times[n]),
                           disc.phase.space, force, disc.bc)


def _window_failed(prefix: str, exc: Exception) -> SolverError:
    """A SolverError for a failed window, to be raised from exc."""
    return SolverError(f"{prefix} failed: {type(exc).__name__}: {exc}")


def _window_chain(start, n_g: int, step) -> list:
    """[start, step(1, start), step(2, ...), ...]: windows 1..n_g in turn.

    A SolverError in window n is raised again as a SolverError naming the
    window, chained from the cause.
    """
    chain = [start]
    for n in range(1, n_g + 1):
        try:
            chain.append(step(n, chain[-1]))
        except SolverError as exc:
            raise _window_failed(f"window {n}", exc) from exc
    return chain


def initial_coarse_sweep(U0: MomentField, disc: Discretization,
                         force: np.ndarray | None) -> ParTrajectory:
    """Iteration 0: one serial coarse pass over all windows under `force`,
    a window chain (_window_chain)."""
    snapshots = _window_chain(U0.copy(), disc.time.n_g,
                              partial(_coarse_window, disc=disc, force=force))
    jumps = [_zero_like(U0) for _ in range(disc.time.n_g)]
    return ParTrajectory(snapshots, snapshots[1:], jumps)


def _window_state(disc: Discretization) -> np.ndarray:
    """An uninitialised distribution, the lift target every window reuses."""
    return np.empty((disc.phase.space.n_x,) + disc.phase.velocity.n_v)


def _kinetic_window(n: int, U: MomentField, disc: Discretization,
                    kinetic: KineticParams, state: np.ndarray):
    """Lift U into state, solve window n on it and project, with the
    (lift, kinetic, project) stage timings."""
    times = disc.time.coarse_times
    tic = time.perf_counter()
    f = lift(U, disc.phase, normalize_mass=False, out=state)
    t_lift = time.perf_counter() - tic
    tic = time.perf_counter()
    f = propagate_kinetic(f, float(times[n - 1]), float(times[n]), disc.phase,
                          kinetic, disc.bc, dt_max=disc.time.dt_f)
    t_kin = time.perf_counter() - tic
    tic = time.perf_counter()
    fine = project(f, disc.phase)
    t_proj = time.perf_counter() - tic
    return fine, (t_lift, t_kin, t_proj)


# Per-process context for pool workers, installed by the pool initializer so
# each submitted task only ships the small moment payload; the worker's window
# state comes with it and serves every window the worker runs.
_WORKER_CTX = None


def _init_worker(disc, kinetic):
    global _WORKER_CTX
    _WORKER_CTX = (disc, kinetic, _window_state(disc))


def _kinetic_window_remote(n: int, U: MomentField):
    return _kinetic_window(n, U, *_WORKER_CTX)


def make_executor(workers: int, disc: Discretization, kinetic: KineticParams,
                  force: np.ndarray | None) -> Executor:
    """Process pool of `workers` processes that carry the kinetic problem
    context.

    A forked pool starts all its processes at the first task, and each holds
    a state, so run_parareal asks for no more processes than windows. The
    workers run no coarse solve and apply `kinetic.force`, so `force` is
    unused; it stays for callers that pass it positionally.
    """
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        ctx = multiprocessing.get_context()
    return ProcessPoolExecutor(max_workers=workers,
                               mp_context=ctx, initializer=_init_worker,
                               initargs=(disc, kinetic))


def compute_jumps(traj: ParTrajectory, k: int, disc: Discretization,
                  kinetic: KineticParams, force: np.ndarray | None,
                  executor: Executor | None = None,
                  timing: dict | None = None) -> None:
    """Set the jump slots of windows k..n_g from the previous iterate.

    Each window's fine solve (lift, kinetic window, project) runs in turn
    here, on one window state, or as an independent task on the executor
    when one is given. Its jump is the fine result minus the coarse solve
    the previous sweep stored for that window, taken in window order either
    way, so the outcome does not depend on scheduling. `timing` collects the
    per-stage maxima under t_lift, t_kin and t_proj as the results arrive.
    The fine solves apply `kinetic.force`, so `force` is unused; it stays
    for callers that pass it positionally. The first failing window,
    whatever it raised (a SolverError or a dead worker's broken pool
    included), surfaces as a SolverError naming the iteration and the
    window, chained from the cause, and the windows still queued on the
    pool are cancelled.
    """
    windows = range(k, disc.time.n_g + 1)
    starts = traj.snapshots[k - 1:-1]
    timing = {} if timing is None else timing
    n = k  # the window whose result is awaited
    try:
        if executor is None:
            results = map(partial(_kinetic_window, disc=disc, kinetic=kinetic,
                                  state=_window_state(disc)),
                          windows, starts)
        else:
            results = executor.map(_kinetic_window_remote, windows, starts)
        for fine, stages in results:
            traj.jumps[n - 1] = fine - traj.coarse[n - 1]
            for key, value in zip(("t_lift", "t_kin", "t_proj"), stages):
                timing[key] = max(timing.get(key, 0.0), value)
            n += 1
    except Exception as exc:
        raise _window_failed(f"iteration {k} at window {n}", exc) from exc


def sequential_correction(traj: ParTrajectory, k: int, disc: Discretization,
                          force: np.ndarray | None) -> float:
    """Coarse sweep under `force` plus stored jumps from window k on; returns
    the error.

    Each window's coarse solve is kept in traj.coarse for the next
    iteration's jumps. The error is the largest absolute componentwise
    change over all windows. A correction that leaves the physical regime, a
    density or temperature that is not a finite positive number or a
    velocity that is not finite, aborts the run with the window and the
    first such cell: the jump data cannot be trusted past that point. A
    SolverError in a coarse window is raised again as a SolverError naming
    the iteration and the window, chained from the cause.
    """
    old = traj.snapshots
    new = list(old)
    coarse = list(traj.coarse)
    error = 0.0
    for n in range(k, disc.time.n_g + 1):
        try:
            coarse[n - 1] = _coarse_window(n, new[n - 1], disc, force)
        except SolverError as exc:
            raise _window_failed(f"iteration {k} correction at window {n}", exc) from exc
        corrected = coarse[n - 1] + traj.jumps[n - 1]
        try:
            corrected.require_physical("corrected")
        except DegenerateStateError as exc:
            raise CorrectionOvershootError(
                f"iteration {k} correction at window {n} left the physical "
                f"regime: {exc}", slice_index=n) from exc
        error = max(error, corrected.sup_distance(old[n]))
        new[n] = corrected
    traj.snapshots, traj.coarse = new, coarse
    return error


def run_parareal(U0: MomentField, config: PararealConfig, disc: Discretization,
                 kinetic: KineticParams, timing: dict | None = None):
    """Full outer iteration; returns the trajectory and convergence records.

    The coarse sweeps apply `kinetic.force`, the field of the fine solves.
    The fine solves run on a pool of n_p = min(workers, n_g) processes when
    n_p > 1, and in this process otherwise; the pool is shut down, waiting
    for its processes, however the iteration ends.
    """
    force = kinetic.force
    traj = initial_coarse_sweep(U0, disc, force)
    records: list[ConvergenceRecord] = []
    n_p = min(config.workers, disc.time.n_g)
    pool = (make_executor(n_p, disc, kinetic, force)
            if n_p > 1 else contextlib.nullcontext())
    with pool as executor:
        for k in range(1, config.k_max + 1):
            tic = time.perf_counter()
            compute_jumps(traj, k, disc, kinetic, force, executor=executor,
                          timing=timing)
            error = sequential_correction(traj, k, disc, force)
            records.append(ConvergenceRecord(k, error, time.perf_counter() - tic))
            if error < config.tol:
                break
    return traj, records


def fine_moment_chain(U0: MomentField, disc: Discretization,
                      kinetic: KineticParams) -> list[MomentField]:
    """Window-wise fine reference: lift, solve, project for each window in turn,
    all on one window state.

    This is the trajectory the outer iteration reproduces exactly once k
    reaches the window count. It is a window chain (_window_chain). A start
    state whose cell count is not the grid's raises ConfigurationError,
    naming both counts, before window 1.
    """
    if U0.n_x != disc.phase.space.n_x:
        raise ConfigurationError(f"fine chain's start state has {U0.n_x} cells "
                                 f"for a grid of {disc.phase.space.n_x}")
    state = _window_state(disc)
    return _window_chain(U0.copy(), disc.time.n_g,
                         lambda n, U: _kinetic_window(n, U, disc, kinetic, state)[0])


def _window_cost(t_kin: float, t_fluid: float, t_lift: float, t_proj: float,
                 n_p: int) -> float:
    """Modeled wall time of one window per iteration: its share of the
    parallel stage on n_p workers plus its serial coarse correction.

    The parallel share charges a coarse solve that the pool does not run
    (each jump takes the solve its window's last sweep stored), so the model
    overstates the cost by t_fluid / n_p per window."""
    return (t_lift + t_proj + t_kin + t_fluid) / n_p + t_fluid


def _check_costs(t_kin, t_fluid, t_lift, t_proj, n_g, n_p) -> None:
    """A ConfigurationError naming the first cost-model input out of range:
    t_kin must be a finite number > 0, t_fluid, t_lift and t_proj finite
    numbers >= 0, and n_g and n_p integers >= 1."""
    if not 0.0 < _real("t_kin", t_kin) < math.inf:
        raise ConfigurationError(f"need a finite t_kin > 0, got {t_kin}")
    for name, t in (("t_fluid", t_fluid), ("t_lift", t_lift), ("t_proj", t_proj)):
        if not 0.0 <= _real(name, t) < math.inf:
            raise ConfigurationError(f"need a finite {name} >= 0, got {t}")
    for name, n in (("n_g", n_g), ("n_p", n_p)):
        if _count(name, n) < 1:
            raise ConfigurationError(f"need {name} >= 1, got {n}")


def parareal_cost(k: int, t_kin: float, t_fluid: float, t_lift: float,
                  t_proj: float, n_g: int, n_p: int) -> float:
    """Modeled wall time of k corrected iterations on n_p workers.

    Every iteration is charged all n_g windows, although iteration j solves
    only the n_g - j + 1 windows it can still change: 414 windows rather
    than 450 for n_g = 50 and k = 9. Each window is also charged a coarse
    solve in the parallel stage that the pool does not run (_window_cost).
    The model overstates the cost, so estimate_k_opt's break-even count is a
    conservative, low estimate. Inputs out of range raise a
    ConfigurationError naming the value (_check_costs).
    """
    _check_costs(t_kin, t_fluid, t_lift, t_proj, n_g, n_p)
    return t_fluid + n_g * k * _window_cost(t_kin, t_fluid, t_lift, t_proj, n_p)


def estimate_k_opt(t_kin: float, t_fluid: float, t_lift: float, t_proj: float,
                   n_g: int, n_p: int) -> int:
    """Largest useful iteration count before the outer loop stops paying off.

    Ceiling of the break-even point of parareal_cost against the serial fine
    cost n_g * t_kin, clamped to at least one iteration. Inputs out of range
    raise a ConfigurationError naming the value (_check_costs).
    """
    _check_costs(t_kin, t_fluid, t_lift, t_proj, n_g, n_p)
    ratio = ((n_g * t_kin - t_fluid)
             / (n_g * _window_cost(t_kin, t_fluid, t_lift, t_proj, n_p)))
    return max(1, math.ceil(ratio))
