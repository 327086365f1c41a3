"""Mode drivers shared by the command line and the tests.

Each mode produces moment snapshots at the coarse times so outputs stay
directly comparable: `fluid` is the coarse sweep alone, `fine` integrates the
kinetic equation straight through, `parareal` runs the corrected iteration.
`fluid` and `fine` step through parareal's one window chain, so a failing
window is named the same way in both.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path

from .cases import initial_distribution, initial_moments
from .config import RunConfig, build_discretization, build_params
from .grid import Discretization, SpatialGrid
from .io import TimingReport, write_convergence, write_snapshots, write_timing
from .kinetic import KineticParams, propagate_kinetic
from .moments import MomentField, project
from .parareal import (ConvergenceRecord, PararealConfig, _window_chain,
                       estimate_k_opt, initial_coarse_sweep, run_parareal)

__all__ = ["prepare", "run_fine_mode", "solve", "write_artifacts", "run_mode",
           "run_comparison"]


def prepare(cfg: RunConfig):
    """Build the discretization, the solver parameters, the case's field and
    the initial moments.

    The field is `kinetic.force` itself, the one array the coarse and the
    fine propagators apply; it is returned on its own for callers that hand
    it to the sweeps. The moments come from the case's Maxwellian marginals
    (cases.initial_moments), so set-up builds no distribution, and neither
    does the main process of the fluid and parareal modes.
    """
    disc = build_discretization(cfg)
    kinetic = build_params(cfg, disc)
    return disc, kinetic, kinetic.force, initial_moments(cfg.case, disc.phase)


def run_fine_mode(cfg: RunConfig, disc: Discretization, kinetic: KineticParams) -> list[MomentField]:
    """Serial kinetic reference: one distribution marched across all windows.

    The initial distribution, built here and nowhere else in the mode, is
    the state every window advances in place; the snapshots are its
    projections, a window chain (parareal._window_chain).
    """
    f = initial_distribution(cfg.case, disc.phase)
    times = disc.time.coarse_times

    def step(n: int, _: MomentField) -> MomentField:
        nonlocal f
        f = propagate_kinetic(f, float(times[n - 1]), float(times[n]), disc.phase,
                              kinetic, disc.bc, dt_max=disc.time.dt_f)
        return project(f, disc.phase)

    return _window_chain(project(f, disc.phase), disc.time.n_g, step)


def solve(cfg: RunConfig, disc: Discretization, kinetic: KineticParams,
          U0: MomentField, timing: dict | None = None
          ) -> tuple[list[MomentField], list[ConvergenceRecord] | None]:
    """Snapshots of cfg.mode and, for parareal, its convergence records.

    Every mode applies the field `kinetic.force`. `timing` collects
    parareal's per-stage maxima; the other modes ignore it.
    """
    if cfg.mode == "fluid":
        return initial_coarse_sweep(U0, disc, kinetic.force).snapshots, None
    if cfg.mode == "fine":
        return run_fine_mode(cfg, disc, kinetic), None
    par_cfg = PararealConfig(k_max=cfg.k_max, tol=cfg.tol, workers=cfg.workers)
    traj, records = run_parareal(U0, par_cfg, disc, kinetic, timing=timing)
    return traj.snapshots, records


def write_artifacts(snapshots: list[MomentField], records: list[ConvergenceRecord] | None,
                    space: SpatialGrid, out: Path) -> None:
    """One mode's snapshot files and, when it has records, its convergence log."""
    write_snapshots(snapshots, space, out)
    if records is not None:
        write_convergence(records, out)


def _output_dir(cfg: RunConfig, out_dir: str | Path | None) -> Path:
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def run_mode(cfg: RunConfig, out_dir: str | Path | None = None) -> Path:
    """Run cfg.mode and write its artifacts; returns the output directory.

    The directory is made after the set-up, whose grid builders check what
    RunConfig itself does not, and before the solve, so an unusable one
    fails at once and a bad config leaves none.
    """
    disc, kinetic, _, U0 = prepare(cfg)
    out = _output_dir(cfg, out_dir)
    snapshots, records = solve(cfg, disc, kinetic, U0)
    write_artifacts(snapshots, records, disc.phase.space, out)
    return out


def run_comparison(cfg: RunConfig, out_dir: str | Path | None = None) -> TimingReport:
    """Run all three modes, write artifacts per mode, report costs and speedup.

    The output directory is made as run_mode makes it.
    """
    disc, kinetic, _, U0 = prepare(cfg)
    out = _output_dir(cfg, out_dir)
    seconds: dict[str, float] = {}
    stage_timing: dict[str, float] = {}
    for mode in ("fluid", "fine", "parareal"):
        tic = time.perf_counter()
        snapshots, records = solve(replace(cfg, mode=mode), disc, kinetic, U0,
                                   timing=stage_timing)
        seconds[mode] = time.perf_counter() - tic
        write_artifacts(snapshots, records, disc.phase.space, out / mode)
    # the pool runs no coarse solve: charge the fluid mode's mean window
    stage_timing["t_fluid"] = seconds["fluid"] / disc.time.n_g

    # records are parareal's, the last mode solved
    report = TimingReport(
        iterations=[rec.seconds for rec in records],
        **stage_timing,
        fine_seconds=seconds["fine"],
        fluid_seconds=seconds["fluid"],
        parareal_seconds=seconds["parareal"],
        speedup=seconds["fine"] / seconds["parareal"],
        k_opt=estimate_k_opt(**stage_timing, n_g=disc.time.n_g, n_p=cfg.workers),
    )
    write_timing(report, out)
    return report
