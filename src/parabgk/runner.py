"""Mode drivers shared by the command line and the tests.

Each mode produces moment snapshots at the coarse times so outputs stay
directly comparable: `fluid` is the coarse sweep alone, `fine` integrates the
kinetic equation straight through, `parareal` runs the corrected iteration.
"""

from __future__ import annotations

import time
from pathlib import Path

from .cases import initial_distribution
from .config import RunConfig, build_discretization, build_params
from .grid import Discretization
from .fluid import FluidParams
from .io import TimingReport, write_convergence, write_snapshots, write_timing
from .kinetic import KineticParams, propagate_kinetic
from .moments import MomentField, project
from .parareal import (PararealConfig, estimate_k_opt, initial_coarse_sweep,
                       run_parareal)

__all__ = ["prepare", "run_fluid_mode", "run_fine_mode", "run_parareal_mode",
           "run_mode", "run_comparison"]


def prepare(cfg: RunConfig):
    """Build discretization, solver parameters and the initial moments."""
    disc = build_discretization(cfg)
    kinetic, fluid = build_params(cfg, disc)
    U0 = project(initial_distribution(cfg.case, disc.phase), disc.phase)
    return disc, kinetic, fluid, U0


def run_fluid_mode(disc: Discretization, fluid: FluidParams,
                   U0: MomentField) -> list[MomentField]:
    return initial_coarse_sweep(U0, disc, fluid).snapshots


def run_fine_mode(cfg: RunConfig, disc: Discretization, kinetic: KineticParams) -> list[MomentField]:
    """Serial kinetic reference: one distribution marched across all windows."""
    f = initial_distribution(cfg.case, disc.phase)
    times = disc.time.coarse_times
    snapshots = [project(f, disc.phase)]
    for n in range(1, disc.time.n_g + 1):
        f = propagate_kinetic(f, float(times[n - 1]), float(times[n]), disc.phase,
                              kinetic, disc.bc, dt_max=disc.time.dt_f)
        snapshots.append(project(f, disc.phase))
    return snapshots


def run_parareal_mode(cfg: RunConfig, disc: Discretization, kinetic: KineticParams,
                      fluid: FluidParams, U0: MomentField, timing: dict | None = None):
    par_cfg = PararealConfig(k_max=cfg.k_max, tol=cfg.tol, workers=cfg.workers)
    return run_parareal(U0, par_cfg, disc, kinetic, fluid, timing=timing)


def run_mode(cfg: RunConfig, out_dir: str | Path | None = None) -> Path:
    """Run cfg.mode and write its artifacts; returns the output directory."""
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    disc, kinetic, fluid, U0 = prepare(cfg)
    if cfg.mode == "fluid":
        snapshots = run_fluid_mode(disc, fluid, U0)
    elif cfg.mode == "fine":
        snapshots = run_fine_mode(cfg, disc, kinetic)
    else:
        traj, records = run_parareal_mode(cfg, disc, kinetic, fluid, U0)
        snapshots = traj.snapshots
        write_convergence(records, out)
    write_snapshots(snapshots, disc.phase.space, out)
    return out


def run_comparison(cfg: RunConfig, out_dir: str | Path | None = None) -> TimingReport:
    """Run all three modes, write artifacts per mode, report costs and speedup."""
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    disc, kinetic, fluid, U0 = prepare(cfg)
    space = disc.phase.space

    tic = time.perf_counter()
    fluid_snapshots = run_fluid_mode(disc, fluid, U0)
    fluid_seconds = time.perf_counter() - tic
    write_snapshots(fluid_snapshots, space, out / "fluid")

    tic = time.perf_counter()
    fine_snapshots = run_fine_mode(cfg, disc, kinetic)
    fine_seconds = time.perf_counter() - tic
    write_snapshots(fine_snapshots, space, out / "fine")

    stage_timing: dict[str, float] = {}
    tic = time.perf_counter()
    traj, records = run_parareal_mode(cfg, disc, kinetic, fluid, U0,
                                      timing=stage_timing)
    parareal_seconds = time.perf_counter() - tic
    write_snapshots(traj.snapshots, space, out / "parareal")
    write_convergence(records, out / "parareal")

    report = TimingReport(
        iterations=[rec.seconds for rec in records],
        **stage_timing,
        fine_seconds=fine_seconds,
        fluid_seconds=fluid_seconds,
        parareal_seconds=parareal_seconds,
        speedup=fine_seconds / parareal_seconds,
        k_opt=estimate_k_opt(**stage_timing, n_g=disc.time.n_g, n_p=cfg.workers),
    )
    write_timing(report, out)
    return report
