"""Measure one workload of the parabgk benchmark in this process.

Started by run.py, which pins the BLAS threads before numpy is imported.
--trace 0 times what a user runs (set-up, the fine and parareal modes) and
prints the end-to-end metrics; --trace 1 makes the traced pass and prints
the per-layer metrics. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import shutil
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import parabgk  # noqa: E402
from parabgk import (ConvergenceRecord, MomentField, SolverError, bgk_relax,  # noqa: E402
                     compute_jumps, fine_moment_chain, initial_coarse_sweep, lift,
                     parse_config, read_convergence, read_snapshot, run_mode,
                     sequential_correction, stable_dt_kinetic, transport_update,
                     write_convergence, write_snapshots)
from parabgk import runner  # noqa: E402
from parabgk.parareal import make_executor  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import SETUP_REPS, SETUP_SECONDS, WORKERS, array_mb, config_text, instance  # noqa: E402


class CheckFailed(Exception):
    """An output of the solver failed a correctness check."""


def require(ok, why: str) -> None:
    if not ok:
        raise CheckFailed(why)


class Gate:
    """Counts runs attempted and failed; a SolverError or failed check fails one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except (SolverError, CheckFailed) as exc:
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return None

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        print(f"FAILED {label}: {why}", file=sys.stderr)


# --- outputs and checks -----------------------------------------------------

def read_run(out: Path):
    """Snapshots written by one run, plus their exact bytes."""
    paths = sorted(out.glob("snap_*.csv"))
    snaps = []
    for path in paths:
        col = read_snapshot(path)
        u = np.stack([col["ux"], col["uy"], col["uz"]], axis=1)
        snaps.append(MomentField(col["rho"], u, col["theta"]))
    return snaps, b"".join(path.read_bytes() for path in paths)


def check_physical(snaps, n_g: int, label: str) -> None:
    require(len(snaps) == n_g + 1, f"{label}: {len(snaps)} snapshots, expected {n_g + 1}")
    for n, U in enumerate(snaps):
        finite = all(np.all(np.isfinite(a)) for a in (U.rho, U.u, U.theta))
        require(finite and np.all(U.rho > 0) and np.all(U.theta > 0),
                f"{label}: snapshot {n} is not finite with rho > 0 and theta > 0")


def sup_gap(a, b) -> float:
    return max(x.sup_distance(y) for x, y in zip(a, b))


def windows_solved(iterations: int, n_g: int) -> int:
    """Fine windows solved by frozen-prefix parareal: iteration k solves n_g - k + 1."""
    return iterations * n_g - iterations * (iterations - 1) // 2


def timed_mode(cfg, mode: str, out: Path):
    shutil.rmtree(out, ignore_errors=True)
    tic = time.perf_counter()
    run_mode(replace(cfg, mode=mode), out)
    seconds = time.perf_counter() - tic
    snaps, blob = read_run(out)
    check_physical(snaps, cfg.n_g, mode)
    records = read_convergence(out / "convergence.csv") if mode == "parareal" else None
    if records is not None:
        converged = records[-1].error < cfg.tol
        require(converged or len(records) == cfg.k_max,
                f"parareal stopped at k={len(records)} without reaching tol")
    return seconds, snaps, blob, records


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its waited-for children."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


# --- host info --------------------------------------------------------------

def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def host_info(values: dict) -> dict:
    model = next((line.split(":", 1)[1].strip() for line in
                  _read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
                 platform.machine())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)).strip() for f in ("level", "type", "size"))
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pins": {key: os.environ.get(key) for key in
                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workers": WORKERS,
        "array_mb_computed": round(array_mb(values), 3),
    }


# --- end-to-end run (tracing off) -------------------------------------------

def set_up(cfg_path: Path):
    """Timed parse_config + prepare, repeated SETUP_REPS times and for at
    least SETUP_SECONDS, after one untimed warm-up."""
    cfg = parse_config(cfg_path)
    prepared = runner.prepare(cfg)
    times = []
    while len(times) < SETUP_REPS or sum(times) < SETUP_SECONDS:
        tic = time.perf_counter()
        cfg = parse_config(cfg_path)
        prepared = runner.prepare(cfg)
        times.append(time.perf_counter() - tic)
    return times, cfg, prepared


def reference_chain(cfg, prepared):
    disc, kinetic, _, U0 = prepared
    chain = fine_moment_chain(U0, disc, kinetic)
    check_physical(chain, cfg.n_g, "fine_moment_chain")
    return chain


def end_to_end(values: dict, seconds: float, work: Path, gate: Gate):
    cfg_path = work / "run.cfg"
    cfg_path.write_text(config_text(values))
    setup = gate.run("setup", set_up, cfg_path)
    if setup is None:
        return {}, {}, {}
    setup_times, cfg, prepared = setup
    chain = gate.run("fine_moment_chain", reference_chain, cfg, prepared)
    spent = {"fine": 0.0, "parareal": 0.0}
    last = {"fine": 0.0, "parareal": 0.0}
    runs = {"fine": [], "parareal": []}
    start = time.perf_counter()
    # The mode with fewer samples goes next, so both get about as many; time
    # the dearer mode cannot use goes to the cheaper one. A run that would end
    # past the deadline, judged by its previous duration, is not started.
    while True:
        elapsed = time.perf_counter() - start
        order = sorted(spent, key=lambda mode: (len(runs[mode]), spent[mode]))
        fits = [mode for mode in order
                if elapsed + last[mode] <= seconds or spent[mode] == 0.0]
        if not fits:
            break
        mode = fits[0]
        tic = time.perf_counter()
        result = gate.run(mode, timed_mode, cfg, mode, work / mode)
        last[mode] = time.perf_counter() - tic
        spent[mode] += last[mode]
        if result is not None:
            runs[mode].append(result)
    if chain is None or not runs["fine"] or not runs["parareal"]:
        return {}, {}, {}
    fine_outputs = {blob for _, _, blob, _ in runs["fine"]}
    par_outputs = {(len(records), sup_gap(snaps, chain), blob)
                   for _, snaps, blob, records in runs["parareal"]}
    if len(fine_outputs) > 1 or len(par_outputs) > 1:
        gate.fail("parareal", "iterations, gap_chain or snapshot bytes differ across runs")
    iterations, gap_chain, _ = next(iter(par_outputs))
    gap_fine = sup_gap(runs["parareal"][0][1], runs["fine"][0][1])
    fine_t = [r[0] for r in runs["fine"]]
    par_t = [r[0] for r in runs["parareal"]]
    fine_s, par_s = median(fine_t), median(par_t)
    cells = cfg.n_x * cfg.n_vx * cfg.n_vy * cfg.n_vz
    speedup = fine_s / par_s
    ceiling = WORKERS * cfg.n_g / windows_solved(iterations, cfg.n_g)
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "fine_s": (fine_s, "s"),
        "fine_cells_per_s": (cells * cfg.n_f / fine_s, "1/s"),
        "parareal_s": (par_s, "s"),
        "speedup": (speedup, "ratio"),
        "efficiency": (speedup / WORKERS, "ratio"),
        "ceiling_frac": (speedup / ceiling, "ratio"),
        "iterations": (iterations, "count"),
        "gap_chain": (gap_chain, "sup-norm"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "setup_s": _spread_note(setup_times),
        "fine_s": _spread_note(fine_t),
        "parareal_s": _spread_note(par_t),
        "ceiling_frac": f"ceiling n_p*n_g/windows_solved = {ceiling:.4f}",
        "gap_fine": "printed only: seed-dependent (grows with epsilon), so unbounded",
    }
    return metrics, notes, {"gap_fine": (gap_fine, "sup-norm")}


def _spread_note(samples) -> str:
    return (f"median of {len(samples)}, min {min(samples):.4f}, "
            f"max {max(samples):.4f}")


# --- traced run -------------------------------------------------------------

def traced_fine(cfg, tracer: Tracer, out: Path) -> int:
    shutil.rmtree(out, ignore_errors=True)
    with tracer.span("fine.run") as root:
        run_mode(replace(cfg, mode="fine"), out)
    return root


def same_jumps(a, b) -> bool:
    return all(np.array_equal(x.rho, y.rho) and np.array_equal(x.u, y.u)
               and np.array_equal(x.theta, y.theta) for x, y in zip(a, b))


def traced_parareal(cfg, tracer: Tracer, out: Path):
    """Parareal from its public layer calls, with a serial replay of each stage.

    Each iteration dispatches its windows to the pool as run_parareal does,
    then recomputes them with executor=None; the trajectory continues from
    the serial jumps, which must equal the pooled ones bit for bit.
    """
    shutil.rmtree(out, ignore_errors=True)
    timing: dict[str, float] = {}
    identical = True
    with tracer.span("parareal.run") as root:
        disc, kinetic, fluid, U0 = runner.prepare(cfg)
        with tracer.span("parareal.coarse_sweep"):
            traj = initial_coarse_sweep(U0, disc, fluid)
        with tracer.span("parareal.pool_start"):
            tracer.active = False  # forked workers must not record spans
            executor = make_executor(WORKERS, disc, kinetic, fluid)
            for fut in [executor.submit(os.getpid) for _ in range(WORKERS)]:
                fut.result()
            tracer.active = True
        records = []
        try:
            for k in range(1, cfg.k_max + 1):
                tic = time.perf_counter()
                with tracer.span("parareal.jumps"):
                    compute_jumps(traj, k, disc, kinetic, fluid, executor=executor,
                                  timing=timing)
                pooled = [j.copy() for j in traj.jumps]
                with tracer.span("parareal.jumps_serial"):
                    compute_jumps(traj, k, disc, kinetic, fluid)
                identical = identical and same_jumps(pooled, traj.jumps)
                with tracer.span("parareal.correction"):
                    error = sequential_correction(traj, k, disc, fluid)
                records.append(ConvergenceRecord(k, error, time.perf_counter() - tic))
                if error < cfg.tol:
                    break
        finally:
            with tracer.span("parareal.pool_stop"):
                executor.shutdown()
        with tracer.span("io.snapshots"):
            write_snapshots(traj.snapshots, disc.phase.space, out)
        with tracer.span("io.convergence"):
            write_convergence(records, out)
    return root, records, identical, timing, traj.snapshots[0], (disc, kinetic)


def alloc_peaks_mb(state, disc, kinetic):
    """tracemalloc peak of one transport_update and one bgk_relax call."""
    phase = disc.phase
    dt = min(stable_dt_kinetic(phase, kinetic), disc.time.dt_f)
    f = lift(state, phase)
    peaks = []
    tracemalloc.start()
    try:
        for step in (lambda g: transport_update(g, dt, phase, kinetic, disc.bc),
                     lambda g: bgk_relax(g, dt, phase, kinetic)):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            f = step(f)
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 1e6)
    finally:
        tracemalloc.stop()
    return peaks


def task_bytes(U) -> int:
    """Pickled arguments plus pickled result of one window task (computed)."""
    sent = pickle.dumps((1, U.rho, U.u, U.theta), pickle.HIGHEST_PROTOCOL)
    returned = pickle.dumps((1, U - U, (0.0,) * 4), pickle.HIGHEST_PROTOCOL)
    return len(sent) + len(returned)


def traced_run(values: dict, work: Path, gate: Gate, spans_path: Path):
    cfg_path = work / "run.cfg"
    cfg_path.write_text(config_text(values))
    cfg = parse_config(cfg_path)
    untraced = {mode: gate.run(mode, timed_mode, cfg, mode, work / mode)
                for mode in ("fine", "parareal")}
    tracer = Tracer()
    with tracer.patched():
        fine_root = gate.run("traced fine", traced_fine, cfg, tracer, work / "fine-traced")
        par = gate.run("traced parareal", traced_parareal, cfg, tracer,
                       work / "parareal-traced")
    tracer.dump(spans_path)
    if None in untraced.values() or fine_root is None or par is None:
        return {}, {}, {}
    par_root, records, identical, timing, U0, (disc, kinetic) = par

    n_g = cfg.n_g
    fine_spans = tracer.descendants(fine_root)
    par_spans = tracer.descendants(par_root)
    serial_inside = {j for i in par_spans if tracer.spans[i][0] == "parareal.jumps_serial"
                     for j in tracer.descendants(i)}
    windows = sum(1 for j in serial_inside if tracer.spans[j][0] == "kinetic.window")
    iterations = len(records)

    # Tracing and the serial replay must leave every output byte alone.
    traced_snaps, traced_blob = read_run(work / "parareal-traced")
    _, fine_blob = read_run(work / "fine-traced")
    checks = {
        "pooled and serial jumps differ": identical,
        "traced parareal snapshots differ from run_parareal's":
            traced_blob == untraced["parareal"][2],
        "traced convergence errors differ from run_parareal's":
            [r.error for r in records] == [r.error for r in untraced["parareal"][3]],
        "traced fine snapshots differ from the untraced fine run's":
            fine_blob == untraced["fine"][2],
        f"{windows} windows solved, expected {windows_solved(iterations, n_g)}":
            windows == windows_solved(iterations, n_g),
    }
    failed = [why for why, ok in checks.items() if not ok]
    if failed:
        gate.fail("traced parareal", "; ".join(failed))

    own = tracer.self_times()
    incl = tracer.by_name(fine_spans + par_spans)
    selfs = tracer.by_name(fine_spans + par_spans, use_self=True)
    par_incl = tracer.by_name(par_spans)
    fine_wall = tracer.duration(fine_root)
    jumps_serial = sum(par_incl["parareal.jumps_serial"])
    par_wall = tracer.duration(par_root) - jumps_serial
    jumps = sum(par_incl["parareal.jumps"])
    serial_part = sum(par_incl["parareal.coarse_sweep"]) + sum(par_incl["parareal.correction"])
    fine_untraced, par_untraced = untraced["fine"][0], untraced["parareal"][0]
    transport_mb, relax_mb = alloc_peaks_mb(U0, disc, kinetic)
    out_dir = work / "parareal-traced"
    metrics = {
        "kinetic.transport_s": (median(selfs["kinetic.transport"]), "s"),
        "kinetic.relax_s": (median(selfs["kinetic.relax"]), "s"),
        "kinetic.window_s": (median(incl["kinetic.window"]), "s"),
        "kinetic.transport_alloc_mb": (transport_mb, "MB"),
        "kinetic.relax_alloc_mb": (relax_mb, "MB"),
        "kinetic.steps": (sum(1 for i in fine_spans
                              if tracer.spans[i][0] == "kinetic.transport"), "count"),
        "lifting.lift_s": (median(selfs["lifting.lift"]), "s"),
        "lifting.lift_norm_s": (median(selfs["lifting.lift_norm"]), "s"),
        "moments.project_s": (median(selfs["moments.project"]), "s"),
        "fluid.window_s": (median(selfs["fluid.window"]), "s"),
        "parareal.coarse_sweep_s": (sum(par_incl["parareal.coarse_sweep"]), "s"),
        "parareal.correction_s": (sum(par_incl["parareal.correction"]), "s"),
        "parareal.serial_frac": (serial_part / par_wall, "ratio"),
        "parareal.pool_start_s": (sum(par_incl["parareal.pool_start"]), "s"),
        "parareal.jumps_s": (jumps, "s"),
        "parareal.jumps_serial_s": (jumps_serial, "s"),
        "parareal.stage_eff": (jumps_serial / (WORKERS * jumps), "ratio"),
        "parareal.dispatch_s": (jumps - jumps_serial / WORKERS, "s"),
        "parareal.window_max_s": (sum(timing.values()), "s"),
        "parareal.task_bytes": (task_bytes(U0), "bytes"),
        "parareal.windows_solved": (windows, "count"),
        "parareal.useful_frac": (n_g / windows, "ratio"),
        "parareal.gap_fine": (sup_gap(traced_snaps, untraced["fine"][1]), "sup-norm"),
        "io.snapshots_s": (median(selfs["io.snapshots"]), "s"),
        "io.bytes": (sum(p.stat().st_size for p in out_dir.iterdir()), "bytes"),
        "trace.overhead_s": ((fine_wall - fine_untraced) + (par_wall - par_untraced), "s"),
        "trace.unaccounted_fine": (own[fine_root] / fine_wall, "ratio"),
        "trace.unaccounted_parareal": (own[par_root] / par_wall, "ratio"),
    }
    notes = {
        "parareal.window_max_s": "sum of the per-stage maxima in compute_jumps' timing dict",
        "parareal.task_bytes": "computed: pickled arguments plus result of one task",
        "trace.overhead_s": (f"traced minus untraced wall: fine {fine_wall:.4f} vs "
                             f"{fine_untraced:.4f} s, parareal {par_wall:.4f} vs "
                             f"{par_untraced:.4f} s (serial replay excluded)"),
        "trace.unaccounted_fine": "share of the traced fine run outside every layer span",
        "trace.unaccounted_parareal": "share of the traced parareal run outside every layer span",
    }
    return metrics, notes, {}


# --- entry point ------------------------------------------------------------

def report(metrics: dict, notes: dict, extra: dict) -> None:
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<30} {value:<14.6g} {unit:<9} {notes.get(name, '')}".rstrip())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not Path(parabgk.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        print(f"error: parabgk imported from {parabgk.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    values = instance(args.workload, args.seed)
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(f"workload {args.workload} seed {args.seed}: epsilon={values['epsilon']!r} "
          f"x=[{values['x_min']!r}, {values['x_max']!r}]")
    print("host " + json.dumps(host_info(values)))
    gate = Gate()
    try:
        if args.trace:
            spans = work.parent / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, notes, extra = traced_run(values, work, gate, spans)
            print(f"  spans written to {spans.relative_to(ROOT)}")
        else:
            metrics, notes, extra = end_to_end(values, args.seconds, work, gate)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(metrics, notes, extra)
    print(f"  runs: {gate.failed} failed of {gate.attempted} attempted")
    print(json.dumps({
        "correct": gate.failed == 0 and bool(metrics),
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
