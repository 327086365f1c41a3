"""The benchmark's hold on the solver: the names and call shapes it uses.

perfbench/ is the measuring harness and is not edited with the solver; its
traced pass (--trace 1) patches solver globals and calls compute_jumps
directly, so a rename on the solver side must fail here rather than in a
benchmark run.
"""

import importlib
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from parabgk import (BoundaryKind, Discretization, KineticParams, MomentField,
                     PhaseGrid, RunConfig, build_spatial_grid, build_time_grids,
                     build_velocity_grid, external_force, initial_coarse_sweep,
                     kinetic, lift, runner, sequential_correction,
                     stable_dt_kinetic)
from parabgk.parareal import compute_jumps

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(PERFBENCH))
    try:
        bench = importlib.import_module("bench")  # fails on any missing import
        yield bench, importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_traced_globals_exist_and_are_callable(harness):
    _, tracer = harness
    for module, attr, _ in tracer.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_compute_jumps_as_the_traced_pass_calls_it(harness):
    # the pass unpacks prepare's four values and hands the third to the sweeps
    # and to compute_jumps positionally
    _, tracer = harness
    cfg = RunConfig("sod", 0.0, 2.0, 8, 8.0, 6, 6, 6, 1e-2, "absorbing",
                    0.05, 2, 4, 2, 1e-8)
    disc, kinetic_params, force, U0 = runner.prepare(cfg)
    traj = initial_coarse_sweep(U0, disc, force)
    timing: dict[str, float] = {}
    recorder = tracer.Tracer()
    with recorder.patched():
        compute_jumps(traj, 1, disc, kinetic_params, force,
                      executor=None, timing=timing)
    assert sorted(timing) == ["t_kin", "t_lift", "t_proj"]
    assert len(traj.jumps) == disc.time.n_g
    assert all(isinstance(jump, MomentField) for jump in traj.jumps)
    # the window task reaches its layers through the patched module globals:
    # one lift, kinetic window and projection per solved window, the span
    # counts the traced pass checks against windows_solved; the relaxation's
    # Maxwellian is the normalized lift, whose span the pass takes a median of
    names = {span[0] for span in recorder.spans}
    assert {"lifting.lift", "lifting.lift_norm", "kinetic.window", "moments.project",
            "kinetic.transport", "kinetic.relax"} <= names
    # the task runs no coarse solve: the pass's fluid.window spans are the
    # sweeps', one per window each sweep moves
    assert "fluid.window" not in names
    sweeps = tracer.Tracer()
    with sweeps.patched():
        sequential_correction(initial_coarse_sweep(U0, disc, force), 1, disc, force)
    assert [span[0] for span in sweeps.spans] == ["fluid.window"] * (2 * disc.time.n_g)
    for k in (1, 2):
        recorder = tracer.Tracer()
        with recorder.patched():
            compute_jumps(traj, k, disc, kinetic_params, force)
        top = Counter(name for name, _, _, parent in recorder.spans if parent is None)
        solved = disc.time.n_g - k + 1
        assert [top[name] for name in ("kinetic.window", "lifting.lift",
                                       "moments.project")] == [solved] * 3


@pytest.mark.parametrize("with_field", [False, True])
def test_one_transport_and_one_relax_span_per_step(harness, with_field):
    # the traced pass counts kinetic.steps as transport spans, so a step must
    # reach each kernel through its traced global exactly once
    _, tracer = harness
    phase = PhaseGrid(build_spatial_grid(0.0, 2.0, 6),
                      build_velocity_grid(8.0, (8, 4, 4)))
    force = external_force(phase.space.centers) if with_field else None
    params = KineticParams(epsilon=1e-2, force=force)
    f0 = lift(MomentField(np.ones(6), np.zeros((6, 3)), np.full(6, 0.9)), phase)
    steps = 4  # three full steps and a partial one
    recorder = tracer.Tracer()
    with recorder.patched():
        kinetic.propagate_kinetic(f0, 0.0, 3.5 * stable_dt_kinetic(phase, params),
                                  phase, params, BoundaryKind.PERIODIC)
    counts = Counter(span[0] for span in recorder.spans)
    assert counts["kinetic.transport"] == steps
    assert counts["kinetic.relax"] == steps


def test_alloc_peaks_as_the_traced_pass_calls_them(harness):
    # lift, transport_update and bgk_relax without buffers, with a field
    bench, _ = harness
    phase = PhaseGrid(build_spatial_grid(0.0, 2.0, 6),
                      build_velocity_grid(8.0, (8, 4, 4)))
    disc = Discretization(phase, build_time_grids(0.05, 2, 4), BoundaryKind.PERIODIC)
    U0 = MomentField(np.ones(6), np.zeros((6, 3)), np.full(6, 0.9))
    kinetic = KineticParams(epsilon=1e-2, force=external_force(phase.space.centers))
    peaks = bench.alloc_peaks_mb(U0, disc, kinetic)
    assert len(peaks) == 2
    assert all(np.isfinite(peak) and peak > 0.0 for peak in peaks)


@pytest.mark.parametrize("bc", [BoundaryKind.PERIODIC, BoundaryKind.ABSORBING])
def test_alloc_probe_counts_what_a_window_relaxation_allocates(harness, monkeypatch, bc):
    # the probe's relax figure is the tracemalloc peak of a bgk_relax call
    # inside one propagate_kinetic step, to within one x row
    bench, _ = harness
    phase = PhaseGrid(build_spatial_grid(0.0, 2.0, 20),
                      build_velocity_grid(8.0, (16, 8, 8)))
    disc = Discretization(phase, build_time_grids(0.05, 2, 4), bc)
    x = phase.space.centers
    U0 = MomentField(1.0 + 0.3 * np.sin(np.pi * x), np.zeros((20, 3)), np.full(20, 0.9))
    params = KineticParams(epsilon=1e-2, force=external_force(x))
    dt = min(stable_dt_kinetic(phase, params), disc.time.dt_f)
    relax, peaks = kinetic.bgk_relax, []

    def traced_relax(*args, **kwargs):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = relax(*args, **kwargs)
        peaks.append((tracemalloc.get_traced_memory()[1] - base) / 1e6)
        return out

    f = lift(U0, phase)
    monkeypatch.setattr(kinetic, "bgk_relax", traced_relax)
    tracemalloc.start()
    try:
        kinetic.propagate_kinetic(f, 0.0, dt, phase, params, bc)
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert len(peaks) == 1
    probe = bench.alloc_peaks_mb(U0, disc, params)[1]
    assert abs(probe - peaks[0]) <= f[0].nbytes / 1e6


@pytest.mark.parametrize("mode", ["fluid", "fine", "parareal"])
def test_read_run_reads_back_what_run_mode_writes(harness, tmp_path, monkeypatch, mode):
    # the benchmark checks and compares every mode's snapshots through
    # read_run, which reads them by column name
    bench, _ = harness
    written = []
    write = runner.write_artifacts
    monkeypatch.setattr(runner, "write_artifacts",
                        lambda snapshots, *rest: written.append(snapshots) or
                        write(snapshots, *rest))
    cfg = RunConfig("sod", 0.0, 2.0, 8, 8.0, 6, 6, 6, 1e-2, "absorbing",
                    0.05, 2, 4, 2, 1e-8, mode=mode, workers=1)
    out = runner.run_mode(cfg, tmp_path / mode)
    snaps, blob = bench.read_run(out)
    [expected] = written
    assert len(snaps) == len(expected) == cfg.n_g + 1
    for got, want in zip(snaps, expected):
        for part in ("rho", "u", "theta"):
            assert np.array_equal(getattr(got, part), getattr(want, part)), part
    assert blob == b"".join(path.read_bytes() for path in sorted(out.glob("snap_*.csv")))
