"""Workload definitions and the seeded instance draw.

Standard library only, so the launcher can import it before any process
has pinned its BLAS threads.
"""

from __future__ import annotations

import random

TOL = 1e-3
WORKERS = 2
SETUP_REPS = 9
SETUP_SECONDS = 1.0

# Why each workload exists is documented in README.md next to this file.
WORKLOADS = {
    "sod-converge": dict(case="sod", x_min=0.0, x_max=2.0, n_x=50, v_max=8.0,
                         n_vx=16, n_vy=16, n_vz=16, epsilon=1e-2, bc="absorbing",
                         t_final=0.25, n_g=50, n_f=200, k_max=12),
    "sod-preset": dict(case="sod", x_min=0.0, x_max=2.0, n_x=200, v_max=8.0,
                       n_vx=32, n_vy=32, n_vz=32, epsilon=1e-2, bc="absorbing",
                       t_final=0.01, n_g=4, n_f=16, k_max=2),
    "beams-stiff": dict(case="beams", x_min=0.0, x_max=2.0, n_x=100, v_max=8.0,
                        n_vx=256, n_vy=16, n_vz=16, epsilon=1e-5, bc="periodic",
                        t_final=0.01, n_g=4, n_f=16, k_max=4),
    "beams-small": dict(case="beams", x_min=0.0, x_max=2.0, n_x=50, v_max=8.0,
                        n_vx=128, n_vy=16, n_vz=16, epsilon=1e-5, bc="periodic",
                        t_final=0.01, n_g=4, n_f=16, k_max=4),
}


def instance(name: str, seed: int) -> dict:
    """Config values of one workload instance.

    Seed 0 is the nominal instance. Any other seed draws epsilon uniformly
    within +-20 % of nominal and shifts [x_min, x_max] by a uniform offset of
    at most half a cell, so grid sizes, step counts and work stay the same.
    """
    values = dict(WORKLOADS[name], tol=TOL, workers=WORKERS)
    if seed != 0:
        rng = random.Random(seed)
        values["epsilon"] *= 1.0 + rng.uniform(-0.2, 0.2)
        dx = (values["x_max"] - values["x_min"]) / values["n_x"]
        shift = rng.uniform(-0.5, 0.5) * dx
        values["x_min"] += shift
        values["x_max"] += shift
    return values


def config_text(values: dict) -> str:
    """key = value lines that parse back to exactly these values."""
    return "".join(f"{key} = {value!r}\n" if isinstance(value, float)
                   else f"{key} = {value}\n" for key, value in values.items())


def array_mb(values: dict) -> float:
    """Computed size of one float64 distribution array, in MB."""
    cells = values["n_x"] * values["n_vx"] * values["n_vy"] * values["n_vz"]
    return cells * 8 / 1e6
