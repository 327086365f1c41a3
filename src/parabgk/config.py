"""Plain-text run configuration: one key=value per line, '#' comments.

A config either names a preset (whose defaults individual keys may override)
or spells out the full discretization explicitly together with a case name
for the initial data.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

from .cases import CASES, force_field
from .errors import ConfigurationError
from .grid import (BoundaryKind, Discretization, PhaseGrid, _count, _real,
                   build_spatial_grid, build_time_grids, build_velocity_grid)
from .kinetic import KineticParams
from .parareal import PararealConfig

__all__ = ["RunConfig", "PRESETS", "parse_config", "build_discretization",
           "build_params"]

MODES = ("parareal", "fine", "fluid")


@dataclass(frozen=True)
class RunConfig:
    """A run's settings, checked whenever one is made or replaced.

    Frozen, so dataclasses.replace, which checks again, is the one way to
    change a setting. KineticParams checks epsilon and PararealConfig the
    iteration controls; the relaxation rate guard needs t_final and n_f to
    be numbers; out_dir must be a str or an os.PathLike; the grid builders
    check the remaining count, bound and spacing constraints.
    """

    case: str
    x_min: float
    x_max: float
    n_x: int
    v_max: float
    n_vx: int
    n_vy: int
    n_vz: int
    epsilon: float
    bc: str
    t_final: float
    n_g: int
    n_f: int
    k_max: int
    tol: float
    workers: int = 1
    mode: str = "parareal"
    out_dir: str = "out"

    def __post_init__(self):
        if not isinstance(self.case, str) or self.case not in CASES:
            raise ConfigurationError(f"unknown case {self.case!r}")
        if self.bc not in (kind.value for kind in BoundaryKind):
            raise ConfigurationError(f"unknown bc '{self.bc}'")
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown mode '{self.mode}', expected one of {MODES}")
        if not isinstance(self.out_dir, (str, os.PathLike)):
            raise ConfigurationError(f"need a path out_dir, got {self.out_dir!r}")
        KineticParams(self.epsilon)
        # No kinetic step is longer than t_final / n_f, so a finite rate there
        # bounds every step's dt / epsilon; a t_final or n_f that is a number
        # but not a valid time or count is left to the grid builders to report.
        t_final, n_f = _real("t_final", self.t_final), _count("n_f", self.n_f)
        if math.isfinite(t_final) and t_final > 0 and n_f >= 1:
            rate = t_final / n_f / self.epsilon
            if not math.isfinite(rate):
                raise ConfigurationError(
                    f"need a finite relaxation rate t_final/n_f/epsilon, got {rate} "
                    f"with epsilon = {self.epsilon}")
        PararealConfig(self.k_max, self.tol, self.workers)


# Each case at publication scale; a config's `preset = name` starts from these.
PRESETS = {
    "sod": RunConfig("sod", 0.0, 2.0, 200, 8.0, 32, 32, 32, 1e-2, "absorbing",
                     0.5, 200, 800, 80, 1e-8),
    "blast": RunConfig("blast", 0.0, 2.0, 200, 8.0, 32, 32, 32, 1e-2, "absorbing",
                       0.5, 200, 800, 10, 1e-8),
    "beams": RunConfig("beams", 0.0, 2.0, 100, 8.0, 256, 16, 16, 1e-5, "periodic",
                       0.5, 200, 800, 80, 1e-8),
}

# Each key parses with its field's type: float, int, or else the raw string;
# `preset`, the name of the PRESETS entry a config starts from, is a string.
_CASTS = {"preset": str} | {name: hint if hint in (float, int) else str
                            for name, hint in get_type_hints(RunConfig).items()}

# Keys a presetless config must spell out; everything else has defaults.
_REQUIRED = tuple(f.name for f in fields(RunConfig) if f.default is MISSING)


def _read_pairs(path: Path) -> dict[str, object]:
    pairs: dict[str, object] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CASTS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key '{key}'")
        if key in first_line:
            raise ConfigurationError(
                f"{path}:{lineno}: key '{key}' already set on line {first_line[key]}")
        first_line[key] = lineno
        try:
            pairs[key] = _CASTS[key](value)
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: bad value for '{key}': {exc}")
    return pairs


def parse_config(path: str | Path) -> RunConfig:
    """Read a run configuration file; the RunConfig it makes checks itself."""
    path = Path(path)
    pairs = _read_pairs(path)
    preset = pairs.pop("preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigurationError(
                f"unknown preset '{preset}', expected one of {sorted(PRESETS)}")
        return replace(PRESETS[preset], **pairs)
    missing = [key for key in _REQUIRED if key not in pairs]
    if missing:
        raise ConfigurationError(
            f"{path}: no preset given and required keys missing: {missing}")
    return RunConfig(**pairs)


def build_discretization(cfg: RunConfig) -> Discretization:
    phase = PhaseGrid(build_spatial_grid(cfg.x_min, cfg.x_max, cfg.n_x),
                      build_velocity_grid(cfg.v_max, (cfg.n_vx, cfg.n_vy, cfg.n_vz)))
    time = build_time_grids(cfg.t_final, cfg.n_g, cfg.n_f)
    return Discretization(phase, time, BoundaryKind(cfg.bc))


def build_params(cfg: RunConfig, disc: Discretization) -> KineticParams:
    """The case's physics; its `force` is the field both propagators apply."""
    return KineticParams(epsilon=cfg.epsilon,
                         force=force_field(cfg.case, disc.phase.space))
