"""Plain-text run configuration: one key=value per line, '#' comments.

A config either names a preset (whose defaults individual keys may override)
or spells out the full discretization explicitly together with a case name
for the initial data.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .cases import PRESETS, force_field
from .errors import ConfigurationError
from .fluid import FluidParams
from .grid import (BoundaryKind, Discretization, PhaseGrid, build_spatial_grid,
                   build_time_grids, build_velocity_grid)
from .kinetic import ConstantTau, KineticParams, constant_tau

__all__ = ["RunConfig", "parse_config", "build_discretization", "build_params"]

MODES = ("parareal", "fine", "fluid")


@dataclass
class RunConfig:
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
    tau: float = 1.0
    cfl_kinetic: float = 0.5
    cfl_fluid: float = 0.9
    workers: int = 1
    mode: str = "parareal"
    out_dir: str = "out"
    preset: str | None = None


_CASTS = {
    "preset": str, "case": str, "bc": str, "mode": str, "out_dir": str,
    "x_min": float, "x_max": float, "v_max": float, "epsilon": float,
    "t_final": float, "tol": float, "tau": float,
    "cfl_kinetic": float, "cfl_fluid": float,
    "n_x": int, "n_vx": int, "n_vy": int, "n_vz": int,
    "n_g": int, "n_f": int, "k_max": int, "workers": int,
}

# Keys a presetless config must spell out; everything else has defaults.
_REQUIRED = ("case", "x_min", "x_max", "n_x", "v_max", "n_vx", "n_vy", "n_vz",
             "epsilon", "bc", "t_final", "n_g", "n_f", "k_max", "tol")


def _read_pairs(path: Path) -> dict[str, object]:
    pairs: dict[str, object] = {}
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
        try:
            pairs[key] = _CASTS[key](value)
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: bad value for '{key}': {exc}")
    return pairs


def _preset_values(name: str) -> dict[str, object]:
    if name not in PRESETS:
        raise ConfigurationError(
            f"unknown preset '{name}', expected one of {sorted(PRESETS)}")
    p = PRESETS[name]
    return {
        "case": p.name, "x_min": p.x_min, "x_max": p.x_max, "n_x": p.n_x,
        "v_max": p.v_max, "n_vx": p.n_v[0], "n_vy": p.n_v[1], "n_vz": p.n_v[2],
        "epsilon": p.epsilon, "bc": p.bc.value, "t_final": p.t_final,
        "n_g": p.n_g, "n_f": p.n_f, "k_max": p.k_max, "tol": p.tol,
    }


def _validate(cfg: RunConfig) -> RunConfig:
    if cfg.case not in PRESETS:
        raise ConfigurationError(f"unknown case '{cfg.case}'")
    if cfg.bc not in (kind.value for kind in BoundaryKind):
        raise ConfigurationError(f"unknown bc '{cfg.bc}'")
    if cfg.mode not in MODES:
        raise ConfigurationError(f"unknown mode '{cfg.mode}', expected one of {MODES}")
    if not cfg.epsilon > 0:
        raise ConfigurationError(f"need epsilon > 0, got {cfg.epsilon}")
    if not cfg.tau > 0:
        raise ConfigurationError(f"need tau > 0, got {cfg.tau}")
    if not cfg.tol > 0:
        raise ConfigurationError(f"need tol > 0, got {cfg.tol}")
    for label, value in (("cfl_kinetic", cfg.cfl_kinetic), ("cfl_fluid", cfg.cfl_fluid)):
        if not 0.0 < value <= 1.0:
            raise ConfigurationError(f"need 0 < {label} <= 1, got {value}")
    if cfg.k_max < 1:
        raise ConfigurationError(f"need k_max >= 1, got {cfg.k_max}")
    if cfg.workers < 1:
        raise ConfigurationError(f"need workers >= 1, got {cfg.workers}")
    # Grid builders check the remaining count/bound constraints.
    return cfg


def parse_config(path: str | Path) -> RunConfig:
    """Read and validate a run configuration file."""
    path = Path(path)
    pairs = _read_pairs(path)
    preset = pairs.pop("preset", None)
    if preset is not None:
        values = _preset_values(str(preset))
        values.update(pairs)
        values["preset"] = str(preset)
    else:
        missing = [key for key in _REQUIRED if key not in pairs]
        if missing:
            raise ConfigurationError(
                f"{path}: no preset given and required keys missing: {missing}")
        values = dict(pairs)
    return _validate(RunConfig(**values))


def build_discretization(cfg: RunConfig) -> Discretization:
    phase = PhaseGrid(build_spatial_grid(cfg.x_min, cfg.x_max, cfg.n_x),
                      build_velocity_grid(cfg.v_max, (cfg.n_vx, cfg.n_vy, cfg.n_vz)))
    time = build_time_grids(cfg.t_final, cfg.n_g, cfg.n_f)
    return Discretization(phase, time, BoundaryKind(cfg.bc))


def build_params(cfg: RunConfig, disc: Discretization) -> tuple[KineticParams, FluidParams]:
    force = force_field(cfg.case, disc.phase.space)
    tau = constant_tau if cfg.tau == 1.0 else ConstantTau(cfg.tau)
    kinetic = KineticParams(epsilon=cfg.epsilon, tau=tau, force=force,
                            cfl=cfg.cfl_kinetic)
    fluid = FluidParams(force=force, cfl=cfg.cfl_fluid)
    return kinetic, fluid
