"""Config file parsing, validation, and object construction."""

import numpy as np
import pytest

from parabgk import (BoundaryKind, ConfigurationError, build_discretization,
                     build_params, external_force, parse_config)
from parabgk.kinetic import ConstantTau, constant_tau

FULL = """\
# explicit setup, no preset
case = sod
x_min = 0.0
x_max = 2.0
n_x = 40
v_max = 8.0
n_vx = 16
n_vy = 16
n_vz = 16
epsilon = 1e-2
bc = absorbing
t_final = 0.2
n_g = 10
n_f = 40
k_max = 5
tol = 1e-8
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_explicit_config(tmp_path):
    cfg = parse_config(_write(tmp_path, FULL))
    assert cfg.case == "sod" and cfg.preset is None
    assert (cfg.n_x, cfg.v_max, cfg.n_vx) == (40, 8.0, 16)
    assert cfg.epsilon == 1e-2 and cfg.bc == "absorbing"
    assert (cfg.n_g, cfg.n_f, cfg.k_max, cfg.tol) == (10, 40, 5, 1e-8)
    # defaults
    assert cfg.tau == 1.0 and cfg.workers == 1 and cfg.mode == "parareal"
    assert cfg.cfl_kinetic == 0.5 and cfg.cfl_fluid == 0.9
    assert cfg.out_dir == "out"


def test_preset_expansion_and_override(tmp_path):
    cfg = parse_config(_write(tmp_path, "preset = sod\nn_x = 50\nmode = fluid\n"))
    assert cfg.preset == "sod" and cfg.case == "sod"
    assert cfg.n_x == 50  # override wins
    assert cfg.n_g == 200 and cfg.n_f == 800 and cfg.k_max == 80
    assert cfg.v_max == 8.0 and cfg.bc == "absorbing"
    assert cfg.mode == "fluid"
    beams = parse_config(_write(tmp_path, "preset = beams\n", "b.cfg"))
    assert beams.bc == "periodic" and beams.epsilon == 1e-5
    assert (beams.n_vx, beams.n_vy, beams.n_vz) == (256, 16, 16)


def test_comments_and_blank_lines_ignored(tmp_path):
    text = "\n# leader\npreset = sod  # trailing note\n\n   \nworkers = 4\n"
    cfg = parse_config(_write(tmp_path, text))
    assert cfg.workers == 4


def test_parse_errors_carry_line_numbers(tmp_path):
    path = _write(tmp_path, "preset = sod\nnot a pair\n")
    with pytest.raises(ConfigurationError, match=r":2: expected key=value"):
        parse_config(path)
    path = _write(tmp_path, "preset = sod\nn_q = 3\n", "k.cfg")
    with pytest.raises(ConfigurationError, match=r":2: unknown key 'n_q'"):
        parse_config(path)
    path = _write(tmp_path, "preset = sod\nn_x = many\n", "v.cfg")
    with pytest.raises(ConfigurationError, match=r":2: bad value for 'n_x'"):
        parse_config(path)
    path = _write(tmp_path, "preset = sod\nuse_frozen_prefix = maybe\n", "b.cfg")
    with pytest.raises(ConfigurationError, match=r":2: unknown key 'use_frozen_prefix'"):
        parse_config(path)


def test_unknown_preset_and_missing_keys(tmp_path):
    with pytest.raises(ConfigurationError, match="unknown preset 'shock'"):
        parse_config(_write(tmp_path, "preset = shock\n"))
    with pytest.raises(ConfigurationError, match="required keys missing"):
        parse_config(_write(tmp_path, "case = sod\nn_x = 10\n", "m.cfg"))


def test_semantic_validation(tmp_path):
    bad = [
        ("case = vortex\n", "unknown case"),
        ("bc = reflecting\n", "unknown bc"),
        ("mode = exact\n", "unknown mode"),
        ("epsilon = 0.0\n", "epsilon > 0"),
        ("tau = -1.0\n", "tau > 0"),
        ("tol = 0.0\n", "tol > 0"),
        ("cfl_kinetic = 1.5\n", "cfl_kinetic"),
        ("cfl_fluid = 0.0\n", "cfl_fluid"),
        ("k_max = 0\n", "k_max >= 1"),
        ("workers = 0\n", "workers >= 1"),
    ]
    for i, (line, fragment) in enumerate(bad):
        path = _write(tmp_path, "preset = sod\n" + line, f"bad{i}.cfg")
        with pytest.raises(ConfigurationError, match=fragment):
            parse_config(path)


def test_build_discretization(tmp_path):
    cfg = parse_config(_write(tmp_path, FULL))
    disc = build_discretization(cfg)
    assert disc.phase.space.n_x == 40 and disc.phase.space.dx == 0.05
    assert disc.phase.velocity.n_v == (16, 16, 16)
    assert disc.time.n_g == 10 and disc.time.n_f == 40
    assert disc.bc is BoundaryKind.ABSORBING


def test_build_params_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, FULL))
    disc = build_discretization(cfg)
    kinetic, fluid = build_params(cfg, disc)
    assert kinetic.tau is constant_tau  # picklable default rate
    assert kinetic.force is None and fluid.force is None
    assert kinetic.epsilon == 1e-2
    assert kinetic.cfl == 0.5 and fluid.cfl == 0.9


def test_build_params_beams_force_and_tau(tmp_path):
    text = "preset = beams\ntau = 2.5\ncfl_kinetic = 0.4\ncfl_fluid = 0.8\nn_x = 20\n"
    cfg = parse_config(_write(tmp_path, text))
    disc = build_discretization(cfg)
    kinetic, fluid = build_params(cfg, disc)
    assert isinstance(kinetic.tau, ConstantTau)
    assert kinetic.tau(np.array([0.7]), np.array([1.2])) == 2.5
    expected = external_force(disc.phase.space.centers)
    assert np.array_equal(kinetic.force, expected)
    assert np.array_equal(fluid.force, expected)
    assert kinetic.cfl == 0.4 and fluid.cfl == 0.8
