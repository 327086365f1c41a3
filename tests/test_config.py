"""Config file parsing, validation, and object construction."""

import re
from dataclasses import FrozenInstanceError, asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from parabgk import (PRESETS, BoundaryKind, ConfigurationError, KineticParams,
                     PararealConfig, RunConfig, build_discretization,
                     build_params, external_force, parse_config)

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
    assert cfg.case == "sod"
    assert (cfg.n_x, cfg.v_max, cfg.n_vx) == (40, 8.0, 16)
    assert cfg.epsilon == 1e-2 and cfg.bc == "absorbing"
    assert (cfg.n_g, cfg.n_f, cfg.k_max, cfg.tol) == (10, 40, 5, 1e-8)
    # defaults
    assert cfg.workers == 1 and cfg.mode == "parareal"
    assert cfg.out_dir == "out"


def test_every_field_round_trips(tmp_path):
    # every RunConfig field set away from its default, over a preset whose
    # every value they replace
    expected = RunConfig(case="blast", x_min=-1.0, x_max=3.0, n_x=30, v_max=6.5,
                         n_vx=12, n_vy=10, n_vz=8, epsilon=3e-3, bc="periodic",
                         t_final=0.15, n_g=6, n_f=24, k_max=3, tol=1e-6,
                         workers=3, mode="fine", out_dir="results/blast")
    text = "preset = sod\n" + "".join(f"{f.name} = {getattr(expected, f.name)}\n"
                                      for f in fields(RunConfig))
    assert parse_config(_write(tmp_path, text)) == expected


def test_preset_expansion_and_override(tmp_path):
    cfg = parse_config(_write(tmp_path, "preset = sod\nn_x = 50\nmode = fluid\n"))
    assert cfg.case == "sod"
    assert cfg.n_x == 50  # override wins
    assert cfg.n_g == 200 and cfg.n_f == 800 and cfg.k_max == 80
    assert cfg.v_max == 8.0 and cfg.bc == "absorbing"
    assert cfg.mode == "fluid"
    beams = parse_config(_write(tmp_path, "preset = beams\n", "b.cfg"))
    assert beams.bc == "periodic" and beams.epsilon == 1e-5
    assert (beams.n_vx, beams.n_vy, beams.n_vz) == (256, 16, 16)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_parses_and_builds(tmp_path, name):
    cfg = parse_config(_write(tmp_path, f"preset = {name}\n"))
    assert cfg == PRESETS[name]
    disc = build_discretization(cfg)
    assert disc.phase.space.n_x == cfg.n_x and disc.time.n_g == cfg.n_g
    assert build_params(cfg, disc).epsilon == cfg.epsilon


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
    # collisions relax at rate 1/epsilon; there is no second rate knob
    path = _write(tmp_path, "preset = sod\ntau = 2.5\n", "t.cfg")
    with pytest.raises(ConfigurationError, match=r":2: unknown key 'tau'"):
        parse_config(path)
    # each step's Courant number is fixed by its scheme, not a setting
    for key in ("cfl_kinetic", "cfl_fluid"):
        path = _write(tmp_path, f"preset = sod\n{key} = 0.5\n", "c.cfg")
        with pytest.raises(ConfigurationError, match=rf":2: unknown key '{key}'"):
            parse_config(path)
    # a key set twice is a mistake in the file, not an override
    path = _write(tmp_path, "preset = sod\nn_x = 12\n\nworkers = 2\nn_x = 14\n", "d.cfg")
    with pytest.raises(ConfigurationError,
                       match=r"d\.cfg:5: key 'n_x' already set on line 2$"):
        parse_config(path)


def test_every_key_is_documented_in_readme():
    # both ways: every field has a `name =` line in the README's config
    # blocks, and every such line names a field or the preset
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = readme.split("```")[1::2]
    documented = {m.group(1) for block in blocks
                  for m in re.finditer(r"^(\w+)\s*=", block, re.MULTILINE)}
    assert documented == {f.name for f in fields(RunConfig)} | {"preset"}


def test_unknown_preset_and_missing_keys(tmp_path):
    with pytest.raises(ConfigurationError, match="unknown preset 'shock'"):
        parse_config(_write(tmp_path, "preset = shock\n"))
    with pytest.raises(ConfigurationError, match="required keys missing"):
        parse_config(_write(tmp_path, "case = sod\nn_x = 10\n", "m.cfg"))


def test_semantic_validation(tmp_path):
    # a RunConfig checks itself however it is made: parsed, replaced or
    # constructed directly
    bad = [
        ("case", "vortex", "unknown case 'vortex'"),
        ("bc", "reflecting", "unknown bc"),
        ("mode", "exact", "unknown mode"),
        ("mode", "flud", "unknown mode 'flud'"),
        ("epsilon", 0.0, "epsilon > 0"),
        # the rate of a fine step, t_final/n_f/epsilon, overflows
        ("epsilon", 5e-324, r"relaxation rate t_final/n_f/epsilon, got inf "
                            r"with epsilon = 5e-324"),
        ("tol", 0.0, "tol > 0"),
        ("k_max", 0, "k_max >= 1"),
        ("workers", 0, "workers >= 1"),
    ]
    base = parse_config(_write(tmp_path, FULL))
    for i, (key, value, fragment) in enumerate(bad):
        path = _write(tmp_path, f"preset = sod\n{key} = {value}\n", f"bad{i}.cfg")
        with pytest.raises(ConfigurationError, match=fragment):
            parse_config(path)
        with pytest.raises(ConfigurationError, match=fragment):
            replace(base, **{key: value})
        with pytest.raises(ConfigurationError, match=fragment):
            RunConfig(**{**asdict(base), key: value})


@pytest.mark.parametrize("key, value, message", [
    ("n_f", "x", "need an integer n_f, got 'x'"),
    ("t_final", "x", "need a real number t_final, got 'x'"),
    ("t_final", None, "need a real number t_final, got None"),
    ("epsilon", "x", "need a real number epsilon, got 'x'"),
    ("tol", "x", "need a real number tol, got 'x'"),
    ("case", [], r"unknown case \[\]"),
], ids=["n_f", "t_final-str", "t_final-None", "epsilon", "tol", "case"])
def test_a_setting_that_is_not_a_number_is_refused(key, value, message):
    # a library caller's setting of the wrong kind once raised a bare
    # TypeError from a comparison, math.isfinite or a dict lookup
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        replace(PRESETS["sod"], **{key: value})


@pytest.mark.parametrize("key, value", [("t_final", float("nan")),
                                        ("t_final", -1.0), ("n_f", 0)])
def test_epsilon_rate_check_leaves_bad_times_to_the_grid(tmp_path, key, value):
    # with t_final or n_f invalid there is no fine step to bound; the time
    # grid builder names the bad key instead
    base = parse_config(_write(tmp_path, FULL))
    cfg = replace(base, epsilon=5e-324, **{key: value})
    with pytest.raises(ConfigurationError, match=r"need (finite t_final|n_f >=)"):
        build_discretization(cfg)


def test_build_discretization(tmp_path):
    cfg = parse_config(_write(tmp_path, FULL))
    disc = build_discretization(cfg)
    assert disc.phase.space.n_x == 40 and disc.phase.space.dx == 0.05
    assert disc.phase.velocity.n_v == (16, 16, 16)
    assert disc.time.n_g == 10 and disc.time.dt_f == 0.2 / 40
    assert disc.bc is BoundaryKind.ABSORBING


def test_build_params_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, FULL))
    disc = build_discretization(cfg)
    kinetic = build_params(cfg, disc)
    assert kinetic.force is None
    assert kinetic.epsilon == 1e-2


def test_build_params_beams_force(tmp_path):
    text = "preset = beams\nn_x = 20\n"
    cfg = parse_config(_write(tmp_path, text))
    disc = build_discretization(cfg)
    kinetic = build_params(cfg, disc)
    assert kinetic.epsilon == 1e-5
    assert np.array_equal(kinetic.force, external_force(disc.phase.space.centers))


@pytest.mark.parametrize("make, field, value", [
    (lambda: KineticParams(epsilon=1e-2), "force", np.full(8, np.nan)),
    (lambda: PRESETS["sod"], "n_x", 12),
    (lambda: PararealConfig(k_max=2, tol=1e-3), "k_max", 0),
], ids=["KineticParams", "RunConfig", "PararealConfig"])
def test_settings_refuse_assignment(tmp_path, make, field, value):
    # an assignment after construction would skip every check: a NaN field
    # ran field-free, and a preset edit leaked into every later parse
    settings = make()
    before = getattr(settings, field)
    with pytest.raises(FrozenInstanceError):
        setattr(settings, field, value)
    assert getattr(settings, field) is before
    assert parse_config(_write(tmp_path, "preset = sod\n")).n_x == 200
