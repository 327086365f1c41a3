"""Export lists: every name a module lists in __all__ is defined there."""

import importlib
import pkgutil

import pytest

import parabgk

MODULES = sorted(f"parabgk.{info.name}" for info in pkgutil.iter_modules(parabgk.__path__))


def test_package_imports_and_lists_its_modules():
    assert "parabgk.runner" in MODULES and "parabgk.config" in MODULES
    assert parabgk.run_mode is importlib.import_module("parabgk.runner").run_mode


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names undefined {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"


def test_package_names_are_listed_by_their_modules():
    # a function or class the package re-exports is public in its own module
    # (a module without __all__ exports every name); the moment and marginal
    # helpers of set-up are among them
    for name in ("initial_moments", "maxwellian_marginals", "moments_of_marginals",
                 "beams_components"):
        assert hasattr(parabgk, name)
    for name, value in vars(parabgk).items():
        module = getattr(value, "__module__", None) or ""
        if not name.startswith("_") and module.startswith("parabgk."):
            source = importlib.import_module(module)
            assert name in getattr(source, "__all__", vars(source)), (name, module)
