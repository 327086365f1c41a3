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
