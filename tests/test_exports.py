"""Every name a module lists in __all__ resolves."""

import importlib
import pkgutil

import pytest

import tagflow

MODULES = ["tagflow"] + [f"tagflow.{m.name}" for m in pkgutil.iter_modules(tagflow.__path__) if not m.name.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_the_package_and_its_modules_export_names():
    exported = [getattr(importlib.import_module(name), "__all__", []) for name in MODULES]
    assert exported[0] and sum(map(len, exported)) > len(exported[0])
