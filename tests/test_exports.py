import importlib
import pkgutil

import pytest

import rarefuse

MODULES = ["rarefuse"] + [
    f"rarefuse.{info.name}" for info in pkgutil.iter_modules(rarefuse.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import():
    namespace = {}
    exec("from rarefuse import *", namespace)
    assert set(rarefuse.__all__) <= set(namespace)
