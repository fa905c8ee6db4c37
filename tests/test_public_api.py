"""The public surface: every name a module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import countertwist

MODULES = ("countertwist", *sorted(
    info.name for info in pkgutil.iter_modules(countertwist.__path__, "countertwist.")
))


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", ()):
        getattr(module, attr)


def test_star_import_binds_every_listed_name():
    namespace = {}
    exec("from countertwist import *", namespace)
    assert set(countertwist.__all__) <= namespace.keys()
