import doctest
import importlib
import pkgutil

import pytest

import rookorder

MODULES = [f"rookorder.{info.name}"
           for info in pkgutil.iter_modules(rookorder.__path__)
           if info.name != "__main__"]


@pytest.mark.parametrize("name", ["rookorder", *MODULES])
def test_every_export_exists(name):
    # a name in __all__ that the module no longer defines fails here, not
    # at the first ``from ... import *``
    module = importlib.import_module(name)
    assert [export for export in getattr(module, "__all__", ())
            if not hasattr(module, export)] == []


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    failures, _ = doctest.testmod(importlib.import_module(name))
    assert failures == 0
