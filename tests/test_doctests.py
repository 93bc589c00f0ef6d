import doctest
import importlib
import pkgutil

import pytest

import rookorder

MODULES = [f"rookorder.{info.name}"
           for info in pkgutil.iter_modules(rookorder.__path__)
           if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    failures, _ = doctest.testmod(importlib.import_module(name))
    assert failures == 0
