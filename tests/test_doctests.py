"""Run the examples in every nestotope module's docstrings."""

import doctest
import importlib
import pkgutil

import pytest

import nestotope

MODULES = sorted(info.name for info in pkgutil.iter_modules(
    nestotope.__path__, nestotope.__name__ + "."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
