"""The package surface: every exported name resolves, and the examples in
the docstrings stay true."""

import doctest
import importlib
import pkgutil

import pytest

import invlat

MODULES = sorted(
    f"invlat.{info.name}" for info in pkgutil.iter_modules(invlat.__path__)
)


def test_every_exported_name_resolves_once():
    names = invlat.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(invlat, name), name


@pytest.mark.parametrize("module", ["invlat", *MODULES])
def test_docstring_examples(module):
    result = doctest.testmod(importlib.import_module(module))
    assert result.failed == 0
