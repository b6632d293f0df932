"""Every name that the package and its modules export resolves.

A name left in an ``__all__`` after its function is gone breaks
``from binloc import *`` and any tool that reads the list.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import binloc

_MODULES = ["binloc"] + [f"binloc.{info.name}"
                         for info in pkgutil.iter_modules(binloc.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []

