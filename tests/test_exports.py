"""Every exported name resolves, in the package and in each module."""

import importlib
import pkgutil

import pytest

import hardy

MODULES = sorted(m.name for m in pkgutil.iter_modules(hardy.__path__))


def test_package_exports_resolve():
    missing = [name for name in hardy.__all__ if not hasattr(hardy, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"hardy.{module}")
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert missing == []
