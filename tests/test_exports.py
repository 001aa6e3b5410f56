"""Every exported name resolves, in the package and in each module."""

import importlib
import inspect
import pkgutil

import pytest

import hardy

MODULES = sorted(m.name for m in pkgutil.iter_modules(hardy.__path__))
LIBRARY = [m for m in MODULES if m != "cli"]


def test_package_exports_resolve():
    missing = [name for name in hardy.__all__ if not hasattr(hardy, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"hardy.{module}")
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module", LIBRARY)
def test_library_module_declares_its_exports(module):
    assert isinstance(importlib.import_module(f"hardy.{module}").__all__,
                      list)


def test_package_exports_the_union_of_the_module_lists():
    # the one list the package and perfbench/spans.py both read
    union = [name for m in LIBRARY
             for name in importlib.import_module(f"hardy.{m}").__all__]
    assert len(set(union)) == len(union)
    assert sorted(hardy.__all__) == sorted(union)


def test_cli_exports_only_main():
    from hardy import cli
    assert cli.__all__ == ["main"]


@pytest.mark.parametrize("fn, gone", [
    (hardy.CircleFunction.is_analytic, "tol"),
    (hardy.CircleFunction.bandwidth, "cutoff"),
    (hardy.CircleFunction.top_index, "cutoff"),
    (hardy.n_inner_outer_factorize, "tol"),
    (hardy.NInnerOuterBundle.meets_invariants, "tol"),
    (hardy.is_n_outer, "tol"),
    (hardy.b_inner_matrix_from, "tol"),
    (hardy.check_continuity, "threshold"),
    (hardy.invariance._orthonormal_columns, "rel_cutoff"),
], ids=lambda v: getattr(v, "__qualname__", v))
def test_single_value_knobs_stay_constants(fn, gone):
    # Nothing passes these a value other than the default; each function
    # reads its constant instead of taking a parameter.
    assert gone not in inspect.signature(fn).parameters
