"""Numerical toolkit for Hardy spaces on the unit circle.

Band-limited functions on a power-of-two sample grid, Blaschke-product
bases, modulus-based gauge norms, inner/outer and n-inner/n-outer
factorization, and finite-dimensional models of shift-invariant
subspaces.  Everything is deterministic for a fixed grid and seed.
"""

import importlib
import os

__version__ = "0.1.0"

_MODULES = ("blaschke", "circlefn", "decomp", "errors", "factor",
            "invariance", "norms", "serialize", "verify")
# The variables OpenBLAS reads its thread count from when numpy loads it.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS")


def __getattr__(name):
    # PEP 562: the modules load on the first public name asked for, so
    # `python -m hardy.cli` reaches the CLI before numpy loads.  Each
    # module's __all__ is the one list of its public names.
    if name.startswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    names = []
    for stem in _MODULES:
        module = importlib.import_module(f".{stem}", __name__)
        globals().update((n, getattr(module, n)) for n in module.__all__)
        names += module.__all__
    globals()["__all__"] = names
    if name not in globals():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]


def __dir__():
    return sorted({*__getattr__("__all__"), *globals()})


def _one_openblas_thread_by_default():
    """For a CLI process, before numpy loads: one OpenBLAS thread unless
    the caller set a count.  At the default, OpenBLAS's workers spin about
    130 ms of CPU at ``import numpy``; hardy's BLAS work uses one thread."""
    if not any(v in os.environ for v in _THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _script():
    """The ``hardy`` console script: ``python -m hardy.cli``."""
    _one_openblas_thread_by_default()
    from .cli import main
    return main()
