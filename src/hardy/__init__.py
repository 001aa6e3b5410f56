"""Numerical toolkit for Hardy spaces on the unit circle.

Band-limited functions on a power-of-two sample grid, Blaschke-product
bases, modulus-based gauge norms, inner/outer and n-inner/n-outer
factorization, and finite-dimensional models of shift-invariant
subspaces.  Everything is deterministic for a fixed grid and seed.
"""

from . import (blaschke, circlefn, decomp, errors, factor, invariance, norms,
               serialize, verify)
from .blaschke import *
from .circlefn import *
from .decomp import *
from .errors import *
from .factor import *
from .invariance import *
from .norms import *
from .serialize import *
from .verify import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = [name for module in (blaschke, circlefn, decomp, errors, factor,
                               invariance, norms, serialize, verify)
           for name in module.__all__]
