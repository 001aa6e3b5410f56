"""Independent constructions the tests compare the library against."""

import numpy as np

from hardy.circlefn import CircleFunction, require_analytic
from hardy.decomp import _check_modulus


def zn_series_components(f, n):
    """The n series s_0 .. s_{n-1} with f(z) = sum_i z^i s_i(z^n).

    s_i collects the Taylor coefficients of f at indices congruent to i
    mod n, moved to consecutive positions (the base-variable view), one
    from_coeffs per series.  n above half the grid raises
    ParameterError, as in the library's z^n split.
    """
    require_analytic(f, "zn_series_components")
    N = f.n_samples
    _check_modulus(n, N)
    half = N // 2
    out = []
    for i in range(n):
        sel = f.coeffs[half:][i::n]
        arr = np.zeros(N, dtype=complex)
        arr[half:half + sel.size] = sel
        out.append(CircleFunction.from_coeffs(arr))
    return tuple(out)
