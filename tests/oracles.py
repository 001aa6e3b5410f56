"""Independent constructions the tests compare the library against."""

import numpy as np

from hardy.circlefn import EPS_LOG, CircleFunction, require_analytic, resample
from hardy.decomp import _check_modulus
from hardy.errors import SingularityError
from hardy.factor import WORK_TAIL_TARGET


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


def classical_pair_verdict(f, inner, outer):
    """The verdict the classical inner/outer pair once carried, read off
    the parts alone: the RMS of inner * outer - f on their grid at most
    1e-7, the sup of ||inner| - 1| at most 1e-7, the inner part's Taylor
    tail past three quarters of the band at most WORK_TAIL_TARGET, and an
    analytic outer part."""
    N = inner.n_samples
    f = resample(f, N)
    residual = np.sqrt(np.mean(np.abs(inner.samples * outer.samples
                                      - f.samples) ** 2))
    unimodularity = np.max(np.abs(np.abs(inner.samples) - 1.0))
    tail = np.linalg.norm(inner.coeffs[3 * N // 4:])
    return bool(residual <= 1e-7 and unimodularity <= 1e-7
                and tail <= WORK_TAIL_TARGET and outer.is_analytic())


def jensen_outer_verdict(f, regularize=False):
    """Jensen's outer test from f's samples alone, as (passed, gap).

    f(0) is the mean of the samples.  The gap is |log|f(0)| - mean of
    log max(|f|, EPS_LOG)| and passes at most 1e-6; |f(0)| below EPS_LOG
    fails with an infinite gap.  A modulus below EPS_LOG on the grid
    raises SingularityError unless ``regularize`` floors it.
    """
    require_analytic(f, "jensen_outer_verdict")
    f0 = np.mean(f.samples)
    if abs(f0) < EPS_LOG:
        return False, float("inf")
    mod = np.abs(f.samples)
    low = np.nonzero(mod < EPS_LOG)[0]
    if low.size and not regularize:
        raise SingularityError(f"modulus below {EPS_LOG:g}", low[:16])
    gap = abs(np.log(abs(f0)) - np.mean(np.log(np.maximum(mod, EPS_LOG))))
    return bool(gap <= 1e-6), float(gap)
