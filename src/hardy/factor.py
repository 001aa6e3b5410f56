"""Inner-outer structure on the circle grid.

A function J is n-inner when the shifted family {z^(n m) J} is
orthonormal; a function of the form s(z^n) is n-outer when s is outer.
is_n_outer is the one outer test, and at n = 1 it is Jensen's equality
log|f(0)| = mean of log|f|.  Every f factors as f = J F with one n-inner
J and one n-outer F, and n = 1 is the classical split into an inner part
and the outer part of |f|.  One construction serves every n, on an
N-point work grid in z.
With g = gcd(n, N), z^n takes only the M = N/g values of u^(n/g),
u = z^g, which are the M-point grid reindexed by j -> j n/g mod M:

  1. split f(z) = sum_i z^i h_i(z^n) by residue class and sample every
     h_i(u^(n/g)) on the M-point grid of u, all n rows from one block
     transform (decomp._residue_rows with the grid size M; the reindex
     is the coefficient index k n/g, one strided slice per class);
  2. form phi = sqrt(sum_i |h_i(u^(n/g))|^2) there;
  3. take O = exp(v + i*conj(v)) with v = log phi on those M points
     (one real FFT pair for the conjugate), and F(z) = O(z^g), whose
     samples are O's tiled g times.  Tiling is exact, so this is the
     N-point construction; the conjugate of a series in z^n is a series
     in z^n, so F is n-outer, and F(0) > 0 fixes the phase;
  4. set J = f / F on the N points, so that J(z) = sum_i z^i
     (h_i/O)(z^n) with sum_i |h_i/O|^2 = 1: J is n-inner.

The residual is exact to rounding because every step is a sample
identity.  The only approximation is the work grid, which starts on the
input's grid and doubles, up to WORK_GRID_CAP, until J's Taylor tail
beyond three quarters of the band, which bounds the aliasing, is at most
WORK_TAIL_TARGET.  A modulus or quotient that is not finite raises
FactorizationError on the grid where it appears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .blaschke import BlaschkeSpec
from .circlefn import (
    EPS_LOG,
    CircleFunction,
    _analyze_array,
    _count,
    _frozen,
    _joint_gram_defect,
    norm2,
    require_analytic,
    resample,
)
from .decomp import _check_modulus, _grid_view, _residue_rows, _split_blaschke
from .errors import (
    DomainError,
    FactorizationError,
    ParameterError,
    RankError,
    SingularityError,
    SizeError,
)

__all__ = [
    "NInnerOuterBundle",
    "BInnerMatrix",
    "NOuterReport",
    "harmonic_conjugate",
    "outer_from_modulus",
    "b_inner_matrix_from",
    "n_inner_outer_factorize",
    "is_n_outer",
]

TOL_OUTER = 1e-6
TOL_B_INNER = 1e-7
TOL_FACTOR_RESIDUAL = 1e-6
TOL_FACTOR_VERDICT = 1e-7  # the verdict's residual and inner_defect bound

# Work-grid control for the inner-outer construction.  The grid starts
# on the input's and doubles until the quotient's Taylor tail has decayed.
WORK_TAIL_TARGET = 1e-11
WORK_GRID_CAP = 1 << 17


@dataclass(frozen=True, eq=False)
class NOuterReport:
    """Outcome of the n-outer test.

    The input factors as carrier_polynomial(z) * base_series(z^n) when
    rank1_defect is small; the test passes when additionally the base
    series is outer.  carrier_polynomial has unit coefficient norm and
    positive-real leading nonzero coefficient.
    """

    passed: bool
    rank1_defect: float
    outer_defect: float
    carrier_polynomial: Optional[CircleFunction] = None
    base_series: Optional[CircleFunction] = None

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True, eq=False)
class BInnerMatrix:
    """Columns phi_j expanded over the factor slots of B.

    entries[i][j] is the slot-i component h_ij(B) of phi_j at the
    family's automatic cutoff.  defect, the verdict, is the largest
    entry of H(w)^* H(w) - I over a uniform grid on the circle.  The
    cross-check joint_defect, the Gram defect of {B^m phi_j : m <= m_max}
    on the sample grid, sees only m_max Fourier coefficients of H^* H.
    """

    rows: int
    cols: int
    entries: Tuple[Tuple[CircleFunction, ...], ...]
    defect: float
    joint_defect: float
    tol: float
    decomposition_residual: float

    @property
    def passed(self) -> bool:
        return self.defect <= self.tol


@dataclass(frozen=True, eq=False)
class NInnerOuterBundle:
    """f = sum_i inners[i] * outers[i] with n-inner/n-outer parts.

    A single generator gives r = 1.  The functions live on the grid
    they were computed on, which grows beyond the input grid when
    coefficient decay demands it; ``n_samples`` records it, and
    ``inner_tail`` the inner part's Taylor tail that stopped its growth.
    """

    n: int
    r: int
    inners: Tuple[CircleFunction, ...]
    outers: Tuple[CircleFunction, ...]
    residual: float
    gram_defect: float
    n_samples: int
    parseval_gap: float
    outer_reports: Tuple[NOuterReport, ...]
    inner_tail: float
    inner_defect: float  # sup of |phi / |O| - 1| on the last fibre grid

    def meets_invariants(self) -> bool:
        return (self.residual <= TOL_FACTOR_VERDICT
                and self.inner_defect <= TOL_FACTOR_VERDICT
                and self.gram_defect <= TOL_FACTOR_RESIDUAL
                and self.inner_tail <= WORK_TAIL_TARGET
                and all(rep.passed for rep in self.outer_reports))


def harmonic_conjugate(u: CircleFunction) -> CircleFunction:
    """Conjugate function: coefficient j is scaled by -i*sgn(j).

    The mean is dropped and so is the bottom (unpaired) index, which
    keeps the output real; u + i*conjugate is then analytic except for
    whatever mass u carried at that unpaired index.
    """
    real = _real_samples(u, "harmonic_conjugate needs a real-valued input")
    return CircleFunction.from_samples(_conjugate(real))


def _real_samples(w: CircleFunction, refusal: str) -> np.ndarray:
    """w's samples as reals; an imaginary part above 1e-10 raises
    DomainError(refusal)."""
    if float(np.max(np.abs(w.samples.imag))) > 1e-10:
        raise DomainError(refusal)
    return w.samples.real


def _conjugate(u: np.ndarray) -> np.ndarray:
    """Samples of the harmonic conjugate of real samples u: one real
    FFT pair, the index-0 and the unpaired index-N/2 coefficients
    dropped, every other one scaled by -i (its mirror, by +i, is
    implied)."""
    c = np.fft.rfft(u)
    c *= -1j
    c[0] = c[-1] = 0.0
    return np.fft.irfft(c, n=u.size)


def outer_from_modulus(w: CircleFunction, regularize: bool = False) -> CircleFunction:
    """The analytic function with |O| = w on the grid and O(0) > 0.

    O = exp(u + i*conj(u)) with u = log w.  Moduli below EPS_LOG raise
    SingularityError unless ``regularize`` floors them there.
    """
    mod = _real_samples(w, "outer_from_modulus needs a real-valued modulus")
    if float(np.min(mod)) < -1e-10:
        raise DomainError("outer_from_modulus needs a nonnegative modulus")
    return CircleFunction.from_samples(
        _outer(np.maximum(mod, 0.0), regularize, 1))


def _outer(mod: np.ndarray, regularize: bool, g: int) -> np.ndarray:
    """Samples of the outer function of the nonnegative modulus ``mod``
    on its own grid (see _log_modulus for ``g``)."""
    u = _log_modulus(mod, regularize, g)
    return np.exp(u + 1j * _conjugate(u))


def _log_modulus(mod: np.ndarray, regularize: bool, g: int) -> np.ndarray:
    """log max(mod, EPS_LOG): the one rule for the log of a modulus.  A
    modulus below EPS_LOG raises SingularityError unless ``regularize``
    floors it.  ``mod`` is phi(u) for u = z^g, so the refused points are
    counted on the z-grid, g per point of u."""
    low = mod < EPS_LOG
    if not regularize and low.any():
        bad = np.nonzero(np.tile(low, g))[0]
        raise SingularityError(
            f"modulus below {EPS_LOG:g} at {bad.size} grid points; "
            f"pass regularize=True to floor it", bad[:16]
        )
    return np.log(np.maximum(mod, EPS_LOG))


def _tiled(samples: np.ndarray, g: int) -> CircleFunction:
    """The function s(z^g) on the (g M)-point grid, from the samples of
    s on M points: the samples tiled g times, the coefficients of s
    spread to the multiples of g, exact zeros between them."""
    coeffs = np.zeros(g * samples.size, dtype=complex)
    coeffs[::g] = _analyze_array(samples)
    return CircleFunction._of(coeffs.size, _frozen(np.tile(samples, g)),
                              _frozen(coeffs))


def _factor(f: CircleFunction, n: int, regularize: bool
            ) -> Tuple[CircleFunction, CircleFunction, CircleFunction, float,
                       float]:
    """The construction of the module docstring: (J, F, f, tail, defect)
    with f resampled to the work grid that J and F live on, tail J's
    Taylor tail there and defect the sup of |phi / |O| - 1| on the fibre
    grid."""
    n_work = f.n_samples
    while True:
        f_work = resample(f, n_work)
        g = math.gcd(n, n_work)
        # A modulus that overflows leaves a non-finite outer part.
        with np.errstate(over="ignore", invalid="ignore"):
            _, rows = _residue_rows(f_work, n, size=n_work // g)
            phi = np.sqrt(np.sum(rows.real ** 2 + rows.imag ** 2, axis=0))
            o = _outer(phi, regularize, g)
            _require_finite(o, "outer part", n, n_work)
            outer = _tiled(o, g)
            quotient = f_work.samples / outer.samples
            _require_finite(quotient, "inner part", n, n_work)
        inner = CircleFunction._of(n_work, samples=_frozen(quotient))
        tail = float(np.linalg.norm(inner.coeffs[3 * n_work // 4:]))
        if tail <= WORK_TAIL_TARGET or n_work >= WORK_GRID_CAP:
            defect = float(np.max(np.abs(phi / np.abs(o) - 1.0)))
            return inner, outer, f_work, tail, defect
        n_work *= 2


def _require_finite(values: np.ndarray, what: str, n: int, n_work: int):
    """Refuse a non-finite part on the pass that meets it, rather than
    doubling the work grid on NaN."""
    if not np.all(np.isfinite(values)):
        raise FactorizationError(
            f"the {what} is not finite on the {n_work}-point work grid",
            diagnostics={"n": n, "n_samples": n_work})


def b_inner_matrix_from(phis: Sequence[CircleFunction], spec: BlaschkeSpec,
                        m_max: int) -> BInnerMatrix:
    """Expand each phi_j = sum_i e(i, 0) h_ij(B) over the factor slots of
    B and grade the result (see BInnerMatrix).

    <B^m phi_a, phi_b> is the m-th Fourier coefficient of (H^* H)_ba, so
    the family is jointly B-inner exactly when H^* H = I on the circle.
    The columns are split at the family's largest automatic cutoff m; an
    inverse FFT of the rows gives the h_ij on M >= 64 points, the power
    of two above 2 m, so that H^* H's coefficients up to m do not alias.
    """
    m_max = _count(m_max, "m_max")
    r = len(phis)
    n = spec.degree
    if r == 0:
        raise ParameterError("need at least one column")
    if r > n:
        raise RankError(f"{r} columns exceed the {n} factor slots of B")
    N = phis[0].n_samples
    if any(phi.n_samples != N for phi in phis):
        raise SizeError("all columns must share one grid")
    decs = _split_blaschke(phis, spec, None, "b_inner_matrix_from")
    m = decs[0].basis_coefficients.shape[1] - 1
    M = 1 << max(6, (2 * m + 1).bit_length())
    # H[i, l, j] = h_ij(exp(2 pi i l / M))
    H = M * np.fft.ifft(np.stack([d.basis_coefficients for d in decs], 2),
                        n=M, axis=1)
    gram = np.einsum("ila,ilb->lab", H.conj(), H)
    defect = float(np.max(np.abs(gram - np.eye(r))))
    joint = _joint_gram_defect(_grid_view(spec, N)[0],
                               [phi.samples for phi in phis], m_max)
    entries = tuple(tuple(d.components[i] for d in decs) for i in range(n))
    return BInnerMatrix(rows=n, cols=r, entries=entries, defect=defect,
                        joint_defect=joint, tol=TOL_B_INNER,
                        decomposition_residual=max(d.residual for d in decs))


def n_inner_outer_factorize(f: CircleFunction, n: int,
                            regularize: bool = False,
                            m_max_check: int = 8) -> NInnerOuterBundle:
    """Factor f into an n-inner times an n-outer part.

    The construction is described in the module docstring.  The bundle
    records residual, joint orthonormality defect, and the component
    validations; a residual above 1e-6 raises FactorizationError.
    """
    require_analytic(f, "n_inner_outer_factorize")
    # the work grid starts on f's grid and only grows
    n = _check_modulus(n, f.n_samples)
    m_max_check = _count(m_max_check, "m_max_check")
    if norm2(f) < EPS_LOG:
        raise DomainError("cannot factor the zero function")
    J, f1, f_work, tail, inner_defect = _factor(f, n, regularize)
    # the RMS of J f1 - f, formed sample-wise: a verification number
    residual = float(np.sqrt(np.mean(
        np.abs(J.samples * f1.samples - f_work.samples) ** 2)))
    # <z^(n d) J, J> as lag sums of J's coefficients: on samples a shift
    # past half the grid would wrap J's band onto itself.
    gram = _joint_gram_defect(n, [J.coeffs], m_max_check)
    if residual > TOL_FACTOR_RESIDUAL:
        raise FactorizationError(
            f"factorization residual {residual:.3e} exceeds "
            f"{TOL_FACTOR_RESIDUAL:g}",
            diagnostics={
                "residual": residual,
                "gram_defect": gram,
                "r": 1,
            })
    parseval = abs(norm2(f_work) ** 2 - norm2(f1) ** 2)
    # A modulus that vanishes on the grid, or an outer part that is not
    # analytic at the grid cap, fails the outer test rather than the call.
    try:
        outer_report = is_n_outer(f1, n, regularize=regularize)
    except (SingularityError, DomainError):
        outer_report = NOuterReport(
            passed=False, rank1_defect=float("inf"),
            outer_defect=float("inf"))
    return NInnerOuterBundle(
        n=n, r=1, inners=(J,), outers=(f1,), residual=residual,
        gram_defect=gram, n_samples=f_work.n_samples, parseval_gap=parseval,
        outer_reports=(outer_report,), inner_tail=tail,
        inner_defect=inner_defect)


def is_n_outer(f: CircleFunction, n: int,
               regularize: bool = False) -> NOuterReport:
    """Test whether f is a degree-< n carrier polynomial times an outer
    series in z^n.

    The z^n splitting must be rank one across its components (checked
    against the largest component as pivot) and the shared base series
    must be outer.  The residue classes are read off the Taylor
    coefficients, where Parseval turns every norm and pairing of the
    components into a coefficient sum; only the base series is
    synthesized, for the outer test.
    """
    require_analytic(f, "is_n_outer")
    N = f.n_samples
    n = _check_modulus(n, N)
    half = N // 2
    K = -(-half // n)
    a = np.zeros(K * n, dtype=complex)
    a[:half] = f.coeffs[half:]
    top = np.max(np.abs(a.view(float)))
    # A[k, i] = 2^-e a_(kn+i): column i is the Taylor series of component
    # i, scaled by the power of two 2^e just above the largest part so that
    # no norm overflows.  The scaling is exact and moves no ratio below.
    _, e = np.frexp(top)
    A = np.ldexp(a.view(float), -e).view(complex).reshape(K, n)
    norms = np.linalg.norm(A, axis=0)
    total = float(np.linalg.norm(norms))
    if np.ldexp(total, e) < EPS_LOG:
        raise DomainError("the zero function has no n-outer verdict")
    pivot = int(np.argmax(norms))
    a_pivot = A[:, pivot]
    # an einsum, not a BLAS product (see circlefn._joint_gram_defect)
    c = np.einsum("k,ki->i", a_pivot.conj(), A) / norms[pivot] ** 2
    worst = float(np.max(np.linalg.norm(A - np.outer(a_pivot, c), axis=0)))
    rank1_defect = worst / total
    # Normalize the carrier: unit coefficient norm, first nonzero
    # coefficient positive real; the base series absorbs the factor.
    nu = float(np.linalg.norm(c))
    k0 = int(np.nonzero(np.abs(c) > 1e-12 * nu)[0][0])
    scale = nu * (c[k0] / abs(c[k0]))
    carrier_arr = np.zeros(N, dtype=complex)
    carrier_arr[half:half + n] = c / scale
    carrier = CircleFunction.from_coeffs(carrier_arr)
    base_arr = np.zeros(N, dtype=complex)
    base_arr[half:half + K] = scale * a[pivot::n]
    base = CircleFunction.from_coeffs(base_arr)
    # Jensen's equality log|base(0)| = mean of log|base|, or infinite gap
    outer_defect = float("inf")
    b0 = abs(base.coeff(0))
    if rank1_defect <= TOL_B_INNER and b0 >= EPS_LOG:
        log_mod = _log_modulus(np.abs(base.samples), regularize, 1)
        outer_defect = abs(float(np.log(b0)) - float(np.mean(log_mod)))
    return NOuterReport(passed=outer_defect <= TOL_OUTER,
                        rank1_defect=rank1_defect,
                        outer_defect=outer_defect,
                        carrier_polynomial=carrier,
                        base_series=base)
