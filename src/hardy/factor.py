"""Inner-outer structure on the circle grid.

A function J is n-inner when the shifted family {z^(n m) J} is
orthonormal; a function of the form s(z^n) is n-outer when s is outer.
Every f factors as f = J F with one n-inner J and one n-outer F, and
n = 1 is the classical split into an inner part and the outer part of
|f|.  One construction serves every n, on a work grid in z:

  1. split f(z) = sum_i z^i h_i(z^n) by residue class, the samples of
     every h_i(z^n) from one block transform (decomp._residue_rows);
  2. form phi = sqrt(sum_i |h_i(z^n)|^2), a function of z^n;
  3. take F = exp(u + i*conj(u)) with u = log phi (outer_from_modulus).
     The conjugate of a series in z^n is a series in z^n, so F = O(z^n)
     with O the outer function of phi, and F(0) > 0 fixes the phase;
  4. set J = f / F, so that J(z) = sum_i z^i (h_i/O)(z^n) and
     sum_i |h_i/O|^2 = 1: J is n-inner.

The residual is exact to rounding because every step is a sample
identity.  The only approximation is the work grid, which starts at
WORK_GRID_FLOOR points and doubles, up to WORK_GRID_CAP, until the
Taylor tail of J beyond three quarters of the band has decayed.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .blaschke import BlaschkeSpec, blaschke_eval
from .circlefn import (
    EPS_LOG,
    CircleFunction,
    _graded_rows,
    freq_indices,
    gram_defect,
    grid,
    norm2,
    require_analytic,
    resample,
)
from .decomp import _residue_rows, _split_blaschke, zn_series_components
from .errors import (
    DomainError,
    FactorizationError,
    ParameterError,
    RankError,
    SingularityError,
    SizeError,
)

__all__ = [
    "InnerOuterPair",
    "NInnerOuterBundle",
    "BInnerMatrix",
    "OuterReport",
    "NOuterReport",
    "harmonic_conjugate",
    "outer_from_modulus",
    "inner_outer",
    "is_outer",
    "b_inner_matrix_from",
    "n_inner_outer_factorize",
    "is_n_outer",
]

TOL_OUTER = 1e-6
TOL_B_INNER = 1e-7
TOL_FACTOR_RESIDUAL = 1e-6

# Work-grid control for the inner-outer construction.  The grid doubles
# until the quotient's Taylor tail has decayed.
WORK_TAIL_TARGET = 1e-9
WORK_GRID_FLOOR = 8192
WORK_GRID_CAP = 1 << 17


@dataclass(frozen=True, eq=False)
class InnerOuterPair:
    """f = inner * outer with the two measured quality numbers."""

    inner: CircleFunction
    outer: CircleFunction
    residual: float
    unimodularity_defect: float

    def meets_invariants(self) -> bool:
        return (self.residual <= 1e-7 and self.unimodularity_defect <= 1e-7
                and self.outer.is_analytic())


@dataclass(frozen=True, eq=False)
class OuterReport:
    """Jensen-equality verdict: log|f(0)| against the log-modulus mean."""

    passed: bool
    defect: float

    def __bool__(self) -> bool:
        return self.passed


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
    coefficient decay demands it; ``n_samples`` records it.
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

    def meets_invariants(self) -> bool:
        return (self.residual <= TOL_FACTOR_RESIDUAL
                and self.gram_defect <= TOL_FACTOR_RESIDUAL
                and all(rep.passed for rep in self.outer_reports))


def harmonic_conjugate(u: CircleFunction) -> CircleFunction:
    """Conjugate function: coefficient j is scaled by -i*sgn(j).

    The mean is dropped and so is the bottom (unpaired) index, which
    keeps the output real; u + i*conjugate is then analytic except for
    whatever mass u carried at that unpaired index.
    """
    if float(np.max(np.abs(u.samples.imag))) > 1e-10:
        raise DomainError("harmonic_conjugate needs a real-valued input")
    N = u.n_samples
    freqs = freq_indices(N)
    c = -1j * np.sign(freqs) * u.coeffs
    c[0] = 0.0
    return CircleFunction.from_coeffs(c)


def outer_from_modulus(w: CircleFunction, regularize: bool = False) -> CircleFunction:
    """The analytic function with |O| = w on the grid and O(0) > 0.

    O = exp(u + i*conj(u)) with u = log w.  Moduli below EPS_LOG raise
    SingularityError unless ``regularize`` floors them there.
    """
    return _outer_from_samples(w.samples, regularize)


def _outer_from_samples(vals: np.ndarray, regularize: bool) -> CircleFunction:
    """outer_from_modulus for the modulus given by its grid samples."""
    if float(np.max(np.abs(vals.imag))) > 1e-10:
        raise DomainError("outer_from_modulus needs a real-valued modulus")
    mod = vals.real
    if float(np.min(mod)) < -1e-10:
        raise DomainError("outer_from_modulus needs a nonnegative modulus")
    mod = np.maximum(mod, 0.0)
    bad = np.nonzero(mod < EPS_LOG)[0]
    if bad.size and not regularize:
        raise SingularityError(
            f"modulus below {EPS_LOG:g} at {bad.size} grid points; "
            f"pass regularize=True to floor it", bad[:16]
        )
    u_samples = np.log(np.maximum(mod, EPS_LOG))
    u = CircleFunction.from_samples(u_samples)
    conj_samples = harmonic_conjugate(u).samples.real
    return CircleFunction.from_samples(np.exp(u_samples + 1j * conj_samples))


def _factor(f: CircleFunction, n: int, regularize: bool
            ) -> Tuple[CircleFunction, CircleFunction, CircleFunction]:
    """The construction of the module docstring: (J, F, f) with f
    resampled to the work grid that J and F live on."""
    n_work = max(f.n_samples, WORK_GRID_FLOOR)
    while True:
        f_work = resample(f, n_work)
        _, pieces = _residue_rows(f_work, n, base_variable=False)
        phi = np.sqrt(np.sum(np.abs(pieces) ** 2, axis=0))
        outer = _outer_from_samples(phi, regularize)
        inner = CircleFunction.from_samples(f_work.samples / outer.samples)
        tail = float(np.linalg.norm(inner.coeffs[3 * n_work // 4:]))
        if tail <= WORK_TAIL_TARGET or n_work >= WORK_GRID_CAP:
            return inner, outer, f_work
        n_work *= 2


def _residual(inner: CircleFunction, outer: CircleFunction,
              f: CircleFunction) -> float:
    """RMS of inner * outer - f, formed sample-wise: a verification
    number, not a new bandwidth-guarded function."""
    return float(np.sqrt(np.mean(
        np.abs(inner.samples * outer.samples - f.samples) ** 2)))


def inner_outer(f: CircleFunction, regularize: bool = False) -> InnerOuterPair:
    """Split f into a unimodular part times the outer part of |f|.

    The construction is n_inner_outer_factorize's at n = 1, so both
    parts live on its work grid of at least WORK_GRID_FLOOR points.
    """
    require_analytic(f, "inner_outer")
    inner, outer, f_work = _factor(f, 1, regularize)
    unimod = float(np.max(np.abs(np.abs(inner.samples) - 1.0)))
    return InnerOuterPair(inner=inner, outer=outer,
                          residual=_residual(inner, outer, f_work),
                          unimodularity_defect=unimod)


def is_outer(f: CircleFunction, regularize: bool = False) -> OuterReport:
    """Test the Jensen equality log|f(0)| = mean of log|f|.

    A zero value at the origin short-circuits to a failed report with
    an infinite defect.
    """
    require_analytic(f, "is_outer")
    a0 = f.coeff(0)
    if abs(a0) < EPS_LOG:
        return OuterReport(passed=False, defect=float("inf"))
    mod = np.abs(f.samples)
    bad = np.nonzero(mod < EPS_LOG)[0]
    if bad.size and not regularize:
        raise SingularityError(
            f"modulus below {EPS_LOG:g} at {bad.size} grid points", bad[:16]
        )
    mean_log = float(np.mean(np.log(np.maximum(mod, EPS_LOG))))
    defect = abs(float(np.log(abs(a0))) - mean_log)
    return OuterReport(passed=defect <= TOL_OUTER, defect=defect)


def _joint_gram_defect(mult_samples: np.ndarray,
                       members: Sequence[np.ndarray], m_max: int) -> float:
    """Orthonormality defect of {mult^m v : v in members, m <= m_max}."""
    return gram_defect(_graded_rows((), members, mult_samples, m_max + 1))


def b_inner_matrix_from(phis: Sequence[CircleFunction], spec: BlaschkeSpec,
                        m_max: int) -> BInnerMatrix:
    """Expand each phi_j = sum_i e(i, 0) h_ij(B) over the factor slots of
    B and grade the result (see BInnerMatrix).

    <B^m phi_a, phi_b> is the m-th Fourier coefficient of (H^* H)_ba, so
    the family is jointly B-inner exactly when H^* H = I on the circle.
    The columns are split at the family's largest automatic cutoff, on
    one phase grid where an inverse FFT of the rows gives the h_ij.
    """
    if (isinstance(m_max, bool) or not isinstance(m_max, numbers.Integral)
            or m_max < 0):
        raise ParameterError(f"m_max must be an integer >= 0, got {m_max!r}")
    r = len(phis)
    n = spec.degree
    if r == 0:
        raise ParameterError("need at least one column")
    if r > n:
        raise RankError(f"{r} columns exceed the {n} factor slots of B")
    N = phis[0].n_samples
    if any(phi.n_samples != N for phi in phis):
        raise SizeError("all columns must share one grid")
    decs = _split_blaschke(phis, spec, None)
    M = decs[0].phase_grid
    # H[i, l, j] = h_ij(exp(2 pi i l / M))
    H = M * np.fft.ifft(np.stack([d.basis_coefficients for d in decs], 2),
                        n=M, axis=1)
    gram = np.einsum("ila,ilb->lab", H.conj(), H)
    defect = float(np.max(np.abs(gram - np.eye(r))))
    joint = _joint_gram_defect(blaschke_eval(spec, grid(N)),
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
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if norm2(f) < EPS_LOG:
        raise DomainError("cannot factor the zero function")
    J, f1, f_work = _factor(f, n, regularize)
    n_work = f_work.n_samples
    residual = _residual(J, f1, f_work)
    gram = _joint_gram_defect(grid(n_work) ** n, [J.samples], m_max_check)
    parseval = abs(norm2(f_work) ** 2 - norm2(f1) ** 2)
    # A modulus that vanishes on the grid, or an outer part that is not
    # analytic at the grid cap, fails the outer test rather than the call.
    try:
        outer_report = is_n_outer(f1, n, regularize=regularize)
    except (SingularityError, DomainError):
        outer_report = NOuterReport(
            passed=False, rank1_defect=float("inf"),
            outer_defect=float("inf"))
    bundle = NInnerOuterBundle(
        n=n, r=1, inners=(J,), outers=(f1,), residual=residual,
        gram_defect=gram, n_samples=n_work, parseval_gap=parseval,
        outer_reports=(outer_report,))
    if residual > TOL_FACTOR_RESIDUAL:
        raise FactorizationError(
            f"factorization residual {residual:.3e} exceeds "
            f"{TOL_FACTOR_RESIDUAL:g}",
            diagnostics={
                "residual": residual,
                "gram_defect": gram,
                "r": 1,
            })
    return bundle


def is_n_outer(f: CircleFunction, n: int,
               regularize: bool = False) -> NOuterReport:
    """Test whether f is a degree-< n carrier polynomial times an outer
    series in z^n.

    The z^n splitting must be rank one across its components (checked
    against the largest component as pivot) and the shared base series
    must be outer.
    """
    require_analytic(f, "is_n_outer")
    parts = zn_series_components(f, n)
    norms = np.array([norm2(p) for p in parts])
    total = float(np.linalg.norm(norms))
    if total < EPS_LOG:
        raise DomainError("the zero function has no n-outer verdict")
    pivot = int(np.argmax(norms))
    sp = parts[pivot]
    sp_sq = norm2(sp) ** 2
    c = np.zeros(n, dtype=complex)
    worst = 0.0
    for i, p in enumerate(parts):
        ci = complex(np.vdot(sp.samples, p.samples) / f.n_samples) / sp_sq
        c[i] = ci
        diff = p.samples - ci * sp.samples
        worst = max(worst, float(np.sqrt(np.mean(np.abs(diff) ** 2))))
    rank1_defect = worst / total
    # Normalize the carrier: unit coefficient norm, first nonzero
    # coefficient positive real; the base series absorbs the factor.
    nu = float(np.linalg.norm(c))
    k0 = int(np.nonzero(np.abs(c) > 1e-12 * nu)[0][0])
    scale = nu * (c[k0] / abs(c[k0]))
    p_coeffs = c / scale
    half = f.n_samples // 2
    carrier_arr = np.zeros(f.n_samples, dtype=complex)
    carrier_arr[half:half + n] = p_coeffs
    carrier = CircleFunction.from_coeffs(carrier_arr)
    base = scale * sp
    outer_ok = False
    outer_defect = float("inf")
    if rank1_defect <= TOL_B_INNER:
        rep = is_outer(base, regularize=regularize)
        outer_ok = rep.passed
        outer_defect = rep.defect
    return NOuterReport(passed=(rank1_defect <= TOL_B_INNER and outer_ok),
                        rank1_defect=rank1_defect,
                        outer_defect=outer_defect,
                        carrier_polynomial=carrier,
                        base_series=base)

