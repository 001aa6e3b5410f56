"""Inner-outer structure on the circle grid.

Classical factorization f = (unimodular) * (outer) is built from the
boundary modulus: u = log|f|, its harmonic conjugate, and
O = exp(u + i*conj(u)).  The modulus of O matches |f| sample for
sample, O(0) > 0 fixes the phase, and the inner part is the quotient.

The same machinery drives the z^n variants.  A function J is n-inner
when the shifted family {z^(n m) J} is orthonormal; a function g of the
form s(z^n) is n-outer when s is outer in the base variable.  A single
generator factors as f = J f_1 with one n-inner J and one n-outer f_1:
split f(z) = sum_i z^i H_i(z^n), form the pointwise modulus
phi = sqrt(sum |H_i|^2) in the base variable, take its outer function
O, and set

    J(z) = sum_i z^i (H_i/O)(z^n),    f_1(z) = O(z^n).

The residual is exact to rounding because every step is a sample
identity; the only approximation is the working grid size, which grows
until the quotient coefficients have decayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .blaschke import BlaschkeSpec, blaschke_eval, compose, power_spec
from .circlefn import (
    EPS_LOG,
    CircleFunction,
    analyze,
    freq_indices,
    gram_defect,
    grid,
    norm2,
    pointwise,
    require_analytic,
    resample,
)
from .decomp import decompose_blaschke, zn_series_components
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
    "BInnerReport",
    "NOuterReport",
    "harmonic_conjugate",
    "outer_from_modulus",
    "inner_outer",
    "is_outer",
    "is_B_inner",
    "b_inner_matrix_from",
    "n_inner_outer_factorize",
    "is_n_outer",
    "outer_multiplier",
]

TOL_OUTER = 1e-6
TOL_B_INNER = 1e-7
TOL_FACTOR_RESIDUAL = 1e-6

# Working-grid control for the direct n-inner construction.  The grid
# doubles until the quotient coefficients have decayed by mid-band.
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

    def meets_invariants(self, tol: float = 1e-7) -> bool:
        return (self.residual <= tol and self.unimodularity_defect <= tol
                and self.outer.is_analytic())


@dataclass(frozen=True, eq=False)
class OuterReport:
    """Jensen-equality verdict: log|f(0)| against the log-modulus mean."""

    passed: bool
    defect: float

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True, eq=False)
class BInnerReport:
    passed: bool
    gram_defect: float
    m_max: int

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

    entries[i][j] is the slot-i component of phi_j, a series in B.
    defect measures the columns' joint orthonormality through the
    coefficient pairing; joint_defect is the same statement measured
    directly on the shifted family {B^m phi_j} and should agree.
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
    inner_reports: Tuple[BInnerReport, ...] = field(default=())

    def meets_invariants(self, tol: float = TOL_FACTOR_RESIDUAL) -> bool:
        return (self.residual <= tol and self.gram_defect <= tol
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
    vals = w.samples
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


def inner_outer(f: CircleFunction, regularize: bool = False) -> InnerOuterPair:
    """Split f into a unimodular part times the outer part of |f|."""
    require_analytic(f, "inner_outer")
    modulus = pointwise(f, None, "abs")
    outer = outer_from_modulus(modulus, regularize=regularize)
    inner = pointwise(f, outer, "div", regularize=regularize)
    # The product is re-formed sample-wise: it is a verification
    # number, not a new bandwidth-guarded function.
    prod = inner.samples * outer.samples
    residual = float(np.sqrt(np.mean(np.abs(prod - f.samples) ** 2)))
    unimod = float(np.max(np.abs(np.abs(inner.samples) - 1.0)))
    return InnerOuterPair(inner=inner, outer=outer, residual=residual,
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


def _shift_gram(mult_samples: np.ndarray, phi_samples: np.ndarray,
                m_max: int) -> np.ndarray:
    """Gram of {mult^m phi : m <= m_max} for unimodular mult.

    Unimodularity collapses the pairings to moments of |phi|^2 against
    powers of mult, so the matrix is Hermitian Toeplitz.
    """
    weights = np.abs(phi_samples) ** 2
    moments = np.empty(m_max + 1, dtype=complex)
    acc = weights.astype(complex)
    for d in range(m_max + 1):
        moments[d] = np.mean(acc)
        acc = acc * mult_samples
    G = np.empty((m_max + 1, m_max + 1), dtype=complex)
    for m in range(m_max + 1):
        for mp in range(m_max + 1):
            d = m - mp
            G[m, mp] = moments[d] if d >= 0 else np.conj(moments[-d])
    return G


def is_B_inner(phi: CircleFunction, spec: BlaschkeSpec,
               m_max: int) -> BInnerReport:
    """Check that {B^m phi : m <= m_max} is orthonormal."""
    require_analytic(phi, "is_B_inner")
    if m_max < 0:
        raise ParameterError("m_max must be >= 0")
    bz = blaschke_eval(spec, grid(phi.n_samples))
    G = _shift_gram(bz, phi.samples, m_max)
    defect = float(np.max(np.abs(G - np.eye(m_max + 1))))
    return BInnerReport(passed=defect <= TOL_B_INNER, gram_defect=defect,
                        m_max=m_max)


def _joint_gram_defect(mult_samples: np.ndarray,
                       members: Sequence[np.ndarray], m_max: int) -> float:
    """Orthonormality defect of {mult^m v : v in members, m <= m_max}."""
    rows = []
    for v in members:
        acc = v
        for _ in range(m_max + 1):
            rows.append(acc)
            acc = acc * mult_samples
    return gram_defect(np.asarray(rows))


def b_inner_matrix_from(phis: Sequence[CircleFunction], spec: BlaschkeSpec,
                        m_max: int, tol: float = TOL_B_INNER) -> BInnerMatrix:
    """Expand each phi_j over the factor slots of B and grade the result.

    The column pairing sums coefficient inner products across slots; a
    family is jointly B-inner exactly when this matrix of pairings is
    the identity, and the directly measured shifted-family Gram is
    reported alongside as a cross-check.
    """
    r = len(phis)
    n = spec.degree
    if r == 0:
        raise ParameterError("need at least one column")
    if r > n:
        raise RankError(f"{r} columns exceed the {n} factor slots of B")
    N = phis[0].n_samples
    coeff_blocks = []
    entry_cols = []
    worst_resid = 0.0
    for phi in phis:
        if phi.n_samples != N:
            raise SizeError("all columns must share one grid")
        dec = decompose_blaschke(phi, spec, m_max)
        coeff_blocks.append(dec.basis_coefficients)
        entry_cols.append(dec.components)
        worst_resid = max(worst_resid, dec.residual)
    defect = gram_defect(np.array([c.ravel() for c in coeff_blocks]), 1)
    bz = blaschke_eval(spec, grid(N))
    joint = _joint_gram_defect(bz, [phi.samples for phi in phis], m_max)
    entries = tuple(
        tuple(entry_cols[j][i] for j in range(r)) for i in range(n)
    )
    return BInnerMatrix(rows=n, cols=r, entries=entries, defect=defect,
                        joint_defect=joint, tol=tol,
                        decomposition_residual=worst_resid)


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
    n_work = max(f.n_samples, WORK_GRID_FLOOR)
    while True:
        parts = [resample(s, n_work) for s in zn_series_components(f, n)]
        phi_sq = np.zeros(n_work)
        for p in parts:
            phi_sq += np.abs(p.samples) ** 2
        modulus = CircleFunction.from_samples(np.sqrt(phi_sq))
        outer = outer_from_modulus(modulus, regularize=regularize)
        thetas = [p.samples / outer.samples for p in parts]
        # Quotient coefficient tails drive every grid-level error here;
        # grow the grid until they have died by mid-band.
        half = n_work // 2
        start = half + max(half // (2 * n), 1)
        tail = max(
            float(np.linalg.norm(analyze(t)[start:])) for t in thetas
        )
        if tail <= WORK_TAIL_TARGET or n_work >= WORK_GRID_CAP:
            break
        n_work *= 2
    z = grid(n_work)
    idx = (n * np.arange(n_work)) % n_work
    J_samples = np.zeros(n_work, dtype=complex)
    for i, t in enumerate(thetas):
        J_samples += (z ** i) * t[idx]
    J = CircleFunction.from_samples(J_samples)
    f1 = CircleFunction.from_samples(outer.samples[idx])
    f_work = resample(f, n_work)
    residual = float(np.sqrt(np.mean(
        np.abs(J.samples * f1.samples - f_work.samples) ** 2)))
    gram = _joint_gram_defect(z ** n, [J.samples], m_max_check)
    parseval = abs(norm2(f_work) ** 2 - norm2(f1) ** 2)
    try:
        outer_report = is_n_outer(f1, n, regularize=regularize)
    except SingularityError:
        outer_report = NOuterReport(
            passed=False, rank1_defect=float("inf"),
            outer_defect=float("inf"))
    bundle = NInnerOuterBundle(
        n=n, r=1, inners=(J,), outers=(f1,), residual=residual,
        gram_defect=gram, n_samples=n_work, parseval_gap=parseval,
        outer_reports=(outer_report,),
        inner_reports=(is_B_inner(J, power_spec(n), m_max_check),))
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


def is_n_outer(f: CircleFunction, n: int, tol: float = TOL_B_INNER,
               regularize: bool = False) -> NOuterReport:
    """Test whether f is a degree-< n carrier polynomial times an outer
    series in z^n.

    The z^n splitting must be rank one across its components (checked
    against the largest component as pivot) and the shared base series
    must be outer.
    """
    require_analytic(f, "is_n_outer")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
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
    if rank1_defect <= tol:
        rep = is_outer(base, regularize=regularize)
        outer_ok = rep.passed
        outer_defect = rep.defect
    return NOuterReport(passed=(rank1_defect <= tol and outer_ok),
                        rank1_defect=rank1_defect,
                        outer_defect=outer_defect,
                        carrier_polynomial=carrier,
                        base_series=base)


def outer_multiplier(f: CircleFunction, spec: Optional[BlaschkeSpec],
                     m_index: int) -> CircleFunction:
    """Analytic damping factor exp(-( |g|^(1/2) + i conj(|g|^(1/2)) )/m).

    g is f itself, or f composed with the Blaschke product when a spec
    is supplied (for arguments stored in base-variable form).  The
    output satisfies |q| <= 1 on the grid and tends to 1 as the index
    grows, uniformly at rate |g|^(1/2)/m.
    """
    if m_index < 1:
        raise ParameterError("m_index must be >= 1")
    require_analytic(f, "outer_multiplier")
    g = compose(f, spec) if spec is not None else f
    root = np.sqrt(np.abs(g.samples))
    u = CircleFunction.from_samples(-root / m_index)
    conj_samples = harmonic_conjugate(u).samples.real
    return CircleFunction.from_samples(
        np.exp(u.samples.real + 1j * conj_samples))
