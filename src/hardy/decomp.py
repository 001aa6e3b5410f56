"""Orthogonal decompositions along a Blaschke product or along z^n.

Two splittings of an analytic grid function f:

  * decompose_blaschke projects f onto the basis e(j, m) up to a power
    cutoff m_max, giving one component per factor slot j.  Each
    component is a series in B and the carriers are the e(j, 0).

  * decompose_zn selects the coefficients of f by residue class mod n:
    f(z) = sum_i z^i h_i(z^n), where z^i h_i(z^n) collects the
    coefficients with index congruent to i mod n.  This is the
    roots-of-unity average (1/n) sum_l w^(-l i) f(w^l z), w = exp(2 pi i
    / n), evaluated exactly: off the residue class the coefficients are
    exact zeros and the recomposition is exact to rounding.  All n
    components come from one (n, N) block and one inverse FFT.

Also here: Fejer (Cesaro) means and the convergence profile of Fejer
means measured in a gauge norm.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .blaschke import BlaschkeSpec, _basis_carriers
from .circlefn import (
    CircleFunction,
    _count,
    _frozen,
    _integer,
    _one_blas_thread,
    _synthesize_array,
    grid,
    norm2,
    require_analytic,
)
from .errors import ParameterError
from .norms import GaugeNormSpec

__all__ = [
    "DecompositionResult",
    "decompose_blaschke",
    "decompose_zn",
    "cesaro_convergence_profile",
]

# Most series terms, n (m + 1) for n zeros and m powers, a Blaschke
# split computes.
MAX_SERIES_TERMS = 2 ** 19


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """Components, their carriers, and the residual.

    The reconstruction is sum_i carrier_i * component_i on samples.  In
    Blaschke mode component j at z_k is the point value sum_m c_jm
    B(z_k)^m, so the pieces add back up to f at every grid point to
    about the residual, the L2 norm of what the powers leave of f (see
    decompose_blaschke).  The price is the coefficient view of a piece:
    once the spectrum of B^m exceeds the grid (zero radii above about
    0.85 at N = 1024) its ``coeffs`` alias; for the zeros (0, r, -ir) and
    ten seeded degree-24 inputs the largest ``negative_energy`` of a
    piece is 5e-3 at r = 0.9 and 0.8 at r = 0.958.  Piece j is exactly
    row j of ``basis_coefficients`` (slot j by power m), whose squared
    l2 norm is the squared subspace norm the Pythagoras identity refers
    to.  When B vanishes at the origin the rows end at the exact cutoff:
    the pairings beyond it and the residual are exact zeros.
    """

    mode: str
    components: Tuple[CircleFunction, ...]
    carriers: Tuple[CircleFunction, ...]
    residual: float
    basis_coefficients: Optional[np.ndarray] = None

    def component_norms(self) -> Tuple[float, ...]:
        """Subspace norms of the components.

        Blaschke mode: l2 norms of the coefficient rows.  z^n mode:
        grid L2 norms (the two agree there because powers of z^n are
        orthonormal).
        """
        if self.basis_coefficients is not None:
            return tuple(float(np.linalg.norm(row))
                         for row in self.basis_coefficients)
        return tuple(norm2(c) for c in self.components)


def _auto_m_max(spec: BlaschkeSpec, degree: int) -> int:
    """Power cutoff for an input of Taylor degree ``degree``: exact when
    B vanishes at the origin, else sized so the tail is below ~1e-10.

    Write B = z^k B~ with k zeros at the origin.  Every e(j, m) lies in
    z^(m k) H^2, so <f, e(j, m)> = 0 exactly once m k > degree: with
    k >= 1 the cutoff is at most degree // k, and B = z^k takes exactly
    that.  The zeros off the origin give a second bound: enough powers
    for the slowest winding pocket to sweep past the input's top
    frequency (a factor with zero radius r winds at least at
    (1 - r)/(1 + r)), then extra powers for the tail, which decays by a
    factor of about sqrt(|zero|) per factor per power.  The cutoff is
    the smaller bound.
    """
    radii = np.abs(np.asarray(spec.zeros, dtype=complex))
    positive = radii[radii > 0.0]
    at_origin = radii.size - positive.size
    cutoffs = [degree // at_origin] if at_origin else []
    if positive.size:
        w_min = float(np.sum((1.0 - radii) / (1.0 + radii)))
        coverage = int(np.ceil(max(degree, 1) / w_min))
        nats_per_power = float(np.sum(-np.log(positive))) / 2.0
        cutoffs.append(coverage + int(np.ceil(27.0 / nats_per_power)) + 8)
    return min(cutoffs)


def decompose_blaschke(f: CircleFunction, spec: BlaschkeSpec,
                       m_max: Optional[int] = None) -> DecompositionResult:
    """Split f along the factor slots of B up to basis power m_max.

    Component j is sum_m <f, e(j, m)> B^m, a series in B; carrier j is
    e(j, 0).  With m_max=None the cutoff is sized automatically from
    the input's degree d = f.top_index(), which c * f shares with f (see
    _auto_m_max): when B has k >= 1 zeros at the origin it is at most
    d // k, past which every pairing is exactly zero, else it follows
    the slowest winding rate of B.

    The pairings are exact finite sums on the Taylor band 0 .. d of f.
    P+(conj(B) g) is in the band with g, so the adjoint of multiplication
    by B acts there as T^H, T the lower-triangular Toeplitz matrix of B's
    Taylor coefficients 0 .. d, and <f, e(j, m)> = <(T^H)^m f, e(j, 0)>,
    with (T^H)^p an FFT correlation (see _build_step).  As ||T|| <= 1,
    rounding is not amplified from step to step.  With k zeros at the
    origin T^H moves the band down by k, so every pairing past d // k is
    an exact zero.  More than
    MAX_SERIES_TERMS = 2^19 series terms, n (m + 1) for n zeros and m
    the larger of m_max and the automatic cutoff, raise ParameterError
    before anything is allocated.  The residual, ||(T^H)^(m_max + 1) f||
    as multiplication by B is an isometry, is the L2 norm of what the
    powers up to m_max leave of f (0.0 at an exact cutoff); it is
    reported, not raised.  The returned functions are point values on
    the input's grid (see DecompositionResult).
    """
    res, = _split_blaschke([f], spec, m_max, "decompose_blaschke")
    return res


def _split_blaschke(fs: Sequence[CircleFunction], spec: BlaschkeSpec,
                    m_max: Optional[int],
                    who: str) -> List[DecompositionResult]:
    """decompose_blaschke for inputs on one grid, on the band of the
    largest degree d; m_max=None takes the largest of their automatic
    cutoffs.  What does not depend on the inputs is kept per B (see
    _kept): the step of p powers per d and p (see _build_step) and B's
    grid view per N.  The pieces on the grid are read-only rows of one
    block (see _series_in).  A non-analytic input is refused in the name
    of the caller who."""
    for f in fs:
        require_analytic(f, who)
    degrees = [f.top_index() for f in fs]
    d = max(degrees)
    m_auto = _auto_m_max(spec, d)  # grows with the degree
    m_max = m_auto if m_max is None else _count(m_max, "m_max")
    n = spec.degree
    terms = n * (max(m_max, m_auto) + 1)
    if terms > MAX_SERIES_TERMS:
        raise ParameterError(f"decomposition needs {terms} series terms, more "
                             f"than {MAX_SERIES_TERMS}; move the zeros inward")
    p = 1  # powers a step: past the terms while kept, else 32 pairings
    while p <= m_max and ((2 * p * n + 4) * (d + 1) <= _KEPT_POINTS
                          or 2 * p * n <= 32):
        p *= 2
    step = _kept(_build_step, _zeros_bits(spec), (d, p),
                 (p * n + 4) * (d + 1))  # a bound on its points
    # The negative-index part of f pairs to zero with every e(j, m), and
    # the Taylor tail beyond the degree is rounding dust.
    half = fs[0].n_samples // 2
    v = np.zeros((len(fs), d + 1), dtype=complex)
    for k, (f, degree) in enumerate(zip(fs, degrees)):
        v[k, :degree + 1] = f.coeffs[half:half + degree + 1]
    coeffs, rest = _pairings(step, v, n, m_max + 1)
    bz, carriers = _grid_view(spec, fs[0].n_samples)
    # piece j of input k: sum_m c_kjm B^m, a read-only row of one block
    series = _series_in if n > 1 else _one_row_series_in
    pieces = _frozen(series(coeffs, bz))
    return [DecompositionResult(
        mode="blaschke",
        components=tuple(CircleFunction._of(bz.size, p) for p in pieces[k]),
        carriers=carriers, residual=float(np.linalg.norm(rest[k])),
        basis_coefficients=coeffs[k]) for k in range(len(fs))]


@_one_blas_thread
def _pairings(step, v: np.ndarray, n: int, terms: int):
    """The pairings of each band in the (k, d + 1) stack v with powers
    0 .. terms - 1, as (k, n, terms), and the rest, whose l2 norm is what
    they leave: the last step's pairings past them and the band after
    it.  One product and FFT per input, so its bits do not depend on the
    others split with it at its degree, on one BLAS thread: OpenBLAS
    threads a product of 2^13 points (degree 90, three zeros)."""
    rows, kernel, drop = step
    block = rows.shape[0]  # pairings per step
    out = np.zeros((len(v), -(-terms * n // block) * block), dtype=complex)
    for start in range(0, terms * n, block):
        out[:, start:start + block] = (
            rows[:, :v.shape[1]] @ v[..., None])[..., 0]
        v = np.fft.ifft(np.fft.fft(v, kernel.size) * kernel)[
            :, :max(v.shape[1] - drop, 0)]
    rest = np.concatenate([out[:, terms * n:], v], axis=1)
    return np.ascontiguousarray(
        out[:, :terms * n].reshape(len(v), terms, n).transpose(0, 2, 1)), rest


# Cap on n L N for the baby-step table of a Blaschke split (see
# _series_in): the table stays under 1 MiB, and the block length L it
# gives depends on B, N and the number of terms, not on the inputs split
# together, so neither do a piece's bits.  It also keeps a product of
# two or more rows below the size OpenBLAS threads (2^18 multiply-adds);
# another cap would move digits.
_ONE_THREAD_PRODUCT = 1 << 16


def _baby_steps(bz: np.ndarray, L: int) -> np.ndarray:
    """B^0 .. B^(L-1) on the grid by a running product."""
    powers = np.empty((L, bz.size), dtype=complex)
    powers[0] = 1.0
    for l in range(1, L):
        np.multiply(powers[l - 1], bz, out=powers[l])
    return powers


def _series_in(coeffs: np.ndarray, bz: np.ndarray) -> np.ndarray:
    """sum_m coeffs[k, j, m] B^m on the N-point grid for every k and j, by
    baby and giant steps (Paterson and Stockmeyer): one matrix product of
    each block of L coefficients with B^0 .. B^(L-1), then Horner's rule
    in B^L from the top block down.  L is the number of terms, but n L N
    stays below _ONE_THREAD_PRODUCT for n sheets, so the table holds
    fewer than 2^16 points (1 MiB) unless N alone exceeds that.  The sums
    agree with Horner's rule to rounding.  The product is stacked per
    input k, so an input's bits do not depend on the others: a one-row
    BLAS product runs another kernel than a product of more rows."""
    n, terms = coeffs.shape[-2:]
    L = min(terms, max(1, (_ONE_THREAD_PRODUCT - 1) // (n * bz.size)))
    powers = _baby_steps(bz, L)
    top = (terms - 1) // L * L
    acc = coeffs[..., top:] @ powers[:terms - top]
    giant = powers[-1] * bz  # B^L
    for start in range(top - L, -1, -L):
        acc *= giant
        acc += coeffs[..., start:start + L] @ powers
    return acc


@_one_blas_thread
def _one_row_series_in(coeffs: np.ndarray, bz: np.ndarray) -> np.ndarray:
    """_series_in for one zero, on one BLAS thread: each input's product
    is then a single row, which OpenBLAS threads as a matrix-vector
    product from about 2^13 multiply-adds.  With more zeros the cap keeps
    every product below the size it threads, and setting the thread count
    would only cost its set and restore, about 8 us a split."""
    return _series_in(coeffs, bz)


# Largest table a split keeps for later calls (see _kept).
_KEPT_POINTS = 1 << 13


def _kept(build, key, size: int, points: int):
    """build(key, size), kept for later calls with the same arguments when
    it has at most _KEPT_POINTS points (128 KiB at 16 bytes a point; a
    carrier block of decompose_zn counts its samples, not its unit
    coefficients).  The 64 latest are kept; a larger table is built for
    its call and freed with its result.  Tables are read-only, so kept or
    fresh, tables and results are the same bits."""
    if points > _KEPT_POINTS:
        return build(key, size)
    return _kept_tables(build, key, size)


@functools.lru_cache(maxsize=64)
def _kept_tables(build, key, size: int):
    return build(key, size)


def _zeros_bits(spec: BlaschkeSpec) -> bytes:
    """B's key in the kept store: -0.0 and 0.0 never alias."""
    return np.asarray(spec.zeros, complex).tobytes()


def _build_step(zeros: bytes, shape: Tuple[int, int]):
    """B's read-only step on the Taylor band 0 .. d for p powers, shape
    (d, p): the rows q n + j, q < p, of the conjugated coefficients of
    e(j, q) = e(j, 0) B^q, which pair a band with the next p powers; the
    spectrum of B^p, whose FFT correlation (T^H)^p moves a band p powers
    on; and k p for k zeros at the origin, the entries it then drops.
    FFT products cut to the band build these from (z - a)/(1 - conj(a) z)
    = -a + (1 - |a|^2) sum_(i>=1) conj(a)^(i-1) z^i and e(j, 0) =
    sqrt(1 - |a|^2) sum_i conj(a)^i z^i B_j."""
    d, p = shape
    zeros = np.frombuffer(zeros, complex)
    size = 1 << (2 * d).bit_length()  # above 2 d: nothing wraps

    def times(x, y):  # Taylor rows 0 .. d of x y, in their precision
        return np.fft.ifft(np.fft.fft(x, size) * np.fft.fft(y, size))[
            ..., :d + 1]

    # B in extended precision: the split applies B^p's rounding m / p times
    carriers, b = [], np.eye(1, d + 1, dtype=np.clongdouble)[0]
    for a in zeros.astype(np.clongdouble):  # b: B_j, then B
        powers = np.cumprod(np.r_[1, np.full(d, np.conj(a))])
        carriers.append(times(np.sqrt(1.0 - abs(a) ** 2) * powers, b))
        b = times(np.append(-a, (1.0 - abs(a) ** 2) * powers[:-1]), b)
    rows = np.array(carriers, dtype=complex)[None]  # (q, n, d + 1)
    while rows.shape[0] < p:  # rows 0 .. q - 1 and b = B^q
        rows = np.concatenate([rows, times(rows, b.astype(complex))])
        b = times(b, b)
    k = int(np.count_nonzero(zeros == 0))  # B^q: k q leading zeros
    rows = np.where(np.r_[:d + 1] < k * np.arange(p)[:, None, None], 0, rows)
    return (_frozen(np.conj(rows).reshape(p * len(zeros), d + 1)),
            _frozen(np.conj(np.fft.fft(b.astype(complex), size))), k * p)


def _grid_view(spec: BlaschkeSpec, N: int):
    """B's read-only samples on the N-point grid and the carriers e(j, 0),
    (2 n + 1) N points counting the carriers' coefficients."""
    return _kept(_build_grid_view, _zeros_bits(spec), N,
                 (2 * spec.degree + 1) * N)


def _build_grid_view(zeros: bytes, N: int):
    spec = BlaschkeSpec(tuple(np.frombuffer(zeros, complex)))
    carriers, bz = _basis_carriers(spec, grid(N))
    return _frozen(bz), tuple(CircleFunction.from_samples(s) for s in carriers)


def _check_modulus(n: int, N: int) -> int:
    """n as an int; a modulus outside 1 .. N/2 for an N-point grid is
    refused before anything is allocated for it."""
    n = _integer(n, "n")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if n > N // 2:
        raise ParameterError(f"n = {n} leaves no room for the carriers "
                             f"on a grid of {N}")
    return n


def _residue_rows(f: CircleFunction, n: int, size: Optional[int] = None
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only (n, size) coefficient and sample blocks whose row i
    holds the a_(kn+i) of f, one strided slice per residue class.

    a_(kn+i) sits at index k n size / N, negative k kept (rounding dust
    of a nominally analytic input, dropped below the band): on f's own
    grid (size N, the default) row i is h_i(z^n).  A grid of size N / g,
    g a common divisor of n and N, samples the same function in u =
    z^g, which takes only that many values: row i is h_i(u^(n/g)).  One
    inverse FFT gives the samples; n is a checked modulus."""
    N = f.n_samples
    size = N if size is None else size
    half = N // 2
    step = n * size // N
    first = -(half // n)  # the lowest k
    start = size // 2 + first * step
    coeffs = f.coeffs
    block = np.zeros((n, size), dtype=complex)
    for i in range(n):
        # a_(kn+i) beyond the band reads 0
        cls = coeffs[half + first * n + i::n]
        block[i, start:start + step * cls.size:step] = cls
    return _frozen(block), _frozen(_synthesize_array(block))


def _functions(samples: np.ndarray, coeffs: np.ndarray
               ) -> Tuple[CircleFunction, ...]:
    """The rows of two read-only (k, N) blocks as functions, no copies."""
    return tuple(CircleFunction._of(samples.shape[1], s, c)
                 for s, c in zip(samples, coeffs))


def _zn_carriers(n: int, N: int
                 ) -> Tuple[np.ndarray, Tuple[CircleFunction, ...]]:
    """The carriers z^0 .. z^(n-1) on the N-point grid, 1 <= n <= N/2:
    their read-only (n, N) sample block and the functions, kept when the
    block has at most _KEPT_POINTS samples (see _kept)."""
    return _kept(_build_carriers, n, N, n * N)


def _build_carriers(n: int, N: int
                    ) -> Tuple[np.ndarray, Tuple[CircleFunction, ...]]:
    units = np.zeros((n, N), dtype=complex)
    units[np.arange(n), N // 2 + np.arange(n)] = 1.0
    samples = _frozen(_synthesize_array(units))
    return samples, _functions(samples, _frozen(units))


def decompose_zn(f: CircleFunction, n: int) -> DecompositionResult:
    """Split f into carriers z^i times series in z^n by coefficient
    selection; any n up to half the grid works.

    Component i holds the coefficients of f with index congruent to i
    mod n, moved down by i; every other coefficient is an exact zero.
    The components come from one block transform; small splits share
    their carriers with earlier calls of the same n on the same grid.
    """
    require_analytic(f, "decompose_zn")
    n = _check_modulus(n, f.n_samples)
    block, samples = _residue_rows(f, n)
    carrier_samples, carriers = _zn_carriers(n, f.n_samples)
    recomposed = np.sum(carrier_samples * samples, axis=0)
    residual = float(np.sqrt(np.mean(np.abs(f.samples - recomposed) ** 2)))
    return DecompositionResult(mode="zn", residual=residual,
                               components=_functions(samples, block),
                               carriers=carriers)


@_one_blas_thread
def cesaro_convergence_profile(f: CircleFunction, spec: GaugeNormSpec,
                               l_max: int) -> np.ndarray:
    """alpha(sigma_l(f) - f) for l = 0 .. l_max.

    The classical smoothing argument makes this profile decay like
    bandwidth/(l+1) once the spec is rotation symmetric; for other
    specs the profile is still well defined and simply reported.
    """
    require_analytic(f, "cesaro_convergence_profile")
    l_max = _count(l_max, "l_max")
    N = f.n_samples
    half = N // 2
    top = f.top_index()
    a = f.coeffs[half:half + top + 1]
    z = grid(N)
    # Rows j of V are a_j z^j; each difference sigma_l(f) - f is a short
    # combination of these rows.
    V = a[:, None] * z[None, :] ** np.arange(top + 1)[:, None]
    js = np.arange(top + 1)
    out = np.empty(l_max + 1)
    # From l = top on, sigma_l(f) - f = -z f'(z) / (l + 1) exactly, so by
    # homogeneity the rest of the profile is alpha(z f') / (l + 1).
    head = min(top, l_max + 1)
    ls = np.arange(head)
    weights = np.where(js[None, :] <= ls[:, None],
                       -js[None, :] / (ls[:, None] + 1.0), -1.0)
    for l, diff in enumerate(weights @ V):
        out[l] = spec._eval(np.abs(diff))
    out[head:] = spec._eval(np.abs(js @ V)) / (np.arange(head, l_max + 1) + 1.0)
    return out
