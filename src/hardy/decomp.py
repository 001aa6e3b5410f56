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

from .blaschke import BlaschkeSpec, _basis_carriers, blaschke_eval
from .circlefn import (
    CircleFunction,
    _count,
    _frozen,
    _integer,
    _one_blas_thread,
    _synthesize_array,
    grid,
    horner,
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

# Largest phase-grid node count (grid size times degree) in Blaschke mode.
MAX_PHASE_NODES = 2 ** 20
# A phase node is converged once its phase miss is at most this many
# units of eps * (1 + 2 pi psi'): rounding in theta (|theta| < 2 pi)
# moves the phase by psi' times that.  Converged nodes read 0.3 - 1.
_PHASE_ROUNDING = 16.0
_EPS = float(np.finfo(float).eps)
# Newton on the phase gives up after this many steps.
_MAX_NEWTON_STEPS = 100


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """Components, their carriers, and the recomposition residual.

    The reconstruction is sum_i carrier_i * component_i on samples.  In
    Blaschke mode component j at z_k is the point value sum_m c_jm
    B(z_k)^m, so the pieces add back up to f at every grid point to
    about the residual, a quadrature at the preimages of a
    ``phase_grid``-point grid (None in z^n mode).  The price is the
    coefficient view of a piece: once the spectrum of B^m exceeds the
    grid (zero radii above about 0.85 at N = 1024) its ``coeffs``
    alias; for the zeros (0, r, -ir) and ten seeded degree-24 inputs
    the largest ``negative_energy`` of a piece is 5e-3 at r = 0.9 and
    0.8 at r = 0.958.  Piece j is exactly row j of
    ``basis_coefficients`` (slot j by power m), whose squared l2 norm is
    the squared subspace norm the Pythagoras identity refers to.  When
    B vanishes at the origin the rows end at the exact cutoff (see
    decompose_blaschke): the pairings beyond it are zero, not small.
    """

    mode: str
    components: Tuple[CircleFunction, ...]
    carriers: Tuple[CircleFunction, ...]
    residual: float
    basis_coefficients: Optional[np.ndarray] = None
    phase_grid: Optional[int] = None

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


def _phase_speed(spec: BlaschkeSpec, z: np.ndarray) -> np.ndarray:
    """psi'(theta) = sum_a (1 - |a|^2) / |z - a|^2 at z = exp(i theta)."""
    return sum((1.0 - abs(a) ** 2) / np.abs(z - a) ** 2 for a in spec.zeros)


def _phase_nodes(spec: BlaschkeSpec, M: int) -> Tuple[np.ndarray, float]:
    """The preimages under B of the phase targets psi_0 + 2 pi l / M.

    Returns them as a (degree, M) array, sheet s of target l at [s, l],
    and psi_0 = arg B(1).  The unwrapped phase is sampled on a uniform
    grid of P points joined with each nonzero zero's Moebius image of
    it, so between neighbours every factor's phase moves by at most
    2 pi / P and np.unwrap is exact for P > 2 * degree.  Linear
    interpolation of the inverse seeds Newton's method on the phase,
    which runs inside a bracket per node: a step out of it, which would
    land on another sheet, is replaced by bisection.  After the first
    four steps it stops once every node's phase miss is at rounding level,
    _PHASE_ROUNDING units of eps (1 + 2 pi psi') (a zero near the circle
    makes psi' large); a node still above it after _MAX_NEWTON_STEPS
    steps raises ParameterError.
    """
    P = max(M, 4 * spec.degree)
    w = np.exp(2j * np.pi * np.arange(P) / P)
    pts = [w] + [(w + a) / (1.0 + np.conj(a) * w) for a in spec.zeros if a != 0]
    theta = np.append(np.sort(np.angle(np.concatenate(pts)) % (2.0 * np.pi)),
                      2.0 * np.pi)
    psi = np.unwrap(np.angle(blaschke_eval(spec, np.exp(1j * theta))))
    targets = psi[0] + 2.0 * np.pi * np.arange(spec.degree * M) / M
    # Each node lies between the points whose interpolated phase is pi/2
    # below and above its target; as the samples lie at most pi/2 apart
    # in phase, the phase there is less than pi from the target, so the
    # sign of the miss is exact.
    turn = 2.0 * np.pi * spec.degree
    around_psi = np.concatenate([psi[:-1] - turn, psi, psi[1:] + turn])
    around = np.concatenate([theta[:-1] - 2.0 * np.pi, theta,
                             theta[1:] + 2.0 * np.pi])
    lo = np.interp(targets - 0.5 * np.pi, around_psi, around)
    hi = np.interp(targets + 0.5 * np.pi, around_psi, around)
    theta = np.interp(targets, psi, theta)
    for step in range(_MAX_NEWTON_STEPS + 1):
        z = np.exp(1j * theta)
        miss = np.angle(blaschke_eval(spec, z) * np.exp(-1j * targets))
        speed = _phase_speed(spec, z)
        units = np.abs(miss) / (_EPS * (1.0 + 2.0 * np.pi * speed))
        if step >= 4 and float(np.max(units)) <= _PHASE_ROUNDING:
            break
        if step == _MAX_NEWTON_STEPS:
            raise ParameterError(
                f"the phase nodes did not converge: largest phase miss "
                f"{np.max(np.abs(miss)):.1e} after {step} Newton steps; "
                f"move the zeros inward")
        # Above rounding the sign of a miss inside the bracket is exact.
        far = units > _PHASE_ROUNDING
        lo = np.where(far & (miss < 0.0), theta, lo)
        hi = np.where(far & (miss > 0.0), theta, hi)
        theta = theta - miss / speed
        # a step out of the bracket would go to another sheet: bisect
        theta = np.where((lo <= theta) & (theta <= hi), theta, 0.5 * (lo + hi))
    return np.exp(1j * theta).reshape(spec.degree, M), float(psi[0])


def decompose_blaschke(f: CircleFunction, spec: BlaschkeSpec,
                       m_max: Optional[int] = None) -> DecompositionResult:
    """Split f along the factor slots of B up to basis power m_max.

    Component j is sum_m <f, e(j, m)> B^m, a series in B; carrier j is
    e(j, 0).  With m_max=None the cutoff is sized automatically from
    the input's degree d = f.top_index(), which c * f shares with f (see
    _auto_m_max): when B has k >= 1 zeros at the origin it is at most
    d // k, past which every pairing is exactly zero, else it follows
    the slowest winding rate of B.

    The pairings come by a change of variables to the phase psi of B,
    which rises by 2 pi * degree once round the circle at speed psi':
    <f, e(j, m)> is the m-th Fourier coefficient in phi of G_j(phi),
    the sum of f conj(e(j, 0)) / psi' over the preimages of exp(i phi),
    so one FFT of G_j on an M-point phase grid gives every power (G_j
    has no negative frequencies, as e(j, 0) is orthogonal to B H^2, and
    with k >= 1 none past d // k).  M is the smallest power of two >= 64
    and >= 2 (m + 1), m the larger of m_max and the automatic cutoff;
    more than 2^20 nodes (M * degree) raise ParameterError before
    anything is allocated.  Phase nodes that Newton's method cannot bring
    to rounding level raise it too (see _phase_nodes).  The residual is
    the L2 distance between f and the recomposition, by quadrature at
    the nodes; it measures the basis tail beyond m_max and is reported,
    not raised.  The returned functions are point values on the input's
    grid (see DecompositionResult).
    """
    res, = _split_blaschke([f], spec, m_max, "decompose_blaschke")
    return res


def _split_blaschke(fs: Sequence[CircleFunction], spec: BlaschkeSpec,
                    m_max: Optional[int],
                    who: str) -> List[DecompositionResult]:
    """decompose_blaschke for inputs on one grid, on one phase grid;
    m_max=None takes the largest of their automatic cutoffs.  The half
    that does not depend on the inputs is kept per B, keyed on its zeros'
    bits (-0.0 and 0.0 never alias): the phase quadrature per M, (n + 2)
    n M points (node, weight and n carriers at each of n M nodes), and
    B's grid view per N, (2 n + 1) N points (B and the n carriers'
    samples and coefficients).  The 64 latest tables of at most
    _KEPT_BLASCHKE_POINTS points are kept, 128 KiB each and 8 MiB in all
    at 16 bytes a point; a larger one is built for its split and freed
    with its result.  Kept or fresh, tables and results are the same
    bits.  f is summed at the nodes by Horner's rule, whose bits the
    pairings and the recorded thm-3.6 report carry; the pieces on the
    grid are read-only rows of one block (see _series_in).  A
    non-analytic input is refused in the name of the caller who."""
    for f in fs:
        require_analytic(f, who)
    degrees = [f.top_index() for f in fs]
    m_auto = _auto_m_max(spec, max(degrees))  # grows with the degree
    m_max = m_auto if m_max is None else _count(m_max, "m_max")
    n = spec.degree
    # Sized from the automatic cutoff too, so G_j does not alias.
    M = 1 << max(6, (2 * max(m_max, m_auto) + 1).bit_length())
    if M * n > MAX_PHASE_NODES:
        raise ParameterError(f"decomposition needs {M * n} phase nodes, more "
                             f"than {MAX_PHASE_NODES}; move the zeros inward")
    nodes, psi0, weights, at_nodes = _kept(_phase_quadrature, spec, M,
                                           (n + 2) * n * M)
    # The negative-index part of f pairs to zero with every e(j, m), and
    # the Taylor tail beyond the degree is rounding dust.  Zeros padded
    # above a lower degree leave Horner's sums as they are.
    half = fs[0].n_samples // 2
    taylor = np.zeros((max(degrees) + 1, len(fs)), dtype=complex)
    for k, (f, degree) in enumerate(zip(fs, degrees)):
        taylor[:degree + 1, k] = f.coeffs[half:half + degree + 1]
    f_nodes = horner(taylor[:, :, None, None], nodes)  # input, sheet, target
    G = np.array([[np.sum(fk * np.conj(e) * weights, axis=0)
                   for e in at_nodes] for fk in f_nodes])
    spectrum = np.fft.fft(G, axis=2)
    coeffs = spectrum[:, :, :m_max + 1] * np.exp(
        -1j * psi0 * np.arange(m_max + 1)) / M
    # h_j(exp(i phi_l)) = sum_m c_jm exp(i m phi_l), then the fibre
    # identity f = sum_j e(j, 0) h_j(B) on every sheet.
    h = np.fft.ifft(np.where(np.arange(M) <= m_max, spectrum, 0.0), axis=2)
    recomposed = sum(e * h[:, j, None] for j, e in enumerate(at_nodes))
    bz, carriers = _grid_view(spec, fs[0].n_samples)
    # piece j of input k: sum_m c_kjm B^m, a read-only row of one block
    series = _series_in if n > 1 else _one_row_series_in
    pieces = _frozen(series(coeffs, bz))
    return [DecompositionResult(
        mode="blaschke",
        components=tuple(CircleFunction._of(bz.size, p) for p in pieces[k]),
        carriers=carriers,
        residual=float(np.sqrt(np.sum(
            np.abs(f_nodes[k] - recomposed[k]) ** 2 * weights) / M)),
        basis_coefficients=coeffs[k], phase_grid=M) for k in range(len(fs))]


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


# Largest table a Blaschke split keeps for later calls (see _split_blaschke).
_KEPT_BLASCHKE_POINTS = 1 << 13


def _kept(build, spec: BlaschkeSpec, size: int, points: int):
    if points > _KEPT_BLASCHKE_POINTS:
        return build(spec, size)
    return _kept_tables(build, np.asarray(spec.zeros, complex).tobytes(), size)


@functools.lru_cache(maxsize=64)
def _kept_tables(build, zeros: bytes, size: int):
    return build(BlaschkeSpec(tuple(np.frombuffer(zeros, complex))), size)


def _phase_quadrature(spec: BlaschkeSpec, M: int):
    """Read-only phase nodes, psi_0, weights 1 / psi' and carriers there."""
    nodes, psi0 = _phase_nodes(spec, M)
    at_nodes, _ = _basis_carriers(spec, nodes)
    return (_frozen(nodes), psi0, _frozen(1.0 / _phase_speed(spec, nodes)),
            tuple(map(_frozen, at_nodes)))


def _grid_view(spec: BlaschkeSpec, N: int):
    """B's read-only samples on the N-point grid and the carriers e(j, 0)."""
    return _kept(_build_grid_view, spec, N, (2 * spec.degree + 1) * N)


def _build_grid_view(spec: BlaschkeSpec, N: int):
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


# A split of at most this many points (n * N) takes its carriers as the
# first n rows of one kept block of at most as many points per grid
# size, for the four latest sizes; a larger split builds its own, freed
# with its result.
_KEPT_CARRIER_POINTS = 1 << 13


def _zn_carriers(n: int, N: int
                 ) -> Tuple[np.ndarray, Tuple[CircleFunction, ...]]:
    """The carriers z^0 .. z^(n-1) on the N-point grid, 1 <= n <= N/2:
    their read-only (n, N) sample block and the functions.  A row of a
    block transform is bit for bit its own 1-D transform, so a kept
    block serves every smaller n."""
    if n * N > _KEPT_CARRIER_POINTS:
        return _build_carriers(n, N)
    samples, carriers = _kept_carriers(N)
    return samples[:n], carriers[:n]


@functools.lru_cache(maxsize=4)
def _kept_carriers(N: int) -> Tuple[np.ndarray, Tuple[CircleFunction, ...]]:
    return _build_carriers(min(_KEPT_CARRIER_POINTS // N, N // 2), N)


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
    their carriers with earlier calls on the same grid.
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
