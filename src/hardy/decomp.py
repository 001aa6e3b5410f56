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
    exact zeros and the recomposition is exact to rounding.

Also here: grid rotation, Fejer (Cesaro) means, and the convergence
profile of Fejer means measured in a gauge norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .blaschke import BlaschkeSpec, _basis_carriers
from .circlefn import (
    CircleFunction,
    freq_indices,
    grid,
    horner,
    monomial,
    norm2,
    require_analytic,
    resample,
)
from .errors import ParameterError, TruncationError
from .norms import GaugeNormSpec

__all__ = [
    "DecompositionResult",
    "decompose_blaschke",
    "decompose_zn",
    "zn_series_components",
    "rotate",
    "cesaro_mean",
    "cesaro_convergence_profile",
]

TOL_DECOMP = 1e-8


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """Components, their carriers, and the recomposition residual.

    The reconstruction is sum_i carrier_i * component_i on samples.
    Blaschke mode measures the residual on its work grid; on the input
    grid the band-truncated functions recompose f far less closely for
    zeros near the circle (3e-3 at radius 0.9, degree 24, N = 1024).
    ``basis_coefficients`` holds the raw expansion coefficients
    (slot j by power m) for the Blaschke mode; the squared l2 norm of
    row j is the squared subspace norm of component j, which is what
    the Pythagoras identity refers to.
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


def _winding_rates(spec: BlaschkeSpec) -> Tuple[float, float]:
    """Extreme boundary winding rates of the product.

    The phase speed of one factor with zero radius r ranges over
    [(1 - r)/(1 + r), (1 + r)/(1 - r)] as the point moves around the
    circle; the product's speed is the sum over factors.  The slow rate
    controls how many basis powers are needed to reach a given input
    frequency, the fast rate controls how far the spectrum of a power
    of the product spreads upward.
    """
    radii = np.abs(np.asarray(spec.zeros, dtype=complex))
    w_min = float(np.sum((1.0 - radii) / (1.0 + radii)))
    w_max = float(np.sum((1.0 + radii) / (1.0 - radii)))
    return w_min, w_max


def _auto_m_max(spec: BlaschkeSpec, degree: int) -> int:
    """Power cutoff sized so the expansion tail is below ~1e-10.

    Two pieces: enough powers for the slowest winding pocket to sweep
    past the input's top frequency, then extra powers for the tail,
    which decays by a factor of about sqrt(|zero|) per factor per
    power.  Zeros at the origin wind at unit speed with no tail.
    """
    w_min, _ = _winding_rates(spec)
    coverage = int(np.ceil(max(degree, 1) / w_min))
    radii = np.abs(np.asarray(spec.zeros, dtype=complex))
    positive = radii[radii > 0.0]
    if positive.size == 0:
        return coverage
    nats_per_power = float(np.sum(-np.log(positive))) / 2.0
    return coverage + int(np.ceil(27.0 / nats_per_power)) + 8


def _work_grid_size(n_desk: int, spec: BlaschkeSpec, m_max: int,
                    degree: int) -> int:
    """Grid large enough that the pairing integrals do not alias.

    The integrand f * conj(e(j, 0)) * conj(B)^m has spectrum inside
    [-(w_max * m + tail), degree], so the grid must exceed that width.
    """
    _, w_max = _winding_rates(spec)
    needed = int(np.ceil(w_max * m_max)) + degree + 512
    size = n_desk
    while size < needed:
        size *= 2
    if size > 65536:
        raise ParameterError(
            f"decomposition would need a {size}-point work grid "
            f"(m_max={m_max}, fast winding rate {w_max:.1f}); "
            "reduce m_max or the zero radii"
        )
    return size


def _band_truncate(samples: np.ndarray, n_desk: int) -> CircleFunction:
    """View a work-grid sample array on the desk grid.

    Keeps the central frequency band; content beyond the desk band is
    dropped without a mass check.
    """
    work = CircleFunction.from_samples(samples)
    n_work = work.n_samples
    if n_work == n_desk:
        return work
    lo = n_work // 2 - n_desk // 2
    return CircleFunction.from_coeffs(work.coeffs[lo:lo + n_desk].copy())


def decompose_blaschke(f: CircleFunction, spec: BlaschkeSpec,
                       m_max: Optional[int] = None,
                       strict: bool = False) -> DecompositionResult:
    """Split f along the factor slots of B up to basis power m_max.

    Component j is sum_m <f, e(j, m)> B^m, a series in B; carrier j is
    e(j, 0).  The residual is the grid L2 distance between f and the
    recomposition; it measures the basis tail beyond m_max and is
    reported rather than raised, unless ``strict`` is set.

    With m_max=None the cutoff is sized automatically from the input's
    top frequency and the slowest winding rate of the product, which
    for zeros of radius r can be as small as (1 - r)/(1 + r) per
    factor.  The pairings and the residual are computed on an internal
    work grid chosen so that the upward spectral spread of B^m (up to
    (1 + r)/(1 - r) per factor per power) stays below the Nyquist
    limit; the returned functions live on the input's grid, and the
    band they drop is not bounded by the residual (see
    DecompositionResult).
    """
    require_analytic(f, "decompose_blaschke")
    degree = f.top_index()
    if m_max is None:
        m_max = _auto_m_max(spec, degree)
    if m_max < 0:
        raise ParameterError("m_max must be >= 0")
    n = spec.degree
    n_desk = f.n_samples
    n_work = _work_grid_size(n_desk, spec, m_max, degree)
    f_work = resample(f, n_work)
    carrier_samples, bz = _basis_carriers(spec, grid(n_work))
    coeffs = np.zeros((n, m_max + 1), dtype=complex)
    for j in range(n):
        # e(j, m) = e(j, 0) * B^m, so the pairings come from one
        # accumulating product.
        acc = f_work.samples * np.conj(carrier_samples[j])
        for m in range(m_max + 1):
            coeffs[j, m] = np.mean(acc)
            acc = acc * np.conj(bz)
    components = []
    recomposed = np.zeros(n_work, dtype=complex)
    for j in range(n):
        comp = horner(coeffs[j], bz)  # sum_m c_{jm} B^m
        components.append(_band_truncate(comp, n_desk))
        recomposed = recomposed + carrier_samples[j] * comp
    residual = float(np.sqrt(np.mean(np.abs(f_work.samples - recomposed) ** 2)))
    if strict and residual > TOL_DECOMP:
        raise TruncationError(
            f"basis tail beyond m_max={m_max} has residual {residual:.3e}"
        )
    carriers = tuple(_band_truncate(s, n_desk) for s in carrier_samples)
    return DecompositionResult(
        mode="blaschke", components=tuple(components), carriers=carriers,
        residual=residual, basis_coefficients=coeffs)


def zn_series_components(f: CircleFunction, n: int) -> Tuple[CircleFunction, ...]:
    """The n series s_0 .. s_{n-1} with f(z) = sum_i z^i s_i(z^n).

    Works for any n >= 1 by direct coefficient selection: s_i collects
    the coefficients of f at indices congruent to i mod n, reindexed to
    consecutive positions (the base-variable view).  Exact for
    band-limited f.
    """
    require_analytic(f, "zn_series_components")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    N = f.n_samples
    half = N // 2
    taylor = f.coeffs[half:]
    out = []
    for i in range(n):
        sel = taylor[i::n]
        arr = np.zeros(N, dtype=complex)
        arr[half:half + sel.size] = sel
        out.append(CircleFunction.from_coeffs(arr))
    return tuple(out)


def decompose_zn(f: CircleFunction, n: int) -> DecompositionResult:
    """Split f into carriers z^i times series in z^n by coefficient
    selection; any n up to half the grid works.

    Component i holds the coefficients of f with index congruent to i
    mod n, moved down by i; every other coefficient is an exact zero.
    """
    require_analytic(f, "decompose_zn")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    N = f.n_samples
    if n > N // 2:
        raise ParameterError(
            f"n = {n} leaves no room for the carriers on a grid of {N}"
        )
    freqs = freq_indices(N)
    components = []
    carriers = []
    recomposed = np.zeros(N, dtype=complex)
    for i in range(n):
        # Coefficients moved below the band's bottom index are rounding
        # dust from a nominally analytic input; they are dropped.
        hc = np.zeros(N, dtype=complex)
        hc[:N - i] = np.where(freqs % n == i, f.coeffs, 0.0)[i:]
        comp = CircleFunction.from_coeffs(hc)
        carrier = monomial(i, N)
        components.append(comp)
        carriers.append(carrier)
        recomposed = recomposed + carrier.samples * comp.samples
    residual = float(np.sqrt(np.mean(np.abs(f.samples - recomposed) ** 2)))
    return DecompositionResult(
        mode="zn", components=tuple(components), carriers=tuple(carriers),
        residual=residual)


def rotate(f: CircleFunction, w: complex) -> CircleFunction:
    """The rotated function z -> f(w z) for a grid root of unity w.

    Samples shift cyclically and coefficient j picks up the factor w^j.
    """
    N = f.n_samples
    theta = np.angle(complex(w))
    j = int(np.round(theta / (2.0 * np.pi) * N)) % N
    target = np.exp(2j * np.pi * j / N)
    if abs(complex(w) - target) > 1e-9:
        raise ParameterError(
            f"rotation {w!r} is not a grid root of unity for N = {N}"
        )
    samples = np.roll(f.samples, -j)
    coeffs = f.coeffs * target ** freq_indices(N)
    return CircleFunction(N, samples, coeffs)


def cesaro_mean(f: CircleFunction, l: int) -> CircleFunction:
    """Fejer mean of order l: coefficient j is scaled by 1 - j/(l+1)
    for 0 <= j <= l and dropped beyond."""
    require_analytic(f, "cesaro_mean")
    if l < 0:
        raise ParameterError("order must be >= 0")
    N = f.n_samples
    freqs = freq_indices(N)
    weights = np.where((freqs >= 0) & (freqs <= l),
                       1.0 - freqs / (l + 1.0), 0.0)
    return CircleFunction.from_coeffs(f.coeffs * weights)


def cesaro_convergence_profile(f: CircleFunction, spec: GaugeNormSpec,
                               l_max: int) -> np.ndarray:
    """alpha(sigma_l(f) - f) for l = 0 .. l_max.

    The classical smoothing argument makes this profile decay like
    bandwidth/(l+1) once the spec is rotation symmetric; for other
    specs the profile is still well defined and simply reported.
    """
    require_analytic(f, "cesaro_convergence_profile")
    if l_max < 0:
        raise ParameterError("l_max must be >= 0")
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
