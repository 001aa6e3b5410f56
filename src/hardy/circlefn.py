"""Functions on the unit circle, held on a roots-of-unity grid.

A function is carried in two synchronized forms: samples at the N-th
roots of unity z_k = exp(2*pi*i*k/N), and Fourier coefficients a_j for
j = -N/2 .. N/2-1.  N is a power of two.  The normalized measure is
used throughout, so

    integral f dm  =  (1/N) * sum_k f(z_k),

and analyze/synthesize are exact inverses on the grid.  Analytic means
the coefficient mass at negative indices is negligible; such functions
are the truncated Hardy-space citizens the rest of the package works
with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import (
    DomainError,
    ParameterError,
    SingularityError,
    SizeError,
    TruncationError,
)

__all__ = [
    "DEFAULT_N_SAMPLES",
    "TOL_ANALYTIC",
    "EPS_LOG",
    "COEFF_CUTOFF",
    "CircleFunction",
    "grid",
    "freq_indices",
    "analyze",
    "synthesize",
    "taylor_block",
    "samples_of_taylor",
    "resample",
    "monomial",
    "constant",
    "inner_product",
    "norm2",
    "pointwise",
    "evaluate_at",
    "horner",
    "require_analytic",
    "gram_defect",
]

DEFAULT_N_SAMPLES = 1024

# Negative-index coefficient mass below this counts as analytic.
TOL_ANALYTIC = 1e-8

# Floor under any modulus that is about to be logged or divided by.
EPS_LOG = 1e-12

# Coefficients below this are ignored by bandwidth estimation.
COEFF_CUTOFF = 1e-13


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _check_n_samples(n_samples: int) -> int:
    n = int(n_samples)
    if n < 4 or not _is_power_of_two(n):
        raise SizeError(f"n_samples must be a power of two >= 4, got {n_samples}")
    return n


def grid(n_samples: int) -> np.ndarray:
    """Sample points z_k = exp(2*pi*i*k/N), k = 0..N-1."""
    n = _check_n_samples(n_samples)
    return np.exp(2j * np.pi * np.arange(n) / n)


def freq_indices(n_samples: int) -> np.ndarray:
    """Coefficient indices -N/2 .. N/2-1 in storage order."""
    n = _check_n_samples(n_samples)
    return np.arange(-(n // 2), n // 2)


def analyze(samples: np.ndarray) -> np.ndarray:
    """Fourier coefficients of grid samples, indexed -N/2 .. N/2-1.

    Normalization: a_j = (1/N) sum_k samples[k] * z_k^(-j), so the
    constant function 1 has a_0 = 1.
    """
    s = np.asarray(samples, dtype=complex)
    if s.ndim != 1:
        raise SizeError("samples must be a one dimensional array")
    _check_n_samples(s.size)
    return np.fft.fftshift(np.fft.fft(s)) / s.size


def _synthesize_array(coeffs: np.ndarray) -> np.ndarray:
    return np.fft.ifft(np.fft.ifftshift(coeffs)) * coeffs.size


def taylor_block(rows: np.ndarray, D: int) -> np.ndarray:
    """Taylor coefficients 0..D of each row of a complex (k, N) sample
    block, as the columns of a (D+1, k) matrix: bit for bit analyze()
    sliced to 0..D, which is the head of the unshifted FFT.  ``rows``
    is overwritten by its spectrum."""
    np.fft.fft(rows, axis=1, out=rows)
    return rows[:, :D + 1].T / rows.shape[1]


def samples_of_taylor(mat: np.ndarray, N: int) -> np.ndarray:
    """Sample rows of the functions whose Taylor coefficients 0..D are
    the columns of mat; the inverse of taylor_block."""
    rows = np.zeros((mat.shape[1], N), dtype=complex)
    rows[:, :mat.shape[0]] = mat.T
    np.fft.ifft(rows, axis=1, out=rows)
    rows *= N
    return rows


@dataclass(frozen=True, eq=False)
class CircleFunction:
    """Immutable pair of grid samples and Fourier coefficients.

    Both arrays always describe the same function; constructors derive
    one representation from the other via the FFT.
    """

    n_samples: int
    samples: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        n = _check_n_samples(self.n_samples)
        s = np.array(self.samples, dtype=complex)
        c = np.array(self.coeffs, dtype=complex)
        if s.shape != (n,) or c.shape != (n,):
            raise SizeError(
                f"samples and coeffs must both have length {n}, "
                f"got {s.shape} and {c.shape}"
            )
        s.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "CircleFunction":
        s = np.asarray(samples, dtype=complex)
        return cls(s.size, s, analyze(s))

    @classmethod
    def from_coeffs(cls, coeffs: np.ndarray) -> "CircleFunction":
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 1:
            raise SizeError("coeffs must be a one dimensional array")
        _check_n_samples(c.size)
        return cls(c.size, _synthesize_array(c), c)

    def coeff(self, j: int) -> complex:
        """Coefficient a_j, zero outside the stored band."""
        pos = int(j) + self.n_samples // 2
        if pos < 0 or pos >= self.n_samples:
            return 0.0 + 0.0j
        return complex(self.coeffs[pos])

    @property
    def negative_energy(self) -> float:
        """l2 mass of the coefficients at negative indices."""
        half = self.n_samples // 2
        return float(np.linalg.norm(self.coeffs[:half]))

    def is_analytic(self, tol: float = TOL_ANALYTIC) -> bool:
        return self.negative_energy <= tol

    def bandwidth(self, cutoff: float = COEFF_CUTOFF) -> int:
        """Largest |j| whose coefficient exceeds the cutoff (0 if none)."""
        idx = np.nonzero(np.abs(self.coeffs) > cutoff)[0]
        if idx.size == 0:
            return 0
        freqs = freq_indices(self.n_samples)
        return int(np.max(np.abs(freqs[idx])))

    def top_index(self, cutoff: float = COEFF_CUTOFF) -> int:
        """Largest j >= 0 whose coefficient exceeds the cutoff (0 if none)."""
        idx = np.nonzero(np.abs(self.coeffs) > cutoff)[0]
        if idx.size == 0:
            return 0
        freqs = freq_indices(self.n_samples)
        return int(max(0, np.max(freqs[idx])))

    # Small arithmetic conveniences.  Multiplication goes through
    # pointwise() so the anti-aliasing guard always applies.

    def __add__(self, other):
        if isinstance(other, CircleFunction):
            _check_same_grid(self, other)
            return CircleFunction(self.n_samples, self.samples + other.samples,
                                  self.coeffs + other.coeffs)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, CircleFunction):
            _check_same_grid(self, other)
            return CircleFunction(self.n_samples, self.samples - other.samples,
                                  self.coeffs - other.coeffs)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, CircleFunction):
            return pointwise(self, other, "mul")
        if isinstance(other, (int, float, complex)):
            return CircleFunction(self.n_samples, self.samples * other,
                                  self.coeffs * other)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


def _check_same_grid(f: CircleFunction, g: CircleFunction):
    if f.n_samples != g.n_samples:
        raise SizeError(
            f"grid sizes differ: {f.n_samples} vs {g.n_samples}"
        )


def synthesize(coeffs: Union[Mapping[int, complex], np.ndarray],
               n_samples: int) -> CircleFunction:
    """Build a CircleFunction from coefficients.

    ``coeffs`` is either a mapping {index: value} or a full array of
    length n_samples in storage order.  Indices must satisfy
    -N/2 <= j < N/2; anything else raises TruncationError.
    """
    n = _check_n_samples(n_samples)
    if isinstance(coeffs, Mapping):
        full = np.zeros(n, dtype=complex)
        for j, v in coeffs.items():
            j = int(j)
            if j < -(n // 2) or j >= n // 2:
                raise TruncationError(
                    f"coefficient index {j} outside band [{-(n//2)}, {n//2 - 1}]"
                )
            full[j + n // 2] += complex(v)
        return CircleFunction.from_coeffs(full)
    arr = np.asarray(coeffs, dtype=complex)
    if arr.shape != (n,):
        raise SizeError(
            f"coefficient array must have length {n}, got {arr.shape}"
        )
    return CircleFunction.from_coeffs(arr)


def resample(f: CircleFunction, n_samples: int) -> CircleFunction:
    """Zero-pad (or safely trim) the coefficient band onto a new grid.

    Growing the grid is exact.  Shrinking requires the discarded
    coefficient mass to be below 1e-12, otherwise TruncationError.
    """
    n_new = _check_n_samples(n_samples)
    n_old = f.n_samples
    if n_new == n_old:
        return f
    old = f.coeffs
    if n_new > n_old:
        full = np.zeros(n_new, dtype=complex)
        lo = n_new // 2 - n_old // 2
        full[lo:lo + n_old] = old
        return CircleFunction.from_coeffs(full)
    lo = n_old // 2 - n_new // 2
    kept = old[lo:lo + n_new]
    dropped = np.linalg.norm(old) ** 2 - np.linalg.norm(kept) ** 2
    if dropped > (1e-12) ** 2:
        raise TruncationError(
            f"resampling to {n_new} would drop coefficient mass "
            f"{np.sqrt(max(dropped, 0.0)):.3e}"
        )
    return CircleFunction.from_coeffs(kept)


def monomial(j: int, n_samples: int = DEFAULT_N_SAMPLES) -> CircleFunction:
    """The function z^j."""
    return synthesize({j: 1.0}, n_samples)


def constant(value: complex, n_samples: int = DEFAULT_N_SAMPLES) -> CircleFunction:
    return synthesize({0: value}, n_samples)


def inner_product(f: CircleFunction, g: CircleFunction) -> complex:
    """Grid quadrature of f * conj(g) against normalized measure."""
    _check_same_grid(f, g)
    return complex(np.vdot(g.samples, f.samples) / f.n_samples)


def norm2(f: CircleFunction) -> float:
    """The L2 norm sqrt(integral |f|^2 dm) by grid quadrature."""
    return float(np.sqrt(np.mean(np.abs(f.samples) ** 2)))


def require_analytic(f: CircleFunction, who: str):
    """Raise DomainError unless f is analytic; ``who`` names the caller."""
    if not f.is_analytic():
        raise DomainError(
            f"{who} needs an analytic input; negative coefficient mass "
            f"is {f.negative_energy:.3e}"
        )


def gram_defect(rows: np.ndarray, scale: float | None = None) -> float:
    """max |G - I| for the Gram matrix G = rows @ rows^H / scale.

    ``scale`` defaults to the row length, which makes G the matrix of
    grid inner products of sample rows; rows of Taylor coefficients
    pass scale=1.
    """
    G = rows @ rows.conj().T / (rows.shape[1] if scale is None else scale)
    return float(np.max(np.abs(G - np.eye(rows.shape[0]))))


def pointwise(f: CircleFunction, g: CircleFunction | None, op: str,
              regularize: bool = False) -> CircleFunction:
    """Pointwise operation on samples; coefficients re-derived by analyze.

    op is one of "mul", "div", "abs"; "abs" ignores g.  Products enforce
    the anti-aliasing margin N >= 4 * (bandwidth(f) + bandwidth(g)).
    Division refuses moduli below EPS_LOG unless ``regularize`` clamps
    them.
    """
    if op == "mul":
        if g is None:
            raise ParameterError("mul needs two operands")
        _check_same_grid(f, g)
        need = 4 * (f.bandwidth() + g.bandwidth())
        if f.n_samples < need:
            raise SizeError(
                f"product needs n_samples >= {need} to avoid aliasing, "
                f"got {f.n_samples}; resample the operands first"
            )
        return CircleFunction.from_samples(f.samples * g.samples)
    if op == "div":
        if g is None:
            raise ParameterError("div needs two operands")
        _check_same_grid(f, g)
        mod = np.abs(g.samples)
        bad = np.nonzero(mod < EPS_LOG)[0]
        if bad.size and not regularize:
            raise SingularityError(
                f"denominator modulus below {EPS_LOG:g} at "
                f"{bad.size} grid points", bad[:16]
            )
        denom = g.samples.copy()
        if bad.size:
            # Push tiny values out to the floor along their phase.
            safe_mod = np.where(mod[bad] == 0.0, 1.0, mod[bad])
            phase = np.where(mod[bad] == 0.0, 1.0, denom[bad] / safe_mod)
            denom[bad] = phase * EPS_LOG
        return CircleFunction.from_samples(f.samples / denom)
    if op == "abs":
        return CircleFunction.from_samples(np.abs(f.samples))
    raise ParameterError(f"unknown pointwise op {op!r}")


def horner(taylor: np.ndarray, z) -> np.ndarray:
    """sum_k taylor[k] z^k by Horner's rule, from the top coefficient
    down; z is a point or an array of points."""
    acc = np.zeros_like(z, dtype=complex)
    for a in taylor[::-1]:
        acc = acc * z + a
    return acc


def evaluate_at(f: CircleFunction, z) -> complex:
    """Evaluate the truncated Taylor series at a point of the closed disk.

    Requires f analytic (negative coefficient mass within TOL_ANALYTIC)
    and |z| <= 1.  Accepts a scalar or an ndarray of points.
    """
    require_analytic(f, "evaluate_at")
    zarr = np.asarray(z, dtype=complex)
    if np.any(np.abs(zarr) > 1.0 + 1e-12):
        raise DomainError("evaluate_at is restricted to |z| <= 1")
    acc = horner(f.coeffs[f.n_samples // 2:], zarr)
    if np.isscalar(z) or zarr.ndim == 0:
        return complex(acc)
    return acc
