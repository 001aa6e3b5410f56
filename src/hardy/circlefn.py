"""Functions on the unit circle, held on a roots-of-unity grid.

A function has two forms: samples at the N-th roots of unity z_k =
exp(2*pi*i*k/N), and Fourier coefficients a_j for j = -N/2 .. N/2-1.
N is a power of two.  A function keeps the form it was built from and
derives the other by one FFT the first time it is read, then keeps
that too; a form nobody reads is never computed.  ``grid(N)`` returns
one shared read-only array per N.  The normalized measure is used
throughout, so

    integral f dm  =  (1/N) * sum_k f(z_k),

and the two transforms are exact inverses on the grid.  Analytic means
the coefficient mass at negative indices is negligible; such functions
are the truncated Hardy-space citizens the rest of the package works
with.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, ParameterError, SizeError, TruncationError

__all__ = [
    "DEFAULT_N_SAMPLES",
    "TOL_ANALYTIC",
    "EPS_LOG",
    "COEFF_CUTOFF",
    "CircleFunction",
    "grid",
    "freq_indices",
    "synthesize",
    "taylor_block",
    "samples_of_taylor",
    "resample",
    "monomial",
    "norm2",
    "horner",
    "require_analytic",
    "gram_defect",
]

DEFAULT_N_SAMPLES = 1024

# Negative-index coefficient mass below this counts as analytic.
TOL_ANALYTIC = 1e-8

# Floor under any modulus that is about to be logged or divided by.
EPS_LOG = 1e-12

# A coefficient is significant when its modulus exceeds this fraction
# of the largest one: the one rule for where a series ends.
COEFF_CUTOFF = 1e-13


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _integer(x, name: str, error=ParameterError) -> int:
    """x as an int; a fraction, a boolean or a non-number is refused
    with ``error``.  An integral float such as 64.0 reads as 64."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool) or (
            isinstance(x, float) and x.is_integer()):
        return int(x)
    raise error(f"{name} must be an integer, got {x!r}")


def _count(x, name: str) -> int:
    """x as an int >= 0 (see _integer), else ParameterError."""
    n = _integer(x, name)
    if n < 0:
        raise ParameterError(f"{name} must be >= 0, got {n}")
    return n


def _check_n_samples(n_samples: int) -> int:
    n = _integer(n_samples, "n_samples", SizeError)
    if n < 4 or not _is_power_of_two(n):
        raise SizeError(f"n_samples must be a power of two >= 4, got {n_samples}")
    return n


@functools.lru_cache(maxsize=1)
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS numpy loaded,
    ILP64 names first, or None when none is found (no /proc/self/maps
    outside Linux, or another BLAS)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"),
                               ("openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                return get, set_
    return None


_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = 0


def _one_blas_thread(fn):
    """fn, run with OpenBLAS on one thread and the caller's count restored
    after, on return and on an exception.  After a threaded call OpenBLAS's
    idle worker spins for hundreds of milliseconds, through whatever the
    caller does next, so hardy's products above its threading threshold
    run here.  Re-entrant and shared by threads: only the outermost call
    sets and restores the count, and a BLAS call another thread makes
    meanwhile runs on one thread too.  Without OpenBLAS it is fn."""

    @functools.wraps(fn)
    def pinned(*args, **kwargs):
        global _pin_depth, _pin_saved
        blas = _openblas()
        if blas is None:
            return fn(*args, **kwargs)
        get, set_ = blas
        with _pin_lock:
            if not _pin_depth:
                _pin_saved = int(get())
                set_(ctypes.c_int(1))
            _pin_depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _pin_lock:
                _pin_depth -= 1
                if not _pin_depth:
                    set_(ctypes.c_int(_pin_saved))

    return pinned


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _finite(a: np.ndarray) -> np.ndarray:
    """a, read-only; a NaN or an infinite value raises ParameterError."""
    if not np.isfinite(a.view(float)).all():
        raise ParameterError("a function value is not finite "
                             "(NaN, infinity or overflow)")
    return _frozen(a)


def _form(op, *args) -> np.ndarray:
    """_finite(op(*args)), with an overflow in op refused, not warned."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(op(*args))


def grid(n_samples: int) -> np.ndarray:
    """Sample points z_k = exp(2*pi*i*k/N), k = 0..N-1, as one shared
    read-only array per N."""
    return _grid(_check_n_samples(n_samples))


@functools.lru_cache(maxsize=8)
def _grid(n: int) -> np.ndarray:
    return _frozen(np.exp(2j * np.pi * np.arange(n) / n))


def freq_indices(n_samples: int) -> np.ndarray:
    """Coefficient indices -N/2 .. N/2-1 in storage order."""
    n = _check_n_samples(n_samples)
    return np.arange(-(n // 2), n // 2)


def _analyze_array(samples: np.ndarray) -> np.ndarray:
    """Fourier coefficients of a checked 1-D complex sample array,
    indexed -N/2 .. N/2-1.

    Normalization: a_j = (1/N) sum_k samples[k] * z_k^(-j), so the
    constant function 1 has a_0 = 1.  The FFT moves to storage order by
    the division itself (two half slices).
    """
    spectrum = np.fft.fft(samples)
    n = spectrum.size
    half = n // 2
    out = np.empty_like(spectrum)
    np.divide(spectrum[half:], n, out=out[:half])
    np.divide(spectrum[:half], n, out=out[half:])
    return out


def _synthesize_array(coeffs: np.ndarray) -> np.ndarray:
    """Samples of coefficient rows (storage order, last axis); each row of
    a block comes out bit for bit as from its own 1-D call.  The rows go
    to FFT order by two half slices into the array the inverse FFT then
    overwrites."""
    n = coeffs.shape[-1]
    half = n // 2
    rows = np.empty(coeffs.shape, dtype=complex)
    rows[..., :half] = coeffs[..., half:]
    rows[..., half:] = coeffs[..., :half]
    np.fft.ifft(rows, out=rows)
    rows *= n
    return rows


def taylor_block(rows: np.ndarray, D: int) -> np.ndarray:
    """Taylor coefficients 0..D of each row of a complex (k, N) sample
    block, as the columns of a (D+1, k) matrix: bit for bit each row's
    coefficients at 0..D, which are the head of the unshifted FFT.
    ``rows`` is overwritten by its spectrum."""
    np.fft.fft(rows, axis=1, out=rows)
    return rows[:, :D + 1].T / rows.shape[1]


def samples_of_taylor(mat: np.ndarray, N: int) -> np.ndarray:
    """Sample rows of the functions whose Taylor coefficients 0..D are
    the columns of mat; the inverse of taylor_block, and bit for bit
    _synthesize_array of the same rows in storage order."""
    rows = np.zeros((mat.shape[1], N), dtype=complex)
    rows[:, :mat.shape[0]] = mat.T
    np.fft.ifft(rows, axis=1, out=rows)
    rows *= N
    return rows


class CircleFunction:
    """Immutable function on the N-point grid: samples and coefficients.

    A function built from one form (``from_samples``, ``from_coeffs``)
    keeps that array and derives the other form the first time it is
    read, by the forward or by the inverse transform, then keeps it
    too.  Both arrays are read-only, and every value in them is finite:
    a function with a NaN or an infinite value, an overflow included, has
    no norm, and making one raises ParameterError.
    """

    __slots__ = ("n_samples", "_samples", "_coeffs")

    @classmethod
    def _of(cls, n: int, samples: Optional[np.ndarray] = None,
            coeffs: Optional[np.ndarray] = None) -> "CircleFunction":
        """A function holding read-only complex arrays of shape (n,) as
        they are, unchecked, at least one of them given."""
        f = cls.__new__(cls)
        object.__setattr__(f, "n_samples", n)
        object.__setattr__(f, "_samples", samples)
        object.__setattr__(f, "_coeffs", coeffs)
        return f

    def __setattr__(self, name, value):
        raise AttributeError(f"CircleFunction is immutable; cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"CircleFunction is immutable; cannot delete {name}")

    def __reduce__(self):
        # pickle and copy rebuild the function from the forms it holds
        return (_restored, (self.n_samples, self._samples, self._coeffs))

    @property
    def samples(self) -> np.ndarray:
        if self._samples is None:
            object.__setattr__(self, "_samples",
                               _form(_synthesize_array, self._coeffs))
        return self._samples

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            object.__setattr__(self, "_coeffs",
                               _form(_analyze_array, self._samples))
        return self._coeffs

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "CircleFunction":
        s = np.array(samples, dtype=complex)
        if s.ndim != 1:
            raise SizeError("samples must be a one dimensional array")
        return cls._of(_check_n_samples(s.size), samples=_finite(s))

    @classmethod
    def from_coeffs(cls, coeffs: np.ndarray) -> "CircleFunction":
        c = np.array(coeffs, dtype=complex)
        if c.ndim != 1:
            raise SizeError("coeffs must be a one dimensional array")
        return cls._of(_check_n_samples(c.size), coeffs=_finite(c))

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

    def is_analytic(self) -> bool:
        return self.negative_energy <= TOL_ANALYTIC

    def _significant(self) -> np.ndarray:
        """Indices j, ascending, whose coefficient exceeds COEFF_CUTOFF
        times the largest |coefficient|; the zero function has none, and
        c * f has those of f."""
        a = np.abs(self.coeffs)
        top = np.max(a)
        return np.nonzero(a > COEFF_CUTOFF * top)[0] - self.n_samples // 2

    def bandwidth(self) -> int:
        """Largest |j| of a significant coefficient (0 if none)."""
        return int(np.max(np.abs(self._significant()), initial=0))

    def top_index(self) -> int:
        """Largest j >= 0 of a significant coefficient (0 if none)."""
        return int(np.max(self._significant(), initial=0))

    # Small arithmetic conveniences.  Products enforce the anti-aliasing
    # margin N >= 4 * (bandwidth(f) + bandwidth(g)).

    def _pointwise(self, op, samples, coeffs) -> "CircleFunction":
        """op(self, g) on both forms, given g's two forms or one scalar."""
        return CircleFunction._of(self.n_samples,
                                  _form(op, self.samples, samples),
                                  _form(op, self.coeffs, coeffs))

    def __add__(self, other):
        if isinstance(other, CircleFunction):
            _check_same_grid(self, other)
            return self._pointwise(np.add, other.samples, other.coeffs)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, CircleFunction):
            _check_same_grid(self, other)
            return self._pointwise(np.subtract, other.samples, other.coeffs)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, CircleFunction):
            _check_same_grid(self, other)
            need = 4 * (self.bandwidth() + other.bandwidth())
            if self.n_samples < need:
                raise SizeError(
                    f"product needs n_samples >= {need} to avoid aliasing, "
                    f"got {self.n_samples}; resample the operands first"
                )
            return CircleFunction._of(self.n_samples, _form(
                np.multiply, self.samples, other.samples))
        if isinstance(other, (int, float, complex)):
            return self._pointwise(np.multiply, other, other)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


def _restored(n: int, samples: Optional[np.ndarray],
              coeffs: Optional[np.ndarray]) -> CircleFunction:
    """The function __reduce__ describes, its arrays read-only again."""
    return CircleFunction._of(n, *(None if a is None else _frozen(a)
                                   for a in (samples, coeffs)))


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
    -N/2 <= j < N/2; anything else raises TruncationError.  Values at
    one index add up; a value alone at its index is stored as given,
    signed zeros included.
    """
    n = _check_n_samples(n_samples)
    if isinstance(coeffs, Mapping):
        full = np.zeros(n, dtype=complex)
        for j, v in coeffs.items():
            j = _integer(j, "coefficient index", TruncationError)
            if j < -(n // 2) or j >= n // 2:
                raise TruncationError(
                    f"coefficient index {j} outside band [{-(n//2)}, {n//2 - 1}]"
                )
            pos, v = j + n // 2, complex(v)
            full[pos] = full[pos] + v if full[pos] else v
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


def norm2(f: CircleFunction) -> float:
    """The L2 norm sqrt(integral |f|^2 dm) by grid quadrature; for max|f|
    outside [2^-300, 2^500), where squares over- or underflow, it is 2^e
    times that of f 2^-e, 2^e the power of two just above max|f|."""
    a = np.abs(f.samples)
    _, e = math.frexp(np.maximum.reduce(a))
    if not -300 < e <= 500:
        a = np.ldexp(a, -e)
    else:
        e = 0
    return math.ldexp(math.sqrt(np.add.reduce(a * a) / f.n_samples), e)


def require_analytic(f: CircleFunction, who: str):
    """Raise DomainError unless f is analytic; ``who`` names the caller."""
    if not f.is_analytic():
        raise DomainError(
            f"{who} needs an analytic input; negative coefficient mass "
            f"is {f.negative_energy:.3e}"
        )


@_one_blas_thread
def gram_defect(rows: np.ndarray, scale: float | None = None) -> float:
    """max |G - I| for the Gram matrix G = rows @ rows^H / scale.

    ``scale`` defaults to the row length, which makes G the matrix of
    grid inner products of sample rows; rows of Taylor coefficients
    pass scale=1.
    """
    G = rows @ rows.conj().T / (rows.shape[1] if scale is None else scale)
    return float(np.max(np.abs(G - np.eye(rows.shape[0]))))


def _joint_gram_defect(mult: Union[np.ndarray, int],
                       members: Sequence[np.ndarray], m_max: int) -> float:
    """max |G - I| for the Gram G of {S^m v : v in members, m <= m_max},
    S an isometry: multiplication by the unimodular samples ``mult`` on
    sample rows, or for an int mult = n, z^n on coefficient rows in
    storage order.  The one shift-Gram kernel.

    G is block Toeplitz, <S^a v_i, S^b v_j> = <S^(a-b) v_i, v_j> or its
    adjoint, so only the blocks d = a - b = 0 .. m_max are formed: on
    samples the means of v_i conj(v_j) mult^d, a running product; on
    coefficients the exact lag sums sum_k v_i[k] conj(v_j[k + n d]),
    which no grid wraps.  Sums, not BLAS products: a product this small
    wakes OpenBLAS's threads, which then spin through the caller.
    """
    V = np.asarray(members)
    W = V.conj()
    r, N = V.shape
    blocks = np.empty((r * r, m_max + 1), dtype=complex)  # (i, j), a - b
    if isinstance(mult, int):
        for d in range(m_max + 1):
            lag = min(mult * d, N)
            blocks[:, d] = (V[:, None, :N - lag] * W[None, :, lag:]
                            ).reshape(r * r, N - lag).sum(axis=1)
    else:
        shifted = (V[:, None, :] * W[None, :, :]).reshape(r * r, N)
        for d in range(m_max + 1):
            if d:
                shifted = shifted * mult
            blocks[:, d] = shifted.sum(axis=1) / N
    blocks[:, 0] -= np.eye(r).ravel()
    return float(np.max(np.abs(blocks)))


def horner(taylor: np.ndarray, z) -> np.ndarray:
    """sum_k taylor[k] z^k by Horner's rule, from the top coefficient
    down; z is a point or an array of points, and each taylor[k] a
    number or an array that broadcasts against z."""
    acc = np.zeros(np.broadcast_shapes(np.shape(taylor[0]), np.shape(z)),
                   dtype=complex)
    for a in taylor[::-1]:
        acc *= z
        acc += a
    return acc
