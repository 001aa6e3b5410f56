"""Independent computations the benchmark checks the program against.

Nothing here imports hardy.  Functions are evaluated from their Taylor
coefficients by Horner's rule, Blaschke factors and basis elements from
their closed forms, and Gram matrices and quadratures are formed
directly, so a fault in the program's FFT conventions, basis code or
series bookkeeping shows up as a disagreement.
"""

from __future__ import annotations

import json
import math

import numpy as np


class CheckFailed(Exception):
    """An output disagrees with the independent computation."""


def expect(ok, message: str):
    if not ok:
        raise CheckFailed(message)


def circle(n: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(n) / n)


def horner(taylor: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k taylor[k] z^k."""
    out = np.zeros_like(z)
    for c in taylor[::-1]:
        out = out * z + c
    return out


def coeffs_of(samples: np.ndarray) -> np.ndarray:
    """Fourier coefficients a_j, stored for j = 0 .. n-1 (negative j at
    the top, numpy order)."""
    return np.fft.fft(samples) / samples.size


def blaschke(zeros, z: np.ndarray) -> np.ndarray:
    out = np.ones_like(z)
    for a in zeros:
        out = out * (z - a) / (1.0 - np.conj(a) * z)
    return out


def basis_element(zeros, j: int, m: int, z: np.ndarray) -> np.ndarray:
    """Takenaka-Malmquist element e(j, m) = k_{a_j} * B_j * B^m."""
    a = zeros[j]
    pref = math.sqrt(1.0 - abs(a) ** 2) / (1.0 - np.conj(a) * z)
    return pref * blaschke(zeros[:j], z) * blaschke(zeros, z) ** m


def fast_winding(zeros) -> float:
    r = np.abs(np.asarray(zeros, dtype=complex))
    return float(np.sum((1.0 + r) / (1.0 - r)))


def quadrature_grid(zeros, m: int, degree: int) -> int:
    """A grid that resolves f * conj(e(j, m)) with a wide margin.

    B^m spreads its spectrum up to about m times the fast winding rate;
    eight times that (plus the input's degree) leaves an aliasing error
    far below the check tolerance.
    """
    need = 8 * (fast_winding(zeros) * (m + 1) + degree + 64)
    return max(4096, 1 << int(math.ceil(math.log2(need))))


def gram_defect(rows: np.ndarray) -> float:
    """max |G - I| for G_pq = mean(rows_p * conj(rows_q))."""
    G = rows @ rows.conj().T / rows.shape[1]
    return float(np.max(np.abs(G - np.eye(rows.shape[0]))))


def strict_json(text: str):
    """Parse JSON, refusing NaN and infinities."""
    def refuse(token):
        raise CheckFailed(f"non-finite number {token} in JSON output")
    return json.loads(text, parse_constant=refuse)


def dense_coeffs(entries, n: int) -> np.ndarray:
    """Coefficient rows [j, re, im] of the JSON function format, as a
    length-n array in numpy order (index j mod n)."""
    out = np.zeros(n, dtype=complex)
    for j, re, im in entries:
        expect(-n // 2 <= j < n // 2, f"coefficient index {j} off the grid")
        out[j % n] = complex(re, im)
    return out


def samples_from_json(obj) -> np.ndarray:
    n = int(obj["n_samples"])
    return np.fft.ifft(dense_coeffs(obj["coeffs"], n)) * n
