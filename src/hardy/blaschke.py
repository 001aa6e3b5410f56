"""Finite Blaschke products and the orthonormal basis they induce.

For zeros a_1 .. a_n in the open disk,

    B(z) = prod_i (z - a_i) / (1 - conj(a_i) z)

is unimodular on the circle.  The partial products B_j (first j
factors) feed the basis

    e(j, m) = sqrt(1 - |a_{j+1}|^2) / (1 - conj(a_{j+1}) z) * B_j * B^m,

an orthonormal family in the Hardy space for 0 <= j < n, m >= 0 (the
Takenaka-Malmquist system of the periodically repeated zero sequence).
Everything is evaluated pointwise on the grid, so no products of
truncated coefficient series are involved.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .circlefn import (
    DEFAULT_N_SAMPLES,
    CircleFunction,
    evaluate_at,
    gram_defect,
    grid,
)
from .errors import ParameterError, TruncationError

__all__ = [
    "MAX_ZERO_MODULUS",
    "BlaschkeSpec",
    "BasisIndex",
    "ConventionWarning",
    "power_spec",
    "blaschke_eval",
    "as_circle_function",
    "partial_product",
    "basis_element",
    "compose",
    "check_basis_orthonormality",
    "gram_matrix",
]

# Zeros must stay this far inside the closed disk.
MAX_ZERO_MODULUS = 1.0 - 1e-6


class ConventionWarning(UserWarning):
    """The first zero is nonzero, so composition is contractive rather
    than isometric on the Hardy space; norm identities that assume a
    vanishing first zero do not apply verbatim."""


@dataclass(frozen=True)
class BlaschkeSpec:
    """Zeros of a finite Blaschke product, with multiplicity, in order."""

    zeros: Tuple[complex, ...]

    def __post_init__(self):
        zs = tuple(complex(z) for z in self.zeros)
        if len(zs) == 0:
            raise ParameterError("a Blaschke product needs at least one zero")
        bad = [z for z in zs if abs(z) > MAX_ZERO_MODULUS]
        if bad:
            raise ParameterError(
                f"zeros must satisfy |a| <= {MAX_ZERO_MODULUS}; offending: {bad}"
            )
        object.__setattr__(self, "zeros", zs)

    @property
    def degree(self) -> int:
        return len(self.zeros)


@dataclass(frozen=True)
class BasisIndex:
    """Index (j, m): factor slot j in 0..n-1 and power m >= 0."""

    j: int
    m: int

    def __post_init__(self):
        if self.j < 0 or self.m < 0:
            raise ParameterError(f"basis index needs j, m >= 0, got {self}")


def power_spec(n: int) -> BlaschkeSpec:
    """The spec whose product is z^n."""
    if n < 1:
        raise ParameterError(f"power must be >= 1, got {n}")
    return BlaschkeSpec(zeros=(0.0 + 0.0j,) * n)


def blaschke_eval(spec: BlaschkeSpec, z) -> complex:
    """Evaluate the product at a scalar or array of points, |z| <= 1."""
    zarr = np.asarray(z, dtype=complex)
    out = np.ones_like(zarr)
    for a in spec.zeros:
        out = out * (zarr - a) / (1.0 - np.conj(a) * zarr)
    if np.isscalar(z) or zarr.ndim == 0:
        return complex(out)
    return out


def as_circle_function(spec: BlaschkeSpec,
                       n_samples: int = DEFAULT_N_SAMPLES) -> CircleFunction:
    """Grid samples of B; unimodular on the circle by construction."""
    return CircleFunction.from_samples(blaschke_eval(spec, grid(n_samples)))


def partial_product(spec: BlaschkeSpec, j: int,
                    n_samples: int = DEFAULT_N_SAMPLES) -> CircleFunction:
    """B_j, the product of the first j factors; B_0 is the constant 1."""
    if j < 0 or j > spec.degree:
        raise ParameterError(
            f"partial product index must lie in 0..{spec.degree}, got {j}"
        )
    if j == 0:
        return CircleFunction.from_samples(np.ones(n_samples, dtype=complex))
    head = BlaschkeSpec(spec.zeros[:j])
    return as_circle_function(head, n_samples)


def _basis_carriers(spec: BlaschkeSpec, z: np.ndarray):
    """Every carrier e(j, 0) and the product B, in one pass over the
    zeros; the basis member e(j, m) is e(j, 0) * B^m."""
    carriers = []
    bj = np.ones_like(z)
    for a in spec.zeros:
        pref = np.sqrt(1.0 - abs(a) ** 2) / (1.0 - np.conj(a) * z)
        carriers.append(pref * bj)
        bj = bj * (z - a) / (1.0 - np.conj(a) * z)
    return carriers, bj


def basis_element(spec: BlaschkeSpec, index: BasisIndex,
                  n_samples: int = DEFAULT_N_SAMPLES) -> CircleFunction:
    """The orthonormal basis member e(j, m) as a grid function."""
    if index.j >= spec.degree:
        raise ParameterError(
            f"factor slot {index.j} out of range for degree {spec.degree}"
        )
    carriers, b = _basis_carriers(spec, grid(n_samples))
    return CircleFunction.from_samples(carriers[index.j] * b ** index.m)


def compose(f: CircleFunction, spec: BlaschkeSpec) -> CircleFunction:
    """f composed with B, evaluated as the Taylor series of f at B(z_k).

    Requires f analytic and a grid with margin
    n_samples >= 4 * degree * bandwidth(f) so the composed spectrum
    stays clear of the band edge.
    """
    need = 4 * spec.degree * max(f.top_index(), 1)
    if f.n_samples < need:
        raise TruncationError(
            f"composition needs n_samples >= {need}, got {f.n_samples}"
        )
    if spec.zeros[0] != 0:
        warnings.warn(
            "first Blaschke zero is nonzero; composition preserves the "
            "Hardy space but is only norm contractive, not isometric",
            ConventionWarning,
            stacklevel=2,
        )
    bz = blaschke_eval(spec, grid(f.n_samples))
    return CircleFunction.from_samples(evaluate_at(f, bz))


def gram_matrix(functions: Sequence[CircleFunction]) -> np.ndarray:
    """Matrix of grid inner products <f_i, f_j>."""
    if not functions:
        raise ParameterError("need at least one function")
    n = functions[0].n_samples
    mat = np.vstack([f.samples for f in functions])
    if mat.shape[1] != n:
        raise ParameterError("functions must share one grid")
    return (mat @ mat.conj().T) / n


def check_basis_orthonormality(spec: BlaschkeSpec, m_max: int,
                               n_samples: int = DEFAULT_N_SAMPLES) -> float:
    """Worst deviation of the e(j, m) Gram matrix from the identity."""
    if m_max < 0:
        raise ParameterError("m_max must be >= 0")
    carriers, b = _basis_carriers(spec, grid(n_samples))
    rows = [e0 * b ** m for m in range(m_max + 1) for e0 in carriers]
    return gram_defect(np.vstack(rows))
