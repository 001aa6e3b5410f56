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

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .circlefn import (
    DEFAULT_N_SAMPLES,
    CircleFunction,
    _count,
    _integer,
    _joint_gram_defect,
    grid,
)
from .errors import ParameterError

__all__ = [
    "MAX_ZERO_MODULUS",
    "BlaschkeSpec",
    "BasisIndex",
    "power_spec",
    "blaschke_eval",
    "as_circle_function",
    "basis_element",
    "check_basis_orthonormality",
]

# Zeros must stay this far inside the closed disk.
MAX_ZERO_MODULUS = 1.0 - 1e-6


@dataclass(frozen=True)
class BlaschkeSpec:
    """Zeros of a finite Blaschke product, with multiplicity, in order."""

    zeros: Tuple[complex, ...]

    def __post_init__(self):
        zs = tuple(complex(z) for z in self.zeros)
        if len(zs) == 0:
            raise ParameterError("a Blaschke product needs at least one zero")
        bad = [z for z in zs if not abs(z) <= MAX_ZERO_MODULUS]  # or NaN
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
        object.__setattr__(self, "j", _count(self.j, "basis index j"))
        object.__setattr__(self, "m", _count(self.m, "basis index m"))


def power_spec(n: int) -> BlaschkeSpec:
    """The spec whose product is z^n."""
    n = _integer(n, "power")
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


def check_basis_orthonormality(spec: BlaschkeSpec, m_max: int,
                               n_samples: int = DEFAULT_N_SAMPLES) -> float:
    """Worst deviation of the e(j, m) Gram matrix from the identity,
    m <= m_max: the shift Gram of the carriers e(j, 0) under B."""
    m_max = _count(m_max, "m_max")
    carriers, b = _basis_carriers(spec, grid(n_samples))
    return _joint_gram_defect(b, carriers, m_max)
