"""Truncated invariant subspaces and their structure.

A subspace is carried as an orthonormal family of coefficient vectors
supported on indices 0..D, the finite-dimensional shadow of a shift
invariant subspace.  On top of that this module measures how invariant
a space actually is under multiplication, extracts the orthogonal
complement of the shifted space (whose dimension is the Lax-Halmos
rank), and builds the two-layer constrained spaces

    span{phi_1..phi_k}  +  B^2 * (shifts of J_1..J_r)

whose hallmark is invariance under B^2 and B^3 but not under B itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .blaschke import BlaschkeSpec, blaschke_eval, power_spec
from .circlefn import (
    COEFF_CUTOFF,
    TOL_ANALYTIC,
    CircleFunction,
    _graded_rows,
    gram_defect,
    grid,
    require_analytic,
    samples_of_taylor,
    taylor_block,
)
from .errors import (
    ConstructionError,
    DegenerateSpaceError,
    DomainError,
    ParameterError,
    SizeError,
    TruncationError,
)

__all__ = [
    "SubspaceBasis",
    "ConstrainedSpec",
    "ConstrainedReport",
    "span_invariant",
    "invariance_defect",
    "wandering_basis",
    "build_constrained",
    "verify_constrained",
]

GRAM_TOL = 1e-10
UNIMODULAR_TOL = 1e-8
RANK_CUTOFF = 1e-6
GENERIC_NONINVARIANCE = 0.05


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Orthonormal coefficient-vector family on the band 0..D."""

    ambient_bandwidth: int
    basis: Tuple[CircleFunction, ...]
    generators: Dict[str, object]

    def __post_init__(self):
        if not self.basis:
            raise ConstructionError("a subspace needs at least one vector")
        N = self.basis[0].n_samples
        D = self.ambient_bandwidth
        if D < 0 or D >= N // 2:
            raise SizeError(
                f"ambient bandwidth {D} does not fit the grid band "
                f"0..{N // 2 - 1}"
            )
        if any(v.n_samples != N for v in self.basis):
            raise SizeError("basis members must share one grid")
        # The analyticity and band checks run once over the stacked
        # coefficients; the first member failing either is reported.
        C = np.stack([v.coeffs for v in self.basis])
        half = N // 2
        negative = np.linalg.norm(C[:, :half], axis=1)
        beyond = np.any(np.abs(C[:, half + D + 1:]) > COEFF_CUTOFF, axis=1)
        analytic = negative <= TOL_ANALYTIC  # False on NaN, as is_analytic
        bad = ~analytic | beyond
        if bad.any():
            j = int(np.argmax(bad))
            if not analytic[j]:
                raise DomainError(
                    f"subspace basis member {j} needs an analytic input; "
                    f"negative coefficient mass is {negative[j]:.3e}"
                )
            raise TruncationError(
                f"basis member {j} reaches index "
                f"{self.basis[j].top_index()}, beyond the declared "
                f"bandwidth {D}"
            )
        dev = gram_defect(C[:, half:half + D + 1], scale=1)
        if dev > GRAM_TOL:
            raise ConstructionError(
                f"basis is not orthonormal; Gram deviation {dev:.3e}"
            )

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def n_samples(self) -> int:
        return self.basis[0].n_samples


def _coeff_matrix(members: Sequence[CircleFunction], D: int) -> np.ndarray:
    """Taylor coefficients 0..D of each member, as matrix columns."""
    half = members[0].n_samples // 2
    return np.stack([v.coeffs[half:half + D + 1] for v in members], axis=1)


def _functions_from_columns(mat: np.ndarray,
                            n_samples: int) -> List[CircleFunction]:
    """The functions whose Taylor coefficients are the columns of mat."""
    half = n_samples // 2
    out = []
    for j, samples in enumerate(samples_of_taylor(mat, n_samples)):
        c = np.zeros(n_samples, dtype=complex)
        c[half:half + mat.shape[0]] = mat[:, j]
        out.append(CircleFunction(n_samples, samples, c))
    return out


def _svd(mat: np.ndarray):
    """Thin SVD.  When LAPACK fails to converge, retry on the R factor
    of a QR decomposition mat = Q R, which has the same singular values
    and whose left singular vectors map back through Q."""
    try:
        return np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError:
        Q, R = np.linalg.qr(mat)
        U, S, Vh = np.linalg.svd(R, full_matrices=False)
        return Q @ U, S, Vh


def _orthonormal_columns(mat: np.ndarray, rel_cutoff: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the column span, rank-revealing and
    deterministic.

    Columns that are already orthonormal to within GRAM_TOL are
    polished by Cholesky QR, mat L^{-H} with G = mat^H mat = L L^H: the
    same span, full rank (every singular value is within about k
    GRAM_TOL of 1, far above the cutoff) and orthonormal to about
    eps cond(mat)^2, that is to rounding.  Any other input goes through
    the rank-revealing SVD.
    """
    G = mat.conj().T @ mat
    if G.size and np.max(np.abs(G - np.eye(G.shape[0]))) <= GRAM_TOL:
        return mat @ np.linalg.inv(np.linalg.cholesky(G)).conj().T
    U, S, _ = _svd(mat)
    if S.size == 0 or S[0] <= 0.0:
        raise ConstructionError("the given columns span nothing")
    return U[:, :int(np.sum(S > rel_cutoff * S[0]))]


def _check_multiplier(m: CircleFunction, who: str):
    if not m.is_analytic():
        raise ParameterError(f"{who} needs an analytic multiplier")
    dev = float(np.max(np.abs(np.abs(m.samples) - 1.0)))
    if dev > UNIMODULAR_TOL:
        raise ParameterError(
            f"{who} needs a unimodular multiplier; modulus deviates "
            f"by {dev:.3e}"
        )


def span_invariant(generators: Sequence[CircleFunction],
                   multiplier: CircleFunction, k_max: int,
                   D: int) -> SubspaceBasis:
    """Orthonormalize {multiplier^k g : g generator, 0 <= k <= k_max}
    inside the band 0..D.

    Products are formed sample-wise and truncated to the band; the
    basis is the rank-revealing orthonormalization of those columns.
    """
    if not generators:
        raise ParameterError("need at least one generator")
    _check_multiplier(multiplier, "span_invariant")
    if k_max < 0:
        raise ParameterError("k_max must be >= 0")
    N = generators[0].n_samples
    if D < 0 or D >= N // 2:
        raise SizeError(f"D = {D} does not fit the grid band 0..{N//2 - 1}")
    low = _lowest_index(multiplier)
    if k_max * low > D:
        raise TruncationError(
            f"k_max = {k_max} shifts of a multiplier starting at index "
            f"{low} leave the band 0..{D}"
        )
    for g in generators:
        if g.n_samples != N:
            raise SizeError("generators must share one grid")
        require_analytic(g, "span_invariant")
    rows = _graded_rows((), [g.samples for g in generators],
                        multiplier.samples, k_max + 1)
    basis_mat = _orthonormal_columns(taylor_block(rows, D))
    basis = _functions_from_columns(basis_mat, N)
    prov = {
        "kind": "span_invariant",
        "n_generators": len(generators),
        "k_max": k_max,
        "multiplier_lowest_index": low,
        # raw build recipe, consumed by the graded defect measurement
        "base_samples": multiplier.samples.copy(),
        "generator_samples": [g.samples.copy() for g in generators],
    }
    return SubspaceBasis(ambient_bandwidth=D, basis=tuple(basis),
                         generators=prov)


def _lowest_index(f: CircleFunction) -> int:
    nz = np.nonzero(np.abs(f.coeffs) > 1e-13)[0]
    if nz.size == 0:
        return 0
    return max(0, int(nz[0]) - f.n_samples // 2)


def _graded_testable_columns(recipe: dict, multiplier: CircleFunction,
                             N: int) -> Optional[np.ndarray]:
    """Rebuild, as the rows of a sample block, the raw build columns
    whose image under the multiplier stays inside the modeled grades.

    Returns None when the space carries no build recipe, the recipe
    does not fit the grid, or the multiplier is not a small power of
    the recorded build multiplier.  None means the caller must fall
    back to the recipe-free measurement.
    """
    if recipe.get("kind") not in ("span_invariant", "constrained"):
        return None
    base = np.asarray(recipe.get("base_samples"))
    if base.shape != (N,):
        return None
    acc = base
    for step in (1, 2, 3):
        if np.max(np.abs(multiplier.samples - acc)) <= 1e-8:
            break
        acc = acc * base
    else:
        return None
    k_max = int(recipe.get("k_max", -1))
    prefix = recipe.get("prefix_samples")
    starts = [np.asarray(g) if prefix is None else np.asarray(g) * prefix
              for g in recipe.get("generator_samples", ())]
    rows = _graded_rows(recipe.get("extra_samples", ()), starts, base,
                        k_max - step + 1)
    return rows if rows.shape[0] else None


def _image(space: SubspaceBasis,
           multiplier: CircleFunction) -> Tuple[np.ndarray, np.ndarray]:
    """The space's Taylor matrix Q and the image W, under the
    multiplier, of the vectors the space is tested on; columns on 0..D.

    A space that records its build recipe is tested on an orthonormal
    basis of the graded columns whose image stays inside the modeled
    grades; the image of the top grade lies in a grade the finite model
    never held.  A space without a recipe is tested on every basis
    vector, truncated to the band.  The products are truncated to the
    band 0..D too, so only spill past the ambient band is forgiven.
    """
    _check_multiplier(multiplier, "invariance_defect")
    D = space.ambient_bandwidth
    N = space.n_samples
    if multiplier.n_samples != N:
        raise SizeError("multiplier must live on the space's grid")
    Q = _coeff_matrix(space.basis, D)
    recipe = space.generators if isinstance(space.generators, dict) else {}
    rows = _graded_testable_columns(recipe, multiplier, N)
    tested = Q if rows is None else _orthonormal_columns(taylor_block(rows, D))
    rows = samples_of_taylor(tested, N)
    rows *= multiplier.samples
    return Q, taylor_block(rows, D)


def _defect(Q: np.ndarray, W: np.ndarray) -> float:
    """Largest singular value of the part X of W outside the span of Q,
    as the root of the largest eigenvalue of X^H X.

    That eigenvalue is accurate to eps ||X||^2, so the root is accurate
    to rounding relative to itself.  X is formed before its Gram on
    purpose: W^H W - (Q^H W)^H (Q^H W) would cancel down to about 1e-8
    on an invariant space.
    """
    X = W - Q @ (Q.conj().T @ W)
    return float(np.sqrt(max(np.linalg.eigvalsh(X.conj().T @ X)[-1], 0.0)))


def invariance_defect(space: SubspaceBasis,
                      multiplier: CircleFunction) -> float:
    """How far multiplication leads out of the space.

    The defect is the largest singular value of the out-of-space part
    of W, the image of the space's test vectors (see _image), so it
    does not depend on which orthonormal basis happens to represent
    the space.  It is 0 for an invariant space and 1 when some unit
    test vector is mapped wholly outside it.
    """
    return _defect(*_image(space, multiplier))


def wandering_basis(space: SubspaceBasis,
                    multiplier: CircleFunction) -> List[CircleFunction]:
    """Orthonormal basis of space minus (multiplier times space).

    The shifted space is the span of the image W that invariance_defect
    measures, and the defect is checked on that W.  W holds images of
    orthonormal vectors; directions below RANK_CUTOFF are images that
    left the band and shift nothing into the model.  The dimension of
    the result is the rank of the shift restricted to the space.
    """
    Q, W = _image(space, multiplier)
    defect = _defect(Q, W)
    if defect > RANK_CUTOFF:
        raise ParameterError(
            f"space is not invariant under the multiplier "
            f"(defect {defect:.3e}); the complement is not meaningful"
        )
    U, S, _ = _svd(W)
    QB = U[:, S > RANK_CUTOFF]
    U, S, _ = _svd(Q - QB @ (QB.conj().T @ Q))
    if S.size == 0 or S[0] < 1e-8:
        raise DegenerateSpaceError(
            "the multiplier maps the space onto itself; the complement "
            "is trivial"
        )
    r = int(np.sum(S >= RANK_CUTOFF * S[0]))
    return _functions_from_columns(U[:, :r], space.n_samples)


@dataclass(frozen=True, eq=False)
class ConstrainedSpec:
    """Recipe for the two-layer space.

    beta has shape (2r, k); column i defines
    phi_i = sum_j (beta[2j, i] + beta[2j+1, i] * B) * J_j.  Columns are
    unit vectors and k stays below 2r.
    """

    inners: Tuple[CircleFunction, ...]
    beta: np.ndarray
    multiplier: Union[int, BlaschkeSpec]

    def __post_init__(self):
        object.__setattr__(self, "inners", tuple(self.inners))
        beta = np.atleast_2d(np.asarray(self.beta, dtype=complex))
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        r = len(self.inners)
        if r == 0:
            raise ParameterError("need at least one inner function")
        if beta.shape[0] != 2 * r:
            raise ParameterError(
                f"beta needs 2r = {2 * r} rows, got {beta.shape[0]}"
            )
        k = beta.shape[1]
        if k < 1 or k > 2 * r - 1:
            raise ParameterError(
                f"column count k = {k} must satisfy 1 <= k <= 2r-1 = {2*r - 1}"
            )
        col_norms = np.linalg.norm(beta, axis=0)
        # written so that a NaN entry fails too
        if not np.max(np.abs(col_norms - 1.0)) <= 1e-8:
            raise ParameterError("beta columns must be unit vectors")
        if isinstance(self.multiplier, int):
            if self.multiplier < 1:
                raise ParameterError("multiplier power must be >= 1")
        elif not isinstance(self.multiplier, BlaschkeSpec):
            raise ParameterError(
                "multiplier must be an integer power or a BlaschkeSpec"
            )

    @property
    def r(self) -> int:
        return len(self.inners)

    @property
    def k(self) -> int:
        return int(self.beta.shape[1])

    def blaschke(self) -> BlaschkeSpec:
        if isinstance(self.multiplier, BlaschkeSpec):
            return self.multiplier
        return power_spec(self.multiplier)


@dataclass(frozen=True, eq=False)
class ConstrainedReport:
    """Invariance profile of a two-layer space.

    The square and cube of the multiplier must keep the space fixed;
    the multiplier itself must visibly not, unless the recipe was
    degenerate.  The non-invariance threshold is a generic-case check,
    not a theorem.
    """

    b_defect: float
    b2_defect: float
    b3_defect: float
    invariant_b2: bool
    invariant_b3: bool
    noninvariant_b: bool
    degenerate: bool

    @property
    def passed(self) -> bool:
        return self.invariant_b2 and self.invariant_b3


def _constrained_vectors(spec: ConstrainedSpec, z: np.ndarray):
    bz = blaschke_eval(spec.blaschke(), z)
    phis = []
    for i in range(spec.k):
        acc = np.zeros_like(z, dtype=complex)
        for j in range(spec.r):
            acc += (spec.beta[2 * j, i]
                    + spec.beta[2 * j + 1, i] * bz) * spec.inners[j].samples
        phis.append(acc)
    return bz, phis


def build_constrained(spec: ConstrainedSpec, D: int,
                      k_max: int) -> SubspaceBasis:
    """Span of the phi_i together with B^2 times all shifts of the J_j.

    The phi_i must come out pairwise orthonormal (they do when the J_j
    are a jointly B-inner family and the beta columns are orthonormal);
    otherwise the direct sum the construction promises does not exist
    and ConstructionError is raised.
    """
    if k_max < 0:
        raise ParameterError("k_max must be >= 0")
    N = spec.inners[0].n_samples
    for J in spec.inners:
        if J.n_samples != N:
            raise SizeError("inner functions must share one grid")
    z = grid(N)
    bz, phis = _constrained_vectors(spec, z)
    dev = gram_defect(np.array(phis))
    if dev > 1e-8:
        raise ConstructionError(
            f"the phi_i are not orthonormal (deviation {dev:.3e}); "
            f"check that the inners are jointly B-inner and the beta "
            f"columns orthonormal"
        )
    rows = _graded_rows(phis, [J.samples * bz * bz for J in spec.inners],
                        bz, k_max + 1)
    dev_all = gram_defect(rows)
    if dev_all > 1e-8:
        raise ConstructionError(
            f"the slot family is not orthonormal (deviation {dev_all:.3e}); "
            f"the inners must form a jointly B-inner family with "
            f"uncorrelated slots"
        )
    basis_mat = _orthonormal_columns(taylor_block(rows, D))
    basis = _functions_from_columns(basis_mat, N)
    prov = {
        "kind": "constrained",
        "k": spec.k,
        "r": spec.r,
        "k_max": k_max,
        # raw build recipe, consumed by the graded defect measurement;
        # the phi vectors are always testable, the layer columns only
        # up to the grades whose image the model still holds
        "base_samples": bz.copy(),
        "prefix_samples": bz * bz,
        "generator_samples": [J.samples.copy() for J in spec.inners],
        "extra_samples": [p.copy() for p in phis],
    }
    return SubspaceBasis(ambient_bandwidth=D, basis=tuple(basis),
                         generators=prov)


def verify_constrained(space: SubspaceBasis,
                       spec: ConstrainedSpec) -> ConstrainedReport:
    """Measure the space's invariance defects under B, B^2, B^3."""
    N = space.n_samples
    z = grid(N)
    bz = blaschke_eval(spec.blaschke(), z)
    mult_b = CircleFunction.from_samples(bz)
    mult_b2 = CircleFunction.from_samples(bz * bz)
    mult_b3 = CircleFunction.from_samples(bz * bz * bz)
    d1 = invariance_defect(space, mult_b)
    d2 = invariance_defect(space, mult_b2)
    d3 = invariance_defect(space, mult_b3)
    noninv = d1 >= GENERIC_NONINVARIANCE
    return ConstrainedReport(
        b_defect=d1, b2_defect=d2, b3_defect=d3,
        invariant_b2=d2 <= RANK_CUTOFF,
        invariant_b3=d3 <= RANK_CUTOFF,
        noninvariant_b=noninv,
        degenerate=not noninv,
    )

