"""Truncated invariant subspaces and their structure.

A subspace is carried as the read-only (D+1, k) matrix of the Taylor
coefficients 0..D of an orthonormal basis, the finite-dimensional
shadow of a shift invariant subspace, together with the graded recipe
it was built from (GradedRecipe) when _recipe_space made it, for a
builder or for a file.  The recipe's rows run grade-major, so the rows
tested under a power of the step are a prefix of the build rows, and a
Cholesky basis holds their orthonormal basis as a prefix of its
columns.  On top
of that this module measures how invariant a space actually is under
multiplication, extracts the orthogonal complement of the shifted
space (whose dimension is the Lax-Halmos rank), and builds the
two-layer constrained spaces

    span{phi_1..phi_k}  +  B^2 * (shifts of J_1..J_r)

whose hallmark is invariance under B^2 and B^3 but not under B itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .blaschke import BlaschkeSpec, blaschke_eval, power_spec
from .circlefn import (
    CircleFunction,
    _check_n_samples,
    _count,
    _integer,
    _joint_gram_defect,
    _one_blas_thread,
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
    "GradedRecipe",
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
class GradedRecipe:
    """The functions a space was built from, held as coefficients (the
    form a subspace file stores, so a recipe read back is bit for bit
    the one written), and their sample rows, grade-major: the rows of
    head, then s*step^k for every s in starts, k = 0 .. k_max in turn."""

    head: Tuple[CircleFunction, ...]
    starts: Tuple[CircleFunction, ...]
    step: CircleFunction
    k_max: int

    def __post_init__(self):
        object.__setattr__(self, "k_max", _count(self.k_max, "k_max"))
        N = self.step.n_samples
        if not self.starts or any(
                f.n_samples != N for f in (*self.head, *self.starts)):
            raise ParameterError("a build recipe needs a start and its "
                                 "functions on one grid")
        # + 0.0 clears signed zeros, as a file drops a zero coefficient
        def held(f):
            return CircleFunction.from_coeffs(f.coeffs + 0.0)
        object.__setattr__(self, "head", tuple(map(held, self.head)))
        object.__setattr__(self, "starts", tuple(map(held, self.starts)))
        object.__setattr__(self, "step", held(self.step))

    def rows(self, p: int = 0) -> np.ndarray:
        """Sample block of the build rows whose image under step^p stays
        inside the built grades (every row for p = 0), the powers formed
        by a running product: the first count(p) rows of rows(), bit for
        bit."""
        step = self.step.samples
        rows = [f.samples for f in self.head]
        grade = [f.samples for f in self.starts]
        for k in range(self.k_max + 1 - p):
            if k:
                grade = [g * step for g in grade]
            rows.extend(grade)
        return np.array(rows, dtype=complex).reshape(-1, step.size)

    def power(self, m: CircleFunction) -> Tuple[int, float]:
        """First p in 1..3 with g = max|m - step^p| <= 1e-8 (else 0), and g."""
        acc = self.step.samples
        for p in (1, 2, 3):
            g = float(np.max(np.abs(m.samples - acc)))
            if g <= 1e-8:
                return p, g
            acc = acc * self.step.samples
        return 0, g

    def count(self, p: int = 0) -> int:
        """Number of rows in rows(p)."""
        return len(self.head) + len(self.starts) * max(self.k_max + 1 - p, 0)


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Orthonormal Taylor columns on the band 0..D of an N-point grid:
    ``taylor`` is the read-only (D+1, k) matrix of the coefficients 0..D
    of the basis vectors, ``generators`` the scalar provenance.  Only
    _recipe_space sets ``recipe``, and for a Cholesky basis taylor = A U
    (A the rows' Taylor block) keeps the triangular U as ``_factor``."""

    taylor: np.ndarray
    n_samples: int
    generators: Dict[str, object] = field(default_factory=dict)
    recipe: Optional[GradedRecipe] = field(default=None, init=False)
    _factor: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _wrap: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        Q = np.array(self.taylor, dtype=complex)
        if Q.ndim != 2 or Q.shape[1] == 0:
            raise ConstructionError("a subspace needs at least one vector")
        N = _check_n_samples(self.n_samples)
        if Q.shape[0] > N // 2:
            raise SizeError(f"ambient bandwidth {Q.shape[0] - 1} does not "
                            f"fit the grid band 0..{N // 2 - 1}")
        dev = gram_defect(Q.T, scale=1)
        if not dev <= GRAM_TOL:  # written so that NaN fails too
            raise ConstructionError(
                f"basis is not orthonormal; Gram deviation {dev:.3e}")
        Q.setflags(write=False)
        object.__setattr__(self, "taylor", Q)

    @property
    def ambient_bandwidth(self) -> int:
        return self.taylor.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.taylor.shape[1]

    @property
    def basis(self) -> Tuple[CircleFunction, ...]:
        return tuple(_functions_from_columns(self.taylor, self.n_samples))

    @cached_property
    def _samples(self) -> np.ndarray:
        """Read-only sample rows of the basis vectors, synthesized once."""
        rows = samples_of_taylor(self.taylor, self.n_samples)
        rows.setflags(write=False)
        return rows


def _functions_from_columns(mat: np.ndarray,
                            n_samples: int) -> List[CircleFunction]:
    """The functions whose Taylor coefficients are the columns of mat."""
    coeffs = np.zeros((mat.shape[1], n_samples), dtype=complex)
    coeffs[:, n_samples // 2:n_samples // 2 + mat.shape[0]] = mat.T
    return [CircleFunction.from_coeffs(c) for c in coeffs]


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


@_one_blas_thread
def _orthonormal_columns(
        mat: np.ndarray) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Orthonormal basis of the column span, rank-revealing and
    deterministic, and the factor U = L^{-H} of Cholesky QR (else None).

    Columns that are already orthonormal to within GRAM_TOL are
    polished by Cholesky QR, mat L^{-H} with G = mat^H mat = L L^H: the
    same span, full rank (every singular value is within about k
    GRAM_TOL of 1, far above the cutoff) and orthonormal to about
    eps cond(mat)^2, that is to rounding.  L^{-H} is upper triangular,
    so the first m columns of that basis span the first m columns of
    mat.  Any other input goes through the rank-revealing SVD, cut at
    1e-10 times the top singular value, which keeps no such prefix.
    """
    G = mat.conj().T @ mat
    if G.size and np.max(np.abs(G - np.eye(G.shape[0]))) <= GRAM_TOL:
        U = np.linalg.inv(np.linalg.cholesky(G)).conj().T
        return mat @ U, U
    U, S, _ = _svd(mat)
    if S.size == 0 or S[0] <= 0.0:
        raise ConstructionError("the given columns span nothing")
    return U[:, :int(np.sum(S > 1e-10 * S[0]))], None


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
    k_max = _count(k_max, "k_max")
    N = generators[0].n_samples
    if multiplier.n_samples != N:
        raise SizeError("multiplier must live on the generators' grid")
    D = _check_band(D, N)
    # unimodular, so it has a significant coefficient
    low = max(0, int(multiplier._significant()[0]))
    if k_max * low > D:
        raise TruncationError(
            f"k_max = {k_max} shifts of a multiplier starting at index "
            f"{low} leave the band 0..{D}"
        )
    for g in generators:
        if g.n_samples != N:
            raise SizeError("generators must share one grid")
        require_analytic(g, "span_invariant")
    recipe = GradedRecipe((), tuple(generators), multiplier, k_max)
    prov = {"kind": "span_invariant", "n_generators": len(generators),
            "k_max": k_max, "multiplier_lowest_index": low}
    return _recipe_space(recipe, recipe.rows(), D, prov)


@_one_blas_thread
def _recipe_space(recipe: GradedRecipe, rows: np.ndarray, D: int,
                  prov: Dict[str, object]) -> SubspaceBasis:
    """The space of the recipe's sample rows on the band 0..D (``rows``
    is recipe.rows(), overwritten): the one way a space gets a recipe,
    for a builder and for a file alike.  A Cholesky-built space keeps
    its factor and the rows' wrap profile, read off the spectrum left in
    ``rows``: their l2 mass outside 0..D, then at each index -i < 0."""
    Q, U = _orthonormal_columns(taylor_block(rows, D))
    space = SubspaceBasis(Q, recipe.step.n_samples, prov)
    object.__setattr__(space, "recipe", recipe)
    if U is not None:
        c = sum(np.einsum("ij,ij->j", x, x) for x in (rows.real, rows.imag))
        object.__setattr__(space, "_factor", U)
        object.__setattr__(space, "_wrap", np.sqrt(
            np.r_[np.sum(c[D + 1:]), c[:c.size // 2:-1]]) / c.size)
    return space


def _check_band(D: int, N: int) -> int:
    D = _integer(D, "D")
    if D < 0 or D >= N // 2:
        raise SizeError(f"D = {D} does not fit the grid band 0..{N//2 - 1}")
    return D


def _image(space: SubspaceBasis,
           multiplier: CircleFunction) -> Tuple[np.ndarray, np.ndarray]:
    """The space's Taylor matrix Q and the image W, under the
    multiplier, of the vectors the space is tested on; columns on 0..D.

    Under a multiplier within 1e-8 of step^p, p in 1..3, a recipe space
    is tested on an orthonormal basis of recipe.rows(p), the build rows
    whose image stays inside the built grades (the top grade's image
    lies in a grade the finite model never held): a Cholesky-built
    space's first recipe.count(p) columns, else the rows orthonormalized
    again; invariance_defect needs W only off its grade-shift route.
    Else every basis vector is tested.  Test vectors and products are
    truncated to the band 0..D, so only spill past the band is forgiven.
    """
    _check_multiplier(multiplier, "invariance_defect")
    D, N = space.ambient_bandwidth, space.n_samples
    if multiplier.n_samples != N:
        raise SizeError("multiplier must live on the space's grid")
    Q, r = space.taylor, space.recipe
    m, rows = Q.shape[1], None
    p = 0 if r is None else r.power(multiplier)[0]
    if p and r.count(p):
        m = r.count(p)
        if space._factor is None:
            tested, _ = _orthonormal_columns(taylor_block(r.rows(p), D))
            rows = samples_of_taylor(tested, N)
    if rows is None:
        rows = space._samples[:m]
    return Q, taylor_block(rows * multiplier.samples, D)


@_one_blas_thread
def _defect(Q: np.ndarray, W: np.ndarray, C: Optional[np.ndarray] = None,
            gate: Optional[float] = None) -> float:
    """Largest singular value of X = W - Q C, the part of W outside the
    span of Q (C = Q^H W unless given), as the root of the largest
    eigenvalue of X^H X.

    That eigenvalue is accurate to eps ||X||^2, so the root is accurate
    to rounding relative to itself.  Forming X first matters: W^H W -
    C^H C would cancel down to about 1e-8 on an invariant space.  With a
    ``gate``, the Frobenius norm of X, which bounds the largest singular
    value, is returned instead when it is at most the gate: the gate
    decides the same, with no X^H X and no eigenproblem (a NaN takes the
    exact route).
    """
    X = W - Q @ (Q.conj().T @ W if C is None else C)
    if gate is not None:
        bound = float(np.linalg.norm(X))
        if bound <= gate:
            return bound
    return float(np.sqrt(max(np.linalg.eigvalsh(X.conj().T @ X)[-1], 0.0)))


@_one_blas_thread
def invariance_defect(space: SubspaceBasis,
                      multiplier: CircleFunction) -> float:
    """How far multiplication leads out of the space.

    The defect is the largest singular value of the out-of-space part
    of W, the image of the space's test vectors (see _image), so it
    does not depend on which orthonormal basis happens to represent
    the space.  It is 0 for an invariant space and 1 when some unit
    test vector is mapped wholly outside it.

    On a Cholesky-built recipe space under M = step^p, p in 1..3, M maps
    grade k of the rows into grade k + p (the band cut commutes with an
    analytic M), so of the test vectors A_m U_m (A the rows' Taylor
    block, U = _factor, m = recipe.count(p)) only the h head rows leave:
    X = E U[:h, :m], E = (I - QQ^H) T(M head), via a QR of E and an h x m
    SVD (0 if h = 0).  This omits at most (g + w) ||U||_2 (to first order
    in n GRAM_TOL) for g = max|M - step^p| and the wrap w = _wrap . c, c
    being M's l1 mass at indices < 0 plus g, then its l2 mass at indices
    >= i.  Only g + w <= (2 log2 N + 1) 7u sqrt(m), the FFT route's
    rounding bound (Higham 2002, Thm 24.2), takes this route.
    """
    r, U, N = space.recipe, space._factor, space.n_samples
    if U is not None and multiplier.n_samples == N:
        _check_multiplier(multiplier, "invariance_defect")
        p, g = r.power(multiplier)
        m, h, c = r.count(p), len(r.head), np.abs(multiplier.coeffs)
        c = np.r_[np.sum(c[:N // 2]) + g,
                  np.sqrt(np.cumsum(c[:N // 2:-1] ** 2)[::-1])]
        if p and m and g + space._wrap @ c <= (
                2 * np.log2(N) + 1) * 7 * 2.0 ** -53 * np.sqrt(m):
            if not h:
                return 0.0
            E = taylor_block(np.array([f.samples for f in r.head])
                             * multiplier.samples, space.ambient_bandwidth)
            E -= space.taylor @ (space.taylor.conj().T @ E)
            return float(np.linalg.norm(np.linalg.qr(E, "r") @ U[:h, :m], 2))
    return _defect(*_image(space, multiplier))


@_one_blas_thread
def wandering_basis(space: SubspaceBasis,
                    multiplier: CircleFunction) -> List[CircleFunction]:
    """Orthonormal basis of space minus (multiplier times space).

    The shifted space is the span of the image W that invariance_defect
    measures; a defect above RANK_CUTOFF raises DomainError.  With
    C = Q^H W the result is Q times the eigenvectors of C C^H with
    eigenvalue at most RANK_CUTOFF^2: the directions W reaches with a
    singular value of at most RANK_CUTOFF, images that left the band;
    below the gate the defect is only bounded (see _defect).
    """
    Q, W = _image(space, multiplier)
    C = Q.conj().T @ W
    defect = _defect(Q, W, C, gate=RANK_CUTOFF)
    if defect > RANK_CUTOFF:
        raise DomainError(
            f"space is not invariant under the multiplier "
            f"(defect {defect:.3e}); the complement is not meaningful"
        )
    lam, V = np.linalg.eigh(C @ C.conj().T)
    V = V[:, lam <= RANK_CUTOFF ** 2]
    if V.shape[1] == 0:
        raise DegenerateSpaceError(
            "the multiplier maps the space onto itself; the complement "
            "is trivial"
        )
    return _functions_from_columns(Q @ V, space.n_samples)


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


@_one_blas_thread
def _slot_family_defect(recipe: GradedRecipe, rows: np.ndarray) -> float:
    """gram_defect(rows) for the build rows of a recipe whose step B is
    unimodular, without their K x K Gram: the largest of the head rows'
    defect, the head-grade inner products, and the grades' block-Toeplitz
    defect, exact since <s_a B^p, s_b B^q> = mean(s_a conj(s_b) B^(p-q))
    (see _joint_gram_defect).  A NaN in any part reads NaN."""
    h = len(recipe.head)
    head, grades = rows[:h], rows[h:]
    return float(np.max([
        gram_defect(head),
        np.max(np.abs(head @ grades.conj().T)) / rows.shape[1],
        _joint_gram_defect(recipe.step.samples, grades[:len(recipe.starts)],
                           recipe.k_max)]))


def build_constrained(spec: ConstrainedSpec, D: int,
                      k_max: int) -> SubspaceBasis:
    """Span of the phi_i together with B^2 times all shifts of the J_j.

    The phi_i must come out pairwise orthonormal (they do when the J_j
    are a jointly B-inner family and the beta columns are orthonormal);
    otherwise the direct sum the construction promises does not exist
    and ConstructionError is raised.
    """
    k_max = _count(k_max, "k_max")
    N = spec.inners[0].n_samples
    D = _check_band(D, N)
    for J in spec.inners:
        if J.n_samples != N:
            raise SizeError("inner functions must share one grid")
    z = grid(N)
    bz, phis = _constrained_vectors(spec, z)
    dev = gram_defect(np.array(phis))
    if not dev <= 1e-8:  # written so that NaN fails too
        raise ConstructionError(
            f"the phi_i are not orthonormal (deviation {dev:.3e}); "
            f"check that the inners are jointly B-inner and the beta "
            f"columns orthonormal"
        )
    recipe = GradedRecipe(
        tuple(map(CircleFunction.from_samples, phis)),
        tuple(CircleFunction.from_samples(J.samples * bz * bz)
              for J in spec.inners),
        CircleFunction.from_samples(bz), k_max)
    rows = recipe.rows()
    dev_all = _slot_family_defect(recipe, rows)
    if not dev_all <= 1e-8:  # written so that NaN fails too
        raise ConstructionError(
            f"the slot family is not orthonormal (deviation {dev_all:.3e}); "
            f"the inners must form a jointly B-inner family with "
            f"uncorrelated slots"
        )
    prov = {"kind": "constrained", "k": spec.k, "r": spec.r, "k_max": k_max}
    return _recipe_space(recipe, rows, D, prov)


def verify_constrained(space: SubspaceBasis,
                       spec: ConstrainedSpec) -> ConstrainedReport:
    """Measure the space's invariance defects under B, B^2, B^3."""
    bz = blaschke_eval(spec.blaschke(), grid(space.n_samples))
    d1, d2, d3 = (invariance_defect(space, CircleFunction.from_samples(m))
                  for m in (bz, bz * bz, bz * bz * bz))
    noninv = d1 >= GENERIC_NONINVARIANCE
    return ConstrainedReport(
        b_defect=d1, b2_defect=d2, b3_defect=d3,
        invariant_b2=d2 <= RANK_CUTOFF,
        invariant_b3=d3 <= RANK_CUTOFF,
        noninvariant_b=noninv,
        degenerate=not noninv,
    )

