"""Named verification suites with deterministic, seedable reports.

Each registered id runs a battery of randomized structural checks and
returns a VerificationReport: a list of (name, measured, threshold,
pass) rows.  Each threshold is fixed in the code next to its row; no
setting moves it.  Reports are reproducible byte for byte at a fixed
seed; wall time is measured but serialized as null so reruns compare
equal.

The ids are stable command-line tokens.  What each one checks:

  lemma-2.4   pairing bound: mean|f h| against a gauge norm times its
              certified dual estimate
  lemma-4.1   Fejer smoothing converges in rotation-symmetric norms,
              under the coefficient-mass bound
  lemma-4.2   roots-of-unity splitting is exact and support-sharp, and
              agrees with the root-of-unity average
  thm-3.5     two-layer constrained spaces: invariant under the square
              and cube of the product but not the product (power case)
  thm-3.6     single-generator invariant spans return their generator
              as the shift complement; under a finite Blaschke product
              the complement of a span of B-inner generators is jointly
              B-inner and holds them
  thm-4.5     constrained spaces for curved products, plus gauge-norm
              isometry of unimodular multiplication
  thm-4.6     power splitting adds component energies exactly
  thm-5.4     n-inner times n-outer factorization round trip
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .blaschke import (BlaschkeSpec, _basis_carriers, as_circle_function,
                       blaschke_eval)
from .circlefn import (
    CircleFunction,
    _check_n_samples,
    freq_indices,
    grid,
    monomial,
    norm2,
)
from .decomp import cesaro_convergence_profile, decompose_zn
from .errors import ParameterError, TruncationError
from .factor import b_inner_matrix_from, n_inner_outer_factorize
from .invariance import (
    GENERIC_NONINVARIANCE,
    ConstrainedSpec,
    build_constrained,
    span_invariant,
    verify_constrained,
    wandering_basis,
)
from .norms import (
    PNorm,
    SupNorm,
    builtin_specs,
    dual_norm_estimate,
    gauge_eval,
)

__all__ = [
    "Check",
    "RunConfig",
    "VerificationReport",
    "REGISTRY",
    "registry_ids",
    "run_verification",
]


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    threshold: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "measured": self.measured,
            "threshold": self.threshold,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by every suite and CLI command."""

    n_samples: int = 1024
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_samples",
                           _check_n_samples(self.n_samples))


@dataclass(frozen=True)
class VerificationReport:
    theorem_id: str
    checks: Tuple[Check, ...]
    wall_time: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        # wall_time stays out of the canonical payload so reruns with
        # one seed are byte-identical.
        return {
            "theorem_id": self.theorem_id,
            "checks": [c.as_dict() for c in self.checks],
            "passed": self.passed,
            "wall_time": None,
        }


def _random_poly(rng: np.random.Generator, degree: int,
                 n_samples: int) -> CircleFunction:
    coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    half = n_samples // 2
    if degree >= half:
        raise TruncationError(
            f"coefficient index {half} outside band [{-half}, {half - 1}]")
    full = np.zeros(n_samples, dtype=complex)
    full[half:half + degree + 1] = coeffs
    return CircleFunction.from_coeffs(full)


def _check(name: str, measured: float, threshold: float) -> Check:
    measured = float(measured)
    threshold = float(threshold)
    return Check(name=name, measured=measured, threshold=threshold,
                 passed=measured <= threshold)


# --- lemma-2.4 -------------------------------------------------------------

def _run_pairing_bound(config: RunConfig) -> Tuple[Check, ...]:
    rng = np.random.default_rng(config.seed)
    N = config.n_samples
    checks = []
    worst_estimate_excess = 0.0
    for p in (1.0, 1.5, 2.0, 3.0):
        spec = PNorm(p)
        dual = SupNorm() if p == 1.0 else PNorm(p / (p - 1.0))
        worst = -np.inf
        for _ in range(250):
            fv = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            hv = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            f = CircleFunction.from_samples(fv)
            h = CircleFunction.from_samples(hv)
            lhs = float(np.mean(np.abs(fv * hv)))
            rhs = gauge_eval(spec, f) * gauge_eval(dual, h)
            worst = max(worst, lhs - rhs)
        checks.append(_check(f"pairing_bound_p{p:g}", worst, 1e-9))
        h = _random_poly(rng, 24, N)
        estimate = dual_norm_estimate(spec, h, budget=256, seed=config.seed)
        exact = gauge_eval(dual, h)
        worst_estimate_excess = max(worst_estimate_excess, estimate - exact)
    checks.append(_check("dual_estimate_is_lower_bound",
                         worst_estimate_excess, 1e-9))
    return tuple(checks)


# --- lemma-4.1 -------------------------------------------------------------

def _run_smoothing(config: RunConfig) -> Tuple[Check, ...]:
    rng = np.random.default_rng(config.seed)
    N = config.n_samples
    specs = {k: v for k, v in builtin_specs(N).items()
             if k in ("p1", "p2", "p4", "sup")}
    bound_excess = -np.inf
    final_worst = 0.0
    symmetry_worst = 0.0
    for name, spec in specs.items():
        for _ in range(4):
            raw = _random_poly(rng, 8, N)
            b = raw.top_index()
            half = N // 2
            mass = float(np.sum(np.abs(raw.coeffs[half:half + b + 1])))
            # Unit coefficient mass; the final-value target is not
            # scale-invariant, so a normalization is forced.
            f = complex(1.0 / mass) * raw
            l_max = 1000 * b
            profile = cesaro_convergence_profile(f, spec, l_max)
            ls = np.arange(l_max + 1)
            bound = b / (ls + 1.0)
            bound_excess = max(bound_excess, float(np.max(profile - bound)))
            final_worst = max(final_worst, float(profile[-1]))
        mod = np.abs(_random_poly(rng, 12, N).samples)
        base = spec._eval(mod)
        for shift in range(1, N, 97):
            symmetry_worst = max(
                symmetry_worst, abs(spec._eval(np.roll(mod, shift)) - base))
    return (
        _check("smoothing_bound_excess", bound_excess, 1e-9),
        _check("smoothing_final_value", final_worst, 1e-3),
        _check("rotation_symmetry", symmetry_worst, 1e-12),
    )


# --- lemma-4.2 -------------------------------------------------------------

def _root_of_unity_twist(N: int, n: int, i: int) -> np.ndarray:
    """Coefficient weights of g_i = (1/n) sum_l w^(-l i) f(w^l z), w =
    exp(2 pi i / n), on an N-point grid: f(w^l z) has coefficients
    a_m w^(l m), so g_i is a twist of f's coefficients by the mean of
    w^(l (m - i)) over l."""
    m = freq_indices(N)
    w = np.exp(2j * np.pi * np.arange(n) / n)
    twist = w[(np.arange(n)[:, None] * (m - i)[None, :]) % n]
    return np.mean(twist, axis=0)


def _run_zn_split(config: RunConfig) -> Tuple[Check, ...]:
    rng = np.random.default_rng(config.seed)
    N = config.n_samples
    worst_residual = 0.0
    worst_support = 0.0
    worst_energy = 0.0
    worst_average = 0.0
    freqs = freq_indices(N)
    for n in range(1, 9):
        off_class = (freqs % n) != 0
        twists = [_root_of_unity_twist(N, n, i) for i in range(n)]
        for _ in range(100):
            f = _random_poly(rng, int(rng.integers(0, min(200, N // 4))), N)
            dec = decompose_zn(f, n)
            worst_residual = max(worst_residual, dec.residual)
            total = 0.0
            for i, h in enumerate(dec.components):
                off = h.coeffs[off_class]
                if off.size:
                    worst_support = max(worst_support,
                                        float(np.max(np.abs(off))))
                total += norm2(h) ** 2
                # z^i h_i must be the average g_i: compare coefficients
                # after moving h_i's up by i.
                gap = np.abs((f.coeffs * twists[i])[i:] - h.coeffs[:N - i])
                worst_average = max(worst_average, float(np.max(gap)))
            worst_energy = max(worst_energy,
                               abs(norm2(f) ** 2 - total))
    return (
        _check("split_residual", worst_residual, 1e-12),
        _check("component_support", worst_support, 0.0),
        _check("component_energy_sum", worst_energy, 1e-9),
        _check("averaging_agreement", worst_average, 1e-12),
    )


# --- constrained-space helpers --------------------------------------------

def _power_inner_family(rng: np.random.Generator, n: int, r: int,
                        N: int) -> Tuple[CircleFunction, ...]:
    """r jointly n-inner functions: distinct-residue carriers times
    inner functions of z^n."""
    z = grid(N)
    residues = rng.permutation(n)[:r]
    out = []
    for c in residues:
        n_zeros = int(rng.integers(0, 3))
        zeros = tuple(
            0.6 * rng.uniform(0.2, 1.0) * np.exp(2j * np.pi * rng.random())
            for _ in range(n_zeros))
        theta = blaschke_eval(BlaschkeSpec(zeros), z ** n) if zeros else 1.0
        out.append(CircleFunction.from_samples((z ** int(c)) * theta))
    return tuple(out)


def _predicted_escape(beta: np.ndarray) -> float:
    """Exact norm of the largest out-of-space residual a constrained
    space built from this beta will show under its base multiplier.

    Writing u_i for a column's constant-layer part and w_i for its
    multiplier-layer part, multiplying column i by the base leaves the
    residual norm sqrt(|u_i|^2 - sum_j |<u_i, w_j>|^2).
    """
    u = beta[0::2, :]
    w = beta[1::2, :]
    worst = 0.0
    for i in range(beta.shape[1]):
        c = w.conj().T @ u[:, i]
        gap = float(np.linalg.norm(u[:, i]) ** 2 - np.linalg.norm(c) ** 2)
        worst = max(worst, np.sqrt(max(gap, 0.0)))
    return worst


def _orthonormal_beta(rng: np.random.Generator, r: int, k: int,
                      floor: float = 0.3) -> np.ndarray:
    """Orthonormal (2r x k) columns whose first-row entries all clear
    the floor in modulus and whose predicted base-multiplier escape is
    solidly generic.  Seeded retry; the acceptance window is wide."""
    for _ in range(500):
        raw = rng.standard_normal((2 * r, 2 * r)) \
            + 1j * rng.standard_normal((2 * r, 2 * r))
        q, _ = np.linalg.qr(raw)
        beta = q[:, :k]
        if np.min(np.abs(beta[0, :])) < floor:
            continue
        if _predicted_escape(beta) >= 0.09:
            return beta
    raise ParameterError("could not draw a beta matrix above the floor")


def _constrained_checks(specs, D: int, k_max: int) -> Tuple[Check, ...]:
    """Square, cube and non-invariance rows over the two-layer spaces
    built from ``specs`` on the band 0..D."""
    worst_b2 = 0.0
    worst_b3 = 0.0
    least_b = np.inf
    for spec in specs:
        report = verify_constrained(build_constrained(spec, D=D, k_max=k_max),
                                    spec)
        worst_b2 = max(worst_b2, report.b2_defect)
        worst_b3 = max(worst_b3, report.b3_defect)
        least_b = min(least_b, report.b_defect)
    return (
        _check("square_invariance_defect", worst_b2, 1e-6),
        _check("cube_invariance_defect", worst_b3, 1e-6),
        _check("noninvariance_margin", GENERIC_NONINVARIANCE - least_b, 0.0),
    )


def _run_constrained_power(config: RunConfig) -> Tuple[Check, ...]:
    rng = np.random.default_rng(config.seed)
    N = config.n_samples
    two_layer = []
    for trial in range(20):
        n = int(rng.integers(1, 3))
        r = int(rng.integers(1, min(n, 2) + 1))
        k = int(rng.integers(1, 2 * r))
        inners = _power_inner_family(rng, n, r, N)
        beta = _orthonormal_beta(rng, r, k)
        two_layer.append(ConstrainedSpec(inners=inners, beta=beta,
                                         multiplier=n))
    checks = _constrained_checks(two_layer, D=400, k_max=60)
    # Degenerate recipe: no constant-term mass, so the space stays
    # invariant and must be flagged rather than pass as generic.
    inner = CircleFunction.from_samples(np.ones(N, dtype=complex))
    beta = np.array([[0.0], [1.0]], dtype=complex)
    spec = ConstrainedSpec(inners=(inner,), beta=beta, multiplier=1)
    report = verify_constrained(build_constrained(spec, D=400, k_max=60), spec)
    return (
        *checks,
        _check("degenerate_case_flagged", 0.0 if report.degenerate else 1.0,
               0.0),
    )


def _run_beurling(config: RunConfig) -> Tuple[Check, ...]:
    rng = np.random.default_rng(config.seed)
    N = config.n_samples
    worst_err = 0.0
    worst_rank = 0.0
    for trial in range(20):
        n_zeros = int(rng.integers(1, 4))
        zeros = tuple(
            rng.uniform(0.0, 0.7) * np.exp(2j * np.pi * rng.random())
            for _ in range(n_zeros))
        J = as_circle_function(BlaschkeSpec(zeros), N)
        z = monomial(1, N)
        D = 320
        space = span_invariant([J], z, k_max=220, D=D)
        vectors = wandering_basis(space, z)
        worst_rank = max(worst_rank, abs(len(vectors) - 1))
        w = vectors[0]
        ip = complex(np.vdot(w.samples, J.samples) / N)
        phase = ip / abs(ip) if abs(ip) > 0 else 1.0
        err = norm2(J - phase * w)
        worst_err = max(worst_err, err)
    b_rank, b_defect, b_recovery = _beurling_for_b(rng, N)
    return (
        _check("generator_rank", worst_rank, 0.0),
        _check("generator_recovery", worst_err, 1e-6),
        _check("b_wandering_rank", b_rank, 0.0),
        _check("b_wandering_inner_defect", b_defect, 1e-10),
        _check("b_generator_recovery", b_recovery, 1e-12),
    )


def _beurling_for_b(rng: np.random.Generator,
                    N: int) -> Tuple[float, float, float]:
    """Worst rank miss, B-inner defect and generator residual of the
    wandering space of r <= deg B jointly B-inner generators g_a = sum_i
    U_ia e(i, 0) b_a(B): U an n x r isometry, B of degree 1-3 with zero
    radii <= 0.5, b_a Blaschke products with zero radii 0.1-0.4."""
    worst_rank = worst_defect = worst_recovery = 0.0
    for trial in range(5):
        n = int(rng.integers(1, 4))
        spec = BlaschkeSpec(tuple(
            rng.uniform(0.0, 0.5) * np.exp(2j * np.pi * rng.random())
            for _ in range(n)))
        r = int(rng.integers(1, n + 1))
        U, _ = np.linalg.qr(rng.standard_normal((n, r))
                            + 1j * rng.standard_normal((n, r)))
        carriers, bz = _basis_carriers(spec, grid(N))
        generators = []
        for a in range(r):
            inner = BlaschkeSpec(tuple(
                rng.uniform(0.1, 0.4) * np.exp(2j * np.pi * rng.random())
                for _ in range(int(rng.integers(1, 3)))))
            generators.append(CircleFunction.from_samples(
                (U[:, a] @ np.array(carriers)) * blaschke_eval(inner, bz)))
        multiplier = CircleFunction.from_samples(bz)
        space = span_invariant(generators, multiplier, k_max=60, D=400)
        vectors = wandering_basis(space, multiplier)
        worst_rank = max(worst_rank, abs(len(vectors) - r))
        worst_defect = max(worst_defect,
                           b_inner_matrix_from(vectors, spec, 8).defect)
        V = np.array([v.samples for v in vectors])
        for g in generators:
            rest = g.samples - (V.conj() @ g.samples / N) @ V
            worst_recovery = max(worst_recovery,
                                 float(np.sqrt(np.mean(np.abs(rest) ** 2))))
    return worst_rank, worst_defect, worst_recovery


def _run_constrained_curved(config: RunConfig) -> Tuple[Check, ...]:
    rng = np.random.default_rng(config.seed)
    N = config.n_samples
    from .blaschke import basis_element, BasisIndex
    two_layer = []
    for trial in range(8):
        a = rng.uniform(0.1, 0.4) * np.exp(2j * np.pi * rng.random())
        bspec = BlaschkeSpec((0.0, complex(a)))
        r = int(rng.integers(1, 3))
        k = int(rng.integers(1, 2 * r))
        inners = tuple(basis_element(bspec, BasisIndex(j, 0), N)
                       for j in range(r))
        beta = _orthonormal_beta(rng, r, k)
        two_layer.append(ConstrainedSpec(inners=inners, beta=beta,
                                         multiplier=bspec))
    checks = _constrained_checks(two_layer, D=420, k_max=80)
    worst_isometry = 0.0
    specs = builtin_specs(N)
    for trial in range(5):
        f = _random_poly(rng, 24, N)
        n_zeros = int(rng.integers(1, 4))
        zeros = tuple(
            rng.uniform(0.0, 0.8) * np.exp(2j * np.pi * rng.random())
            for _ in range(n_zeros))
        bz = blaschke_eval(BlaschkeSpec(zeros), grid(N))
        shifted = CircleFunction.from_samples(bz * f.samples)
        powered = CircleFunction.from_samples(grid(N) ** 3 * f.samples)
        for spec in specs.values():
            base = gauge_eval(spec, f)
            worst_isometry = max(
                worst_isometry,
                abs(gauge_eval(spec, shifted) - base),
                abs(gauge_eval(spec, powered) - base))
    return (
        *checks,
        _check("unimodular_isometry", worst_isometry, 1e-9),
    )


def _run_energy_split(config: RunConfig) -> Tuple[Check, ...]:
    rng = np.random.default_rng(config.seed)
    N = config.n_samples
    worst_energy = 0.0
    worst_residual = 0.0
    worst_carrier = 0.0
    for n in (2, 4, 8):
        for _ in range(25):
            f = _random_poly(rng, int(rng.integers(4, 128)), N)
            dec = decompose_zn(f, n)
            worst_residual = max(worst_residual, dec.residual)
            total = sum(norm2(h) ** 2 for h in dec.components)
            worst_energy = max(worst_energy, abs(norm2(f) ** 2 - total))
            # carriers are exact monomials, so each summand's norm
            # equals its component's norm
            for carrier, h in zip(dec.carriers, dec.components):
                product = carrier.samples * h.samples
                summand = float(np.sqrt(np.mean(np.abs(product) ** 2)))
                worst_carrier = max(worst_carrier, abs(summand - norm2(h)))
    return (
        _check("component_energy_sum", worst_energy, 1e-9),
        _check("split_residual", worst_residual, 1e-12),
        _check("carrier_isometry", worst_carrier, 1e-12),
    )


def _run_n_factorization(config: RunConfig) -> Tuple[Check, ...]:
    rng = np.random.default_rng(config.seed)
    N = config.n_samples
    worst_residual = 0.0
    worst_gram = 0.0
    verdict_failures = 0
    worst_parseval = 0.0
    outer_failures = 0
    for trial in range(50):
        degree = int(rng.integers(1, 25))
        f = _random_poly(rng, degree, N)
        for n in (2, 3, 4):
            bundle = n_inner_outer_factorize(f, n, m_max_check=6)
            worst_residual = max(worst_residual, bundle.residual)
            worst_gram = max(worst_gram, bundle.gram_defect)
            verdict_failures += not bundle.meets_invariants()
            worst_parseval = max(worst_parseval, bundle.parseval_gap)
            outer_failures += sum(
                0 if rep.passed else 1 for rep in bundle.outer_reports)
    return (
        _check("reconstruction_residual", worst_residual, 1e-6),
        _check("joint_gram_defect", worst_gram, 1e-6),
        _check("verdict_failures", float(verdict_failures), 0.0),
        _check("energy_sum_gap", worst_parseval, 1e-6),
        _check("outer_component_failures", float(outer_failures), 0.0),
    )


REGISTRY: Dict[str, Callable[[RunConfig], Tuple[Check, ...]]] = {
    "lemma-2.4": _run_pairing_bound,
    "lemma-4.1": _run_smoothing,
    "lemma-4.2": _run_zn_split,
    "thm-3.5": _run_constrained_power,
    "thm-3.6": _run_beurling,
    "thm-4.5": _run_constrained_curved,
    "thm-4.6": _run_energy_split,
    "thm-5.4": _run_n_factorization,
}
# The smallest grid each suite runs on: the smallest power of two whose
# band 0 .. N/2 - 1 holds its largest probe degree (24 in lemma-2.4 and
# thm-5.4, 12 in lemma-4.1, 127 in thm-4.6), its largest modulus n (8 in
# lemma-4.2) or its subspace band D (320 - 420).
SMALLEST_GRID: Dict[str, int] = {
    "lemma-2.4": 64, "lemma-4.1": 32, "lemma-4.2": 16, "thm-3.5": 1024,
    "thm-3.6": 1024, "thm-4.5": 1024, "thm-4.6": 256, "thm-5.4": 64,
}


def registry_ids() -> Tuple[str, ...]:
    return tuple(sorted(REGISTRY))


def run_verification(theorem_id: str,
                     config: Optional[RunConfig] = None) -> VerificationReport:
    if config is None:
        config = RunConfig()
    if theorem_id not in REGISTRY:
        known = ", ".join(registry_ids())
        raise ParameterError(
            f"unknown verification id {theorem_id!r}; known ids: {known}"
        )
    smallest = SMALLEST_GRID[theorem_id]
    if config.n_samples < smallest:
        raise ParameterError(f"{theorem_id} needs n_samples >= {smallest}, "
                             f"got {config.n_samples}")
    start = time.perf_counter()
    checks = REGISTRY[theorem_id](config)
    elapsed = time.perf_counter() - start
    return VerificationReport(theorem_id=theorem_id, checks=tuple(checks),
                              wall_time=elapsed)
