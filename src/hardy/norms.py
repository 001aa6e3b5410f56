"""Gauge norms on circle functions, given as declarative specs.

A gauge norm here is a norm alpha on grid functions that is normalized
(alpha(1) = 1), depends only on the modulus (alpha(|f|) = alpha(f)),
and dominates the L1 norm (alpha(f) >= ||f||_1).  Specs are small
immutable trees; ``gauge_eval`` interprets them on the modulus samples
of a CircleFunction.  Audits measure the axioms numerically instead of
trusting the construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .circlefn import (CircleFunction, DEFAULT_N_SAMPLES, _check_n_samples,
                       _integer)
from .errors import ParameterError, SizeError

__all__ = [
    "AXIOM_TOL",
    "GaugeNormSpec",
    "PNorm",
    "SupNorm",
    "MaxOf",
    "ConvexCombo",
    "ArcWeighted",
    "gauge_eval",
    "builtin_specs",
    "AxiomReport",
    "check_gauge_axioms",
    "check_rotational_symmetry",
    "ContinuityReport",
    "check_continuity",
    "dual_norm_estimate",
]

# Worst tolerated axiom violation before an audit reports failure.
AXIOM_TOL = 1e-9


class GaugeNormSpec:
    """Base class; concrete specs implement _eval on modulus samples."""

    kind = "abstract"

    def _eval(self, mod: np.ndarray) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class PNorm(GaugeNormSpec):
    """((1/N) sum |f|^p)^(1/p).  Requires p >= 1."""

    p: float

    kind = "p_norm"

    def __post_init__(self):
        if not (float(self.p) >= 1.0):
            raise ParameterError(f"p norm needs p >= 1, got {self.p}")

    def _eval(self, mod: np.ndarray) -> float:
        p = float(self.p)
        if p == 1.0:
            return float(np.mean(mod))
        return float(np.mean(mod ** p) ** (1.0 / p))


@dataclass(frozen=True)
class SupNorm(GaugeNormSpec):
    """max |f| over the grid."""

    kind = "sup_norm"

    def _eval(self, mod: np.ndarray) -> float:
        return float(np.max(mod))


@dataclass(frozen=True)
class MaxOf(GaugeNormSpec):
    """Pointwise maximum of member norms."""

    parts: Tuple[GaugeNormSpec, ...]

    kind = "max_of"

    def __post_init__(self):
        if len(self.parts) == 0:
            raise ParameterError("max_of needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))

    def _eval(self, mod: np.ndarray) -> float:
        return max(part._eval(mod) for part in self.parts)


@dataclass(frozen=True)
class ConvexCombo(GaugeNormSpec):
    """Convex combination of member norms; weights sum to one."""

    weights: Tuple[float, ...]
    parts: Tuple[GaugeNormSpec, ...]

    kind = "convex_combo"

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        if len(w) != len(self.parts) or len(w) == 0:
            raise ParameterError("weights and parts must have equal nonzero length")
        if any(x < 0 for x in w) or abs(sum(w) - 1.0) > 1e-12:
            raise ParameterError("weights must be nonnegative and sum to 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "parts", tuple(self.parts))

    def _eval(self, mod: np.ndarray) -> float:
        return float(sum(w * part._eval(mod)
                         for w, part in zip(self.weights, self.parts)))


@dataclass(frozen=True)
class ArcWeighted(GaugeNormSpec):
    """Different member norms inside and outside an arc of the circle.

    The arc is [theta_a, theta_b) in radians, wrapping past 2*pi when
    theta_a > theta_b.  The raw value inside(f * chi) + outside(f * (1-chi))
    is divided by ``renorm``, which is fixed at construction so that the
    constant 1 evaluates to 1 on the construction grid.  The result is a
    norm but deliberately need not dominate ||.||_1 and is not rotation
    invariant; audits are expected to say so.
    """

    arc: Tuple[float, float]
    inside: GaugeNormSpec
    outside: GaugeNormSpec
    n_samples: int = DEFAULT_N_SAMPLES
    renorm: float = field(init=False, default=0.0)

    kind = "arc_weighted"

    def __post_init__(self):
        a, b = (float(self.arc[0]), float(self.arc[1]))
        object.__setattr__(self, "arc", (a, b))
        n = _check_n_samples(self.n_samples)
        object.__setattr__(self, "n_samples", n)
        mask = self._mask(n)
        if not mask.any() or mask.all():
            raise ParameterError("arc must contain some but not all grid points")
        ones = np.ones(n)
        raw = self.inside._eval(ones * mask) + self.outside._eval(ones * (~mask))
        if raw <= 0:
            raise ParameterError("arc weighting collapsed on the constant 1")
        object.__setattr__(self, "renorm", float(raw))

    def _mask(self, n: int) -> np.ndarray:
        theta = 2.0 * np.pi * np.arange(n) / n
        a = self.arc[0] % (2.0 * np.pi)
        b = self.arc[1] % (2.0 * np.pi)
        if a <= b:
            return (theta >= a) & (theta < b)
        return (theta >= a) | (theta < b)

    def _eval(self, mod: np.ndarray) -> float:
        mask = self._mask(mod.size)
        raw = self.inside._eval(mod * mask) + self.outside._eval(mod * (~mask))
        return float(raw / self.renorm)


def gauge_eval(spec: GaugeNormSpec, f: CircleFunction) -> float:
    """Evaluate the spec on the modulus samples of f."""
    return spec._eval(np.abs(f.samples))


def builtin_specs(n_samples: int = DEFAULT_N_SAMPLES) -> dict:
    """The named specs used by audits, acceptance runs, and the CLI."""
    return {
        "p1": PNorm(1.0),
        "p1.5": PNorm(1.5),
        "p2": PNorm(2.0),
        "p3": PNorm(3.0),
        "p4": PNorm(4.0),
        "sup": SupNorm(),
        "max_p1_p2": MaxOf((PNorm(1.0), PNorm(2.0))),
        "combo_p1_p3": ConvexCombo((0.5, 0.5), (PNorm(1.0), PNorm(3.0))),
        "arc_q1": ArcWeighted((0.0, np.pi / 2), PNorm(2.0), PNorm(1.0),
                              n_samples=n_samples),
    }


@dataclass(frozen=True)
class AxiomReport:
    """Worst measured violation of each norm axiom over random trials."""

    trials: int
    seed: int
    normalization: float
    modulus_invariance: float
    l1_domination: float
    triangle: float
    homogeneity: float
    failures: Tuple[str, ...]
    passed: bool


def _random_bounded(rng: np.random.Generator, n: int) -> np.ndarray:
    """Bounded complex samples with occasional rough pieces."""
    kind = rng.integers(0, 3)
    if kind == 0:
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    elif kind == 1:
        # Indicator-like plateau with a random phase field.
        start = int(rng.integers(0, n))
        length = int(rng.integers(1, n))
        mask = np.zeros(n)
        idx = (np.arange(start, start + length)) % n
        mask[idx] = 1.0
        vals = mask * np.exp(2j * np.pi * rng.random(n)) * rng.uniform(0.1, 2.0)
    else:
        theta = 2.0 * np.pi * np.arange(n) / n
        k1, k2 = rng.integers(1, 9, size=2)
        vals = (np.cos(k1 * theta) + 1j * np.sin(k2 * theta)) * rng.uniform(0.2, 1.5)
    return vals


def check_gauge_axioms(spec: GaugeNormSpec, trials: int = 200,
                       seed: int = 0,
                       n_samples: int = DEFAULT_N_SAMPLES) -> AxiomReport:
    """Randomized audit of the gauge-norm axioms.

    Measures, over random bounded sample vectors, the worst violation of
    normalization, modulus invariance, L1 domination, the triangle
    inequality, and absolute homogeneity.  A spec passes when every
    violation is at most AXIOM_TOL.
    """
    trials = _integer(trials, "trials")
    if trials < 1:
        raise ParameterError("trials must be positive")
    rng = np.random.default_rng(seed)
    n = _check_n_samples(n_samples)
    worst = {"normalization": abs(spec._eval(np.ones(n)) - 1.0),
             "modulus_invariance": 0.0,
             "l1_domination": 0.0,
             "triangle": 0.0,
             "homogeneity": 0.0}
    for _ in range(trials):
        fv = _random_bounded(rng, n)
        gv = _random_bounded(rng, n)
        af = spec._eval(np.abs(fv))
        ag = spec._eval(np.abs(gv))
        worst["modulus_invariance"] = max(
            worst["modulus_invariance"],
            abs(spec._eval(np.abs(np.abs(fv))) - af))
        worst["l1_domination"] = max(
            worst["l1_domination"], float(np.mean(np.abs(fv))) - af)
        worst["triangle"] = max(
            worst["triangle"], spec._eval(np.abs(fv + gv)) - af - ag)
        c = rng.standard_normal() + 1j * rng.standard_normal()
        worst["homogeneity"] = max(
            worst["homogeneity"], abs(spec._eval(np.abs(c * fv)) - abs(c) * af))
    failures = tuple(name for name, v in worst.items() if v > AXIOM_TOL)
    return AxiomReport(trials=trials, seed=seed, passed=not failures,
                       failures=failures, **worst)


def check_rotational_symmetry(spec: GaugeNormSpec, f: CircleFunction) -> float:
    """Worst deviation of alpha under all grid rotations of f.

    Rotating the argument permutes the modulus samples cyclically, so
    the check runs the spec over every cyclic shift.
    """
    mod = np.abs(f.samples)
    base = spec._eval(mod)
    worst = 0.0
    for j in range(1, f.n_samples):
        worst = max(worst, abs(spec._eval(np.roll(mod, j)) - base))
    return float(worst)


@dataclass(frozen=True)
class ContinuityReport:
    """alpha on shrinking arcs: values, monotonicity, and the verdict."""

    arc_measures: Tuple[float, ...]
    values: Tuple[float, ...]
    monotone: bool
    final_below: bool
    passed: bool


def check_continuity(spec: GaugeNormSpec,
                     n_samples: int = DEFAULT_N_SAMPLES) -> ContinuityReport:
    """Evaluate alpha on indicators of arcs of measure 2^-k.

    k runs from 1 to log2(N) - 2, so the finest arc still holds four
    grid points; a grid below 8 points, which holds no such arc, raises
    SizeError.  Passing means the values never increase and the last
    one drops below 0.1.  The sup norm is expected to fail
    (its profile is constantly one); norms close to the sup may fail on
    coarse grids even though they are continuous; the profile itself is
    the informative part.
    """
    n = _check_n_samples(n_samples)
    if n < 8:
        raise SizeError(f"the continuity audit needs n_samples >= 8, "
                        f"got {n}")
    ks = range(1, int(np.log2(n)) - 1)
    measures = []
    values = []
    for k in ks:
        width = n >> k
        mod = np.zeros(n)
        mod[:width] = 1.0
        measures.append(width / n)
        values.append(spec._eval(mod))
    vals = np.asarray(values)
    monotone = bool(np.all(vals[1:] <= vals[:-1] + 1e-12))
    final_below = bool(vals[-1] < 0.1)
    return ContinuityReport(
        arc_measures=tuple(measures), values=tuple(values),
        monotone=monotone, final_below=final_below,
        passed=monotone and final_below)


def dual_norm_estimate(spec: GaugeNormSpec, h: CircleFunction,
                       budget: int = 2048, seed: int = 0) -> float:
    """Certified lower bound for the dual norm sup {int |f h| : alpha(f) <= 1}.

    Every candidate is a nonnegative grid function g scaled to alpha(g) = 1,
    so each quotient mean(g |h|) / alpha(g) is genuinely feasible and the
    maximum over candidates is a lower bound.  Candidates: the constant 1,
    the Hoelder extremal |h|^(q-1) for p norms, top-k indicators of |h|,
    and seeded random arcs, plateaus, and powers.
    """
    budget = _integer(budget, "budget")
    if budget < 1:
        raise ParameterError("budget must be positive")
    mod_h = np.abs(h.samples)
    n = h.n_samples
    rng = np.random.default_rng(seed)

    best = 0.0
    spent = 0

    def consider(g: np.ndarray):
        nonlocal best, spent
        spent += 1
        a = spec._eval(g)
        if a <= 1e-300:
            return
        best = max(best, float(np.mean(g * mod_h)) / a)

    consider(np.ones(n))
    if isinstance(spec, PNorm) and spec.p > 1.0 and np.any(mod_h > 0):
        q = spec.p / (spec.p - 1.0)
        consider(mod_h ** (q - 1.0))
    order = np.argsort(mod_h)[::-1]
    k = 1
    while k <= n and spent < budget:
        g = np.zeros(n)
        g[order[:k]] = 1.0
        consider(g)
        k *= 2
    while spent < budget:
        kind = rng.integers(0, 3)
        if kind == 0:
            start = int(rng.integers(0, n))
            length = int(rng.integers(1, n))
            g = np.zeros(n)
            g[(np.arange(start, start + length)) % n] = 1.0
        elif kind == 1:
            g = (mod_h / max(np.max(mod_h), 1e-300)) ** rng.uniform(0.0, 5.0)
        else:
            g = rng.random(n)
        consider(g)
    return best

