"""Gauge norms: axioms, symmetry, continuity, duality."""

import numpy as np
import pytest

from hardy import (
    ArcWeighted,
    ConvexCombo,
    MaxOf,
    ParameterError,
    PNorm,
    SizeError,
    SupNorm,
    builtin_specs,
    check_continuity,
    check_gauge_axioms,
    check_rotational_symmetry,
    dual_norm_estimate,
    gauge_eval,
    grid,
    monomial,
    synthesize,
)
from hardy.circlefn import CircleFunction


def test_p1_norm_of_one_plus_z():
    # integral of |1 + e^(i t)| over the circle is 4/pi.
    f = synthesize({0: 1.0, 1: 1.0}, 1024)
    assert gauge_eval(PNorm(1.0), f) == pytest.approx(4.0 / np.pi, abs=1e-5)


def test_p2_norm_parseval():
    f = synthesize({0: 1.0, 1: 1.0}, 1024)
    assert gauge_eval(PNorm(2.0), f) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_sup_norm_hits_grid_max():
    f = synthesize({0: 1.0, 1: 1.0}, 1024)
    assert gauge_eval(SupNorm(), f) == pytest.approx(2.0, abs=1e-12)


def test_monomials_have_unit_norm():
    for name, spec in builtin_specs(512).items():
        for j in (0, 1, 7):
            v = gauge_eval(spec, monomial(j, 512))
            assert v == pytest.approx(1.0, abs=1e-9), (name, j)


def test_pnorm_rejects_p_below_one():
    with pytest.raises(ParameterError):
        PNorm(0.5)


def test_convex_combo_validates_weights():
    with pytest.raises(ParameterError):
        ConvexCombo((0.7, 0.7), (PNorm(1.0), PNorm(2.0)))
    with pytest.raises(ParameterError):
        ConvexCombo((1.0,), (PNorm(1.0), PNorm(2.0)))


def test_axioms_pass_for_symmetric_builtins():
    for name, spec in builtin_specs(512).items():
        if name == "arc_q1":
            continue
        report = check_gauge_axioms(spec, trials=60, seed=3, n_samples=512)
        assert report.passed, (name, report.failures)


def test_arc_spec_fails_l1_domination():
    spec = builtin_specs(512)["arc_q1"]
    report = check_gauge_axioms(spec, trials=60, seed=3, n_samples=512)
    assert not report.passed
    assert report.failures == ("l1_domination",)
    assert report.l1_domination > 0.0
    # the other axioms stay clean (entries are violation sizes)
    assert report.normalization == 0.0
    assert report.triangle <= 1e-12
    assert report.homogeneity <= 1e-12


def test_rotational_symmetry_detector():
    f = synthesize({j: 1.0 / (1 + j) for j in range(9)}, 512)
    assert check_rotational_symmetry(PNorm(2.0), f) < 1e-12
    arc = builtin_specs(512)["arc_q1"]
    assert check_rotational_symmetry(arc, f) > 1e-3


def test_continuity_shrinking_arcs():
    rep = check_continuity(PNorm(1.0), n_samples=1024)
    assert rep.passed
    vals = list(rep.values)
    assert vals == sorted(vals, reverse=True) or all(
        a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    sup = check_continuity(SupNorm(), n_samples=1024)
    # an indicator has sup 1 no matter how small the arc
    assert not sup.passed
    # eight points hold one arc of four, the smallest audit there is
    assert len(check_continuity(PNorm(2.0), n_samples=8).values) == 1


@pytest.mark.parametrize("audit, n, says", [
    (check_continuity, 4, "needs n_samples >= 8"),
    (check_continuity, 6, "power of two"),
    (check_gauge_axioms, 6, "power of two"),
    (check_gauge_axioms, 48, "power of two"),
])
def test_norm_audits_refuse_unusable_grids(audit, n, says):
    with pytest.raises(SizeError, match=says):
        audit(PNorm(2.0), n_samples=n)


def test_holder_pairing():
    rng = np.random.default_rng(11)
    for p in (1.0, 1.5, 2.0, 3.0):
        alpha = PNorm(p)
        dual = SupNorm() if p == 1.0 else PNorm(p / (p - 1.0))
        for _ in range(40):
            f = CircleFunction.from_samples(
                rng.standard_normal(512) + 1j * rng.standard_normal(512))
            h = CircleFunction.from_samples(
                rng.standard_normal(512) + 1j * rng.standard_normal(512))
            lhs = float(np.mean(np.abs(f.samples * h.samples)))
            dual_value = gauge_eval(dual, h)
            assert lhs <= gauge_eval(alpha, f) * dual_value + 1e-9


def test_cauchy_schwarz_is_tight_for_aligned_pair():
    f = synthesize({0: 1.0, 2: 2.0}, 512)
    lhs = float(np.mean(np.abs(f.samples) ** 2))
    rhs = gauge_eval(PNorm(2.0), f) ** 2
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_dual_estimate_is_a_lower_bound():
    rng = np.random.default_rng(5)
    spec = PNorm(2.0)
    dual = PNorm(2.0)
    for _ in range(10):
        h = CircleFunction.from_samples(
            rng.standard_normal(512) + 1j * rng.standard_normal(512))
        est = dual_norm_estimate(spec, h, budget=128, seed=9)
        assert est <= gauge_eval(dual, h) + 1e-9


def test_arc_weighted_normalizes_the_constant():
    spec = ArcWeighted((0.0, np.pi), PNorm(2.0), PNorm(1.0), n_samples=512)
    one = synthesize({0: 1.0}, 512)
    assert gauge_eval(spec, one) == pytest.approx(1.0, abs=1e-12)


def test_arc_weighted_grid_size_must_be_power_of_two():
    with pytest.raises(SizeError, match="power of two"):
        ArcWeighted((0.0, 1.0), SupNorm(), SupNorm(), n_samples=48)


def test_max_of_dominates_parts():
    spec = MaxOf((PNorm(1.0), SupNorm()))
    f = synthesize({0: 1.0, 3: -2.0}, 512)
    v = gauge_eval(spec, f)
    assert v >= gauge_eval(PNorm(1.0), f) - 1e-12
    assert v >= gauge_eval(SupNorm(), f) - 1e-12


def test_gauge_depends_only_on_modulus():
    f = synthesize({0: 1.0, 1: 1.0}, 512)
    twisted = CircleFunction.from_samples(
        f.samples * np.exp(1j * np.angle(grid(512))))
    for name, spec in builtin_specs(512).items():
        assert gauge_eval(spec, twisted) == pytest.approx(
            gauge_eval(spec, f), abs=1e-9), name
