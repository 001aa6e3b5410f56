"""Factorization: conjugates, outer parts, joint inner families."""

import numpy as np
import pytest

from hardy import (
    BlaschkeSpec,
    DomainError,
    ParameterError,
    SingularityError,
    b_inner_matrix_from,
    basis_element,
    BasisIndex,
    constant,
    grid,
    harmonic_conjugate,
    inner_outer,
    is_B_inner,
    is_n_outer,
    is_outer,
    monomial,
    n_inner_outer_factorize,
    norm2,
    outer_from_modulus,
    outer_multiplier,
    power_spec,
    synthesize,
)
from hardy.circlefn import CircleFunction


def _from_mod(values):
    return CircleFunction.from_samples(np.asarray(values, dtype=float))


def test_harmonic_conjugate_cos_to_sin():
    theta = 2.0 * np.pi * np.arange(1024) / 1024
    u = CircleFunction.from_samples(np.cos(theta))
    v = harmonic_conjugate(u)
    assert np.max(np.abs(v.samples - np.sin(theta))) < 1e-12


def test_harmonic_conjugate_kills_constants():
    v = harmonic_conjugate(constant(3.0, 256))
    assert norm2(v) < 1e-13


def test_outer_from_modulus_oracle_two_plus_z():
    z = grid(1024)
    F = outer_from_modulus(_from_mod(np.abs(2.0 + z)))
    assert F.coeff(0) == pytest.approx(2.0, abs=1e-10)
    assert F.coeff(1) == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(F.samples - (2.0 + z))) < 1e-9


def test_outer_from_modulus_flips_inner_zero():
    # |z - 1/2| = |1 - z/2| on the circle; the outer part is the
    # zero-free one, pinned positive at the origin.
    z = grid(1024)
    F = outer_from_modulus(_from_mod(np.abs(z - 0.5)))
    assert F.coeff(0) == pytest.approx(1.0, abs=1e-10)
    assert F.coeff(1) == pytest.approx(-0.5, abs=1e-10)


def test_geometric_mean_normalization():
    # exp of the log-modulus mean of |2 + z| is 2.
    z = grid(1024)
    F = outer_from_modulus(_from_mod(np.abs(2.0 + z)))
    from hardy import evaluate_at
    assert evaluate_at(F, 0.0) == pytest.approx(2.0, abs=1e-10)


def test_inner_outer_oracle():
    f = synthesize({1: 2.0, 2: 1.0}, 1024)  # z (2 + z)
    pair = inner_outer(f)
    assert pair.meets_invariants()
    assert np.max(np.abs(pair.inner.samples - grid(1024))) < 1e-9
    assert pair.outer.coeff(0) == pytest.approx(2.0, abs=1e-9)
    assert pair.outer.coeff(1) == pytest.approx(1.0, abs=1e-9)


def test_inner_outer_moebius_inner():
    f = synthesize({0: -0.5, 1: 1.0}, 1024)  # z - 1/2
    pair = inner_outer(f)
    assert pair.meets_invariants()
    assert pair.inner.coeff(0) == pytest.approx(-0.5, abs=1e-9)
    assert pair.inner.coeff(1) == pytest.approx(0.75, abs=1e-9)
    assert pair.outer.coeff(1) == pytest.approx(-0.5, abs=1e-9)


def test_inner_outer_aliased_outer_fails_invariants():
    # Random polynomials have zeros close to the circle, where log|f|
    # aliases on the input grid and the outer part picks up
    # negative-index mass; residual and unimodularity do not see it.
    rng = np.random.default_rng(1)
    c = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    pair = inner_outer(synthesize(dict(enumerate(c)), 1024))
    assert pair.residual <= 1e-7
    assert pair.unimodularity_defect <= 1e-7
    assert not pair.outer.is_analytic()
    assert not pair.meets_invariants()


def test_inner_outer_grid_zero_needs_regularize():
    f = synthesize({0: -1.0, 1: 1.0}, 1024)  # vanishes at z = 1
    with pytest.raises(SingularityError):
        inner_outer(f)
    pair = inner_outer(f, regularize=True)
    assert pair.residual < 1e-7  # product still reproduces f
    assert pair.unimodularity_defect > 0.1  # boundary zero is honest


def test_is_outer_verdicts():
    assert is_outer(synthesize({0: 2.0, 1: 1.0}, 1024)).passed
    rep = is_outer(synthesize({0: -0.5, 1: 1.0}, 1024))
    assert not rep.passed
    assert rep.defect == pytest.approx(np.log(2.0), abs=1e-6)


def test_jensen_gap_single_zero():
    for a in (0.3, 0.5j, -0.62):
        f = synthesize({0: -a, 1: 1.0}, 1024)  # z - a
        rep = is_outer(f)
        assert rep.defect == pytest.approx(-np.log(abs(a)), abs=1e-5)


def test_is_b_inner_monomial_cases():
    assert is_B_inner(monomial(1, 512), power_spec(2), m_max=5).passed
    mix = synthesize({0: 1 / np.sqrt(2), 2: 1 / np.sqrt(2)}, 512)
    rep = is_B_inner(mix, power_spec(2), m_max=3)
    assert not rep.passed
    assert rep.gram_defect == pytest.approx(0.5, abs=1e-10)


def test_is_b_inner_curved_basis_element():
    spec = BlaschkeSpec((0.0, 0.5))
    e10 = basis_element(spec, BasisIndex(1, 0), 1024)
    assert is_B_inner(e10, spec, m_max=6).passed


def test_b_inner_matrix_single_column():
    mat = b_inner_matrix_from([monomial(1, 512)], power_spec(2), m_max=4)
    assert mat.passed
    assert (mat.rows, mat.cols) == (2, 1)
    assert abs(mat.entries[0][0].coeff(0)) < 1e-10
    assert mat.entries[1][0].coeff(0) == pytest.approx(1.0, abs=1e-10)


def test_b_inner_matrix_identity_pair():
    mat = b_inner_matrix_from([monomial(0, 512), monomial(1, 512)],
                              power_spec(2), m_max=4)
    assert mat.passed
    assert mat.defect <= 1e-10
    for i in range(2):
        for j in range(2):
            want = 1.0 if i == j else 0.0
            assert mat.entries[i][j].coeff(0) == pytest.approx(
                want, abs=1e-10)


def test_b_inner_matrix_flags_duplicates():
    mat = b_inner_matrix_from([monomial(0, 512), monomial(0, 512)],
                              power_spec(2), m_max=4)
    assert not mat.passed
    assert mat.joint_defect >= 0.9


def test_n_factorization_monomial():
    bundle = n_inner_outer_factorize(monomial(1, 1024), 2)
    assert bundle.meets_invariants()
    assert bundle.r == 1
    assert abs(bundle.inners[0].coeff(1)) == pytest.approx(1.0, abs=1e-9)


def test_n_factorization_already_n_outer():
    f = synthesize({0: 2.0, 2: 1.0}, 1024)
    bundle = n_inner_outer_factorize(f, 2)
    assert bundle.meets_invariants()
    assert bundle.r == 1
    assert bundle.inners[0].bandwidth() == 0  # constant inner


def test_n_factorization_one_plus_z_is_rank_one():
    f = synthesize({0: 1.0, 1: 1.0}, 1024)
    bundle = n_inner_outer_factorize(f, 2)
    assert bundle.meets_invariants()
    assert bundle.r == 1
    J = bundle.inners[0]
    assert abs(J.coeff(0)) == pytest.approx(1 / np.sqrt(2), abs=1e-6)
    assert abs(J.coeff(1)) == pytest.approx(1 / np.sqrt(2), abs=1e-6)


def test_n_factorization_parseval():
    rng = np.random.default_rng(4)
    c = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    f = synthesize({j: c[j] for j in range(13)}, 1024)
    for n in (2, 3):
        bundle = n_inner_outer_factorize(f, n)
        assert bundle.meets_invariants()
        assert bundle.r <= n
        assert bundle.parseval_gap <= 1e-6
        total = sum(norm2(g) ** 2 for g in bundle.outers)
        assert total == pytest.approx(norm2(f) ** 2, abs=1e-6)


def test_is_n_outer_verdicts():
    assert is_n_outer(synthesize({0: 2.0, 2: 1.0}, 1024), 2).passed
    assert is_n_outer(synthesize({1: 2.0, 3: 1.0}, 1024), 2).passed
    assert not is_n_outer(monomial(2, 1024), 2).passed


def test_is_n_outer_accepts_polynomial_carrier():
    # 1 + z = p(z) * 1 with p of degree < 2, base constant (outer).
    rep = is_n_outer(synthesize({0: 1.0, 1: 1.0}, 1024), 2)
    assert rep.passed
    assert rep.rank1_defect <= 1e-12
    # carrier normalized: unit coefficient norm, leading entry real > 0
    s = 1.0 / np.sqrt(2.0)
    assert rep.carrier_polynomial.coeff(0) == pytest.approx(s, abs=1e-12)
    assert rep.carrier_polynomial.coeff(1) == pytest.approx(s, abs=1e-12)


def test_is_n_outer_rejects_rank_two():
    # 1 + 2z + z^3: residue series 1 and 2 + w are not proportional.
    rep = is_n_outer(synthesize({0: 1.0, 1: 2.0, 3: 1.0}, 1024), 2)
    assert not rep.passed
    assert rep.rank1_defect > 0.1


def test_outer_multiplier_basics():
    q0 = outer_multiplier(constant(0.0, 512), None, 1)
    assert np.max(np.abs(q0.samples - 1.0)) < 1e-12
    q1 = outer_multiplier(constant(1.0, 512), None, 1)
    assert np.max(np.abs(q1.samples - np.exp(-1.0))) < 1e-10
    f = synthesize({0: 1.0, 1: 2.0}, 1024)
    for m in (1, 2, 8):
        q = outer_multiplier(f, None, m)
        assert np.max(np.abs(q.samples)) <= 1.0 + 1e-10
        assert q.is_analytic()
    with pytest.raises(ParameterError):
        outer_multiplier(f, None, 0)


def test_outer_multiplier_composes_through_spec():
    # 2 + z stays away from 0 on the circle, so both paths are clean.
    spec = power_spec(2)
    f = synthesize({0: 2.0, 1: 1.0}, 1024)
    q = outer_multiplier(f, spec, 4)
    direct = outer_multiplier(synthesize({0: 2.0, 2: 1.0}, 1024), None, 4)
    assert np.max(np.abs(q.samples - direct.samples)) < 1e-10


def test_factor_rejects_nonanalytic():
    with pytest.raises(DomainError):
        inner_outer(monomial(-1, 512))
    with pytest.raises(DomainError):
        is_n_outer(monomial(-1, 512), 2)


def test_zero_function_has_no_verdict():
    with pytest.raises(DomainError):
        is_n_outer(constant(0.0, 512), 2)
