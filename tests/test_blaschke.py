"""Blaschke products and the product-shift basis."""

import numpy as np
import pytest

from hardy import (
    BasisIndex,
    BlaschkeSpec,
    CircleFunction,
    ParameterError,
    as_circle_function,
    basis_element,
    blaschke_eval,
    check_basis_orthonormality,
    decompose_blaschke,
    grid,
    power_spec,
    synthesize,
)


def test_spec_rejects_zeros_on_or_outside_circle():
    with pytest.raises(ParameterError):
        BlaschkeSpec((1.0,))
    with pytest.raises(ParameterError):
        BlaschkeSpec((1.2j,))
    assert BlaschkeSpec((0.0, 0.5)).degree == 2


@pytest.mark.parametrize("zeros", [(np.nan,), (np.nan, 0.5),
                                   (complex(0.2, np.nan),)])
def test_spec_refuses_nan_zeros(zeros):
    # abs(nan) > MAX_ZERO_MODULUS is False: such a spec once reached a
    # bare ValueError in decompose_blaschke and a nan orthonormality
    # defect with RuntimeWarnings
    f = synthesize({0: 1.0, 3: 0.5}, 256)
    with pytest.raises(ParameterError, match="offending"):
        decompose_blaschke(f, BlaschkeSpec(zeros))
    with pytest.raises(ParameterError, match="offending"):
        check_basis_orthonormality(BlaschkeSpec(zeros), m_max=4)


def test_eval_is_unimodular_on_grid_and_zero_at_zeros():
    spec = BlaschkeSpec((0.3, -0.4j, 0.1 + 0.2j))
    vals = blaschke_eval(spec, grid(512))
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12
    for a in spec.zeros:
        assert abs(blaschke_eval(spec, a)) < 1e-12


def test_single_factor_taylor_oracle():
    # (z - 1/2) / (1 - z/2) = -1/2 + (3/4) z + (3/8) z^2 + ...
    spec = BlaschkeSpec((0.5,))
    f = as_circle_function(spec, 1024)
    assert f.coeff(0) == pytest.approx(-0.5, abs=1e-12)
    assert f.coeff(1) == pytest.approx(0.75, abs=1e-12)
    assert f.coeff(2) == pytest.approx(0.375, abs=1e-12)
    assert f.coeff(3) == pytest.approx(0.1875, abs=1e-12)


def test_power_spec_is_a_monomial():
    spec = power_spec(3)
    f = as_circle_function(spec, 256)
    assert f.coeff(3) == pytest.approx(1.0, abs=1e-12)
    assert abs(f.coeff(0)) < 1e-13


def test_basis_element_oracle():
    # zeros (0, 1/2), slot 1, power 0:
    # sqrt(1 - 1/4) / (1 - z/2) * z = (sqrt(3)/2) z (1 + z/2 + ...)
    spec = BlaschkeSpec((0.0, 0.5))
    e10 = basis_element(spec, BasisIndex(1, 0), 1024)
    s = np.sqrt(3.0) / 2.0
    assert e10.coeff(0) == pytest.approx(0.0, abs=1e-12)
    assert e10.coeff(1) == pytest.approx(s, abs=1e-12)
    assert e10.coeff(2) == pytest.approx(s / 2.0, abs=1e-12)
    assert e10.coeff(3) == pytest.approx(s / 4.0, abs=1e-12)


def test_basis_element_power_case_is_monomial():
    spec = power_spec(2)
    e = basis_element(spec, BasisIndex(1, 2), 256)
    assert e.coeff(5) == pytest.approx(1.0, abs=1e-12)  # z^(1 + 2*2)


def test_basis_index_validation():
    spec = BlaschkeSpec((0.0, 0.5))
    with pytest.raises(ParameterError):
        basis_element(spec, BasisIndex(2, 0), 256)  # slot beyond degree
    with pytest.raises(ParameterError):
        basis_element(spec, BasisIndex(0, -1), 256)


def test_gram_matrix_orthonormality_curved():
    spec = BlaschkeSpec((0.2, -0.5, 0.3j))
    dev = check_basis_orthonormality(spec, m_max=4, n_samples=1024)
    assert dev <= 1e-10


def _taylor_at(f, z):
    """f's Taylor series at the points z, by Horner's rule."""
    return np.polyval(f.coeffs[f.n_samples // 2:][::-1], z)


def test_compose_with_power_spec():
    # f(B) as the Taylor series of f evaluated at the samples of B
    f = synthesize({0: 1.0, 1: 2.0, 2: -1.0}, 512)
    bz = blaschke_eval(power_spec(2), grid(512))
    g = CircleFunction.from_samples(_taylor_at(f, bz))
    assert g.coeff(0) == pytest.approx(1.0, abs=1e-12)
    assert g.coeff(2) == pytest.approx(2.0, abs=1e-12)
    assert g.coeff(4) == pytest.approx(-1.0, abs=1e-12)


def test_compose_with_moebius_matches_pointwise():
    spec = BlaschkeSpec((0.4,))
    f = synthesize({0: 1.0, 1: 1.0, 3: 0.5}, 1024)
    bz = blaschke_eval(spec, grid(1024))
    g = _taylor_at(f, bz)
    direct = 1.0 + bz + 0.5 * bz ** 3
    assert np.max(np.abs(g - direct)) < 1e-10
