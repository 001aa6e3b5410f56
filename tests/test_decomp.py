"""Decompositions: residue splitting, basis series, smoothing means."""

import numpy as np
import pytest

from hardy import (
    BlaschkeSpec,
    ParameterError,
    PNorm,
    TruncationError,
    builtin_specs,
    cesaro_convergence_profile,
    cesaro_mean,
    decompose_blaschke,
    decompose_zn,
    gauge_eval,
    monomial,
    norm2,
    power_spec,
    rotate,
    synthesize,
    zn_series_components,
)


def test_zn_split_oracle_n2():
    # 1 + z + z^2 + z^3 = (1 + z^2) + z (1 + z^2)
    f = synthesize({0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}, 1024)
    res = decompose_zn(f, 2)
    assert res.residual < 1e-12
    for comp in res.components:
        assert comp.coeff(0) == pytest.approx(1.0, abs=1e-12)
        assert comp.coeff(2) == pytest.approx(1.0, abs=1e-12)
        assert abs(comp.coeff(1)) < 1e-13
    assert res.carriers[0].coeff(0) == pytest.approx(1.0, abs=1e-13)
    assert res.carriers[1].coeff(1) == pytest.approx(1.0, abs=1e-13)


def test_zn_split_oracle_nondividing_n3():
    # z^4 sits in the residue-1 slot mod 3: z^4 = z * (z^3).
    f = monomial(4, 1024)
    res = decompose_zn(f, 3)
    assert res.residual < 1e-12
    assert res.components[1].coeff(3) == pytest.approx(1.0, abs=1e-12)
    assert norm2(res.components[0]) < 1e-12
    assert norm2(res.components[2]) < 1e-12


def test_zn_split_support_is_exact():
    rng = np.random.default_rng(2)
    for n in (2, 3, 5, 8):
        c = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        f = synthesize({j: c[j] for j in range(40)}, 1024)
        res = decompose_zn(f, n)
        assert res.residual < 1e-12
        half = 512
        for i, comp in enumerate(res.components):
            idx = np.nonzero(comp.coeffs)[0]
            freqs = idx - half
            assert np.all(freqs % n == 0), (n, i)


def test_zn_split_energy_identity():
    f = synthesize({j: 1.0 for j in range(12)}, 1024)
    res = decompose_zn(f, 4)
    total = sum(v ** 2 for v in res.component_norms())
    assert total == pytest.approx(norm2(f) ** 2, abs=1e-12)


def test_zn_split_rejects_oversized_modulus():
    with pytest.raises(ParameterError):
        decompose_zn(monomial(0, 64), 33)


def test_series_components_base_variable_view():
    f = monomial(4, 256)
    s = zn_series_components(f, 3)
    assert s[1].coeff(1) == pytest.approx(1.0, abs=1e-13)
    assert norm2(s[0]) < 1e-13
    assert norm2(s[2]) < 1e-13


def test_rotate_by_grid_root():
    f = synthesize({0: 1.0, 1: 1.0}, 256)
    w = np.exp(2j * np.pi * 3 / 256)
    g = rotate(f, w)
    assert g.coeff(0) == pytest.approx(1.0, abs=1e-12)
    assert g.coeff(1) == pytest.approx(w, abs=1e-12)


def test_rotate_rejects_off_grid_root():
    with pytest.raises(ParameterError):
        rotate(monomial(1, 256), np.exp(0.1j))


def test_cesaro_mean_weights():
    f = monomial(1, 256)
    assert cesaro_mean(f, 1).coeff(1) == pytest.approx(0.5, abs=1e-13)
    assert cesaro_mean(f, 9).coeff(1) == pytest.approx(0.9, abs=1e-13)
    one = monomial(0, 256)
    assert cesaro_mean(one, 1).coeff(0) == pytest.approx(1.0, abs=1e-13)


def test_cesaro_profile_decreases_past_bandwidth():
    f = synthesize({j: 1.0 / (1 + j) for j in range(6)}, 512)
    prof = cesaro_convergence_profile(f, PNorm(2.0), 200)
    assert prof.shape == (201,)
    tail = prof[6:]
    assert np.all(np.diff(tail) <= 1e-12)
    assert prof[-1] < prof[6]


def test_cesaro_profile_matches_direct_means():
    # Rows from l = top on come from the identity
    # sigma_l f - f = -z f' / (l + 1); check them, and the last direct
    # row, against the Fejer means themselves.
    N = 1024
    rng = np.random.default_rng(3)
    for degree in (1, 24):
        c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        f = synthesize(dict(enumerate(c)), N)
        top = f.top_index()
        l_max = 1000 * top
        for spec in builtin_specs(N).values():
            prof = cesaro_convergence_profile(f, spec, l_max)
            for l in (top - 1, top, top + 1, l_max):
                want = gauge_eval(spec, cesaro_mean(f, l) - f)
                assert abs(prof[l] - want) <= 1e-12 * want


def test_blaschke_split_power_case_matches_zn():
    f = synthesize({0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}, 1024)
    res = decompose_blaschke(f, power_spec(2), m_max=4)
    assert res.residual < 1e-10
    # carriers are 1 and z; components are series in z^2
    assert res.components[0].coeff(0) == pytest.approx(1.0, abs=1e-10)
    assert res.components[0].coeff(2) == pytest.approx(1.0, abs=1e-10)


def test_blaschke_split_curved_recomposition():
    spec = BlaschkeSpec((0.5, -0.3))
    f = synthesize({j: (0.8) ** j for j in range(10)}, 1024)
    res = decompose_blaschke(f, spec, m_max=48)
    assert res.residual < 1e-8
    pieces = sum(v ** 2 for v in res.component_norms())
    assert pieces == pytest.approx(norm2(f) ** 2, abs=1e-9)


def test_blaschke_split_strict_raises_on_tail():
    spec = BlaschkeSpec((0.8, 0.8j))
    f = synthesize({j: 1.0 for j in range(20)}, 1024)
    with pytest.raises(TruncationError):
        decompose_blaschke(f, spec, m_max=2, strict=True)


def test_blaschke_split_rejects_nonanalytic():
    from hardy import DomainError
    with pytest.raises(DomainError):
        decompose_blaschke(monomial(-2, 256), power_spec(2), m_max=2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_blaschke_power_split_matches_zn_split(n):
    # The zeros of z^n are all at the origin, so e(j, m) = z^(j + n m) and
    # the two splittings must agree component by component.
    rng = np.random.default_rng(n)
    c = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    f = synthesize({j: c[j] for j in range(25)}, 1024)
    by_basis = decompose_blaschke(f, power_spec(n))
    by_selection = decompose_zn(f, n)
    for a, b in zip(by_basis.components + by_basis.carriers,
                    by_selection.components + by_selection.carriers):
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12
