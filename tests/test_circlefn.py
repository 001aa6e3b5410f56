"""Grid functions: transform conventions, algebra, guards."""

import numpy as np
import pytest

from hardy import (
    CircleFunction,
    DomainError,
    SizeError,
    TruncationError,
    grid,
    inner_product,
    monomial,
    norm2,
    resample,
    synthesize,
)


def test_transform_convention_hand_dft():
    # 3 z^2 - 2i sampled on the 16 point grid.
    z = grid(16)
    f = CircleFunction.from_samples(3.0 * z ** 2 - 2.0j)
    assert f.coeff(0) == pytest.approx(-2.0j, abs=1e-13)
    assert f.coeff(2) == pytest.approx(3.0, abs=1e-13)
    others = [f.coeff(j) for j in range(-8, 8) if j not in (0, 2)]
    assert max(abs(c) for c in others) < 1e-13


def test_synthesize_round_trip():
    f = synthesize({-3: 1.5j, 0: 2.0, 5: -1.0}, 64)
    g = CircleFunction.from_samples(f.samples)
    assert np.max(np.abs(f.coeffs - g.coeffs)) < 1e-12


def test_synthesize_rejects_out_of_band():
    with pytest.raises(TruncationError):
        synthesize({32: 1.0}, 64)
    with pytest.raises(TruncationError):
        synthesize({-33: 1.0}, 64)
    synthesize({-32: 1.0, 31: 1.0}, 64)  # band edges are fine


def test_grid_size_must_be_power_of_two():
    with pytest.raises(SizeError):
        synthesize({0: 1.0}, 48)
    with pytest.raises(SizeError):
        CircleFunction.from_samples(np.ones(100))


def test_coeff_outside_band_is_zero():
    f = monomial(1, 16)
    assert f.coeff(100) == 0.0
    assert f.coeff(-100) == 0.0


def test_inner_product_and_norm():
    f = monomial(2, 256)
    g = monomial(3, 256)
    assert inner_product(f, f) == pytest.approx(1.0, abs=1e-13)
    assert abs(inner_product(f, g)) < 1e-13
    h = synthesize({0: 1.0, 1: 1.0}, 256)
    assert norm2(h) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_scalar_and_function_algebra():
    f = monomial(1, 64)
    g = 2.0 * f + f * 0.5j
    assert g.coeff(1) == pytest.approx(2.0 + 0.5j, abs=1e-13)
    h = f * f
    assert h.coeff(2) == pytest.approx(1.0, abs=1e-13)
    assert (-f).coeff(1) == pytest.approx(-1.0, abs=1e-13)
    d = f - f
    assert norm2(d) < 1e-14


def test_product_antialias_guard():
    a = monomial(200, 1024)
    with pytest.raises(SizeError):
        a * a  # needs 4 * 400 = 1600 samples


def test_mixed_grids_rejected():
    with pytest.raises(SizeError):
        monomial(0, 64) + monomial(0, 128)


def test_analytic_flag():
    assert monomial(3, 64).is_analytic()
    back = monomial(-1, 64)
    assert not back.is_analytic()
    assert back.negative_energy == pytest.approx(1.0, abs=1e-12)


def test_bandwidth_and_top_index():
    f = synthesize({-4: 1.0, 7: 2.0}, 64)
    assert f.bandwidth() == 7
    assert f.top_index() == 7
    g = synthesize({-9: 1.0}, 64)
    assert g.bandwidth() == 9
    assert g.top_index() == 0


def test_resample_up_exact_down_guarded():
    f = synthesize({0: 1.0, 10: -2.0j}, 64)
    up = resample(f, 256)
    assert up.coeff(10) == pytest.approx(-2.0j, abs=1e-13)
    down = resample(up, 64)
    assert np.max(np.abs(down.coeffs - f.coeffs)) < 1e-12
    wide = synthesize({60: 1.0}, 256)
    with pytest.raises(TruncationError):
        resample(wide, 64)


def test_immutability():
    f = monomial(0, 16)
    with pytest.raises(ValueError):
        f.samples[0] = 5.0
