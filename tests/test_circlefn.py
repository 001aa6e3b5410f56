"""Grid functions: transform conventions, algebra, guards."""

import copy
import pickle

import numpy as np
import pytest

from hardy import (
    CircleFunction,
    DomainError,
    ParameterError,
    PNorm,
    SizeError,
    SupNorm,
    TruncationError,
    decompose_zn,
    gauge_eval,
    grid,
    monomial,
    norm2,
    resample,
    synthesize,
)
from hardy import circlefn
from hardy.circlefn import _synthesize_array


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
    # an index is an integer: a fraction or a boolean is refused, an
    # np.int64 or an integral float reads as the int
    with pytest.raises(TruncationError, match="coefficient index must be "
                                              "an integer, got 1.7"):
        synthesize({1.7: 1.0}, 64)
    with pytest.raises(TruncationError):
        synthesize({True: 1.0}, 64)
    edges = synthesize({np.int64(-32): 1.0, 31.0: 1.0}, 64)
    assert np.array_equal(edges.coeffs,
                          synthesize({-32: 1.0, 31: 1.0}, 64).coeffs)


def test_grid_size_must_be_power_of_two():
    with pytest.raises(SizeError):
        synthesize({0: 1.0}, 48)
    with pytest.raises(SizeError):
        CircleFunction.from_samples(np.ones(100))
    with pytest.raises(SizeError, match="n_samples must be an integer, "
                                        "got 64.9"):
        synthesize({1.7: 1.0}, 64.9)
    with pytest.raises(SizeError, match="n_samples must be an integer, "
                                        "got 16.5"):
        monomial(2, 16.5)
    with pytest.raises(SizeError):
        monomial(2, True)
    f = monomial(np.int64(2), np.int64(16))
    assert f.n_samples == 16 and type(f.n_samples) is int


def test_coeff_outside_band_is_zero():
    f = monomial(1, 16)
    assert f.coeff(100) == 0.0
    assert f.coeff(-100) == 0.0


def test_inner_product_and_norm():
    f = monomial(2, 256)
    g = monomial(3, 256)
    assert np.vdot(f.samples, f.samples) / 256 == pytest.approx(1.0,
                                                                abs=1e-13)
    assert abs(np.vdot(g.samples, f.samples) / 256) < 1e-13
    h = synthesize({0: 1.0, 1: 1.0}, 256)
    assert norm2(h) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_norm_neither_vanishes_nor_overflows_at_the_float_range():
    # Unscaled, the squares of 1e-307 underflow to a zero norm and those
    # of 1e307 overflow to inf with a RuntimeWarning.
    tiny = synthesize({0: 1e-307, 1: 1e-307}, 1024)
    huge = synthesize({0: 1e307, 1: 1e307, 2: 1e307}, 1024)
    assert norm2(tiny) == pytest.approx(np.sqrt(2.0) * 1e-307, rel=1e-14)
    assert norm2(huge) == pytest.approx(np.sqrt(3.0) * 1e307, rel=1e-14)


def test_norm_scales_exactly_by_powers_of_two():
    f = CircleFunction.from_samples(_random(np.random.default_rng(11), 1024))
    want = norm2(f)
    for k in range(-900, 901):
        assert norm2(f * 2.0 ** k) == 2.0 ** k * want


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


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_coefficient_is_refused(value):
    # Refused where the function is made: 1e-13 times an infinite largest
    # coefficient would count no index, and the product guard would pass
    # g * g.
    c = np.zeros(1024, dtype=complex)
    c[512], c[512 + 200] = 1.0, value
    with pytest.raises(ParameterError, match="not finite"):
        CircleFunction.from_coeffs(c)


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


def _random(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_lazy_coeffs_are_analyze_of_the_samples():
    s = _random(np.random.default_rng(1), 64)
    f = CircleFunction.from_samples(s)
    assert f.samples.tobytes() == s.tobytes()
    oracle = np.fft.fftshift(np.fft.fft(s)) / 64
    assert f.coeffs.tobytes() == oracle.tobytes()


def test_lazy_samples_match_the_shifted_inverse_fft():
    c = _random(np.random.default_rng(2), 64)
    oracle = np.fft.ifft(np.fft.ifftshift(c)) * 64
    f = CircleFunction.from_coeffs(c)
    assert f.coeffs.tobytes() == c.tobytes()
    assert f.samples.tobytes() == oracle.tobytes()
    # a block is synthesized row by row, bit for bit
    block = _random(np.random.default_rng(3), 3, 64)
    rows = _synthesize_array(block)
    for row, c_row in zip(rows, block):
        assert row.tobytes() == (np.fft.ifft(np.fft.ifftshift(c_row))
                                 * 64).tobytes()


@pytest.mark.parametrize("build", [CircleFunction.from_samples,
                                   CircleFunction.from_coeffs])
def test_both_forms_read_only_and_detached_from_the_input(build):
    x = _random(np.random.default_rng(4), 32)
    keep = x.copy()
    f = build(x)
    x[:] = 7.0  # before the other form is derived
    g = build(keep)
    for a, b in ((f.samples, g.samples), (f.coeffs, g.coeffs)):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
        assert a.tobytes() == b.tobytes()


def test_two_dimensional_input_raises_at_construction():
    with pytest.raises(SizeError):
        CircleFunction.from_samples(np.ones((2, 8)))
    with pytest.raises(SizeError):
        CircleFunction.from_coeffs(np.ones((2, 8)))


def test_grid_is_shared_read_only_and_exact():
    z = grid(128)
    assert z is grid(128)
    assert not z.flags.writeable
    assert z.tobytes() == np.exp(2j * np.pi * np.arange(128) / 128).tobytes()


def test_modulus_only_reads_run_no_transform(transforms):
    v = _random(np.random.default_rng(5), 256)
    for spec in (PNorm(1.5), SupNorm()):
        gauge_eval(spec, CircleFunction.from_samples(v))
    norm2(CircleFunction.from_samples(v))
    assert transforms == []


def test_repeated_zn_split_runs_one_block_transform(transforms):
    f = CircleFunction.from_coeffs(np.concatenate(
        [np.zeros(128), _random(np.random.default_rng(6), 40), np.zeros(88)]))
    decompose_zn(f, 3)
    transforms.clear()
    decompose_zn(f, 3)
    assert transforms == [("ifft", (3, 256))]


def test_transforms_reorder_without_roll(transforms):
    x = _random(np.random.default_rng(7), 64)
    CircleFunction.from_samples(x).coeffs
    _synthesize_array(x)
    _synthesize_array(np.stack([x, x]))
    CircleFunction.from_samples(x).coeffs
    CircleFunction.from_coeffs(x).samples
    assert [name for name, _ in transforms] == ["fft", "ifft", "ifft",
                                                "fft", "ifft"]


@pytest.mark.parametrize("build", [CircleFunction.from_samples,
                                   CircleFunction.from_coeffs])
def test_pickle_and_copies_keep_the_function(build):
    f = build(_random(np.random.default_rng(8), 32))
    for again in (pickle.loads(pickle.dumps(f)), copy.copy(f),
                  copy.deepcopy(f)):
        assert again.n_samples == 32
        for a, b in ((again.samples, f.samples), (again.coeffs, f.coeffs)):
            assert not a.flags.writeable
            assert a.tobytes() == b.tobytes()


def test_one_blas_thread_restores_the_callers_count(blas_threads):
    get, _ = blas_threads
    seen = []

    @circlefn._one_blas_thread
    def inner():
        seen.append(int(get()))

    @circlefn._one_blas_thread
    def outer():
        inner()  # the nested call leaves the count at 1
        seen.append(int(get()))
        return "done"

    @circlefn._one_blas_thread
    def fails():
        outer()
        raise ValueError("inside")

    assert outer() == "done"
    assert seen == [1, 1] and int(get()) == 2
    with pytest.raises(ValueError, match="inside"):
        fails()
    assert seen == [1, 1, 1, 1] and int(get()) == 2
    assert circlefn._pin_depth == 0


def test_one_blas_thread_without_openblas_is_the_call(monkeypatch):
    blas = circlefn._openblas()
    counts = []

    @circlefn._one_blas_thread
    def call(x, y=1):
        counts.append(None if blas is None else int(blas[0]()))
        assert circlefn._pin_depth == 0
        return x + y

    monkeypatch.setattr(circlefn, "_openblas", lambda: None)
    before = None if blas is None else int(blas[0]())
    assert call(2, y=3) == 5
    assert counts == [before]  # the caller's count, untouched
