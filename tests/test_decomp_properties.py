"""Property tests of the Blaschke splitting over random zeros and inputs,
and of scale covariance: c * f behaves like f."""

import numpy as np
import pytest

from hardy import (BlaschkeSpec, PNorm, SizeError, SupNorm,
                   cesaro_convergence_profile, decompose_blaschke, synthesize)
from hardy.circlefn import COEFF_CUTOFF
from hardy.verify import _random_poly

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

zero = st.builds(lambda r, t: r * np.exp(2j * np.pi * t),
                 st.floats(0.0, 0.99), st.floats(0.0, 1.0))
coeff = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@hypothesis.settings(max_examples=100, deadline=None, database=None,
                     derandomize=True)
@hypothesis.given(st.lists(zero, min_size=1, max_size=4),
                  st.lists(coeff, min_size=1, max_size=25))
def test_blaschke_split_is_exact_and_energy_preserving(zeros, taylor):
    f = synthesize(dict(enumerate(taylor)), 1024)
    res = decompose_blaschke(f, BlaschkeSpec(tuple(zeros)))
    energy = float(np.sum(np.abs(np.asarray(taylor)) ** 2))
    pieces = float(np.sum(np.abs(res.basis_coefficients) ** 2))
    # Coefficients at or below COEFF_CUTOFF do not count toward the
    # degree that sizes the cutoff, so their size is an absolute floor.
    floor = 25 * COEFF_CUTOFF
    assert abs(pieces - energy) <= 1e-9 * energy + floor ** 2
    assert res.residual <= 1e-10
    # The coefficients carry rounding noise of about 1e-16 * max|G_j|,
    # which the carriers amplify near zeros of radius 0.99: the pointwise
    # error scales with f.
    total = sum(c.samples * p.samples
                for c, p in zip(res.carriers, res.components))
    err = np.max(np.abs(total - f.samples))
    assert err <= 1e-10 * np.sqrt(energy) + floor


# c = 10^e with e in [-100, 100].  Norms with p >= 3 stay out: their
# powers underflow at 1e-100.
scale = st.integers(-100, 100).map(lambda e: 10.0 ** e)
poly = st.builds(lambda seed, degree: _random_poly(
    np.random.default_rng(seed), degree, 1024),
    st.integers(0, 2 ** 32 - 1), st.integers(0, 24))


@hypothesis.settings(max_examples=60, deadline=None, database=None,
                     derandomize=True)
@hypothesis.given(poly, scale)
def test_significance_and_fejer_profile_are_scale_free(f, c):
    cf = c * f
    assert cf.top_index() == f.top_index()
    assert cf.bandwidth() == f.bandwidth()
    for spec in (PNorm(1.0), PNorm(2.0), SupNorm()):
        np.testing.assert_allclose(
            cesaro_convergence_profile(cf, spec, 60) / c,
            cesaro_convergence_profile(f, spec, 60), rtol=1e-12, atol=0.0)


@hypothesis.settings(max_examples=30, deadline=None, database=None,
                     derandomize=True)
@hypothesis.given(poly, scale, st.sampled_from([
    (0.0, 0.5, -0.5j), (0.0,) * 3, (0.3 + 0.2j, -0.6), (0.8j,)]))
def test_blaschke_cutoff_and_exact_zeros_are_scale_free(f, c, zeros):
    spec = BlaschkeSpec(zeros)
    unit, scaled = (decompose_blaschke(g, spec) for g in (f, c * f))
    assert scaled.basis_coefficients.shape == unit.basis_coefficients.shape
    np.testing.assert_array_equal(scaled.basis_coefficients == 0.0,
                                  unit.basis_coefficients == 0.0)
    assert (scaled.residual == 0.0) == (unit.residual == 0.0)


@pytest.mark.parametrize("c", [1.0, 1e-14, 1e-100])
def test_product_guard_is_scale_free(c):
    # bandwidth 200 on 1024 points: the product would alias at any scale
    k = c * synthesize({0: 1.0, 200: 1.0}, 1024)
    with pytest.raises(SizeError, match="aliasing"):
        k * k
