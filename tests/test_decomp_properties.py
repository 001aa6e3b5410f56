"""Property tests of the Blaschke splitting over random zeros and inputs."""

import numpy as np
import pytest

from hardy import BlaschkeSpec, decompose_blaschke, synthesize
from hardy.circlefn import COEFF_CUTOFF

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
