"""Decompositions: residue splitting, basis series, smoothing means."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from hardy import (
    BasisIndex,
    BlaschkeSpec,
    CircleFunction,
    GradedRecipe,
    ParameterError,
    PNorm,
    b_inner_matrix_from,
    builtin_specs,
    cesaro_convergence_profile,
    check_basis_orthonormality,
    check_gauge_axioms,
    decompose_blaschke,
    decompose_zn,
    dual_norm_estimate,
    freq_indices,
    gauge_eval,
    horner,
    is_n_outer,
    monomial,
    n_inner_outer_factorize,
    norm2,
    power_spec,
    span_invariant,
    synthesize,
)
from hardy import decomp
from hardy.blaschke import MAX_ZERO_MODULUS
from oracles import zn_series_components


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


def _zn_split_per_row(f, n):
    """decompose_zn one row at a time: from_coeffs per component, monomial
    per carrier and a sequential recomposition."""
    N = f.n_samples
    freqs = freq_indices(N)
    components, carriers = [], []
    recomposed = np.zeros(N, dtype=complex)
    for i in range(n):
        hc = np.zeros(N, dtype=complex)
        hc[:N - i] = np.where(freqs % n == i, f.coeffs, 0.0)[i:]
        comp = CircleFunction.from_coeffs(hc)
        carrier = monomial(i, N)
        components.append(comp)
        carriers.append(carrier)
        recomposed = recomposed + carrier.samples * comp.samples
    residual = float(np.sqrt(np.mean(np.abs(f.samples - recomposed) ** 2)))
    return components, carriers, residual


def _random_input(N, built, seed):
    rng = np.random.default_rng(seed)
    degree = min(N // 4, 40)
    c = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
    f = synthesize(dict(enumerate(c)), N)
    # Samples-built inputs carry rounding dust at negative indices.
    return CircleFunction.from_samples(f.samples) if built == "samples" else f


def _bitwise_equal(got, want):
    return (len(got) == len(want)
            and all(np.array_equal(a.samples, b.samples)
                    and np.array_equal(a.coeffs, b.coeffs)
                    for a, b in zip(got, want)))


@pytest.mark.parametrize("built", ["coeffs", "samples"])
@pytest.mark.parametrize("N", [64, 1024, 8192])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
def test_zn_split_block_matches_per_row_bitwise(n, N, built):
    f = _random_input(N, built, seed=N + n)
    res = decompose_zn(f, n)
    components, carriers, residual = _zn_split_per_row(f, n)
    assert _bitwise_equal(res.components, components)
    assert _bitwise_equal(res.carriers, carriers)
    assert res.residual == residual


@pytest.mark.parametrize("split", [decompose_zn])
def test_zn_splits_refuse_oversized_modulus_before_allocating(split):
    f = synthesize({0: 2.0, 1: 1.0}, 1024)
    split(f, 512)  # half the grid is the largest modulus
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="no room"):
            split(f, 2 ** 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


_F = synthesize({0: 2.0, 1: 1.0}, 1024)
_Z = monomial(1, 1024)
_B = BlaschkeSpec((0.0, 0.5))


@pytest.mark.parametrize("call, name", [
    (lambda: decompose_zn(_F, 2.5), "n"),
    (lambda: decompose_zn(_F, True), "n"),
    (lambda: n_inner_outer_factorize(_F, 2.5), "n"),
    (lambda: is_n_outer(_F, 2.5), "n"),
    (lambda: span_invariant([_Z], _Z, k_max=2.5, D=10), "k_max"),
    (lambda: span_invariant([_Z], _Z, k_max=2, D=10.5), "D"),
    (lambda: decompose_blaschke(_F, _B, m_max=2.5), "m_max"),
    (lambda: check_basis_orthonormality(_B, 2.5), "m_max"),
    (lambda: cesaro_convergence_profile(_F, PNorm(2.0), 2.5), "l_max"),
    (lambda: n_inner_outer_factorize(_F, 2, m_max_check=2.5), "m_max_check"),
    (lambda: power_spec(2.5), "power"),
    (lambda: check_gauge_axioms(PNorm(2.0), trials=2.5), "trials"),
    (lambda: dual_norm_estimate(PNorm(2.0), _F, budget=2.5), "budget"),
    (lambda: GradedRecipe((), (_Z,), _Z, 2.5), "k_max"),
    (lambda: BasisIndex(1.5, 0), "basis index j"),
], ids=["zn-fraction", "zn-boolean", "ninner", "n-outer", "span-k_max",
        "span-band", "blaschke-m_max", "basis-m_max", "cesaro-l_max",
        "ninner-m_max_check", "power", "axiom-trials", "dual-budget",
        "recipe-k_max", "basis-index"])
def test_count_arguments_must_be_integers(call, name):
    with pytest.raises(ParameterError, match=f"^{name} must be an integer"):
        call()


def test_series_components_base_variable_view():
    f = monomial(4, 256)
    s = zn_series_components(f, 3)
    assert s[1].coeff(1) == pytest.approx(1.0, abs=1e-13)
    assert norm2(s[0]) < 1e-13
    assert norm2(s[2]) < 1e-13


def test_cesaro_profile_decreases_past_bandwidth():
    f = synthesize({j: 1.0 / (1 + j) for j in range(6)}, 512)
    prof = cesaro_convergence_profile(f, PNorm(2.0), 200)
    assert prof.shape == (201,)
    tail = prof[6:]
    assert np.all(np.diff(tail) <= 1e-12)
    assert prof[-1] < prof[6]


def _fejer_mean(f, l):
    """Fejer mean of order l: Taylor coefficient j scaled by
    1 - j/(l+1) for 0 <= j <= l, dropped beyond."""
    j = freq_indices(f.n_samples)
    weights = np.where((j >= 0) & (j <= l), 1.0 - j / (l + 1.0), 0.0)
    return CircleFunction.from_coeffs(f.coeffs * weights)


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
                want = gauge_eval(spec, _fejer_mean(f, l) - f)
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


def test_blaschke_split_residual_exposes_tail():
    spec = BlaschkeSpec((0.8, 0.8j))
    f = synthesize({j: 1.0 for j in range(20)}, 1024)
    assert decompose_blaschke(f, spec, m_max=2).residual > 1e-8 * norm2(f)


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


def _random_taylor(seed, degree=24):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)


def _circle_factors(zeros, z):
    """The carriers e(j, 0) and the product B at the points z."""
    factors = [(z - a) / (1.0 - np.conj(a) * z) for a in zeros]
    carriers = [np.sqrt(1.0 - abs(a) ** 2) / (1.0 - np.conj(a) * z)
                * np.prod(factors[:j], axis=0) for j, a in enumerate(zeros)]
    return carriers, np.prod(factors, axis=0)


def _running_product_coeffs(taylor, zeros, m_max):
    """<f, e(j, m)> as grid means of f conj(e(j, 0)) conj(B)^m, by one
    accumulating product per slot on a grid wider than the integrands'
    spectrum (up to (1 + r)/(1 - r) per factor per power)."""
    radii = np.abs(np.asarray(zeros))
    width = np.sum((1 + radii) / (1 - radii)) * m_max + taylor.size + 512
    n_work = 1 << int(np.ceil(width)).bit_length()
    z = np.exp(2j * np.pi * np.arange(n_work) / n_work)
    carriers, b = _circle_factors(zeros, z)
    out = np.empty((len(zeros), m_max + 1), dtype=complex)
    for j, e0 in enumerate(carriers):
        acc = np.polynomial.polynomial.polyval(z, taylor) * np.conj(e0)
        for m in range(m_max + 1):
            out[j, m] = np.mean(acc)
            acc = acc * np.conj(b)
    return out


@pytest.mark.parametrize("r", [0.3, 0.6, 0.8, 0.9])
def test_blaschke_pushforward_matches_running_product(r):
    zeros = (0.0, r, -1j * r)
    for seed in range(3):
        taylor = _random_taylor(seed)
        f = synthesize(dict(enumerate(taylor)), 1024)
        res = decompose_blaschke(f, BlaschkeSpec(zeros))
        oracle = _running_product_coeffs(taylor, zeros,
                                         res.basis_coefficients.shape[1] - 1)
        assert np.max(np.abs(res.basis_coefficients - oracle)) <= 1e-12


@pytest.mark.parametrize("r", [0.9, 0.958])
def test_blaschke_pieces_recompose_f_on_input_grid(r):
    f = synthesize(dict(enumerate(_random_taylor(2))), 1024)
    res = decompose_blaschke(f, BlaschkeSpec((0.0, r, -1j * r)))
    total = sum(c.samples * p.samples
                for c, p in zip(res.carriers, res.components))
    assert np.max(np.abs(total - f.samples)) <= 1e-10
    assert res.residual <= 1e-10


@pytest.mark.parametrize("scale", [1.0, 1e-14, 1e-150])
def test_blaschke_cutoff_does_not_depend_on_scale(scale):
    rng = np.random.default_rng(2)
    c = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    ref = decompose_blaschke(synthesize(dict(enumerate(c)), 1024),
                             power_spec(2))
    res = decompose_blaschke(synthesize(dict(enumerate(scale * c)), 1024),
                             power_spec(2))
    assert res.basis_coefficients.shape == ref.basis_coefficients.shape
    energy = float(np.sum(np.abs(c) ** 2))
    pieces = float(np.sum(np.abs(res.basis_coefficients / scale) ** 2))
    assert pieces == pytest.approx(energy, rel=1e-12)
    assert res.residual <= 1e-13 * scale * np.sqrt(energy)


def test_blaschke_splits_a_tiny_monomial():
    # 1.8e-85 z^2 against a zero at the origin: one power per index.
    res = decompose_blaschke(synthesize({2: 1.8e-85}, 1024),
                             BlaschkeSpec((0.0,)))
    assert res.basis_coefficients.shape == (1, 3)
    assert res.basis_coefficients[0, 2] == pytest.approx(1.8e-85, rel=1e-12)
    assert res.residual <= 1e-12 * 1.8e-85


def test_blaschke_zeros_near_circle_decompose():
    zeros = (0.0, 0.99, -0.99j)
    taylor = _random_taylor(7)
    f = synthesize(dict(enumerate(taylor)), 1024)
    res = decompose_blaschke(f, BlaschkeSpec(zeros))
    energy = float(np.sum(np.abs(taylor) ** 2))
    c = res.basis_coefficients
    assert res.residual <= 1e-10
    assert abs(float(np.sum(np.abs(c) ** 2)) - energy) <= 1e-9 * energy
    assert res.phase_grid >= 2 * c.shape[1]
    # Closed form: e(j, m) = e(j, 0) B^m sampled on a grid fine enough
    # that conj(e(j, m)) aliases nothing onto f's band (0.99^16384 ~ 1e-72).
    z = np.exp(2j * np.pi * np.arange(16384) / 16384)
    carriers, b = _circle_factors(zeros, z)
    fz = np.polynomial.polynomial.polyval(z, taylor)
    for j, m in ((0, 0), (1, 1), (2, 4)):
        want = np.mean(fz * np.conj(carriers[j] * b ** m))
        assert abs(c[j, m] - want) <= 1e-10 * np.sqrt(energy)


def test_blaschke_refuses_zeros_at_max_modulus_before_allocating():
    # with no zero at the origin the cutoff follows the winding rate, and
    # the phase-node budget binds
    f = synthesize(dict(enumerate(_random_taylor(7))), 1024)
    r = MAX_ZERO_MODULUS
    spec = BlaschkeSpec((r, -1j * r))
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="phase nodes"):
            decompose_blaschke(f, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_blaschke_accepts_zeros_at_max_modulus_with_a_zero_at_the_origin():
    # B = z B~: the cutoff is exact at degree // 1 = 24, on 64 phase nodes
    taylor = _random_taylor(7)
    f = synthesize(dict(enumerate(taylor)), 1024)
    r = MAX_ZERO_MODULUS
    res = decompose_blaschke(f, BlaschkeSpec((0.0, r, -1j * r)))
    energy = float(np.sum(np.abs(taylor) ** 2))
    c = res.basis_coefficients
    assert c.shape == (3, 25)
    assert res.phase_grid == 64
    assert res.residual <= 1e-10 * np.sqrt(energy)
    assert abs(float(np.sum(np.abs(c) ** 2)) - energy) <= 1e-10 * energy


# Zero sets with k = 1, 2 and 3 zeros at the origin, in varied slots; r
# scales the others.
_ORIGIN_SETS = {
    1: lambda r: (0.0, r, -1j * r),
    2: lambda r: (r, 0.0, -1j * r, 0.0),
    3: lambda r: (0.5j * r, 0.0, 0.0, -r, 0.0),
}


@pytest.mark.parametrize("r", [0.3, 0.9, 0.999])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_blaschke_cutoff_is_exact_with_zeros_at_the_origin(k, r):
    # Every e(j, m) lies in z^(m k) H^2, so past m = 24 // k the pairings
    # of a degree-24 input are zero: a run to m = 300 adds only rounding.
    spec = BlaschkeSpec(_ORIGIN_SETS[k](r))
    for seed in range(3):
        taylor = _random_taylor(seed)
        f = synthesize(dict(enumerate(taylor)), 1024)
        auto = decompose_blaschke(f, spec)
        full = decompose_blaschke(f, spec, m_max=300)
        scale = np.linalg.norm(taylor)
        c = auto.basis_coefficients
        assert c.shape == (spec.degree, 24 // k + 1)
        assert auto.phase_grid == 64
        assert np.max(np.abs(c - full.basis_coefficients[:, :c.shape[1]])
                      ) <= 1e-13 * scale
        assert np.max(np.abs(full.basis_coefficients[:, c.shape[1]:])
                      ) <= 1e-14 * scale


@pytest.mark.parametrize("r", [0.9, 0.999])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_blaschke_pairings_match_quadrature_with_zeros_at_the_origin(k, r):
    # <f, e(j, m)> as a grid mean of f conj(e(j, 0) B^m) on a grid past
    # the integrand's spectrum (r^65536 ~ 3e-29 at r = 0.999), including
    # the last power the cutoff keeps and the first it drops (at r = 0.9)
    zeros = _ORIGIN_SETS[k](r)
    taylor = _random_taylor(10 + k)
    f = synthesize(dict(enumerate(taylor)), 1024)
    c = decompose_blaschke(f, BlaschkeSpec(zeros)).basis_coefficients
    top = 24 // k
    pairs = [(0, 0), (1, 1), (len(zeros) - 1, 2)]
    if r <= 0.9:
        pairs += [(0, top), (len(zeros) - 1, top), (1, top + 1)]
    z = np.exp(2j * np.pi * np.arange(1 << 16) / (1 << 16))
    carriers, b = _circle_factors(zeros, z)
    fz = np.polynomial.polynomial.polyval(z, taylor)
    scale = np.linalg.norm(taylor)
    for j, m in pairs:
        want = np.mean(fz * np.conj(carriers[j] * b ** m))
        got = c[j, m] if m <= top else 0.0
        assert abs(got - want) <= 1e-10 * scale


def _origin_zero_sets():
    """Seeded zero sets with 1-3 zeros at the origin and 1-3 zeros of
    radius 0.99 ... MAX_ZERO_MODULUS, some in near-coincident pairs,
    shuffled into random slots."""
    rng = np.random.default_rng(22)
    radii = (0.99, 0.999, 0.9999, 0.99999, 1 - 3e-6, MAX_ZERO_MODULUS)
    sets = []
    for trial in range(24):
        zeros = [0.0] * int(rng.integers(1, 4))
        angles = 2 * np.pi * rng.random(int(rng.integers(1, 4)))
        if trial % 3 == 0:
            angles[-1] = angles[0] + 1e-4
        # 1 - 1e-15 keeps the rounding of r e^(ia) within the largest radius
        zeros += [(1 - 1e-15) * rng.choice(radii) * np.exp(1j * a)
                  for a in angles]
        rng.shuffle(zeros)
        sets.append(tuple(zeros))
    return sets


@pytest.mark.parametrize("zeros", _origin_zero_sets())
def test_blaschke_near_circle_with_a_zero_at_the_origin_resolves_or_raises(
        zeros):
    # Newton on the phase must bring every node to its own sheet: a node
    # left unconverged or on a neighbouring sheet once gave a quiet
    # residual of 0.1
    taylor = _random_taylor(len(zeros))
    f = synthesize(dict(enumerate(taylor)), 1024)
    try:
        res = decompose_blaschke(f, BlaschkeSpec(zeros))
    except ParameterError as exc:
        assert "phase nodes" in str(exc)
        return
    assert res.residual <= 1e-10 * np.linalg.norm(taylor)


def test_blaschke_split_refuses_an_infinite_coefficient():
    # Read as finite, a_3 = inf once gave finite pieces and a residual
    # of 2e-17.
    c = np.zeros(1024, dtype=complex)
    c[512], c[515] = 1.0, np.inf
    with pytest.raises(ParameterError, match="not finite"):
        decompose_blaschke(CircleFunction.from_coeffs(c),
                           BlaschkeSpec((0, 0.5)))


@pytest.fixture
def cold_blaschke_tables():
    """No kept Blaschke tables before or after the test, so a test that
    patches what builds them neither reads a table built without the
    patch nor leaves one built with it."""
    decomp._kept_tables.cache_clear()
    yield
    decomp._kept_tables.cache_clear()


def test_phase_nodes_that_cannot_converge_raise(monkeypatch,
                                                cold_blaschke_tables):
    # with no room for rounding no node converges, which raises at the
    # step cap
    monkeypatch.setattr(decomp, "_PHASE_ROUNDING", 0.0)
    f = synthesize(dict(enumerate(_random_taylor(3))), 1024)
    with pytest.raises(ParameterError, match="phase nodes"):
        decompose_blaschke(f, BlaschkeSpec((0.0, 0.9, -0.9j)))


def test_only_small_carrier_blocks_outlive_their_split():
    decomp._kept_carriers.cache_clear()
    f = synthesize({j: 1.0 for j in range(200)}, 512)
    dec = decompose_zn(f, 128)  # a 128 x 512 block: built, not kept
    assert len(dec.carriers) == 128
    assert decomp._kept_carriers.cache_info().currsize == 0
    small = decompose_zn(f, 4)
    assert decomp._kept_carriers.cache_info().currsize == 1
    kept_samples, _ = decomp._kept_carriers(512)
    assert kept_samples.size <= decomp._KEPT_CARRIER_POINTS
    assert decompose_zn(f, 3).carriers == small.carriers[:3]
    # a result holding functions converts and copies like any dataclass
    as_dict = dataclasses.asdict(small)
    assert as_dict["carriers"][3].coeffs.tobytes() == \
        small.carriers[3].coeffs.tobytes()


def _function_bits(g):
    return g.samples.tobytes(), g.coeffs.tobytes()


def _split_bits(res):
    return (res.basis_coefficients.tobytes(), repr(res.residual),
            res.phase_grid, [_function_bits(g) for g in res.components],
            [_function_bits(g) for g in res.carriers])


def _matrix_bits(mat):
    return (repr((mat.defect, mat.joint_defect, mat.decomposition_residual)),
            [[_function_bits(g) for g in row] for row in mat.entries])


@pytest.mark.parametrize("zeros", [(0.3, -0.5j, 0.2 + 0.4j),
                                   (0.0, 0.85, -0.85j)])
def test_kept_blaschke_tables_give_the_bits_of_a_fresh_build(
        zeros, cold_blaschke_tables):
    spec = BlaschkeSpec(zeros)
    f, g = (synthesize(dict(enumerate(_random_taylor(seed, 11))), 1024)
            for seed in (41, 42))
    kept = decomp._kept_tables
    for call, bits in ((lambda: decompose_blaschke(f, spec), _split_bits),
                       (lambda: b_inner_matrix_from([f, g], spec, 6),
                        _matrix_bits)):
        kept.cache_clear()
        cold = bits(call())
        assert kept.cache_info().currsize == 2  # quadrature and grid view
        hits = kept.cache_info().hits
        assert bits(call()) == cold
        assert kept.cache_info().hits > hits


def test_signed_zero_zeros_get_their_own_blaschke_tables(
        cold_blaschke_tables):
    f = synthesize(dict(enumerate(_random_taylor(43, 11))), 1024)
    plus = decompose_blaschke(f, BlaschkeSpec((0.0, 0.5)))
    minus = decompose_blaschke(f, BlaschkeSpec((complex(-0.0, 0.0), 0.5)))
    assert decomp._kept_tables.cache_info().hits == 0
    assert decomp._kept_tables.cache_info().currsize == 4
    assert plus.carriers is not minus.carriers


def test_only_small_blaschke_tables_outlive_their_split(
        cold_blaschke_tables):
    # no zero at the origin: 8192 phase targets on 2 sheets, whose
    # quadrature is built and freed with the split; B's grid view on
    # 1024 points is kept
    r = 0.99
    f = synthesize(dict(enumerate(_random_taylor(44, 7))), 1024)
    res = decompose_blaschke(f, BlaschkeSpec((r, -1j * r)))
    assert res.phase_grid * 2 * 4 > decomp._KEPT_BLASCHKE_POINTS
    assert decomp._kept_tables.cache_info().currsize == 1
    # a grid view of (2 * 3 + 1) * 4096 points is not kept either; the
    # 64-target quadrature of that split is
    f = synthesize(dict(enumerate(_random_taylor(44, 7))), 4096)
    decompose_blaschke(f, BlaschkeSpec((0.0, 0.3, 0.4j)))
    assert decomp._kept_tables.cache_info().currsize == 2


def test_kept_blaschke_tables_are_read_only(cold_blaschke_tables):
    spec = BlaschkeSpec((0.0, 0.6, -0.6j))
    nodes, _, weights, at_nodes = decomp._kept(decomp._phase_quadrature,
                                               spec, 64, 0)
    bz, carriers = decomp._grid_view(spec, 1024)
    assert decomp._kept_tables.cache_info().currsize == 2
    for table in (nodes, weights, *at_nodes, bz,
                  *(c.samples for c in carriers),
                  *(c.coeffs for c in carriers)):
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0.0


# Rounding of the two evaluations of a piece sum_m c_m B^m, T = m_max + 1
# terms, to first order in the unit roundoff u.  A complex product is
# off by at most sqrt(5) u relative (Brent, Percival and Zimmermann,
# 2007), a complex sum by u, and a complex dot product of L terms, in any
# order, by sqrt(2) gamma_2L times the sum of the terms' moduli.
# * Horner's rule: term m passes m products and m + 1 sums, at most
#   (sqrt(5) + 1) T u.
# * Baby and giant steps, term m = b L + l: the running product B^l
#   (sqrt(5) l u), the dot product of its block (2 sqrt(2) L u), and b
#   Horner steps in B^L, whose running product is off by sqrt(5) L u
#   (sqrt(5) b (L + 1) u + b u).  With l + b L = m, b <= m and L <= T
#   that is at most (2 sqrt(5) + 2 sqrt(2) + 1) T u.
# Each term's modulus is at most |c_m| rho^m, rho the largest |B| on the
# grid, so the two differ by at most K T u sum_m |c_m| rho^m with
# K = 3 sqrt(5) + 2 sqrt(2) + 2; gamma(K T) = K T u / (1 - K T u) also
# covers the terms of higher order.
_TWO_EVALUATIONS = 3 * np.sqrt(5) + 2 * np.sqrt(2) + 2


def _piece_rounding_bound(row, bz):
    Ku = _TWO_EVALUATIONS * row.size * np.finfo(float).eps / 2
    rho = max(1.0, float(np.max(np.abs(bz))))
    return Ku / (1 - Ku) * float(np.sum(np.abs(row)
                                        * rho ** np.arange(row.size)))


def _assert_pieces_match_horner(pieces, coeffs, bz):
    for piece, row in zip(pieces, coeffs):
        gap = float(np.max(np.abs(piece.samples - horner(row, bz))))
        assert gap <= _piece_rounding_bound(row, bz)


@pytest.mark.parametrize("zeros, m_max, blocks", [
    ((0.0, 0.5, -0.5j), 16, 1),
    ((0.0, 0.5, -0.5j), 24, 2),
    ((0.9,), 978, 16),
    ((0.99, -0.99j), 5083, 164),
])
def test_blaschke_pieces_match_horner_on_the_grid(zeros, m_max, blocks):
    spec = BlaschkeSpec(zeros)
    f = synthesize(dict(enumerate(_random_taylor(45))), 1024)
    res = decompose_blaschke(f, spec, m_max)
    L = (decomp._ONE_THREAD_PRODUCT - 1) // (len(zeros) * 1024)
    assert -(-(m_max + 1) // L) == blocks  # one block or many
    bz, _ = decomp._grid_view(spec, 1024)
    _assert_pieces_match_horner(res.components, res.basis_coefficients, bz)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_b_inner_matrix_entries_match_horner_on_the_grid(k):
    spec = BlaschkeSpec((0.0, 0.5, -0.5j))
    phis = [synthesize(dict(enumerate(_random_taylor(50 + i, 20 + 2 * i))),
                       1024) for i in range(k)]
    mat = b_inner_matrix_from(phis, spec, 4)
    decs = decomp._split_blaschke(phis, spec, None, "test")
    bz, _ = decomp._grid_view(spec, 1024)
    for col, dec in enumerate(decs):
        assert dec.basis_coefficients.shape[1] == 20 + 2 * (k - 1) + 1
        _assert_pieces_match_horner([row[col] for row in mat.entries],
                                    dec.basis_coefficients, bz)


@pytest.mark.parametrize("zeros", [(0.9,), (0.0, 0.5, -0.5j),
                                   (0.99, -0.99j)])
def test_a_blaschke_split_has_the_bits_of_its_own_split(
        zeros, cold_blaschke_tables):
    # one batch on cold tables, then each input alone on what is kept;
    # with one zero a lone input's product has a single row
    spec = BlaschkeSpec(zeros)
    fs = [synthesize(dict(enumerate(_random_taylor(seed))), 1024)
          for seed in (46, 47, 48)]
    together = decomp._split_blaschke(fs, spec, None, "test")
    for f, res in zip(fs, together):
        assert _split_bits(decompose_blaschke(f, spec)) == _split_bits(res)


def test_one_zero_split_runs_its_product_on_one_blas_thread(monkeypatch,
                                                           blas_threads):
    # with one zero each input's product is a single row, which OpenBLAS
    # threads as a matrix-vector product from about 2^13 multiply-adds
    get, _ = blas_threads
    seen = []

    def spy(coeffs, bz):
        seen.append(int(get()))
        return real(coeffs, bz)

    real = decomp._series_in
    monkeypatch.setattr(decomp, "_series_in", spy)
    f = synthesize(dict(enumerate(_random_taylor(51))), 1024)
    res = decompose_blaschke(f, BlaschkeSpec((0.9,)))
    assert res.basis_coefficients.shape[0] == 1
    assert seen == [1] and int(get()) == 2


def test_baby_step_table_stays_within_its_bound(monkeypatch):
    tables = []

    def spy(bz, L):
        tables.append(real(bz, L))
        return tables[-1]

    real = decomp._baby_steps
    monkeypatch.setattr(decomp, "_baby_steps", spy)
    spec = BlaschkeSpec((0.99, -0.99j))
    for N in (1024, 4096):
        f = synthesize(dict(enumerate(_random_taylor(49))), N)
        assert decompose_blaschke(f, spec).basis_coefficients.shape[1] == 5084
    # n L N below 2^16 for n = 2 sheets: a table under 1 MiB
    assert [t.shape for t in tables] == [(31, 1024), (7, 4096)]
    assert all(2 * t.size < decomp._ONE_THREAD_PRODUCT for t in tables)
