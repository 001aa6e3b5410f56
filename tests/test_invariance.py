"""Invariant subspaces: spans, defects, complements, two-layer spaces."""

import numpy as np
import pytest

from hardy import (
    BlaschkeSpec,
    ConstrainedSpec,
    ConstructionError,
    ParameterError,
    SubspaceBasis,
    TruncationError,
    algebra_action_profile,
    as_circle_function,
    basis_element,
    BasisIndex,
    build_constrained,
    grid,
    inner_product,
    invariance_defect,
    monomial,
    n_inner_outer_factorize,
    norm2,
    resample,
    span_invariant,
    subspace_distance,
    synthesize,
    subspace_from_json,
    subspace_to_json,
    verify_constrained,
    wandering_basis,
)
from hardy.circlefn import CircleFunction


def _monomial_space(indices, D, N=1024):
    return SubspaceBasis(ambient_bandwidth=D,
                         basis=tuple(monomial(j, N) for j in indices),
                         generators={})


def test_subspace_validation():
    with pytest.raises(ConstructionError):
        SubspaceBasis(ambient_bandwidth=16,
                      basis=(monomial(0, 256), monomial(0, 256)),
                      generators={})
    with pytest.raises(TruncationError):
        _monomial_space([20], D=16, N=256)


def test_span_of_shifts_is_monomial_ladder():
    space = span_invariant([monomial(0, 1024)], monomial(1, 1024),
                           k_max=5, D=64)
    assert space.dim == 6
    # basis vectors are some orthonormal mix; compare spans instead
    ladder = _monomial_space(range(6), D=64)
    assert subspace_distance(space, ladder) <= 1e-10


def test_span_guards_band_overflow():
    with pytest.raises(TruncationError):
        span_invariant([monomial(0, 1024)], monomial(1, 1024),
                       k_max=200, D=100)


def test_defect_zero_for_shift_ladder():
    space = span_invariant([monomial(1, 1024)], monomial(1, 1024),
                           k_max=64, D=128)
    assert invariance_defect(space, monomial(1, 1024)) <= 1e-10


def test_defect_one_for_constants():
    space = _monomial_space([0], D=64)
    assert invariance_defect(space, monomial(1, 1024)) == pytest.approx(
        1.0, abs=1e-10)


def test_defect_zero_for_full_odd_ladder_under_z2():
    space = _monomial_space(range(1, 64, 2), D=64)
    assert invariance_defect(space, monomial(2, 1024)) <= 1e-10


def test_wandering_vector_of_shifted_ladder():
    space = span_invariant([monomial(1, 1024)], monomial(1, 1024),
                           k_max=100, D=200)
    vs = wandering_basis(space, monomial(1, 1024))
    assert len(vs) == 1
    assert abs(abs(vs[0].coeff(1)) - 1.0) < 1e-8


def test_wandering_rank_two_under_z2():
    space = _monomial_space(range(0, 65), D=64)
    vs = wandering_basis(space, monomial(2, 1024))
    assert len(vs) == 2
    span = sorted(v.top_index() for v in vs)
    assert span == [0, 1]


def test_wandering_requires_invariance():
    space = _monomial_space([0], D=64)
    with pytest.raises(ParameterError):
        wandering_basis(space, monomial(1, 1024))


def test_band_filling_ladder_is_not_invariant():
    # z^2 * z^61 = z^63 lies in the band 0..64 but not in the space.
    space = _monomial_space(range(63), D=64)
    assert invariance_defect(space, monomial(2, 1024)) == pytest.approx(
        1.0, abs=1e-10)
    with pytest.raises(ParameterError):
        wandering_basis(space, monomial(2, 1024))


def test_wandering_of_band_leaving_multiplier_is_whole_space():
    # Every image leaves the band 0..64, so nothing is shifted into the
    # model and the complement is the space itself.
    space = _monomial_space(range(65), D=64)
    assert invariance_defect(space, monomial(65, 1024)) <= 1e-10
    assert len(wandering_basis(space, monomial(65, 1024))) == 65


def test_wandering_vector_of_polynomial_span_stays_in_span():
    # The complement is taken against the image of the modeled grades
    # only; z^2 times the top grade is not in the truncated space.
    N, D = 1024, 200
    z2 = monomial(2, N)
    rng = np.random.default_rng(1)
    for _ in range(3):
        c = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        g = synthesize(dict(enumerate(c)), N)
        space = span_invariant([g], z2, k_max=64, D=D)
        vs = wandering_basis(space, z2)
        assert len(vs) == 1
        w = vs[0].coeffs[N // 2:N // 2 + D + 1]
        Q = np.stack([v.coeffs[N // 2:N // 2 + D + 1] for v in space.basis],
                     axis=1)
        assert np.linalg.norm(w - Q @ (Q.conj().T @ w)) <= 1e-12
        shifted = g.samples
        for _ in range(64):
            shifted = shifted * z2.samples
            ip = np.vdot(shifted, vs[0].samples) / N
            assert abs(ip) <= 1e-12 * norm2(g)


def test_wandering_vector_is_the_two_inner_factor():
    # g = J (2 + z^2) with J = z (z^2 - 1/2) / (1 - z^2 / 2) 2-inner and
    # 2 + z^2 2-outer: the wandering vector of g's z^2-span is J, and so
    # is the 2-inner factor of the direct factorization.
    N = 1024
    z = grid(N)
    J = CircleFunction.from_samples(z * (z ** 2 - 0.5) / (1 - 0.5 * z ** 2))
    g = CircleFunction.from_samples(J.samples * (2 + z ** 2))
    z2 = monomial(2, N)
    vs = wandering_basis(span_invariant([g], z2, k_max=100, D=300), z2)
    assert len(vs) == 1
    inner = resample(n_inner_outer_factorize(g, 2).inners[0], N)
    assert abs(inner_product(vs[0], inner)) >= 1 - 1e-10
    assert abs(inner_product(vs[0], J)) >= 1 - 1e-10


def test_beurling_recovery_moebius():
    J = as_circle_function(BlaschkeSpec((0.5,)), 1024)
    space = span_invariant([J], monomial(1, 1024), k_max=200, D=300)
    assert invariance_defect(space, monomial(1, 1024)) <= 1e-8
    vs = wandering_basis(space, monomial(1, 1024))
    assert len(vs) == 1
    ip = inner_product(vs[0], J)
    assert norm2(vs[0] - complex(ip) * J) <= 1e-6
    assert abs(abs(ip) - 1.0) <= 1e-6


def test_constrained_spec_validation():
    J = monomial(0, 1024)
    with pytest.raises(ParameterError):
        ConstrainedSpec(inners=(J,), beta=np.array([[1.0]]), multiplier=1)
    with pytest.raises(ParameterError):  # k beyond 2r - 1
        ConstrainedSpec(inners=(J,),
                        beta=np.eye(2, dtype=complex), multiplier=1)
    with pytest.raises(ParameterError):  # columns must be unit
        ConstrainedSpec(inners=(J,),
                        beta=np.array([[0.5], [0.5]], dtype=complex),
                        multiplier=1)


def test_constrained_power_case_oracle():
    spec = ConstrainedSpec(inners=(monomial(0, 1024),),
                           beta=np.array([[1.0], [0.0]], dtype=complex),
                           multiplier=1)
    space = build_constrained(spec, D=400, k_max=60)
    rep = verify_constrained(space, spec)
    assert rep.passed
    assert rep.b2_defect <= 1e-8
    assert rep.b3_defect <= 1e-8
    assert rep.b_defect == pytest.approx(1.0, abs=1e-8)
    assert rep.noninvariant_b
    assert not rep.degenerate


def test_constrained_mixed_column_escape():
    # beta = (0.6, 0.8): the escape of B phi out of the space is
    # |beta_0|^2 = 0.36.
    spec = ConstrainedSpec(inners=(monomial(0, 1024),),
                           beta=np.array([[0.6], [0.8]], dtype=complex),
                           multiplier=1)
    space = build_constrained(spec, D=400, k_max=60)
    rep = verify_constrained(space, spec)
    assert rep.passed
    assert rep.b_defect == pytest.approx(0.36, abs=1e-6)


def test_constrained_degenerate_flagged():
    spec = ConstrainedSpec(inners=(monomial(0, 1024),),
                           beta=np.array([[0.0], [1.0]], dtype=complex),
                           multiplier=1)
    space = build_constrained(spec, D=400, k_max=60)
    rep = verify_constrained(space, spec)
    assert rep.degenerate
    assert not rep.noninvariant_b
    assert rep.b_defect <= 1e-8


def test_constrained_curved_multiplier():
    bspec = BlaschkeSpec((0.0, 0.3))
    J = basis_element(bspec, BasisIndex(1, 0), 1024)
    spec = ConstrainedSpec(inners=(J,),
                           beta=np.array([[1.0], [0.0]], dtype=complex),
                           multiplier=bspec)
    space = build_constrained(spec, D=420, k_max=80)
    rep = verify_constrained(space, spec)
    assert rep.b2_defect <= 1e-6
    assert rep.b3_defect <= 1e-6
    assert rep.b_defect >= 0.05


def test_constrained_rejects_correlated_slots():
    J = monomial(0, 1024)
    spec = ConstrainedSpec(inners=(J, J),
                           beta=np.array([[1.0, 0.0],
                                          [0.0, 1.0],
                                          [0.0, 0.0],
                                          [0.0, 0.0]], dtype=complex),
                           multiplier=1)
    with pytest.raises(ConstructionError):
        build_constrained(spec, D=400, k_max=40)


def test_subspace_distance_cases():
    a = _monomial_space([0, 1], D=32)
    b = _monomial_space([0, 1], D=32)
    assert subspace_distance(a, b) <= 1e-12
    c = _monomial_space([2, 3], D=32)
    assert subspace_distance(a, c) == pytest.approx(1.0, abs=1e-12)
    d = _monomial_space([0], D=32)
    assert subspace_distance(a, d) == 1.0


def test_unitary_basis_freedom():
    rng = np.random.default_rng(8)
    space = span_invariant([monomial(1, 1024)], monomial(1, 1024),
                           k_max=20, D=64)
    D = space.ambient_bandwidth
    half = 512
    Q = np.stack([v.coeffs[half:half + D + 1] for v in space.basis], axis=1)
    M = rng.standard_normal((space.dim, space.dim)) \
        + 1j * rng.standard_normal((space.dim, space.dim))
    U, _ = np.linalg.qr(M)
    Q2 = Q @ U
    rotated = SubspaceBasis(
        ambient_bandwidth=D,
        basis=tuple(_func_from_taylor(Q2[:, i], 1024) for i in range(Q2.shape[1])),
        generators={})
    P1 = Q @ Q.conj().T
    Qb = np.stack([v.coeffs[half:half + D + 1] for v in rotated.basis], axis=1)
    P2 = Qb @ Qb.conj().T
    assert np.max(np.abs(P1 - P2)) <= 1e-8
    assert subspace_distance(space, rotated) <= 1e-8


def _func_from_taylor(col, N):
    c = np.zeros(N, dtype=complex)
    c[N // 2:N // 2 + col.size] = col
    return CircleFunction.from_coeffs(c)


def test_round_trip_preserves_space_and_defect():
    J = as_circle_function(BlaschkeSpec((0.4,)), 1024)
    space = span_invariant([J], monomial(1, 1024), k_max=150, D=250)
    clone = subspace_from_json(subspace_to_json(space))
    assert subspace_distance(space, clone) <= 1e-6
    d0 = invariance_defect(space, monomial(1, 1024))
    d1 = invariance_defect(clone, monomial(1, 1024))
    assert d0 <= 1e-8
    assert d1 <= 1e-8


def test_algebra_action_profile_converges():
    from hardy import synthesize
    mult = monomial(2, 512)
    h = monomial(1, 512)
    k = synthesize({j: 0.5 ** j for j in range(8)}, 512)
    prof = algebra_action_profile(mult, h, k, l_max=40)
    assert prof.shape == (41,)
    assert prof[-1] <= prof[0] + 1e-12
    assert prof[-1] < 0.2


def test_svd_failure_falls_back_to_qr(monkeypatch):
    J = as_circle_function(BlaschkeSpec((0.3, 0.2j)), 1024)
    z = monomial(1, 1024)
    space = span_invariant([J], z, k_max=40, D=80)
    want = wandering_basis(space, z)
    want_defect = invariance_defect(space, z)

    # Every SVD of a non-square matrix fails, as LAPACK occasionally does;
    # the square R factors of the retries go through.
    real_svd = np.linalg.svd
    failed = []

    def flaky_svd(a, *args, **kwargs):
        if a.shape[0] != a.shape[1]:
            failed.append(a.shape)
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", flaky_svd)
    got = wandering_basis(space, z)
    assert failed
    assert len(got) == len(want) == 1
    assert abs(inner_product(got[0], want[0])) == pytest.approx(1.0, abs=1e-12)
    assert invariance_defect(space, z) == pytest.approx(want_defect, abs=1e-14)


def test_wandering_basis_on_seed_204_span():
    # The fourth trial of thm-3.6 at seed 204: its span once made the
    # basis SVD in wandering_basis fail to converge.
    rng = np.random.default_rng(204)
    for _ in range(4):
        zeros = tuple(
            rng.uniform(0.0, 0.7) * np.exp(2j * np.pi * rng.random())
            for _ in range(int(rng.integers(1, 4))))
    J = as_circle_function(BlaschkeSpec(zeros), 1024)
    z = monomial(1, 1024)
    space = span_invariant([J], z, k_max=220, D=320)
    vectors = wandering_basis(space, z)
    assert len(vectors) == 1
    assert abs(inner_product(vectors[0], J)) == pytest.approx(1.0, abs=1e-6)
