"""Invariant subspaces: spans, defects, complements, two-layer spaces."""

import json

import numpy as np
import pytest

from hardy import (
    BlaschkeSpec,
    ConstrainedSpec,
    ConstructionError,
    DomainError,
    ParameterError,
    SizeError,
    SubspaceBasis,
    TruncationError,
    as_circle_function,
    basis_element,
    BasisIndex,
    build_constrained,
    dump_json,
    grid,
    invariance_defect,
    monomial,
    n_inner_outer_factorize,
    norm2,
    resample,
    span_invariant,
    synthesize,
    subspace_from_json,
    subspace_to_json,
    verify_constrained,
    wandering_basis,
)
from hardy import invariance
from hardy.circlefn import CircleFunction, samples_of_taylor, taylor_block
from hardy.verify import _orthonormal_beta, _power_inner_family


def _subspace_distance(a, b):
    """Sine of the largest principal angle between two spaces of one
    dimension: the largest singular value of b's basis minus its
    projection onto a's span."""
    assert a.dim == b.dim
    D = max(a.ambient_bandwidth, b.ambient_bandwidth)
    Qa, Qb = (np.pad(s.taylor, ((0, D - s.ambient_bandwidth), (0, 0)))
              for s in (a, b))
    return float(np.linalg.svd(Qb - Qa @ (Qa.conj().T @ Qb),
                               compute_uv=False)[0])


def _monomial_space(indices, D, N=1024):
    return SubspaceBasis(np.eye(D + 1)[:, list(indices)], N)


def test_subspace_validation():
    with pytest.raises(ConstructionError):
        _monomial_space([0, 0], D=16, N=256)
    with pytest.raises(ConstructionError):
        SubspaceBasis(np.zeros((17, 0)), 256)
    with pytest.raises(SizeError):
        _monomial_space([0], D=128, N=256)
    space = _monomial_space([0, 3], D=16, N=256)
    assert (space.ambient_bandwidth, space.dim, space.n_samples) == (16, 2, 256)
    assert space.recipe is None and space.generators == {}
    with pytest.raises(TypeError):  # only _recipe_space gives a recipe
        SubspaceBasis(space.taylor, 256, {}, None)
    assert [v.top_index() for v in space.basis] == [0, 3]
    with pytest.raises(ValueError):
        space.taylor[0, 0] = 2.0


def test_nan_taylor_matrix_is_not_orthonormal():
    Q = np.eye(17)[:, :2].astype(complex)
    Q[5, 1] = np.nan
    with pytest.raises(ConstructionError):
        SubspaceBasis(Q, 256)


def test_span_of_shifts_is_monomial_ladder():
    space = span_invariant([monomial(0, 1024)], monomial(1, 1024),
                           k_max=5, D=64)
    assert space.dim == 6
    # basis vectors are some orthonormal mix; compare spans instead
    ladder = _monomial_space(range(6), D=64)
    assert _subspace_distance(space, ladder) <= 1e-10


def test_span_guards_band_overflow():
    with pytest.raises(TruncationError):
        span_invariant([monomial(0, 1024)], monomial(1, 1024),
                       k_max=200, D=100)


def test_span_refuses_a_multiplier_on_another_grid():
    with pytest.raises(SizeError, match="multiplier must live on the "
                                        "generators' grid"):
        span_invariant([monomial(1, 1024)], monomial(1, 512), k_max=4, D=40)


def _random_functions(rng, count, N=256):
    return tuple(CircleFunction.from_samples(rng.standard_normal(N)
                                             + 1j * rng.standard_normal(N))
                 for _ in range(count))


@pytest.mark.parametrize("n_head", [0, 2])
@pytest.mark.parametrize("n_starts", [1, 2, 3])
def test_recipe_rows_run_grade_major(n_head, n_starts):
    # Head rows, then grade 0 of every start, grade 1 of every start, ...
    # so the rows tested under step^p are a bitwise prefix of the build.
    rng = np.random.default_rng(10 * n_head + n_starts)
    step = CircleFunction.from_samples(
        np.exp(1j * rng.uniform(0, 2 * np.pi, 256)))
    recipe = invariance.GradedRecipe(_random_functions(rng, n_head),
                                     _random_functions(rng, n_starts), step, 5)
    rows = recipe.rows()
    assert rows.shape[0] == recipe.count() == n_head + 6 * n_starts
    assert np.array_equal(rows[:n_head], np.array(
        [h.samples for h in recipe.head]).reshape(-1, 256))
    for a, s in enumerate(recipe.starts):
        power = s.samples
        for k in range(6):
            assert np.array_equal(rows[n_head + k * n_starts + a], power)
            power = power * recipe.step.samples
    for p in (1, 2, 3):
        prefix = recipe.rows(p)
        assert prefix.shape[0] == recipe.count(p) == n_head + (6 - p) * n_starts
        assert np.array_equal(prefix, rows[:prefix.shape[0]])


def _start_major_rows(starts, step, count):
    """The former row order: every grade of one start before the next."""
    rows = []
    for s in starts:
        for k in range(count):
            rows.append(s if k == 0 else rows[-1] * step)
    return np.array(rows, dtype=complex)


def test_one_generator_span_keeps_its_start_major_bytes():
    J = as_circle_function(BlaschkeSpec((0.3, -0.2j)), 1024)
    z = monomial(1, 1024)
    space = span_invariant([J], z, k_max=40, D=120)
    r = space.recipe
    old, factor = invariance._orthonormal_columns(taylor_block(
        _start_major_rows([r.starts[0].samples], r.step.samples, 41), 120))
    assert factor is not None and np.array_equal(space.taylor, old)
    # With two generators the rows are the same numbers in a new order.
    K = as_circle_function(BlaschkeSpec((0.5j,)), 1024)
    r = span_invariant([J, K], z, k_max=40, D=120).recipe
    order = np.arange(82).reshape(2, 41).T.ravel()
    assert np.array_equal(r.rows(), _start_major_rows(
        [s.samples for s in r.starts], r.step.samples, 41)[order])


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
    # {1, z} is a degenerate eigenspace, so only its span is defined.
    space = _monomial_space(range(0, 65), D=64)
    vs = wandering_basis(space, monomial(2, 1024))
    assert len(vs) == 2
    V = np.stack([v.coeffs[512:512 + 65] for v in vs], axis=1)
    E = np.eye(65)[:, :2]
    assert np.max(np.abs(V @ V.conj().T - E @ E.T)) <= 1e-12


def test_wandering_requires_invariance():
    space = _monomial_space([0], D=64)
    with pytest.raises(DomainError):
        wandering_basis(space, monomial(1, 1024))


def test_wandering_gate_reports_the_exact_defect_and_skips_it_below(
        monkeypatch):
    # above the cutoff the message names the largest singular value, not
    # the Frobenius bound (sqrt(2) here: two unit vectors leave the space)
    space = _monomial_space([0, 1], D=64)
    assert invariance_defect(space, monomial(2, 1024)) == pytest.approx(1.0)
    with pytest.raises(DomainError, match=r"defect 1\.000e\+00"):
        wandering_basis(space, monomial(2, 1024))
    # an invariant space passes the gate on the bound alone
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: calls.append(a.shape) or real(a))
    space = _monomial_space(range(65), D=64)
    assert len(wandering_basis(space, monomial(1, 1024))) == 1
    assert calls == []
    Q, W = invariance._image(space, monomial(1, 1024))
    assert invariance._defect(Q, W, gate=1e-6) <= 1e-6
    assert calls == []


def test_band_filling_ladder_is_not_invariant():
    # z^2 * z^61 = z^63 lies in the band 0..64 but not in the space.
    space = _monomial_space(range(63), D=64)
    assert invariance_defect(space, monomial(2, 1024)) == pytest.approx(
        1.0, abs=1e-10)
    with pytest.raises(DomainError):
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
        Q = space.taylor
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
    assert abs(np.vdot(inner.samples, vs[0].samples) / N) >= 1 - 1e-10
    assert abs(np.vdot(J.samples, vs[0].samples) / N) >= 1 - 1e-10


def test_beurling_recovery_moebius():
    J = as_circle_function(BlaschkeSpec((0.5,)), 1024)
    space = span_invariant([J], monomial(1, 1024), k_max=200, D=300)
    assert invariance_defect(space, monomial(1, 1024)) <= 1e-8
    vs = wandering_basis(space, monomial(1, 1024))
    assert len(vs) == 1
    ip = np.vdot(J.samples, vs[0].samples) / 1024
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


def _one_inner_spec(inner):
    return ConstrainedSpec(inners=(inner,),
                           beta=np.array([[0.6], [0.8]], dtype=complex),
                           multiplier=1)


def _nan_inner():
    # from_samples refuses a NaN; the gates behind it are reached through
    # the unchecked constructor the library keeps for its own results.
    samples = monomial(0, 1024).samples.copy()
    samples[7] = np.nan
    with pytest.raises(ParameterError, match="not finite"):
        CircleFunction.from_samples(samples)
    samples.setflags(write=False)
    return CircleFunction._of(1024, samples)


def test_constrained_refuses_a_nan_inner():
    # NaN > 1e-8 is False: a NaN inner once passed both Gram gates and
    # ended in a bare LinAlgError from the SVD
    with pytest.raises(ConstructionError, match=r"phi_i .*deviation nan"):
        build_constrained(_one_inner_spec(_nan_inner()), D=400, k_max=40)


def test_constrained_slot_family_gate_refuses_nan(monkeypatch):
    # the second gate on its own: the phi_i pass, and one of the three
    # parts of the slot family's defect reads NaN, the others finite (a
    # max over them must not drop it, as max(0.0, nan) does).  The inner
    # is finite, since the recipe's functions are made by from_samples,
    # which would refuse a NaN before the gate.
    real_rows = invariance.GradedRecipe.rows

    def poisoned_rows(recipe, p=0):
        rows = real_rows(recipe, p)
        rows[-1, 3] = np.nan  # the top grade: only head x grade sees it
        return rows

    defects = iter([0.0, np.nan])
    for part, patch in (
            ("head", ("gram_defect", lambda rows: next(defects))),
            ("head x grade", ("GradedRecipe.rows", poisoned_rows)),
            ("grades", ("_joint_gram_defect", lambda *args: np.nan))):
        name, value = patch
        if name == "GradedRecipe.rows":
            monkeypatch.setattr(invariance.GradedRecipe, "rows", value)
        else:
            monkeypatch.setattr(invariance, name, value)
        with pytest.raises(ConstructionError, match=r"slot family .* nan"):
            build_constrained(_one_inner_spec(monomial(0, 1024)), D=400,
                              k_max=40)
        monkeypatch.undo()


def test_constrained_refuses_a_non_inner_slot_family():
    # J = (1 + z)/sqrt(2) is a unit vector, so the one phi = J passes, but
    # <J z^(m+2), J z^(m+3)> = 1/2 between neighbouring grades
    J = synthesize({0: 2 ** -0.5, 1: 2 ** -0.5}, 1024)
    spec = ConstrainedSpec(inners=(J,), beta=np.array([[1.0], [0.0]]),
                           multiplier=1)
    with pytest.raises(ConstructionError,
                       match=r"slot family .*deviation 5\.000e-01"):
        build_constrained(spec, D=400, k_max=40)


def _slot_recipes(monkeypatch):
    """The recipes the two-layer suites build at seed 1, with a recipe
    whose rows are far from orthonormal: random head and starts and a
    Blaschke step, the head small, so the grades' part is the largest."""
    recipes = [space.recipe for suite in ("thm-3.5", "thm-4.5")
               for space, _ in _spy_constrained_spaces(monkeypatch, suite, 1)]
    rng = np.random.default_rng(12)
    N = 1024

    def poly():
        return synthesize(dict(enumerate(rng.standard_normal(20)
                                         + 1j * rng.standard_normal(20))), N)

    bz = invariance.blaschke_eval(BlaschkeSpec((0.0, 0.3 - 0.2j)), grid(N))
    recipes.append(invariance.GradedRecipe(
        (0.1 * poly(), 0.1 * poly()), (poly(), poly()),
        CircleFunction.from_samples(bz), 40))
    return recipes


def test_slot_family_defect_matches_the_full_gram(monkeypatch):
    recipes = _slot_recipes(monkeypatch)
    assert len(recipes) == 30  # 21 thm-3.5, 8 thm-4.5, 1 random
    for recipe in recipes:
        rows = recipe.rows()
        full = invariance.gram_defect(rows)
        assert abs(invariance._slot_family_defect(recipe, rows)
                   - full) <= 1e-13 * max(1.0, full)


@pytest.mark.parametrize("D", [-1, 512, 9999])
def test_constrained_refuses_a_band_off_the_grid(D):
    # D once reached the build unchecked: 9999 was clipped to the grid
    # and -1 left an empty band
    spec = ConstrainedSpec(inners=(monomial(0, 1024),),
                           beta=np.array([[0.6], [0.8]], dtype=complex),
                           multiplier=1)
    with pytest.raises(SizeError, match=f"D = {D} does not fit"):
        build_constrained(spec, D=D, k_max=60)


def test_unitary_basis_freedom():
    rng = np.random.default_rng(8)
    space = span_invariant([monomial(1, 1024)], monomial(1, 1024),
                           k_max=20, D=64)
    Q = space.taylor
    M = rng.standard_normal((space.dim, space.dim)) \
        + 1j * rng.standard_normal((space.dim, space.dim))
    U, _ = np.linalg.qr(M)
    rotated = SubspaceBasis(Q @ U, 1024)
    P1 = Q @ Q.conj().T
    Qb = np.stack([v.coeffs[512:512 + 65] for v in rotated.basis], axis=1)
    P2 = Qb @ Qb.conj().T
    assert np.max(np.abs(P1 - P2)) <= 1e-8
    assert _subspace_distance(space, rotated) <= 1e-8


def test_round_trip_preserves_space_and_defect():
    J = as_circle_function(BlaschkeSpec((0.4,)), 1024)
    space = span_invariant([J], monomial(1, 1024), k_max=150, D=250)
    clone = subspace_from_json(subspace_to_json(space))
    assert _subspace_distance(space, clone) <= 1e-6
    d0 = invariance_defect(space, monomial(1, 1024))
    d1 = invariance_defect(clone, monomial(1, 1024))
    assert d0 <= 1e-8
    assert d1 <= 1e-8


def test_svd_failure_falls_back_to_qr(monkeypatch):
    # Shifts of a polynomial are not orthonormal, so the span and its
    # tested basis go through the SVD path of _orthonormal_columns.
    g = synthesize({0: 1.0, 1: -0.5j, 3: 0.25}, 512)
    z = monomial(1, 512)
    want = span_invariant([g], z, k_max=12, D=40)
    want_defect = invariance_defect(want, z)

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
    got = span_invariant([g], z, k_max=12, D=40)
    got_defect = invariance_defect(got, z)
    monkeypatch.undo()
    assert failed
    assert got.dim == want.dim == 13
    assert _subspace_distance(got, want) <= 1e-12
    assert got_defect == pytest.approx(want_defect, abs=1e-14)


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
    assert abs(np.vdot(J.samples, vectors[0].samples) / 1024) == pytest.approx(
        1.0, abs=1e-6)


def _two_svd_wandering(space, multiplier):
    """The former construction, kept as an oracle: an SVD of the image W
    gives the shifted span (singular values above RANK_CUTOFF), and an
    SVD of Q minus its projection onto that span gives the complement
    (singular values at least RANK_CUTOFF times the largest)."""
    Q, W = invariance._image(space, multiplier)
    U, S, _ = invariance._svd(W)
    QB = U[:, S > invariance.RANK_CUTOFF]
    U, S, _ = invariance._svd(Q - QB @ (QB.conj().T @ Q))
    return U[:, :int(np.sum(S >= invariance.RANK_CUTOFF * S[0]))]


def _spy_thm_3_6_wandering(monkeypatch, seed):
    """Run thm-3.6 and return, for each wandering_basis call, the space,
    the multiplier and the Taylor matrix of the result, together with the
    shapes of the SVDs taken inside those calls."""
    from hardy import verify
    calls, svds, inside = [], [], []
    real_svd, real_wandering = np.linalg.svd, verify.wandering_basis

    def svd(a, *args, **kwargs):
        if inside:
            svds.append(a.shape)
        return real_svd(a, *args, **kwargs)

    def wandering(space, multiplier):
        inside.append(True)
        try:
            vectors = real_wandering(space, multiplier)
        finally:
            inside.pop()
        N, D = space.n_samples, space.ambient_bandwidth
        calls.append((space, multiplier, np.stack(
            [v.coeffs[N // 2:N // 2 + D + 1] for v in vectors], axis=1)))
        return vectors

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(verify, "wandering_basis", wandering)
    assert verify.run_verification("thm-3.6", verify.RunConfig(seed=seed)).passed
    monkeypatch.undo()
    return calls, svds


def test_wandering_basis_matches_two_svd_oracle_on_thm_3_6(monkeypatch):
    calls, svds = _spy_thm_3_6_wandering(monkeypatch, seed=1)
    assert len(calls) == 25
    assert svds == []
    for space, multiplier, V in calls:
        U = _two_svd_wandering(space, multiplier)
        assert V.shape == U.shape
        assert np.max(np.abs(V @ V.conj().T - U @ U.conj().T)) <= 1e-12


def _reorthonormalized_test_basis(space, multiplier):
    """The former test basis, kept as an oracle: the build rows whose
    image under step^p stays in the built grades, orthonormalized again
    (every basis vector when no power matches or no row qualifies)."""
    r = space.recipe
    acc = r.step.samples
    for p in (1, 2, 3):
        if np.max(np.abs(multiplier.samples - acc)) <= 1e-8:
            rows = r.rows(p)
            if rows.shape[0]:
                return invariance._orthonormal_columns(
                    taylor_block(rows, space.ambient_bandwidth))[0]
            break
        acc = acc * r.step.samples
    return space.taylor


def _spy_constrained_spaces(monkeypatch, suite, seed):
    """The spaces and specs a two-layer suite builds at a seed."""
    from hardy import verify
    built = []
    real_build = verify.build_constrained

    def build(spec, *args, **kwargs):
        built.append((real_build(spec, *args, **kwargs), spec))
        return built[-1][0]

    monkeypatch.setattr(verify, "build_constrained", build)
    assert verify.run_verification(suite, verify.RunConfig(seed=seed)).passed
    monkeypatch.undo()
    return built


def _prefix_against_reorthonormalized(space, spec):
    """Largest principal-angle sine between the prefix test basis and the
    oracle's, and largest defect gap, over B, B^2 and B^3."""
    N, D = space.n_samples, space.ambient_bandwidth
    bz = invariance.blaschke_eval(spec.blaschke(), grid(N))
    worst_sine = worst_gap = 0.0
    for p in (1, 2, 3):
        multiplier = CircleFunction.from_samples(bz ** p)
        old = _reorthonormalized_test_basis(space, multiplier)
        new = space.taylor[:, :space.recipe.count(p)]
        assert new.shape == old.shape
        # the shared samples are bitwise a synthesis of the prefix alone
        assert np.array_equal(space._samples[:new.shape[1]],
                              samples_of_taylor(new, N))
        sine = np.linalg.svd(new - old @ (old.conj().T @ new),
                             compute_uv=False)[0]
        W = taylor_block(samples_of_taylor(old, N) * multiplier.samples, D)
        gap = abs(invariance_defect(space, multiplier)
                  - invariance._defect(space.taylor, W))
        worst_sine, worst_gap = max(worst_sine, sine), max(worst_gap, gap)
    return worst_sine, worst_gap


@pytest.mark.parametrize("suite", ["thm-3.5", "thm-4.5"])
def test_prefix_test_basis_matches_reorthonormalized_oracle(monkeypatch,
                                                            suite):
    built = _spy_constrained_spaces(monkeypatch, suite, seed=1)
    assert built
    for space, spec in built:
        assert space._factor is not None
        sine, gap = _prefix_against_reorthonormalized(space, spec)
        assert sine <= 1e-12
        assert gap <= 1e-13


def _routes(monkeypatch, space, multiplier):
    """invariance_defect's value, whether it took the FFT route, and the
    FFT route's value."""
    calls, real_image = [], invariance._image

    def image(*args):
        calls.append(True)
        return real_image(*args)

    monkeypatch.setattr(invariance, "_image", image)
    got = invariance_defect(space, multiplier)
    monkeypatch.undo()
    return got, bool(calls), invariance._defect(*real_image(space,
                                                            multiplier))


def _powers(space, spec):
    bz = invariance.blaschke_eval(spec.blaschke(), grid(space.n_samples))
    return [CircleFunction.from_samples(bz ** p) for p in (1, 2, 3)]


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("suite", ["thm-3.5", "thm-4.5"])
def test_grade_shift_route_matches_fft_route_on_two_layer_spaces(
        monkeypatch, suite, seed):
    built = _spy_constrained_spaces(monkeypatch, suite, seed)
    assert built
    for space, spec in built:
        for multiplier in _powers(space, spec):
            got, fft, want = _routes(monkeypatch, space, multiplier)
            assert not fft
            assert abs(got - want) <= 1e-13


def _span_spaces():
    """Cholesky-built spans under z, z^2 and a curved B of degree 2."""
    N = 1024
    rng = np.random.default_rng(8)
    bspec = BlaschkeSpec((0.3j, -0.5))
    z = monomial(1, N)
    return [
        (span_invariant([as_circle_function(BlaschkeSpec((0.4, 0.2j)), N)],
                        z, k_max=150, D=250), z),
        (span_invariant(list(_power_inner_family(rng, 2, 2, N)),
                        monomial(2, N), k_max=100, D=300), monomial(2, N)),
        (span_invariant([basis_element(bspec, BasisIndex(j, 0), N)
                         for j in range(2)], as_circle_function(bspec, N),
                        k_max=60, D=400), as_circle_function(bspec, N)),
    ]


def test_grade_shift_route_reads_zero_on_spans(monkeypatch):
    # A span has no head rows, so its own step's powers map every
    # tested grade into a built one.
    for space, step in _span_spaces():
        assert space._factor is not None
        power = step.samples
        for p in (1, 2, 3):
            got, fft, want = _routes(monkeypatch, space,
                                     CircleFunction.from_samples(power))
            assert got == 0.0 and not fft
            assert want <= 1e-13
            power = power * step.samples


def test_perturbed_head_fails_on_both_routes(monkeypatch):
    # Each head row gains eps g, g a unit polynomial in the band outside
    # the space: the rows stay orthonormal to rounding, so the space is
    # Cholesky-built, and B^2 and B^3 now lead out by at most sqrt(h) eps
    # for the h head rows (|B| = 1 and ||g|| = 1).
    eps = 1e-9
    space, spec = _two_layer_space()
    r, N, D = space.recipe, space.n_samples, space.ambient_bandwidth
    rng = np.random.default_rng(9)
    v = rng.standard_normal(D + 1) + 1j * rng.standard_normal(D + 1)
    v -= space.taylor @ (space.taylor.conj().T @ v)
    g = samples_of_taylor((v / np.linalg.norm(v))[:, None], N)[0]
    recipe = invariance.GradedRecipe(
        tuple(CircleFunction.from_samples(h.samples + eps * g)
              for h in r.head), r.starts, r.step, r.k_max)
    bent = invariance._recipe_space(recipe, recipe.rows(), D, {})
    assert bent._factor is not None
    for multiplier in _powers(space, spec)[1:]:
        assert invariance_defect(space, multiplier) <= 1e-13
        got, fft, want = _routes(monkeypatch, bent, multiplier)
        assert not fft
        assert 0.1 * eps <= got <= np.sqrt(len(r.head)) * eps + 1e-13
        assert abs(got - want) <= 1e-13


def test_guard_sends_unmatched_rounding_to_the_fft_route(monkeypatch):
    # A multiplier 1e-9 off step^p still matches within 1e-8, but the
    # grade-shift identity no longer holds to rounding.
    space, spec = _two_layer_space()
    for multiplier in _powers(space, spec):
        tilted = CircleFunction.from_samples(np.exp(1e-9j)
                                             * multiplier.samples)
        got, fft, want = _routes(monkeypatch, space, tilted)
        assert fft and got == want


def test_guard_sends_wrapped_rows_to_the_fft_route(monkeypatch):
    # A generator with mass 1e-11 at index -1 is analytic to TOL_ANALYTIC
    # and its shifts pass the Cholesky gate, but z moves that mass into
    # the band, which the identity does not see.
    N = 1024
    g = synthesize({0: 1.0, -1: 1e-11}, N)
    z = monomial(1, N)
    space = span_invariant([g], z, k_max=40, D=100)
    assert space._factor is not None and space._wrap[1] > 0.9e-11
    got, fft, want = _routes(monkeypatch, space, z)
    assert fft and got == want
    assert _routes(monkeypatch, span_invariant(
        [monomial(0, N)], z, k_max=40, D=100), z)[:2] == (0.0, False)


def _count_orthonormalizations(monkeypatch):
    calls = []
    real_columns = invariance._orthonormal_columns

    def columns(mat):
        calls.append(mat.shape)
        return real_columns(mat)

    monkeypatch.setattr(invariance, "_orthonormal_columns", columns)
    return calls


def test_only_a_cholesky_built_space_skips_reorthonormalization(monkeypatch):
    N = 512
    z = monomial(1, N)
    rng = np.random.default_rng(3)
    spec = ConstrainedSpec(inners=_power_inner_family(rng, 2, 2, N),
                           beta=_orthonormal_beta(rng, 2, 3), multiplier=2)
    graded = build_constrained(spec, D=200, k_max=30)
    poly = span_invariant([synthesize({0: 1.0, 1: -0.5j, 3: 0.25}, N)], z,
                          k_max=12, D=40)
    J = as_circle_function(BlaschkeSpec((0.4,)), N)
    loaded = subspace_from_json(subspace_to_json(
        span_invariant([J], z, k_max=60, D=120)))
    calls = _count_orthonormalizations(monkeypatch)
    d1, d2, d3 = (invariance_defect(graded, monomial(2 * p, N))
                  for p in (1, 2, 3))
    assert calls == []
    assert d1 >= 0.05 and d2 <= 1e-13 and d3 <= 1e-13
    # A file is rebuilt from its recipe, so a loaded Cholesky span tests
    # its own column prefix too.
    assert loaded._factor is not None
    for p in (1, 2, 3):
        assert invariance_defect(loaded, monomial(p, N)) <= 1e-12
    assert len(wandering_basis(loaded, z)) == 1
    assert calls == []
    # The SVD basis of the non-orthonormal shifts keeps no row prefix.
    assert poly._factor is None
    assert invariance_defect(poly, z) <= 1e-12
    assert len(calls) == 1


def _record_orthonormalizations(monkeypatch):
    """Capture the input of every _orthonormal_columns call, and count
    the SVDs taken by the invariance module."""
    seen, svds = [], []
    real_columns, real_svd = invariance._orthonormal_columns, invariance._svd

    def columns(mat, *args, **kwargs):
        seen.append(mat.copy())
        return real_columns(mat, *args, **kwargs)

    def svd(mat):
        svds.append(mat.shape)
        return real_svd(mat)

    monkeypatch.setattr(invariance, "_orthonormal_columns", columns)
    monkeypatch.setattr(invariance, "_svd", svd)
    return seen, svds


def _svd_basis(mat):
    U, S, _ = np.linalg.svd(mat, full_matrices=False)
    return U[:, S > 1e-10 * S[0]]


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_cholesky_basis_matches_svd_basis_on_constrained_spaces(
        monkeypatch, seed):
    # Spaces drawn as in thm-3.5 (powers of z) and thm-4.5 (a curved
    # B): every build matrix is orthonormal, is polished by Cholesky QR
    # instead of an SVD, and spans what an SVD basis spans.  Their
    # tests take a column prefix of that basis and orthonormalize
    # nothing again.
    seen, svds = _record_orthonormalizations(monkeypatch)
    rng = np.random.default_rng(seed)
    N = 1024
    n = int(rng.integers(1, 3))
    r = int(rng.integers(1, min(n, 2) + 1))
    specs = [(ConstrainedSpec(
        inners=_power_inner_family(rng, n, r, N),
        beta=_orthonormal_beta(rng, r, int(rng.integers(1, 2 * r))),
        multiplier=n), 400, 60)]
    bspec = BlaschkeSpec((0.0, rng.uniform(0.1, 0.4)
                          * np.exp(2j * np.pi * rng.random())))
    specs.append((ConstrainedSpec(
        inners=tuple(basis_element(bspec, BasisIndex(j, 0), N)
                     for j in range(2)),
        beta=_orthonormal_beta(rng, 2, 3), multiplier=bspec), 420, 80))
    for spec, D, k_max in specs:
        assert verify_constrained(build_constrained(spec, D, k_max),
                                  spec).passed
    assert seen and svds == []
    monkeypatch.undo()
    for mat in seen:
        Q, factor = invariance._orthonormal_columns(mat)
        assert factor is not None
        U = _svd_basis(mat)
        assert Q.shape == U.shape
        assert np.max(np.abs(Q @ Q.conj().T - U @ U.conj().T)) <= 1e-12


def test_cholesky_qr_polishes_nearly_orthonormal_columns(monkeypatch):
    # Columns off orthonormal by about 1e-11, inside GRAM_TOL: the
    # basis keeps their span and is orthonormal to rounding.
    seen, svds = _record_orthonormalizations(monkeypatch)
    rng = np.random.default_rng(7)
    Q0, _ = np.linalg.qr(rng.standard_normal((300, 40))
                         + 1j * rng.standard_normal((300, 40)))
    E = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    mat = Q0 @ (np.eye(40) + 3e-12 * E)
    G = mat.conj().T @ mat
    assert 1e-12 < np.max(np.abs(G - np.eye(40))) <= invariance.GRAM_TOL
    Q, factor = invariance._orthonormal_columns(mat)
    assert factor is not None and svds == []
    assert np.max(np.abs(Q.conj().T @ Q - np.eye(40))) <= 1e-14
    assert np.max(np.abs(Q @ Q.conj().T - Q0 @ Q0.conj().T)) <= 1e-13


@pytest.mark.parametrize("scale", [1.0, 1e-15, 1e100])
def test_defect_matches_largest_singular_value(scale):
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((300, 40))
                        + 1j * rng.standard_normal((300, 40)))
    W = scale * (rng.standard_normal((300, 25))
                 + 1j * rng.standard_normal((300, 25)))
    want = np.linalg.svd(W - Q @ (Q.conj().T @ W), compute_uv=False)[0]
    assert abs(invariance._defect(Q, W) - want) <= 1e-12 * want


def test_defect_of_columns_inside_the_span_is_roundoff():
    # Forming the residual before its Gram keeps an invariant defect at
    # rounding; expanding W^H W - (Q^H W)^H (Q^H W) would not.
    rng = np.random.default_rng(6)
    Q, _ = np.linalg.qr(rng.standard_normal((300, 40))
                        + 1j * rng.standard_normal((300, 40)))
    W = Q @ (rng.standard_normal((40, 25)) + 1j * rng.standard_normal((40, 25)))
    assert invariance._defect(Q, W) <= 1e-13


@pytest.mark.parametrize("generators, multiplier, k_max, D, rank", [
    (["poly"], 1, 12, 40, 13),
    (["poly", "poly"], 1, 12, 40, 13),
    (["inner", "inner"], 1, 20, 100, 21),
    (["poly", "line"], 2, 8, 40, 18),
])
def test_span_of_non_orthonormal_columns_keeps_svd_rank(
        monkeypatch, generators, multiplier, k_max, D, rank):
    N = 512
    named = {
        "poly": synthesize({0: 1.0, 1: -0.5j, 3: 0.25}, N),
        "line": synthesize({1: 1.0, 2: 1.0}, N),
        "inner": as_circle_function(BlaschkeSpec((0.3, -0.2j)), N),
    }
    seen, svds = _record_orthonormalizations(monkeypatch)
    space = span_invariant([named[g] for g in generators],
                           monomial(multiplier, N), k_max, D)
    assert space.dim == rank
    assert len(seen) == 1 and len(svds) == 1


def _two_layer_space():
    rng = np.random.default_rng(2)
    spec = ConstrainedSpec(inners=_power_inner_family(rng, 2, 2, 1024),
                           beta=_orthonormal_beta(rng, 2, 3), multiplier=2)
    return build_constrained(spec, D=400, k_max=60), spec


def test_constrained_round_trip_keeps_matrix_recipe_and_verdicts():
    space, spec = _two_layer_space()
    clone = subspace_from_json(json.loads(dump_json(subspace_to_json(space))))
    assert np.array_equal(clone.taylor, space.taylor)
    assert clone.generators == space.generators
    a, b = space.recipe, clone.recipe
    assert (len(b.head), len(b.starts), b.k_max) == (3, 2, 60)
    # The recipe travels as its own coefficients, so it comes back bit
    # for bit, and so do the defects.
    assert np.array_equal(b.rows(), a.rows())
    for x, y in zip(a.head + a.starts + (a.step,), b.head + b.starts + (b.step,)):
        assert np.array_equal(x.coeffs, y.coeffs)
    built, loaded = verify_constrained(space, spec), verify_constrained(clone, spec)
    assert (loaded.b_defect, loaded.b2_defect, loaded.b3_defect) == (
        built.b_defect, built.b2_defect, built.b3_defect)
    assert loaded.b2_defect <= 1e-13 and loaded.b3_defect <= 1e-13
    assert loaded.passed and loaded.noninvariant_b


def _span_with_signed_zeros(N=256):
    """A span whose generator has coefficients with a -0.0 part, which
    a file cannot keep."""
    c = np.zeros(N, dtype=complex)
    c[N // 2:N // 2 + 3] = [complex(1.0, -0.0), complex(-0.0, 0.5), 0.25]
    return span_invariant([CircleFunction.from_coeffs(c)], monomial(1, N),
                          k_max=10, D=40)


@pytest.mark.parametrize("build", [
    lambda: span_invariant([as_circle_function(BlaschkeSpec((0.4,)), 1024)],
                           monomial(1, 1024), k_max=60, D=120),
    _span_with_signed_zeros,
    lambda: _two_layer_space()[0],
], ids=["span", "signed-zeros", "constrained"])
def test_subspace_file_is_a_load_save_fixed_point(build):
    text = dump_json(subspace_to_json(build()))
    loaded = subspace_from_json(json.loads(text))
    assert dump_json(subspace_to_json(loaded)) == text
    again = subspace_from_json(json.loads(text))
    assert np.array_equal(again.taylor, loaded.taylor)
    assert np.array_equal(again.recipe.rows(), loaded.recipe.rows())
