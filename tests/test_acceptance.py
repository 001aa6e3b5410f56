"""The acceptance gate: eleven structural properties at desk scale.

Each test states its tolerance inline and draws from its own seeded
generator, so a failure reproduces in isolation.  Several delegate to
the named verification suites when the suite is the property.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hardy import (
    BlaschkeSpec,
    RunConfig,
    check_basis_orthonormality,
    decompose_blaschke,
    decompose_zn,
    builtin_specs,
    gauge_eval,
    grid,
    is_n_outer,
    blaschke_eval,
    n_inner_outer_factorize,
    norm2,
    run_verification,
    synthesize,
)
from hardy.circlefn import CircleFunction

N = 1024


def _random_spec(rng, max_degree=4, radius=0.8):
    deg = int(rng.integers(1, max_degree + 1))
    zeros = radius * rng.uniform(0.05, 1.0, size=deg) \
        * np.exp(2j * np.pi * rng.uniform(size=deg))
    return BlaschkeSpec(tuple(zeros))


def _random_poly(rng, degree):
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    return synthesize({j: c[j] for j in range(degree + 1)}, N)


def test_criterion_01_basis_orthonormality():
    rng = np.random.default_rng(101)
    for _ in range(20):
        spec = _random_spec(rng)
        dev = check_basis_orthonormality(spec, m_max=6, n_samples=N)
        assert dev <= 1e-8, spec.zeros


def test_criterion_02_slot_decomposition_and_pythagoras():
    rng = np.random.default_rng(102)
    for _ in range(20):
        spec = _random_spec(rng)
        for _ in range(50):
            f = _random_poly(rng, int(rng.integers(1, 25)))
            res = decompose_blaschke(f, spec)
            assert res.residual <= 1e-8
            total = sum(v ** 2 for v in res.component_norms())
            assert abs(total - norm2(f) ** 2) <= 1e-9


def test_criterion_03_residue_splitting_exact():
    rng = np.random.default_rng(103)
    for n in (1, 2, 4, 8):  # the moduli in 1..8 dividing the grid
        for _ in range(100):
            f = _random_poly(rng, int(rng.integers(1, 200)))
            res = decompose_zn(f, n)
            assert res.residual <= 1e-12
            half = N // 2
            for i, comp in enumerate(res.components):
                idx = np.nonzero(comp.coeffs)[0]
                assert np.all((idx - half) % n == 0), (n, i)


def test_criterion_04_pairing_bound():
    rng = np.random.default_rng(104)
    from hardy import PNorm, SupNorm
    for p in (1.0, 1.5, 2.0, 3.0):
        alpha = PNorm(p)
        dual = SupNorm() if p == 1.0 else PNorm(p / (p - 1.0))
        for _ in range(1000):
            fv = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            hv = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            f = CircleFunction.from_samples(fv)
            h = CircleFunction.from_samples(hv)
            lhs = float(np.mean(np.abs(fv * hv)))
            rhs = gauge_eval(alpha, f) * gauge_eval(dual, h)
            assert lhs <= rhs + 1e-9, p


def test_criterion_05_smoothing_convergence():
    rep = run_verification("lemma-4.1", RunConfig(seed=105))
    by_name = {c.name: c for c in rep.checks}
    assert by_name["smoothing_bound_excess"].passed
    assert by_name["smoothing_final_value"].passed
    assert by_name["smoothing_final_value"].threshold == 1e-3
    assert rep.passed


def test_criterion_06_beurling_recovery():
    rep = run_verification("thm-3.6", RunConfig(seed=106))
    by_name = {c.name: c for c in rep.checks}
    assert by_name["generator_recovery"].measured <= 1e-6
    assert rep.passed


def test_criterion_07_n_factorization_properties():
    rep = run_verification("thm-5.4", RunConfig(seed=107))
    by_name = {c.name: c for c in rep.checks}
    assert by_name["reconstruction_residual"].measured <= 1e-6
    assert by_name["joint_gram_defect"].measured <= 1e-6
    assert by_name["verdict_failures"].measured == 0
    assert by_name["energy_sum_gap"].measured <= 1e-6
    assert by_name["outer_component_failures"].measured == 0
    assert rep.passed


def test_criterion_08_constrained_structure():
    rep = run_verification("thm-3.5", RunConfig(seed=108))
    by_name = {c.name: c for c in rep.checks}
    assert by_name["square_invariance_defect"].measured <= 1e-6
    assert by_name["cube_invariance_defect"].measured <= 1e-6
    assert by_name["noninvariance_margin"].measured <= 0  # defect >= 0.05
    assert by_name["degenerate_case_flagged"].passed
    assert rep.passed


def test_criterion_09_inner_outer_consistency():
    rng = np.random.default_rng(109)
    for _ in range(200):
        deg = int(rng.integers(1, 17))
        c = 0.5 * (rng.standard_normal(deg) + 1j * rng.standard_normal(deg))
        coeffs = {0: 4.0 + deg}  # dominant constant keeps f zero free
        for j in range(1, deg + 1):
            coeffs[j] = c[j - 1]
        f = synthesize(coeffs, N)
        bundle = n_inner_outer_factorize(f, 1)  # the classical split
        assert bundle.residual <= 1e-7
        assert np.max(np.abs(np.abs(bundle.inners[0].samples) - 1)) <= 1e-7
    for a in (0.2, 0.45j, -0.7, 0.3 - 0.4j):
        single = synthesize({0: -a, 1: 1.0}, N)
        gap = is_n_outer(single, 1).outer_defect
        assert abs(gap - (-np.log(abs(a)))) <= 1e-5


def test_criterion_10_unimodular_isometry():
    rng = np.random.default_rng(110)
    z = grid(N)
    multipliers = {
        "z^3": z ** 3,
        "blaschke": blaschke_eval(BlaschkeSpec((0.3, -0.2j, 0.55)), z),
    }
    for _ in range(5):
        f = _random_poly(rng, 40)
        for name, spec in builtin_specs(N).items():
            base = gauge_eval(spec, f)
            for mname, mult in multipliers.items():
                shifted = CircleFunction.from_samples(mult * f.samples)
                assert abs(gauge_eval(spec, shifted) - base) <= 1e-9, (
                    name, mname)


def test_criterion_11_byte_identical_reports(tmp_path):
    def run(path):
        return subprocess.run(
            [sys.executable, "-m", "hardy.cli", "verify", "thm-4.6",
             "--seed", "11", "--out", str(path)],
            capture_output=True, text=True, env=dict(os.environ), timeout=120)

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(a).returncode == 0
    assert run(b).returncode == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["theorem_id"] == "thm-4.6"
