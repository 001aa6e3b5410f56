"""Every value of a CircleFunction is finite: the public surface on
hostile inputs.

Each input is a set of values at indices 0, 1, 2: coefficients for the
entry points that take coefficients, samples for ``from_samples``.  A
function holding a NaN or an infinite value cannot be made, so every
entry point refuses the non-finite inputs with ParameterError.  The
table names the outcome of each entry point on the three finite inputs:
OK, a result whose every number is finite, or the one HardyError
subclass it raises.  Every cell runs with warnings raised as errors.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from hardy import (
    ArcWeighted,
    BlaschkeSpec,
    CircleFunction,
    ConstrainedSpec,
    ConstructionError,
    DomainError,
    GradedRecipe,
    HardyError,
    ParameterError,
    PNorm,
    SingularityError,
    SupNorm,
    b_inner_matrix_from,
    build_constrained,
    cesaro_convergence_profile,
    check_rotational_symmetry,
    decompose_blaschke,
    decompose_zn,
    dual_norm_estimate,
    dump_json,
    function_from_json,
    function_to_json,
    gauge_eval,
    harmonic_conjugate,
    invariance_defect,
    is_n_outer,
    monomial,
    n_inner_outer_factorize,
    norm2,
    outer_from_modulus,
    require_analytic,
    resample,
    span_invariant,
    synthesize,
    verify_constrained,
    wandering_basis,
)

N = 1024
NAN, INF = float("nan"), float("inf")

NON_FINITE = {
    "nan": {0: 1.0, 1: NAN},
    "+inf": {0: 1.0, 1: INF},
    "-inf": {0: 1.0, 1: -INF},
    "nan-imag": {0: 1.0, 1: complex(1.0, NAN)},
    "inf-imag": {0: 1.0, 1: complex(1.0, INF)},
}
FINITE = {
    # 1e308 (1 + z + z^2): finite coefficients, samples that overflow
    "1e308": {0: 1e308, 1: 1e308, 2: 1e308},
    # 1e-307 (1 + z): squares of its values underflow
    "1e-307": {0: 1e-307, 1: 1e-307},
    "zero": {},
}

OK = "OK"
P, D = ParameterError, DomainError
S, C = SingularityError, ConstructionError


def _array(values):
    a = np.zeros(N, dtype=complex)
    for j, v in values.items():
        a[j + N // 2] = v
    return a


def _f(values):
    return synthesize(values, N)


_SPEC = BlaschkeSpec((0, 0.5))
_BETA = np.array([[0.6], [0.8]], dtype=complex)
_SPACE = span_invariant([monomial(0, N)], monomial(1, N), 4, 8)

# entry point: (call on the input's values, outcome on 1e308, 1e-307,
# zero).  None leaves a cell out: overflow inside a computation on
# finite input belongs to scale covariance (ROADMAP item 4).
TABLE = {
    "from_coeffs": (lambda v: CircleFunction.from_coeffs(_array(v)),
                    P, OK, OK),
    "from_samples": (lambda v: CircleFunction.from_samples(_array(v)),
                     P, OK, OK),
    "synthesize": (_f, P, OK, OK),
    "function_from_json": (lambda v: function_from_json(
        {"n_samples": N, "coeffs": [[j, complex(c).real, complex(c).imag]
                                    for j, c in v.items()]}), P, OK, OK),
    "f + g": (lambda v: _f(v) + monomial(1, N), P, OK, OK),
    "f - f": (lambda v: _f(v) - _f(v), P, OK, OK),
    "c * f": (lambda v: 2.0 * _f(v), P, OK, OK),
    "f * f": (lambda v: _f(v) * _f(v), P, OK, OK),
    "-f": (lambda v: -_f(v), P, OK, OK),
    "bandwidth": (lambda v: _f(v).bandwidth(), OK, OK, OK),
    "top_index": (lambda v: _f(v).top_index(), OK, OK, OK),
    "is_analytic": (lambda v: _f(v).is_analytic(), OK, OK, OK),
    "coeff": (lambda v: _f(v).coeff(1), OK, OK, OK),
    "norm2": (lambda v: norm2(_f(v)), P, OK, OK),
    "resample": (lambda v: resample(_f(v), 2 * N), P, OK, OK),
    "require_analytic": (lambda v: require_analytic(_f(v), "t"),
                         OK, OK, OK),
    "gauge_eval p=3": (lambda v: gauge_eval(PNorm(3.0), _f(v)), P, OK, OK),
    "gauge_eval sup": (lambda v: gauge_eval(SupNorm(), _f(v)), P, OK, OK),
    "gauge_eval arc": (lambda v: gauge_eval(
        ArcWeighted((0.0, 1.0), PNorm(1.0), SupNorm()), _f(v)), P, OK, OK),
    "check_rotational_symmetry": (
        lambda v: check_rotational_symmetry(PNorm(2.0), _f(v)), P, OK, OK),
    "dual_norm_estimate": (
        lambda v: dual_norm_estimate(PNorm(2.0), _f(v), budget=16),
        P, OK, OK),
    "decompose_zn": (lambda v: decompose_zn(_f(v), 2), None, OK, OK),
    "decompose_blaschke": (lambda v: decompose_blaschke(_f(v), _SPEC),
                           None, OK, OK),
    "cesaro_convergence_profile": (
        lambda v: cesaro_convergence_profile(_f(v), PNorm(2.0), 4),
        None, OK, OK),
    "harmonic_conjugate": (lambda v: harmonic_conjugate(_f(v)), P, OK, OK),
    "outer_from_modulus": (lambda v: outer_from_modulus(_f(v)), P, S, S),
    "b_inner_matrix_from": (
        lambda v: b_inner_matrix_from([_f(v)], _SPEC, 2), None, OK, OK),
    "n_inner_outer_factorize n=1": (
        lambda v: n_inner_outer_factorize(_f(v), 1), P, D, D),
    "n_inner_outer_factorize n=2": (
        lambda v: n_inner_outer_factorize(_f(v), 2), P, D, D),
    "is_n_outer n=1": (lambda v: is_n_outer(_f(v), 1), P, D, D),
    "is_n_outer n=2": (lambda v: is_n_outer(_f(v), 2), P, D, D),
    "span_invariant generator": (
        lambda v: span_invariant([_f(v)], monomial(1, N), 4, 8), P, OK, C),
    "span_invariant multiplier": (
        lambda v: span_invariant([monomial(0, N)], _f(v), 4, 8), P, P, P),
    "invariance_defect": (lambda v: invariance_defect(_SPACE, _f(v)),
                          P, P, P),
    "wandering_basis": (lambda v: wandering_basis(_SPACE, _f(v)), P, P, P),
    "GradedRecipe": (
        lambda v: GradedRecipe((), (_f(v),), monomial(1, N), 2).rows(),
        P, OK, OK),
    "build_constrained": (lambda v: build_constrained(
        ConstrainedSpec((_f(v),), _BETA, 1), 8, 4), P, C, C),
    "verify_constrained": (lambda v: verify_constrained(
        _SPACE, ConstrainedSpec((_f(v),), _BETA, 1)), OK, OK, OK),
    "function_to_json": (lambda v: dump_json(function_to_json(_f(v))),
                         OK, OK, OK),
}


def _non_finite_paths(x, path="result"):
    """Where a NaN or an infinity sits in a result, reading both forms
    of every function in it."""
    if isinstance(x, CircleFunction):
        return (_non_finite_paths(x.samples, path + ".samples")
                + _non_finite_paths(x.coeffs, path + ".coeffs"))
    if dataclasses.is_dataclass(x):
        return [p for fld in dataclasses.fields(x)
                for p in _non_finite_paths(getattr(x, fld.name),
                                           f"{path}.{fld.name}")]
    if isinstance(x, (list, tuple)):
        return [p for i, v in enumerate(x)
                for p in _non_finite_paths(v, f"{path}[{i}]")]
    if isinstance(x, dict):
        return [p for k, v in x.items()
                for p in _non_finite_paths(v, f"{path}[{k}]")]
    if isinstance(x, (float, complex, np.ndarray, np.number)):
        a = np.asarray(x)
        if a.dtype.kind in "fc" and not np.isfinite(a).all():
            return [path]
    return []


def _outcome(call, values):
    """OK for a finite result, else the HardyError subclass raised by the
    call or by reading its result; a warning or any other exception
    propagates."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            bad = _non_finite_paths(call(values))
        except HardyError as exc:
            return type(exc)
    assert bad == [], f"not finite: {bad}"
    return OK


@pytest.mark.parametrize("entry", sorted(TABLE))
def test_every_entry_point_names_its_outcome(entry):
    call, *expected = TABLE[entry]
    want = {name: ParameterError for name in NON_FINITE}
    want.update((name, outcome)
                for name, outcome in zip(FINITE, expected)
                if outcome is not None)
    inputs = {**NON_FINITE, **FINITE}
    got = {name: _outcome(call, inputs[name]) for name in want}
    assert got == want


def test_arithmetic_that_overflows_is_refused():
    one = synthesize({0: 1.0}, N)
    huge = synthesize({0: 1e308}, N)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for make in (lambda: one * 1e308 * 10, lambda: huge + huge,
                     lambda: huge - (-huge), lambda: one * np.inf,
                     lambda: one * complex(0.0, np.nan)):
            with pytest.raises(ParameterError, match="not finite"):
                make()
