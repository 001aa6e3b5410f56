"""Every exported name resolves, in the package and in each module."""

import importlib
import inspect
import pkgutil

import pytest

import hardy

MODULES = sorted(m.name for m in pkgutil.iter_modules(hardy.__path__))
LIBRARY = [m for m in MODULES if m != "cli"]


def test_package_exports_resolve():
    missing = [name for name in hardy.__all__ if not hasattr(hardy, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"hardy.{module}")
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module", LIBRARY)
def test_library_module_declares_its_exports(module):
    assert isinstance(importlib.import_module(f"hardy.{module}").__all__,
                      list)


def test_package_exports_the_union_of_the_module_lists():
    # the one list the package and perfbench/spans.py both read
    union = [name for m in LIBRARY
             for name in importlib.import_module(f"hardy.{m}").__all__]
    assert len(set(union)) == len(union)
    assert sorted(hardy.__all__) == sorted(union)


def test_public_names_are_unchanged():
    # Adding or removing a public name is a visible edit of this list.
    assert sorted(hardy.__all__) == [
        "AXIOM_TOL", "ArcWeighted", "AxiomReport", "BInnerMatrix",
        "BasisIndex", "BlaschkeSpec", "COEFF_CUTOFF", "Check",
        "CircleFunction", "ConstrainedReport", "ConstrainedSpec",
        "ConstructionError", "ContinuityReport", "ConvexCombo",
        "DEFAULT_N_SAMPLES", "DecompositionResult", "DegenerateSpaceError",
        "DomainError", "EPS_LOG", "FactorizationError", "GaugeNormSpec",
        "GradedRecipe", "HardyError", "MAX_ZERO_MODULUS", "MaxOf",
        "NInnerOuterBundle", "NOuterReport", "PNorm", "ParameterError",
        "REGISTRY", "RankError", "RunConfig", "SingularityError",
        "SizeError", "SubspaceBasis", "SupNorm", "TOL_ANALYTIC",
        "TruncationError", "VerificationReport", "as_circle_function",
        "atomic_write_text", "b_inner_matrix_from", "basis_element",
        "blaschke_eval", "build_constrained", "builtin_specs",
        "cesaro_convergence_profile", "check_basis_orthonormality",
        "check_continuity", "check_gauge_axioms",
        "check_rotational_symmetry", "decompose_blaschke", "decompose_zn",
        "dual_norm_estimate", "dump_json", "freq_indices",
        "function_from_json", "function_to_json", "gauge_eval",
        "gram_defect", "grid", "harmonic_conjugate", "horner",
        "invariance_defect", "is_n_outer", "monomial",
        "n_inner_outer_factorize", "norm2", "norm_spec_from_json",
        "norm_spec_to_json", "outer_from_modulus", "power_spec",
        "registry_ids", "require_analytic", "resample", "run_verification",
        "samples_of_taylor", "span_invariant", "subspace_from_json",
        "subspace_to_json", "synthesize", "taylor_block",
        "verify_constrained", "wandering_basis", "zeros_from_json",
        "zeros_to_json",
    ]


def test_cli_exports_only_main():
    from hardy import cli
    assert cli.__all__ == ["main"]


@pytest.mark.parametrize("fn, gone", [
    (hardy.CircleFunction.is_analytic, "tol"),
    (hardy.CircleFunction.bandwidth, "cutoff"),
    (hardy.CircleFunction.top_index, "cutoff"),
    (hardy.n_inner_outer_factorize, "tol"),
    (hardy.NInnerOuterBundle.meets_invariants, "tol"),
    (hardy.is_n_outer, "tol"),
    (hardy.b_inner_matrix_from, "tol"),
    (hardy.check_continuity, "threshold"),
    (hardy.invariance._orthonormal_columns, "rel_cutoff"),
], ids=lambda v: getattr(v, "__qualname__", v))
def test_single_value_knobs_stay_constants(fn, gone):
    # Nothing passes these a value other than the default; each function
    # reads its constant instead of taking a parameter.
    assert gone not in inspect.signature(fn).parameters
