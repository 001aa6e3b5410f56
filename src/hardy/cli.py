"""Command-line front door.

One binary, a subcommand tree, JSON in and JSON out.  Every command is
deterministic given its input files, flags and seed; reports rerun to
byte-identical output.  A handler returns its payload and verdict;
main() alone writes, through a temp file and an atomic rename, so no
partial output ever lands at the target path.

Exit codes: 0 success (and, for check-style commands, the check
passed); 1 unreadable or malformed input, or a flag value the command
cannot take (any of INPUT_ERRORS); 2 every other HardyError, a numeric
or structural failure (factorization failure, singular modulus, failed
verification, non-invariant space, failed audit, a result JSON cannot
carry).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict
from typing import List, Optional

import numpy as np

from .blaschke import (BlaschkeSpec, as_circle_function,
                       check_basis_orthonormality)
from .circlefn import (DEFAULT_N_SAMPLES, CircleFunction, _check_n_samples,
                       monomial)
from .decomp import decompose_blaschke, decompose_zn
from .errors import (
    FactorizationError,
    HardyError,
    ParameterError,
    RankError,
    SingularityError,
    SizeError,
    TruncationError,
)
from .factor import b_inner_matrix_from, n_inner_outer_factorize
from .invariance import (
    ConstrainedSpec,
    build_constrained,
    invariance_defect,
    span_invariant,
    verify_constrained,
    wandering_basis,
)
from .norms import (
    builtin_specs,
    check_continuity,
    check_gauge_axioms,
    check_rotational_symmetry,
    gauge_eval,
)
from .serialize import (
    _constrained_spec_from_json,
    atomic_write_text,
    dump_json,
    function_from_json,
    function_to_json,
    norm_spec_from_json,
    norm_spec_to_json,
    subspace_from_json,
    subspace_to_json,
    zeros_from_json,
)
from .verify import SMALLEST_GRID, RunConfig, registry_ids, run_verification
from .verify import _random_poly

__all__ = ["main"]

EXIT_OK = 0
EXIT_IO = 1
EXIT_FAIL = 2

# Largest Gram deviation `blaschke basis` counts as orthonormal.
BASIS_TOL = 1e-8

# The library errors that mean input or a flag value a command cannot
# take; every other HardyError is a verdict.
INPUT_ERRORS = (ParameterError, RankError, SizeError, TruncationError)


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise ParameterError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        )
    except ValueError as exc:  # an integer past Python's digit limit
        raise ParameterError(f"{path}: {exc}")


def _parsed_file(path: str, parse):
    """Read a JSON file and parse it; any failure is an input error."""
    obj = _load_json_file(path)
    try:
        return parse(obj)
    except (HardyError, LookupError, TypeError, ValueError) as exc:
        raise ParameterError(f"{path}: {exc}")


def _function_arg(path: str) -> CircleFunction:
    return _parsed_file(path, function_from_json)


def _zeros_arg(path: str) -> BlaschkeSpec:
    return _parsed_file(path, zeros_from_json)


def _norm_spec_arg(token: str, n_samples: int):
    """A builtin spec name, or a path to a norm-spec JSON file."""
    builtins = builtin_specs(n_samples)
    if token in builtins:
        return builtins[token]
    return _parsed_file(token, norm_spec_from_json)


def _multiplier_arg(args, n_samples: int) -> CircleFunction:
    """Multiplier from --power (z^p), --zeros (Blaschke) or --fn."""
    given = [name for name in ("power", "zeros", "fn")
             if getattr(args, name, None) is not None]
    if len(given) != 1:
        raise ParameterError(
            "give exactly one of --power, --zeros, --fn for the multiplier"
        )
    if args.power is not None:
        if args.power < 1:
            raise ParameterError("--power must be >= 1")
        return monomial(args.power, n_samples)
    if args.zeros is not None:
        return as_circle_function(_zeros_arg(args.zeros), n_samples)
    return _function_arg(args.fn)


def _emit(payload, out_path: Optional[str]):
    try:
        text = dump_json(payload)
    except ValueError as exc:
        raise HardyError(f"the result is not finite: {exc}") from exc
    if out_path:
        atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _write_csv(path: str, header: List[str], rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) for v in row])
    atomic_write_text(path, buf.getvalue())


# --- subcommand handlers ----------------------------------------------------
# Each returns (payload, passed), and factor ninner a CSV (path, header,
# rows) after them; main() writes, maps errors and picks the exit code.

def _grid_arg(args, smallest: int) -> int:
    """--n-samples, refused below the smallest grid the command needs."""
    if args.n_samples < smallest:
        raise ParameterError(f"--n-samples {args.n_samples} is too small: "
                             f"this command needs --n-samples >= {smallest}")
    return args.n_samples


def _cmd_norm_audit(args):
    N = _grid_arg(args, 64)  # the degree-16 symmetry probe
    spec = _norm_spec_arg(args.spec, N)
    axioms = check_gauge_axioms(spec, trials=args.trials, seed=args.seed,
                                n_samples=N)
    continuity = check_continuity(spec, n_samples=N)
    probe = _random_poly(np.random.default_rng(args.seed), 16, N)
    symmetry = check_rotational_symmetry(spec, probe)
    payload = {
        "spec": norm_spec_to_json(spec),
        "axioms": asdict(axioms),
        "continuity": asdict(continuity),
        "rotational_symmetry_deviation": symmetry,
    }
    return payload, axioms.passed


def _cmd_blaschke_basis(args):
    N = args.n_samples
    spec = _zeros_arg(args.zeros)
    deviation = check_basis_orthonormality(spec, m_max=args.mmax, n_samples=N)
    payload = {
        "degree": spec.degree,
        "m_max": args.mmax,
        "n_samples": N,
        "gram_deviation": deviation,
        "threshold": BASIS_TOL,
        "pass": deviation <= BASIS_TOL,
    }
    return payload, not (args.check and deviation > BASIS_TOL)


def _cmd_decompose(args):
    f = _function_arg(args.fn)
    if args.mode == "zn":
        if args.n is None:
            raise ParameterError("--mode zn needs --n")
        result = decompose_zn(f, args.n)
    elif args.zeros is None:
        raise ParameterError("--mode blaschke needs --zeros")
    else:
        result = decompose_blaschke(f, _zeros_arg(args.zeros), m_max=args.mmax)
    payload = {
        "mode": result.mode,
        "components": [function_to_json(c) for c in result.components],
        "carriers": [function_to_json(c) for c in result.carriers],
        "residual": result.residual,
        "component_norms": list(result.component_norms()),
    }
    if result.basis_coefficients is not None:
        payload["m_max"] = int(result.basis_coefficients.shape[1]) - 1
        payload["phase_grid"] = result.phase_grid
    return payload, True


def _cmd_factor_ninner(args):
    f = _function_arg(args.fn)
    bundle = n_inner_outer_factorize(f, args.n, regularize=args.regularize)
    payload = {
        "n": bundle.n,
        "r": bundle.r,
        "n_samples": bundle.n_samples,
        "residual": bundle.residual,
        "gram_defect": bundle.gram_defect,
        "parseval_gap": bundle.parseval_gap,
        "inner_tail": bundle.inner_tail,
        "inner_defect": bundle.inner_defect,
        "inners": [function_to_json(g) for g in bundle.inners],
        "outers": [function_to_json(g) for g in bundle.outers],
        "outers_passed": [rep.passed for rep in bundle.outer_reports],
    }
    if not args.emit_plot_data:
        return payload, bundle.meets_invariants()
    J, F = bundle.inners[0], bundle.outers[0]
    theta = 2.0 * np.pi * np.arange(J.n_samples) / J.n_samples
    rows = zip(theta, np.abs(J.samples), np.log(np.abs(F.samples)))
    plot = (args.emit_plot_data, ["theta", "abs_inner", "log_abs_outer"], rows)
    return payload, bundle.meets_invariants(), plot


def _cmd_factor_checkbinner(args):
    phis = [_function_arg(p) for p in args.fn]
    spec = _zeros_arg(args.zeros)
    matrix = b_inner_matrix_from(phis, spec, m_max=args.mmax)
    payload = {
        "rows": matrix.rows,
        "cols": matrix.cols,
        "defect": matrix.defect,
        "joint_defect": matrix.joint_defect,
        "decomposition_residual": matrix.decomposition_residual,
        "tol": matrix.tol,
        "pass": matrix.passed,
        "entries": [[function_to_json(e) for e in row]
                    for row in matrix.entries],
    }
    return payload, matrix.passed


def _cmd_invariance_span(args):
    generators = [_function_arg(p) for p in args.generators]
    multiplier = _multiplier_arg(args, generators[0].n_samples)
    space = span_invariant(generators, multiplier, k_max=args.kmax, D=args.band)
    return subspace_to_json(space), True


def _cmd_invariance_defect(args):
    space = _parsed_file(args.subspace, subspace_from_json)
    defect = invariance_defect(space, _multiplier_arg(args, space.n_samples))
    return {"defect": defect, "dim": space.dim,
            "ambient_bandwidth": space.ambient_bandwidth}, True


def _cmd_invariance_wandering(args):
    space = _parsed_file(args.subspace, subspace_from_json)
    vectors = wandering_basis(space, _multiplier_arg(args, space.n_samples))
    return {"rank": len(vectors),
            "vectors": [function_to_json(v) for v in vectors]}, True


def _cmd_invariance_constrained(args):
    spec = _parsed_file(args.spec, _constrained_spec_from_json)
    space = build_constrained(spec, D=args.band, k_max=args.kmax)
    report = verify_constrained(space, spec)
    payload = {
        "dim": space.dim,
        "ambient_bandwidth": space.ambient_bandwidth,
        "r": spec.r,
        "k": spec.k,
        "report": {**asdict(report), "pass": report.passed},
    }
    return payload, report.passed


def _cmd_verify(args):
    config = RunConfig(n_samples=_grid_arg(
        args, SMALLEST_GRID[args.theorem_id]), seed=args.seed)
    report = run_verification(args.theorem_id, config)
    print(f"{report.theorem_id}: {len(report.checks)} checks, "
          f"{'pass' if report.passed else 'FAIL'}, "
          f"wall {report.wall_time:.2f}s", file=sys.stderr)
    return report.as_dict(), report.passed


def _cmd_experiment(args):
    if args.name == "conjecture44":
        return _experiment_conjecture44(args), True
    return _experiment_maximal_k(args), True


def _experiment_conjecture44(args) -> dict:
    """Measured splitting behavior of gauge norms without rotational
    symmetry.  For symmetric specs the averaging bound makes every
    component norm at most the whole; without symmetry the excess is an
    open question, so it is reported, never asserted."""
    if args.trials < 1:
        raise ParameterError("--trials must be >= 1")
    N = _grid_arg(args, 256)  # probes of degree up to 64
    n = args.n if args.n is not None else 2
    spec_names = [args.spec] if args.spec else ["p2", "arc_q1"]
    rng = np.random.default_rng(args.seed)
    tables = []
    for token in spec_names:
        spec = _norm_spec_arg(token, N)
        max_excess = -np.inf
        min_excess = np.inf
        for _ in range(args.trials):
            f = _random_poly(rng, int(rng.integers(2, 65)), N)
            dec = decompose_zn(f, n)
            whole = gauge_eval(spec, f)
            for carrier, comp in zip(dec.carriers, dec.components):
                piece = CircleFunction.from_samples(
                    carrier.samples * comp.samples)
                excess = gauge_eval(spec, piece) - whole
                max_excess = max(max_excess, excess)
                min_excess = min(min_excess, excess)
        tables.append({
            "spec": token,
            "n": n,
            "trials": args.trials,
            "max_component_excess": float(max_excess),
            "min_component_excess": float(min_excess),
        })
    return {"experiment": "conjecture44", "tables": tables}


def _experiment_maximal_k(args) -> dict:
    """Try to build and verify constrained spaces for every column
    count k up to 2r-1.  Purely exploratory; failures are recorded, not
    raised."""
    from .verify import _orthonormal_beta, _power_inner_family

    if args.r < 1:
        raise ParameterError("--r must be >= 1")
    N = _grid_arg(args, 1024)  # the band D = 400 below
    r = args.r
    n = r
    rng = np.random.default_rng(args.seed)
    inners = _power_inner_family(rng, n, r, N)
    rows = []
    for k in range(1, 2 * r):
        try:
            beta = _orthonormal_beta(rng, r, k)
            spec = ConstrainedSpec(inners=inners, beta=beta, multiplier=n)
            space = build_constrained(spec, D=400, k_max=60)
            report = verify_constrained(space, spec)
            rows.append({
                "k": k,
                "built": True,
                "dim": space.dim,
                "b_defect": report.b_defect,
                "b2_defect": report.b2_defect,
                "b3_defect": report.b3_defect,
                "degenerate": report.degenerate,
                "pass": report.passed,
            })
        except HardyError as exc:
            rows.append({"k": k, "built": False, "error": str(exc)})
    return {"experiment": "maximal-k", "r": r, "n": n, "rows": rows}


# --- parser -----------------------------------------------------------------

def _command(group, name, handler, help, n_samples=False):
    """Declare one command: its parser under ``group`` with --out (and
    --n-samples), and its handler.  Flags are spelled in full, so a
    dropped flag is refused, not read as a prefix of another."""
    p = group.add_parser(name, help=help, allow_abbrev=False)
    if n_samples:
        p.add_argument("--n-samples", type=int, default=DEFAULT_N_SAMPLES,
                       help="grid size (power of two; default "
                            f"{DEFAULT_N_SAMPLES})")
    p.add_argument("--out", help="write JSON here (atomic); default stdout")
    p.set_defaults(func=handler)
    return p


def _add_multiplier_flags(p):
    p.add_argument("--power", type=int, default=None,
                   help="multiplier z^POWER")
    p.add_argument("--zeros", default=None,
                   help="multiplier from a Blaschke zeros JSON file")
    p.add_argument("--fn", default=None,
                   help="multiplier from a function JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardy",
        description="Numerical toolkit for Hardy spaces on the unit "
                    "circle: bases, decompositions, gauge norms, "
                    "factorization, invariant subspaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def group(name, help):
        return sub.add_parser(name, help=help).add_subparsers(
            dest="subcommand", required=True)

    norm = group("norm", "gauge norm tools")
    audit = _command(norm, "audit", _cmd_norm_audit,
                     "randomized audit of the gauge-norm axioms",
                     n_samples=True)
    audit.add_argument("--spec", required=True,
                       help="builtin spec name or norm-spec JSON file")
    audit.add_argument("--trials", type=int, default=200)
    audit.add_argument("--seed", type=int, default=0)

    basis = _command(group("blaschke", "Blaschke product tools"), "basis",
                     _cmd_blaschke_basis, "orthonormality of the product basis",
                     n_samples=True)
    basis.add_argument("--zeros", required=True, help="zeros JSON file")
    basis.add_argument("--mmax", type=int, default=6)
    basis.add_argument("--check", action="store_true", help=f"exit 2 when "
                       f"the deviation exceeds {BASIS_TOL:g}")

    dec = _command(sub, "decompose", _cmd_decompose,
                   "subspace decompositions")
    dec.add_argument("--fn", required=True, help="function JSON file")
    dec.add_argument("--mode", choices=("zn", "blaschke"), required=True)
    dec.add_argument("--n", type=int, default=None,
                     help="splitting modulus for --mode zn")
    dec.add_argument("--zeros", default=None,
                     help="zeros JSON file for --mode blaschke")
    dec.add_argument("--mmax", type=int, default=None,
                     help="series order for --mode blaschke "
                          "(default: sized from the input)")

    factor = group("factor", "factorization commands")
    ninner = _command(factor, "ninner", _cmd_factor_ninner,
                      "n-inner times n-outer factorization")
    ninner.add_argument("--fn", required=True)
    ninner.add_argument("--n", type=int, required=True)
    ninner.add_argument("--regularize", action="store_true",
                        help="lift grid zeros of the modulus")
    ninner.add_argument("--emit-plot-data", metavar="CSV", default=None,
                        help="write theta, |inner|, log|outer| columns")

    binner = _command(factor, "check-binner", _cmd_factor_checkbinner,
                      "matrix test for a jointly B-inner family")
    binner.add_argument("--fn", nargs="+", required=True,
                        help="one or more function JSON files")
    binner.add_argument("--zeros", required=True)
    binner.add_argument("--mmax", type=int, default=8,
                        help="shifts paired by the joint_defect cross-check")

    inv = group("invariance", "invariant subspace commands")
    span = _command(inv, "span", _cmd_invariance_span,
                    "span of multiplier shifts")
    span.add_argument("--generators", nargs="+", required=True)
    span.add_argument("--kmax", type=int, required=True)
    span.add_argument("--band", type=int, required=True,
                      help="ambient bandwidth D")
    _add_multiplier_flags(span)

    defect = _command(inv, "defect", _cmd_invariance_defect,
                      "invariance defect")
    defect.add_argument("--subspace", required=True,
                        help="subspace JSON file")
    _add_multiplier_flags(defect)

    # a space that is not invariant is a verdict (DomainError): exit 2
    wander = _command(inv, "wandering", _cmd_invariance_wandering,
                      "complement of the shifted space")
    wander.add_argument("--subspace", required=True)
    _add_multiplier_flags(wander)

    constrained = _command(inv, "constrained", _cmd_invariance_constrained,
                           "build and verify a two-layer space")
    constrained.add_argument("--spec", required=True,
                             help="constrained-spec JSON file")
    constrained.add_argument("--band", type=int, default=400)
    constrained.add_argument("--kmax", type=int, default=60)

    verify = _command(sub, "verify", _cmd_verify,
                      "run a named verification suite", n_samples=True)
    verify.add_argument("theorem_id", choices=registry_ids(),
                        metavar="ID",
                        help="one of: " + ", ".join(registry_ids()))
    verify.add_argument("--seed", type=int, default=0)

    experiment = _command(sub, "experiment", _cmd_experiment,
                          "exploratory measurements; never fail",
                          n_samples=True)
    experiment.add_argument("name", choices=("conjecture44", "maximal-k"))
    experiment.add_argument("--spec", default=None,
                            help="conjecture44: spec name or JSON file")
    experiment.add_argument("--n", type=int, default=None,
                            help="conjecture44: splitting modulus")
    experiment.add_argument("--trials", type=int, default=50)
    experiment.add_argument("--r", type=int, default=2,
                            help="maximal-k: number of inner functions")
    experiment.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "n_samples"):
            _check_n_samples(args.n_samples)
        payload, passed, *side = args.func(args)
        # the payload first: a result JSON cannot carry leaves no CSV
        _emit(payload, args.out)
        for path, header, rows in side:
            _write_csv(path, header, rows)
        return EXIT_OK if passed else EXIT_FAIL
    except INPUT_ERRORS as exc:
        # unreadable input, or a flag value this command cannot take
        print(f"hardy: {exc}", file=sys.stderr)
        return EXIT_IO
    except SingularityError as exc:
        print(f"hardy: singular modulus: {exc}", file=sys.stderr)
        if exc.indices:
            print(f"hardy: grid indices near zero: {list(exc.indices)[:8]}",
                  file=sys.stderr)
        return EXIT_FAIL
    except FactorizationError as exc:
        print(f"hardy: factorization failure: {exc}", file=sys.stderr)
        if exc.diagnostics:
            print("hardy: diagnostics: "
                  + json.dumps(exc.diagnostics, sort_keys=True),
                  file=sys.stderr)
        return EXIT_FAIL
    except HardyError as exc:
        print(f"hardy: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except BrokenPipeError:
        # downstream closed the pipe (| head, | less); die quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
