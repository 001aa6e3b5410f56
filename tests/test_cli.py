"""Command line surface: exit codes, JSON payloads, determinism."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hardy import (
    BlaschkeSpec,
    as_circle_function,
    decompose_zn,
    errors,
    function_to_json,
    monomial,
    n_inner_outer_factorize,
    span_invariant,
    synthesize,
    wandering_basis,
    zeros_to_json,
)
from hardy.blaschke import MAX_ZERO_MODULUS
from hardy.serialize import atomic_write_text, dump_json


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hardy.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120)


@pytest.fixture()
def workdir(tmp_path):
    for name, obj in (
            ("poly", function_to_json(synthesize({1: 2.0, 2: 1.0}, 1024))),
            ("unit", function_to_json(monomial(1, 1024))),
            ("unit512", function_to_json(monomial(1, 512))),
            ("gridzero", function_to_json(synthesize({0: -1.0, 1: 1.0}, 1024))),
            ("zeros", zeros_to_json(BlaschkeSpec((0.0, 0.5))))):
        atomic_write_text(str(tmp_path / f"{name}.json"), dump_json(obj))
    (tmp_path / "broken.json").write_text('{"coeffs": [\n')
    return tmp_path


def test_help_screens():
    assert run_cli("--help").returncode == 0
    assert run_cli("factor", "--help").returncode == 0


def test_factor_classic_oracle(workdir):
    # the classical inner/outer split is factor ninner at n = 1
    out = workdir / "pair.json"
    res = run_cli("factor", "ninner", "--n", "1", "--fn",
                  str(workdir / "poly.json"), "--out", str(out))
    assert res.returncode == 0
    payload = json.loads(out.read_text())
    inner = {j: complex(re, im) for j, re, im in payload["inners"][0]["coeffs"]
             if abs(complex(re, im)) > 1e-9}
    assert set(inner) == {1}
    assert inner[1] == pytest.approx(1.0, abs=1e-9)
    assert payload["residual"] <= 1e-9


def test_factor_classic_plot_csv(workdir):
    csv_path = workdir / "plot.csv"
    res = run_cli("factor", "ninner", "--n", "1", "--fn",
                  str(workdir / "poly.json"), "--emit-plot-data", str(csv_path))
    assert res.returncode == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "theta,abs_inner,log_abs_outer"
    # the parts live on the work grid, and so do the rows
    N = n_inner_outer_factorize(synthesize({1: 2.0, 2: 1.0}, 1024),
                                1).n_samples
    assert len(lines) == N + 1
    theta = np.array([float(line.split(",")[0]) for line in lines[1:]])
    assert np.allclose(np.diff(theta), 2.0 * np.pi / N, rtol=0, atol=1e-12)


def test_factor_payloads_carry_the_inner_tail(workdir):
    # J's Taylor tail on the final work grid, the number the grid's stop
    # rule and the verdict read
    from hardy import cli
    from hardy.factor import WORK_TAIL_TARGET
    for n in ("1", "2"):
        out = workdir / "payload.json"
        assert cli.main(["factor", "ninner", "--n", n, "--fn",
                         str(workdir / "poly.json"), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert 0.0 <= payload["inner_tail"] <= WORK_TAIL_TARGET
        assert 0.0 <= payload["inner_defect"] <= 1e-7


def test_factor_grid_zero_diagnostic(workdir):
    res = run_cli("factor", "ninner", "--n", "1", "--fn",
                  str(workdir / "gridzero.json"))
    assert res.returncode == 2
    assert "singular" in res.stderr


def test_missing_file_is_io_error(workdir):
    res = run_cli("decompose", "--fn", str(workdir / "absent.json"),
                  "--mode", "zn", "--n", "2")
    assert res.returncode == 1
    assert "absent.json" in res.stderr


def test_malformed_json_reports_position(workdir):
    res = run_cli("decompose", "--fn", str(workdir / "broken.json"),
                  "--mode", "zn", "--n", "2")
    assert res.returncode == 1
    assert "line" in res.stderr
    assert "column" in res.stderr


def test_decompose_zn_payload(workdir):
    res = run_cli("decompose", "--fn", str(workdir / "poly.json"),
                  "--mode", "zn", "--n", "3")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["mode"] == "zn"
    assert len(payload["components"]) == 3
    assert payload["residual"] <= 1e-12


def test_decompose_blaschke_zeros_near_circle(workdir):
    zeros = workdir / "near.json"
    atomic_write_text(str(zeros), dump_json(
        zeros_to_json(BlaschkeSpec((0.0, 0.99, -0.99j)))))
    res = run_cli("decompose", "--fn", str(workdir / "poly.json"),
                  "--mode", "blaschke", "--zeros", str(zeros))
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["residual"] <= 1e-10
    assert payload["phase_grid"] >= 2 * (payload["m_max"] + 1)


def test_decompose_blaschke_refuses_zeros_at_max_modulus(workdir):
    # no zero at the origin: the phase-node budget binds
    r = MAX_ZERO_MODULUS
    zeros = workdir / "edge.json"
    atomic_write_text(str(zeros), dump_json(
        zeros_to_json(BlaschkeSpec((r, -1j * r)))))
    res = run_cli("decompose", "--fn", str(workdir / "poly.json"),
                  "--mode", "blaschke", "--zeros", str(zeros))
    assert res.returncode == 1
    assert "phase nodes" in res.stderr
    assert res.stdout == ""


def test_decompose_blaschke_at_max_modulus_with_a_zero_at_the_origin(workdir):
    # B = z B~ and 2z + z^2: the cutoff is exact at m = 2
    r = MAX_ZERO_MODULUS
    zeros = workdir / "edge.json"
    atomic_write_text(str(zeros), dump_json(
        zeros_to_json(BlaschkeSpec((0.0, r, -1j * r)))))
    res = run_cli("decompose", "--fn", str(workdir / "poly.json"),
                  "--mode", "blaschke", "--zeros", str(zeros))
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["m_max"] == 2
    assert payload["phase_grid"] == 64
    assert payload["residual"] <= 1e-10 * np.sqrt(5.0)


def test_norm_audit_passes_for_p2():
    res = run_cli("norm", "audit", "--spec", "p2", "--trials", "40")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["axioms"]["passed"]
    assert payload["rotational_symmetry_deviation"] <= 1e-10


def test_norm_audit_flags_arc_spec():
    res = run_cli("norm", "audit", "--spec", "arc_q1", "--trials", "40")
    assert res.returncode == 2
    payload = json.loads(res.stdout)
    assert "l1_domination" in payload["axioms"]["failures"]
    assert payload["axioms"]["l1_domination"] > 0.0
    assert not payload["axioms"]["passed"]


def test_blaschke_basis_check(workdir):
    res = run_cli("blaschke", "basis", "--zeros", str(workdir / "zeros.json"),
                  "--mmax", "4", "--check")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["pass"]
    assert payload["gram_deviation"] <= 1e-10


def test_nsamples_env_fallback(workdir):
    # There is no fallback: the grid size comes from --n-samples alone,
    # and HARDY_NSAMPLES in the environment changes nothing.
    res = run_cli("blaschke", "basis", "--zeros", str(workdir / "zeros.json"),
                  "--mmax", "2", env_extra={"HARDY_NSAMPLES": "512"})
    assert res.returncode == 0
    assert json.loads(res.stdout)["n_samples"] == 1024
    res2 = run_cli("blaschke", "basis", "--zeros", str(workdir / "zeros.json"),
                   "--mmax", "2", "--n-samples", "256",
                   env_extra={"HARDY_NSAMPLES": "512"})
    assert json.loads(res2.stdout)["n_samples"] == 256


def test_grid_size_not_power_of_two_is_input_error(workdir):
    res = run_cli("blaschke", "basis", "--zeros", str(workdir / "zeros.json"),
                  "--n-samples", "1000")
    assert res.returncode == 1
    assert "power of two" in res.stderr
    assert res.stdout == ""


def test_nan_coefficient_is_input_error(workdir):
    bad = workdir / "nan.json"
    bad.write_text('{"n_samples": 1024, '
                   '"coeffs": [[0, NaN, 0.0], [1, 1.0, 0.0]]}')
    res = run_cli("decompose", "--fn", str(bad), "--mode", "zn", "--n", "2")
    assert res.returncode == 1
    assert "not finite" in res.stderr
    assert res.stdout == ""


def test_overflowing_coefficients_are_input_error(workdir):
    huge = workdir / "huge.json"
    huge.write_text('{"n_samples": 1024, '
                    '"coeffs": [[0, 1e308, 0.0], [1, 1e308, 0.0]]}')
    for args in (["decompose", "--mode", "zn", "--n", "2"],
                 ["factor", "ninner", "--n", "1"],
                 ["factor", "ninner", "--n", "2"]):
        res = run_cli(*args, "--fn", str(huge))
        assert res.returncode == 1
        assert "overflow" in res.stderr
        assert "Warning" not in res.stderr
        assert res.stdout == ""


def test_integer_beyond_float_range_is_input_error_naming_the_file(workdir):
    # json reads 10**400 as an int, which float() cannot take
    fn, zeros = workdir / "bigint.json", workdir / "bigint_zeros.json"
    fn.write_text('{"n_samples": 64, "coeffs": [[0, 1%s, 0]]}' % ("0" * 400))
    zeros.write_text('{"zeros": [[0, 1%s]]}' % ("0" * 400))
    # past 4300 digits json itself refuses the integer
    longer = workdir / "longint.json"
    longer.write_text('{"n_samples": 64, "coeffs": [[0, 1%s, 0]]}'
                      % ("0" * 5000))
    for args, message in (
            (["decompose", "--mode", "zn", "--n", "2", "--fn", str(fn)],
             "float range"),
            (["blaschke", "basis", "--zeros", str(zeros)], "float range"),
            (["decompose", "--mode", "zn", "--n", "2", "--fn", str(longer)],
             "digits")):
        res = run_cli(*args)
        assert res.returncode == 1
        assert message in res.stderr and args[-1] in res.stderr
        assert "Traceback" not in res.stderr and res.stdout == ""


def test_factor_ninner_plot_csv_at_n_2(workdir):
    from hardy import cli
    csv_path = workdir / "plot2.csv"
    assert cli.main(["factor", "ninner", "--n", "2", "--fn",
                     str(workdir / "poly.json"), "--emit-plot-data",
                     str(csv_path), "--out", str(workdir / "n2.json")]) == 0
    bundle = n_inner_outer_factorize(synthesize({1: 2.0, 2: 1.0}, 1024), 2)
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    assert rows.shape == (bundle.n_samples, 3)
    assert np.array_equal(rows[:, 1], np.abs(bundle.inners[0].samples))
    assert np.array_equal(rows[:, 2], np.log(np.abs(bundle.outers[0].samples)))


def test_factor_classic_near_circle_zero_passes(workdir):
    # zeros near the circle once aliased log|f| on the input grid
    rng = np.random.default_rng(1)
    c = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    atomic_write_text(str(workdir / "rand.json"), dump_json(
        function_to_json(synthesize(dict(enumerate(c)), 1024))))
    res = run_cli("factor", "ninner", "--n", "1", "--fn",
                  str(workdir / "rand.json"))
    assert res.returncode == 0
    assert json.loads(res.stdout)["residual"] <= 1e-9


def test_factor_ninner_failed_outer_check_prints_payload(workdir):
    # the outer part at the grid cap is not analytic; the verdict fails
    # and the payload is still written
    atomic_write_text(str(workdir / "edge.json"), dump_json(
        function_to_json(synthesize({0: -0.9999, 1: 1.0}, 1024))))
    res = run_cli("factor", "ninner", "--fn", str(workdir / "edge.json"),
                  "--n", "1")
    assert res.returncode == 2
    payload = json.loads(res.stdout)
    assert payload["outers_passed"] == [False]
    assert payload["residual"] <= 1e-9


def test_non_finite_result_is_not_written(workdir, monkeypatch, capsys):
    from hardy import cli

    def nan_split(f, n):
        return dataclasses.replace(decompose_zn(f, n), residual=float("nan"))

    monkeypatch.setattr(cli, "decompose_zn", nan_split)
    out = workdir / "split.json"
    code = cli.main(["decompose", "--fn", str(workdir / "poly.json"),
                     "--mode", "zn", "--n", "2", "--out", str(out)])
    assert code == 2
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


def _check_binner(paths, spec, tmp_path, *extra):
    from hardy import cli
    zeros = tmp_path / "binner_zeros.json"
    atomic_write_text(str(zeros), dump_json(zeros_to_json(spec)))
    return cli.main(["factor", "check-binner", "--fn", *map(str, paths),
                     "--zeros", str(zeros), *extra])


@pytest.mark.parametrize("zeros", [(0.0,), (0.0, 0.5)])
def test_check_binner_fails_one_plus_z(workdir, capsys, zeros):
    fn = workdir / "one_plus_z.json"
    s = 1 / np.sqrt(2)
    atomic_write_text(str(fn), dump_json(
        function_to_json(synthesize({0: s, 1: s}, 1024))))
    assert _check_binner([fn], BlaschkeSpec(zeros), workdir) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is False
    assert payload["defect"] >= 0.5 - 1e-10


def test_check_binner_rejects_negative_mmax(workdir, capsys):
    code = _check_binner([workdir / "unit.json"], BlaschkeSpec((0.0, 0.5)),
                         workdir, "--mmax", "-1")
    assert code == 1
    assert "m_max" in capsys.readouterr().err


def test_check_binner_rejects_columns_on_different_grids(workdir, capsys):
    small = workdir / "unit512.json"
    atomic_write_text(str(small),
                      dump_json(function_to_json(monomial(1, 512))))
    code = _check_binner([workdir / "unit.json", small],
                         BlaschkeSpec((0.0, 0.5)), workdir)
    assert code == 1
    assert "one grid" in capsys.readouterr().err


def test_check_binner_rejects_more_columns_than_slots(workdir, capsys):
    code = _check_binner([workdir / "unit.json", workdir / "poly.json"],
                         BlaschkeSpec((0.0,)), workdir)
    assert code == 1
    assert "exceed" in capsys.readouterr().err


def test_check_binner_passes_wandering_pair(workdir, capsys):
    # The wandering space of an invariant span under B is jointly
    # B-inner.  Its slot rows outlast 8 powers of B, which the default
    # --mmax cross-check pairs; the verdict reads them whole.
    spec = BlaschkeSpec((0.5, -0.4j, 0.3 + 0.2j))
    rng = np.random.default_rng(1)
    N = 2048
    generators = [synthesize(dict(enumerate(
        rng.standard_normal(8) + 1j * rng.standard_normal(8))), N)
        for _ in range(2)]
    B = as_circle_function(spec, N)
    vectors = wandering_basis(span_invariant(generators, B, k_max=140, D=900),
                              B)
    assert len(vectors) == 2
    paths = [workdir / f"wander{k}.json" for k in range(2)]
    for path, v in zip(paths, vectors):
        atomic_write_text(str(path), dump_json(function_to_json(v)))
    assert _check_binner(paths, spec, workdir) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["defect"] <= payload["tol"] / 100


def test_verify_exit_and_stderr_summary(workdir):
    out = workdir / "report.json"
    res = run_cli("verify", "lemma-4.2", "--seed", "1", "--out", str(out))
    assert res.returncode == 0
    assert "lemma-4.2" in res.stderr
    payload = json.loads(out.read_text())
    assert payload["theorem_id"] == "lemma-4.2"
    assert all(c["pass"] for c in payload["checks"])


def test_verify_unknown_id_usage_error():
    res = run_cli("verify", "bogus")
    assert res.returncode == 2
    assert "lemma-4.2" in res.stderr  # registry listed in the message


def test_removed_verify_n_is_usage_error(capsys):
    # with flag prefixes refused, --n is not read as --n-samples
    from hardy import cli
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "lemma-4.2", "--n", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --n 3" in capsys.readouterr().err


def test_verify_failing_suite_exits_2(workdir, failing_suite, capsys):
    from hardy import cli
    out = workdir / "report.json"
    assert cli.main(["verify", "lemma-4.2", "--out", str(out)]) == 2
    payload = json.loads(out.read_text())
    assert payload["passed"] is False
    failed = [c for c in payload["checks"] if not c["pass"]]
    assert [(c["name"], c["threshold"]) for c in failed] == [
        ("averaging_agreement", 1e-12)]
    assert "FAIL" in capsys.readouterr().err


def test_invariance_pipeline_round_trip(workdir):
    space = workdir / "space.json"
    res = run_cli("invariance", "span", "--generators",
                  str(workdir / "unit.json"), "--power", "1",
                  "--kmax", "64", "--band", "128", "--out", str(space))
    assert res.returncode == 0
    res2 = run_cli("invariance", "defect", "--subspace", str(space),
                   "--power", "1")
    assert res2.returncode == 0
    assert json.loads(res2.stdout)["defect"] <= 1e-10
    res3 = run_cli("invariance", "wandering", "--subspace", str(space),
                   "--power", "1")
    assert res3.returncode == 0
    assert json.loads(res3.stdout)["rank"] == 1


def _constrained_spec_file(workdir):
    spec_path = workdir / "cspec.json"
    spec_path.write_text(json.dumps({
        "inners": [function_to_json(monomial(0, 1024))],
        "beta": [[[0.6, 0.0]], [[0.8, 0.0]]],
        "multiplier": {"power": 1},
    }))
    return spec_path


def test_invariance_constrained_command(workdir):
    spec_path = _constrained_spec_file(workdir)
    res = run_cli("invariance", "constrained", "--spec", str(spec_path))
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["report"]["pass"]
    assert payload["report"]["b_defect"] == pytest.approx(0.36, abs=1e-6)


def test_experiments_never_fail(workdir):
    res = run_cli("experiment", "conjecture44", "--trials", "3",
                  "--spec", "p2")
    assert res.returncode == 0
    tables = json.loads(res.stdout)["tables"]
    assert tables[0]["max_component_excess"] <= 1e-9
    res2 = run_cli("experiment", "maximal-k", "--r", "1")
    assert res2.returncode == 0
    rows = json.loads(res2.stdout)["rows"]
    assert [r["k"] for r in rows] == [1]


def test_multiplier_flags_are_exclusive(workdir):
    res = run_cli("invariance", "span", "--generators",
                  str(workdir / "unit.json"), "--kmax", "4", "--band", "32")
    assert res.returncode == 1
    assert "--power" in res.stderr


@pytest.mark.parametrize("argv", [
    ["decompose", "--mode", "zn", "--n", "600"],
    ["decompose", "--mode", "zn", "--n", "0"],
    ["factor", "ninner", "--n", "0"],
    ["factor", "ninner", "--n", "600"],
])
def test_out_of_range_n_is_input_error(workdir, capsys, argv):
    from hardy import cli
    code = cli.main([*argv, "--fn", str(workdir / "poly.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert ("leaves no room" if argv[-1] == "600" else "n must be >= 1") in err


def _span_file(workdir, edit):
    """The z-span of z (k_max 20, band 40) as JSON, edited in place."""
    from hardy import subspace_to_json
    z = monomial(1, 1024)
    obj = json.loads(json.dumps(subspace_to_json(
        span_invariant([z], z, k_max=20, D=40))))
    edit(obj)
    path = workdir / "edited_span.json"
    path.write_text(json.dumps(obj))
    return path


def _on_128_points(obj):
    obj["recipe"]["base_samples"] = function_to_json(monomial(1, 128))


def _basis_off_its_recipe(obj):
    # z^30 is a unit vector in the band 0..40, orthogonal to the rest of
    # the basis but outside the span of z .. z^21 that the recipe builds
    obj["basis"][0] = [[0.0, 0.0]] * 30 + [[1.0, 0.0]]


@pytest.mark.parametrize("edit", [
    lambda o: o["recipe"].pop("generator_samples"),
    lambda o: o["recipe"].pop("base_samples"),
    lambda o: o["generators"].pop("k_max"),
    _on_128_points,
    lambda o: o["recipe"].update(prefix_samples=o["recipe"]["base_samples"]),
    _basis_off_its_recipe,
    lambda o: o["basis"].pop(),
    lambda o: o.update(ambient_bandwidth=40.5),
    lambda o: o.update(n_samples=1024.5),
    lambda o: o["generators"].update(k_max=20.5),
    lambda o: o["generators"].update(k_max=True),
    lambda o: o.update(ambient_bandwidth=512),
], ids=["no-starts", "no-step", "no-k_max", "other-grid", "prefix_samples",
        "basis-off-recipe", "basis-short", "fractional-band",
        "fractional-n_samples", "fractional-k_max", "boolean-k_max",
        "band-beyond-grid"])
def test_malformed_recipe_is_input_error(workdir, capsys, edit):
    from hardy import cli
    code = cli.main(["invariance", "defect", "--power", "1", "--subspace",
                     str(_span_file(workdir, edit))])
    assert code == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("pair", [[1.0], None, "x", "NaN", ["NaN", 0.0],
                                  [0.0, 1e999], [[1.0, 0.0]], [10**400, 0]],
                         ids=["one-element", "null", "x", "NaN-pair",
                              "NaN-part", "infinite-part", "nested",
                              "integer-beyond-float-range"])
def test_malformed_basis_pair_is_input_error_naming_the_file(workdir, capsys,
                                                             pair):
    from hardy import cli
    path = _span_file(workdir, lambda o: o["basis"][0].__setitem__(0, pair))
    code = cli.main(["invariance", "defect", "--power", "1", "--subspace",
                     str(path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and str(path) in captured.err


def test_recipe_free_span_file_tests_every_basis_vector(workdir, capsys):
    # Intact, the recipe tests the grades 0..19, whose images stay in
    # the space; without it z^21 is tested too, and z^22 is in the band
    # but not in the space.
    from hardy import cli
    defects = []
    for edit in (lambda o: None, lambda o: o.pop("recipe")):
        path = _span_file(workdir, edit)
        assert cli.main(["invariance", "defect", "--power", "1",
                         "--subspace", str(path)]) == 0
        defects.append(json.loads(capsys.readouterr().out)["defect"])
    assert defects[0] <= 1e-14
    assert defects[1] == pytest.approx(1.0, abs=1e-12)


# Each flag value below is one the library refuses; each exits 1 (bad
# input), not 2 (numerical failure).  {span} is the z-span of z, {cspec}
# a two-layer spec, {poly} the non-unimodular 2z + z^2, {unit512} z on
# half the generators' grid.  The files of _mistyped_numbers hold a
# fraction or a boolean where their format expects an integer, a
# boolean or a string where it expects a real number, an arc with one
# end, or an arc spec on a grid size that is not a power of two.
_SPAN = ["invariance", "span", "--generators", "{unit}"]
_C44 = ["experiment", "conjecture44", "--spec", "p2"]
_ZN = ["decompose", "--mode", "zn", "--n", "2", "--fn"]


def _mistyped_numbers(workdir):
    cspec = json.loads(_constrained_spec_file(workdir).read_text())
    arc = {"kind": "arc_weighted", "arc": [0.0, 1.0],
           "inside": {"kind": "sup_norm"}, "outside": {"kind": "p_norm",
                                                       "p": 1.0}}
    files = {}
    for name, obj in (
            ("n_frac", {"n_samples": 64.9, "coeffs": [[0, 1.0, 0.0]]}),
            ("index_frac", {"n_samples": 64, "coeffs": [[0.7, 1.0, 0.0]]}),
            ("arc_n_frac", dict(arc, n_samples=512.5)),
            ("power_frac", dict(cspec, multiplier={"power": 2.5})),
            ("power_true", dict(cspec, multiplier={"power": True})),
            ("p_true", {"kind": "p_norm", "p": True}),
            ("p_text", {"kind": "p_norm", "p": "2"}),
            ("arc_short", dict(arc, arc=[0.5])),
            ("weights_bool", {"kind": "convex_combo", "weights": [True, False],
                              "parts": [{"kind": "p_norm", "p": 1.0},
                                        {"kind": "sup_norm"}]}),
            ("arc_true", dict(arc, arc=[0.0, True])),
            ("arc_n_48", dict(arc, n_samples=48))):
        files[name] = workdir / f"{name}.json"
        files[name].write_text(json.dumps(obj))
    return files


@pytest.mark.parametrize("argv, says", [
    (["blaschke", "basis", "--zeros", "{zeros}", "--mmax", "-1"], "m_max"),
    (["norm", "audit", "--spec", "p2", "--trials", "0"], "trials"),
    ([*_SPAN, "--power", "1", "--kmax", "-1", "--band", "40"], "k_max"),
    ([*_SPAN, "--power", "1", "--kmax", "4", "--band", "9999"], "D = 9999"),
    ([*_SPAN, "--power", "1", "--kmax", "4", "--band", "-1"], "D = -1"),
    ([*_SPAN, "--power", "2", "--kmax", "30", "--band", "40"], "leave the band"),
    ([*_SPAN, "--fn", "{poly}", "--kmax", "4", "--band", "40"], "unimodular"),
    (["invariance", "defect", "--subspace", "{span}", "--fn", "{poly}"],
     "unimodular"),
    (["invariance", "constrained", "--spec", "{cspec}", "--kmax", "-1"],
     "k_max"),
    (["invariance", "constrained", "--spec", "{cspec}", "--band", "9999"],
     "D = 9999"),
    (["invariance", "constrained", "--spec", "{cspec}", "--band", "-1"],
     "D = -1"),
    (["norm", "audit", "--spec", "{p_true}"], "p must be a number, got True"),
    (["norm", "audit", "--spec", "{weights_bool}"],
     "weight must be a number, got True"),
    # grids too small for the suite's or the audit's probe polynomials
    (["verify", "lemma-2.4", "--n-samples", "32"], "needs --n-samples >= 64"),
    (["norm", "audit", "--spec", "p2", "--n-samples", "8"],
     "needs --n-samples >= 64"),
    ([*_C44, "--n", "0"], "n must be >= 1"),
    ([*_C44, "--n", "600"], "leaves no room"),
    ([*_C44, "--trials", "0"], "--trials"),
    (["experiment", "maximal-k", "--r", "0"], "--r"),
    (["invariance", "wandering", "--subspace", "{span}", "--fn", "{poly}"],
     "unimodular"),
    ([*_SPAN, "--fn", "{unit512}", "--kmax", "4", "--band", "40"],
     "multiplier must live on the generators' grid"),
    ([*_ZN, "{n_frac}"], "n_samples must be an integer, got 64.9"),
    ([*_ZN, "{index_frac}"], "coefficient index must be an integer, got 0.7"),
    (["norm", "audit", "--spec", "{arc_n_frac}"],
     "n_samples must be an integer, got 512.5"),
    (["invariance", "constrained", "--spec", "{power_frac}"],
     "power must be an integer, got 2.5"),
    (["invariance", "constrained", "--spec", "{power_true}"],
     "power must be an integer, got True"),
    (["norm", "audit", "--spec", "{arc_true}"],
     "arc must be a number, got True"),
    (["norm", "audit", "--spec", "{p_text}"], "p must be a number, got '2'"),
    (["norm", "audit", "--spec", "{arc_short}"], "index out of range"),
    (["norm", "audit", "--spec", "{arc_n_48}"], "power of two"),
    ([*_C44, "--n-samples", "64"], "needs --n-samples >= 256"),
    (["experiment", "maximal-k", "--n-samples", "512"],
     "needs --n-samples >= 1024"),
])
def test_refused_flag_value_is_input_error(workdir, capsys, argv, says):
    from hardy import cli
    files = {"unit": workdir / "unit.json", "poly": workdir / "poly.json",
             "unit512": workdir / "unit512.json",
             "zeros": workdir / "zeros.json",
             "span": _span_file(workdir, lambda o: None),
             "cspec": _constrained_spec_file(workdir),
             **_mistyped_numbers(workdir)}
    assert cli.main([a.format(**files) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert says in err


# The exit code of each error type: 1 for input a command cannot take,
# 2 for a verdict.  A new error type fails here until it is classified.
_INPUT_ERRORS = {"ParameterError", "RankError", "SizeError",
                 "TruncationError"}
_VERDICT_ERRORS = {"HardyError", "DomainError", "SingularityError",
                   "ConstructionError", "DegenerateSpaceError",
                   "FactorizationError"}


@pytest.mark.parametrize("name", errors.__all__)
def test_each_error_type_has_one_exit_code(monkeypatch, capsys, name):
    from hardy import cli
    assert name in _INPUT_ERRORS | _VERDICT_ERRORS
    assert {e.__name__ for e in cli.INPUT_ERRORS} == _INPUT_ERRORS

    def stub(args):
        raise getattr(errors, name)("stub failure")

    monkeypatch.setattr(cli, "_cmd_factor_ninner", stub)
    code = cli.main(["factor", "ninner", "--n", "1", "--fn", "unread.json"])
    assert code == (1 if name in _INPUT_ERRORS else 2)
    out, err = capsys.readouterr()
    assert out == ""
    assert "stub failure" in err


def test_wandering_of_non_invariant_space_is_numerical_failure(workdir,
                                                              capsys):
    # wandering's DomainError means "not invariant", a verdict
    from hardy import cli
    path = _span_file(workdir, lambda o: o.pop("recipe"))
    assert cli.main(["invariance", "wandering", "--power", "1",
                     "--subspace", str(path)]) == 2
    assert "not invariant" in capsys.readouterr().err


def test_unwritable_payload_leaves_no_plot_csv(workdir, monkeypatch, capsys):
    # The payload is written first: one JSON cannot carry stops the
    # command before the plot rows land.
    from hardy import cli

    def nan_split(f, n, regularize=False):
        return dataclasses.replace(
            n_inner_outer_factorize(f, n, regularize=regularize),
            residual=float("nan"))

    monkeypatch.setattr(cli, "n_inner_outer_factorize", nan_split)
    csv_path, out = workdir / "plot.csv", workdir / "pair.json"
    code = cli.main(["factor", "ninner", "--n", "1", "--fn",
                     str(workdir / "poly.json"), "--emit-plot-data",
                     str(csv_path), "--out", str(out)])
    assert code == 2
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()
    assert not csv_path.exists()


def _flag_surface(parser, path=()):
    """{command path: {option string or positional: default}}."""
    import argparse
    leaves, flags = {}, {}
    for act in parser._actions:
        if isinstance(act, argparse._SubParsersAction):
            for name, sub in act.choices.items():
                leaves.update(_flag_surface(sub, (*path, name)))
        elif not isinstance(act, argparse._HelpAction):
            for key in act.option_strings or [act.dest]:
                flags[key] = act.default
    return leaves or {" ".join(path): flags}


def test_flag_surface_is_unchanged():
    from hardy.cli import build_parser
    out = {"--out": None}
    n_samples = {"--n-samples": 1024}
    multiplier = {"--power": None, "--zeros": None, "--fn": None}
    assert _flag_surface(build_parser()) == {
        "norm audit": {"--spec": None, "--trials": 200, "--seed": 0,
                       **n_samples, **out},
        "blaschke basis": {"--zeros": None, "--mmax": 6, "--check": False,
                           **n_samples, **out},
        "decompose": {"--fn": None, "--mode": None, "--n": None,
                      "--zeros": None, "--mmax": None, **out},
        "factor ninner": {"--fn": None, "--n": None, "--regularize": False,
                          "--emit-plot-data": None, **out},
        "factor check-binner": {"--fn": None, "--zeros": None, "--mmax": 8,
                                **out},
        "invariance span": {"--generators": None, "--kmax": None,
                            "--band": None, **multiplier, **out},
        "invariance defect": {"--subspace": None, **multiplier, **out},
        "invariance wandering": {"--subspace": None, **multiplier, **out},
        "invariance constrained": {"--spec": None, "--band": 400,
                                   "--kmax": 60, **out},
        "verify": {"theorem_id": None, "--seed": 0, **n_samples, **out},
        "experiment": {"name": None, "--spec": None, "--n": None,
                       "--trials": 50, "--r": 2, "--seed": 0, **n_samples,
                       **out},
    }
