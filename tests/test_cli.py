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
    decompose_zn,
    function_to_json,
    monomial,
    synthesize,
    write_json,
    zeros_to_json,
)


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hardy.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120)


@pytest.fixture()
def workdir(tmp_path):
    write_json(str(tmp_path / "poly.json"),
               function_to_json(synthesize({1: 2.0, 2: 1.0}, 1024)))
    write_json(str(tmp_path / "unit.json"),
               function_to_json(monomial(1, 1024)))
    write_json(str(tmp_path / "gridzero.json"),
               function_to_json(synthesize({0: -1.0, 1: 1.0}, 1024)))
    write_json(str(tmp_path / "zeros.json"),
               zeros_to_json(BlaschkeSpec((0.0, 0.5))))
    (tmp_path / "broken.json").write_text('{"coeffs": [\n')
    return tmp_path


def test_help_screens():
    assert run_cli("--help").returncode == 0
    assert run_cli("factor", "--help").returncode == 0


def test_factor_classic_oracle(workdir):
    out = workdir / "pair.json"
    res = run_cli("factor", "classic", "--fn", str(workdir / "poly.json"),
                  "--out", str(out))
    assert res.returncode == 0
    payload = json.loads(out.read_text())
    inner = {j: complex(re, im) for j, re, im in payload["inner"]["coeffs"]
             if abs(complex(re, im)) > 1e-9}
    assert set(inner) == {1}
    assert inner[1] == pytest.approx(1.0, abs=1e-9)
    assert payload["residual"] <= 1e-9


def test_factor_classic_plot_csv(workdir):
    csv_path = workdir / "plot.csv"
    res = run_cli("factor", "classic", "--fn", str(workdir / "poly.json"),
                  "--emit-plot-data", str(csv_path))
    assert res.returncode == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "theta,abs_inner,log_abs_outer"
    assert len(lines) == 1025


def test_factor_grid_zero_diagnostic(workdir):
    res = run_cli("factor", "classic", "--fn", str(workdir / "gridzero.json"))
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
    res = run_cli("blaschke", "basis", "--zeros", str(workdir / "zeros.json"),
                  "--mmax", "2", env_extra={"HARDY_NSAMPLES": "512"})
    assert res.returncode == 0
    assert json.loads(res.stdout)["n_samples"] == 512
    res2 = run_cli("blaschke", "basis", "--zeros", str(workdir / "zeros.json"),
                   "--mmax", "2", "--n-samples", "256",
                   env_extra={"HARDY_NSAMPLES": "512"})
    assert json.loads(res2.stdout)["n_samples"] == 256


@pytest.mark.parametrize("how", ["env", "flag"])
def test_grid_size_not_power_of_two_is_input_error(workdir, how):
    args = ["blaschke", "basis", "--zeros", str(workdir / "zeros.json")]
    if how == "flag":
        res = run_cli(*args, "--n-samples", "1000")
    else:
        res = run_cli(*args, env_extra={"HARDY_NSAMPLES": "1000"})
    assert res.returncode == 1
    assert "power of two" in res.stderr
    assert res.stdout == ""


def test_nan_coefficient_is_input_error(workdir):
    bad = workdir / "nan.json"
    bad.write_text('{"n_samples": 1024, '
                   '"coeffs": [[0, NaN, 0.0], [1, 1.0, 0.0]]}')
    res = run_cli("decompose", "--fn", str(bad), "--mode", "zn", "--n", "2")
    assert res.returncode == 1
    assert "non-finite" in res.stderr
    assert res.stdout == ""


def test_overflowing_coefficients_are_input_error(workdir):
    huge = workdir / "huge.json"
    huge.write_text('{"n_samples": 1024, '
                    '"coeffs": [[0, 1e308, 0.0], [1, 1e308, 0.0]]}')
    for args in (["decompose", "--mode", "zn", "--n", "2"],
                 ["factor", "classic"], ["factor", "ninner", "--n", "2"]):
        res = run_cli(*args, "--fn", str(huge))
        assert res.returncode == 1
        assert "overflow" in res.stderr
        assert "Warning" not in res.stderr
        assert res.stdout == ""


def test_factor_classic_aliased_outer_fails(workdir):
    rng = np.random.default_rng(1)
    c = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    write_json(str(workdir / "rand.json"),
               function_to_json(synthesize(dict(enumerate(c)), 1024)))
    res = run_cli("factor", "classic", "--fn", str(workdir / "rand.json"))
    assert res.returncode == 2
    assert json.loads(res.stdout)["residual"] <= 1e-9


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


def test_verify_exit_and_stderr_summary(workdir):
    out = workdir / "report.json"
    res = run_cli("verify", "lemma-4.2", "--n", "3", "--seed", "1",
                  "--out", str(out))
    assert res.returncode == 0
    assert "lemma-4.2" in res.stderr
    payload = json.loads(out.read_text())
    assert payload["theorem_id"] == "lemma-4.2"
    assert all(c["pass"] for c in payload["checks"])


def test_verify_unknown_id_usage_error():
    res = run_cli("verify", "bogus")
    assert res.returncode == 2
    assert "lemma-4.2" in res.stderr  # registry listed in the message


def test_verify_tol_override_forces_failure(workdir):
    res = run_cli("verify", "lemma-4.2", "--n", "2",
                  "--tol", "split_residual=1e-20")
    assert res.returncode == 2


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


def test_invariance_constrained_command(workdir):
    spec_path = workdir / "cspec.json"
    spec_path.write_text(json.dumps({
        "inners": [function_to_json(monomial(0, 1024))],
        "beta": [[[0.6, 0.0]], [[0.8, 0.0]]],
        "multiplier": {"power": 1},
    }))
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
