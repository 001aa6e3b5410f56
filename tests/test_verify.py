"""The named suite runner: registry, config validation, determinism."""

import json
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from hardy import (
    _THREAD_VARIABLES,
    ParameterError,
    RunConfig,
    SizeError,
    registry_ids,
    run_verification,
)


def test_registry_lists_eight_ids_sorted():
    ids = registry_ids()
    assert len(ids) == 8
    assert list(ids) == sorted(ids)
    assert "lemma-4.2" in ids
    assert "thm-5.4" in ids


def test_unknown_id_names_the_registry():
    with pytest.raises(ParameterError) as err:
        run_verification("nope")
    msg = str(err.value)
    for tid in registry_ids():
        assert tid in msg


def test_config_validation():
    with pytest.raises(SizeError):
        RunConfig(n_samples=100)
    with pytest.raises(SizeError):
        RunConfig(n_samples=2)
    # integers only: a fraction or a boolean is refused, an np.int64 is
    # read as an int
    with pytest.raises(SizeError, match="n_samples must be an integer, "
                                        "got 1024.5"):
        RunConfig(n_samples=1024.5)
    cfg = RunConfig(n_samples=np.int64(512))
    assert cfg.n_samples == 512
    assert type(cfg.n_samples) is int


@pytest.mark.parametrize("tid", ["lemma-2.4", "lemma-4.1", "lemma-4.2",
                                 "thm-4.6", "thm-5.4"])
def test_suite_runs_on_its_smallest_grid_and_refuses_a_smaller_one(tid):
    from hardy.errors import HardyError
    from hardy.verify import REGISTRY, SMALLEST_GRID
    assert set(SMALLEST_GRID) == set(REGISTRY)
    run, smallest = REGISTRY[tid], SMALLEST_GRID[tid]
    assert run_verification(tid, RunConfig(n_samples=smallest, seed=1)).passed
    half = RunConfig(n_samples=smallest // 2, seed=1)
    with pytest.raises(ParameterError,
                       match=f"{tid} needs n_samples >= {smallest}, got "
                             f"{smallest // 2}"):
        run_verification(tid, half)
    # the bound is tight: the suite itself cannot run on half the grid
    with pytest.raises(HardyError):
        run(half)


def test_fast_suite_passes_and_reports():
    rep = run_verification("lemma-4.2", RunConfig(seed=1))
    assert rep.passed
    assert rep.theorem_id == "lemma-4.2"
    assert rep.wall_time > 0.0
    names = [c.name for c in rep.checks]
    assert "split_residual" in names
    d = rep.as_dict()
    assert d["wall_time"] is None
    assert all("pass" in c for c in d["checks"])


def test_reports_are_seed_deterministic():
    a = run_verification("lemma-4.2", RunConfig(seed=4))
    b = run_verification("lemma-4.2", RunConfig(seed=4))
    assert a.as_dict() == b.as_dict()
    c = run_verification("lemma-4.2", RunConfig(seed=5))
    assert [x.measured for x in a.checks] != [y.measured for y in c.checks]


def test_a_failing_row_fails_the_report(failing_suite):
    rep = run_verification("lemma-4.2", RunConfig(seed=1))
    assert rep.passed is False
    assert rep.as_dict()["passed"] is False
    failed = [c for c in rep.checks if not c.passed]
    assert [c.name for c in failed] == ["averaging_agreement"]
    assert failed[0].threshold == 1e-12
    assert failed[0].measured == 1e-3


# The SHA-256 of every suite's canonical report at seed 1, computed in a
# child process with OPENBLAS_NUM_THREADS set.  hardy runs its dense
# linear algebra on one OpenBLAS thread whatever the caller's setting,
# so the bytes must not depend on it: the digests are checked with one
# thread and again with two.  tests/data/verify_digests.json holds the
# digests as recorded with
# `PYTHONPATH=src python tests/test_verify.py > tests/data/verify_digests.json`;
# a change that moves a digit of any report shows up here.  The record
# also names what picks the floating-point kernels: numpy's version, the
# BLAS it was built with, the machine and the CPU features numpy found
# (OpenBLAS chooses its kernels by the same CPU).  On another platform
# the test skips rather than compare bits it cannot expect to match.
DIGESTS = os.path.join(os.path.dirname(__file__), "data",
                       "verify_digests.json")
_DIGEST_CHILD = """
import hashlib, json
from hardy.serialize import dump_json
from hardy.verify import RunConfig, registry_ids, run_verification
print(json.dumps({tid: hashlib.sha256(dump_json(run_verification(
    tid, RunConfig(seed=1)).as_dict()).encode("utf-8")).hexdigest()
    for tid in registry_ids()}))
"""


def platform_record():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "machine": platform.machine(),
        "cpu_features": sorted(k for k, v in __cpu_features__.items() if v),
    }


def report_digests(src=os.path.join(os.path.dirname(__file__), "..", "src"),
                   threads="1"):
    """The digest record of the hardy under ``src``, the digests from a
    child process with ``threads`` OpenBLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [os.path.abspath(src),
                                 os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _DIGEST_CHILD], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    return json.dumps({"platform": platform_record(), "seed": 1,
                       "digests": json.loads(out.stdout)},
                      indent=2, sort_keys=True) + "\n"


def _recorded_or_skip():
    """The digest record, or a skip on another platform than its own."""
    with open(DIGESTS, encoding="utf-8") as handle:
        recorded = json.load(handle)
    here = platform_record()
    differs = sorted(key for key in recorded["platform"]
                     if here.get(key) != recorded["platform"][key])
    if differs:
        pytest.skip(f"digests recorded on another platform "
                    f"({', '.join(differs)} differ)")
    return recorded


def _assert_recorded_digests(threads):
    recorded = _recorded_or_skip()
    now = json.loads(report_digests(threads=threads))
    assert sorted(now["digests"]) == sorted(recorded["digests"])
    moved = [tid for tid in recorded["digests"]
             if now["digests"][tid] != recorded["digests"][tid]]
    assert moved == [], (f"reports changed at seed 1 with {threads} BLAS "
                         f"thread(s): {moved}")


def test_reports_match_recorded_digests():
    _assert_recorded_digests("1")


def test_reports_do_not_depend_on_the_blas_thread_count():
    # at the default two threads thm-3.5, thm-3.6 and thm-4.5 once hashed
    # differently: their Gram, Cholesky and eigen products ran threaded
    _assert_recorded_digests("2")


# The cli benchmark workload's commands at seed 1 (perfbench/workloads.py),
# each argv with its --out file, in the workload's order; the workload
# writes its input files to the directory given first.
_CLI_COMMANDS_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[2])
import hardy, workloads
cli = workloads.CliWorkload(hardy, 1, sys.argv[1])
print(json.dumps([[*argv, "--out", cli._out(kind)]
                  for kind, argv, *_ in cli.commands]))
"""


def test_cli_payloads_do_not_depend_on_the_blas_thread_count(tmp_path):
    # A CLI child starts OpenBLAS on one thread when the caller sets no
    # count; that may make it faster, never change its answers.
    _recorded_or_skip()
    perfbench = os.path.join(os.path.dirname(__file__), "..", "perfbench")
    commands = json.loads(subprocess.run(
        [sys.executable, "-c", _CLI_COMMANDS_CHILD, str(tmp_path), perfbench],
        capture_output=True, text=True, check=True, timeout=120).stdout)
    assert len(commands) == 9
    payloads = []
    for thread_env in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        env = {k: v for k, v in os.environ.items()
               if k not in _THREAD_VARIABLES}
        env.update(thread_env)
        for argv in commands:
            subprocess.run([sys.executable, "-m", "hardy.cli", *argv],
                           env=env, capture_output=True, check=True,
                           timeout=120)
        payloads.append([pathlib.Path(argv[-1]).read_bytes()
                         for argv in commands])
    moved = [" ".join(argv[:2]) for argv, one, two
             in zip(commands, *payloads) if one != two]
    assert moved == []


if __name__ == "__main__":
    sys.stdout.write(report_digests(*sys.argv[1:]))
