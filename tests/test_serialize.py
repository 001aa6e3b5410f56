"""JSON round trips and deterministic formatting."""

import json
import warnings

import numpy as np
import pytest

from hardy import (
    ArcWeighted,
    BlaschkeSpec,
    CircleFunction,
    ConvexCombo,
    MaxOf,
    ParameterError,
    PNorm,
    SizeError,
    SupNorm,
    TruncationError,
    dump_json,
    function_from_json,
    function_to_json,
    gauge_eval,
    norm_spec_from_json,
    norm_spec_to_json,
    subspace_from_json,
    synthesize,
    zeros_from_json,
    zeros_to_json,
)
from hardy.serialize import _constrained_spec_from_json, atomic_write_text


def test_function_round_trip():
    f = synthesize({-2: 1.0 + 2.0j, 0: -0.5, 7: 3.0}, 256)
    g = function_from_json(function_to_json(f))
    assert g.n_samples == 256
    assert np.max(np.abs(f.coeffs - g.coeffs)) < 1e-15


def test_function_json_sums_duplicate_indices():
    g = function_from_json(
        {"n_samples": 64, "coeffs": [[1, 1.0, 0.0], [1, 0.5, 0.0]]})
    assert g.coeff(1) == pytest.approx(1.5, abs=1e-13)


def test_function_file_keeps_its_signed_zeros():
    # 1 - 0i and -0 + 0.5i: a load keeps the sign of each zero part
    c = np.zeros(64, dtype=complex)
    c[32:34] = complex(1.0, -0.0), complex(-0.0, 0.5)
    text = dump_json(function_to_json(CircleFunction.from_coeffs(c)))
    assert text.count("-0.0") == 2
    g = function_from_json(json.loads(text))
    assert dump_json(function_to_json(g)) == text


def _random_function_file(rng, built):
    """A function file of a seeded random function: sparse coefficients
    over magnitudes 1e-150 ... 1e150 with signed zeros, or samples."""
    N = 1 << int(rng.integers(2, 13))
    if built == "samples":
        return function_to_json(CircleFunction.from_samples(
            rng.standard_normal(N) + 1j * rng.standard_normal(N)))
    c = np.zeros(N, dtype=complex)
    pos = rng.choice(N, size=int(rng.integers(1, N + 1)), replace=False)
    parts = (rng.standard_normal((2, pos.size))
             * 10.0 ** rng.uniform(-150, 150, (2, pos.size)))
    parts[rng.random(parts.shape) < 0.1] = -0.0
    c[pos] = parts[0] + 1j * parts[1]
    return function_to_json(CircleFunction.from_coeffs(c))


@pytest.mark.parametrize("built", ["coeffs", "samples"])
def test_function_file_is_a_load_save_fixed_point(tmp_path, built):
    rng = np.random.default_rng(22 if built == "coeffs" else 23)
    path = tmp_path / "f.json"
    for _ in range(40):
        text = dump_json(_random_function_file(rng, built))
        atomic_write_text(str(path), text)
        again = dump_json(function_to_json(
            function_from_json(json.loads(path.read_text()))))
        assert again == text


def test_function_json_requires_fields():
    with pytest.raises(ParameterError):
        function_from_json({"coeffs": []})


def test_overflowing_function_file_is_refused_without_warning(tmp_path):
    # the samples are synthesized where they are first read, which must
    # be inside the overflow check
    path = tmp_path / "huge.json"
    path.write_text('{"n_samples": 1024, '
                    '"coeffs": [[0, 1e308, 0.0], [1, 1e308, 0.0]]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="overflowing"):
            function_from_json(json.loads(path.read_text()))


def test_zeros_round_trip():
    spec = BlaschkeSpec((0.1, -0.2j, 0.3 + 0.4j))
    again = zeros_from_json(zeros_to_json(spec))
    assert again.zeros == spec.zeros


def test_norm_spec_round_trips():
    specs = [
        PNorm(1.5),
        SupNorm(),
        MaxOf((PNorm(1.0), SupNorm())),
        ConvexCombo((0.25, 0.75), (PNorm(1.0), PNorm(3.0))),
        ArcWeighted((0.0, np.pi), PNorm(2.0), PNorm(1.0), n_samples=512),
    ]
    f = synthesize({0: 1.0, 3: -2.0j}, 512)
    for spec in specs:
        clone = norm_spec_from_json(norm_spec_to_json(spec))
        assert gauge_eval(clone, f) == pytest.approx(
            gauge_eval(spec, f), abs=1e-12), spec.kind


def test_norm_spec_unknown_kind():
    with pytest.raises(ParameterError):
        norm_spec_from_json({"kind": "mystery"})


def test_dump_json_is_stable():
    payload = {"b": 1.0 / 3.0, "a": [1, 2.5e-13]}
    text = dump_json(payload)
    assert text == dump_json(payload)
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    # shortest round-trip float formatting
    assert "0.3333333333333333" in text


def test_dump_json_rejects_nothing_common():
    import json
    parsed = json.loads(dump_json({"x": np.float64(0.5), "y": np.int64(3)}))
    assert parsed == {"x": 0.5, "y": 3}


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_numbers_are_refused(bad):
    with pytest.raises(ParameterError):
        function_from_json({"n_samples": 8, "coeffs": [[0, bad, 0.0]]})
    with pytest.raises(ParameterError):
        zeros_from_json({"zeros": [[0.1, bad]]})
    with pytest.raises(ParameterError, match="non-finite"):
        norm_spec_from_json({"kind": "p_norm", "p": bad})
    with pytest.raises(ParameterError):
        subspace_from_json({"ambient_bandwidth": 1, "n_samples": 8,
                            "basis": [[[bad, 0.0], [0.0, 0.0]]]})
    with pytest.raises(ParameterError, match="non-finite"):
        _constrained_spec_from_json({
            "inners": [function_to_json(synthesize({0: 1.0}, 8))],
            "beta": [[[bad, 0.0]], [[0.0, 0.0]]], "multiplier": {"power": 1}})
    with pytest.raises(ValueError):
        dump_json({"residual": bad})


def _space_json(D, rows, N=64):
    return {"ambient_bandwidth": D, "n_samples": N,
            "basis": [[[float(re), 0.0] for re in row] for row in rows]}


def test_subspace_rows_may_carry_zeros_beyond_the_band():
    space = subspace_from_json(_space_json(2, [[0, 1, 0, 0, 0], [1]]))
    assert space.taylor.shape == (3, 2)
    assert np.array_equal(space.taylor, np.eye(3)[:, [1, 0]])


@pytest.mark.parametrize("obj, error", [
    (_space_json(2, [[0, 1] + [0] * 40]), TruncationError),  # > N/2 entries
    (_space_json(2, [[0, 1, 0, 1]]), TruncationError),  # index 3 beyond D
    (_space_json(40, [[1]]), SizeError),  # band beyond the grid
    (_space_json(2, [[1]], N=48), SizeError),  # not a power of two
])
def test_malformed_subspace_rows_raise_typed_errors(obj, error):
    with pytest.raises(error):
        subspace_from_json(obj)
