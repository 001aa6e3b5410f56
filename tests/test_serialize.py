"""JSON round trips and deterministic formatting."""

import json
import sys
import warnings
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    as_circle_function,
    dump_json,
    function_from_json,
    function_to_json,
    gauge_eval,
    monomial,
    norm_spec_from_json,
    norm_spec_to_json,
    span_invariant,
    subspace_from_json,
    subspace_to_json,
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
    # the reader synthesizes the samples, so a file whose finite
    # coefficients overflow there is refused at the file boundary
    path = tmp_path / "huge.json"
    path.write_text('{"n_samples": 1024, '
                    '"coeffs": [[0, 1e308, 0.0], [1, 1e308, 0.0]]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="overflow"):
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


# json reads an integer literal beyond the float range as a Python int
_BEYOND_FLOAT = 10 ** 400


def test_function_reader_refuses_an_integer_beyond_float_range():
    with pytest.raises(ParameterError, match="float range"):
        function_from_json({"n_samples": 8,
                            "coeffs": [[0, 1.0, _BEYOND_FLOAT]]})


def test_zeros_reader_refuses_an_integer_beyond_float_range():
    with pytest.raises(ParameterError, match="float range"):
        zeros_from_json({"zeros": [[-_BEYOND_FLOAT, 0.0]]})


def test_subspace_reader_refuses_an_integer_beyond_float_range():
    with pytest.raises(ParameterError, match="basis row 1"):
        subspace_from_json({"ambient_bandwidth": 1, "n_samples": 8,
                            "basis": [[[1.0, 0.0]],
                                      [[0.0, 0.0], [_BEYOND_FLOAT, 0]]]})


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
    ({**_space_json(2, []), "basis": [[1.0, 0.0]]}, ParameterError),  # flat
    ({**_space_json(2, []), "basis": [[[[1.0, 0.0]]]]}, ParameterError),
    ({**_space_json(2, []), "basis": [[[]]]}, ParameterError),  # empty pair
])
def test_malformed_subspace_rows_raise_typed_errors(obj, error):
    with pytest.raises(error):
        subspace_from_json(obj)


def test_recipe_free_basis_keeps_its_signed_zeros():
    obj = {**_space_json(2, []),
           "basis": [[[-0.0, -0.0], [1.0, -0.0]], [[0.0, 1.0]]]}
    # rows (band index) by columns (basis vector) by [re, im]
    expected = np.array([[[-0.0, -0.0], [0.0, 1.0]], [[1.0, -0.0], [0.0, 0.0]],
                         [[0.0, 0.0], [0.0, 0.0]]]).view(complex)[..., 0]
    loaded = subspace_from_json(obj).taylor
    assert loaded.tobytes() == np.ascontiguousarray(expected).tobytes()


# --- dump_json against the standard library's indented encoder -----------

def _plain(value):
    """The oracle's pre-pass: numpy scalars and sequences as JSON types."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.complexfloating):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _oracle(obj):
    return json.dumps(_plain(obj), sort_keys=True, indent=2,
                      ensure_ascii=False, allow_nan=False) + "\n"


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-5, sys.float_info.max,
                -sys.float_info.max, 1.0 / 3.0]
_finite = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from(_EDGE_FLOATS))
_ints = st.integers() | st.sampled_from([10 ** 400, -(2 ** 1000), 2 ** 63])
_f32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
_text = st.text() | st.sampled_from(
    ['"', "\\", '\\"', "\x00\x01\x1f\x7f", "\b\f\n\r\t", "é ∞ 😀", " "])


def _arrays(dtype, elements):
    return hnp.arrays(dtype, hnp.array_shapes(min_dims=1, max_dims=2,
                                              min_side=0, max_side=3),
                      elements=elements)


_numpy = st.one_of(
    st.booleans().map(np.bool_),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    _finite.map(np.float64),
    _f32.map(np.float32),
    st.builds(complex, _finite, _finite).map(np.complex128),
    _arrays(np.float64, _finite),
    _arrays(np.float32, _f32),
    _arrays(np.int64, st.integers(-2 ** 63, 2 ** 63 - 1)),
    _arrays(np.bool_, st.booleans()),
    _arrays(np.complex128, st.complex_numbers(allow_nan=False,
                                              allow_infinity=False)),
)
# Lists of equal-length rows of Python numbers, the shape of a function's
# coefficient entries and a basis column's [re, im] pairs.
_number_rows = st.integers(0, 4).flatmap(lambda w: st.lists(
    st.lists(_finite | _ints, min_size=w, max_size=w), max_size=5))
_leaves = (st.none() | st.booleans() | _ints | _finite | _text | _numpy
           | st.builds(complex, _finite, _finite) | _number_rows)
_values = st.recursive(_leaves, lambda kids: (
    st.lists(kids, max_size=4)
    | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(st.integers(-3, 3) | st.text(max_size=2), kids,
                      max_size=4)), max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(_values)
@example({1: "int key", "1": "str key"})
@example(list(_EDGE_FLOATS))
@example([[10 ** 400, 1.0], [1, -0.0]])
@example([[1, 2.5, -0.0], [3, 1e16, 5e-324]])
@example([[1.0], [2.0, 3.0]])
@example([[], []])
@example([[1.0, [2.0]], [3.0, 4.0]])
@example({"rows": [[True, 1.0]], "empty": [{}, [], ()]})
def test_dump_json_matches_the_stdlib_encoder(obj):
    assert dump_json(obj) == _oracle(obj)


def test_colliding_keys_keep_the_last_value():
    assert dump_json({1: "a", "1": "b"}) == '{\n  "1": "b"\n}\n'


@pytest.mark.parametrize("bad", [
    float("nan"), float("inf"), -float("inf"), np.float32("inf"),
    complex(0.0, float("nan")), np.array([1.0, float("inf")]),
    [[1.0, float("nan")]], {"a": [[0, 1.0, -float("inf")]]},
    [[10 ** 400, float("inf")]],
])
def test_dump_json_refuses_non_finite_numbers(bad):
    with pytest.raises(ValueError):
        _oracle(bad)
    with pytest.raises(ValueError, match="not JSON compliant"):
        dump_json(bad)


@pytest.mark.parametrize("bad", [
    object(), {1, 2}, b"bytes", np.array(0.5), {"a": [object()]},
    [[1.0, object()]], (x for x in [1]),
])
def test_dump_json_refuses_unknown_objects(bad):
    with pytest.raises(TypeError):
        _oracle(bad)
    with pytest.raises(TypeError):
        dump_json(bad)


def test_dump_json_matches_the_stdlib_encoder_on_payloads(tmp_path):
    rng = np.random.default_rng(28)
    c = rng.standard_normal(8192) + 1j * rng.standard_normal(8192)
    c[rng.random(8192) < 0.1] = complex(-0.0, 0.5)
    c[rng.random(8192) < 0.1] = complex(1.5, -0.0)
    c[rng.random(8192) < 0.1] = 0.0
    f_obj = function_to_json(CircleFunction.from_coeffs(c))
    z = monomial(1, 1024)
    space = span_invariant([z, monomial(3, 1024)], z, k_max=20, D=40)
    assert space.recipe is not None
    for obj in (f_obj, subspace_to_json(space)):
        text = dump_json(obj)
        assert text == _oracle(obj)
        atomic_write_text(str(tmp_path / "out.json"), text)
        assert (tmp_path / "out.json").read_text(encoding="utf-8") == text


def test_cli_payloads_match_the_stdlib_encoder(tmp_path, monkeypatch):
    from hardy import cli
    texts = []

    def recorded(payload):
        texts.append(dump_json(payload))
        assert texts[-1] == _oracle(payload)
        return texts[-1]

    monkeypatch.setattr(cli, "dump_json", recorded)
    rng = np.random.default_rng(28)
    taylor = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    for name, obj in (
            ("f", function_to_json(synthesize(dict(enumerate(taylor)), 1024))),
            ("g", function_to_json(as_circle_function(
                BlaschkeSpec((0.3, -0.2j)), 1024))),
            ("z", zeros_to_json(BlaschkeSpec((0.0, 0.5, -0.5j))))):
        atomic_write_text(str(tmp_path / f"{name}.json"), dump_json(obj))
    f, g, z, span = (str(tmp_path / name) for name in
                     ("f.json", "g.json", "z.json", "span.json"))
    for argv in (["factor", "ninner", "--fn", f, "--n", "2"],
                 ["decompose", "--fn", f, "--mode", "blaschke", "--zeros", z],
                 ["invariance", "span", "--generators", g, "--power", "2",
                  "--kmax", "20", "--band", "60"],
                 ["invariance", "defect", "--subspace", span, "--power", "2"],
                 ["invariance", "wandering", "--subspace", span, "--power",
                  "2"]):
        out = span if argv[1] == "span" else str(tmp_path / "out.json")
        assert cli.main([*argv, "--out", out]) == 0
        with open(out, encoding="utf-8") as handle:
            assert handle.read() == texts[-1]
    assert len(texts) == 5
