"""JSON formats and atomic file output.

Formats:
  function   {"n_samples": N, "coeffs": [[j, re, im], ...]}  (nonzero only)
  zeros      {"zeros": [[re, im], ...]}
  norm spec  {"kind": "p_norm", "p": 2} and friends
  subspace   {"ambient_bandwidth": D, "n_samples": N,
              "basis": [[[re, im], ...], ...], "generators": {...}}

Numbers pass through float() so every emitted value is a plain Python
float rendered by its shortest exact decimal form; identical inputs
produce byte-identical files.  NaN and infinity are refused on reading
and on writing, since JSON has no token for them.  Files are written to
a temporary in the same directory and renamed into place, never left
half-written.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Mapping

import numpy as np

from .blaschke import BlaschkeSpec
from .circlefn import CircleFunction, synthesize
from .errors import ParameterError
from .invariance import SubspaceBasis
from .norms import (
    ArcWeighted,
    ConvexCombo,
    GaugeNormSpec,
    MaxOf,
    PNorm,
    SupNorm,
)

__all__ = [
    "function_to_json",
    "function_from_json",
    "zeros_to_json",
    "zeros_from_json",
    "norm_spec_to_json",
    "norm_spec_from_json",
    "subspace_to_json",
    "subspace_from_json",
    "dump_json",
    "atomic_write_text",
    "write_json",
]


def _real(x) -> float:
    return float(np.real(x))


def _imag(x) -> float:
    return float(np.imag(x))


def _finite(x: complex) -> complex:
    if not np.isfinite(x):
        raise ParameterError(f"non-finite number {x} in the input")
    return x


def function_to_json(f: CircleFunction) -> dict:
    N = f.n_samples
    half = N // 2
    entries = []
    for pos in np.nonzero(f.coeffs)[0]:
        c = f.coeffs[pos]
        entries.append([int(pos) - half, _real(c), _imag(c)])
    return {"n_samples": N, "coeffs": entries}


def function_from_json(obj: Mapping) -> CircleFunction:
    try:
        n = int(obj["n_samples"])
        entries = obj["coeffs"]
    except (KeyError, TypeError) as exc:
        raise ParameterError(
            "function JSON needs 'n_samples' and 'coeffs'") from exc
    coeffs = {}
    for j, re, im in entries:
        coeffs[int(j)] = coeffs.get(int(j), 0.0) + complex(float(re), float(im))
    # NaN, inf and overflow in the inverse FFT leave non-finite samples.
    with np.errstate(over="ignore", invalid="ignore"):
        f = synthesize(coeffs, n)
    if not np.all(np.isfinite(f.samples)):
        raise ParameterError("non-finite or overflowing function input")
    return f


def zeros_to_json(spec: BlaschkeSpec) -> dict:
    return {"zeros": [[_real(a), _imag(a)] for a in spec.zeros]}


def zeros_from_json(obj: Mapping) -> BlaschkeSpec:
    try:
        pairs = obj["zeros"]
    except (KeyError, TypeError) as exc:
        raise ParameterError("zeros JSON needs a 'zeros' list") from exc
    return BlaschkeSpec(tuple(_finite(complex(float(re), float(im)))
                              for re, im in pairs))


def norm_spec_to_json(spec: GaugeNormSpec) -> dict:
    if isinstance(spec, PNorm):
        return {"kind": "p_norm", "p": float(spec.p)}
    if isinstance(spec, SupNorm):
        return {"kind": "sup_norm"}
    if isinstance(spec, MaxOf):
        return {"kind": "max_of",
                "parts": [norm_spec_to_json(s) for s in spec.parts]}
    if isinstance(spec, ConvexCombo):
        return {"kind": "convex_combo",
                "weights": [float(w) for w in spec.weights],
                "parts": [norm_spec_to_json(s) for s in spec.parts]}
    if isinstance(spec, ArcWeighted):
        return {"kind": "arc_weighted",
                "arc": [float(spec.arc[0]), float(spec.arc[1])],
                "inside": norm_spec_to_json(spec.inside),
                "outside": norm_spec_to_json(spec.outside),
                "n_samples": int(spec.n_samples)}
    raise ParameterError(f"cannot serialize norm spec {type(spec).__name__}")


def norm_spec_from_json(obj: Mapping) -> GaugeNormSpec:
    try:
        kind = obj["kind"]
    except (KeyError, TypeError) as exc:
        raise ParameterError("norm spec JSON needs a 'kind'") from exc
    if kind == "p_norm":
        return PNorm(float(obj["p"]))
    if kind == "sup_norm":
        return SupNorm()
    if kind == "max_of":
        return MaxOf(tuple(norm_spec_from_json(s) for s in obj["parts"]))
    if kind == "convex_combo":
        return ConvexCombo(tuple(float(w) for w in obj["weights"]),
                           tuple(norm_spec_from_json(s)
                                 for s in obj["parts"]))
    if kind == "arc_weighted":
        kwargs = {}
        if "n_samples" in obj:
            kwargs["n_samples"] = int(obj["n_samples"])
        return ArcWeighted(arc=(float(obj["arc"][0]), float(obj["arc"][1])),
                           inside=norm_spec_from_json(obj["inside"]),
                           outside=norm_spec_from_json(obj["outside"]),
                           **kwargs)
    raise ParameterError(f"unknown norm spec kind {kind!r}")


_RECIPE_SAMPLE_KEYS = ("base_samples", "prefix_samples")
_RECIPE_LIST_KEYS = ("generator_samples", "extra_samples")


def _samples_to_json(samples: np.ndarray) -> dict:
    return function_to_json(CircleFunction.from_samples(np.asarray(samples)))


def subspace_to_json(space: SubspaceBasis) -> dict:
    D = space.ambient_bandwidth
    N = space.n_samples
    half = N // 2
    rows = []
    for v in space.basis:
        taylor = v.coeffs[half:half + D + 1]
        rows.append([[_real(c), _imag(c)] for c in taylor])
    # The provenance splits into scalars and the build recipe (raw
    # sample arrays driving the graded defect measurement).  The recipe
    # rides along as coefficient lists so a reloaded space measures the
    # same way the freshly built one does.
    generators = {}
    recipe = {}
    for key, value in dict(space.generators).items():
        if isinstance(value, (str, int, float, bool)):
            generators[key] = value
        elif key in _RECIPE_SAMPLE_KEYS:
            recipe[key] = _samples_to_json(value)
        elif key in _RECIPE_LIST_KEYS:
            recipe[key] = [_samples_to_json(s) for s in value]
    out = {
        "ambient_bandwidth": D,
        "n_samples": N,
        "basis": rows,
        "generators": generators,
    }
    if recipe:
        out["recipe"] = recipe
    return out


def subspace_from_json(obj: Mapping) -> SubspaceBasis:
    try:
        D = int(obj["ambient_bandwidth"])
        N = int(obj["n_samples"])
        rows = obj["basis"]
    except (KeyError, TypeError) as exc:
        raise ParameterError(
            "subspace JSON needs 'ambient_bandwidth', 'n_samples' and "
            "'basis'") from exc
    members = []
    half = N // 2
    for row in rows:
        c = np.zeros(N, dtype=complex)
        for idx, (re, im) in enumerate(row):
            c[half + idx] = _finite(complex(float(re), float(im)))
        members.append(CircleFunction.from_coeffs(c))
    generators = dict(obj.get("generators", {}))
    for key, value in dict(obj.get("recipe", {})).items():
        if key in _RECIPE_SAMPLE_KEYS:
            generators[key] = function_from_json(value).samples
        elif key in _RECIPE_LIST_KEYS:
            generators[key] = [function_from_json(v).samples for v in value]
    return SubspaceBasis(ambient_bandwidth=D, basis=tuple(members),
                         generators=generators)


def _plain(value):
    """Recursively coerce numpy scalars and sequences into JSON types."""
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


def dump_json(obj) -> str:
    """Canonical text: sorted keys, two-space indent, trailing newline.

    A NaN or infinite value raises ValueError.
    """
    return json.dumps(_plain(obj), sort_keys=True, indent=2,
                      ensure_ascii=False, allow_nan=False) + "\n"


def atomic_write_text(path: str, text: str):
    """Write via a temporary file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj):
    atomic_write_text(path, dump_json(obj))
