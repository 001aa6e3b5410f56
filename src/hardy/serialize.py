"""JSON formats and atomic file output.

Formats:
  function   {"n_samples": N, "coeffs": [[j, re, im], ...]}  (nonzero only)
  zeros      {"zeros": [[re, im], ...]}
  norm spec  {"kind": "p_norm", "p": 2} and friends
  subspace   {"ambient_bandwidth": D, "n_samples": N,
              "basis": [[[re, im], ...], ...], "generators": {...},
              "recipe": {"base_samples": step, "generator_samples":
                         starts, "extra_samples": head}}  (GradedRecipe
             as functions, k_max in generators; a span has no head)
  constrained  {"inners": [function, ...], "beta": [[[re, im], ...], ...],
                "multiplier": {"power": p} or a zeros object}  (read only)

A subspace with a recipe loads as the space the recipe rebuilds, bit
for bit the one written, and is refused unless its basis spans that.

dump_json writes every JSON file, byte for byte the standard library's
sorted, indented output; each number is its shortest exact decimal
form, so identical inputs produce byte-identical files.  NaN and
infinity are refused on reading and on writing, having no JSON token.
A field that holds an integer refuses a fraction or a boolean rather
than truncating it, and one that holds a real number refuses a boolean
or a string.
Files are written to a temporary in the same directory and renamed
into place, never left half-written.
"""

from __future__ import annotations

import math
import numbers
import os
import tempfile
from itertools import chain
from json.encoder import encode_basestring
from typing import Mapping

import numpy as np

from .blaschke import BlaschkeSpec
from .circlefn import (COEFF_CUTOFF, CircleFunction, _check_n_samples,
                       _integer, synthesize)
from .errors import ParameterError, TruncationError
from .invariance import (GRAM_TOL, ConstrainedSpec, GradedRecipe,
                         SubspaceBasis, _check_band, _defect, _recipe_space)
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
]


def _finite(x: complex) -> complex:
    if not np.isfinite(x):
        raise ParameterError(f"non-finite number {x} in the input")
    return x


def _complex(re, im) -> complex:
    """complex(float(re), float(im)); an out-of-range integer is refused."""
    try:
        return complex(float(re), float(im))
    except OverflowError:
        raise ParameterError("a number is beyond the float range") from None


def _real(x, name: str) -> float:
    """x as a finite float; a boolean or a non-number is refused, the
    real counterpart of circlefn._integer."""
    if isinstance(x, numbers.Real) and not isinstance(x, bool):
        return _finite(float(x))
    raise ParameterError(f"{name} must be a number, got {x!r}")


def function_to_json(f: CircleFunction) -> dict:
    N = f.n_samples
    pos = np.flatnonzero(f.coeffs)
    c = f.coeffs[pos]
    # tolist() gives the same Python ints and floats as int() and float()
    entries = list(map(list, zip((pos - N // 2).tolist(), c.real.tolist(),
                                 c.imag.tolist())))
    return {"n_samples": N, "coeffs": entries}


def function_from_json(obj: Mapping) -> CircleFunction:
    try:
        n = _integer(obj["n_samples"], "n_samples")
        entries = obj["coeffs"]
    except (KeyError, TypeError) as exc:
        raise ParameterError(
            "function JSON needs 'n_samples' and 'coeffs'") from exc
    coeffs = {}
    for j, re, im in entries:
        # the first entry is kept as written, so a signed zero survives
        j, c = _integer(j, "coefficient index"), _complex(re, im)
        coeffs[j] = coeffs[j] + c if j in coeffs else c
    f = synthesize(coeffs, n)
    f.samples  # read here, so a file whose samples overflow is refused
    return f


def zeros_to_json(spec: BlaschkeSpec) -> dict:
    return {"zeros": [[a.real, a.imag] for a in spec.zeros]}


def zeros_from_json(obj: Mapping) -> BlaschkeSpec:
    try:
        pairs = obj["zeros"]
    except (KeyError, TypeError) as exc:
        raise ParameterError("zeros JSON needs a 'zeros' list") from exc
    return BlaschkeSpec(tuple(_finite(_complex(re, im)) for re, im in pairs))


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
        return PNorm(_real(obj["p"], "p"))
    if kind == "sup_norm":
        return SupNorm()
    if kind == "max_of":
        return MaxOf(tuple(norm_spec_from_json(s) for s in obj["parts"]))
    if kind == "convex_combo":
        return ConvexCombo(tuple(_real(w, "weight") for w in obj["weights"]),
                           tuple(norm_spec_from_json(s)
                                 for s in obj["parts"]))
    if kind == "arc_weighted":
        kwargs = {}
        if "n_samples" in obj:
            kwargs["n_samples"] = _integer(obj["n_samples"], "n_samples")
        arc = obj["arc"]
        return ArcWeighted(arc=(_real(arc[0], "arc"), _real(arc[1], "arc")),
                           inside=norm_spec_from_json(obj["inside"]),
                           outside=norm_spec_from_json(obj["outside"]),
                           **kwargs)
    raise ParameterError(f"unknown norm spec kind {kind!r}")


def subspace_to_json(space: SubspaceBasis) -> dict:
    out = {
        "ambient_bandwidth": space.ambient_bandwidth,
        "n_samples": space.n_samples,
        "basis": np.stack((space.taylor.T.real, space.taylor.T.imag),
                          axis=-1).tolist(),
        "generators": dict(space.generators),
    }
    # The build recipe rides along in its own coefficients, so a
    # reloaded space is the freshly built one.
    r = space.recipe
    if r is not None:
        out["generators"]["k_max"] = r.k_max
        out["recipe"] = {
            "base_samples": function_to_json(r.step),
            "generator_samples": [function_to_json(s) for s in r.starts],
        }
        if r.head:
            out["recipe"]["extra_samples"] = [function_to_json(s)
                                              for s in r.head]
    return out


def _recipe_from_json(obj: Mapping, generators: Mapping) -> GradedRecipe:
    """A file's recipe, whole or refused: without one the defect would
    take the recipe-free path and could change its verdict."""
    def functions(objs):
        return tuple(function_from_json(v) for v in objs)
    try:
        unknown = sorted(set(obj) - {"base_samples", "generator_samples",
                                     "extra_samples"})
        recipe = GradedRecipe(functions(obj.get("extra_samples", ())),
                              functions(obj["generator_samples"]),
                              function_from_json(obj["base_samples"]),
                              _integer(generators["k_max"], "k_max"))
    except (AttributeError, KeyError, TypeError) as exc:
        raise ParameterError(
            f"a recipe needs 'base_samples', 'generator_samples' and "
            f"generators.k_max: {exc!r}") from exc
    if unknown:
        raise ParameterError(f"unknown recipe keys {unknown}; files that "
                             f"store 'prefix_samples' are from an older "
                             f"version")
    return recipe


def subspace_from_json(obj: Mapping) -> SubspaceBasis:
    try:
        D = _integer(obj["ambient_bandwidth"], "ambient_bandwidth")
        N = _check_n_samples(_integer(obj["n_samples"], "n_samples"))
        rows = obj["basis"]
        generators = dict(obj.get("generators", {}))
    except (KeyError, TypeError) as exc:
        raise ParameterError(
            "subspace JSON needs 'ambient_bandwidth', 'n_samples' and "
            "'basis'") from exc
    _check_band(D, N)
    taylor = np.zeros((D + 1, len(rows)), dtype=complex)
    for j, row in enumerate(rows):
        try:
            pairs = np.asarray(row, dtype=float)
        except OverflowError:  # an integer beyond the float range
            pairs = np.array([np.inf])
        if (pairs.shape[1:] != (2,) and pairs.shape != (0,)
                or not np.all(np.isfinite(pairs))):
            raise ParameterError(f"basis row {j} is not a list of finite "
                                 f"[re, im] pairs")
        # a view, not re + 1j * im, which would turn -0.0 into 0.0
        col = pairs.reshape(-1, 2).view(complex)[:, 0]
        if col.size > N // 2 or np.any(np.abs(col[D + 1:]) > COEFF_CUTOFF):
            raise TruncationError(f"basis row {j} does not fit the band "
                                  f"0..{D} of a {N}-point grid")
        taylor[:col.size, j] = col[:D + 1]
    stored = SubspaceBasis(taylor, N, generators)
    if "recipe" not in obj:
        return stored
    recipe = _recipe_from_json(obj["recipe"], generators)
    if recipe.step.n_samples != N:
        raise ParameterError(f"the recipe lives on a grid of "
                             f"{recipe.step.n_samples}, the space on {N}")
    space = _recipe_space(recipe, recipe.rows(), D, generators)
    off = _defect(space.taylor, stored.taylor)
    if space.dim != stored.dim or not off <= GRAM_TOL:
        raise ParameterError(
            f"the stored basis ({stored.dim} vectors) does not span the "
            f"{space.dim} its recipe builds: {off:.3e} lies outside")
    return space


def _constrained_spec_from_json(obj: Mapping) -> ConstrainedSpec:
    inners = tuple(function_from_json(o) for o in obj["inners"])
    beta = np.array([[_finite(_complex(re, im)) for re, im in row]
                     for row in obj["beta"]], dtype=complex)
    mult = obj["multiplier"]
    multiplier = (_integer(mult["power"], "power") if "power" in mult
                  else zeros_from_json(mult))
    return ConstrainedSpec(inners=inners, beta=beta, multiplier=multiplier)


def dump_json(obj) -> str:
    """Canonical text, byte for byte ``json.dumps(obj, sort_keys=True,
    indent=2, ensure_ascii=False, allow_nan=False) + "\n"`` with numpy
    scalars and arrays read as Python numbers and lists, a complex number
    as [re, im] and each key as str(key), the last of colliding keys
    winning.  NaN or infinity raises ValueError, another type TypeError.
    """
    return _text(obj, "\n") + "\n"


def _text(value, nl: str) -> str:
    """value as JSON; nl is the newline and indent of its first line."""
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return int.__repr__(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if not math.isfinite(x):
            raise ValueError(f"Out of range float values are not JSON "
                             f"compliant: {x!r}")
        return float.__repr__(x)
    if isinstance(value, (complex, np.complexfloating)):
        return _text([value.real, value.imag], nl)
    if isinstance(value, np.ndarray):
        return _text(list(value.tolist()), nl)  # a 0-d array is refused
    inner = nl + "  "
    if isinstance(value, Mapping):
        plain = {str(k): v for k, v in value.items()}
        if not plain:
            return "{}"
        return ("{" + inner + ("," + inner).join(
            [encode_basestring(k) + ": " + _text(plain[k], inner)
             for k in sorted(plain)]) + nl + "}")
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return _number_rows(value, nl) or (
            "[" + inner + ("," + inner).join([_text(v, inner) for v in value])
            + nl + "]")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON "
                    f"serializable")


def _number_rows(rows, nl: str):
    """_text of a list of equal-length lists of finite Python ints and
    floats, in one template fill; None for any other value."""
    if (type(rows) is not list or set(map(type, rows)) != {list}
            or len(set(map(len, rows))) != 1):
        return None
    flat = list(chain.from_iterable(rows))
    if not flat or not set(map(type, flat)) <= {int, float}:
        return None
    cells = tuple(map(repr, flat))
    if not {"nan", "inf", "-inf"}.isdisjoint(cells):
        return None  # _text raises on the value
    inner, cell = nl + "  ", nl + "    "
    row = "[" + cell + ("," + cell).join(["%s"] * len(rows[0])) + inner + "]"
    return ("[" + inner + ("," + inner).join([row] * len(rows)) + nl
            + "]") % cells


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
