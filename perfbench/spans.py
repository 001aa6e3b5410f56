"""Span recorder for the traced benchmark run.

The recorder wraps, from outside the program, every function listed in
each hardy module's ``__all__``, plus ``CircleFunction.from_samples`` /
``from_coeffs``, each gauge-norm spec's ``_eval``, and numpy's
``fft.fft``, ``fft.ifft`` and ``linalg.svd``.  hardy's modules import
functions by name, so each wrapper is rebound in every ``hardy.*``
namespace that holds the original object.

A span has a name, start, end, parent span and op id; spans stay in
memory (flat arrays) until ``write``.  A layer's self time is its span
time minus the time covered by its child spans.  numpy kernel calls are
counted against the innermost open hardy span.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("circlefn", "norms", "blaschke", "decomp", "factor", "invariance",
          "verify", "serialize", "cli")
COUNTERS = ("calls", "self_s", "fft_calls", "fft_points", "svd_calls",
            "svd_s", "svd_elements")
SUITE_IDS = ("lemma-2.4", "lemma-4.1", "lemma-4.2", "thm-3.5", "thm-3.6",
             "thm-4.5", "thm-4.6", "thm-5.4")


class Tracer:
    def __init__(self):
        self.layers = {name: {c: 0.0 if c.endswith("_s") else 0
                              for c in COUNTERS} for name in LAYERS}
        self.extra = {"norms.eval_calls": 0, "factor.work_grid_points": 0,
                      "decomp.blaschke_m_max_sum": 0, "serialize.bytes_out": 0}
        self.extra.update({f"verify.{sid}_s": 0.0 for sid in SUITE_IDS})
        self.names = []
        self._name_ids = {}
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("q")
        self.op_col = array("i")
        self._stack = []      # open spans: [index, child seconds, layer dict]
        self._saved = []      # (owner, attribute, original) to undo
        self.op = -1

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, layer, name, on_result=None):
        acc = self.layers[layer]
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(self.start_col)
            frame = [index, 0.0, acc]
            self.name_col.append(name_id)
            self.parent_col.append(stack[-1][0] if stack else -1)
            self.op_col.append(self.op)
            self.end_col.append(0.0)
            stack.append(frame)
            start = clock()
            self.start_col.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.end_col[index] = end
                span = end - start
                acc["calls"] += 1
                acc["self_s"] += span - frame[1]
                if stack:
                    stack[-1][1] += span
            if on_result is not None:
                on_result(args, result, span)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _kernel(self, fn, kind):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(a, *args, **kwargs):
            if not stack:
                return fn(a, *args, **kwargs)
            acc = stack[-1][2]
            if kind == "fft":
                acc["fft_calls"] += 1
                acc["fft_points"] += int(np.size(a))
                return fn(a, *args, **kwargs)
            start = clock()
            out = fn(a, *args, **kwargs)
            acc["svd_s"] += clock() - start
            acc["svd_calls"] += 1
            acc["svd_elements"] += int(np.size(a))
            return out

        return wrapper

    # -- result hooks --------------------------------------------------------

    def _hooks(self):
        extra = self.extra

        def m_max(args, result, span):
            extra["decomp.blaschke_m_max_sum"] += int(
                result.basis_coefficients.shape[1])

        def work_grid(args, result, span):
            extra["factor.work_grid_points"] += int(result.n_samples)

        def bytes_out(args, result, span):
            extra["serialize.bytes_out"] += len(result.encode("utf-8"))

        def suite(args, result, span):
            extra[f"verify.{args[0]}_s"] += span

        def spec_eval(args, result, span):
            extra["norms.eval_calls"] += 1

        return {"_eval": spec_eval,
                "decompose_blaschke": m_max,
                "n_inner_outer_factorize": work_grid,
                "dump_json": bytes_out,
                "run_verification": suite}

    # -- install / uninstall -------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "hardy" and not modname.startswith("hardy."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        hooks = self._hooks()
        for layer in LAYERS:
            mod = sys.modules["hardy." + layer]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._rebind(fn, self._wrap(fn, layer, f"{layer}.{name}",
                                                hooks.get(name)))
        cf = sys.modules["hardy.circlefn"].CircleFunction
        for name in ("from_samples", "from_coeffs"):
            raw = cf.__dict__[name].__func__
            self._set(cf, name, classmethod(self._wrap(
                raw, "circlefn", f"circlefn.CircleFunction.{name}")))
        norms = sys.modules["hardy.norms"]
        for cls in vars(norms).values():
            if (inspect.isclass(cls) and cls is not norms.GaugeNormSpec
                    and issubclass(cls, norms.GaugeNormSpec)
                    and "_eval" in cls.__dict__):
                self._set(cls, "_eval", self._wrap(
                    cls.__dict__["_eval"], "norms", f"norms.{cls.__name__}._eval",
                    hooks["_eval"]))
        self._set(np.fft, "fft", self._kernel(np.fft.fft, "fft"))
        self._set(np.fft, "ifft", self._kernel(np.fft.ifft, "fft"))
        self._set(np.linalg, "svd", self._kernel(np.linalg.svd, "svd"))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for layer, acc in self.layers.items():
            for key, value in acc.items():
                out[f"{layer}.{key}"] = value
        out.update(self.extra)
        return out

    def write(self, path: str):
        """Spans as gzipped CSV, times relative to the first span."""
        t0 = self.start_col[0] if self.start_col else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("span,name,start_s,end_s,parent,op\n")
            for i in range(len(self.start_col)):
                out.write(f"{i},{self.names[self.name_col[i]]},"
                          f"{self.start_col[i] - t0:.9f},"
                          f"{self.end_col[i] - t0:.9f},"
                          f"{self.parent_col[i]},{self.op_col[i]}\n")
