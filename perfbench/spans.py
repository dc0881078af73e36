"""Spans around calls into the program's public functions.

:func:`install` wraps every public function of the eight ``foguel_lab``
modules and rebinds the wrapper under each name that holds the original,
in every module of the package (so ``foguel.op_norm_dense`` and
``cli.car_hankel_oracles`` are traced as well as ``linalg.op_norm_dense``).
Nothing inside the program changes.  Each span records its name, start,
end, parent span and one counter; :func:`layer_metrics` folds the spans of
a run into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from time import perf_counter

import numpy as np

LAYERS = ("cli", "linalg", "hankel", "car", "foguel", "schur", "sequences", "summation")

#: The per-layer metrics, in the order BENCHMARK.json lists them.
METRICS = {
    "linalg.op_norm_dense.calls": "count",
    "linalg.op_norm_dense.s": "s",
    "linalg.op_norm_power.calls": "count",
    "linalg.op_norm_power.s": "s",
    "linalg.op_norm_power.iterations": "count",
    "foguel.intertwiner_partial.s": "s",
    "foguel.intertwiner_partial.self_s": "s",
    "foguel.norm_calls_per_term": "ratio",
    "foguel.similarity_check.s": "s",
    "foguel.power_offdiag.s": "s",
    "hankel.make_weighted_hankel.s": "s",
    "hankel.derivation_product.s": "s",
    "hankel.sylvester_residual.s": "s",
    "car.build_car.s": "s",
    "car.car_check.s": "s",
    "car.car_pattern_matrix.s": "s",
    "car.car_hankel_oracles.s": "s",
    "car.hankel_matvec.calls": "count",
    "car.hankel_matvec.s": "s",
    "car.rc_bounds.s": "s",
    "schur.bennett_criterion.s": "s",
    "schur.multiplier_lower_bound.s": "s",
    "sequences.bennett_sums.s": "s",
    "sequences.proof_chain_bound.s": "s",
    "summation.exact_sum.calls": "count",
    "summation.exact_sum.s": "s",
    "summation.exact_sum.terms": "count",
    "cli.run_command.s": "s",
    "cli.write.s": "s",
    "cli.bytes_written": "B",
}


#: Counters taken from a call's arguments or result.
COUNTERS = {
    "linalg.op_norm_power": lambda a, k, r: r.iterations,
    "summation.exact_sum": lambda a, k, r: int(np.size(a[0] if a else k["values"])),
    "foguel.intertwiner_partial": lambda a, k, r: r.n_terms,
    "cli.write_family_csv": lambda a, k, r: os.path.getsize(a[0] if a else k["path"]),
    "cli.write_json_mirror": lambda a, k, r: os.path.getsize(a[0] if a else k["path"]),
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, counter]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, perf_counter(), None, parent, 0]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = perf_counter()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            if name == "car.car_hankel_oracles":
                apply, apply_adjoint, dim = result
                result = (self.wrap("car.hankel_matvec", apply),
                          self.wrap("car.hankel_matvec", apply_adjoint), dim)
            return result

        return traced


def install(tracer: Tracer) -> int:
    """Wrap every public module-level function of the layers; returns how many."""
    modules = [m for name, m in sys.modules.items()
               if name == "foguel_lab" or name.startswith("foguel_lab.")]
    count = 0
    for layer in LAYERS:
        home = importlib.import_module(f"foguel_lab.{layer}")
        for fname, fn in list(vars(home).items()):
            if fname.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != home.__name__:
                continue
            wrapper = tracer.wrap(f"{layer}.{fname}", fn)
            for mod in modules:
                for bound_name, obj in list(vars(mod).items()):
                    if obj is fn:
                        setattr(mod, bound_name, wrapper)
            count += 1
    return count


def layer_metrics(spans: list, rounds: int) -> dict:
    """Per-round totals of the METRICS over the spans of ``rounds`` rounds."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    child = [0.0] * len(spans)
    dense_in_series = 0
    for name, start, end, parent, counter in spans:
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + counter
        if parent >= 0:
            child[parent] += dur
            if name == "linalg.op_norm_dense" and spans[parent][0] == "foguel.intertwiner_partial":
                dense_in_series += 1
    self_s = {}
    for (name, start, end, _, _), inner in zip(spans, child):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - inner

    terms = counts.get("foguel.intertwiner_partial", 0)
    out = {}
    for metric in METRICS:
        layer_fn, _, kind = metric.rpartition(".")
        if metric == "foguel.norm_calls_per_term":
            value = dense_in_series / terms if terms else 0.0
        elif metric == "cli.write.s":
            value = total.get("cli.write_family_csv", 0.0) + total.get("cli.write_json_mirror", 0.0)
        elif metric == "cli.bytes_written":
            value = counts.get("cli.write_family_csv", 0) + counts.get("cli.write_json_mirror", 0)
        elif kind == "s":
            value = total.get(layer_fn, 0.0)
        elif kind == "self_s":
            value = self_s.get(layer_fn, 0.0)
        elif kind == "calls":
            value = calls.get(layer_fn, 0)
        else:
            value = counts.get(layer_fn, 0)
        out[metric] = value / rounds if metric != "foguel.norm_calls_per_term" else value
    return out
