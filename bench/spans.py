"""Span tracing of rotconv's public functions and of scipy.fft, from outside.

`Tracer.install` replaces every public function of each rotconv module, in
every rotconv namespace that holds it (the defining module, the package and
each module that imported the name), with a wrapper that records a span:
name, start, end and parent.  The scipy.fft transforms are wrapped on the
`scipy.fft` module itself, because the tendency calls `sfft.ifftn` directly
rather than through `grid.inverse_transform`.  Spans stay in memory until
`write`; `uninstall` restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

import numpy as np

LAYERS = ("grid", "velocity", "meanstate", "evolution", "invariants",
          "experiments", "io", "cli")
FFT_FUNCS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")
# io functions that open and write a file named by their first argument
IO_LEAF_WRITERS = ("io.write_csv", "io.write_snapshot")

NAME, START, END, PARENT, BYTES = range(5)


def _fft_bytes(args, kwargs, out) -> int:
    x = args[0] if args else kwargs.get("x")
    n = x.nbytes if isinstance(x, np.ndarray) else 0
    return n + (out.nbytes if isinstance(out, np.ndarray) else 0)


def _file_bytes(args, kwargs, out) -> int:
    return os.path.getsize(args[0])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, measure=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if measure is not None:
                rec[BYTES] = measure(args, kwargs, out)
            return out

        return traced

    def _rebind(self, namespace, attr, new):
        self._restore.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, new)

    def install(self):
        import scipy.fft

        for fname in FFT_FUNCS:
            fn = getattr(scipy.fft, fname)
            self._rebind(scipy.fft, fname, self._wrap(f"fft.{fname}", fn, _fft_bytes))

        package = importlib.import_module("rotconv")
        modules = {layer: importlib.import_module(f"rotconv.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._wrap(name, fn, _file_bytes if name in IO_LEAF_WRITERS else None)
                for ns in namespaces:
                    for other, value in list(vars(ns).items()):
                        if value is fn:
                            self._rebind(ns, other, wrapped)

    def uninstall(self):
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore.clear()

    def root(self, fn, *args, **kwargs):
        """Run fn under a root span named `bench.op`; returns (result, seconds)."""
        index = len(self.spans)
        out = self._wrap("bench.op", fn)(*args, **kwargs)
        rec = self.spans[index]
        return out, rec[END] - rec[START]

    def write(self, path, extra: dict):
        payload = dict(extra)
        payload["spans"] = [
            {"name": s[NAME], "start": s[START], "end": s[END],
             "parent": s[PARENT], "bytes": s[BYTES]}
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(payload, fh)


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds (outermost spans of that name
    only, so nested calls are not counted twice), self seconds and bytes."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    out: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        d = out.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0})
        dur = s[END] - s[START]
        d["calls"] += 1
        d["self_s"] += dur - child_time[i]
        d["bytes"] += s[BYTES]
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        if p < 0:
            d["s"] += dur
    return out


def samples_calls(spans: list[list], callee: str, samplers: tuple[str, ...]) -> tuple[int, int]:
    """(calls of `callee` made under a per-sample span, number of such spans)."""
    n_samples = sum(1 for s in spans if s[NAME] in samplers)
    n_calls = 0
    for s in spans:
        if s[NAME] != callee:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] not in samplers:
            p = spans[p][PARENT]
        n_calls += p >= 0
    return n_calls, n_samples


SAMPLERS = ("invariants.compute_report", "experiments.mean_h1_error_and_bound")

# (metric, span name, statistic, unit); "fft" sums every fft.* span
_SPAN_METRICS = [
    ("fft.calls", "fft", "calls", "count"),
    ("fft.s", "fft", "s", "s"),
    ("fft.bytes_computed", "fft", "bytes", "bytes"),
    ("grid.inverse_transform.calls", "grid.inverse_transform", "calls", "count"),
    ("grid.inverse_transform.s", "grid.inverse_transform", "s", "s"),
    ("grid.forward_transform.calls", "grid.forward_transform", "calls", "count"),
    ("grid.forward_transform.s", "grid.forward_transform", "s", "s"),
    ("velocity.solve_velocity.calls", "velocity.solve_velocity", "calls", "count"),
    ("velocity.solve_velocity.s", "velocity.solve_velocity", "s", "s"),
    ("meanstate.heat_flux.calls", "meanstate.heat_flux", "calls", "count"),
    ("meanstate.heat_flux.s", "meanstate.heat_flux", "s", "s"),
    ("meanstate.mean_gradient.calls", "meanstate.mean_gradient", "calls", "count"),
    ("evolution.step.calls", "evolution.step", "calls", "count"),
    ("evolution.step.s", "evolution.step", "s", "s"),
    ("evolution.step.self_s", "evolution.step", "self_s", "s"),
    ("evolution.run.calls", "evolution.run", "calls", "count"),
    ("evolution.cfl_dt.s", "evolution.cfl_dt", "s", "s"),
    ("evolution.build_initial.s", "evolution.build_initial", "s", "s"),
    ("invariants.compute_report.calls", "invariants.compute_report", "calls", "count"),
    ("invariants.compute_report.s", "invariants.compute_report", "s", "s"),
    ("invariants.compute_report.self_s", "invariants.compute_report", "self_s", "s"),
    ("invariants.embedding_ratios.calls", "invariants.embedding_ratios", "calls", "count"),
    ("invariants.embedding_ratios.s", "invariants.embedding_ratios", "s", "s"),
    ("invariants.dual_norm.calls", "invariants.dual_norm", "calls", "count"),
    ("invariants.dual_norm.s", "invariants.dual_norm", "s", "s"),
    ("experiments.sweep_epsilon.self_s", "experiments.sweep_epsilon", "self_s", "s"),
    ("experiments.twin_run.self_s", "experiments.twin_run", "self_s", "s"),
    ("experiments.mean_h1_error_and_bound.calls", "experiments.mean_h1_error_and_bound", "calls", "count"),
    ("experiments.mean_h1_error_and_bound.s", "experiments.mean_h1_error_and_bound", "s", "s"),
    ("io.write_series_csv.s", "io.write_series_csv", "s", "s"),
    ("io.write_snapshot.s", "io.write_snapshot", "s", "s"),
    ("io.write_profile_csv.s", "io.write_profile_csv", "s", "s"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
]
_MODULE_SELF = [(f"{layer}.self_s", layer) for layer in ("fft",) + LAYERS]
_DERIVED = [
    ("velocity.solve_velocity.calls_per_sample", "calls/sample"),
    ("io.bytes_written", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_coverage", "ratio"),
]
PER_LAYER = ([(m, unit) for m, _, _, unit in _SPAN_METRICS]
             + [(m, "s") for m, _ in _MODULE_SELF] + _DERIVED)


def layer_metrics(spans: list[list], untraced_wall: float) -> dict[str, dict]:
    """Every per-layer metric of one traced workload call, by PER_LAYER name."""
    agg = aggregate(spans)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0}

    def stat(prefix: str, key: str):
        if "." in prefix:
            return agg.get(prefix, zero)[key]
        return sum(d[key] for n, d in agg.items() if n.split(".", 1)[0] == prefix)

    values = {m: stat(name, key) for m, name, key, _ in _SPAN_METRICS}
    values.update({m: stat(layer, "self_s") for m, layer in _MODULE_SELF})
    calls, n_samples = samples_calls(spans, "velocity.solve_velocity", SAMPLERS)
    traced_wall = agg["bench.op"]["s"]
    values["velocity.solve_velocity.calls_per_sample"] = calls / n_samples if n_samples else 0.0
    values["io.bytes_written"] = sum(agg.get(n, zero)["bytes"] for n in IO_LEAF_WRITERS)
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.self_coverage"] = sum(values[m] for m, _ in _MODULE_SELF) / traced_wall
    return {m: {"value": values[m], "unit": unit} for m, unit in PER_LAYER}
