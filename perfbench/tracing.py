"""Span tracing of gaussfit's public functions for the traced benchmark run.

:meth:`Tracer.install` replaces every public function of each layer module
with a timing wrapper wherever the package binds it, including the copies
other modules import with ``from .x import f``.  Spans are kept in memory
with a link to the span that was open when they started, and are written
out when the run ends.  A span's self time is its duration minus the
durations of its direct children.

Nothing here knows the program's call graph: a function that a later
version renames or removes is simply not traced, and the metrics built on
it are left out of the result instead of failing the run.
"""

from __future__ import annotations

import inspect
import sys
import time

import numpy as np

LAYERS = ("rng", "signal", "linfit", "initfit", "methods", "bench", "cli")


def _method_id(args, kwargs):
    spec = args[0] if args else kwargs.get("spec")
    return getattr(spec, "method_id", None)


def _trace_summary(result):
    """(iterations, iterates with Gaussian form) of a returned trace."""
    try:
        return len(result), sum(1 for step in result if step.params is not None)
    except (TypeError, AttributeError):
        return None


def _status(result):
    return getattr(result, "status", None)


# Functions whose arguments or results feed a per-layer counter.
_TAGGERS = {"methods.run_method": _method_id}
_OBSERVERS = {"linfit.wls_trace": _trace_summary, "initfit.m3_initial_fit": _status}


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one tuple per span: (name id, parent index, start ns, end ns, tag, outcome)
        self.spans: list[tuple | None] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        key = self._name_ids.setdefault(name, len(self.names))
        if key == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tagger, observer = _TAGGERS.get(name), _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            tag = tagger(args, kwargs) if tagger else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            outcome = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                outcome = (type(err).__name__, getattr(err, "iteration", None))
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (key, parent, t0, t1, tag, outcome)
            if observer:
                spans[idx] = (key, parent, t0, t1, tag, observer(result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module that exists."""
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gaussfit" or n.startswith("gaussfit."))]
        for layer in LAYERS:
            module = sys.modules.get(f"gaussfit.{layer}")
            if module is None:
                continue
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in package:
                    for bound, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, bound, fn))
                            setattr(holder, bound, wrapper)

    def uninstall(self) -> None:
        for holder, bound, fn in reversed(self._patches):
            setattr(holder, bound, fn)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def arrays(self):
        """Span columns as arrays: name id, parent, duration and self time in µs."""
        done = [s for s in self.spans if s is not None]
        if len(done) != len(self.spans):
            raise RuntimeError("spans still open at the end of the traced run")
        name = np.array([s[0] for s in done], dtype=np.int64)
        parent = np.array([s[1] for s in done], dtype=np.int64)
        dur = np.array([s[3] - s[2] for s in done], dtype=np.float64) / 1e3
        child = np.zeros(len(done))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name, parent, dur, dur - child

    def write(self, path) -> None:
        """Save every span (start and end in ns, parent index) as ``.npz``."""
        done = self.spans
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array([s[0] for s in done], dtype=np.int32),
            parent=np.array([s[1] for s in done], dtype=np.int64),
            start_ns=np.array([s[2] for s in done], dtype=np.int64),
            end_ns=np.array([s[3] for s in done], dtype=np.int64),
        )


def layer_metrics(tracer: Tracer, trials: int, invocations: int,
                  traced_s: float, overhead: float) -> dict:
    """Per-layer metrics of a traced run.

    Times and counts are per trial (one signal through the workload's
    methods), except where the name says otherwise.  ``traced_s`` is the
    wall time of the traced program calls, ``overhead`` the ratio of traced
    to untraced time for the same calls.
    """
    name, _parent, dur, self_us = tracer.arrays()
    names = tracer.names
    count = np.bincount(name, minlength=len(names))
    total = np.bincount(name, weights=dur, minlength=len(names))
    own = np.bincount(name, weights=self_us, minlength=len(names))
    idx = {n: i for i, n in enumerate(names)}
    out: dict[str, tuple[float, str]] = {}

    def put(metric, value, unit):
        out[metric] = (float(value), unit)

    def per_trial(fn, column, metric, unit="us/trial"):
        if fn in idx:
            put(metric, column[idx[fn]] / trials, unit)

    def outcomes(fn):
        i = idx.get(fn)
        return [s for s in tracer.spans if s[0] == i] if i is not None else []

    per_trial("rng.normals", count, "rng.normals.calls", "count/trial")
    per_trial("rng.normals", total, "rng.normals.us")

    per_trial("signal.sample_gaussian", own, "signal.sample_gaussian.self_us")
    per_trial("signal.log_transform", total, "signal.log_transform.us")
    per_trial("signal.read_signal_csv", total, "signal.read_signal_csv.us")
    if "signal.params_from_coeffs" in idx:
        rejects = sum(1 for s in outcomes("signal.params_from_coeffs") if s[5])
        put("signal.params_from_coeffs.rejects", rejects / trials, "count/trial")

    if "linfit.wls_trace" in idx:
        iterations = gaussian = singular = 0
        for s in outcomes("linfit.wls_trace"):
            if s[5] is None:
                continue
            if isinstance(s[5][0], str):  # raised: (class name, iteration)
                singular += s[5][0] == "SingularSystemError"
                iterations += (s[5][1] or 0) + 1
            else:
                iterations += s[5][0]
                gaussian += s[5][1]
        i = idx["linfit.wls_trace"]
        put("linfit.wls_trace.calls", count[i] / trials, "count/trial")
        put("linfit.iterations", iterations / trials, "count/trial")
        put("linfit.us_per_iteration", total[i] / iterations if iterations else 0.0,
            "us/iteration")
        put("linfit.wls_trace.self_us", own[i] / trials, "us/trial")
        put("linfit.singular_errors", singular / trials, "count/trial")
        put("linfit.gaussian_iterate_ratio", gaussian / iterations if iterations else 0.0,
            "ratio")
    per_trial("linfit.weights_from_params", total, "linfit.weights_from_params.us")

    per_trial("initfit.build_erf_table", count, "initfit.build_erf_table.calls",
              "count/trial")
    per_trial("initfit.build_erf_table", total, "initfit.build_erf_table.us")
    per_trial("initfit.m3_initial_fit", count, "initfit.m3_initial_fit.calls",
              "count/trial")
    per_trial("initfit.m3_initial_fit", own, "initfit.m3_initial_fit.self_us")
    if "initfit.m3_initial_fit" in idx:
        fallbacks = sum(1 for s in outcomes("initfit.m3_initial_fit")
                        if isinstance(s[5], str) and s[5] != "converged")
        put("initfit.m3_initial_fit.fallbacks", fallbacks / trials, "count/trial")
    for stage in ("windowed_peak", "partial_areas", "sigma_from_area",
                  "rho_from_samples", "refine_amplitude", "naive_peak", "sigma_area_m1"):
        per_trial(f"initfit.{stage}", total, f"initfit.{stage}.us")

    if "methods.run_method" in idx:
        runs = outcomes("methods.run_method")
        i = idx["methods.run_method"]
        durations = dur[name == i]
        for mid in ("M1", "M2", "M3", "M4", "M5"):
            mine = [j for j, s in enumerate(runs) if s[4] == mid]
            put(f"methods.{mid}.us", durations[mine].sum() / trials, "us/trial")
            put(f"methods.{mid}.calls", len(mine) / trials, "count/trial")
            put(f"methods.{mid}.errors",
                sum(1 for j in mine if runs[j][5] is not None) / trials, "count/trial")
        put("methods.run_method.self_us", own[i] / trials, "us/trial")

    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in names], dtype=np.int64)
    layer_self = np.bincount(layer_of[name], weights=self_us, minlength=len(LAYERS))
    put("bench.self_us_per_trial", layer_self[LAYERS.index("bench")] / trials, "us/trial")
    per_trial("bench.write_report_csv", total, "bench.write_report_csv.us")
    put("cli.self_us_per_call", layer_self[LAYERS.index("cli")] / invocations, "us/call")

    traced_us = traced_s * 1e6
    for layer, value in zip(LAYERS, layer_self):
        put(f"{layer}.self_share", value / traced_us, "ratio")
    put("trace.self_time_share", self_us.sum() / traced_us, "ratio")
    put("trace.overhead", overhead, "ratio")
    return out
