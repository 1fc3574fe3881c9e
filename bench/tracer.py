"""Span tracing of the sshchain layers, installed from outside the package.

The tracer wraps the public functions of the layer modules by rebinding
module attributes (every ``sshchain`` module that imported the function
by name gets the wrapper too) and puts the originals back on exit. Spans
(name, start, end, parent span, job id, process CPU) and the calls into
the symmetric eigensolvers are kept in memory and written out once, at
the end of the traced run.

Worker threads of the package's thread pools start with an empty span
stack; their spans are parented to the innermost open span of the thread
that runs the jobs, which is the pool-owning call blocked in
``pool.map``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time

LAYER_MODULES = ("chain", "spectral", "topology", "microwave", "estimation",
                 "cli", "csvout")

# csvout.fmt runs once per CSV cell (80k times for one 20001-point trace);
# a span there would time the tracer. Its cost stays in write_csv's self time.
SKIPPED = frozenset({"csvout.fmt"})

# The symmetric eigensolvers the layers call, counted (not spanned) because
# a fit calls one of them once per objective evaluation.
LINALG = (("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"),
          ("scipy.linalg", "eigh"))


def _path_arg(args, kwargs, result):
    return args[0] if args else kwargs.get("path")


# Per-call facts recorded from a wrapped call's arguments or result.
EXTRA = {
    "microwave.s21_trace": lambda args, kwargs, result: int(result.freqs.size),
    "microwave.extract_peaks": lambda args, kwargs, result: len(result),
    "csvout.write_csv": _path_arg,
    "csvout.write_json": _path_arg,
}


class Span:
    __slots__ = ("id", "name", "parent", "job", "t0", "t1", "c0", "c1",
                 "linalg", "extra")

    def __init__(self, span_id, name, parent, job):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.job = job
        self.t0 = self.t1 = self.c0 = self.c1 = 0.0
        self.linalg = 0
        self.extra = None

    def as_list(self):
        return [self.id, self.name, self.parent, self.job, self.t0, self.t1,
                self.c0, self.c1, self.linalg, self.extra]


def public_functions(module):
    """Public functions defined in ``module`` (its ``__all__`` if it has one)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [n for n in names
            if inspect.isfunction(getattr(module, n, None))
            and getattr(module, n).__module__ == module.__name__]


class Tracer:
    """Records spans while ``job`` is set; inert (one attribute test) otherwise."""

    def __init__(self):
        self.spans = []
        self.job = None
        self.linalg_calls = 0
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_thread = threading.get_ident()
        self._root_stack = []
        self._patched = []

    def _stack(self):
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _innermost(self, stack):
        if stack:
            return stack[-1]
        return self._root_stack[-1] if self._root_stack else None

    def wrap(self, name, fn):
        hook = EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = self._innermost(stack)
            span = Span(next(self._ids), name,
                        parent.id if parent is not None else None, self.job)
            stack.append(span)
            span.c0 = time.process_time()
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                span.c1 = time.process_time()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if hook is not None:
                span.extra = hook(args, kwargs, result)
            return result

        return traced

    def count(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.job is not None:
                span = self._innermost(self._stack())
                with self._lock:
                    self.linalg_calls += 1
                    if span is not None:
                        span.linalg += 1
            return fn(*args, **kwargs)

        return counted

    def _rebind(self, owners, original, replacement):
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._patched.append((owner, key, original))
                    setattr(owner, key, replacement)

    def install(self):
        """Rebind every layer function and solver to its traced wrapper."""
        owners = [m for n, m in list(sys.modules.items())
                  if n == "sshchain" or n.startswith("sshchain.")]
        for short in LAYER_MODULES:
            module = importlib.import_module(f"sshchain.{short}")
            for attr in public_functions(module):
                name = f"{short}.{attr}"
                if name not in SKIPPED:
                    original = getattr(module, attr)
                    self._rebind(owners, original, self.wrap(name, original))
        for module_name, attr in LINALG:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._rebind([module], original, self.count(original))

    def uninstall(self):
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.job = None
            self.uninstall()

    def write(self, path, jobs):
        with open(path, "w") as fh:
            json.dump({
                "fields": list(Span.__slots__),
                "spans": [s.as_list() for s in self.spans],
                "jobs": jobs,
                "linalg_calls": self.linalg_calls,
            }, fh)
            fh.write("\n")


def _covered(intervals):
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def _children(spans):
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return children


def self_times(spans):
    """Span duration minus the part of it that child spans cover, by span id."""
    children = _children(spans)
    out = {}
    for s in spans:
        kids = [(max(c.t0, s.t0), min(c.t1, s.t1)) for c in children.get(s.id, ())]
        out[s.id] = (s.t1 - s.t0) - _covered([k for k in kids if k[1] > k[0]])
    return out


def subtree_linalg(spans, roots):
    """Solver calls made inside the root spans, their descendants included."""
    children = _children(spans)
    total = 0
    todo = list(roots)
    while todo:
        s = todo.pop()
        total += s.linalg
        todo.extend(children.get(s.id, ()))
    return total


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _ratio(num, den):
    return float(num) / den if den else 0.0


def layer_metrics(spans, jobs, linalg_calls, overhead_pct):
    """Per-layer metrics of one traced pass.

    ``jobs`` maps job id to a dict with ``kind``, ``tag`` ("t1"/"tN"),
    ``items``, ``units`` and ``facts``. ``*.p50_*`` are inclusive per-call
    times, ``*.self_*`` exclude child spans, ``*.cpu_per_wall`` is process
    CPU over wall inside the span. A layer not exercised by the workload
    reads 0.
    """
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    selfs = self_times(spans)

    def named(name, kind=None, tag=None):
        return [s for s in by_name.get(name, ())
                if (kind is None or jobs[s.job]["kind"] == kind)
                and (tag is None or jobs[s.job]["tag"] == tag)]

    def p50_incl(name, scale):
        return _median([(s.t1 - s.t0) * scale for s in named(name)])

    def p50_self(name, scale, tag=None):
        return _median([selfs[s.id] * scale for s in named(name, tag=tag)])

    def cpu_per_wall(name, tag):
        return _median([(s.c1 - s.c0) / (s.t1 - s.t0)
                        for s in named(name, tag=tag) if s.t1 > s.t0])

    def fact_sum(kind, key):
        return sum(j["facts"].get(key, 0) for j in jobs.values() if j["kind"] == kind)

    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    for name in ("chain.map_circuit_to_tb", "chain.build_tb_hamiltonian",
                 "spectral.eigendecompose", "topology.flatband"):
        put(f"{name}.calls", len(named(name)), "count")
        put(f"{name}.p50_us", p50_incl(name, 1e6), "us")
    put("spectral.classify_modes.p50_us", p50_incl("spectral.classify_modes", 1e6), "us")
    put("topology.winding_number_real_space.self_us",
        p50_self("topology.winding_number_real_space", 1e6), "us")

    for tag in ("t1", "tN"):
        put(f"spectral.sweep_coupling.self_ms.{tag}",
            p50_self("spectral.sweep_coupling", 1e3, tag), "ms")
        put(f"spectral.sweep_coupling.cpu_per_wall.{tag}",
            cpu_per_wall("spectral.sweep_coupling", tag), "1")
        put(f"topology.disorder_ensemble.ms_per_sample.{tag}",
            _median([(s.t1 - s.t0) * 1e3 / jobs[s.job]["units"]["samples"]
                     for s in named("topology.disorder_ensemble", "disorder", tag)]),
            "ms")
        put(f"topology.disorder_ensemble.cpu_per_wall.{tag}",
            cpu_per_wall("topology.disorder_ensemble", tag), "1")
        put(f"microwave.gate_sweep_spectrum.self_ms.{tag}",
            p50_self("microwave.gate_sweep_spectrum", 1e3, tag), "ms")
        put(f"microwave.gate_sweep_spectrum.cpu_per_wall.{tag}",
            cpu_per_wall("microwave.gate_sweep_spectrum", tag), "1")

    ensembles = named("topology.disorder_ensemble", "disorder")
    samples = sum(jobs[s.job]["units"]["samples"] for s in ensembles)
    put("topology.eigensolves_per_sample",
        _ratio(subtree_linalg(spans, ensembles), samples), "count")

    fits = named("estimation.fit_circuit_params")
    n_fits = sum(1 for j in jobs.values() if j["kind"] == "fit")
    evaluations = fact_sum("fit", "evaluations")
    put("estimation.fit_circuit_params.p50_ms",
        p50_incl("estimation.fit_circuit_params", 1e3), "ms")
    put("estimation.evaluations_per_fit", _ratio(evaluations, n_fits), "count")
    put("estimation.restarts_per_fit", _ratio(fact_sum("fit", "restarts"), n_fits), "count")
    put("estimation.clamped_per_fit", _ratio(fact_sum("fit", "clamped"), n_fits), "count")
    put("estimation.us_per_evaluation",
        _ratio(sum(s.t1 - s.t0 for s in fits) * 1e6, evaluations), "us")
    put("estimation.converged_ratio", _ratio(fact_sum("fit", "converged"), n_fits), "1")

    put("linalg.eigensolves_per_item",
        _ratio(linalg_calls, sum(j["items"] for j in jobs.values())), "count")

    put("microwave.circuit_mode_frequencies.p50_us",
        p50_incl("microwave.circuit_mode_frequencies", 1e6), "us")
    traces = named("microwave.s21_trace")
    put("microwave.s21_trace.ns_per_point",
        _ratio(sum(s.t1 - s.t0 for s in traces) * 1e9, sum(s.extra for s in traces)),
        "ns")
    put("microwave.background_normalize.p50_ms",
        p50_incl("microwave.background_normalize", 1e3), "ms")
    extractions = named("microwave.extract_peaks")
    put("microwave.extract_peaks.p50_ms", p50_incl("microwave.extract_peaks", 1e3), "ms")
    put("microwave.extract_peaks.peaks_per_call",
        _ratio(sum(s.extra for s in extractions), len(extractions)), "count")
    put("microwave.apply_gate_setting.calls_per_setting",
        _ratio(len(named("microwave.apply_gate_setting", "gatesweep")),
               sum(j["units"].get("settings", 0) for j in jobs.values()
                   if j["kind"] == "gatesweep")),
        "count")
    put("microwave.write_trace_outputs.ms",
        p50_incl("microwave.write_trace_outputs", 1e3), "ms")

    writes = named("csvout.write_csv")
    put("csvout.write_csv.rows_per_s",
        _ratio(sum(j["facts"].get("csv_rows", 0) for j in jobs.values()),
               sum(s.t1 - s.t0 for s in writes)),
        "1/s")
    put("csvout.bytes_written",
        sum(j["facts"].get("bytes_written", 0) for j in jobs.values()), "bytes")
    put("cli.main.self_ms", p50_self("cli.main", 1e3), "ms")
    put("bench.trace_overhead_pct", overhead_pct, "%")
    return m
