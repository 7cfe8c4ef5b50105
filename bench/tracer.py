"""In-memory spans around stochlab's public functions, for the traced run.

The tracer patches public names only, in every stochlab module that binds
them, so a refactor that keeps those names stays traceable.  A name a later
version no longer has, or no longer calls, is simply reported with zero
calls.  Spans are kept in memory and written out when the run ends.

A span's parent is the innermost span open in the same thread; a span opened
in a worker thread with nothing open there gets the innermost span open in
the main thread, i.e. the `run_ensemble` that started the pool.  Self time is
a span's duration minus the union of its children's intervals.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import threading
import time
import tracemalloc
from collections import defaultdict

import numpy as np

_MODULES = ("stochlab", "stochlab.cli", "stochlab.integrate", "stochlab.analyze",
            "stochlab.noise", "stochlab.models", "stochlab.vecalg")

# public analyze entry points the CLI reaches
ANALYZE_ENTRIES = ("stability_probability", "equilibrium_attraction",
                   "empirical_convergence_order", "check_invariance",
                   "check_equilibrium", "lyapunov_monotonicity",
                   "first_integral_drift", "check_symplecticity")

# span names whose outermost call opens a noise group (see _StreamProxy)
_GROUP_SPANS = ("integrate", "analyze")


def _modules():
    return [importlib.import_module(m) for m in _MODULES]


def patch(name, make_wrapper):
    """Replace the function bound as `name` in every stochlab module; a name
    no module has is skipped, so its span reports zero calls."""
    mods = _modules()
    orig = next((getattr(m, name) for m in mods if hasattr(m, name)), None)
    if orig is None:
        return
    wrapper = make_wrapper(orig)
    for mod in mods:
        if getattr(mod, name, None) is orig:
            setattr(mod, name, wrapper)


class Tracer:
    """Span recorder.  A span is [name, start, end, parent span, thread, info]."""

    def __init__(self):
        self.spans = []
        self._stacks = {}
        self._main = threading.main_thread().ident
        self._group = None          # outermost integrate/analyze span open in main
        self.group_bytes = defaultdict(float)
        self.group_lock = threading.Lock()

    def open(self, name):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if tid != self._main and main else None
        rec = [name, 0.0, 0.0, parent, tid, {}]
        if self._group is None and tid == self._main and name in _GROUP_SPANS:
            self._group = rec
        stack.append(rec)
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def close(self, rec):
        rec[2] = time.perf_counter()
        self._stacks[rec[4]].pop()
        if rec is self._group:
            self._group = None

    def wrap(self, name, fn, after=None):
        """fn timed as span `name`; after(info, args, kwargs, out) may replace out."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if after is not None:
                out = after(rec[5], args, kwargs, out)
            return out

        return traced

    # -- instrumentation ---------------------------------------------------

    def install(self):
        """Patch every traced public name in every module that binds it."""

        def simple(span, after=None):
            return lambda fn: self.wrap(span, fn, after)

        patch("load_config", simple("cli.load_config"))
        patch("build_model", simple("cli.build_model", self._timed_model))
        for fname in ("norm_squared_field", "sphere_field"):
            patch(fname, simple("cli.field", self._timed_field))
        patch("write_csv", simple("cli.write", _written(0)))
        patch("report_to_csv", simple("cli.write", _written(1)))
        for fname in ("run_ensemble", "integrate_path"):
            patch(fname, simple("integrate", _integrated))
        patch("stream", simple("noise.stream", self._proxied))
        patch("sample_brownian", simple("noise.sample_brownian"))
        patch("refine", simple("noise.refine"))
        patch("derive_seed", simple("noise.derive_seed"))
        for fname in ANALYZE_ENTRIES:
            patch(fname, simple("analyze"))

    def _timed_model(self, info, args, kwargs, model):
        changes = {"drift": self.wrap("models.drift", model.drift)}
        if getattr(model, "diffusion", None) is not None:
            changes["diffusion"] = self.wrap("models.diffusion", model.diffusion)
        return dataclasses.replace(model, **changes)

    def _timed_field(self, info, args, kwargs, field):
        return dataclasses.replace(field, value=self.wrap("vecalg.functional", field.value))

    def _proxied(self, info, args, kwargs, gen):
        return _StreamProxy(self, gen, self._group)

    # -- summary -----------------------------------------------------------

    def summary(self):
        """Per span name: calls, total and self seconds, plus the counts the
        after-hooks recorded (values, bytes, path_steps, states_bytes)."""
        kids = defaultdict(list)
        for rec in self.spans:
            if rec[3] is not None:
                kids[id(rec[3])].append((rec[1], rec[2]))
        out = defaultdict(lambda: defaultdict(float))
        for rec in self.spans:
            name, t0, t1, _, _, info = rec
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - _covered(kids.get(id(rec), ()), t0, t1)
            for key, val in info.items():
                if key.endswith("_max"):
                    agg[key] = max(agg[key], val)
                else:
                    agg[key] += val
        result = {name: dict(agg) for name, agg in out.items()}
        result["noise.increments"] = {
            "bytes_max": max(self.group_bytes.values(), default=0.0)}
        return result

    def write_spans(self, path, run_id):
        ids = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, tid, info) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": run_id, "id": i, "name": name, "start": t0, "end": t1,
                    "parent": ids.get(id(parent)), "thread": tid, **info}) + "\n")


class _StreamProxy:
    """A Generator whose `normal` is a counted span; all else delegates.

    For noise.increments_bytes each stream remembers its largest single
    draw; the group total (one per outermost integrate/analyze span) sums
    those over the streams the group used.
    """

    def __init__(self, tracer, gen, group):
        self._tracer = tracer
        self._gen = gen
        self._group = id(group) if group is not None else None
        self._largest = 0

    def normal(self, *args, **kwargs):
        tracer = self._tracer
        rec = tracer.open("noise.normal")
        try:
            out = self._gen.normal(*args, **kwargs)
        finally:
            tracer.close(rec)
        size = int(np.size(out))
        rec[5]["values"] = size
        if size > self._largest:
            with tracer.group_lock:   # streams of one group draw in several threads
                tracer.group_bytes[self._group] += 8.0 * (size - self._largest)  # float64
            self._largest = size
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _covered(intervals, t0, t1):
    """Length of the union of intervals clipped to [t0, t1]."""
    total, end = 0.0, t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


def _integrated(info, args, kwargs, out):
    stats, states = out if isinstance(out, tuple) else (out, None)
    if hasattr(stats, "n_paths"):            # EnsembleStats
        info["path_steps"] = stats.n_paths * (len(stats.times) - 1)
    elif hasattr(stats, "states"):           # Trajectory
        info["path_steps"] = len(stats.times) - 1
        states = stats.states
    if states is not None:
        info["states_bytes_max"] = float(np.asarray(states).nbytes)
    return out


def _written(path_arg):
    """After-hook counting the bytes and data values of the CSV just written."""

    def after(info, args, kwargs, out):
        path = kwargs.get("file", args[path_arg] if len(args) > path_arg else None)
        if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
            info["bytes"] = os.path.getsize(path)
            info["values"] = _count_values(path)
        return out

    return after


def _count_values(path):
    n, header_seen = 0, False
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            if header_seen:
                n += line.count(",") + 1
            header_seen = True
    return n


def install_memory_probe(record):
    """Wrap the analyze entry points so that each outermost call records its
    tracemalloc peak (MB) into record["analyze_peak_mb"]."""

    def make(fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                record["analyze_peak_mb"] = max(record.get("analyze_peak_mb", 0.0), peak)

        return probed

    for fname in ANALYZE_ENTRIES:
        patch(fname, make)
