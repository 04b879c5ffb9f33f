"""Span tracer that wraps the library's module boundaries from outside.

The library has no tracing of its own, so the tracer replaces, for the
duration of a traced pass, every binding of each public function of the
eight fracheat modules (in every fracheat module that imported it by name)
with a wrapper that records a span, and does the same for
``ScalarField.eval`` at class level.  A span's layer is the module that
defines the function.  Self time is the span's duration minus the time its
child spans cover, so the self times of all spans, the tracer's own
bookkeeping and the harness time outside any span add up to the wall time of
the pass.  The bookkeeping a wrapper does around its span (opening, closing,
counting) is timed and charged to the ``trace`` bucket, not to the parent
span, so a layer's self time excludes tracer work.

Memory stays bounded: ``kernel_convolve``, field evaluations (about 10^5
per round-trip point) and every span inside them are aggregated per nearest
recorded ancestor span; every other span is kept as a record and written
out at the end.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import math
import statistics
import warnings
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("core", "fields", "kernel", "quadrature", "operator", "synthesis",
          "regularity", "cli")

# Node-table lookups cached by lru_cache and hit once per band: wrapping them
# would only add overhead to the hottest loop.
SKIP = {"quadrature.gauss_legendre", "quadrature.gauss_hermite"}

# Innermost spans, and all spans inside them: aggregated per recorded
# ancestor instead of recorded.
AGGREGATED = {"quadrature.kernel_convolve", "core.field_eval", "synthesis.field_eval"}

OPERATOR_RESULTS = {"operator.apply_fully_fractional",
                    "operator.apply_fractional_laplacian", "operator.apply_marchaud"}

DECOMPOSITION = {"synthesis.decompose_internal", "synthesis.s_decay_probe"}


def _modules():
    return {name: importlib.import_module(f"fracheat.{name}") for name in LAYERS}


def traced_functions():
    """{span name: function} for every public function of the eight modules."""
    found = {}
    for layer, mod in _modules().items():
        names = getattr(mod, "__all__", None)
        if names is None:
            names = [n for n in vars(mod) if not n.startswith("_")]
        for name in names:
            fn = getattr(mod, name, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                span = f"{layer}.{name}"
                if span not in SKIP:
                    found[span] = fn
    return found


class Tracer:
    """Records spans and counters while installed; see ``installed()``."""

    def __init__(self, clock=perf_counter):
        self.clock = clock  # seconds; may stop while a speed probe runs
        self.stack = []  # frames: [child_s, record index, layer, aggregated]
        self.stats = collections.defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl, self
        self.records = []  # [name, parent record, result, start, end]
        self.aggregates = collections.defaultdict(lambda: [0, 0.0])  # (record, name)
        self.counters = collections.Counter()
        self.kc_ms = []
        self.result = None
        self.t0 = clock()
        self.top_s = 0.0
        self.trace_s = 0.0  # wrapper bookkeeping outside every span
        self._synth = {}  # id -> synthesized field (kept alive so ids stay unique)

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name):
        stack = self.stack
        parent = stack[-1][1] if stack else -1
        rec = parent
        aggregated = name in AGGREGATED or bool(stack and stack[-1][3])
        if not aggregated:
            rec = len(self.records)
            self.records.append([name, parent, self.result, self.clock() - self.t0, None])
        frame = [0.0, rec, name.split(".", 1)[0], aggregated]
        stack.append(frame)
        return frame, parent

    def _close(self, name, frame, parent, start):
        end = self.clock()
        dur = end - start
        self.stack.pop()
        st = self.stats[name]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[0]
        if self.stack:
            self.stack[-1][0] += dur
        else:
            self.top_s += dur
        if frame[3]:
            agg = self.aggregates[(parent, name)]
            agg[0] += 1
            agg[1] += dur
        else:
            self.records[frame[1]][4] = end - self.t0
        return dur

    def _charge(self, entered, dur):
        """Move a wrapper's bookkeeping (its time since `entered`, less the
        span's `dur`) out of the enclosing span into the trace bucket."""
        spent = self.clock() - entered - dur
        self.trace_s += spent
        if self.stack:
            self.stack[-1][0] += spent
        else:
            self.top_s += spent

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = tracer.clock()
            frame, parent = tracer._open(name)
            start = tracer.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = tracer._close(name, frame, parent, start)
            tracer._observe(name, args, kwargs, out, dur)
            tracer._charge(entered, dur)
            return out

        return wrapper

    def _observe(self, name, args, kwargs, out, dur):
        c = self.counters
        if name == "quadrature.kernel_convolve":
            self.kc_ms.append(dur * 1e3)
            with_error = kwargs.get("with_error", args[5] if len(args) > 5 else True)
            c["kernel_convolve.with_error"] += bool(with_error)
        elif name in OPERATOR_RESULTS:
            if not all(math.isfinite(float(v)) for v in out):
                c["operator.nonfinite"] += 1
        elif name in ("kernel.verify_global_bound", "kernel.verify_local_bound",
                      "kernel.verify_translation_bound"):
            c["kernel.samples"] += out.n_samples
        elif name == "synthesis.synthesized_field":
            self._synth[id(out)] = out
        elif name == "synthesis.decompose_internal":
            # each piece of the bundle is a closure; count its evaluations too
            for piece in ("u", "v_r", "w_r", "w_1", "S_r", "T_r", "u_P"):
                setattr(out, piece, self.wrap("synthesis.decompose_piece",
                                              getattr(out, piece)))

    def wrap_field_eval(self, orig):
        tracer = self

        @functools.wraps(orig)
        def eval_wrapper(field, x, t):
            entered = tracer.clock()
            synth = id(field) in tracer._synth
            name = "synthesis.field_eval" if synth else "core.field_eval"
            frame, parent = tracer._open(name)
            start = tracer.clock()
            try:
                out = orig(field, x, t)
            finally:
                dur = tracer._close(name, frame, parent, start)
            m = int(np.size(t))
            tracer.counters["field_eval.points"] += m
            if synth:
                c = tracer.counters
                c["synthesis.evals"] += 1
                c["synthesis.field_points"] += m
                if m > 1:
                    _, counts = np.unique(np.asarray(t, dtype=float).ravel(),
                                          return_counts=True)
                    c["synthesis.shared_t_points"] += int(np.sum(counts[counts > 1]))
            tracer._charge(entered, dur)
            return out

        return eval_wrapper

    # -- installation -----------------------------------------------------

    @contextmanager
    def installed(self):
        """Swap every binding of the traced functions for its wrapper."""
        import fracheat
        from fracheat.core import ScalarField

        originals = traced_functions()
        by_id = {id(fn): (name, self.wrap(name, fn)) for name, fn in originals.items()}
        modules = [fracheat, *_modules().values()]
        swapped = []
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = by_id.get(id(val))
                if hit is not None:
                    setattr(mod, attr, hit[1])
                    swapped.append((mod, attr, val))
        orig_eval = ScalarField.eval
        ScalarField.eval = self.wrap_field_eval(orig_eval)

        def count_warning(message, category, *args, **kwargs):
            layer = self.stack[-1][2] if self.stack else "bench"
            self.counters[f"{layer}.runtime_warnings"] += 1

        try:
            with warnings.catch_warnings():
                warnings.simplefilter("always", RuntimeWarning)
                warnings.showwarning = count_warning
                yield self
        finally:
            ScalarField.eval = orig_eval
            for mod, attr, val in swapped:
                setattr(mod, attr, val)

    # -- summaries --------------------------------------------------------

    def layer_self(self):
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def metrics(self, n_results: int, wall_s: float) -> dict:
        """Per-layer metrics of the traced pass, keyed by their bench names."""
        st, c = self.stats, self.counters
        n = max(n_results, 1)

        def calls(*names):
            return sum(st[k][0] for k in names if k in st)

        def self_s(*names):
            return sum(st[k][2] for k in names if k in st)

        def prefixed(layer):
            return [k for k in st if k.startswith(layer + ".")]

        kc = calls("quadrature.kernel_convolve")
        synth_points = c["synthesis.field_points"]
        layer_self = self.layer_self()
        m = {
            "quadrature.kernel_convolve.calls": kc,
            "quadrature.kernel_convolve.self_s": self_s("quadrature.kernel_convolve"),
            "quadrature.kernel_convolve.ms_p50":
                statistics.median(self.kc_ms) if self.kc_ms else 0.0,
            "quadrature.kernel_convolve.with_error_share":
                c["kernel_convolve.with_error"] / kc if kc else 0.0,
            "quadrature.increment_integral.calls": calls("quadrature.increment_integral"),
            "quadrature.increment_integral.self_s": self_s("quadrature.increment_integral"),
            "quadrature.runtime_warnings": c["quadrature.runtime_warnings"],
            "quadrature.convolutions_per_result": kc / n,
            "operator.calls": calls(*prefixed("operator")),
            "operator.nonfinite": c["operator.nonfinite"],
            "core.field_eval.calls": calls("core.field_eval"),
            "core.field_eval.points": c["field_eval.points"] - synth_points,
            "core.field_eval.self_s": self_s("core.field_eval"),
            "core.field_points_per_result": (c["field_eval.points"] - synth_points) / n,
            "synthesis.field_points": synth_points,
            "synthesis.points_per_eval":
                synth_points / c["synthesis.evals"] if c["synthesis.evals"] else 0.0,
            "synthesis.shared_t_share": c["synthesis.shared_t_points"] / kc if kc else 0.0,
            "synthesis.decompose.calls": calls(*DECOMPOSITION, "synthesis.decompose_piece"),
            "kernel.calls": calls(*prefixed("kernel")),
            "kernel.samples": c["kernel.samples"],
            "regularity.calls": calls(*prefixed("regularity")),
            "cli.exponent_recovery.self_s": self_s("cli.exponent_recovery"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        m["bench.self_s"] = wall_s - self.top_s
        m["trace.self_s"] = self.trace_s
        m["trace.wall_s"] = wall_s
        m["trace.accounted_frac"] = (sum(layer_self.values()) + self.trace_s
                                     + m["bench.self_s"]) / wall_s
        return m

    def dump(self) -> dict:
        """Span records and per-parent aggregates, for the trace file."""
        return {
            "fields": ["name", "parent", "result", "start_s", "end_s"],
            "spans": self.records,
            "aggregated": [[parent, name, calls, incl_s]
                           for (parent, name), (calls, incl_s) in self.aggregates.items()],
            "stats": {k: {"calls": v[0], "incl_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items())},
            "counters": dict(self.counters),
        }
