#!/usr/bin/env python3
"""Self-test of the benchmark's tracer on tiny cases.

    python3 bench/selftest.py

Checks that the traced counts are exact (one ``synthesize_solution`` is one
``kernel_convolve`` with ``with_error=True``; a synthesized-field evaluation
on m points is m convolutions), that every binding of a traced function is
swapped while tracing and restored afterwards, that tracing leaves values
bit-for-bit unchanged, and that the layers' self times plus the tracer's and
the harness's time add up to the wall time; and that the speed probe samples
while a result runs and its time is taken out of the result's.  Exits 1 if
any check fails.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import fracheat as fh  # noqa: E402
from fracheat import core, quadrature  # noqa: E402
from run import run_case  # noqa: E402
from speed import INTERVAL_S, SpeedProbe  # noqa: E402
from tracer import Tracer, _modules, traced_functions  # noqa: E402
from workloads import Case, Outcome  # noqa: E402

PARAMS = fh.FracParams(1, 0.5)
SPEC = fh.QuadratureSpec(tau_min=1e-3, graded_nodes=4, spatial_nodes=8)
PT = fh.SpaceTimePoint.of(0.1, 0.0)


def traced(body):
    """Run body() under a fresh tracer; return (tracer, metrics, result)."""
    tracer = Tracer()
    with tracer.installed():
        start = perf_counter()
        out = body()
        wall = perf_counter() - start
    return tracer, tracer.metrics(1, wall), out


def bindings_swapped() -> list:
    originals = traced_functions()
    ids = {id(fn) for fn in originals.values()}
    modules = [fh, *_modules().values()]
    eval_before = core.ScalarField.eval
    problems = []
    with Tracer().installed():
        for mod in modules:
            for attr, val in vars(mod).items():
                if id(val) in ids:
                    problems.append(f"{mod.__name__}.{attr} not wrapped")
        if core.ScalarField.eval is eval_before:
            problems.append("ScalarField.eval not wrapped")
        for mod in (fh, quadrature, fh.synthesis, fh.regularity):
            if mod.kernel_convolve is originals["quadrature.kernel_convolve"]:
                problems.append(f"{mod.__name__}.kernel_convolve not wrapped")
    for mod in modules:
        for attr, val in vars(mod).items():
            if getattr(val, "__wrapped__", None) is not None and id(val.__wrapped__) in ids:
                problems.append(f"{mod.__name__}.{attr} not restored")
    if core.ScalarField.eval is not eval_before:
        problems.append("ScalarField.eval not restored")
    return problems


def main() -> int:
    checks = []
    f = fh.gaussian_bump()

    checks.append(("bindings swapped and restored", bindings_swapped()))

    plain = fh.synthesize_solution(f, PT, PARAMS, SPEC)
    tr, m, val = traced(lambda: fh.synthesize_solution(f, PT, PARAMS, SPEC))
    problems = []
    if m["quadrature.kernel_convolve.calls"] != 1:
        problems.append(f"{m['quadrature.kernel_convolve.calls']} convolutions, want 1")
    if tr.counters["kernel_convolve.with_error"] != 1:
        problems.append("the convolution did not run with_error=True")
    if val != plain:
        problems.append(f"traced value {val} != untraced {plain}")
    checks.append(("synthesize_solution is one kernel_convolve with error", problems))

    for label, t, share in (("shared t", np.full(7, 0.1), 1.0),
                            ("distinct t", np.linspace(-0.2, 0.2, 7), 0.0)):
        x = np.linspace(-0.3, 0.3, 7)[:, None]
        plain = fh.synthesized_field(f, PARAMS, SPEC).eval(x, t)
        tr, m, vals = traced(lambda: fh.synthesized_field(f, PARAMS, SPEC).eval(x, t))
        problems = []
        for name, want in (("quadrature.kernel_convolve.calls", 7),
                           ("synthesis.field_points", 7),
                           ("synthesis.points_per_eval", 7.0),
                           ("synthesis.shared_t_share", share),
                           ("quadrature.kernel_convolve.with_error_share", 0.0)):
            if m[name] != want:
                problems.append(f"{name} = {m[name]}, want {want}")
        if not np.array_equal(vals, plain):
            problems.append("traced values differ from untraced")
        checks.append((f"synthesized-field eval on 7 points ({label}) is 7 convolutions",
                       problems))

    def decomposition():
        bundle = fh.decompose_internal(f, fh.ParabolicPolynomial.zero(1), 0.5, PARAMS,
                                       quad=SPEC)
        return bundle.w_r(PT), bundle.v_r(PT)

    tr, m, _ = traced(decomposition)
    problems = []
    if m["synthesis.decompose.calls"] != 3:
        problems.append(f"synthesis.decompose.calls = {m['synthesis.decompose.calls']}, want 3")
    if m["quadrature.kernel_convolve.calls"] != 2:
        problems.append("want 2 convolutions")
    layer_sum = sum(m[f"{layer}.self_s"] for layer in
                    ("core", "fields", "kernel", "quadrature", "operator", "synthesis",
                     "regularity", "cli"))
    total = layer_sum + m["trace.self_s"] + m["bench.self_s"]
    if abs(total - m["trace.wall_s"]) > 1e-9 * m["trace.wall_s"]:
        problems.append("self times do not add up to the wall time")
    incl_top = sum(v[1] for k, v in tr.stats.items())
    if not 0.0 < layer_sum <= incl_top:
        problems.append("self time outside (0, inclusive time]")
    checks.append(("decomposition pieces counted; self times add up", problems))

    def busy():
        end = perf_counter() + 5 * INTERVAL_S
        while perf_counter() < end:
            pass
        return Outcome("busy", True, 0.0)

    probe = SpeedProbe()
    with probe.running():
        spent, t0 = probe.spent, perf_counter()
        _, _, dt = run_case(Case("busy", busy), probe)
        wall = perf_counter() - t0
    problems = []
    inside = [t for t, _ in probe.samples if t0 <= t <= t0 + wall]
    if len(inside) < 3:
        problems.append(f"{len(inside)} speed samples during a result of {wall:.2f} s")
    if not abs(dt + (probe.spent - spent) - wall) < 1e-3:
        problems.append("probe time not taken out of the result's time")
    if not 0.0 < probe.scale(t0, t0 + wall) < math.inf:
        problems.append("no speed scale for the result")
    checks.append(("speed probe samples during a result, its time taken out", problems))

    failed = 0
    for name, problems in checks:
        print(f"{'PASS' if not problems else 'FAIL'} {name}")
        for p in problems:
            print(f"     {p}")
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
