#!/usr/bin/env python3
"""fracheat benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload query_mix --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the library from
``src/``.  With ``--trace 0`` it prints the end-to-end metrics declared in
``BENCHMARK.json``; with ``--trace 1`` it runs a slice of the same inputs
untraced and then traced, and prints the per-layer metrics.  The last line of
standard output is one JSON object; the lines above it are the human-readable
summary.  A result file (and, when traced, a span file) is written to
``bench/out/``.  See ``bench/README.md``.

Timings are reported in *reference seconds* (``bench/speed.py``): wall
seconds scaled by how fast the machine ran a fixed reference computation
while they passed, so that another tenant's load moves them less.  The
wall-clock figures are printed and recorded beside them.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

# One thread: pin the BLAS/OpenMP pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TRACE_SLICE = 1.0 / 3.0  # share of --seconds spent on the untraced slice
ERR_FLOOR = 1e-16  # true errors below this count as 16 digits
DETAIL_MAX = 100  # result rows kept in a result file


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cold-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def cold_setups(args) -> list:
    """Run SETUP_REPEATS cold set-ups, each in a fresh process of this script
    (``--cold-setup``), one after the other; return what each reported."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--cold-setup"]
    out = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(json.loads(done.stdout.splitlines()[-1]))
    return out


def cold_setup(args) -> int:
    """One cold set-up in this process: import numpy, scipy and fracheat, make
    the inputs, run the warm-up.  Prints its wall time (less the speed
    probe's) and reference seconds per wall second over it."""
    t0 = perf_counter()
    import numpy as np
    from speed import SpeedProbe

    probe = SpeedProbe(interval_s=0.05, first=1)
    with probe.running():
        sys.path.insert(0, str(SRC))
        import workloads as wl

        make_cases, _, warmup = wl.WORKLOADS[args.workload]
        make_cases(np.random.default_rng(args.seed))
        warmup()
    wall_s = perf_counter() - t0 - probe.spent
    print(json.dumps({"wall_s": wall_s, "scale": probe.scale(), "samples": len(probe.samples)}))
    return 0


def measure(cases, cycle, seconds, probe):
    """Closed loop, one caller, in whole cycles of the workload's design.

    Runs at least one cycle, and stops before a cycle that would overrun
    `seconds`.  Returns the runs, each cycle's results per second, and the
    reference seconds per wall second (from `probe`) of each cycle and of
    each result.
    """
    runs, rates, cycle_spans, result_spans = [], [], [], []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if rates and elapsed + elapsed / len(rates) > seconds:
            break
        c0 = perf_counter()
        for _ in range(cycle):
            t0 = perf_counter()
            runs.append(run_case(next(cases), probe))
            result_spans.append((t0, perf_counter()))
        cycle_spans.append((c0, perf_counter()))
        rates.append(cycle / sum(dt for _, _, dt in runs[-cycle:]))
    return (runs, rates, [probe.scale(*span) for span in cycle_spans],
            [probe.scale(*span) for span in result_spans])


def run_case(case, probe=None) -> tuple:
    """(case, Outcome or the exception it raised, seconds), the seconds
    without the time the speed probe took meanwhile."""
    spent = probe.spent if probe else 0.0
    t0 = perf_counter()
    try:
        out = case.run()
    except Exception as exc:  # a failed operation is a result, not a crash
        out = exc
    dt = perf_counter() - t0
    return case, out, dt - (probe.spent - spent if probe else 0.0)


def status(out) -> str:
    if isinstance(out, Exception):
        return "error"
    if not out.finite:
        return "nonfinite"
    return "ok" if out.passed else "check"


def scaled_err(out) -> float:
    return abs(out.value - out.truth) / max(1.0, abs(out.truth))


def end_to_end(runs, rates, scales, result_scales, setup_s, setup_wall_s) -> tuple:
    """(gated metrics, extra figures printed and recorded alongside them).

    `rates` are the cycles' wall-clock results per second, `scales` and
    `result_scales` the reference seconds per wall second of each cycle and
    of each result; `setup_s` is in reference seconds, `setup_wall_s` its
    wall-clock counterpart.
    """
    n = len(runs)
    states = [status(out) for _, out, _ in runs]
    ms = [dt * 1e3 for _, _, dt in runs]
    ms_ref = [v * k for v, k in zip(ms, result_scales)]
    with_truth = [out for (_, out, _), st in zip(runs, states)
                  if st in ("ok", "check") and out.truth is not None]
    covered = [abs(o.value - o.truth) <= o.err_est
               for o in with_truth if o.err_est is not None]
    errs = [scaled_err(o) for o in with_truth]
    gated = {
        "setup_s": setup_s,
        "results_per_s": statistics.median(r / k for r, k in zip(rates, scales)),
        "result_ms_p50": statistics.median(ms_ref),
        "ok_frac": states.count("ok") / n,
        "coverage": sum(covered) / len(covered) if covered else 0.0,
        "accuracy_digits_mean": statistics.fmean(
            -math.log10(max(e, ERR_FLOOR)) for e in errs) if errs else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "results": n,
        "wall": {"setup_s": setup_wall_s, "results_per_s": statistics.median(rates),
                 "result_ms_p50": statistics.median(ms)},
        "fail_frac": 1.0 - gated["ok_frac"],
        "result_ms_p90": statistics.quantiles(ms_ref, n=10)[-1] if n >= 100 else None,
        "true_err_p50": statistics.median(errs) if errs else None,
        "coverage_n": len(covered),
        "status": {s: states.count(s) for s in ("ok", "nonfinite", "check", "error")},
        "by_kind": by_kind(runs, states),
        # every result of a short run; of a long run, its first failures
        "details": [detail(case, out, dt, st) for (case, out, dt), st in zip(runs, states)
                    if n <= DETAIL_MAX or st != "ok"][:DETAIL_MAX],
    }
    return gated, extra


def unexpected_failures(runs, known) -> int:
    """Results that failed in a way the workload does not fail at the seed:
    any exception, or a failed result of a kind with no known failure of
    that status (see ``workloads.KNOWN_FAILURES``)."""
    bad = 0
    for case, out, _ in runs:
        st = status(out)
        bad += st == "error" or (st != "ok" and st not in known.get(case.kind, ()))
    return bad


def detail(case, out, dt, st) -> dict:
    row = {"kind": case.kind, "status": st, "ms": dt * 1e3}
    if isinstance(out, Exception):
        row["error"] = f"{type(out).__name__}: {out}"
    else:
        row.update(value=out.value, truth=out.truth, err_est=out.err_est)
    return row


def by_kind(runs, states) -> dict:
    out = {}
    for (case, _, dt), st in zip(runs, states):
        row = out.setdefault(case.kind, {"n": 0, "ok": 0, "nonfinite": 0, "check": 0,
                                         "error": 0, "ms_sum": 0.0})
        row["n"] += 1
        row[st] += 1
        row["ms_sum"] += dt * 1e3
    return out


def same_values(a, b) -> bool:
    """True when a traced rerun reproduced the untraced outcome exactly."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b)
    return (a.value == b.value or (math.isnan(a.value) and math.isnan(b.value))) \
        and a.passed == b.passed


def src_lines() -> dict:
    from tracer import LAYERS
    return {f"{m}.src_lines": len((SRC / "fracheat" / f"{m}.py").read_text().splitlines())
            for m in LAYERS}


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": commit(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fracheat" / "__init__.py").is_file():
        print(f"bench: no library sources at {SRC / 'fracheat'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    if args.cold_setup:
        return cold_setup(args)
    setups = cold_setups(args)
    setup_s = statistics.median(c["wall_s"] * c["scale"] for c in setups)

    sys.path.insert(0, str(SRC))
    import numpy as np
    import workloads as wl
    from speed import SpeedProbe

    make_cases, cycle, warmup = wl.WORKLOADS[args.workload]
    cases = make_cases(np.random.default_rng(args.seed))
    warmup()
    probe = SpeedProbe()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "cold_setups": setups}
    setup_wall_s = statistics.median(c["wall_s"] for c in setups)
    if args.trace == 0:
        with probe.running():
            runs, rates, scales, result_scales = measure(cases, cycle, args.seconds, probe)
        metrics, extra = end_to_end(runs, rates, scales, result_scales, setup_s, setup_wall_s)
        extra.update(cycle_rates=rates, cycle_scales=scales,
                     reference_s=[ref for _, ref in probe.samples])
        spec = declared["end_to_end"]
        mismatched = 0
    else:
        from tracer import Tracer

        # Both passes start with empty node caches, so that filling them
        # (and the warnings that raises) is in the traced pass and the
        # overhead compares like with like.  The tracer reads a clock that
        # stops while the speed probe runs, so no span holds probe time.
        tracer = Tracer(clock=probe.clock)
        traced, spans = [], []
        with probe.running():
            wl.clear_caches()
            runs, _, _, scales = measure(cases, cycle, args.seconds * TRACE_SLICE, probe)
            wl.clear_caches()
            with tracer.installed():
                for i, (case, _, _) in enumerate(runs):
                    tracer.result = i
                    t0 = perf_counter()
                    traced.append(run_case(case, probe))
                    spans.append((t0, perf_counter()))
        traced_scales = [probe.scale(*span) for span in spans]
        wall_s = sum(dt for _, _, dt in traced)
        mismatched = sum(not same_values(a[1], b[1]) for a, b in zip(runs, traced))
        metrics = tracer.metrics(len(traced), wall_s)
        metrics.update(src_lines())
        # in reference seconds, so that a change of machine speed between
        # the passes does not show as overhead
        metrics["trace.overhead_frac"] = (
            sum(dt * k for (_, _, dt), k in zip(traced, traced_scales))
            / sum(dt * k for (_, _, dt), k in zip(runs, scales)) - 1.0)
        _, extra = end_to_end(traced, [len(traced) / wall_s], [1.0], traced_scales,
                              setup_s, setup_wall_s)
        extra["trace_mismatches"] = mismatched
        spec = declared["per_layer"]
        runs = traced
        spans_file = BENCH / "out" / f"{args.workload}-seed{args.seed}-spans.json"
        spans_file.parent.mkdir(exist_ok=True)
        spans_file.write_text(json.dumps(tracer.dump()) + "\n")

    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics declared but not produced: {missing}")
    unexpected = unexpected_failures(runs, wl.KNOWN_FAILURES)
    extra["unexpected_failures"] = unexpected
    result = {
        "correct": unexpected == 0 and mismatched == 0,
        "attempted": len(runs),
        "failed": extra["status"]["error"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }
    record.update(extra=extra, result=result)
    out = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print_summary(args, result, extra)
    print(json.dumps(result))
    return 0


def print_summary(args, result, extra):
    print(f"[{args.workload} seed={args.seed} trace={args.trace}] "
          f"results={extra['results']} status={extra['status']} "
          f"unexpected_failures={extra['unexpected_failures']}")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print("  timings above in reference seconds; wall clock: "
          + ", ".join(f"{k} {v:.6g}" for k, v in extra["wall"].items()))
    p90 = extra["result_ms_p90"]
    print(f"  {'fail_frac':48s} {extra['fail_frac']:.6g} ratio")
    print(f"  {'result_ms_p90':48s} " + (f"{p90:.6g} ms" if p90 is not None else
          f"omitted: {extra['results']} samples, 100 needed"))
    te = extra["true_err_p50"]
    print(f"  {'true_err_p50':48s} " + (f"{te:.3e} (|value - truth| / max(1, |truth|))"
                                        if te is not None else "no result with a truth"))
    for kind, row in sorted(extra["by_kind"].items()):
        print(f"    {kind:22s} n={row['n']:5d} ok={row['ok']:5d} "
              f"nonfinite={row['nonfinite']:4d} check={row['check']:3d} "
              f"error={row['error']:3d} mean_ms={row['ms_sum'] / row['n']:.3f}")


if __name__ == "__main__":
    sys.exit(main())
