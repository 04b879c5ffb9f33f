"""Command line interface: reproducible experiment runner.

Subcommands map one-to-one onto the library's entry points:

  apply            operator values at points
  synthesize       kernel-convolution solution values at points
  decompose        internal/external split and remainder decay probe
  nu-profile       deviation profile of a field against a polynomial
  classify         modulus classification of a stored profile
  jet              scale-iterated jet extraction
  verify-kernel    empirical kernel bound verification
  exponent-recovery  synthesize -> fit -> profile -> exponent pipeline
  run              dispatch any of the above from a JSON config

All commands share one loader for --n, --s, --quad and --field
(`_problem`) and one writer (`_emit`).  The writer puts the outputs and a
run manifest (JSON), named after the stem of the first output (so
`decompose --probe s-decay` writes `s_decay.manifest.json` beside
`s_decay.csv`), in --out-dir.  Every manifest records `command`, `seed`,
`outputs` and `wall_time_s`; `n` and `s` when the command takes them;
`quad` and `quad_hash` (a hash of the quadrature settings) when it takes a
quadrature spec; and the command's own parameters, so runs are
reproducible bit for bit.  CSV values are printed with 17 significant
digits in scientific notation.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core import FracParams, ParabolicPolynomial, SpaceTimePoint
from .fields import make_field
from .kernel import (
    SamplePlan,
    verify_global_bound,
    verify_local_bound,
    verify_translation_bound,
)
from .operator import apply_fully_fractional
from .quadrature import QuadratureSpec
from .regularity import (
    NuProfile,
    classify_pointwise,
    estimate_exponent,
    exponent_recovery,
    extract_jet,
    nu_profile,
    target_exponent,
)
from .synthesis import (
    DecompositionBundle,
    decompose_internal,
    s_decay_probe,
    synthesize_solution,
)

CONFIG_SCHEMA_VERSION = 1

# The nine decomposition pieces: the bundle's fields after r, P and params.
PIECES = [f.name for f in dataclasses.fields(DecompositionBundle)][3:]


def write_csv(path: Path, header: list, rows: list):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.16e}" if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def quad_hash(quad: QuadratureSpec) -> str:
    blob = json.dumps(quad.signature(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def write_manifest(out_dir: Path, name: str, payload: dict):
    payload = {"tool": "fracheat", "version": __version__,
               "schema_version": CONFIG_SCHEMA_VERSION, **payload}
    path = out_dir / f"{name}.manifest.json"
    _write_json(path, payload)
    return path


def _emit(args, t0: float, files: dict, quad: QuadratureSpec | None = None,
          **record) -> list:
    """Write each output and then the command's one manifest.

    `files` maps a file name to a `(header, rows)` pair, written as CSV, or
    to a dict, written as JSON.  `record` holds the command's own manifest
    keys.  The manifest is named after the first output's stem.  Returns the
    output paths.
    """
    out = Path(args.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, content in files.items():
        paths.append(out / name)
        if isinstance(content, dict):
            _write_json(paths[-1], content)
        else:
            write_csv(paths[-1], *content)
    record.update(command=args.cmd, seed=args.seed, outputs=list(files))
    if hasattr(args, "n"):
        record.update(n=args.n, s=args.s)
    if quad is not None:
        record.update(quad=quad.signature(), quad_hash=quad_hash(quad))
    record["wall_time_s"] = time.time() - t0
    write_manifest(out, Path(next(iter(files))).stem, record)
    return paths


def _problem(args) -> tuple:
    """(params, quad, field) from --n, --s, --quad and --field (a path, JSON or id)."""
    params = FracParams(args.n, args.s)
    settings = json.loads(Path(args.quad).read_text()) if args.quad else {}
    accepted = [f.name for f in dataclasses.fields(QuadratureSpec)]
    unknown = sorted(set(settings) - set(accepted))
    if unknown:
        raise SystemExit(f"--quad: unknown keys {unknown}; accepted keys: {accepted}")
    try:
        quad = QuadratureSpec(**settings)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"--quad: {exc}") from None
    spec = args.field
    if os.path.exists(spec):
        spec = json.loads(Path(spec).read_text())
    else:
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError:
            pass
    return params, quad, make_field(spec, n=params.n)


def _csv_rows(path) -> list:
    """The non-empty lines of a CSV file, less a header row (a first line
    whose first cell is not a number)."""
    rows = [r for r in Path(path).read_text().strip().splitlines() if r]
    try:
        float(rows[0].split(",")[0])
    except (IndexError, ValueError):
        rows = rows[1:]
    return rows


def _load_points(spec: str, n: int) -> list:
    """Points from 'x1 ... xn t;...' inline syntax or a CSV file path."""
    chunks = _csv_rows(spec) if os.path.exists(spec) else spec.split(";")
    pts = []
    for chunk in chunks:
        vals = [float(v) for v in chunk.replace(",", " ").split()]
        if len(vals) != n + 1:
            raise SystemExit(f"point '{chunk}' must have {n + 1} coordinates")
        pts.append(SpaceTimePoint.of(vals[:-1], vals[-1]))
    return pts


def _point_table(n: int, columns: list, pts: list, values: list) -> tuple:
    """(header, rows): each point's coordinates, then its values."""
    header = [f"x{i+1}" for i in range(n)] + ["t"] + columns
    rows = [list(p.x) + [p.t] + [float(v) for v in vals] for p, vals in zip(pts, values)]
    return header, rows


def _poly_from_args(args, n: int) -> ParabolicPolynomial:
    if args.poly:
        return ParabolicPolynomial.from_json(Path(args.poly).read_text())
    return ParabolicPolynomial.zero(n)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_point_values(args, evaluate) -> int:
    """`evaluate(field, point, params, quad) -> (value, err)` at each point."""
    t0 = time.time()
    params, quad, f = _problem(args)
    pts = _load_points(args.points, params.n)
    values = [evaluate(f, pt, params, quad) for pt in pts]
    table = _point_table(params.n, ["value", "err_est"], pts, values)
    path, = _emit(args, t0, {f"{args.cmd}.csv": table}, quad, field=f.name)
    print(f"wrote {path}")
    return 0


def cmd_apply(args) -> int:
    return _cmd_point_values(args, apply_fully_fractional)


def cmd_synthesize(args) -> int:
    return _cmd_point_values(args, synthesize_solution)


def cmd_decompose(args) -> int:
    t0 = time.time()
    params, quad, f = _problem(args)
    P = _poly_from_args(args, params.n)
    if args.probe == "s-decay":
        radii = [2.0 ** (-(i + 1)) for i in range(args.depth)]
        try:
            probe = s_decay_probe(f, P, radii, params, quad=quad,
                                  grid=(args.grid, args.grid))
        except ValueError as exc:
            raise SystemExit(f"decompose --probe s-decay: {exc}") from None
        table = (["r", "avg_abs_S_r"], list(zip(probe["radii"], probe["averages"])))
        path, = _emit(args, t0, {"s_decay.csv": table}, quad, probe="s-decay",
                      field=f.name, slope=probe["slope"])
        print(f"slope={probe['slope']:.4f}  wrote {path}")
        return 0
    bundle = decompose_internal(f, P, args.r, params, quad=quad)
    pts = _load_points(args.points, params.n)
    columns = [c for name in PIECES for c in (name, f"{name}_err")]
    values = [[v for name in PIECES for v in getattr(bundle, name)(p)] for p in pts]
    table = _point_table(params.n, columns, pts, values)
    path, = _emit(args, t0, {"decompose.csv": table}, quad, r=args.r, field=f.name)
    print(f"wrote {path}")
    return 0


def cmd_nu_profile(args) -> int:
    t0 = time.time()
    params, _, f = _problem(args)
    P = _poly_from_args(args, params.n)
    base = SpaceTimePoint.of([args.x0] if args.n == 1 else [0.0] * args.n, args.t0)
    radii = [args.r0 * args.ratio**i for i in range(args.depth)]
    prof = nu_profile(f, P, base, radii, mode=args.mode,
                      grid=(args.grid, args.grid), spatial_only=args.spatial_only)
    rows = [(float(r), float(a), float(v))
            for r, a, v in zip(prof.radii, prof.raw, prof.nu)]
    path, = _emit(args, t0, {"nu_profile.csv": (["r", "raw_avg", "nu"], rows)},
                  field=f.name, mode=args.mode, base=[args.x0, args.t0],
                  radii=[float(r) for r in radii], spatial_only=args.spatial_only)
    print(f"wrote {path}")
    return 0


def cmd_classify(args) -> int:
    t0 = time.time()
    # (radius, raw[, nu]) rows, a header or none; the running sup is recomputed.
    vals = np.array([[float(v) for v in r.split(",")] for r in _csv_rows(args.profile)])
    prof = NuProfile.from_values(SpaceTimePoint.of([0.0], 0.0), vals[:, 0], vals[:, 1])
    report = classify_pointwise(prof, args.k, args.alpha)
    est = estimate_exponent(prof)
    payload = {
        "label": report.label, "k": args.k, "alpha": args.alpha,
        "exponent": est["exponent"], "log_correction": est["log_correction"],
        "diagnostics": {k: (v if isinstance(v, (int, float, str)) else float(v))
                        for k, v in report.diagnostics.items()},
    }
    _emit(args, t0, {"classify.json": payload}, inputs=[args.profile])
    print(json.dumps(payload["label"]))
    return 0


def cmd_jet(args) -> int:
    t0 = time.time()
    params, quad, f = _problem(args)
    P = _poly_from_args(args, params.n)
    jets = extract_jet(f, P, params, args.k, args.alpha,
                       eta=args.eta, depth=args.depth, quad=quad)
    payload = {
        "eta": jets.eta, "gamma": jets.gamma,
        "rates": {str(j): jets.rates[j] for j in jets.rates},
        "cauchy": {str(j): jets.cauchy[j] for j in jets.cauchy},
        "limits": {str(j): {str(sig): v for sig, v in jets.limits[j].items()}
                   for j in jets.limits},
        "diffs": {str(j): [float(v) for v in jets.diffs[j]] for j in jets.diffs},
        "expected_rate": target_exponent(args.k, args.alpha, args.s),
    }
    path, = _emit(args, t0, {"jet.json": payload}, quad, field=f.name)
    print(f"wrote {path}")
    return 0


# verify-kernel --lemma: the bound checked for (args, params, plan).
_VERIFIERS = {
    "global": lambda a, params, plan: verify_global_bound(
        a.a, a.b, a.A, a.r, n=params.n, plan=plan),
    "local": lambda a, params, plan: verify_local_bound(
        a.a, a.b, a.A, a.r, n=params.n, plan=plan),
    "translation": lambda a, params, plan: verify_translation_bound(
        params, a.m, a.l, a.r, deriv_order=a.deriv_order, plan=plan),
}


def cmd_verify_kernel(args) -> int:
    t0 = time.time()
    try:
        plan = SamplePlan(n_samples=args.samples, seed=args.seed)
    except ValueError as exc:  # argparse has made both integers
        raise SystemExit(f"verify-kernel: {exc}") from None
    rep = _VERIFIERS[args.lemma](args, FracParams(args.n, args.s), plan)
    payload = dataclasses.asdict(rep)
    payload["worst_point"] = [list(rep.worst_point[0]), rep.worst_point[1]]
    _emit(args, t0, {"verify_kernel.json": payload}, lemma=args.lemma)
    print(str(rep))
    return 0


def cmd_exponent_recovery(args) -> int:
    t0 = time.time()
    params, quad, f = _problem(args)
    result = exponent_recovery(
        f, params, args.k, args.alpha, quad=quad,
        depth=args.depth, start=args.start, fit_margin=args.fit_margin,
        grid=(args.grid, args.grid), spatial_only=args.spatial_only,
    )
    _emit(args, t0, {"exponent_recovery.json": result}, quad, field=f.name)
    print(f"exponent={result['exponent']:.4f} "
          f"log_correction={result['log_correction']}")
    return 0


def cmd_run(args) -> int:
    cfg = json.loads(Path(args.config).read_text())
    if cfg.get("schema_version", 1) != CONFIG_SCHEMA_VERSION:
        raise SystemExit(
            f"unsupported config schema_version {cfg.get('schema_version')}"
        )
    argv = [cfg.get("experiment")]
    for key, val in cfg.get("args", {}).items():
        if val is False:
            continue  # a false switch is one left off
        argv.append(f"--{key.replace('_', '-')}")
        if val is not True:
            argv.append(json.dumps(val) if isinstance(val, (dict, list)) else str(val))
    if args.out_dir:
        argv += ["--out-dir", args.out_dir]
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    return main(argv)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, problem=True, seed=None):
    """--seed and --out-dir; with `problem`, first --n, --s, --field, --quad."""
    if problem:
        p.add_argument("--n", type=int, default=1)
        p.add_argument("--s", type=float, default=0.5)
        p.add_argument("--field", required=True,
                       help="catalog id, inline JSON, or path to a field JSON")
        p.add_argument("--quad", help="path to a quadrature spec JSON (keys tau_min,"
                       " graded_nodes, hermite_order, spatial_nodes)")
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--out-dir", dest="out_dir", default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracheat",
        description="Fully fractional heat operator: quadrature, synthesis, "
                    "and pointwise regularity analysis",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("apply", help="evaluate the operator at points")
    _add_common(p)
    p.add_argument("--points", required=True, help="CSV path or 'x t;x t;...'")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("synthesize", help="evaluate the solution u = f * K")
    _add_common(p)
    p.add_argument("--points", required=True)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("decompose", help="internal/external decomposition")
    _add_common(p)
    p.add_argument("--poly", help="path to a polynomial JSON (default: zero)")
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--points", default="0 0")
    p.add_argument("--probe", choices=["values", "s-decay"], default="values")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--grid", type=int, default=64)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("nu-profile", help="deviation profile against a polynomial")
    _add_common(p)
    p.add_argument("--poly", help="polynomial JSON path (default zero)")
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--r0", type=float, default=0.5)
    p.add_argument("--ratio", type=float, default=0.5)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--mode", choices=["l1", "sup"], default="l1")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--spatial-only", dest="spatial_only", action="store_true")
    p.set_defaults(func=cmd_nu_profile)

    p = sub.add_parser("classify", help="classify a stored nu-profile CSV")
    p.add_argument("--profile", required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.0)
    _add_common(p, problem=False)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("jet", help="scale-iterated jet extraction")
    _add_common(p)
    p.add_argument("--poly", help="polynomial JSON path (default zero)")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.25)
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--depth", type=int, default=8)
    p.set_defaults(func=cmd_jet)

    p = sub.add_parser("verify-kernel", help="empirical kernel bound checks")
    p.add_argument("--lemma", choices=list(_VERIFIERS), required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--A", type=float, default=0.25)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--deriv-order", dest="deriv_order", type=int, default=None)
    p.add_argument("--samples", type=int, default=10000)
    _add_common(p, problem=False, seed=0)
    p.set_defaults(func=cmd_verify_kernel)

    p = sub.add_parser("exponent-recovery",
                       help="synthesize -> fit -> profile -> exponent")
    _add_common(p)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.25)
    p.add_argument("--depth", type=int, default=9)
    p.add_argument("--start", type=int, default=3)
    p.add_argument("--fit-margin", dest="fit_margin", type=int, default=4)
    p.add_argument("--grid", type=int, default=48)
    p.add_argument("--spatial-only", dest="spatial_only", action="store_true")
    p.set_defaults(func=cmd_exponent_recovery)

    p = sub.add_parser("run", help="run an experiment from a JSON config")
    p.add_argument("--config", required=True)
    _add_common(p, problem=False)
    p.set_defaults(func=cmd_run)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotImplementedError as exc:  # for example cylinder grids in n = 2
        raise SystemExit(f"{args.cmd}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
