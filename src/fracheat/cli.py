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

Every invocation writes a run manifest (JSON) next to its outputs with the
exact parameters, a hash of the quadrature settings, and the seed, so runs
are reproducible bit for bit.  CSV values are printed with 17 significant
digits in scientific notation.  Point loops honor --threads (or the
FRACHEAT_THREADS environment variable); results do not depend on the
thread count.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core import FracParams, ParabolicPolynomial, ScalarField, SpaceTimePoint
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
    _jet_degree,
    classify_pointwise,
    estimate_exponent,
    extract_jet,
    fit_polynomial,
    nu_profile,
    target_exponent,
)
from .synthesis import (
    decompose_internal,
    s_decay_probe,
    synthesize_solution,
    synthesized_field,
)

CONFIG_SCHEMA_VERSION = 1


def _fmt(v: float) -> str:
    return f"{v:.16e}"


def write_csv(path: Path, header: list, rows: list):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def quad_hash(quad: QuadratureSpec) -> str:
    blob = json.dumps(quad.signature(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def write_manifest(out_dir: Path, name: str, payload: dict):
    payload = dict(payload)
    payload.setdefault("tool", "fracheat")
    payload.setdefault("version", __version__)
    payload.setdefault("schema_version", CONFIG_SCHEMA_VERSION)
    path = out_dir / f"{name}.manifest.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _load_quad(args) -> QuadratureSpec:
    if getattr(args, "quad", None):
        cfg = json.loads(Path(args.quad).read_text())
        return QuadratureSpec(**cfg)
    return QuadratureSpec()


def _load_points(spec: str, n: int) -> list:
    """Points from 'x1 ... xn t;...' inline syntax or a CSV file path."""
    pts = []
    if os.path.exists(spec):
        rows = [r for r in Path(spec).read_text().strip().splitlines() if r]
        if rows and not _is_number(rows[0].split(",")[0]):
            rows = rows[1:]
        for row in rows:
            vals = [float(v) for v in row.split(",")]
            pts.append(SpaceTimePoint.of(vals[:-1], vals[-1]))
        return pts
    for chunk in spec.split(";"):
        vals = [float(v) for v in chunk.replace(",", " ").split()]
        if len(vals) != n + 1:
            raise SystemExit(f"point '{chunk}' must have {n + 1} coordinates")
        pts.append(SpaceTimePoint.of(vals[:-1], vals[-1]))
    return pts


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _threads(args) -> int:
    if getattr(args, "threads", None):
        return max(1, args.threads)
    env = os.environ.get("FRACHEAT_THREADS")
    return max(1, int(env)) if env else 1


def _map_points(fn, pts, n_threads: int):
    if n_threads <= 1:
        return [fn(p) for p in pts]
    with concurrent.futures.ThreadPoolExecutor(max_workers=n_threads) as ex:
        return list(ex.map(fn, pts))


def _field_from_args(args, n: int) -> ScalarField:
    spec = args.field
    if os.path.exists(spec):
        return make_field(json.loads(Path(spec).read_text()), n=n)
    try:
        return make_field(json.loads(spec), n=n)
    except json.JSONDecodeError:
        return make_field(spec, n=n)


def _poly_from_args(args, n: int) -> ParabolicPolynomial:
    if getattr(args, "poly", None):
        return ParabolicPolynomial.from_json(Path(args.poly).read_text())
    return ParabolicPolynomial.zero(n)


def _out_dir(args) -> Path:
    d = Path(getattr(args, "out_dir", None) or ".")
    d.mkdir(parents=True, exist_ok=True)
    return d


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_apply(args) -> int:
    params = FracParams(args.n, args.s)
    quad = _load_quad(args)
    u = _field_from_args(args, params.n)
    pts = _load_points(args.points, params.n)
    t0 = time.time()

    def one(pt):
        return apply_fully_fractional(u, pt, params, quad)

    results = _map_points(one, pts, _threads(args))
    out = _out_dir(args)
    rows = [
        list(p.x) + [p.t, float(v), float(e)] for p, (v, e) in zip(pts, results)
    ]
    header = [f"x{i+1}" for i in range(params.n)] + ["t", "value", "err_est"]
    csv_path = out / "apply.csv"
    write_csv(csv_path, header, rows)
    write_manifest(out, "apply", {
        "command": "apply", "n": params.n, "s": params.s,
        "field": u.name, "quad": quad.signature(), "quad_hash": quad_hash(quad),
        "seed": args.seed, "threads": _threads(args),
        "outputs": [csv_path.name], "wall_time_s": time.time() - t0,
    })
    print(f"wrote {csv_path}")
    return 0


def cmd_synthesize(args) -> int:
    params = FracParams(args.n, args.s)
    quad = _load_quad(args)
    f = _field_from_args(args, params.n)
    pts = _load_points(args.points, params.n)
    t0 = time.time()

    def one(pt):
        return synthesize_solution(f, pt, params, quad)

    results = _map_points(one, pts, _threads(args))
    out = _out_dir(args)
    rows = [list(p.x) + [p.t, float(v), float(e)] for p, (v, e) in zip(pts, results)]
    header = [f"x{i+1}" for i in range(params.n)] + ["t", "value", "err_est"]
    csv_path = out / "synthesize.csv"
    write_csv(csv_path, header, rows)
    write_manifest(out, "synthesize", {
        "command": "synthesize", "n": params.n, "s": params.s,
        "field": f.name, "quad": quad.signature(), "quad_hash": quad_hash(quad),
        "seed": args.seed, "threads": _threads(args),
        "outputs": [csv_path.name], "wall_time_s": time.time() - t0,
    })
    print(f"wrote {csv_path}")
    return 0


def cmd_decompose(args) -> int:
    params = FracParams(args.n, args.s)
    quad = _load_quad(args)
    f = _field_from_args(args, params.n)
    P = _poly_from_args(args, params.n)
    out = _out_dir(args)
    t0 = time.time()
    if args.probe == "s-decay":
        radii = [2.0 ** (-(i + 1)) for i in range(args.depth)]
        probe = s_decay_probe(f, P, radii, params, quad=quad,
                              grid=(args.grid, args.grid))
        csv_path = out / "s_decay.csv"
        write_csv(csv_path, ["r", "avg_abs_S_r"],
                  list(zip(probe["radii"], probe["averages"])))
        write_manifest(out, "decompose", {
            "command": "decompose", "probe": "s-decay", "n": params.n, "s": params.s,
            "field": f.name, "slope": probe["slope"],
            "quad": quad.signature(), "quad_hash": quad_hash(quad),
            "seed": args.seed, "outputs": [csv_path.name],
            "wall_time_s": time.time() - t0,
        })
        print(f"slope={probe['slope']:.4f}  wrote {csv_path}")
        return 0
    bundle = decompose_internal(f, P, args.r, params, quad=quad)
    pts = _load_points(args.points, params.n)
    rows = []
    for p in pts:
        vals = {name: getattr(bundle, name)(p) for name in
                ("u", "v_r", "w_r", "w_1", "S_r", "T_r", "u_P")}
        rows.append(list(p.x) + [p.t] + [float(vals[k][0]) for k in
                                         ("u", "v_r", "w_r", "w_1", "S_r", "T_r", "u_P")])
    header = [f"x{i+1}" for i in range(params.n)] + [
        "t", "u", "v_r", "w_r", "w_1", "S_r", "T_r", "u_P"]
    csv_path = out / "decompose.csv"
    write_csv(csv_path, header, rows)
    write_manifest(out, "decompose", {
        "command": "decompose", "r": args.r, "n": params.n, "s": params.s,
        "field": f.name, "quad": quad.signature(), "quad_hash": quad_hash(quad),
        "seed": args.seed, "outputs": [csv_path.name], "wall_time_s": time.time() - t0,
    })
    print(f"wrote {csv_path}")
    return 0


def cmd_nu_profile(args) -> int:
    f = _field_from_args(args, args.n)
    P = _poly_from_args(args, args.n)
    base = SpaceTimePoint.of([args.x0] if args.n == 1 else [0.0] * args.n, args.t0)
    radii = [args.r0 * args.ratio**i for i in range(args.depth)]
    prof = nu_profile(f, P, base, radii, mode=args.mode,
                      grid=(args.grid, args.grid), spatial_only=args.spatial_only)
    out = _out_dir(args)
    csv_path = out / "nu_profile.csv"
    write_csv(csv_path, ["r", "raw_avg", "nu"],
              [(float(r), float(a), float(v))
               for r, a, v in zip(prof.radii, prof.raw, prof.nu)])
    write_manifest(out, "nu_profile", {
        "command": "nu-profile", "field": f.name, "mode": args.mode,
        "base": [args.x0, args.t0], "radii": [float(r) for r in radii],
        "spatial_only": args.spatial_only, "seed": args.seed,
        "outputs": [csv_path.name],
    })
    print(f"wrote {csv_path}")
    return 0


def _profile_from_csv(path: str) -> NuProfile:
    """Load (radius, raw[, nu]) rows; the running sup is recomputed."""
    rows = Path(path).read_text().strip().splitlines()[1:]
    vals = np.array([[float(v) for v in r.split(",")] for r in rows])
    base = SpaceTimePoint.of([0.0], 0.0)
    return NuProfile.from_values(base, vals[:, 0], vals[:, 1])


def cmd_classify(args) -> int:
    prof = _profile_from_csv(args.profile)
    report = classify_pointwise(prof, args.k, args.alpha)
    est = estimate_exponent(prof)
    out = _out_dir(args)
    payload = {
        "label": report.label, "k": args.k, "alpha": args.alpha,
        "exponent": est["exponent"], "log_correction": est["log_correction"],
        "diagnostics": {k: (v if isinstance(v, (int, float, str)) else float(v))
                        for k, v in report.diagnostics.items()},
    }
    path = out / "classify.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    write_manifest(out, "classify", {
        "command": "classify", "inputs": [args.profile], "outputs": [path.name],
        "seed": args.seed,
    })
    print(json.dumps(payload["label"]))
    return 0


def cmd_jet(args) -> int:
    params = FracParams(args.n, args.s)
    quad = _load_quad(args)
    f = _field_from_args(args, params.n)
    P = _poly_from_args(args, params.n)
    jets = extract_jet(f, P, params, args.k, args.alpha,
                       eta=args.eta, depth=args.depth, quad=quad)
    out = _out_dir(args)
    payload = {
        "eta": jets.eta, "gamma": jets.gamma,
        "rates": {str(j): jets.rates[j] for j in jets.rates},
        "cauchy": {str(j): jets.cauchy[j] for j in jets.cauchy},
        "limits": {str(j): {str(sig): v for sig, v in jets.limits[j].items()}
                   for j in jets.limits},
        "diffs": {str(j): [float(v) for v in jets.diffs[j]] for j in jets.diffs},
        "expected_rate": target_exponent(args.k, args.alpha, args.s),
    }
    path = out / "jet.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    write_manifest(out, "jet", {
        "command": "jet", "n": params.n, "s": params.s, "field": f.name,
        "quad": quad.signature(), "quad_hash": quad_hash(quad),
        "seed": args.seed, "outputs": [path.name],
    })
    print(f"wrote {path}")
    return 0


def cmd_verify_kernel(args) -> int:
    plan = SamplePlan(n_samples=args.samples, seed=args.seed or 0)
    params = FracParams(args.n, args.s)
    if args.lemma == "global":
        rep = verify_global_bound(args.a, args.b, args.A, args.r, n=args.n, plan=plan)
    elif args.lemma == "local":
        rep = verify_local_bound(args.a, args.b, args.A, args.r, n=args.n, plan=plan)
    elif args.lemma == "translation":
        rep = verify_translation_bound(params, args.m, args.l, args.r,
                                       deriv_order=args.deriv_order, plan=plan)
    else:
        raise SystemExit(f"unknown lemma {args.lemma}")
    out = _out_dir(args)
    payload = {
        "lemma": rep.lemma,
        "empirical_constant": rep.empirical_constant,
        "worst_point": [list(rep.worst_point[0]), rep.worst_point[1]],
        "refinement_stable": rep.refinement_stable,
        "refinement_change": rep.refinement_change,
        "n_samples": rep.n_samples,
        "params": rep.params,
    }
    path = out / "verify_kernel.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    write_manifest(out, "verify_kernel", {
        "command": "verify-kernel", "lemma": args.lemma, "seed": args.seed,
        "outputs": [path.name],
    })
    print(str(rep))
    return 0


def cmd_exponent_recovery(args) -> int:
    params = FracParams(args.n, args.s)
    quad = _load_quad(args)
    f = _field_from_args(args, params.n)
    t0 = time.time()
    result = exponent_recovery(
        f, params, args.k, args.alpha, quad=quad,
        depth=args.depth, start=args.start, fit_margin=args.fit_margin,
        grid=(args.grid, args.grid), spatial_only=args.spatial_only,
    )
    out = _out_dir(args)
    path = out / "exponent_recovery.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    write_manifest(out, "exponent_recovery", {
        "command": "exponent-recovery", "n": params.n, "s": params.s,
        "field": f.name, "quad": quad.signature(), "quad_hash": quad_hash(quad),
        "seed": args.seed, "outputs": [path.name], "wall_time_s": time.time() - t0,
    })
    print(f"exponent={result['exponent']:.4f} "
          f"log_correction={result['log_correction']}")
    return 0


def exponent_recovery(
    f: ScalarField,
    params: FracParams,
    k: int,
    alpha: float,
    quad: QuadratureSpec = QuadratureSpec(),
    depth: int = 9,
    start: int = 3,
    fit_margin: int = 4,
    grid: tuple = (48, 48),
    spatial_only: bool = False,
) -> dict:
    """Synthesize, fit a local polynomial, profile the deviation, estimate.

    The fit degree is gamma = k + floor(alpha + 2s); when alpha + 2s is an
    integer the degree drops to gamma - 1 (threshold case).  The expected
    exponent of the recovered profile is k + alpha + 2s.  Profile radii run
    2^-start .. 2^-depth; the polynomial is fitted at 2^-(depth+fit_margin)
    so the fit residual does not bias the smallest profile radii.
    """
    gamma, degree = _jet_degree(k, alpha, params.s)
    u = synthesized_field(f, params, quad=quad)
    base = SpaceTimePoint.of([0.0] * params.n, 0.0)
    radii = [2.0**-i for i in range(start, depth + 1)]
    fit_r = 2.0 ** -(depth + fit_margin)
    P = fit_polynomial(u, base, degree, fit_r, grid=grid)
    prof = nu_profile(u, P, base, radii, grid=grid, spatial_only=spatial_only)
    est = estimate_exponent(prof)
    return {
        "exponent": est["exponent"],
        "log_correction": est["log_correction"],
        "expected": target_exponent(k, alpha, params.s),
        "degree": degree,
        "integer_threshold": degree != gamma,
        "radii": [float(r) for r in radii],
        "nu": [float(v) for v in prof.nu],
        "raw": [float(v) for v in prof.raw],
        "poly": P.to_dict(),
    }


def cmd_run(args) -> int:
    cfg = json.loads(Path(args.config).read_text())
    if cfg.get("schema_version", 1) != CONFIG_SCHEMA_VERSION:
        raise SystemExit(
            f"unsupported config schema_version {cfg.get('schema_version')}"
        )
    experiment = cfg.get("experiment")
    argv = [experiment]
    for key, val in cfg.get("args", {}).items():
        argv.append(f"--{key.replace('_', '-')}")
        if not isinstance(val, bool):
            argv.append(json.dumps(val) if isinstance(val, (dict, list)) else str(val))
    if args.out_dir:
        argv += ["--out-dir", args.out_dir]
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    return main(argv)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, with_field=True):
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--s", type=float, default=0.5)
    if with_field:
        p.add_argument("--field", required=True,
                       help="catalog id, inline JSON, or path to a field JSON")
    p.add_argument("--quad", help="path to a quadrature spec JSON")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", dest="out_dir", default=None)
    p.add_argument("--threads", type=int, default=None)


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
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", dest="out_dir", default=None)
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
    p.add_argument("--lemma", choices=["global", "local", "translation"],
                   required=True)
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", dest="out_dir", default=None)
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
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", dest="out_dir", default=None)
    p.set_defaults(func=cmd_run)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
