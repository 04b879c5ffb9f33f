"""The three benchmark workloads: inputs from a seed, and a check per result.

A workload turns a seed into an endless stream of cases.  A case is a
callable that runs one *result* through the library's public functions and
returns an ``Outcome`` carrying the value, the truth it is checked against
(if it has one), the error estimate the library reported (if any) and
whether the check passed.  Every function is reached through the module
objects (``fh.apply_fully_fractional``), so the tracer's rebinding takes
effect.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

import fracheat as fh
from fracheat import cli, kernel, operator, quadrature


@dataclass
class Outcome:
    kind: str
    passed: bool
    value: float
    truth: Optional[float] = None
    err_est: Optional[float] = None
    finite: bool = True


@dataclass
class Case:
    kind: str
    run: Callable[[], Outcome]


def _finite(*vals) -> bool:
    return all(math.isfinite(float(v)) for v in vals)


def clear_caches():
    """Empty the library's lru caches so that every set-up starts cold."""
    quadrature.gauss_legendre.cache_clear()
    quadrature.gauss_hermite.cache_clear()
    kernel._derivative_factor.cache_clear()


# ---------------------------------------------------------------------------
# round_trip: L(K * f) = f at a fixed design of points
# ---------------------------------------------------------------------------

RT_INNER = fh.QuadratureSpec(graded_nodes=10, spatial_nodes=12)  # criterion 03
RT_OUTER = fh.QuadratureSpec(tau_min=1e-2, graded_nodes=6, spatial_nodes=8)
# A round-trip point costs seconds, so a run holds only a few, and whether
# a point passes its check depends on where it sits.  Freely drawn points
# would make runs differ more than any bound worth having, so the points are
# a fixed Latin design over x in [-0.4, 0.4], t in [-0.3, 0.3] (one point in
# each third of either range); the seed only orders them.
RT_DESIGN = [(-0.8 / 3, 0.0), (0.0, 0.2), (0.8 / 3, -0.2)]


def _round_trip_case(pt) -> Case:
    params = fh.FracParams(1, 0.5)

    def run():
        f = fh.gaussian_bump()
        u = fh.synthesized_field(f, params, RT_INNER)
        val, op_err = fh.apply_fully_fractional(u, pt, params, RT_OUTER)
        _, syn_err = fh.synthesize_solution(f, pt, params, RT_INNER)
        truth = f.eval_at(pt)
        est = op_err + syn_err
        ok = _finite(val, est) and abs(val - truth) <= 5.0 * est
        return Outcome("round_trip", ok, val, truth, est, _finite(val, est))

    return Case("round_trip", run)


def round_trip_cases(rng: np.random.Generator) -> Iterator[Case]:
    while True:
        for k in rng.permutation(len(RT_DESIGN)):
            yield _round_trip_case(fh.SpaceTimePoint.of(*RT_DESIGN[k]))


def round_trip_warmup():
    params = fh.FracParams(1, 0.5)
    f = fh.gaussian_bump()
    pt = fh.SpaceTimePoint.of(0.1, 0.0)
    fh.synthesize_solution(f, pt, params, RT_INNER)
    for spec in (RT_OUTER, RT_OUTER.coarsened()):
        quadrature.gauss_legendre(spec.graded_nodes)
        quadrature.gauss_legendre(spec.spatial_nodes)


# ---------------------------------------------------------------------------
# regularity: the exponent pipelines at fixed settings
# ---------------------------------------------------------------------------

QUAD_SYNTH = fh.QuadratureSpec(graded_nodes=10, spatial_nodes=12)
BASE = fh.SpaceTimePoint.of(0.0, 0.0)


def _exponent_recovery() -> Outcome:
    # criterion-07 source and target; spatial profile on a 24 x 8 grid
    res = cli.exponent_recovery(fh.power_cusp(0.25), fh.FracParams(1, 0.3), k=0,
                                alpha=0.25, quad=QUAD_SYNTH, grid=(24, 8),
                                spatial_only=True)
    prof = fh.NuProfile.from_values(BASE, res["radii"], res["nu"], spatial_only=True)
    label = fh.classify_pointwise(prof, 0, res["expected"]).label
    val, target, tol = res["exponent"], res["expected"], 0.15
    ok = (_finite(val) and abs(val - target) <= tol and not res["log_correction"]
          and label == "holder")
    return Outcome("exponent_recovery", ok, val, target, tol, _finite(val))


def _s_decay() -> Outcome:
    # criterion-06 source, radii and quadrature; 4 x 4 cylinder averages (the
    # slope agrees with 16 x 16 to 1e-3, and the probe stays well below
    # exponent_recovery in cost, so the median result is one kind's median)
    params = fh.FracParams(1, 0.5)
    res = fh.s_decay_probe(fh.power_cusp(0.5), fh.ParabolicPolynomial.zero(1),
                           [2.0**-j for j in range(1, 7)], params,
                           quad=fh.QuadratureSpec(graded_nodes=8, spatial_nodes=10),
                           grid=(4, 4))
    target = fh.target_exponent(0, 0.5, params.s)
    order = np.argsort(res["radii"])[::-1]
    prof = fh.NuProfile.from_values(BASE, [res["radii"][i] for i in order],
                                    [res["averages"][i] for i in order])
    label = fh.classify_pointwise(prof, 0, target).label
    val = res["slope"]
    ok = _finite(val) and val >= 1.3 and label == "holder"
    return Outcome("s_decay_probe", ok, val, target, target - 1.3, _finite(val))


def _extract_jet() -> Outcome:
    # criterion-10 settings
    params = fh.FracParams(1, 0.5)
    js = fh.extract_jet(fh.power_cusp(0.25), fh.ParabolicPolynomial.zero(1), params,
                        k=0, alpha=0.25, depth=6, quad=QUAD_SYNTH)
    target = fh.target_exponent(0, 0.25, params.s)
    rates = [r for r in js.rates.values() if not math.isnan(r)]
    ok = (bool(rates) and all(abs(r - target) <= 0.2 for r in rates)
          and all(js.cauchy.values()))
    val = rates[0] if rates else math.nan
    return Outcome("extract_jet", ok, val, target, 0.2, _finite(val))


REGULARITY = [Case("exponent_recovery", _exponent_recovery),
              Case("s_decay_probe", _s_decay),
              Case("extract_jet", _extract_jet)]


def regularity_cases(rng: np.random.Generator) -> Iterator[Case]:
    while True:
        for k in rng.permutation(len(REGULARITY)):
            yield REGULARITY[k]


def regularity_warmup():
    fh.extract_jet(fh.power_cusp(0.25), fh.ParabolicPolynomial.zero(1),
                   fh.FracParams(1, 0.5), k=0, alpha=0.25, depth=3, quad=QUAD_SYNTH)
    for nodes in (8, 10, 12):
        quadrature.gauss_legendre(nodes)


# ---------------------------------------------------------------------------
# query_mix: independent single-point queries, as the CLI issues them
# ---------------------------------------------------------------------------

QUAD = fh.QuadratureSpec()
# (lam, |k|) templates.  (0, k >= 1), (0.2, k >= 2), (0.5, k >= 2) and
# (1, 3) return NaN at the seed: Hermite orders past ~400 have NaN weights.
SYMBOL_1D = [(lam, k) for lam in (0.0, 0.2, 0.5, 1.0, 2.0) for k in (0.0, 1.0, 2.0, 3.0)]
SYMBOL_2D = [(lam, k) for lam in (0.5, 1.0, 2.0) for k in (0.0, 1.0)]
VERIFY_GLOBAL = [(1.0, 1.0, 0.25), (2.0, 2.5, 0.5), (0.5, 1.0, 1.0)]
VERIFY_TRANSLATION = [(2, 1, None), (2, 1, 1), (3, 2, 2)]
QUERY_MIX_CYCLE = len(SYMBOL_1D) + len(SYMBOL_2D) + 4 + 1 + 3 + 1


def _symbol_case(n, lam, kvec, s, pt) -> Case:
    def run():
        params = fh.FracParams(n, s)
        field = fh.exp_symbol(lam, kvec, n)
        val, err = fh.apply_fully_fractional(field, pt, params, QUAD)
        amp = operator.symbol_oracle(lam, kvec, s) * math.exp(lam * pt.t)
        truth = operator.symbol_oracle(lam, kvec, s) * field.eval_at(pt)
        fin = _finite(val, err)
        ok = fin and abs(val - truth) <= 1e-3 * amp + 1e-12
        return Outcome(f"symbol_n{n}", ok, val, truth, err, fin)

    return Case(f"symbol_n{n}", run)


def _fraclap_case(k, s, x) -> Case:
    def run():
        val, err = operator.apply_fractional_laplacian(
            fh.exp_symbol(0.0, [k], 1), x, fh.FracParams(1, s), QUAD)
        amp = abs(k) ** (2.0 * s)
        truth = amp * math.cos(k * x)
        fin = _finite(val, err)
        return Outcome("fractional_laplacian", fin and abs(val - truth) <= 1e-3 * amp,
                       val, truth, err, fin)

    return Case("fractional_laplacian", run)


def _marchaud_case(lam, s, t) -> Case:
    def run():
        val, err = operator.apply_marchaud(fh.exp_symbol(lam, [0.0], 1), t, s, QUAD)
        truth = lam**s * math.exp(lam * t)
        fin = _finite(val, err)
        return Outcome("marchaud", fin and abs(val - truth) <= 1e-3 * truth,
                       val, truth, err, fin)

    return Case("marchaud", run)


def _mass_case(s, T) -> Case:
    def run():
        val, err = fh.kernel_mass(fh.FracParams(1, s), T)
        truth = T**s / math.gamma(1.0 - s)
        fin = _finite(val, err)
        return Outcome("kernel_mass", fin and abs(val - truth) <= 1e-6 * truth,
                       val, truth, err, fin)

    return Case("kernel_mass", run)


def _verify_case(kind, fn) -> Case:
    def run():
        rep = fn()
        val = rep.empirical_constant
        return Outcome(kind, _finite(val) and rep.refinement_stable, val,
                       finite=_finite(val))

    return Case(kind, run)


def _decomposition_case(r, pt) -> Case:
    """synthesize_solution plus the seven pieces at one point, three identities:
    u = v_r + w_r, w_1 = S_r + T_r + u_P, and synthesize_solution = u."""
    params = fh.FracParams(1, 0.5)
    identities = [("u", ("v_r", "w_r")), ("w_1", ("S_r", "T_r", "u_P")), ("syn", ("u",))]

    def run():
        f = fh.gaussian_bump()
        bundle = fh.decompose_internal(f, fh.ParabolicPolynomial.zero(1), r,
                                       params, BASE, QUAD_SYNTH)
        vals = {name: getattr(bundle, name)(pt) for name in
                ("u", "v_r", "w_r", "w_1", "S_r", "T_r", "u_P")}
        vals["syn"] = fh.synthesize_solution(f, pt, params, QUAD_SYNTH)
        fin = _finite(*(v for pair in vals.values() for v in pair))
        worst = None  # (ratio, residual, estimate) of the least satisfied identity
        for lhs, rhs in identities:
            resid = vals[lhs][0] - sum(vals[name][0] for name in rhs)
            est = vals[lhs][1] + sum(vals[name][1] for name in rhs)
            ratio = abs(resid) / est if est > 0 else math.inf
            if worst is None or not ratio <= worst[0]:
                worst = (ratio, resid, est)
        ratio, resid, est = worst
        return Outcome("decomposition", fin and ratio <= 5.0, resid, 0.0, est, fin)

    return Case("decomposition", run)


def query_mix_cases(rng: np.random.Generator) -> Iterator[Case]:
    s_draw = lambda: float(rng.uniform(0.1, 0.9))  # noqa: E731
    while True:
        cycle = []
        for lam, k in SYMBOL_1D:
            k = k * rng.choice([-1.0, 1.0])
            pt = fh.SpaceTimePoint.of(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
            cycle.append(_symbol_case(1, lam, [k], s_draw(), pt))
        for lam, k in SYMBOL_2D:
            ang = rng.uniform(0, 2 * math.pi)
            pt = fh.SpaceTimePoint.of(rng.uniform(-1, 1, 2), rng.uniform(-0.5, 0.5))
            cycle.append(_symbol_case(2, lam, [k * math.cos(ang), k * math.sin(ang)],
                                      s_draw(), pt))
        for _ in range(2):
            cycle.append(_fraclap_case(rng.uniform(0.5, 3.0), s_draw(), rng.uniform(-1, 1)))
            cycle.append(_marchaud_case(rng.uniform(0.2, 2.0), s_draw(),
                                        rng.uniform(-0.5, 0.5)))
        cycle.append(_mass_case(s_draw(), rng.uniform(0.5, 4.0)))
        plan = kernel.SamplePlan(n_samples=100_000, seed=int(rng.integers(1 << 30)))
        a, b, A = VERIFY_GLOBAL[rng.integers(len(VERIFY_GLOBAL))]
        cycle.append(_verify_case("verify_global", lambda a=a, b=b, A=A, plan=plan:
                                  fh.verify_global_bound(a, b, A, r=0.5, plan=plan)))
        cycle.append(_verify_case("verify_local", lambda a=a, b=b, A=A, plan=plan:
                                  fh.verify_local_bound(a, b, A, r=0.5, plan=plan)))
        m, l, d = VERIFY_TRANSLATION[rng.integers(len(VERIFY_TRANSLATION))]
        cycle.append(_verify_case(
            "verify_translation", lambda m=m, l=l, d=d, plan=plan:
            fh.verify_translation_bound(fh.FracParams(1, 0.5), m=m, l=l, r=0.5,
                                        deriv_order=d, plan=plan)))
        pt = fh.SpaceTimePoint.of(rng.uniform(-0.5, 0.5), rng.uniform(-0.25, 0.0))
        cycle.append(_decomposition_case(float(rng.choice([0.25, 0.5])), pt))
        for k in rng.permutation(len(cycle)):
            yield cycle[k]


def query_mix_warmup():
    """Run each query kind once at fixed inputs: fills every node cache."""
    rng = np.random.default_rng(0)
    for case in itertools.islice(query_mix_cases(rng), QUERY_MIX_CYCLE):
        case.run()


# How results fail at the seed (see README, "Known failures"): kind -> the
# statuses a failure of that kind may have.  A failure outside this table,
# or any exception, makes a run incorrect.
KNOWN_FAILURES = {
    "symbol_n1": {"nonfinite"},  # Hermite orders past ~400 have NaN weights
    "fractional_laplacian": {"check"},  # misses by ~3e-3 relative at s near 0.9
    "round_trip": {"check"},  # (4/15, -0.2): the estimate is 44x too small
}

WORKLOADS = {
    # name: (case stream from a generator, cases per design cycle, warm-up)
    "round_trip": (round_trip_cases, len(RT_DESIGN), round_trip_warmup),
    "regularity": (regularity_cases, len(REGULARITY), regularity_warmup),
    "query_mix": (query_mix_cases, QUERY_MIX_CYCLE, query_mix_warmup),
}
