"""End-to-end acceptance checks, one test per criterion.

Each test prints a single summary line `[criterion NN] PASS/FAIL ...` so the
whole battery can be scanned at a glance.  The expensive synthesized-solution
fixtures are shared across tests.
"""

import math

import numpy as np
import pytest

from fracheat import (
    FracParams,
    ParabolicPolynomial,
    QuadratureSpec,
    SpaceTimePoint,
    apply_fully_fractional,
    decompose_internal,
    exp_symbol,
    gaussian_bump,
    kernel_mass,
    power_cusp,
    s_decay_probe,
    synthesize_solution,
    synthesized_field,
)
from fracheat.cli import exponent_recovery
from fracheat.kernel import (
    SamplePlan,
    eval_kernel,
    verify_global_bound,
    verify_local_bound,
    verify_translation_bound,
)
from fracheat.operator import apply_fractional_laplacian, symbol_oracle
from fracheat.regularity import (
    NuProfile,
    classify_pointwise,
    estimate_exponent,
    extract_jet,
    nu_profile,
    reduce_to_g,
)

QUAD = QuadratureSpec()
QUAD_SYNTH = QuadratureSpec(graded_nodes=10, spatial_nodes=12)
QUAD_APPLY = QuadratureSpec(tau_min=1e-6, graded_nodes=8, spatial_nodes=10)


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def test_criterion_01_symbol_suite():
    points = [SpaceTimePoint.of(x, t) for x, t in
              [(0.0, 0.0), (0.3, 0.1), (-0.7, 0.4), (1.1, -0.2), (0.2, 1.0)]]
    worst = 0.0
    for lam, kk, s in [(1.0, 0.0, 0.5), (0.5, 1.0, 0.5),
                       (1.0, 1.0, 0.3), (2.0, 0.0, 0.7)]:
        params = FracParams(1, s)
        f = exp_symbol(lam, [kk], 1)
        sym = symbol_oracle(lam, [kk], s)
        for pt in points:
            truth = sym * f.eval_at(pt)
            if abs(truth) < 1e-10:
                continue
            val, _ = apply_fully_fractional(f, pt, params, QUAD)
            assert math.isfinite(val), (lam, kk, s, pt)  # max() would drop a NaN
            worst = max(worst, abs(val - truth) / abs(truth))
    params = FracParams(1, 0.5)
    cos_field = exp_symbol(0.0, [1.0], 1)
    for x in (0.0, 0.5, 1.2):
        val, _ = apply_fractional_laplacian(cos_field, x, params, QUAD)
        assert math.isfinite(val), x
        worst = max(worst, abs(val - math.cos(x)) / max(abs(math.cos(x)), 1e-9))
    report(1, worst < 1e-3, f"symbol suite worst relative error {worst:.2e}")


def test_criterion_02_kernel_mass_and_scaling():
    params = FracParams(1, 0.5)
    mass_err = max(
        abs(kernel_mass(params, T)[0] - math.sqrt(T / math.pi)) for T in (1.0, 4.0)
    )
    rng = np.random.default_rng(12)
    x = rng.normal(size=(100, 1))
    t = rng.uniform(0.05, 4.0, size=100)
    lam = 1.9
    left = eval_kernel(params, lam * x, lam**2 * t)
    right = lam ** (-(1 + 2 - 2 * params.s)) * eval_kernel(params, x, t)
    scale_err = float(np.max(np.abs(left / right - 1.0)))
    ok = mass_err < 1e-6 and scale_err < 1e-12
    report(2, ok, f"mass error {mass_err:.2e}, scaling error {scale_err:.2e}")


def test_criterion_03_round_trip():
    params = FracParams(1, 0.5)
    f = gaussian_bump()
    u = synthesized_field(f, params, QUAD_SYNTH)
    rng = np.random.default_rng(23)
    worst_ratio = 0.0
    worst_est = 0.0
    for _ in range(10):
        pt = SpaceTimePoint.of(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
        val, op_err = apply_fully_fractional(u, pt, params, QUAD_APPLY)
        _, syn_err = synthesize_solution(f, pt, params, QUAD_SYNTH)
        est = op_err + syn_err
        diff = abs(val - f.eval_at(pt))
        worst_ratio = max(worst_ratio, diff / (5.0 * est))
        worst_est = max(worst_est, est)
    ok = worst_ratio < 1.0 and worst_est < 1e-2  # max |f| = 1
    report(3, ok, f"round trip worst |diff|/(5 est) {worst_ratio:.3f}, "
                  f"worst est {worst_est:.2e}")


def test_criterion_04_bound_verifiers():
    params = FracParams(1, 0.5)
    small = SamplePlan(n_samples=10_000, seed=3)
    large = SamplePlan(n_samples=100_000, seed=3)
    worst = 0.0
    for a, b, A in [(1.0, 1.0, 0.25), (2.0, 2.5, 0.5), (0.5, 1.0, 1.0)]:
        for fn in (verify_global_bound, verify_local_bound):
            c1 = fn(a, b, A, r=0.5, plan=small)
            c2 = fn(a, b, A, r=0.5, plan=large)
            assert c1.refinement_stable and c2.refinement_stable
            worst = max(worst, abs(c2.empirical_constant - c1.empirical_constant)
                        / c1.empirical_constant)
    for m, l, k in [(2, 1, None), (2, 1, 1), (3, 2, 2)]:
        c1 = verify_translation_bound(params, m=m, l=l, r=0.5,
                                      deriv_order=k, plan=small)
        c2 = verify_translation_bound(params, m=m, l=l, r=0.5,
                                      deriv_order=k, plan=large)
        assert c1.refinement_stable and c2.refinement_stable
        worst = max(worst, abs(c2.empirical_constant - c1.empirical_constant)
                    / c1.empirical_constant)
    report(4, worst < 0.05, f"verifier worst refinement change {worst:.4f}")


def test_criterion_05_decomposition_identities():
    params = FracParams(1, 0.5)
    f = gaussian_bump()  # nonnegative by construction
    center = SpaceTimePoint.of(0.0, 0.0)
    rng = np.random.default_rng(11)
    worst = 0.0
    for r in (0.25, 0.5):
        bundle = decompose_internal(f, ParabolicPolynomial.zero(1), r,
                                    params, center, QUAD_SYNTH)
        for _ in range(20):
            pt = SpaceTimePoint.of(rng.uniform(-0.5, 0.5), rng.uniform(-0.25, 0.0))
            u, ue = bundle.u(pt)
            v, ve = bundle.v_r(pt)
            w, we = bundle.w_r(pt)
            worst = max(worst, abs(u - v - w) / (5.0 * (ue + ve + we)))
            w1, w1e = bundle.w_1(pt)
            sv, se = bundle.S_r(pt)
            tv, te = bundle.T_r(pt)
            up, upe = bundle.u_P(pt)
            worst = max(worst,
                        abs(w1 - sv - tv - up) / (5.0 * (w1e + se + te + upe)))
    report(5, worst < 1.0, f"identity worst |residual|/(5 est) {worst:.3f}")


def test_criterion_06_remainder_decay():
    params = FracParams(1, 0.5)
    f = power_cusp(0.5, direction="space")
    res = s_decay_probe(
        f, ParabolicPolynomial.zero(1), [2.0**-j for j in range(1, 7)],
        params, quad=QuadratureSpec(graded_nodes=8, spatial_nodes=10),
        grid=(16, 16),
    )
    slope = res["slope"]
    report(6, slope >= 1.3, f"remainder decay slope {slope:.3f} (need >= 1.3)")


def test_criterion_07_exponent_recovery():
    params = FracParams(1, 0.3)
    f = power_cusp(0.25, direction="space")
    res = exponent_recovery(f, params, k=0, alpha=0.25, quad=QUAD_SYNTH)
    ok = abs(res["exponent"] - 0.85) <= 0.15 and not res["log_correction"]
    report(7, ok, f"recovered exponent {res['exponent']:.3f} "
                  f"(target 0.85 +- 0.15), log={res['log_correction']}")


def test_criterion_08_log_detection():
    # crafted profile nu(r) = r |ln r|
    base = SpaceTimePoint.of(0.0, 0.0)
    radii = [2.0**-i for i in range(1, 11)]
    prof = NuProfile.from_values(base, radii, [r * abs(math.log(r)) for r in radii])
    est = estimate_exponent(prof)
    synthetic_ok = est["log_correction"] and abs(est["exponent"] - 1.0) <= 0.05

    # threshold-case pipeline on a smooth bump
    params = FracParams(1, 0.5)
    res = exponent_recovery(gaussian_bump(), params, k=0, alpha=0.0,
                            quad=QUAD_SYNTH, spatial_only=True)
    bump_ok = res["log_correction"]
    ok = synthetic_ok and bump_ok
    report(8, ok, f"synthetic r|ln r|: exponent {est['exponent']:.3f} "
                  f"log={est['log_correction']}; smooth-bump profile: exponent "
                  f"{res['exponent']:.3f} log={res['log_correction']} "
                  f"(no log factor is present: the synthesized solution of "
                  f"smooth data is smooth, so its profile is a clean power)")


def test_criterion_09_classifier_labels():
    base = SpaceTimePoint.of(0.0, 0.0)
    k, alpha = 0, 0.5
    agree = 0
    total = 0
    for ratio in (0.25, 1.0 / 3.0, 0.5):
        radii = [ratio**i for i in range(1, 13)]
        cases = {
            "holder": [r ** (k + alpha) for r in radii],
            "log": [(ratio**i) ** (k + alpha) * i for i in range(1, 13)],
            "dini": [(ratio**i) ** (k + alpha + 0.2) for i in range(1, 13)],
        }
        for want, vals in cases.items():
            prof = NuProfile.from_values(base, radii, vals)
            total += 1
            agree += classify_pointwise(prof, k, alpha).label == want

    # dual classification through the normalized remainder
    from fracheat import ScalarField

    def power_field(beta):
        return ScalarField(
            lambda x, t: np.abs(np.atleast_2d(x)[:, 0]) ** beta, 1
        )

    radii = [2.0**-j for j in range(1, 17)]
    P0 = ParabolicPolynomial.zero(1)

    f = power_field(1.5)
    lf = classify_pointwise(nu_profile(f, P0, base, radii, grid=(24, 8)),
                            1, 0.5).label
    g = reduce_to_g(f, P0, base, 1, 0.5)
    lg = classify_pointwise(nu_profile(g, P0, base, radii, grid=(24, 8)),
                            0, 0.0).label
    dual_ok = lf == "holder" and lg == "holder"

    neg = reduce_to_g(power_field(0.4), P0, base, 0, 0.5)
    ln = classify_pointwise(nu_profile(neg, P0, base, radii, grid=(24, 8)),
                            0, 0.0).label
    reject_ok = ln == "unclassified"

    ok = agree == total and dual_ok and reject_ok
    report(9, ok, f"forced labels {agree}/{total}, dual holder "
                  f"({lf}/{lg}), negative control -> {ln}")


def test_criterion_10_jet_iteration():
    params = FracParams(1, 0.5)
    f = power_cusp(0.25, direction="space")
    js = extract_jet(f, ParabolicPolynomial.zero(1), params,
                     k=0, alpha=0.25, depth=6, quad=QUAD_SYNTH)
    target = 0 + 0.25 + 2 * 0.5
    rate_ok = all(
        abs(r - target) <= 0.2 for r in js.rates.values() if not math.isnan(r)
    )
    cauchy_ok = all(js.cauchy.values())
    fitted = {j: round(r, 3) for j, r in js.rates.items() if not math.isnan(r)}
    report(10, rate_ok and cauchy_ok,
           f"jet rates {fitted} (target {target} +- 0.2), "
           f"cauchy {js.cauchy}")
