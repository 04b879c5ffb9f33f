import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracheat import (
    FracParams,
    MultiIndex,
    ParabolicPolynomial,
    QuadratureSpec,
    ScalarField,
    SpaceTimePoint,
    exp_symbol,
    gaussian_bump,
    multi_indices,
    power_cusp,
)
from fracheat.regularity import (
    NuProfile,
    _jet_degree,
    classify_pointwise,
    estimate_exponent,
    extract_jet,
    fit_polynomial,
    integer_threshold_kind,
    nu_profile,
    reduce_to_g,
    target_exponent,
)

BASE = SpaceTimePoint.of(0.0, 0.0)


def power_field(beta):
    def func(x, t):
        return np.abs(np.atleast_2d(x)[:, 0]) ** beta

    return ScalarField(func, 1, name=f"|x|^{beta}")


# (alpha, s) -> (floor(alpha + 2s), alpha + 2s is an integer)
JET_FLOOR = {
    (0.0, 0.25): (0, False),
    (0.25, 0.25): (0, False),
    (0.5, 0.25): (1, True),   # alpha + 2s = 1
    (0.0, 0.5): (1, True),    # alpha + 2s = 1
    (0.25, 0.5): (1, False),
    (0.5, 0.5): (1, False),
    (0.0, 0.75): (1, False),
    (0.25, 0.75): (1, False),
    (0.5, 0.75): (2, True),   # alpha + 2s = 2
}


class TestTargetExponent:
    def test_value(self):
        assert target_exponent(1, 0.5, 0.25) == pytest.approx(2.0)

    def test_threshold_parity(self):
        assert integer_threshold_kind(0, 0.0, 0.5) == "x-ln"  # k + alpha + 2s = 1
        assert integer_threshold_kind(0, 0.0, 1.0) == "ln"    # even threshold
        assert integer_threshold_kind(0, 0.25, 0.5) is None

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("alpha,s", sorted(JET_FLOOR))
    def test_jet_degree_table(self, k, alpha, s):
        fl, integer = JET_FLOOR[(alpha, s)]
        assert _jet_degree(k, alpha, s) == (k + fl, k + fl - integer)
        assert (integer_threshold_kind(k, alpha, s) is not None) == integer


class TestNuProfile:
    def test_average_of_constant(self):
        f = ScalarField(lambda x, t: np.full(len(t), 3.0), 1)
        prof = nu_profile(f, ParabolicPolynomial.zero(1), BASE, [0.5], grid=(8, 8))
        assert prof.raw[0] == pytest.approx(3.0)

    def test_average_of_abs_x_is_half_radius(self):
        f = ScalarField(lambda x, t: np.atleast_2d(x)[:, 0], 1)
        prof = nu_profile(f, ParabolicPolynomial.zero(1), BASE, [0.5], grid=(16, 4))
        assert prof.raw[0] == pytest.approx(0.25, rel=1e-12)  # mean |x| on [-1/2, 1/2]

    def test_running_sup_is_monotone(self):
        radii = [0.5, 0.25, 0.125, 0.0625]
        raw = [1.0, 3.0, 0.5, 0.25]
        prof = NuProfile.from_values(BASE, radii, raw)
        # nu(r) = sup over r' <= r of the raw averages
        assert list(prof.nu) == [3.0, 3.0, 0.5, 0.25]

    def test_profile_of_power_field(self):
        f = power_field(0.75)
        prof = nu_profile(f, ParabolicPolynomial.zero(1), BASE,
                          [2.0**-j for j in range(1, 8)], grid=(32, 8))
        slopes = np.log2(np.asarray(prof.nu[:-1]) / np.asarray(prof.nu[1:]))
        np.testing.assert_allclose(slopes, 0.75, atol=0.01)

    def test_sup_mode_bounds_the_average(self):
        """The grid maximum of |x|^(1/2) lies above its average at every
        radius, and both profiles recover the Holder exponent 1/2."""
        radii = [2.0**-j for j in range(2, 9)]
        l1, sup = (nu_profile(power_cusp(0.5), ParabolicPolynomial.zero(1), BASE, radii,
                              mode=mode, grid=(24, 8)) for mode in ("l1", "sup"))
        assert np.all(np.asarray(sup.nu) >= np.asarray(l1.nu))
        for prof in (l1, sup):
            assert classify_pointwise(prof, 0, 0.5).label == "holder"
            assert estimate_exponent(prof)["exponent"] == pytest.approx(0.5, abs=0.05)

    def test_spatial_only_restricts_to_time_slice(self):
        def func(x, t):
            return np.abs(np.atleast_2d(x)[:, 0]) + 100.0 * np.abs(np.asarray(t))

        f = ScalarField(func, 1)
        full = nu_profile(f, ParabolicPolynomial.zero(1), BASE, [0.25],
                          grid=(16, 16))
        spatial = nu_profile(f, ParabolicPolynomial.zero(1), BASE, [0.25],
                             grid=(16, 16), spatial_only=True)
        assert spatial.nu[0] < full.nu[0]  # the t term never enters


class TestFitPolynomial:
    def test_recovers_polynomial_exactly(self):
        P = ParabolicPolynomial(
            2,
            BASE,
            {
                MultiIndex(sigma=(0, 0)): 1.5,
                MultiIndex(sigma=(1, 0)): -0.5,
                MultiIndex(sigma=(0, 1)): 2.0,
                MultiIndex(sigma=(2, 0)): 4.0,
            },
        )
        f = ScalarField(lambda x, t: P.eval(np.atleast_2d(x), t), 1)
        Q = fit_polynomial(f, BASE, 2, 0.25, grid=(24, 24))
        for mi, c in P.coeffs.items():
            assert Q.derivative_at_base(mi) == pytest.approx(c, rel=1e-9, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        coeffs=st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4),
        x0=st.floats(-1.0, 1.0),
        t0=st.floats(-1.0, 1.0),
        radius=st.floats(0.05, 1.0),
    )
    def test_recovers_random_quadratic(self, coeffs, x0, t0, radius):
        # the shared monomial builds both P.eval and the fit's design columns
        base = SpaceTimePoint.of(x0, t0)
        mis = multi_indices(1, 2)
        P = ParabolicPolynomial(2, base, dict(zip(mis, coeffs)))
        Q = fit_polynomial(ScalarField(P.eval, 1), base, 2, radius,
                           grid=(12, 12))
        for mi in mis:
            assert Q.derivative_at_base(mi) == pytest.approx(
                P.derivative_at_base(mi), rel=1e-8, abs=1e-8)

    def test_degree_zero_is_weighted_mean(self):
        f = ScalarField(lambda x, t: np.full(len(np.atleast_1d(t)), 7.0), 1)
        Q = fit_polynomial(f, BASE, 0, 0.5, grid=(8, 8))
        assert Q.derivative_at_base(MultiIndex(sigma=(0, 0))) == pytest.approx(7.0)


class TestEstimateExponent:
    def test_pure_power(self):
        radii = [2.0**-j for j in range(1, 11)]
        prof = NuProfile.from_values(BASE, radii, [r**1.3 for r in radii])
        est = estimate_exponent(prof)
        assert est["exponent"] == pytest.approx(1.3, abs=1e-9)
        assert not est["log_correction"]

    def test_log_factor_selected(self):
        radii = [2.0**-j for j in range(1, 11)]
        vals = [r * abs(math.log(r)) for r in radii]
        prof = NuProfile.from_values(BASE, radii, vals)
        est = estimate_exponent(prof)
        assert est["log_correction"]
        assert est["exponent"] == pytest.approx(1.0, abs=0.05)

    def test_log_model_rejects_radius_one(self):
        # log|log r| is undefined at r = 1; the power model alone still fits
        radii = [2.0**-j for j in range(0, 5)]
        prof = NuProfile.from_values(BASE, radii, [r**1.3 for r in radii])
        with pytest.raises(ValueError, match="radius 1.0"):
            estimate_exponent(prof)
        est = estimate_exponent(prof, try_log_factor=False)
        assert est["exponent"] == pytest.approx(1.3, abs=1e-9)

    def test_log_model_can_be_disabled(self):
        radii = [2.0**-j for j in range(1, 11)]
        vals = [r * abs(math.log(r)) for r in radii]
        prof = NuProfile.from_values(BASE, radii, vals)
        est = estimate_exponent(prof, try_log_factor=False)
        assert not est["log_correction"]


class TestClassify:
    @pytest.mark.parametrize("ratio", [0.25, 1.0 / 3.0, 0.5])
    def test_forced_labels(self, ratio):
        k, alpha = 0, 0.5
        radii = [ratio**i for i in range(1, 13)]
        cases = {
            "holder": [r ** (k + alpha) for r in radii],
            "log": [(ratio**i) ** (k + alpha) * i for i in range(1, 13)],
            "dini": [(ratio**i) ** (k + alpha + 0.2) for i in range(1, 13)],
        }
        for want, vals in cases.items():
            prof = NuProfile.from_values(BASE, radii, vals)
            assert classify_pointwise(prof, k, alpha).label == want

    def test_zero_profile_is_dini(self):
        radii = [2.0**-j for j in range(1, 10)]
        prof = NuProfile.from_values(BASE, radii, [0.0] * len(radii))
        assert classify_pointwise(prof, 0, 0.5).label == "dini"

    def test_saturating_profile_rejected(self):
        # claimed exponent far too high: the normalized profile explodes
        radii = [2.0**-j for j in range(1, 17)]
        prof = NuProfile.from_values(BASE, radii, [r**0.4 for r in radii])
        rep = classify_pointwise(prof, 0, 0.9)
        assert rep.label == "unclassified"


class TestReduceToG:
    def test_dual_classification_agrees_on_holder_data(self):
        f = power_field(1.5)
        P = ParabolicPolynomial.zero(1)
        radii = [2.0**-j for j in range(1, 17)]
        prof_f = nu_profile(f, P, BASE, radii, grid=(24, 8))
        label_f = classify_pointwise(prof_f, 1, 0.5).label
        g = reduce_to_g(f, P, BASE, 1, 0.5)
        prof_g = nu_profile(g, ParabolicPolynomial.zero(1), BASE, radii,
                            grid=(24, 8))
        label_g = classify_pointwise(prof_g, 0, 0.0).label
        assert label_f == "holder"
        assert label_g == "holder"

    def test_dual_classification_rejects_inflated_claim(self):
        f = power_field(0.4)
        P = ParabolicPolynomial.zero(1)
        radii = [2.0**-j for j in range(1, 17)]
        g = reduce_to_g(f, P, BASE, 0, 0.5)  # claims alpha = 0.5, data has 0.4
        prof_g = nu_profile(g, ParabolicPolynomial.zero(1), BASE, radii,
                            grid=(24, 8))
        assert classify_pointwise(prof_g, 0, 0.0).label == "unclassified"

    def test_g_vanishes_at_base(self):
        f = power_field(1.5)
        g = reduce_to_g(f, ParabolicPolynomial.zero(1), BASE, 1, 0.5)
        assert g.eval(np.array([[0.0]]), np.array([0.0]))[0] == 0.0

    def test_symbol_field_reduces_to_bounded_g(self):
        """g of a symbol field is no symbol field: it evaluates, and carries
        neither a symbol nor a support."""
        f = exp_symbol(0.5, [1.0])
        g = reduce_to_g(f, ParabolicPolynomial.zero(1), BASE, 0, 0.5)
        pt = SpaceTimePoint.of(0.3, 0.1)
        d = math.sqrt(0.3**2 + 0.1)
        assert g.eval_at(pt) == pytest.approx(f.eval_at(pt) / d**0.5, rel=1e-14)
        assert g.symbol_params is None and g.support is None


class TestExtractJet:
    def test_rates_and_contraction(self):
        params = FracParams(1, 0.5)
        f = power_cusp(0.25, direction="space")
        quad = QuadratureSpec(graded_nodes=10, spatial_nodes=12)
        js = extract_jet(f, ParabolicPolynomial.zero(1), params,
                         k=0, alpha=0.25, depth=7, quad=quad)
        assert js.gamma == 1
        assert js.rates[0] == pytest.approx(1.25, abs=0.2)
        assert js.cauchy[0]
        # x-odd data moments vanish identically: flagged, not fitted
        assert math.isnan(js.rates[1])
        assert js.cauchy[1]

    def test_limit_extrapolation_close_to_deep_run(self):
        params = FracParams(1, 0.5)
        f = power_cusp(0.25, direction="space")
        quad = QuadratureSpec(graded_nodes=10, spatial_nodes=12)
        shallow = extract_jet(f, ParabolicPolynomial.zero(1), params,
                              k=0, alpha=0.25, depth=6, quad=quad)
        deep = extract_jet(f, ParabolicPolynomial.zero(1), params,
                           k=0, alpha=0.25, depth=10, quad=quad)
        a_shallow = shallow.limits[0][(0, 0)]
        a_deep = deep.limits[0][(0, 0)]
        assert a_shallow == pytest.approx(a_deep, rel=0.02)

    def test_rejects_shallow_depth(self):
        params = FracParams(1, 0.5)
        with pytest.raises(ValueError):
            extract_jet(gaussian_bump(), ParabolicPolynomial.zero(1), params,
                        k=0, alpha=0.25, depth=2)
