import math

import numpy as np
import pytest

from fracheat import (
    FracParams,
    QuadratureSpec,
    ScalarField,
    SpaceTimePoint,
    apply_fully_fractional,
    exp_symbol,
    gaussian_bump,
    power_cusp,
    time_profile,
)
from fracheat.operator import (
    apply_fractional_laplacian,
    apply_marchaud,
    fractional_laplacian_constant,
    marchaud_constant,
    symbol_oracle,
)

QUAD = QuadratureSpec()

POINTS = [
    SpaceTimePoint.of(0.0, 0.0),
    SpaceTimePoint.of(0.3, 0.1),
    SpaceTimePoint.of(-0.7, 0.4),
    SpaceTimePoint.of(1.1, -0.2),
    SpaceTimePoint.of(0.2, 1.0),
]


class TestSymbolOracle:
    def test_pure_time(self):
        assert symbol_oracle(2.0, [0.0], 0.5) == pytest.approx(math.sqrt(2.0))

    def test_pure_space(self):
        assert symbol_oracle(0.0, [3.0], 0.5) == pytest.approx(3.0)

    def test_mixed(self):
        assert symbol_oracle(1.0, [1.0], 0.3) == pytest.approx(2.0**0.3)


class TestEigenfunctions:
    @pytest.mark.parametrize("lam,kk,s", [
        (1.0, 0.0, 0.5),
        (0.5, 1.0, 0.5),
        (1.0, 1.0, 0.3),
        (2.0, 0.0, 0.7),
    ])
    def test_symbol_fields_are_eigenfunctions(self, lam, kk, s):
        params = FracParams(1, s)
        f = exp_symbol(lam, [kk], 1)
        sym = symbol_oracle(lam, [kk], s)
        for pt in POINTS:
            truth = sym * f.eval_at(pt)
            if abs(truth) < 1e-10:
                continue
            val, err = apply_fully_fractional(f, pt, params, QUAD)
            assert val == pytest.approx(truth, rel=1e-6)
            assert abs(val - truth) <= max(5 * err, 1e-9 * abs(truth))

    def test_constant_field_maps_to_zero(self):
        from fracheat import constant

        params = FracParams(1, 0.5)
        val, err = apply_fully_fractional(
            constant(3.0), SpaceTimePoint.of(0.1, 0.2), params, QUAD
        )
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_rejects_growing_history(self):
        params = FracParams(1, 0.5)
        f = exp_symbol(-1.0, [0.0], 1)  # blows up backwards in time
        with pytest.raises(ValueError):
            apply_fully_fractional(f, POINTS[0], params, QUAD)
        # the Marchaud reduction rejects it too, before any quadrature
        with pytest.raises(ValueError):
            apply_marchaud(exp_symbol(-0.5, [0.0]), 0.1, 0.5)
        # and a field that depends on x is no time profile
        with pytest.raises(ValueError):
            apply_marchaud(exp_symbol(0.0, [2.0]), 0.1, 0.5)


class TestFractionalLaplacian:
    def test_constant_prefactor_halfline(self):
        # n=1, s=1/2: 4^s Gamma(1/2 + 1/2) / (pi^{1/2} |Gamma(-1/2)|) = 1/pi
        assert fractional_laplacian_constant(1, 0.5) == pytest.approx(1.0 / math.pi)

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("x", [0.0, 0.5, 1.2])
    def test_cosine_eigenfunction(self, s, x):
        params = FracParams(1, s)
        f = exp_symbol(0.0, [1.0], 1)
        val, err = apply_fractional_laplacian(f, x, params, QUAD)
        truth = math.cos(x)  # |k|^{2s} with |k| = 1
        assert val == pytest.approx(truth, rel=1e-4, abs=1e-6)

    def test_wavenumber_scaling(self):
        params = FracParams(1, 0.5)
        f = exp_symbol(0.0, [2.0], 1)
        val, err = apply_fractional_laplacian(f, 0.3, params, QUAD)
        assert val == pytest.approx(2.0 * math.cos(0.6), rel=1e-4)

    @pytest.mark.parametrize("k", [0.01, 0.5, 1.0, 3.0, 20.0])
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_cosine_goes_through_the_operator(self, k, s):
        # cos(k x) is the time-independent symbol field exp_symbol(0, k),
        # on which the operator is (-Lap)^s, with eigenvalue |k|^(2s);
        # from |k|^2 = 1e-4 (range cut at TAU_MAX) to 400 (cut at 0.1)
        params = FracParams(1, s)
        for x in (0.0, 0.7):
            val, err = apply_fractional_laplacian(exp_symbol(0.0, [k]), x, params)
            assert abs(val - k ** (2 * s) * math.cos(k * x)) <= 1e-5 * k ** (2 * s)
            pt = SpaceTimePoint.of(x, 0.0)
            assert (val, err) == apply_fully_fractional(exp_symbol(0.0, [k]), pt, params)


# (-Lap)^s of gaussian_bump()'s profile exp(1 - 1 / (1 - x^2)) at x = 0.3,
# computed with mpmath at 50 digits (unchanged at 60 and 70): a Taylor head
# on [0, 1e-3] from the profile's first 16 derivatives at x (mpmath.taylor),
# mpmath.quad on [1e-3, 1.3] split at 0.7, where x - z leaves the support,
# and the exact tail 2 u(x) 1.3^(-2s) / (2s) past the support
BUMP_LAPLACIAN = {0.5: 1.3026713976823128, 0.7: 1.6940768751711529,
                  0.9: 2.2455376163036838}
# (-Lap)^s of power_cusp(beta)'s profile |x|^beta exp(1 - 1 / (1 - x^2 / 0.5625)),
# keyed (beta, s, x), by the same mpmath recipe at 30 digits (Taylor head on
# [0, min(1e-3, x / 4)], quad split at x, where x - z crosses the cusp);
# at x = 0 by mpmath.quad on [0, 0.75] alone.  Each agrees with 45 digits
# and a longer Taylor head to 1e-13.
CUSP_LAPLACIAN = {
    (0.5, 0.5, 0.01): -2.9592682408564048, (0.5, 0.5, 0.03): -0.83143807872141729,
    (0.5, 0.5, 0.05): -0.16224647997932589, (0.5, 0.5, 0.3): 1.3780471701419955,
    (1.5, 0.5, 0.01): -0.69079530631822449, (1.5, 0.5, 0.03): -0.57524117133178852,
    (1.5, 0.5, 0.05): -0.48882736003277899, (1.5, 0.5, 0.3): 0.4161053652178881,
    (1.5, 0.5, 0.0): -0.84156454484281064, (1.5, 0.3, 0.0): -0.24907245639958013,
    (1.0, 0.3, 0.0): -0.82336805047157176,
}


class TestDirectLaplacian:
    """Compact and bounded profiles take the direct route in |y - x|, whose
    bottom band of weight z^(1-2s) replaced a Richardson head at z = 1e-7
    that amplified round-off by z^(-2s): the head missed the Lorentzian by
    2e-3 at s = 0.9 with an estimate of 4e-6, and the bump by 1.5e-3."""

    @pytest.mark.parametrize("s", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("x", [0.0, 0.5, 2.0])
    def test_lorentzian_closed_form(self, s, x):
        # (-Lap)^s (1 + x^2)^(-1) = Gamma(2s+1) cos((2s+1) atan x) / (1+x^2)^(s+1/2)
        lorentz = ScalarField(lambda y, t: 1.0 / (1.0 + y[:, 0] ** 2), 1, bound=1.0)
        val, err = apply_fractional_laplacian(lorentz, x, FracParams(1, s))
        truth = (math.gamma(2 * s + 1) * math.cos((2 * s + 1) * math.atan(x))
                 / (1 + x * x) ** (s + 0.5))
        assert abs(val - truth) <= min(err, 1e-6)

    @pytest.mark.parametrize("s", sorted(BUMP_LAPLACIAN))
    def test_bump_against_mpmath(self, s):
        val, err = apply_fractional_laplacian(gaussian_bump(), 0.3, FracParams(1, s))
        assert abs(val - BUMP_LAPLACIAN[s]) <= min(err, 1e-6)

    @pytest.mark.parametrize("beta,s,x", sorted(CUSP_LAPLACIAN))
    def test_cusp_against_mpmath(self, beta, s, x):
        # near the cusp the band ends at a quarter of the distance to it; at
        # the cusp, where incr is a power of z, at tau_min (a band on
        # [0, Z_BAND] there missed by 5.8e-3 at beta = 1.5, s = 0.5)
        val, err = apply_fractional_laplacian(power_cusp(beta), x, FracParams(1, s))
        assert abs(val - CUSP_LAPLACIAN[beta, s, x]) <= err


class TestMarchaud:
    def test_constant_prefactor(self):
        assert marchaud_constant(0.5) == pytest.approx(0.5 / math.gamma(0.5))

    def test_exponential_eigenfunction(self):
        u = ScalarField(
            lambda x, t: np.exp(np.asarray(t, dtype=float)),
            1, symbol_params=(1.0, np.zeros(1)),
            name="exp(t)",
        )
        val, err = apply_marchaud(u, 0.3, 0.5, QUAD)
        assert val == pytest.approx(math.exp(0.3), rel=1e-9)

    def test_ramp_closed_form(self):
        # d^{1/2}/dt^{1/2} of t_+ at t=1 equals 2/sqrt(pi)
        ramp = time_profile(lambda t: np.maximum(t, 0.0), time_floor=0.0)
        val, err = apply_marchaud(ramp, 1.0, 0.5, QUAD)
        assert val == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-9)

    def test_constant_profile_maps_to_zero(self):
        flat = time_profile(lambda t: np.ones_like(np.asarray(t, dtype=float)),
                            bound=1.0)
        val, err = apply_marchaud(flat, 0.5, 0.4, QUAD)
        assert val == pytest.approx(0.0, abs=1e-10)
        assert apply_marchaud(exp_symbol(0.0, [0.0]), 0.3, 0.5) == (0.0, 0.0)


class TestErrorEstimates:
    def test_error_estimate_covers_true_error(self):
        params = FracParams(1, 0.5)
        f = exp_symbol(1.0, [1.0], 1)
        sym = symbol_oracle(1.0, [1.0], 0.5)
        for pt in POINTS[:3]:
            val, err = apply_fully_fractional(f, pt, params, QUAD)
            truth = sym * f.eval_at(pt)
            assert abs(val - truth) <= max(5 * err, 1e-9 * abs(truth))
