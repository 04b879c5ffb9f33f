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


class TestMarchaud:
    def test_constant_prefactor(self):
        assert marchaud_constant(0.5) == pytest.approx(0.5 / math.gamma(0.5))

    def test_exponential_eigenfunction(self):
        u = ScalarField(
            lambda x, t: np.exp(np.asarray(t, dtype=float)),
            1, tail="exponential_symbol", symbol_params=(1.0, np.zeros(1)),
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


class TestErrorEstimates:
    def test_error_estimate_covers_true_error(self):
        params = FracParams(1, 0.5)
        f = exp_symbol(1.0, [1.0], 1)
        sym = symbol_oracle(1.0, [1.0], 0.5)
        for pt in POINTS[:3]:
            val, err = apply_fully_fractional(f, pt, params, QUAD)
            truth = sym * f.eval_at(pt)
            assert abs(val - truth) <= max(5 * err, 1e-9 * abs(truth))

    def test_bound_only_tail_mode_inflates_error(self):
        params = FracParams(1, 0.5)
        f = gaussian_bump()
        pt = SpaceTimePoint.of(0.1, 0.05)
        auto = apply_fully_fractional(f, pt, params, QUAD)
        crude = apply_fully_fractional(
            f, pt, params, QuadratureSpec(tail_mode="bound_only")
        )
        assert crude[1] >= auto[1]

    def test_bound_only_inflates_reduction_estimates(self):
        # bound_only adds the worst-case tail 2 |u| (tail mass) to the
        # estimates of both reductions and leaves their values alone
        crude = QuadratureSpec(tail_mode="bound_only")
        f = exp_symbol(1.0, [0.0])
        auto_v, auto_e = apply_marchaud(f, 0.2, 0.5)
        v, e = apply_marchaud(f, 0.2, 0.5, crude)
        tail = marchaud_constant(0.5) * 2.0 * math.exp(0.2) * crude.tau_max**-0.5 / 0.5
        assert v == auto_v
        assert e >= tail > 1e6 * auto_e
        params = FracParams(1, 0.5)
        auto_v, auto_e = apply_fractional_laplacian(gaussian_bump(), 0.3, params)
        v, e = apply_fractional_laplacian(gaussian_bump(), 0.3, params, crude)
        assert v == auto_v
        assert e > 1e4 * auto_e
