import math

import numpy as np
import pytest

from fracheat import (
    FracParams,
    MultiIndex,
    ParabolicCylinder,
    ParabolicPolynomial,
    QuadratureSpec,
    SpaceTimePoint,
    decompose_internal,
    exp_symbol,
    gaussian_bump,
    make_cutoff,
    polynomial_field,
    power_cusp,
    s_decay_probe,
    synthesize_solution,
    synthesized_field,
)
from fracheat.synthesis import cylinder_average, difference_field

QUAD = QuadratureSpec(graded_nodes=10, spatial_nodes=12)
CENTER = SpaceTimePoint.of(0.0, 0.0)


class TestSynthesizeSolution:
    @pytest.mark.parametrize("lam,kk,s", [(1.0, 0.0, 0.5), (0.5, 1.0, 0.3)])
    def test_symbol_field_inversion(self, lam, kk, s):
        # the convolution inverts the operator: symbol fields divide by
        # (lam + |k|^2)^s
        params = FracParams(1, s)
        f = exp_symbol(lam, [kk], 1)
        sym = (lam + kk * kk) ** s
        for xt in [(0.0, 0.0), (0.4, 0.2), (-0.3, -0.5)]:
            pt = SpaceTimePoint.of(*xt)
            val, err = synthesize_solution(f, pt, params, QuadratureSpec())
            truth = f.eval_at(pt) / sym
            if abs(truth) < 1e-10:
                continue
            assert val == pytest.approx(truth, rel=1e-6)

    def test_vanishes_before_source_window(self):
        params = FracParams(1, 0.5)
        f = gaussian_bump()
        pt = SpaceTimePoint.of(0.0, -5.0)  # before the bump turns on
        val, err = synthesize_solution(f, pt, params, QUAD)
        assert val == 0.0

    def test_error_estimate_tracks_refinement(self):
        params = FracParams(1, 0.5)
        f = gaussian_bump()
        pt = SpaceTimePoint.of(0.1, 0.05)
        coarse_v, coarse_e = synthesize_solution(
            f, pt, params, QuadratureSpec(graded_nodes=8, spatial_nodes=10)
        )
        fine_v, fine_e = synthesize_solution(
            f, pt, params, QuadratureSpec(graded_nodes=18, spatial_nodes=20)
        )
        assert abs(coarse_v - fine_v) <= 5 * (coarse_e + fine_e)
        assert fine_e < coarse_e * 5  # refinement does not blow the estimate up

    def test_lazy_field_wrapper(self):
        params = FracParams(1, 0.5)
        f = gaussian_bump()
        u = synthesized_field(f, params, QUAD, with_error=True)
        pt = SpaceTimePoint.of(0.2, 0.1)
        direct, _ = synthesize_solution(f, pt, params, QUAD)
        assert u.eval_at(pt) == pytest.approx(direct, rel=1e-13)
        assert u.err_tracker.max_err > 0.0
        assert u.time_floor is not None


class TestCutoff:
    def test_plateau_and_support(self):
        psi = make_cutoff(1)
        inside = psi.eval(np.array([[0.5], [0.0]]), np.array([0.0, -0.9]))
        np.testing.assert_allclose(inside, 1.0)
        outside = psi.eval(np.array([[2.5], [0.0]]), np.array([0.0, 4.5]))
        np.testing.assert_allclose(outside, 0.0)

    def test_monotone_radial_decay(self):
        psi = make_cutoff(1)
        xs = np.linspace(1.0, 2.0, 30)[:, None]
        vals = psi.eval(xs, np.zeros(30))
        assert np.all(np.diff(vals) <= 1e-12)

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            make_cutoff(1, r_inner=2.0, r_outer=1.0)


class TestPartition:
    def test_external_plus_internal_is_whole(self):
        params = FracParams(1, 0.5)
        f = gaussian_bump()
        bundle = decompose_internal(f, ParabolicPolynomial.zero(1), 0.5, params,
                                    CENTER, QUAD)
        rng = np.random.default_rng(5)
        for _ in range(5):
            pt = SpaceTimePoint.of(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
            u, ue = synthesize_solution(f, pt, params, QUAD)
            v, ve = bundle.v_r(pt)
            w, we = bundle.w_r(pt)
            assert abs(u - v - w) <= ue + ve + we

    def test_polynomial_data_leaves_no_remainder(self):
        # when the data equals its own jet, both remainder pieces vanish
        params = FracParams(1, 0.5)
        P = ParabolicPolynomial(
            1, CENTER, {MultiIndex(sigma=(0, 0)): 1.0, MultiIndex(sigma=(1, 0)): 1.0}
        )
        f = polynomial_field(P, make_cutoff(1))
        bundle = decompose_internal(f, P, 0.5, params, CENTER, QUAD)
        for xt in [(0.1, -0.05), (-0.3, -0.2)]:
            pt = SpaceTimePoint.of(*xt)
            s_val, s_err = bundle.S_r(pt)
            t_val, t_err = bundle.T_r(pt)
            assert abs(s_val) <= max(s_err, 1e-12)
            assert abs(t_val) <= max(t_err, 1e-12)
            w1, w1e = bundle.w_1(pt)
            uP, uPe = bundle.u_P(pt)
            assert abs(w1 - uP) <= 5 * (w1e + uPe)

    def test_three_way_split_of_unit_cylinder(self):
        params = FracParams(1, 0.5)
        f = gaussian_bump()
        bundle = decompose_internal(f, ParabolicPolynomial.zero(1), 0.25,
                                    params, CENTER, QUAD)
        rng = np.random.default_rng(9)
        for _ in range(5):
            pt = SpaceTimePoint.of(rng.uniform(-0.5, 0.5), rng.uniform(-0.25, 0.0))
            w1, w1e = bundle.w_1(pt)
            sv, se = bundle.S_r(pt)
            tv, te = bundle.T_r(pt)
            up, upe = bundle.u_P(pt)
            assert abs(w1 - sv - tv - up) <= 5 * (w1e + se + te + upe)

    def test_jet_field_split(self):
        # V_P = W_{P,1} + u_P for P(x,t) = 1 + x
        params = FracParams(1, 0.5)
        P = ParabolicPolynomial(
            1, CENTER, {MultiIndex(sigma=(0, 0)): 1.0, MultiIndex(sigma=(1, 0)): 1.0}
        )
        bundle = decompose_internal(gaussian_bump(), P, 1.0, params, CENTER, QUAD)
        for xt in [(0.2, 0.1), (-0.4, -0.3)]:
            pt = SpaceTimePoint.of(*xt)
            vp, vpe = bundle.V_P(pt)
            wp, wpe = bundle.W_P(pt)
            up, upe = bundle.u_P(pt)
            assert abs(vp - wp - up) <= 5 * (vpe + wpe + upe)

    def test_rejects_radius_above_one(self):
        params = FracParams(1, 0.5)
        with pytest.raises(ValueError):
            decompose_internal(gaussian_bump(), ParabolicPolynomial.zero(1),
                               1.5, params, CENTER, QUAD)


class TestDifferenceField:
    def test_subtracts_jet(self):
        P = ParabolicPolynomial(0, CENTER, {MultiIndex(sigma=(0, 0)): 2.0})
        f = gaussian_bump()
        params = FracParams(1, 0.5)
        d = difference_field(f, P, params)
        x = np.array([[0.1]])
        t = np.array([-0.05])
        psi = make_cutoff(1)
        expect = f.eval(x, t) - 2.0 * psi.eval(x, t)
        assert d.eval(x, t)[0] == pytest.approx(expect[0], rel=1e-12)
        assert d.tail == "compact"


class TestCylinderAverage:
    def test_average_of_constant(self):
        cyl = ParabolicCylinder(CENTER, 0.5, sided="past")
        avg = cylinder_average(lambda pt: 3.0, cyl, grid=(8, 8))
        assert avg == pytest.approx(3.0)

    def test_absolute_value_default(self):
        cyl = ParabolicCylinder(CENTER, 0.5, sided="past")
        avg = cylinder_average(lambda pt: pt.x[0], cyl, grid=(16, 4))
        assert avg == pytest.approx(0.25, rel=0.05)  # mean |x| on [-1/2, 1/2]


class TestSDecay:
    def test_remainder_decays_fast_for_cusp_data(self):
        params = FracParams(1, 0.5)
        f = power_cusp(0.5, direction="space")
        res = s_decay_probe(
            f, ParabolicPolynomial.zero(1), [2.0**-j for j in range(1, 5)],
            params, quad=QuadratureSpec(graded_nodes=8, spatial_nodes=10),
            grid=(8, 8),
        )
        assert res["slope"] >= 1.3
        assert all(a > 0 for a in res["averages"])
        assert res["radii"] == sorted(res["radii"])
