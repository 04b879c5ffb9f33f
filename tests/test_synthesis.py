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
    kernel_convolve,
    make_cutoff,
    polynomial_field,
    power_cusp,
    s_decay_probe,
    synthesize_solution,
    synthesized_field,
)
from fracheat.fields import make_field
from fracheat.regularity import reduce_to_g
from fracheat.synthesis import _piece_sources, difference_field, jet_source

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

    @pytest.mark.parametrize("lam,kk", [(0.0, 0.0), (-0.5, 0.5)], ids=["mu0", "mu_neg"])
    def test_divergent_symbol_source_raises(self, lam, kk):
        # lam + |k|^2 <= 0: int_0^inf tau^(s-1) e^(-mu tau) dtau diverges
        with pytest.raises(ValueError, match="diverges"):
            synthesize_solution(exp_symbol(lam, [kk]), SpaceTimePoint.of(0.3, 0.0),
                                FracParams(1, 0.3))

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
        u = synthesized_field(f, params, QUAD)
        pt = SpaceTimePoint.of(0.2, 0.1)
        direct, _ = synthesize_solution(f, pt, params, QUAD)
        assert u.eval_at(pt) == pytest.approx(direct, rel=1e-13)
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
        d = difference_field(f, jet_source(P), params)
        x = np.array([[0.1]])
        t = np.array([-0.05])
        psi = make_cutoff(1)
        expect = f.eval(x, t) - 2.0 * psi.eval(x, t)
        assert d.eval(x, t)[0] == pytest.approx(expect[0], rel=1e-12)
        assert d.support is not None


class TestJetSource:
    @pytest.mark.parametrize("coeffs", [{}, {(0, 0): 0.0, (1, 0): -0.0}], ids=["none", "zeros"])
    def test_zero_jet_never_evaluates_the_cutoff(self, coeffs, monkeypatch):
        """J of a P without a nonzero coefficient is P's zeros, the product
        P psi had to the bit, with J's support and name, and the cutoff is
        never evaluated (s_decay_probe and extract_jet pass the zero P)."""
        P = ParabolicPolynomial(1, CENTER, coeffs)
        x = np.linspace(-2.5, 2.5, 11)[:, None]
        t = np.linspace(-1.0, 1.0, 11)
        want = P.eval(x, t) * make_cutoff(1).eval(x, t)
        smooth = jet_source(ParabolicPolynomial(0, CENTER, {(0, 0): 1.0}))

        def refuse(z):
            raise AssertionError("the cutoff was evaluated")

        monkeypatch.setattr("fracheat.synthesis._mollifier_step", refuse)
        J = jet_source(P)
        got = J.eval(x, t)
        assert got.tobytes() == want.tobytes()
        assert (J.support, J.name) == (smooth.support, smooth.name)
        with pytest.raises(AssertionError, match="cutoff was evaluated"):
            smooth.eval(x, t)


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

    @pytest.mark.parametrize("grid", [(16, 16), (3, 5)], ids=["criterion_06", "grid_3x5"])
    def test_averages_and_slope_are_those_of_one_convolution_per_point(self, grid):
        """The probe convolves each time slice of its midpoint grid in one
        call, and its averages and slope are those of one estimate-free
        kernel_convolve per point, bit for bit: at criterion 06's settings
        and on a grid of 3 x 5 points."""
        params, quad = FracParams(1, 0.5), QuadratureSpec(graded_nodes=8, spatial_nodes=10)
        f, P, radii = power_cusp(0.5), ParabolicPolynomial.zero(1), [2.0**-j for j in range(1, 7)]
        res = s_decay_probe(f, P, radii, params, quad=quad, grid=grid)
        avgs = []
        for r in sorted(radii):
            src = _piece_sources(f, P, r, params, CENTER)["S_r"]
            x, t = ParabolicCylinder(CENTER, r).midpoints(grid)
            vals = [kernel_convolve(src, SpaceTimePoint.of(xi, ti), params, quad,
                                    with_error=False)[0] for xi, ti in zip(x, t)]
            avgs.append(float(np.mean(np.abs(vals))))
        slope = float(np.polyfit(np.log(sorted(radii)), np.log(np.maximum(avgs, 1e-300)), 1)[0])
        assert res["radii"] == sorted(radii)
        assert res["averages"] == avgs and res["slope"] == slope

    @pytest.mark.parametrize("radii", [[0.5], [1.0], [0.5, 0.5], [0.5, 3.0], [0.0, 0.5],
                                       [-0.25, 0.5], [math.nan, 0.5], []],
                             ids=["one", "one_at_1", "repeated", "past_1", "zero", "negative",
                                  "nan", "none"])
    def test_needs_two_distinct_radii_in_the_unit_interval(self, radii):
        """A slope needs two distinct radii, each in (0, 1] like
        decompose_internal's r.  One radius had given a slope after a
        RankWarning ([0.5]) or numpy's LinAlgError ([1.0]), a repeated one a
        RankWarning, and r = 3 a slope of -384 from the 1e-300 floor."""
        with pytest.raises(ValueError, match="at least two distinct radii, each in"):
            s_decay_probe(power_cusp(0.5), ParabolicPolynomial.zero(1), radii,
                          FracParams(1, 0.5), quad=QUAD, grid=(2, 2))


@pytest.mark.parametrize("direction,point", [("space", (0.0,)), ("time", 0.0)])
def test_derived_fields_keep_the_singular_points(direction, point):
    """power_cusp declares its cusp in either direction, and every field
    derived from it declares it too (reduce_to_g adds its base); smooth
    fields declare none."""
    params = FracParams(1, 0.5)
    f = power_cusp(0.5, direction=direction)
    want = ((direction, point),)
    P = ParabolicPolynomial.zero(1)
    derived = {
        "power_cusp": f,
        "make_field": make_field({"kind": "power_cusp", "beta": 0.5, "direction": direction}),
        "difference_field": difference_field(f, jet_source(P), params),
        "synthesized_field": synthesized_field(f, params, QUAD),
        "polynomial_field": polynomial_field(P, cut=f),
    }
    assert {name: g.singular_points for name, g in derived.items()} == {
        name: want for name in derived}
    base = SpaceTimePoint.of(0.25, -0.5)
    assert reduce_to_g(f, P, base, 0, 0.5).singular_points == (
        *want, ("space", (0.25,)), ("time", -0.5))
    # a cusp on a cusp declares both, the bump's first
    double = power_cusp(1.5, bump=power_cusp(0.5, direction=direction))
    assert double.singular_points == (*want, ("space", (0.0,)))
    for smooth in (gaussian_bump(), exp_symbol(1.0, [0.5])):
        assert smooth.singular_points == ()
