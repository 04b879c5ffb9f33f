import json
import math
import re

import numpy as np
import pytest

from fracheat import (
    FracParams,
    MultiIndex,
    ParabolicCylinder,
    ParabolicPolynomial,
    ScalarField,
    SpaceTimePoint,
    abs_gamma_neg,
    check_slowly_increasing,
    multi_indices,
    normalization_constant,
    parabolic_distance,
)


class TestFracParams:
    def test_constant_halfline_value(self):
        # n=1, s=1/2: |Gamma(-1/2)| = 2 sqrt(pi), so c = 1/(4 pi)
        p = FracParams(1, 0.5)
        assert p.c_ns == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)

    @pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_abs_gamma_matches_reflection(self, s):
        assert abs_gamma_neg(s) == pytest.approx(math.gamma(1.0 - s) / s, rel=1e-14)

    @pytest.mark.parametrize("n,s", [(0, 0.5), (1, 0.0), (1, 1.0), (2, -0.1)])
    def test_rejects_bad_parameters(self, n, s):
        with pytest.raises(ValueError):
            FracParams(n, s)

    def test_time_exponent(self):
        assert FracParams(3, 0.25).time_exponent == pytest.approx(3 / 2 + 1 - 0.25)

    @pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
    def test_inverse_constant_ratio(self, s):
        # c_{n,s} over the solution kernel's 1 / ((4 pi)^(n/2) Gamma(s)) is
        # Gamma(s) s / Gamma(1-s)
        ratio = normalization_constant(1, s) * math.sqrt(4.0 * math.pi) * math.gamma(s)
        assert ratio == pytest.approx(
            math.gamma(s) * s / math.gamma(1.0 - s), rel=1e-13
        )


class TestPointsAndCylinders:
    def test_parabolic_distance(self):
        a = SpaceTimePoint.of(0.0, 0.0)
        b = SpaceTimePoint.of(0.3, -0.16)
        assert parabolic_distance(a, b) == pytest.approx(0.5)

    def test_past_cylinder_membership(self):
        cyl = ParabolicCylinder(SpaceTimePoint.of(0.0, 0.0), 0.5, sided="past")
        x = np.array([[0.2], [0.2], [0.7], [0.2]])
        t = np.array([-0.1, 0.1, -0.1, -0.3])
        assert list(cyl.contains(x, t)) == [True, False, False, False]

    def test_two_sided_cylinder_membership(self):
        cyl = ParabolicCylinder(SpaceTimePoint.of(0.0, 0.0), 0.5, sided="two")
        x = np.array([[0.2], [0.2], [0.2]])
        t = np.array([0.1, 0.26, -0.26])
        assert list(cyl.contains(x, t)) == [True, False, False]

    def test_midpoints_grid(self):
        cyl = ParabolicCylinder(SpaceTimePoint.of(0.3, 0.2), 0.5)
        x, t = cyl.midpoints((8, 4))
        assert x.shape == (32, 1) and t.shape == (32,)
        # x-major: the four times of one x, falling from the apex, come first
        assert np.all(x[:4, 0] == x[0, 0]) and np.all(np.diff(t[:4]) < 0)
        assert np.all(np.diff(x[::4, 0]) > 0)
        assert np.mean(np.abs(x[:, 0] - 0.3)) == pytest.approx(0.25, rel=1e-12)
        assert np.all((t > 0.2 - 0.25) & (t < 0.2))

    def test_midpoints_reject_two_sided_and_higher_dimensions(self):
        with pytest.raises(ValueError):
            ParabolicCylinder(SpaceTimePoint.of(0.0, 0.0), 0.5, sided="two").midpoints((4, 4))
        with pytest.raises(NotImplementedError):
            ParabolicCylinder(SpaceTimePoint.of([0.0, 0.0], 0.0), 0.5).midpoints((4, 4))

    def test_scaled(self):
        # parabolic scaling x -> lam x, t -> lam^2 t
        cyl = ParabolicCylinder(SpaceTimePoint.of(1.0, 0.5), 1.0, sided="past")
        half = cyl.scaled(0.5)
        assert half.radius == pytest.approx(0.5)
        assert half.center.x[0] == pytest.approx(0.5)
        assert half.t_hi == pytest.approx(0.125)
        assert half.t_lo == pytest.approx(0.125 - 0.25)


class TestMultiIndices:
    def test_enumeration_parabolic_degree_two(self):
        mis = multi_indices(1, 2)
        sigs = {mi.sigma for mi in mis}
        assert sigs == {(0, 0), (1, 0), (0, 1), (2, 0)}

    def test_parabolic_degree_counts_time_twice(self):
        assert MultiIndex(sigma=(1, 2)).parabolic_degree == 5

    def test_dimension_two(self):
        mis = multi_indices(2, 1)
        assert {mi.sigma for mi in mis} == {(0, 0, 0), (1, 0, 0), (0, 1, 0)}


class TestParabolicPolynomial:
    def _poly(self):
        base = SpaceTimePoint.of(0.5, -0.25)
        coeffs = {
            MultiIndex(sigma=(0, 0)): 2.0,
            MultiIndex(sigma=(1, 0)): -1.0,
            MultiIndex(sigma=(0, 1)): 3.0,
        }
        return ParabolicPolynomial(2, base, coeffs)

    def test_eval_matches_taylor_form(self):
        P = self._poly()
        x = np.array([[0.7]])
        t = np.array([0.0])
        # coefficients are derivatives at the base point
        expect = 2.0 - 1.0 * (0.7 - 0.5) + 3.0 * (0.0 + 0.25)
        assert P.eval(x, t)[0] == pytest.approx(expect, rel=1e-14)

    def test_json_round_trip(self):
        P = self._poly()
        Q = ParabolicPolynomial.from_json(P.to_json())
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 1))
        t = rng.normal(size=20)
        np.testing.assert_allclose(P.eval(x, t), Q.eval(x, t), rtol=1e-14)

    def test_zero(self):
        Z = ParabolicPolynomial.zero(1)
        assert Z.eval(np.array([[1.0]]), np.array([2.0]))[0] == 0.0
        assert Z.norm() == 0.0

    def test_norm_positive(self):
        assert self._poly().norm() > 0.0

    def test_derivative_at_base(self):
        P = self._poly()
        assert P.derivative_at_base(MultiIndex(sigma=(1, 0))) == -1.0
        assert P.derivative_at_base(MultiIndex(sigma=(2, 0))) == 0.0


class TestScalarField:
    def test_eval_at_and_eval_agree(self):
        f = ScalarField(lambda x, t: np.sum(x, axis=-1) + t, 1)
        pt = SpaceTimePoint.of(0.25, 0.5)
        assert f.eval_at(pt) == pytest.approx(0.75)

    def test_slowly_increasing_admits_nonnegative_growth(self):
        from fracheat import exp_symbol

        assert check_slowly_increasing(exp_symbol(1.0, [0.0], 1))
        assert check_slowly_increasing(exp_symbol(0.0, [2.0], 1))
        assert not check_slowly_increasing(exp_symbol(-1.0, [0.0], 1))

    @pytest.mark.parametrize("declared", [
        {"support": ParabolicCylinder(SpaceTimePoint.of(0.0, 0.0), 1.0, "two")},
        {"time_floor": 0.0},
    ], ids=["support", "time_floor"])
    def test_symbol_field_declares_no_support_or_floor(self, declared):
        """exp(lam t) cos(k.x) has neither a support nor a time floor: a
        field that declares a symbol with either raises."""
        with pytest.raises(ValueError, match="neither a support nor a time floor"):
            ScalarField(lambda x, t: np.exp(t), 1, symbol_params=(1.0, [0.0]), **declared)

    def test_time_window_infinite_by_default(self):
        f = ScalarField(lambda x, t: np.zeros(len(np.atleast_1d(t))), 1)
        lo, hi = f.time_window()
        assert lo == -math.inf and hi == math.inf

    @pytest.mark.parametrize("n,declared,stored", [
        (1, ("space", 0.0), ("space", (0.0,))),
        (1, ("space", (0.25,)), ("space", (0.25,))),
        (1, ("space", np.array([-0.5])), ("space", (-0.5,))),
        (2, ("space", [1, np.float64(2.0)]), ("space", (1.0, 2.0))),
        (1, ("time", 0), ("time", 0.0)),
        (2, ("time", np.float64(-0.5)), ("time", -0.5)),
    ], ids=["bare_number", "tuple", "array", "list_n2", "int_time", "numpy_time"])
    def test_singular_points_are_stored_as_floats(self, n, declared, stored):
        """A declared point is stored as ("space", a tuple of n floats) or
        ("time", a float); for n = 1 a bare number is the 1-tuple."""
        f = ScalarField(lambda x, t: np.zeros(len(t)), n, singular_points=[declared])
        assert f.singular_points == (stored,)
        where = f.singular_points[0][1]
        assert all(type(v) is float for v in (where if stored[0] == "space" else (where,)))

    @pytest.mark.parametrize("n,declared", [
        (1, ("spce", (0.0,))),
        (1, ("space", (0.0, 0.0))),
        (2, ("space", 0.0)),
        (1, ("space", (math.inf,))),
        (1, ("space", "0")),
        (1, ("time", math.nan)),
        (1, ("time", (0.0,))),
        (1, ("time", True)),
        (1, ("space",)),
        (1, "space"),
    ], ids=["misspelled_kind", "n2_point_on_n1", "bare_number_n2", "inf", "string",
            "nan_time", "tuple_time", "bool_time", "no_coordinates", "bare_kind"])
    def test_singular_points_reject_malformed_entries(self, n, declared):
        """Anything but ("space", n finite coordinates) or ("time", a finite
        number) raises a ValueError that names the entry: a misspelled kind
        had been ignored by the Laplacian route and still sent convolutions
        to the head, and ("space", 0.0) had raised TypeError there."""
        with pytest.raises(ValueError, match=r"^singular point " + re.escape(repr(declared))):
            ScalarField(lambda x, t: np.zeros(len(t)), n, singular_points=[declared])

    def test_bare_number_point_reaches_the_laplacian_route(self):
        """("space", 0.0) on n = 1 is the point (0.0,): the direct Laplacian
        route, which had raised TypeError on it, breaks its bands there like
        power_cusp's declaration."""
        from fracheat import apply_fractional_laplacian, power_cusp

        cusp = power_cusp(0.5)
        bare = ScalarField(cusp.func, 1, support=cusp.support, bound=cusp.bound,
                           singular_points=[("space", 0.0)])
        params = FracParams(1, 0.5)
        assert (apply_fractional_laplacian(bare, 0.2, params)
                == apply_fractional_laplacian(cusp, 0.2, params))


def _bump_formula(x, t, center, t_center, width, t_width, n, amplitude):
    """gaussian_bump's value, written out as it was before it took exp only
    on its support: exp at q = 0 off the support, then masked."""
    d = x - np.asarray(center, dtype=float)
    r2 = d[..., 0] * d[..., 0] if n == 1 else np.sum(d * d, axis=-1)
    q = r2 / width**2 + (t - t_center) ** 2 / t_width**2
    inside = q < 1.0
    q = np.where(inside, q, 0.0)
    return np.where(inside, amplitude * np.exp(1.0 - 1.0 / (1.0 - q)), 0.0)


class TestFieldFormulas:
    """gaussian_bump and power_cusp give the bits of their formulas written
    out in full, on points where q is exactly 1, just below 1, outside the
    time window, and spread over and past the support."""

    @staticmethod
    def _points(n, width, t_width):
        below = np.nextafter(1.0, 0.0)
        edge = np.zeros((6, n))
        edge[:, 0] = [width, -width, width * math.sqrt(below), 0.0, 0.0, 0.5 * width]
        t_edge = np.array([0.0, 0.0, 0.0, t_width, 2.0 * t_width, 0.0])
        rng = np.random.default_rng(5)
        x = np.vstack([edge, rng.uniform(-1.5 * width, 1.5 * width, (200, n))])
        return x, np.concatenate([t_edge, rng.uniform(-1.5 * t_width, 1.5 * t_width, 200)])

    @staticmethod
    def _same_bits(got, want):
        return got.dtype == want.dtype and np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("amplitude", [1.0, 2.5])
    @pytest.mark.parametrize("width,t_width", [(1.0, 1.0), (0.75, 0.5)])
    def test_bump(self, n, amplitude, width, t_width):
        from fracheat import gaussian_bump

        center = np.zeros(n)
        x, t = self._points(n, width, t_width)
        q = np.sum(x * x, axis=-1) / width**2 + t**2 / t_width**2
        assert np.any(q == 1.0) and np.any((0.999 < q) & (q < 1.0)) and np.any(q > 1.0)
        f = gaussian_bump(center, 0.0, width, t_width, n=n, amplitude=amplitude)
        want = _bump_formula(x, t, center, 0.0, width, t_width, n, amplitude)
        assert self._same_bits(f.eval(x, t), want)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.5])
    @pytest.mark.parametrize("direction", ["space", "time"])
    def test_cusp(self, n, beta, direction):
        from fracheat import power_cusp

        x, t = self._points(n, 0.75, 0.75)
        base = _bump_formula(x, t, np.zeros(n), 0.0, 0.75, 0.75, n, 1.0)
        if direction == "space":
            cusp = np.sum(np.atleast_2d(x) ** 2, axis=-1) ** (beta / 2.0)
        else:
            cusp = np.abs(t) ** (beta / 2.0)
        got = power_cusp(beta, direction, n=n).eval(x, t)
        assert self._same_bits(got, base * cusp)
