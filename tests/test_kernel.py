import math

import numpy as np
import pytest

from fracheat import FracParams, QuadratureSpec, SpaceTimePoint, abs_gamma_neg
from fracheat.kernel import (
    BoundReport,
    SamplePlan,
    _logsumexp,
    _samples,
    eval_kernel,
    eval_kernel_derivative,
    kernel_mass,
    log_kernel,
    verify_global_bound,
    verify_local_bound,
    verify_translation_bound,
)
from fracheat.quadrature import gauss_legendre


class TestKernelValues:
    def test_origin_value_halfline(self):
        p = FracParams(1, 0.5)
        # p = n/2 + 1 - s = 1, K(0, 1) = c
        assert eval_kernel(p, np.array([[0.0]]), np.array([1.0]))[0] == pytest.approx(
            1.0 / (4.0 * math.pi), rel=1e-14
        )

    def test_vanishes_for_nonpositive_time(self):
        p = FracParams(1, 0.5)
        x = np.array([[0.1], [0.1]])
        t = np.array([0.0, -1.0])
        assert np.all(eval_kernel(p, x, t) == 0.0)

    def test_log_matches_exp(self):
        p = FracParams(2, 0.3)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 2))
        t = rng.uniform(0.1, 5.0, size=50)
        np.testing.assert_allclose(
            np.exp(log_kernel(p, x, t)), eval_kernel(p, x, t), rtol=1e-13
        )

    @pytest.mark.parametrize("n,s", [(1, 0.5), (1, 0.3), (2, 0.7)])
    def test_parabolic_scaling(self, n, s):
        p = FracParams(n, s)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(100, n))
        t = rng.uniform(0.05, 4.0, size=100)
        lam = 1.7
        left = eval_kernel(p, lam * x, lam**2 * t)
        right = lam ** (-(n + 2.0 - 2.0 * s)) * eval_kernel(p, x, t)
        np.testing.assert_allclose(left, right, rtol=1e-12)


class TestKernelDerivatives:
    @pytest.mark.parametrize(
        "sigma", [(1, 0), (2, 0), (0, 1), (1, 1), (3, 0), (4, 0), (2, 1)]
    )
    def test_matches_finite_differences(self, sigma):
        p = FracParams(1, 0.4)
        x0, t0 = 0.8, 0.9
        order = sigma[0] + sigma[1]
        # higher FD orders need a larger step to beat cancellation
        h = 1e-4 if order <= 2 else 4e-3
        rel = 2e-6 if order <= 2 else 2e-3
        val = eval_kernel_derivative(
            p, sigma, np.array([[x0]]), np.array([t0])
        )[0]

        def K(x, t):
            return eval_kernel(p, np.array([[x]]), np.array([t]))[0]

        # central differences, nested for mixed orders
        def dx(fn, order):
            if order == 0:
                return fn
            def out(x, t):
                return (dx(fn, order - 1)(x + h, t)
                        - dx(fn, order - 1)(x - h, t)) / (2 * h)
            return out

        def dt(fn, order):
            if order == 0:
                return fn
            def out(x, t):
                return (dt(fn, order - 1)(x, t + h)
                        - dt(fn, order - 1)(x, t - h)) / (2 * h)
            return out

        fd = dt(dx(K, sigma[0]), sigma[1])(x0, t0)
        assert val == pytest.approx(fd, rel=rel, abs=1e-12)

    def test_rejects_unsupported_orders(self):
        p = FracParams(1, 0.5)
        with pytest.raises(ValueError):
            eval_kernel_derivative(p, (5, 0), np.array([[0.1]]), np.array([1.0]))
        with pytest.raises(ValueError):
            eval_kernel_derivative(p, (0, 3), np.array([[0.1]]), np.array([1.0]))

    def test_order_zero_is_kernel(self):
        p = FracParams(2, 0.6)
        x = np.array([[0.3, -0.2]])
        t = np.array([0.7])
        np.testing.assert_allclose(
            eval_kernel_derivative(p, (0, 0, 0), x, t), eval_kernel(p, x, t)
        )


class TestKernelMass:
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("T", [0.5, 1.0, 4.0])
    def test_matches_closed_form(self, s, T):
        p = FracParams(1, s)
        value, err = kernel_mass(p, T)
        expect = T**s / math.gamma(1.0 - s)
        assert value == pytest.approx(expect, rel=1e-8)
        assert abs(value - expect) <= max(err, 1e-10)

    def test_spatial_slice_mass(self):
        # int_R K(x, t) dx = t^(s-1) / |Gamma(-s)| at fixed t
        p = FracParams(1, 0.3)
        t = 0.7
        nodes, weights = gauss_legendre(200)
        half = 60.0  # e^{-x^2/4t} is negligible beyond
        x = (half * nodes)[:, None]
        vals = eval_kernel(p, x, np.full(len(nodes), t))
        integral = half * float(np.sum(weights * vals))
        expect = t ** (p.s - 1.0) / abs_gamma_neg(p.s)
        assert integral == pytest.approx(expect, rel=1e-8)


class TestBoundVerifiers:
    def test_global_bound_report_fields(self):
        rep = verify_global_bound(1.0, 1.0, 0.25, r=0.5,
                                  plan=SamplePlan(n_samples=2000, seed=0))
        assert isinstance(rep, BoundReport)
        assert rep.empirical_constant > 0
        assert math.isfinite(rep.refinement_change)

    def test_global_bound_seeded_samples_are_nested(self):
        """Every plan's samples start with the one deterministic sweep, so
        each report's constant is at least the sweep's own sup; a plan
        always gives the same report.  The random draws of plans of
        different sizes are not nested, so no order between them is
        asserted."""
        r = 0.5
        sweep = SamplePlan(n_samples=0)
        x0, t0, n_det = _samples(sweep, r, 1)
        assert len(t0) == n_det
        sweep_sup = verify_global_bound(1.0, 1.5, 0.5, r=r, plan=sweep).empirical_constant
        for plan in (SamplePlan(2000, 3), SamplePlan(20000, 3), SamplePlan(2000, 4)):
            x, t, n = _samples(plan, r, 1)
            assert n == n_det and len(t) == n_det + plan.n_samples
            assert np.array_equal(x[:n_det], x0) and np.array_equal(t[:n_det], t0)
            rep = verify_global_bound(1.0, 1.5, 0.5, r=r, plan=plan)
            assert rep.empirical_constant >= sweep_sup
            assert rep == verify_global_bound(1.0, 1.5, 0.5, r=r, plan=plan)

    def test_one_plan_draws_once(self):
        """The three verifiers of one plan at one r and n draw its samples
        once; the kept arrays are read-only, and each report equals one from
        a cold cache."""
        plan = SamplePlan(n_samples=3000, seed=5)
        runs = [
            lambda: verify_global_bound(1.0, 1.0, 0.25, r=0.5, plan=plan),
            lambda: verify_local_bound(1.0, 1.0, 0.25, r=0.5, plan=plan),
            lambda: verify_translation_bound(FracParams(1, 0.5), m=2, l=1, r=0.5,
                                             deriv_order=1, plan=plan),
        ]
        _samples.cache_clear()
        reports = [run() for run in runs]
        info = _samples.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        for arr in _samples(plan, 0.5, 1)[:2]:
            with pytest.raises(ValueError):
                arr[0] = 0.0
        for run, report in zip(runs, reports):
            _samples.cache_clear()
            assert run() == report

    @pytest.mark.parametrize("settings,error", [
        ({"n_samples": -5}, ValueError),
        ({"seed": -1}, ValueError),
        ({"n_samples": 2.5}, TypeError),
        ({"n_samples": True}, TypeError),
        ({"seed": "3"}, TypeError),
        ({"seed": np.float64(3.0)}, TypeError),
    ], ids=["negative_size", "negative_seed", "float_size", "bool_size", "str_seed",
            "numpy_float_seed"])
    def test_sample_plan_rejects_bad_fields(self, settings, error):
        """A plan's fields are integers >= 0; the error names the field."""
        with pytest.raises(error, match=f"^{next(iter(settings))} must be"):
            SamplePlan(**settings)

    def test_sample_plan_stores_numpy_integers_as_int(self):
        """A plan built from numpy integers equals, and hashes as, the same
        plan built from Python ints: the plan is a cache key."""
        plan = SamplePlan(n_samples=np.int64(100), seed=np.uint32(3))
        assert plan == SamplePlan(100, 3) and hash(plan) == hash(SamplePlan(100, 3))
        assert type(plan.n_samples) is int and type(plan.seed) is int

    def test_local_bound_within_global(self):
        plan = SamplePlan(n_samples=5000, seed=1)
        glob = verify_global_bound(1.0, 1.0, 0.25, r=0.5, plan=plan)
        loc = verify_local_bound(1.0, 1.0, 0.25, r=0.5, plan=plan)
        assert loc.empirical_constant <= glob.empirical_constant + 1e-12

    def test_global_bound_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            verify_global_bound(2.0, 1.0, 0.25, r=0.5)  # needs a <= b

    def test_translation_bound_stable(self):
        p = FracParams(1, 0.5)
        rep = verify_translation_bound(p, m=2, l=1, r=0.5,
                                       plan=SamplePlan(n_samples=5000, seed=2))
        assert rep.refinement_stable

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_translation_bound_derivative_variant(self, k):
        p = FracParams(1, 0.5)
        rep = verify_translation_bound(p, m=2, l=1, r=0.5, deriv_order=k,
                                       plan=SamplePlan(n_samples=5000, seed=2))
        assert rep.empirical_constant > 0
        assert rep.refinement_stable

    def test_logsumexp_matches_scipy(self):
        """The translation bound's log-sum-exp agrees with scipy's, on tied
        maxima and on columns with infinite entries too."""
        from scipy.special import logsumexp

        rng = np.random.default_rng(3)
        a = rng.normal(scale=30.0, size=(3, 1000))
        a[:, :100] = rng.normal(-math.log(3.0), 1e-3, size=(3, 100))  # sums near 0
        a[1, 100:200] = a[0, 100:200]  # two equal maxima
        a[:, 200:210] = -np.inf
        a[2, 210:220] = -np.inf
        a[0, 220:230] = np.inf
        got, want = _logsumexp(a), logsumexp(a, axis=0)
        finite = np.isfinite(want)
        assert np.array_equal(got[~finite], want[~finite])
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-15, atol=0.0)
