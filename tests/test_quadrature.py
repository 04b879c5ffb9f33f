"""Quadrature regression and exactness tests.

GOLDEN holds (value, error_estimate) for each of the five kernel
quadratures (kernel mass, increment integral, fractional Laplacian,
Marchaud derivative, kernel convolution) on a fixed set of inputs.  The
values are as computed before these integrals shared one band integrator;
the estimates too, except those of the symbol cases and of the operator
and Marchaud cases.  The symbol estimates were re-grounded when symbol
fields got their own time range, and again when that range ended where
one Gauss-Hermite order resolves it (TAU_MU / (|k|^2 + max(lam, 0))), so
that the coarse pass's lower order shows in the estimate.  lap_cos was
re-grounded when cosine profiles went through the operator with its
closed-form symbol tail.  The operator and Marchaud estimates were
re-grounded when they took in the round-off of G near tau_min.  Any later
change to the quadrature must reproduce them: values to 1e-12 relative,
estimates to 1e-14 |value| + 1e-16.
"""

import math

import numpy as np
import pytest

from fracheat import (
    FracParams,
    ParabolicCylinder,
    QuadratureSpec,
    RestrictedSource,
    ScalarField,
    SpaceTimePoint,
    apply_fractional_laplacian,
    apply_fully_fractional,
    apply_marchaud,
    exp_symbol,
    gaussian_bump,
    kernel_convolve,
    kernel_mass,
    power_cusp,
    synthesize_solution,
    synthesized_field,
    time_profile,
)
from fracheat.cli import quad_hash
from fracheat.kernel import _factor_eval
from fracheat.quadrature import (
    _PANEL_EDGES,
    BLOCK,
    TAU_MAX,
    TAU_MU,
    W_MAX,
    _band_layout,
    _graded_bands,
    _hermite_grid,
    _inner,
    _inner_intervals,
    _richardson_head,
    _symbol_range,
    gauss_hermite,
    gauss_legendre,
)

COARSE = QuadratureSpec(graded_nodes=8, spatial_nodes=10)


def _lorentz_space():
    """Bounded, slowly decaying, time-independent profile 1 / (1 + x^2)."""
    return ScalarField(lambda x, t: 1.0 / (1.0 + x[:, 0] ** 2), 1, tail="bounded",
                       bound=1.0, name="lorentz")


def _restricted():
    center = SpaceTimePoint.of(0.0, 0.0)
    return RestrictedSource(
        power_cusp(0.5),
        [(ParabolicCylinder(center, 1.0, "past"), True),
         (ParabolicCylinder(center, 0.25, "past"), False)],
    )


CASES = {
    # kernel_mass: closed form T^s / Gamma(1 - s)
    "mass_n1": lambda: kernel_mass(FracParams(1, 0.5), 1.0),
    "mass_n2": lambda: kernel_mass(FracParams(2, 0.3), 2.5),
    # increment integral through the operator
    "op_symbol_n1": lambda: apply_fully_fractional(
        exp_symbol(1.0, [1.0]), SpaceTimePoint.of(0.3, 0.1), FracParams(1, 0.5)),
    "op_symbol_n2": lambda: apply_fully_fractional(
        exp_symbol(0.5, [0.5, 1.0], n=2), SpaceTimePoint.of([0.2, -0.1], 0.0),
        FracParams(2, 0.4), COARSE),
    "op_bump_n1": lambda: apply_fully_fractional(
        gaussian_bump(), SpaceTimePoint.of(0.2, 0.3), FracParams(1, 0.5), COARSE),
    "op_bump_n2": lambda: apply_fully_fractional(
        gaussian_bump([0.0, 0.0], n=2), SpaceTimePoint.of([0.1, 0.2], 0.1),
        FracParams(2, 0.6), QuadratureSpec(graded_nodes=6, hermite_order=20)),
    "op_bounded": lambda: apply_fully_fractional(
        time_profile(lambda t: 1.0 / (1.0 + t**2), bound=1.0), SpaceTimePoint.of(0.0, 0.5),
        FracParams(1, 0.7), COARSE),
    "op_symbol_k0": lambda: apply_fully_fractional(
        exp_symbol(1.0, [0.0]), SpaceTimePoint.of(0.0, 0.0), FracParams(1, 0.3),
        QuadratureSpec(graded_nodes=8)),
    # fractional Laplacian: compact, oscillating and slowly decaying profiles
    "lap_bump": lambda: apply_fractional_laplacian(
        gaussian_bump(), 0.3, FracParams(1, 0.5)),
    "lap_cos": lambda: apply_fractional_laplacian(
        exp_symbol(0.0, [2.0]), 0.4, FracParams(1, 0.3)),
    "lap_lorentz": lambda: apply_fractional_laplacian(
        _lorentz_space(), 0.5, FracParams(1, 0.6)),
    # Marchaud derivative: symbol, ramp with a floor, bounded history
    "marchaud_exp": lambda: apply_marchaud(exp_symbol(1.0, [0.0]), 0.2, 0.5),
    "marchaud_ramp": lambda: apply_marchaud(
        time_profile(lambda t: np.maximum(t, 0.0), time_floor=0.0), 1.0, 0.4),
    "marchaud_bounded": lambda: apply_marchaud(
        time_profile(lambda t: 1.0 / (1.0 + t**2), bound=1.0), 0.5, 0.6),
    # kernel convolution: panels, Hermite, restricted sources, derivatives
    "conv_bump_n1": lambda: kernel_convolve(
        gaussian_bump(), SpaceTimePoint.of(0.1, 0.2), FracParams(1, 0.5), COARSE),
    "conv_bump_n2": lambda: kernel_convolve(
        gaussian_bump([0.0, 0.0], n=2), SpaceTimePoint.of([0.1, -0.2], 0.3),
        FracParams(2, 0.5), QuadratureSpec(graded_nodes=6, hermite_order=20)),
    "conv_symbol_n1": lambda: kernel_convolve(
        exp_symbol(1.0, [2.0]), SpaceTimePoint.of(0.3, 0.0), FracParams(1, 0.4), COARSE),
    "conv_restricted": lambda: kernel_convolve(
        _restricted(), SpaceTimePoint.of(0.1, 0.0), FracParams(1, 0.5), COARSE),
    "conv_restricted_deriv": lambda: kernel_convolve(
        _restricted(), SpaceTimePoint.of(0.1, 0.0), FracParams(1, 0.3), COARSE,
        deriv=(1, 0)),
    "conv_before_window": lambda: kernel_convolve(
        gaussian_bump(), SpaceTimePoint.of(0.0, -1.5), FracParams(1, 0.5), COARSE),
}

GOLDEN = {
    'conv_before_window': (0.0, 1e-16),
    'conv_bump_n1': (0.6343120145526332, 6.296417481268949e-05),
    'conv_bump_n2': (0.4163743479224238, 0.0006146511913328531),
    'conv_restricted': (0.11736173527223548, 0.0003110514730614423),
    'conv_restricted_deriv': (0.09714914641835708, 8.27903968849164e-05),
    'conv_symbol_n1': (0.4335533881130078, 4.053189019316167e-07),
    'lap_bump': (1.3026710495744576, 7.311963439120644e-07),
    'lap_cos': (1.0560099013564301, 1.1749845855429653e-09),
    'lap_lorentz': (0.45111863436732924, 3.551499155458932e-08),
    'marchaud_bounded': (-0.08466506294519799, 0.0035895269832935386),
    'marchaud_exp': (1.221402758160267, 1.2727714443800068e-11),
    'marchaud_ramp': (1.1191749540700615, 1.518785980075709e-12),
    'mass_n1': (0.5641895835477564, 6.933096515559673e-11),
    'mass_n2': (1.0141187137602978, 3.0841366612724163e-10),
    'op_bounded': (-0.2342763154289113, 0.001180642763766023),
    'op_bump_n1': (1.2048174181481182, 2.264851421641439e-06),
    'op_bump_n2': (2.461657630346506, 4.6638964617075984e-05),
    'op_symbol_k0': (0.9999999999992598, 2.2074813471447475e-07),
    'op_symbol_n1': (1.4931409694398485, 1.0824201980413935e-11),
    'op_symbol_n2': (1.2508787635694067, 3.817470473034752e-07),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    value, err = CASES[name]()
    want_value, want_err = GOLDEN[name]
    assert abs(value - want_value) <= 1e-12 * abs(want_value)
    assert abs(err - want_err) <= 1e-14 * abs(want_value) + 1e-16


# closed forms of the symbol goldens: mu^(+-s) f(pt), mu = lam + |k|^2
SYMBOL_TRUTH = {
    "op_symbol_n1": 2.0**0.5 * math.exp(0.1) * math.cos(0.3),
    "op_symbol_n2": 1.75**0.4,  # k . x = 0
    "op_symbol_k0": 1.0,  # e^(lam t) at t = 0
    "marchaud_exp": math.exp(0.2),
    "conv_symbol_n1": 5.0**-0.4 * math.cos(0.6),
    "lap_cos": 4.0**0.3 * math.cos(0.8),  # |k|^(2s) cos(k x)
}


@pytest.mark.parametrize("name", sorted(SYMBOL_TRUTH))
def test_symbol_goldens_cover_closed_form(name):
    """Each symbol golden's estimate covers its distance to the closed form."""
    value, err = CASES[name]()
    assert abs(value - SYMBOL_TRUTH[name]) <= err


SYMBOL_GRID_N1 = [
    (lam, [k], s, ([x], t))
    for lam in (0.0, 0.5, 1.0, 2.0)
    for k in (0.5, 1.0, 2.0, 3.0, 5.0, 8.0)
    for s in (0.3, 0.5, 0.8)
    for x, t in ((0.3, 0.1), (-0.7, 0.4), (1.1, -0.2))
]
SYMBOL_GRID_N2 = [
    (lam, k, s, ([0.2, -0.4], 0.3))
    for lam, k, s in ((0.5, [0.6, 0.8], 0.4), (0.0, [1.0, 1.0], 0.7),
                      (1.0, [2.0, -0.5], 0.3), (0.0, [0.0, 3.0], 0.5))
]


@pytest.mark.parametrize("route,sign", [(apply_fully_fractional, 1.0),
                                        (synthesize_solution, -1.0)],
                         ids=["operator", "synthesis"])
def test_symbol_oracle(route, sign):
    """On exp(lam t) cos(k.x) the operator multiplies by mu^s and the
    synthesis by mu^(-s), mu = lam + |k|^2: every value is finite and within
    1e-8 of mu^(+-s) e^(lam t), also where |k|^2 / mu is large (lam = 0,
    |k| up to 8).  The operator's estimate covers its error in every case;
    the synthesis estimate is not asserted to."""
    for lam, k, s, (x, t) in SYMBOL_GRID_N1 + SYMBOL_GRID_N2:
        n = len(k)
        field = exp_symbol(lam, k, n=n)
        pt = SpaceTimePoint.of(x, t)
        value, err = route(field, pt, FracParams(n, s))
        mu = lam + float(np.dot(k, k))
        amp = mu ** (sign * s) * math.exp(lam * t)
        assert math.isfinite(value) and math.isfinite(err)
        error = abs(value - mu ** (sign * s) * field.eval_at(pt))
        assert error <= 1e-8 * amp, (lam, k, s)
        if route is apply_fully_fractional:
            assert error <= err, (lam, k, s, x, t)


@pytest.mark.parametrize("lam,k", [(0.0, 0.01), (0.001, 0.0)], ids=["k0.01", "lam0.001"])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
def test_small_mu_symbol_tail(lam, k, s):
    """With mu = lam + k^2 = 1e-4 or 1e-3 the range ends at TAU_MAX, short of
    TAU_MU / mu, and both routes add the closed-form tail past it: the
    synthesis is within 1e-10 of mu^(-s) f and the operator within 1e-5 of
    mu^s f, each covered by its estimate."""
    field, pt, params = exp_symbol(lam, [k]), SpaceTimePoint.of(0.3, 0.1), FracParams(1, s)
    mu, f = lam + k * k, field.eval_at(pt)
    for route, truth, rtol in ((synthesize_solution, mu ** -s * f, 1e-10),
                               (apply_fully_fractional, mu**s * f, 1e-5)):
        value, err = route(field, pt, params)
        assert abs(value - truth) <= min(err, rtol * abs(truth)), route.__name__


@pytest.mark.parametrize("lam,k,breaks,want", [
    (0.0, 1.0, (), TAU_MU),
    (0.5, 2.0, (), TAU_MU / 4.5),
    (0.0, 1.0, (3.0, 64.0), 64.0),  # past every break
    (0.0, 0.0, (), 1e4),  # mu = 0: no cut
    (-0.9, 2.0, (), TAU_MU / 4.0),  # lam < 0 < mu: the cut sees |k|^2 only
], ids=["mu1", "mu4.5", "past_breaks", "mu0", "lam_negative"])
def test_symbol_range(lam, k, breaks, want):
    """Symbol fields with mu > 0 end at TAU_MU / (|k|^2 + max(lam, 0)) or past
    their last break; other fields keep the range."""
    assert _symbol_range(exp_symbol(lam, [k]), 1e4, breaks) == want
    assert _symbol_range(gaussian_bump(), 1e4, breaks) == 1e4


def test_negative_lam_symbol_synthesis():
    """exp(-0.9 t) cos x has mu = 0.1 > 0: its synthesis is mu^(-s) f, with
    the range cut where the Hermite rule resolves the oscillation and the
    growth of exp(-0.9 (t - tau)) is bounded."""
    field, pt = exp_symbol(-0.9, [1.0]), SpaceTimePoint.of(0.3, 0.0)
    value, err = synthesize_solution(field, pt, FracParams(1, 0.5))
    truth = 0.1**-0.5 * math.cos(0.3)
    assert abs(value - truth) <= min(err, 1e-10 * truth)


@pytest.mark.parametrize("deriv", [(1, 0), (0, 1)], ids=["d_x", "d_t"])
def test_symbol_kernel_derivative_unrestricted_raises(deriv):
    """A kernel derivative of an unrestricted oscillating symbol source has no
    closed-form tail to end its range, so it raises NotImplementedError; a
    restricted one keeps its windowed panels, and k = 0 its Hermite rule."""
    field, pt, params = exp_symbol(0.5, [1.0]), SpaceTimePoint.of(0.3, 0.0), FracParams(1, 0.4)
    with pytest.raises(NotImplementedError):
        kernel_convolve(field, pt, params, COARSE, deriv=deriv)
    cyl = ParabolicCylinder(SpaceTimePoint.of(0.0, 0.0), 1.0, "past")
    value, err = kernel_convolve(RestrictedSource(field, [(cyl, True)]), pt, params, COARSE,
                                 deriv=deriv)
    assert math.isfinite(value) and math.isfinite(err)
    value, err = kernel_convolve(exp_symbol(0.5, [0.0]), pt, params, COARSE, deriv=deriv)
    assert math.isfinite(value) and math.isfinite(err)


def test_mu0_source_ending_inside_tau_max_converges():
    """A mu = 0 source kept inside a past cylinder ends inside TAU_MAX: its
    convolution exists, without a tail, where the unrestricted one raises
    ValueError."""
    field, params, pt = exp_symbol(0.0, [0.0]), FracParams(1, 0.5), SpaceTimePoint.of(0.3, 0.0)
    cyl = ParabolicCylinder(SpaceTimePoint.of(0.0, 0.0), 2.0, "past")
    value, err = kernel_convolve(RestrictedSource(field, [(cyl, True)]), pt, params)
    plain = ScalarField(field.func, 1, tail="bounded", bound=1.0)
    assert value == kernel_convolve(RestrictedSource(plain, [(cyl, True)]), pt, params)[0]


def test_restricted_symbol_source_keeps_its_breaks():
    """cos x kept inside, or zeroed on, a past cylinder reaching back to
    t - 64, beyond TAU_MU / mu = 40: the range stays past the cylinder, so
    the inside piece is that of the same function without symbol metadata,
    and the two pieces add up to the symbol field's solution cos x."""
    field, params, pt = exp_symbol(0.0, [1.0]), FracParams(1, 0.5), SpaceTimePoint.of(0.3, 0.0)
    plain = ScalarField(field.func, 1, tail="bounded", bound=1.0)
    cyl = ParabolicCylinder(SpaceTimePoint.of(0.0, 0.0), 8.0, "past")
    out, out_err = kernel_convolve(RestrictedSource(field, [(cyl, False)]), pt, params)
    ins, ins_err = kernel_convolve(RestrictedSource(field, [(cyl, True)]), pt, params)
    assert ins == kernel_convolve(RestrictedSource(plain, [(cyl, True)]), pt, params)[0]
    assert abs(out + ins - math.cos(0.3)) <= out_err + ins_err


def _nan_field():
    return ScalarField(lambda x, t: np.full(len(t), np.nan), 1, tail="bounded", bound=1.0,
                       name="nan")


@pytest.mark.parametrize("route", [
    lambda f: apply_fully_fractional(f, SpaceTimePoint.of(0.1, 0.2), FracParams(1, 0.5), COARSE),
    lambda f: apply_fractional_laplacian(f, 0.1, FracParams(1, 0.5), COARSE),
    lambda f: apply_marchaud(f, 0.2, 0.5, COARSE),
    lambda f: kernel_convolve(f, SpaceTimePoint.of(0.1, 0.2), FracParams(1, 0.5), COARSE),
    lambda f: synthesize_solution(f, SpaceTimePoint.of(0.1, 0.2), FracParams(1, 0.5), COARSE),
    lambda f: synthesized_field(f, FracParams(1, 0.5), COARSE).eval(np.zeros((1, 1)), [0.2]),
], ids=["operator", "fractional_laplacian", "marchaud", "kernel_convolve",
        "synthesize_solution", "synthesized_field"])
def test_nonfinite_raises(route):
    """A value or estimate that is not finite raises instead of being returned."""
    with pytest.raises(FloatingPointError):
        route(_nan_field())


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("breaks", [(), (0.3, 7.0)])
def test_graded_bands_power(s, breaks):
    """The bands of [lo, hi] integrate tau^(s-1) to its closed form."""
    lo, hi = 1e-6, 20.0
    total = _graded_bands(lambda tau: tau ** (s - 1.0), lo, hi, breaks, 16)
    assert total == pytest.approx((hi**s - lo**s) / s, rel=1e-13)


def test_graded_bands_order_is_exact_to_its_degree():
    """Three Gauss-Legendre nodes per band integrate tau^5 exactly, two do
    not."""
    exact = (4.0**6 - 0.25**6) / 6.0
    three = _graded_bands(lambda tau: tau**5, 0.25, 4.0, (), 3)
    assert three == pytest.approx(exact, rel=1e-14)
    two = _graded_bands(lambda tau: tau**5, 0.25, 4.0, (), 2)
    assert abs(two - exact) > 1e-3 * exact


def test_graded_bands_one_call_per_order():
    """All bands are evaluated in one call, one band per row."""
    shapes = []

    def integrand(tau):
        shapes.append(tau.shape)
        return tau**5

    exact = (4.0**6 - 0.25**6) / 6.0
    assert _graded_bands(integrand, 0.25, 4.0, (), 3) == pytest.approx(exact, rel=1e-14)
    assert shapes == [(4, 3)]


@pytest.mark.parametrize("p,q,w", [(1.0, 2.0, -1.5), (2.0, 4.0, -2.0), (1.0, 2.0, -1.1)])
def test_richardson_head_exact(p, q, w):
    """With g = A z^p + B z^q the fitted head is the exact integral."""
    A, B, lo = 0.7, -1.3, 1e-3

    def g(z):
        return A * z**p + B * z**q

    head = _richardson_head(g(lo), g(lo / 2.0), lo, p, q, w)
    want = A * lo ** (p + w + 1.0) / (p + w + 1.0) + B * lo ** (q + w + 1.0) / (q + w + 1.0)
    assert head == pytest.approx(want, rel=1e-12)


def test_default_spec_hash():
    """Run manifests of the default settings keep their quadrature hash."""
    assert quad_hash(QuadratureSpec()) == "6d57277572e206f9"


@pytest.mark.parametrize("settings", [
    {"graded_nodes": "8"}, {"graded_nodes": 8.5}, {"hermite_order": True},
    {"spatial_nodes": None}, {"tau_min": "1e-3"}, {"tau_min": False},
], ids=["str_order", "float_order", "bool_order", "none_order", "str_tau_min",
        "bool_tau_min"])
def test_spec_rejects_wrong_types(settings):
    """Orders must be integers and tau_min a real number."""
    with pytest.raises(TypeError, match=f"^{next(iter(settings))} must be"):
        QuadratureSpec(**settings)


def test_spec_stores_numpy_scalars_as_python_numbers():
    """A spec built from numpy scalars equals, and hashes as, the same spec
    built from Python numbers."""
    spec = QuadratureSpec(tau_min=np.float64(1e-3), graded_nodes=np.int64(8))
    assert spec == QuadratureSpec(tau_min=1e-3, graded_nodes=8)
    assert quad_hash(spec) == quad_hash(QuadratureSpec(tau_min=1e-3, graded_nodes=8))


@pytest.mark.parametrize("arrays", [
    lambda: gauss_legendre(8),
    lambda: gauss_hermite(8),
    lambda: _hermite_grid(8, 2),
    lambda: _band_layout(1e-3, 1.0, (0.3,)),
    lambda: (_PANEL_EDGES,),
], ids=["gauss_legendre", "gauss_hermite", "hermite_grid", "band_layout", "panel_edges"])
def test_cached_arrays_are_read_only(arrays):
    """A write into a cached node table would corrupt every later quadrature."""
    for arr in arrays():
        with pytest.raises(ValueError):
            arr[0] = 1.0


def _inner_intervals_per_count(field_eval, x, t, tau, ints, spatial_nodes, params, deriv,
                               counts):
    """Reference inner rule: one field evaluation per interval and panel
    count, each count's bands summed over their (panel, node) axes."""
    sq = 2.0 * np.sqrt(tau)
    inner = np.zeros(tau.shape)
    gl_x, gl_w = gauss_legendre(spatial_nodes)
    for lo, hi in ints:
        y_lo = np.maximum(lo, x - W_MAX * sq)
        y_hi = np.maximum(np.minimum(hi, x + W_MAX * sq), y_lo)
        w_lo = (x - y_hi) / sq
        w_hi = (x - y_lo) / sq
        max_len = np.max(w_hi - w_lo, axis=1)
        panels = np.where(max_len > 0, np.clip(np.ceil(max_len / 2.0), 1, 10), 0)
        for n_panels in np.unique(panels[panels > 0]).astype(int):
            counts.add(int(n_panels))
            rows = panels == n_panels
            r_tau, r_sq, r_lo = tau[rows].ravel(), sq[rows].ravel(), w_lo[rows].ravel()
            frac = np.linspace(0.0, 1.0, n_panels + 1)
            edges = r_lo[:, None] + (w_hi[rows].ravel() - r_lo)[:, None] * frac[None, :]
            mids = 0.5 * (edges[:, 1:] + edges[:, :-1])
            halfs = 0.5 * (edges[:, 1:] - edges[:, :-1])
            w = mids[:, :, None] + halfs[:, :, None] * gl_x
            y = x - r_sq[:, None, None] * w
            eta = np.repeat(t - r_tau, w[0].size)
            vals = field_eval(y.reshape(-1, 1), eta).reshape(y.shape)
            integ = vals * np.exp(-(w * w))
            if deriv is not None:
                tau3 = np.broadcast_to(r_tau[:, None, None], y.shape)
                integ = integ * _factor_eval(
                    params, deriv, (r_sq[:, None, None] * w)[..., None], tau3
                )
            wq = halfs[:, :, None] * gl_w
            inner[rows] += np.sum(integ * wq, axis=(1, 2)).reshape(-1, tau.shape[1])
    return inner


@pytest.mark.parametrize("deriv", [None, (1, 0)])
def test_inner_intervals_matches_per_count_loop(deriv):
    """One field evaluation per non-empty interval gives the same bits as a
    loop over panel counts, on bands whose panel counts run from 1 to 9."""
    params = FracParams(1, 0.4)
    field = power_cusp(0.5)
    calls = []

    def field_eval(y, eta):
        calls.append(len(eta))
        return field.eval(y, eta)

    # bands of 4 nodes from tau = 1e-3 to 8, a third of an octave wide: the
    # windows of the first two intervals span from 1 to 9 panels, and the
    # third interval lies outside every window
    edges = 1e-3 * 2.0 ** (np.arange(40) / 3.0)
    gl_x, _ = gauss_legendre(4)
    tau = 0.5 * (edges[:-1] + edges[1:])[:, None] + 0.5 * np.diff(edges)[:, None] * gl_x
    ints = [(-6.0, 9.0), (-40.0, -12.0), (500.0, 600.0)]
    counts = set()
    want = _inner_intervals_per_count(field.eval, 0.2, 0.3, tau, ints, 10, params, deriv,
                                      counts)
    assert counts == set(range(1, 10))
    got = _inner_intervals(field_eval, 0.2, 0.3, tau, ints, 10, params, deriv)
    assert np.array_equal(got, want)
    assert len(calls) == 2


def test_admissible_region_once_per_break_segment():
    """A restricted convolution asks for the admissible region once per break
    segment and pass, not once per band; its value stays the golden one."""
    source = _restricted()
    asked = []

    class Counting(RestrictedSource):
        def intervals(self, eta):
            asked.append(eta)
            return super().intervals(eta)

    counting = Counting(source.field, source.constraints)
    value, err = kernel_convolve(counting, SpaceTimePoint.of(0.1, 0.0), FracParams(1, 0.5),
                                 COARSE)
    assert (value, err) == pytest.approx(GOLDEN["conv_restricted"], rel=1e-12, abs=0.0)
    segments = len(source.time_breakpoints()) + 1
    assert 0 < len(asked) <= 2 * segments


def _inner_hermite_per_band(field, x, t, tau, order, params, deriv):
    """Reference Gauss-Hermite inner rule: one field evaluation per band."""
    inner = np.empty(tau.shape)
    wpts, wq = _hermite_grid(order, params.n)
    for i in range(len(tau)):
        sq = 2.0 * np.sqrt(tau[i])
        dy = sq[:, None, None] * wpts[None, :, :]
        eta = np.broadcast_to((t - tau[i])[:, None], dy.shape[:2])
        vals = field.eval((x - dy).reshape(-1, params.n), eta.ravel()).reshape(dy.shape[:2])
        if deriv is not None:
            tau2 = np.broadcast_to(tau[i][:, None], dy.shape[:2])
            vals = vals * _factor_eval(params, deriv, dy, tau2)
        inner[i] = np.sum(vals * wq[None, :], axis=1)
    return inner


@pytest.mark.parametrize("first_derivative", [False, True])
@pytest.mark.parametrize("make,x", [
    (lambda: exp_symbol(0.2, [3.0]), [0.3]),
    (lambda: exp_symbol(0.5, [0.6, 0.8], n=2), [0.2, -0.1]),
    (lambda: gaussian_bump([0.0, 0.0], n=2), [0.1, 0.2]),
], ids=["symbol_n1", "symbol_n2", "bump_n2"])
def test_hermite_bands_grouped_by_order(make, x, first_derivative):
    """The Hermite bands share a field call per block of at most BLOCK
    points, with the bits of one call per band."""
    field = make()
    n = field.n
    params = FracParams(n, 0.4)
    deriv = (1,) + (0,) * n if first_derivative else None
    spec = QuadratureSpec()
    x, t = np.array(x), 0.1
    mid, half = _band_layout(spec.tau_min, TAU_MAX, ())
    gl_x, _ = gauss_legendre(spec.graded_nodes)
    tau = mid[:, None] + half[:, None] * gl_x
    want = _inner_hermite_per_band(field, x, t, tau, spec.hermite_order, params, deriv)

    calls = []

    def counting(y, eta):
        calls.append(len(eta))
        return type(field).eval(field, y, eta)

    field.eval = counting
    got = _inner(field, x, t, tau, None, spec, params, deriv)
    assert np.array_equal(got, want)

    q = spec.hermite_order**n
    step = max(1, BLOCK // q)
    assert calls == [min(step, tau.size - start) * q for start in range(0, tau.size, step)]
    assert all(size <= max(BLOCK, q) for size in calls)
