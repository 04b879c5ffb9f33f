"""Quadrature regression and exactness tests.

GOLDEN holds (value, error_estimate) for each of the five kernel
quadratures (kernel mass, increment integral, fractional Laplacian,
Marchaud derivative, kernel convolution) on a fixed set of inputs, as
computed before these integrals shared one band integrator.  Any later
change to the quadrature must reproduce them: values to 1e-12 relative,
estimates to 1e-14 |value| + 1e-16.
"""

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
    time_profile,
)
from fracheat.cli import quad_hash
from fracheat.quadrature import _graded_bands, _richardson_head

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
    "op_bound_only": lambda: apply_fully_fractional(
        exp_symbol(1.0, [0.0]), SpaceTimePoint.of(0.0, 0.0), FracParams(1, 0.3),
        QuadratureSpec(graded_nodes=8, tail_mode="bound_only")),
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
    'conv_symbol_n1': (0.4335533881130078, 4.782336196952225e-07),
    'lap_bump': (1.3026710495744576, 7.311963439120644e-07),
    'lap_cos': (1.056009897038064, 6.112993885875036e-07),
    'lap_lorentz': (0.45111863436732924, 3.551499155458932e-08),
    'marchaud_bounded': (-0.08466506294519799, 0.003589526927351138),
    'marchaud_exp': (1.221402758160267, 1.2013613067230138e-12),
    'marchaud_ramp': (1.1191749540700615, 1.4034726610611406e-13),
    'mass_n1': (0.5641895835477564, 6.933096515559673e-11),
    'mass_n2': (1.0141187137602978, 3.0841366612724163e-10),
    'op_bound_only': (0.9999999999992598, 0.09721675728236358),
    'op_bounded': (-0.2342763154289113, 0.0011806423879647478),
    'op_bump_n1': (1.2048174181481182, 2.2648427909892382e-06),
    'op_bump_n2': (2.461657630346506, 4.663889901325877e-05),
    'op_symbol_n1': (1.4931409694398485, 1.5729420591183606e-12),
    'op_symbol_n2': (1.2508787635694067, 1.3183488309467415e-06),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    value, err = CASES[name]()
    want_value, want_err = GOLDEN[name]
    assert abs(value - want_value) <= 1e-12 * abs(want_value)
    assert abs(err - want_err) <= 1e-14 * abs(want_value) + 1e-16


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("breaks", [(), (0.3, 7.0)])
def test_graded_bands_power(s, breaks):
    """The bands of [lo, hi] integrate tau^(s-1) to its closed form."""
    lo, hi = 1e-6, 20.0
    total = _graded_bands(lambda tau, a, b: tau ** (s - 1.0), lo, hi, breaks, 16)
    assert total == pytest.approx((hi**s - lo**s) / s, rel=1e-13)


def test_graded_bands_node_function():
    """An order given as (a, b) -> order is asked once per band: three
    Gauss-Legendre nodes integrate tau^5 exactly, two do not."""
    asked = []

    def nodes(a, b):
        asked.append((a, b))
        return 3

    exact = (4.0**6 - 0.25**6) / 6.0
    total = _graded_bands(lambda tau, a, b: tau**5, 0.25, 4.0, (), nodes)
    assert total == pytest.approx(exact, rel=1e-14)
    assert asked == [(0.25, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 4.0)]
    two = _graded_bands(lambda tau, a, b: tau**5, 0.25, 4.0, (), 2)
    assert abs(two - exact) > 1e-3 * exact


def test_graded_bands_one_call_per_order():
    """Bands of one order are evaluated in one call, one band per row."""
    shapes = []

    def integrand(tau, a, b):
        shapes.append(tau.shape)
        assert np.all((a[:, None] < tau) & (tau < b[:, None]))
        return tau**5

    exact = (4.0**6 - 0.25**6) / 6.0
    assert _graded_bands(integrand, 0.25, 4.0, (), 3) == pytest.approx(exact, rel=1e-14)
    assert shapes == [(4, 3)]
    shapes.clear()
    mixed = _graded_bands(integrand, 0.25, 4.0, (), lambda a, b: 3 if b <= 1.0 else 4)
    assert mixed == pytest.approx(exact, rel=1e-14)
    assert shapes == [(2, 3), (2, 4)]


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
    assert quad_hash(QuadratureSpec()) == "aefe4660c258b788"
