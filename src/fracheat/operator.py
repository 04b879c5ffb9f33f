"""Pointwise evaluation of the fully fractional heat operator.

The operator acts on a space-time function through backward increments:

  L u(x,t) = c_{n,s} PV int_{-inf}^t int_{R^n}
             [u(x,t) - u(y,tau)] e^{-|x-y|^2/(4(t-tau))} / (t-tau)^{n/2+1+s} dy dtau.

On exp(lam t) cos(k.x) it multiplies by the symbol (lam + |k|^2)^s.  On
time-independent functions it reduces to the fractional Laplacian, and on
space-independent functions to the one-sided (Marchaud-type) fractional
time derivative with constant s / Gamma(1-s), normalized so that
exp(lam t) maps to lam^s exp(lam t) exactly.  The operator and that time
derivative are one increment integral (`quadrature._increment`), with the
Gaussian average and with the point value u(t - tau) as the average.  The
fractional Laplacian of a cosine profile is the operator on the
time-independent symbol field exp_symbol(0, k); compact and bounded
profiles keep a direct quadrature in |y - x|, with a bottom band too.
Each band's error is `quadrature._band_error`: a value diverging at a cusp
is flagged by its estimate.
"""

from __future__ import annotations

import math

import numpy as np

from .core import FracParams, ScalarField, SpaceTimePoint, abs_gamma_neg
from .fields import exp_symbol
from .quadrature import (
    QuadratureSpec,
    RestrictedSource,
    _band_error,
    _bottom_band,
    _graded_bands,
    _increment,
    _SourceAt,
    _refined,
    increment_integral,
)

__all__ = [
    "symbol_oracle",
    "apply_fully_fractional",
    "apply_fractional_laplacian",
    "apply_marchaud",
    "fractional_laplacian_constant",
    "marchaud_constant",
]

Z_BAND, Z_MAX = 0.03, 1e6  # the direct Laplacian route's band ends by Z_BAND, its range by Z_MAX


def symbol_oracle(lam: float, k, s: float) -> float:
    """Fourier-side action on exp(lam t) cos(k.x): (lam + |k|^2)^s."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    base = lam + float(k @ k)
    if base < 0:
        raise ValueError("symbol base lam + |k|^2 must be nonnegative")
    return base**s


def fractional_laplacian_constant(n: int, s: float) -> float:
    """4^s Gamma(n/2 + s) / (pi^{n/2} |Gamma(-s)|).

    This is the time-integrated form of the space-time normalization: the
    pure spatial reduction of the operator carries exactly this constant.
    """
    return 4.0**s * math.gamma(n / 2.0 + s) / (math.pi ** (n / 2.0) * abs_gamma_neg(s))


def marchaud_constant(s: float) -> float:
    """s / Gamma(1 - s): makes d^s/dt^s exp(lam t) = lam^s exp(lam t) exact."""
    return s / math.gamma(1.0 - s)


def apply_fully_fractional(
    u: ScalarField,
    pt: SpaceTimePoint,
    params: FracParams,
    quad: QuadratureSpec = QuadratureSpec(),
) -> tuple:
    """Evaluate the operator at a point; returns (value, error_estimate)."""
    if u.n != params.n:
        raise ValueError("field dimension does not match params")
    return increment_integral(u, pt, params, quad)


# ---------------------------------------------------------------------------
# Spatial reduction: fractional Laplacian (n = 1 direct route)
# ---------------------------------------------------------------------------


def apply_fractional_laplacian(
    u_space: ScalarField,
    x: float,
    params: FracParams,
    quad: QuadratureSpec = QuadratureSpec(),
) -> tuple:
    """(-Lap)^s of a time-independent profile at x, n = 1.  Returns (value, err).

    A cosine profile cos(k x) (a symbol field, read at t = 0) goes through
    the operator: on the time-independent exp_symbol(0, k) at (x, 0) the
    operator is (-Lap)^s, and its symbol tail is closed form.  Compact and
    bounded profiles take the direct route, the symmetrized principal value
      C int_0^inf (2u(x) - u(x+z) - u(x-z)) / z^(1+2s) dz.
    incr / z^2 = (2u(x) - u(x+z) - u(x-z)) / z^2 is smooth in z short of
    the distances d from x to the support's edges and to the profile's
    declared ("space", x0) points: one Gauss-Jacobi band of weight z^(1-2s)
    takes it on [0, top], top = min(Z_BAND, d / 4), and dyadic bands graded
    from top, split at each d > 0, take the rest.  The band's error
    (`quadrature._band_error`) is incr's round-off and, at a kink at x
    (d = 0), where incr is a power of z that the band on [0, tau_min] does
    not fit, its whole value.  The tail is exact past a support, the worst
    case otherwise.
    """
    if params.n != 1:
        raise NotImplementedError("direct spatial route implemented for n = 1")
    if u_space.symbol_params is not None:
        cosine = exp_symbol(0.0, u_space.symbol_params[1])
        return increment_integral(cosine, SpaceTimePoint.of(x, 0.0), params, quad)
    s = params.s
    C = fractional_laplacian_constant(1, s)

    def uval(xs: np.ndarray) -> np.ndarray:
        return u_space.eval(xs.reshape(-1, 1), np.zeros(xs.size)).reshape(xs.shape)

    u_at = float(uval(np.array([x]))[0])

    def incr(z: np.ndarray) -> np.ndarray:
        return 2.0 * u_at - uval(x + z) - uval(x - z)

    interval = u_space.spatial_interval()
    z_hi = Z_MAX if interval is None else max(abs(x - v) for v in interval)
    kinks = [*(interval or ()), *(p[0] for kind, p in u_space.singular_points if kind == "space")]
    breaks = [abs(x - v) for v in kinks]  # one at 0 splits no band
    top = min([Z_BAND, *(d / 4.0 if d > 0.0 else quad.tau_min for d in breaks)])

    def one_pass(spec: QuadratureSpec) -> float:
        nodes = spec.graded_nodes
        return _graded_bands(lambda z: incr(z) * z ** (-1.0 - 2.0 * s), top, z_hi, breaks,
                             nodes, _bottom_band(top, 1.0 - 2.0 * s, nodes))

    band = _bottom_band(top, 1.0 - 2.0 * s, quad.graded_nodes)
    tail_err = _band_error(band, top, 2.0 * s, abs(u_at), incr(band[0]) if 0.0 in breaks else None)
    # past z_hi the 2u(x) part is an exact power integral; u vanishes past a support
    tail = 2.0 * u_at * z_hi ** (-2.0 * s) / (2.0 * s)
    if interval is None:  # no decay assumption available: the worst case
        bound = u_space.bound if u_space.bound is not None else abs(u_at)
        tail_err += 2.0 * bound * z_hi ** (-2.0 * s) / (2.0 * s)
    return _refined(one_pass, quad, tail, tail_err, C)


# ---------------------------------------------------------------------------
# Temporal reduction: one-sided fractional derivative
# ---------------------------------------------------------------------------


def apply_marchaud(
    u_time: ScalarField,
    t: float,
    s: float,
    quad: QuadratureSpec = QuadratureSpec(),
) -> tuple:
    """One-sided fractional time derivative of order s at time t.

      (s / Gamma(1-s)) int_0^inf (u(t) - u(t - tau)) / tau^(1+s) dtau

    This is the operator's increment integral (`_increment`) with the point
    value u(t - tau), of weight 1, as the directional average, so that its
    constant 1 / |Gamma(-s)| is `marchaud_constant(s)`.  u_time is a
    ScalarField whose values depend on t only (n = 1, x ignored).  Returns
    (value, error_estimate).
    """
    if not 0 < s < 1:
        raise ValueError("s must lie in (0,1)")
    if u_time.symbol_params is not None and any(u_time.symbol_params[1]):
        raise ValueError("u_time must depend on t only (k = 0)")

    def uval(ts: np.ndarray) -> np.ndarray:
        return u_time.eval(np.zeros((ts.size, 1)), ts.ravel()).reshape(ts.shape)

    u_at = float(uval(np.array([t]))[0])

    def G(tau, spec):
        return u_at - uval(t - tau)

    return _increment(_SourceAt(RestrictedSource(u_time), t), None, s, u_at, G, 1.0, quad)
