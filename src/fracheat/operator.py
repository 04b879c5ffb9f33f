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
profiles keep a direct quadrature in |y - x|.
"""

from __future__ import annotations

import math

import numpy as np

from .core import FracParams, ScalarField, SpaceTimePoint
from .fields import exp_symbol
from .quadrature import (
    QuadratureSpec,
    _graded_bands,
    _increment,
    _refined,
    _richardson_head,
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

Z_MIN, Z_MAX = 1e-7, 1e6  # the direct Laplacian route's range of |y - x|


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
    from .core import abs_gamma_neg

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
      C int_0^inf (2u(x) - u(x+z) - u(x-z)) / z^(1+2s) dz,
    on dyadic bands with an analytic head (the integrand opens like
    z^(1-2s)); past the support the tail is exact, and a bounded profile
    gets the worst case.
    """
    if params.n != 1:
        raise NotImplementedError("direct spatial route implemented for n = 1")
    if u_space.tail == "exponential_symbol":
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
    if interval is not None:
        z_hi = max(abs(x - interval[0]), abs(x - interval[1]), 4 * Z_MIN)
    else:
        z_hi = Z_MAX

    def one_pass(spec: QuadratureSpec) -> float:
        # Richardson head: incr(z) ~ c2 z^2 + c4 z^4 for smooth u
        g1 = float(incr(np.array([Z_MIN]))[0])
        g2 = float(incr(np.array([Z_MIN / 2.0]))[0])
        head = _richardson_head(g1, g2, Z_MIN, 2.0, 4.0, -1.0 - 2.0 * s)
        return head + _graded_bands(
            lambda z: incr(z) * z ** (-1.0 - 2.0 * s), Z_MIN, z_hi, (), spec.graded_nodes
        )

    # tail beyond z_hi: the 2u(x) part is an exact power integral, and u
    # vanishes past a support
    tail = 2.0 * u_at * z_hi ** (-2.0 * s) / (2.0 * s)
    tail_err = 0.0
    if interval is None:  # no decay assumption available: the worst case
        bound = u_space.bound if u_space.bound is not None else abs(u_at)
        tail_err = 2.0 * bound * z_hi ** (-2.0 * s) / (2.0 * s)
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
    value u(t - tau) as the directional average.  u_time is a ScalarField
    whose values depend on t only (n = 1, x ignored).  Returns (value,
    error_estimate).
    """
    if not 0 < s < 1:
        raise ValueError("s must lie in (0,1)")
    if u_time.tail == "exponential_symbol" and any(u_time.symbol_params[1]):
        raise ValueError("u_time must depend on t only (k = 0)")

    def uval(ts: np.ndarray) -> np.ndarray:
        return u_time.eval(np.zeros((ts.size, 1)), ts.ravel()).reshape(ts.shape)

    u_at = float(uval(np.array([t]))[0])

    def G(tau, spec):
        return u_at - uval(t - tau)

    return _increment(u_time, t, s, u_at, G, 1.0, marchaud_constant(s), quad)
