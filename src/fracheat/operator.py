"""Pointwise evaluation of the fully fractional heat operator.

The operator acts on a space-time function through backward increments:

  L u(x,t) = c_{n,s} PV int_{-inf}^t int_{R^n}
             [u(x,t) - u(y,tau)] e^{-|x-y|^2/(4(t-tau))} / (t-tau)^{n/2+1+s} dy dtau.

On exp(lam t) cos(k.x) it multiplies by the symbol (lam + |k|^2)^s.  On
time-independent functions it reduces to the fractional Laplacian, and on
space-independent functions to the one-sided (Marchaud-type) fractional
time derivative with constant s / Gamma(1-s), normalized so that
exp(lam t) maps to lam^s exp(lam t) exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .core import FracParams, ScalarField, SpaceTimePoint, check_slowly_increasing
from .quadrature import (
    QuadratureSpec,
    _graded_bands,
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
    if not check_slowly_increasing(u, params):
        raise ValueError(
            "field grows too fast backward in time for the history integral"
        )
    return increment_integral(u, pt, params, quad)


# ---------------------------------------------------------------------------
# Spatial reduction: fractional Laplacian (n = 1 direct route)
# ---------------------------------------------------------------------------


def _osc_tail(k: float, Z: float, nu: float) -> tuple:
    """Two-term asymptotics of int_Z^inf cos(k z) z^{-nu} dz, with a bound
    on the dropped remainder.  Requires k > 0."""
    t1 = -math.sin(k * Z) * Z ** (-nu) / k
    t2 = math.cos(k * Z) * nu * Z ** (-nu - 1.0) / k**2
    rem = nu * Z ** (-nu - 1.0) / k**2
    return t1 + t2, abs(rem)


def apply_fractional_laplacian(
    u_space: ScalarField,
    x: float,
    params: FracParams,
    quad: QuadratureSpec = QuadratureSpec(),
) -> tuple:
    """(-Lap)^s of a time-independent profile at x, n = 1 direct quadrature.

    Symmetrized principal value:
      C int_0^inf (2u(x) - u(x+z) - u(x-z)) / z^(1+2s) dz,
    dyadic bands with an analytic head (the integrand opens like z^(1-2s))
    and tail treatment from the field's tail class.  Returns (value, err).
    """
    if params.n != 1:
        raise NotImplementedError("direct spatial route implemented for n = 1")
    s = params.s
    C = fractional_laplacian_constant(1, s)

    def uval(xs: np.ndarray) -> np.ndarray:
        return u_space.eval(xs.reshape(-1, 1), np.zeros(xs.size)).reshape(xs.shape)

    u_at = float(uval(np.array([x]))[0])

    def incr(z: np.ndarray) -> np.ndarray:
        return 2.0 * u_at - uval(x + z) - uval(x - z)

    # working range
    z_lo = quad.z_min
    interval = u_space.spatial_interval()
    osc_k = 0.0
    if u_space.tail == "exponential_symbol":
        _, k = u_space.symbol_params
        osc_k = abs(float(np.atleast_1d(k)[0]))
    if interval is not None:
        z_hi = max(abs(x - interval[0]), abs(x - interval[1]), 4 * z_lo)
    elif osc_k > 0:
        z_hi = max(128.0, 40.0 / osc_k)
    else:
        z_hi = quad.z_max

    def one_pass(spec: QuadratureSpec) -> float:
        # Richardson head: incr(z) ~ c2 z^2 + c4 z^4 for smooth u
        g1 = float(incr(np.array([z_lo]))[0])
        g2 = float(incr(np.array([z_lo / 2.0]))[0])
        head = _richardson_head(g1, g2, z_lo, 2.0, 4.0, -1.0 - 2.0 * s)
        nodes = order = spec.graded_nodes
        if osc_k > 0:  # enough nodes on every band to resolve cos(k z)
            def order(a, b):
                return min(max(nodes, math.ceil(1.5 * osc_k * (b - a)) + 4), 200)
        return head + _graded_bands(
            lambda z, a, b: incr(z) * z ** (-1.0 - 2.0 * s), z_lo, z_hi, (), order
        )

    # tail beyond z_hi: the 2u(x) part is an exact power integral
    tail = 2.0 * u_at * z_hi ** (-2.0 * s) / (2.0 * s)
    tail_err = 0.0
    worst_case = quad.tail_mode == "bound_only"
    if interval is not None:
        pass  # u vanishes beyond z_hi: exact
    elif osc_k > 0:
        # u(x+z) + u(x-z) = 2 cos(k x) cos(k z) for the symbol field
        osc, rem = _osc_tail(osc_k, z_hi, 1.0 + 2.0 * s)
        tail -= 2.0 * math.cos(osc_k * x) * osc
        tail_err = 2.0 * rem
    else:
        worst_case = True  # no decay assumption available
    if worst_case:
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

    u_time is a ScalarField whose values depend on t only (n = 1, x
    ignored).  Returns (value, error_estimate).
    """
    if not 0 < s < 1:
        raise ValueError("s must lie in (0,1)")
    Cs = marchaud_constant(s)

    def uval(ts: np.ndarray) -> np.ndarray:
        return u_time.eval(np.zeros((ts.size, 1)), ts.ravel()).reshape(ts.shape)

    u_at = float(uval(np.array([t]))[0])

    tau_hi = quad.tau_max
    floor = u_time.time_floor
    if floor is not None and math.isfinite(floor):
        tau_hi = min(quad.tau_max, max(t - floor, 4.0 * quad.tau_min))
    breaks = [t - v for v in u_time.time_window() if math.isfinite(v)]

    def one_pass(spec: QuadratureSpec) -> float:
        tau_lo = spec.tau_min
        g1 = u_at - float(uval(np.array([t - tau_lo]))[0])
        g2 = u_at - float(uval(np.array([t - tau_lo / 2.0]))[0])
        head = _richardson_head(g1, g2, tau_lo, 1.0, 2.0, -1.0 - s)
        return head + _graded_bands(
            lambda tau, a, b: (u_at - uval(t - tau)) * tau ** (-1.0 - s),
            tau_lo, tau_hi, breaks, spec.graded_nodes,
        )

    tail = u_at * tau_hi ** (-s) / s
    tail_err = 0.0
    worst_case = quad.tail_mode == "bound_only"
    if floor is not None and math.isfinite(floor) and tau_hi >= t - floor:
        pass  # exact: u vanishes beyond the working range
    elif u_time.tail == "exponential_symbol":
        lam, _ = u_time.symbol_params
        tail_err = abs(u_at) * math.exp(-min(lam * tau_hi, 700.0)) * tau_hi ** (-s) / s
    else:
        # no decay assumption: freeze the increment at its tau_hi value
        tail = (u_at - float(uval(np.array([t - tau_hi]))[0])) * tau_hi ** (-s) / s
        worst_case = True
    if worst_case:
        bound = u_time.bound if u_time.bound is not None else abs(u_at)
        tail_err = 2.0 * bound * tau_hi ** (-s) / s
    return _refined(one_pass, quad, tail, tail_err, Cs)
