"""Quadrature engine shared by the operator and synthesis routines.

All space-time integrals against the kernel have the same skeleton after
the substitution y = x - 2 sqrt(tau) w:

    int_0^inf  c 2^n tau^(s-1)  int  g(x - 2 sqrt(tau) w, t - tau) e^(-w^2) dw  dtau

The time integral runs over dyadic bands graded toward tau = 0, with band
edges aligned to every time at which the integrand's spatial restriction
changes shape, plus an analytic head below tau_min where the integrand is
a pure power.  `_graded_bands` is that band integrator for every kernel
quadrature of the package (this module, the operator routes and the kernel
mass), `_richardson_head` their fitted power-law head, and `_refined` the
fine/coarse error estimate of all but the kernel mass.  The inner
integral (`_inner`) uses Gauss-Hermite when the admissible region is
unbounded and mapped Gauss-Legendre panels (with the Gaussian written out
explicitly) when the region is a union of intervals, so that indicator
boundaries are hit exactly instead of being smeared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .core import FracParams, ScalarField, SpaceTimePoint
from .kernel import _factor_eval

__all__ = [
    "QuadratureSpec",
    "RestrictedSource",
    "kernel_convolve",
    "increment_integral",
    "gauss_legendre",
    "gauss_hermite",
]

W_MAX = 8.6  # Gaussian window half-width; exp(-W_MAX^2) ~ 5e-33


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs for the kernel quadratures.

    tau_min/tau_max bound the numerically integrated time range (analytic
    head and tail outside).  graded_nodes is the Gauss-Legendre order per
    dyadic band, hermite_order the base Gauss-Hermite order for unbounded
    spatial integrals, spatial_nodes the Gauss-Legendre order per mapped
    spatial panel.  z_min/z_max play the role of tau_min/tau_max for the
    purely spatial (time-independent) operator route.  tail_mode "auto"
    derives the tail treatment from field metadata; "bound_only" forces a
    worst-case error bound.
    """

    tau_min: float = 1e-8
    tau_max: float = 1e4
    graded_nodes: int = 16
    hermite_order: int = 40
    spatial_nodes: int = 16
    z_min: float = 1e-7
    z_max: float = 1e6
    tail_mode: str = "auto"

    def __post_init__(self):
        if not 0 < self.tau_min < self.tau_max:
            raise ValueError("need 0 < tau_min < tau_max")
        if not 0 < self.z_min < self.z_max:
            raise ValueError("need 0 < z_min < z_max")
        if min(self.graded_nodes, self.hermite_order, self.spatial_nodes) < 2:
            raise ValueError("quadrature orders must be >= 2")
        if self.tail_mode not in ("auto", "bound_only"):
            raise ValueError("tail_mode must be 'auto' or 'bound_only'")

    def coarsened(self) -> "QuadratureSpec":
        return replace(
            self,
            graded_nodes=max(4, self.graded_nodes // 2),
            spatial_nodes=max(8, self.spatial_nodes - 4),
            hermite_order=max(16, self.hermite_order - 16),
        )

    def signature(self) -> dict:
        return {
            "tau_min": self.tau_min,
            "tau_max": self.tau_max,
            "graded_nodes": self.graded_nodes,
            "hermite_order": self.hermite_order,
            "spatial_nodes": self.spatial_nodes,
            "z_min": self.z_min,
            "z_max": self.z_max,
            "tail_mode": self.tail_mode,
        }


@lru_cache(maxsize=128)
def gauss_legendre(order: int):
    return np.polynomial.legendre.leggauss(order)


@lru_cache(maxsize=64)
def gauss_hermite(order: int):
    return np.polynomial.hermite.hermgauss(order)


# ---------------------------------------------------------------------------
# Interval arithmetic (n = 1 restrictions)
# ---------------------------------------------------------------------------


def _intersect(ints, lo, hi):
    out = []
    for a, b in ints:
        a2, b2 = max(a, lo), min(b, hi)
        if a2 < b2:
            out.append((a2, b2))
    return out


def _subtract(ints, lo, hi):
    out = []
    for a, b in ints:
        if hi <= a or lo >= b:
            out.append((a, b))
            continue
        if a < lo:
            out.append((a, lo))
        if hi < b:
            out.append((hi, b))
    return out


@dataclass
class RestrictedSource:
    """A scalar field multiplied by indicator functions of cylinders.

    constraints is a list of (cylinder, keep_inside).  keep_inside=True
    zeroes the field outside the cylinder; False zeroes it inside.  Only
    n = 1 supports restricted spatial regions.
    """

    field: ScalarField
    constraints: tuple = ()

    def __post_init__(self):
        self.constraints = tuple(self.constraints)
        if self.constraints and self.field.n != 1:
            raise NotImplementedError("cylinder restrictions implemented for n = 1")

    @property
    def n(self) -> int:
        return self.field.n

    def time_window(self) -> tuple:
        lo, hi = self.field.time_window()
        for cyl, inside in self.constraints:
            if inside:
                lo, hi = max(lo, cyl.t_lo), min(hi, cyl.t_hi)
        return lo, hi

    def time_breakpoints(self) -> list:
        pts = []
        lo, hi = self.field.time_window()
        for v in (lo, hi):
            if math.isfinite(v):
                pts.append(v)
        for cyl, _ in self.constraints:
            pts.extend([cyl.t_lo, cyl.t_hi])
        return pts

    def intervals(self, eta: float):
        """Admissible spatial region at time eta: list of intervals, or None
        if unrestricted and the field has unbounded support."""
        base = self.field.spatial_interval()
        if base is None and not self.constraints:
            return None
        lo, hi = self.field.time_window()
        if not lo < eta < hi:
            return []
        ints = [base] if base is not None else [(-1e300, 1e300)]
        for cyl, inside in self.constraints:
            cx = cyl.center.x[0]
            active = cyl.t_lo < eta <= cyl.t_hi
            if inside:
                if not active:
                    return []
                ints = _intersect(ints, cx - cyl.radius, cx + cyl.radius)
            elif active:
                ints = _subtract(ints, cx - cyl.radius, cx + cyl.radius)
            if not ints:
                return []
        return ints

    def value_at(self, x: np.ndarray, t: float) -> float:
        for cyl, inside in self.constraints:
            member = bool(cyl.contains(x[None, :], np.array([t]))[0])
            if member != inside:
                return 0.0
        return float(self.field.eval(x[None, :], np.array([t]))[0])


def _band_edges(tau_lo: float, tau_hi: float, breakpoints: Sequence[float]):
    edges = set()
    v = tau_lo
    while v < tau_hi:
        edges.add(v)
        v *= 2.0
    edges.add(tau_hi)
    for b in breakpoints:
        if tau_lo < b < tau_hi:
            edges.add(b)
    return sorted(edges)


def _graded_bands(integrand: Callable, lo: float, hi: float, breaks, nodes) -> float:
    """int_lo^hi integrand over dyadic bands graded toward lo.

    The bands double from lo and are split at every break inside (lo, hi).
    nodes is the Gauss-Legendre order per band, or a function
    (a, b) -> order.  Bands of one order are evaluated together:
    integrand(tau, a, b) gets the nodes tau, shape (bands, order), of the
    bands [a_i, b_i] and returns the integrand there, same shape.
    """
    edges = _band_edges(lo, hi, breaks)
    pairs = list(zip(edges[:-1], edges[1:]))
    orders = np.array([nodes(*p) if callable(nodes) else nodes for p in pairs])
    a, b = np.array(pairs).reshape(-1, 2).T
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    sums = np.empty(len(pairs))
    for order in dict.fromkeys(orders.tolist()):
        rows = orders == order
        gl_x, gl_w = gauss_legendre(order)
        vals = integrand(mid[rows, None] + half[rows, None] * gl_x, a[rows], b[rows])
        sums[rows] = np.sum(gl_w * vals, axis=1)
    total = 0.0
    for h, v in zip(half, sums):
        total += h * v
    return float(total)


def _richardson_head(g1: float, g2: float, lo: float, p: float, q: float, w: float) -> float:
    """int_0^lo (A z^p + B z^q) z^w dz, with A and B fitted so that the
    model takes the values g1 at lo and g2 at lo / 2."""
    u, v = 2.0**-p, 2.0**-q
    a = (g2 - v * g1) / (u - v)  # A lo^p
    b = (u * g1 - g2) / (u - v)  # B lo^q
    return lo ** (w + 1.0) * (a / (p + w + 1.0) + b / (q + w + 1.0))


def _refined(
    one_pass: Callable, quad: QuadratureSpec, tail: float = 0.0, tail_err: float = 0.0,
    scale: float = 1.0,
) -> tuple:
    """(value, err) of scale * (one_pass + tail) from a fine pass at quad and a
    coarse pass at quad.coarsened(); err is their difference plus tail_err,
    scaled, plus a relative floor."""
    fine = one_pass(quad)
    coarse = one_pass(quad.coarsened())
    value = scale * (fine + tail)
    return value, scale * (abs(fine - coarse) + tail_err) + 1e-13 * abs(value) + 1e-16


def _inner_intervals(
    field_eval: Callable,
    x: float,
    t: float,
    tau: np.ndarray,
    ints,
    spatial_nodes: int,
    params: FracParams,
    deriv: Optional[tuple],
) -> np.ndarray:
    """int e^{-w^2} g(x - 2 sqrt(tau) w, t - tau) [phi] dw over mapped intervals.

    tau holds the nodes of one band per row; each band gets as many panels
    as its widest window needs.  Returns the integral at every node.
    """
    sq = 2.0 * np.sqrt(tau)
    inner = np.zeros(tau.shape)
    gl_x, gl_w = gauss_legendre(spatial_nodes)
    for lo, hi in ints:
        y_lo = np.maximum(lo, x - W_MAX * sq)
        y_hi = np.minimum(hi, x + W_MAX * sq)
        y_hi = np.maximum(y_hi, y_lo)
        w_lo = (x - y_hi) / sq
        w_hi = (x - y_lo) / sq
        max_len = np.max(w_hi - w_lo, axis=1)
        panels = np.where(max_len > 0, np.clip(np.ceil(max_len / 2.0), 1, 10), 0)
        for n_panels in np.unique(panels[panels > 0]).astype(int):
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


@lru_cache(maxsize=64)
def _hermite_grid(order: int, n: int):
    """Tensor Gauss-Hermite nodes, shape (order^n, n), and their weights."""
    gx, gw = gauss_hermite(order)
    wpts = np.stack([g.ravel() for g in np.meshgrid(*[gx] * n, indexing="ij")], axis=-1)
    wq = np.prod(np.meshgrid(*[gw] * n, indexing="ij"), axis=0).ravel()
    return wpts, wq


def _inner_unbounded(
    field_eval: Callable,
    x: np.ndarray,
    t: float,
    tau: np.ndarray,
    order: int,
    params: FracParams,
    deriv: Optional[tuple],
) -> np.ndarray:
    """Tensor Gauss-Hermite inner integral for unrestricted regions, n <= 2."""
    n = params.n
    if n > 2:
        raise NotImplementedError("unbounded inner integral implemented for n <= 2")
    wpts, wq = _hermite_grid(order, n)
    sq = 2.0 * np.sqrt(tau)
    dy = sq[:, None, None] * wpts[None, :, :]  # (len(tau), q, n)
    eta = np.broadcast_to((t - tau)[:, None], dy.shape[:2])
    vals = field_eval((x - dy).reshape(-1, n), eta.ravel()).reshape(dy.shape[:2])
    if deriv is not None:
        tau2 = np.broadcast_to(tau[:, None], dy.shape[:2])
        vals = vals * _factor_eval(params, deriv, dy, tau2)
    return np.sum(vals * wq[None, :], axis=1)


def _gh_order_for_band(source_field: ScalarField, tau_hi: float, base: int) -> int:
    """Raise the Hermite order where an oscillatory symbol field demands it.

    For exp(lam t) cos(k.x) the inner integrand oscillates at rate
    a = 2 |k| sqrt(tau); once exp(-lam tau) is below machine level the
    values themselves vanish and the base order suffices.
    """
    if source_field.tail != "exponential_symbol":
        return base
    lam, k = source_field.symbol_params
    kn = float(np.linalg.norm(k))
    if kn == 0.0:
        return base
    if lam > 0 and lam * tau_hi > 46.0:
        return base
    a = 2.0 * kn * math.sqrt(tau_hi)
    need = int(math.ceil(a * a / 3.0)) + 24
    order = max(base, need)
    return min(8 * math.ceil(order / 8), 512)


def _inner(
    field: ScalarField,
    x: np.ndarray,
    t: float,
    tau: np.ndarray,
    ints,
    spec: QuadratureSpec,
    band_hi: np.ndarray,
    params: FracParams,
    deriv: Optional[tuple],
) -> np.ndarray:
    """int e^{-w^2} g(x - 2 sqrt(tau) w, t - tau) [phi] dw at the tau nodes.

    tau holds the nodes of one band per row and band_hi the bands' upper
    ends.  ints is the admissible region of the bands (None: unbounded,
    []: empty).  Bounded regions, and unbounded ones for n = 1 fields that
    do not oscillate, use windowed Gauss-Legendre panels; the rest
    Gauss-Hermite, with the order raised for oscillating symbol fields up
    to each band's upper end.
    """
    if ints is None and params.n == 1 and field.tail != "exponential_symbol":
        # windowed panels beat Gauss-Hermite on generic smooth fields
        ints = [(-math.inf, math.inf)]
    if ints is None:
        # one band at a time: a raised order makes a large tensor grid
        inner = np.empty(tau.shape)
        for i, b in enumerate(band_hi):
            order = _gh_order_for_band(field, b, spec.hermite_order)
            inner[i] = _inner_unbounded(field.eval, x, t, tau[i], order, params, deriv)
        return inner
    if not ints:
        return np.zeros(tau.shape)
    if params.n != 1:
        raise NotImplementedError("restricted regions require n = 1")
    return _inner_intervals(
        field.eval, x[0], t, tau, ints, spec.spatial_nodes, params, deriv
    )


def _convolve_once(
    source: RestrictedSource,
    pt: SpaceTimePoint,
    params: FracParams,
    quad: QuadratureSpec,
    deriv: Optional[tuple],
) -> float:
    x = pt.x_array()
    t = pt.t
    s = params.s
    win_lo, win_hi = source.time_window()
    if t <= win_lo:
        return 0.0
    tau_lo = quad.tau_min
    if win_hi < t:
        tau_lo = max(tau_lo, t - win_hi)
    tau_hi = quad.tau_max if not math.isfinite(win_lo) else min(quad.tau_max, t - win_lo)
    total = 0.0
    if deriv is None and tau_lo == quad.tau_min:
        # analytic head: the inner integral tends to pi^{n/2} g(x, t)
        g0 = source.value_at(x, t)
        total += g0 * tau_lo**s / (s * math.gamma(s))
    if tau_hi <= tau_lo:
        return total

    def integrand(tau, a, b):
        # bands with the same admissible region share one inner evaluation
        groups = {}
        for i, mid in enumerate(0.5 * (a + b)):
            ints = source.intervals(t - mid)
            groups.setdefault(None if ints is None else tuple(ints), []).append(i)
        inner = np.empty(tau.shape)
        for ints, rows in groups.items():
            inner[rows] = _inner(
                source.field, x, t, tau[rows], ints, quad, b[rows], params, deriv
            )
        return tau ** (s - 1.0) * inner

    breaks = [t - b for b in source.time_breakpoints()]
    # solution-kernel constant: the convolution inverts the operator exactly
    c2n = params.c_inv * 2.0**params.n
    return total + c2n * _graded_bands(integrand, tau_lo, tau_hi, breaks, quad.graded_nodes)


def kernel_convolve(
    source,
    pt: SpaceTimePoint,
    params: FracParams,
    quad: QuadratureSpec = QuadratureSpec(),
    deriv: Optional[tuple] = None,
    with_error: bool = True,
) -> tuple:
    """Evaluate int int g(y, eta) D^sigma K(x - y, t - eta) dy deta at pt.

    `source` is a RestrictedSource or a plain ScalarField (unrestricted).
    With deriv=None this is the kernel convolution itself; a multi-index
    deriv differentiates the kernel in closed form under the integral.
    Returns (value, error_estimate); the estimate comes from a node-count
    refinement plus the analytic head remainder.
    """
    if isinstance(source, ScalarField):
        source = RestrictedSource(source)
    if not with_error:
        return _convolve_once(source, pt, params, quad, deriv), math.nan
    return _refined(lambda spec: _convolve_once(source, pt, params, spec, deriv), quad)


# ---------------------------------------------------------------------------
# Increment-form integral for the operator itself
# ---------------------------------------------------------------------------


def _avg_increment(
    u: ScalarField,
    pt: SpaceTimePoint,
    tau: np.ndarray,
    u_at: float,
    params: FracParams,
    quad: QuadratureSpec,
    band_hi: np.ndarray,
) -> np.ndarray:
    """G(tau) = int e^{-w^2} [u(pt) - u(x - 2 sqrt(tau) w, t - tau)] dw."""
    interval = u.spatial_interval()
    ints = None if interval is None else [interval]
    inner = _inner(u, pt.x_array(), pt.t, tau, ints, quad, band_hi, params, None)
    return math.pi ** (params.n / 2.0) * u_at - inner


def increment_integral(
    u: ScalarField,
    pt: SpaceTimePoint,
    params: FracParams,
    quad: QuadratureSpec,
) -> tuple:
    """Backward space-time increment integral of the fractional heat operator.

    value = c 2^n int_0^inf tau^(-1-s) G(tau) dtau with G the Gaussian
    increment average.  Head below tau_min by two-level Richardson in the
    expansion G = c1 tau + c2 tau^2; tail above the working range handled
    analytically from the field's tail class.  Returns (value, error).
    """
    n, s = params.n, params.s
    c2n = params.c_ns * 2.0**n
    u_at = u.eval_at(pt)
    t = pt.t

    mu = None
    if u.tail == "exponential_symbol":
        lam, k = u.symbol_params
        mu = lam + float(np.dot(k, k))
        if mu == 0.0:
            return 0.0, 0.0

    tau_hi = quad.tau_max
    floor = u.time_floor
    if floor is not None and math.isfinite(floor):
        tau_hi = min(quad.tau_max, max(t - floor, 4.0 * quad.tau_min))

    breaks = [t - v for v in u.time_window() if math.isfinite(v)]

    def quad_pass(spec: QuadratureSpec) -> float:
        def G(tau, band_hi):
            return _avg_increment(u, pt, tau, u_at, params, spec, band_hi)

        lo = spec.tau_min
        # Richardson head from G(lo) and G(lo / 2)
        g1, g2 = G(np.array([[lo], [lo / 2]]), np.array([lo, lo]))[:, 0]
        head = _richardson_head(g1, g2, lo, 1.0, 2.0, -1.0 - s)
        bands = _graded_bands(
            lambda tau, a, b: tau ** (-1.0 - s) * G(tau, b),
            lo, tau_hi, breaks, spec.graded_nodes,
        )
        return c2n * (head + bands)

    # analytic tail beyond the working range
    tail_mass = tau_hi ** (-s) / (s * params.abs_gamma)
    tail = u_at * tail_mass
    tail_err = 0.0
    if quad.tail_mode == "bound_only":
        bound = u.bound if u.bound is not None else abs(u_at)
        tail_err = 2.0 * bound * tail_mass
    elif u.tail == "exponential_symbol":
        # G -> pi^{n/2} u(pt) up to e^{-mu tau} corrections
        tail_err = abs(u_at) * math.exp(-min(mu * tau_hi, 700.0)) * tail_mass
    elif floor is not None and math.isfinite(floor) and tau_hi >= t - floor:
        tail_err = 0.0  # exact: the field vanishes beyond the working range
    elif u.tail == "bounded":
        # no decay assumption available: freeze G at its tau_hi value
        g_hi = _avg_increment(
            u, pt, np.array([[tau_hi]]), u_at, params, quad, np.array([tau_hi])
        )[0, 0]
        tail = c2n * g_hi * tau_hi ** (-s) / s
        bound = u.bound if u.bound is not None else abs(u_at)
        tail_err = 2.0 * bound * tail_mass
    return _refined(quad_pass, quad, tail, tail_err)

