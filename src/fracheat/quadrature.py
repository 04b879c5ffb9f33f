"""Quadrature engine shared by the operator and synthesis routines.

All space-time integrals against the kernel have the same skeleton after
the substitution y = x - 2 sqrt(tau) w:

    int_0^inf  c 2^n tau^(s-1)  int  g(x - 2 sqrt(tau) w, t - tau) e^(-w^2) dw  dtau

The time integral runs over dyadic bands graded toward tau = 0, with band
edges aligned to every time at which the integrand's spatial restriction
changes shape, plus an analytic head below tau_min where the integrand is
a pure power.  `_graded_bands` is that band integrator for every kernel
quadrature of the package (this module, the operator routes and the kernel
mass), `_richardson_head` their fitted power-law head, `_refined` their
fine/coarse error estimate, and `_increment` the increment integral of the
operator and of its Marchaud reduction, with their one tail policy.
Symbol fields exp(lam t) cos(k.x) have one time range and one tail in both
routes: their Gaussian average at lag tau is pi^(n/2) f(x, t) e^(-mu tau),
mu = lam + |k|^2, so the numeric range ends at
TAU_MU / (|k|^2 + max(lam, 0)) (`_symbol_range`), where one Gauss-Hermite
order still resolves the oscillation of cos(k.x), or at TAU_MAX if that is
nearer, and the integral past the end is added in closed form (an
incomplete gamma function), for every mu > 0.  A convolution with mu <= 0
diverges and raises ValueError; a kernel derivative of an unrestricted
oscillating symbol source has no such tail and raises NotImplementedError.
`_refined` and the estimate-free convolution raise FloatingPointError on a
value or estimate that is not finite.  The inner integral (`_inner`) uses
Gauss-Hermite of the order spec.hermite_order when the admissible region
is unbounded and mapped Gauss-Legendre panels (with the Gaussian written
out explicitly) when the region is a union of intervals, so that indicator
boundaries are hit exactly instead of being smeared.  The Hermite rule
(`_inner_unbounded`) takes all bands together, one field call per block of
at most BLOCK points.

The panel rule (`_inner_intervals`) makes one field call per interval: the
panels of every node of every band are laid out in one array, and each
panel-count block is summed one node per row, so that a node's terms add
in the order of a sum over its (panel, Gauss node) axes.  A convolution
asks its source for the admissible region once per break segment, since
the region changes only at the source's time breakpoints, which are band
edges.  The band layout (`_band_layout`) is cached: consecutive
quadratures at one time share it.  Cached node tables and layouts are
read-only.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import gammaincc

from .core import FracParams, ScalarField, SpaceTimePoint, check_slowly_increasing
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
TAU_MU = 12.0  # symbol fields end at tau = TAU_MU / (|k|^2 + max(lam, 0))
TAU_MAX = 1e4  # every time range ends here at the latest
MAX_PANELS = 10  # spatial panels per window, at most
BLOCK = 2**16  # Gauss-Hermite points per field call, at most (one node at least)


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs for the kernel quadratures.

    tau_min bounds the numerically integrated time range from below
    (analytic head under it; the range ends at TAU_MAX at the latest).
    graded_nodes is the Gauss-Legendre order per dyadic band, hermite_order
    the Gauss-Hermite order of every unbounded spatial integral (symbol
    fields end their range where it resolves them), spatial_nodes the
    Gauss-Legendre order per mapped spatial panel.
    """

    tau_min: float = 1e-8
    graded_nodes: int = 16
    hermite_order: int = 40
    spatial_nodes: int = 16

    def __post_init__(self):
        # numpy scalars are stored as Python numbers, so that specs that are
        # equal have one signature
        for name in ("graded_nodes", "hermite_order", "spatial_nodes"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if isinstance(self.tau_min, bool) or not isinstance(self.tau_min, numbers.Real):
            raise TypeError(f"tau_min must be a real number, got {self.tau_min!r}")
        object.__setattr__(self, "tau_min", float(self.tau_min))
        if not 0 < self.tau_min < TAU_MAX:
            raise ValueError("need 0 < tau_min < TAU_MAX")
        if min(self.graded_nodes, self.hermite_order, self.spatial_nodes) < 2:
            raise ValueError("quadrature orders must be >= 2")

    def coarsened(self) -> "QuadratureSpec":
        return replace(
            self,
            graded_nodes=max(4, self.graded_nodes // 2),
            spatial_nodes=max(8, self.spatial_nodes - 4),
            hermite_order=max(16, self.hermite_order - 16),
        )

    def signature(self) -> dict:
        return asdict(self)


def _read_only(*arrays) -> tuple:
    """The arrays, made read-only: cached tables are shared by every caller."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@lru_cache(maxsize=128)
def gauss_legendre(order: int):
    return _read_only(*np.polynomial.legendre.leggauss(order))


@lru_cache(maxsize=64)
def gauss_hermite(order: int):
    return _read_only(*np.polynomial.hermite.hermgauss(order))


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


@lru_cache(maxsize=256)
def _band_layout(lo: float, hi: float, breaks: tuple) -> tuple:
    """Read-only band midpoints and half-widths of `_graded_bands`.

    Consecutive quadratures at one time share the layout: every convolution
    at one t, fine and coarse pass alike, has the same range and breaks.
    """
    edges = np.array(_band_edges(lo, hi, breaks))
    a, b = edges[:-1], edges[1:]
    return _read_only(0.5 * (a + b), 0.5 * (b - a))


def _graded_bands(integrand: Callable, lo: float, hi: float, breaks, nodes: int) -> float:
    """int_lo^hi integrand over dyadic bands graded toward lo.

    The bands double from lo and are split at every break inside (lo, hi);
    each gets the Gauss-Legendre rule of order nodes.  All bands are
    evaluated together: integrand(tau) gets the nodes tau, shape
    (bands, nodes), one band per row, and returns the integrand there,
    same shape.
    """
    mid, half = _band_layout(lo, hi, tuple(breaks))
    gl_x, gl_w = gauss_legendre(nodes)
    sums = np.sum(gl_w * integrand(mid[:, None] + half[:, None] * gl_x), axis=1)
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


def _finite(value: float, err: float = 0.0) -> tuple:
    """(value, err), or FloatingPointError if either is not finite."""
    if not (math.isfinite(value) and math.isfinite(err)):
        raise FloatingPointError(f"quadrature gave value {value}, error {err}: not finite")
    return value, err


def _refined(
    one_pass: Callable, quad: QuadratureSpec, tail: float = 0.0, tail_err: float = 0.0,
    scale: float = 1.0, floor: tuple = (1e-13, 1e-16),
) -> tuple:
    """(value, err) of scale * (one_pass + tail) from a fine pass at quad and a
    coarse pass at quad.coarsened(); err is their difference plus tail_err,
    scaled, plus the floor (relative, absolute).  Raises FloatingPointError
    if the value or err is not finite."""
    fine = one_pass(quad)
    coarse = one_pass(quad.coarsened())
    value = scale * (fine + tail)
    rel, absolute = floor
    return _finite(value, scale * (abs(fine - coarse) + tail_err) + rel * abs(value) + absolute)


def _symbol_mu(field: ScalarField) -> Optional[float]:
    """mu = lam + |k|^2 of a symbol field exp(lam t) cos(k.x); None for any
    other field."""
    if field.tail != "exponential_symbol":
        return None
    lam, k = field.symbol_params
    return lam + float(np.dot(k, k))


def _symbol_range(field: ScalarField, tau_hi: float, breaks: Sequence[float]) -> float:
    """The end of a time range ending at tau_hi, cut at
    TAU_MU / (|k|^2 + max(lam, 0)) for a symbol field with
    mu = lam + |k|^2 > 0.

    At lag tau the inner integrand of exp(lam t) cos(k.x) oscillates at
    rate 2 |k| sqrt(tau) in w: up to the cut that rate squared is at most
    4 TAU_MU = 48, where 40 Gauss-Hermite nodes are exact to round-off and
    24 (the coarse pass) to about 2e-7, and for lam < 0 the values grow by
    less than e^TAU_MU.  Past the cut both routes add the integral in closed
    form, since the Gaussian average there is pi^(n/2) f(x, t) e^(-mu tau).
    The cut stays past every break, beyond which a restricted symbol source
    is the symbol field itself.
    """
    mu = _symbol_mu(field)
    if mu is None or mu <= 0.0:
        return tau_hi
    lam, k = field.symbol_params
    return min(tau_hi, max([TAU_MU / (float(np.dot(k, k)) + max(lam, 0.0)), *breaks]))


# _PANEL_EDGES[p, k]: edge k of a window cut into p panels, as np.linspace
# places it (k / p to the last bit, and the last edge exactly 1)
_PANEL_EDGES = np.array([
    np.pad(np.linspace(0.0, 1.0, p + 1), (0, MAX_PANELS - p)) for p in range(MAX_PANELS + 1)
])
_PANEL_EDGES.flags.writeable = False


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
    as its widest window needs.  Per interval, the panels of every node are
    laid out in one array, the nodes stably ordered by panel count, for one
    field evaluation; each panel-count block is then summed one node per
    row.  Returns the integral at every node.
    """
    sq = 2.0 * np.sqrt(tau)
    inner = np.zeros(tau.size)
    n_nodes = tau.shape[1]
    gl_x, gl_w = gauss_legendre(spatial_nodes)
    for lo, hi in ints:
        y_lo = np.maximum(lo, x - W_MAX * sq)
        y_hi = np.minimum(hi, x + W_MAX * sq)
        y_hi = np.maximum(y_hi, y_lo)
        w_lo = (x - y_hi) / sq
        w_hi = (x - y_lo) / sq
        max_len = np.max(w_hi - w_lo, axis=1)
        panels = np.where(max_len > 0, np.clip(np.ceil(max_len / 2.0), 1, MAX_PANELS), 0)
        panels = panels.astype(int)
        bands = np.argsort(panels, kind="stable")
        bands = bands[panels[bands] > 0]
        if not len(bands):
            continue
        # the nodes of those bands, and one row per panel: its node, its
        # panel count and its index among the node's panels
        node = (bands[:, None] * n_nodes + np.arange(n_nodes)).ravel()
        p_node = np.repeat(panels[bands], n_nodes)
        row_node = np.repeat(node, p_node)
        p_row = np.repeat(p_node, p_node)
        k_row = np.arange(len(row_node)) - np.repeat(np.cumsum(p_node) - p_node, p_node)
        r_tau, r_sq = tau.ravel()[row_node], sq.ravel()[row_node]
        r_lo = w_lo.ravel()[row_node]
        span = w_hi.ravel()[row_node] - r_lo
        e_lo = r_lo + span * _PANEL_EDGES[p_row, k_row]
        e_hi = r_lo + span * _PANEL_EDGES[p_row, k_row + 1]
        mids, halfs = 0.5 * (e_hi + e_lo), 0.5 * (e_hi - e_lo)
        w = mids[:, None] + halfs[:, None] * gl_x
        y = x - r_sq[:, None] * w
        eta = np.repeat(t - r_tau, spatial_nodes)
        vals = field_eval(y.reshape(-1, 1), eta).reshape(y.shape)
        integ = vals * np.exp(-(w * w))
        if deriv is not None:
            tau2 = np.broadcast_to(r_tau[:, None], y.shape)
            integ *= _factor_eval(params, deriv, (r_sq[:, None] * w)[..., None], tau2)
        integ *= halfs[:, None] * gl_w
        # a block's row sum adds in the order of a sum over (panel, node) axes
        sums = np.empty(len(node))
        start = row = 0
        bands_with = np.bincount(panels[bands])
        for p in np.flatnonzero(bands_with):
            m = bands_with[p] * n_nodes
            block = integ[row : row + p * m].reshape(m, p * spatial_nodes)
            sums[start : start + m] = np.sum(block, axis=1)
            start, row = start + m, row + p * m
        inner[node] += sums
    return inner.reshape(tau.shape)


@lru_cache(maxsize=64)
def _hermite_grid(order: int, n: int):
    """Tensor Gauss-Hermite nodes, shape (order^n, n), and their weights."""
    gx, gw = gauss_hermite(order)
    wpts = np.stack([g.ravel() for g in np.meshgrid(*[gx] * n, indexing="ij")], axis=-1)
    wq = np.prod(np.meshgrid(*[gw] * n, indexing="ij"), axis=0).ravel()
    return _read_only(wpts, wq)


def _inner_unbounded(
    field_eval: Callable,
    x: np.ndarray,
    t: float,
    tau: np.ndarray,
    order: int,
    params: FracParams,
    deriv: Optional[tuple],
) -> np.ndarray:
    """Tensor Gauss-Hermite inner integral for unrestricted regions, n <= 2.

    Every node of tau (any shape) gets the rule of one order; the nodes go
    to the field in chunks of at most BLOCK points (one node at least), and
    each node's terms are summed in one row.  Returns tau's shape.
    """
    n = params.n
    if n > 2:
        raise NotImplementedError("unbounded inner integral implemented for n <= 2")
    wpts, wq = _hermite_grid(order, n)
    q = len(wq)
    flat = tau.ravel()
    inner = np.empty(flat.size)
    step = max(1, BLOCK // q)
    for start in range(0, flat.size, step):
        tc = flat[start : start + step]
        sq = 2.0 * np.sqrt(tc)
        dy = np.empty((len(tc), q, n))
        y = np.empty((len(tc) * q, n))
        for j in range(n):
            dy[:, :, j] = sq[:, None] * wpts[:, j]
            y[:, j] = (x[j] - dy[:, :, j]).ravel()
        vals = field_eval(y, np.repeat(t - tc, q)).reshape(len(tc), q)
        if deriv is not None:
            vals = vals * _factor_eval(params, deriv, dy, np.repeat(tc, q).reshape(-1, q))
        inner[start : start + len(tc)] = np.sum(vals * wq, axis=1)
    return inner.reshape(tau.shape)


def _inner(
    field: ScalarField,
    x: np.ndarray,
    t: float,
    tau: np.ndarray,
    ints,
    spec: QuadratureSpec,
    params: FracParams,
    deriv: Optional[tuple],
) -> np.ndarray:
    """int e^{-w^2} g(x - 2 sqrt(tau) w, t - tau) [phi] dw at the tau nodes.

    tau holds the nodes of one band per row.  ints is the admissible region
    of the bands (None: unbounded, []: empty).  Bounded regions, and
    unbounded ones for n = 1 fields that do not oscillate, use windowed
    Gauss-Legendre panels; the rest Gauss-Hermite of order
    spec.hermite_order.  A symbol field's range ends where that order
    resolves its oscillation (`_symbol_range`).
    """
    if ints is None and params.n == 1 and field.tail != "exponential_symbol":
        # windowed panels beat Gauss-Hermite on generic smooth fields
        ints = [(-math.inf, math.inf)]
    if ints is None:
        return _inner_unbounded(field.eval, x, t, tau, spec.hermite_order, params, deriv)
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
    """c 2^n int_0^inf tau^(s-1) int e^(-w^2) g(x - 2 sqrt(tau) w, t - tau)
    [phi] dw dtau, one pass at quad.

    The range ends at the source's time window, at TAU_MAX if that is
    nearer, and for a symbol source (deriv None) at `_symbol_range`'s cut.
    Below tau_min (deriv None) an analytic head takes the inner integral at
    its limit pi^(n/2) g(x, t).  A symbol source exp(lam t) cos(k.x)
    (deriv None) that reaches past the range's end tau_hi is there the
    unrestricted field f (the cut lies past every break short of TAU_MAX),
    whose Gaussian average is pi^(n/2) f(x, t) e^(-mu tau),
    mu = lam + |k|^2: its tail is mu^(-s) f(x, t) Q(s, mu tau_hi), with Q
    the regularized upper incomplete gamma function.  With mu <= 0 that
    tail diverges, and a source reaching past TAU_MAX raises ValueError.
    """
    x = pt.x_array()
    t = pt.t
    s = params.s
    win_lo, win_hi = source.time_window()
    if t <= win_lo:
        return 0.0
    tau_lo = quad.tau_min
    if win_hi < t:
        tau_lo = max(tau_lo, t - win_hi)
    tau_hi = min(TAU_MAX, t - win_lo)
    breaks = [t - b for b in source.time_breakpoints()]
    mu = _symbol_mu(source.field) if deriv is None else None
    total = 0.0
    if mu is not None:
        if mu <= 0.0 and t - win_lo > TAU_MAX:
            raise ValueError(f"the convolution of {source.field.name} diverges:"
                             f" lam + |k|^2 = {mu} <= 0")
        tau_hi = _symbol_range(source.field, tau_hi, breaks)
        if t - win_lo > tau_hi:
            total += source.field.eval_at(pt) * mu ** (-s) * float(gammaincc(s, mu * tau_hi))
    if deriv is None and tau_lo == quad.tau_min:
        # analytic head: the inner integral tends to pi^{n/2} g(x, t)
        g0 = source.value_at(x, t)
        total += g0 * tau_lo**s / (s * math.gamma(s))
    if tau_hi <= tau_lo:
        return total

    cuts = np.sort(breaks)

    def integrand(tau):
        # the admissible region changes only at the breaks, which are band
        # edges: one region per break segment, found from each band's first
        # node, and one inner evaluation for the bands of each distinct region
        first = tau[:, 0]
        segment = np.searchsorted(cuts, first)
        groups = {}
        for seg in dict.fromkeys(segment.tolist()):
            rows = np.flatnonzero(segment == seg)
            ints = source.intervals(t - first[rows[0]])
            groups.setdefault(None if ints is None else tuple(ints), []).extend(rows)
        inner = np.empty(tau.shape)
        for ints, rows in groups.items():
            inner[rows] = _inner(source.field, x, t, tau[rows], ints, quad, params, deriv)
        return tau ** (s - 1.0) * inner

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
    refinement, and a symbol source's tail past the time range is closed
    form (`_convolve_once`).  With with_error=False the estimate is NaN.
    Raises FloatingPointError when the value (or the estimate) is not
    finite, ValueError when the convolution of a symbol source diverges,
    and NotImplementedError for a kernel derivative of an unrestricted
    symbol source with k != 0 (no closed-form tail ends its range).
    """
    if isinstance(source, ScalarField):
        source = RestrictedSource(source)
    field = source.field
    if (deriv is not None and not source.constraints and field.tail == "exponential_symbol"
            and any(field.symbol_params[1])):
        raise NotImplementedError("kernel derivative of an unrestricted oscillating symbol"
                                  " source")
    if not with_error:
        value, _ = _finite(_convolve_once(source, pt, params, quad, deriv))
        return value, math.nan
    return _refined(lambda spec: _convolve_once(source, pt, params, spec, deriv), quad)


# ---------------------------------------------------------------------------
# Increment integral of the operator and of its Marchaud reduction
# ---------------------------------------------------------------------------


def _increment(
    u: ScalarField, t: float, s: float, u_at: float, G: Callable, unit: float,
    scale: float, quad: QuadratureSpec,
) -> tuple:
    """(value, err) of scale * int_0^inf tau^(-1-s) G(tau) dtau.

    G(tau, spec) = unit * u_at - (directional average of u at t - tau) on
    the nodes of one band per row.  The working range ends at the field's
    time floor, or at TAU_MAX if that is nearer, and for a symbol field at
    `_symbol_range`'s cut TAU_MU / (|k|^2 + lam); below tau_min a
    Richardson head fits G = c1 tau + c2 tau^2.  G cancels near tau_min,
    so the error takes in one ulp of unit u_at there, magnified by the
    weight and by the head's fit coefficients 5 and 6.  The tail
    beyond tau_hi, with mass = tau_hi^(-s) / s: for a symbol field, whose
    G is unit u_at (1 - e^(-mu tau)), the closed form
    unit u_at (tau_hi^(-s) (1 - e^(-mu tau_hi)) + mu^s Gamma(1-s)
    Q(1-s, mu tau_hi)) / s, with Q the regularized upper incomplete gamma
    function (mu = 0: the integral is exactly 0); for a floor inside the
    working range unit u_at mass, exactly; for any other field G frozen at
    tau_hi, with the worst case 2 unit bound mass as its error.
    """
    if not check_slowly_increasing(u):
        raise ValueError("field grows too fast backward in time for the history"
                         " integral")
    mu = _symbol_mu(u)
    if mu == 0.0:
        return 0.0, 0.0
    floor = u.time_floor
    tau_hi = TAU_MAX
    if floor is not None and math.isfinite(floor):
        tau_hi = min(TAU_MAX, max(t - floor, 4.0 * quad.tau_min))
    breaks = [t - v for v in u.time_window() if math.isfinite(v)]
    tau_hi = _symbol_range(u, tau_hi, breaks)

    def one_pass(spec: QuadratureSpec) -> float:
        lo = spec.tau_min
        g1, g2 = G(np.array([[lo], [lo / 2]]), spec)[:, 0]
        head = _richardson_head(g1, g2, lo, 1.0, 2.0, -1.0 - s)
        return head + _graded_bands(
            lambda tau: tau ** (-1.0 - s) * G(tau, spec), lo, tau_hi, breaks, spec.graded_nodes
        )

    mass = tau_hi ** (-s) / s
    tail, tail_err = unit * u_at * mass, 0.0  # exact if u vanishes past tau_hi
    roundoff = float(np.finfo(float).eps) * unit * abs(u_at) * quad.tau_min ** (-s) * (
        1.0 / s + 5.0 / (1.0 - s) + 6.0 / (2.0 - s))
    if mu is not None:
        z = mu * tau_hi
        upper = mu**s * math.gamma(1.0 - s) * float(gammaincc(1.0 - s, z))
        tail = unit * u_at * (-math.expm1(-z) * tau_hi ** (-s) + upper) / s
    elif floor is None or tau_hi < t - floor:
        # no decay assumption available: freeze G at its tau_hi value
        tail = G(np.array([[tau_hi]]), quad)[0, 0] * mass
        bound = u.bound if u.bound is not None else abs(u_at)
        tail_err = 2.0 * unit * bound * mass
    return _refined(one_pass, quad, tail, tail_err + roundoff, scale)


def increment_integral(
    u: ScalarField,
    pt: SpaceTimePoint,
    params: FracParams,
    quad: QuadratureSpec,
) -> tuple:
    """Backward space-time increment integral of the fractional heat operator.

    value = c 2^n int_0^inf tau^(-1-s) G(tau) dtau with G the Gaussian
    increment average int e^{-w^2} [u(pt) - u(x - 2 sqrt(tau) w, t - tau)] dw,
    by `_increment`.  Returns (value, error).
    """
    interval = u.spatial_interval()
    ints = None if interval is None else [interval]
    unit = math.pi ** (params.n / 2.0)
    u_at = u.eval_at(pt)

    def G(tau, spec):
        inner = _inner(u, pt.x_array(), pt.t, tau, ints, spec, params, None)
        return unit * u_at - inner

    scale = params.c_ns * 2.0**params.n
    return _increment(u, pt.t, params.s, u_at, G, unit, scale, quad)
