"""Quadrature engine shared by the operator and synthesis routines.

All space-time integrals against the kernel have the same skeleton after
the substitution y = x - 2 sqrt(tau) w:

    int_0^inf  tau^(s-1)  int  g(x - 2 sqrt(tau) w, t - tau) e^(-w^2) dw  dtau
           / (pi^(n/2) Gamma(s))

The time integral runs over dyadic bands graded toward tau = 0, with band
edges aligned to every time at which the integrand's spatial restriction
changes shape.  Below them one Gauss-Jacobi bottom band takes [0, top]:
the Gaussian average of a smooth source is smooth in tau near 0, so
Gauss-Jacobi with the weight tau^(s-1) (the convolution) or tau^(-s) (the
operator, on G / tau) integrates it spectrally (Golub-Welsch, Math. Comp.
23, 1969).  Its graded_nodes nodes are one more row of the bands' nodes,
its coarse pass halves them like the bands', and top (`_band_top`) stays
below TAU_BAND, the first break, the lag since a declared singular time and
the lag where the Gaussian window reaches an edge of the region or a
declared singular point.  Where the window at tau_min is not clear of a
declared point, the increment integral counts the band's whole value as
error (`_band_error`), and the convolution keeps an analytic head.  A kernel
derivative in time keeps no bottom.  `_graded_bands` is the band integrator
for every kernel quadrature of the package (this module, the operator routes
and the kernel mass), on nodes that consecutive quadratures at one time share
(`_band_layout`, cached), `_refined` their fine/coarse error estimate, and
`_increment` the increment integral of the operator and of its Marchaud
reduction, with their one tail policy and one bottom-band error.
`_SourceAt` reads a source's time geometry at t once, with the one
time-range rule of both routes: the range ends where the time window ends,
at TAU_MAX, or at the symbol cut, whichever is nearest.
Symbol fields exp(lam t) cos(k.x) have one time range and one tail in both
routes: their Gaussian average at lag tau is pi^(n/2) f(x, t) e^(-mu tau),
mu = lam + |k|^2, so the numeric range ends at
TAU_MU / (|k|^2 + max(lam, 0)) (`_symbol_range`), where one Gauss-Hermite
order still resolves the oscillation of cos(k.x), or at TAU_MAX if that is
nearer, and the integral past the end is added in closed form (an
incomplete gamma function, `_gammaincc`, in pure Python), for every mu > 0.
A convolution with mu <= 0 diverges and raises ValueError, and so does that
of any other source with no time floor within TAU_MAX; a kernel derivative
of an unrestricted oscillating symbol source has no such tail and raises
NotImplementedError.
`_refined` and the estimate-free convolution raise FloatingPointError on a
value or estimate that is not finite.

The convolution integrates tau^(s-1) A(tau) / (pi^(n/2) Gamma(s)) and the
operator tau^(-1-s) (pi^(n/2) u(x, t) - A(tau)) / (pi^(n/2) |Gamma(-s)|),
with one Gaussian average
A(tau) = int e^(-w^2) g(x - 2 sqrt(tau) w, t - tau) dw (`_average`).
`RestrictedSource.intervals` alone decides where A is taken and how:
Gauss-Hermite of order spec.hermite_order (None) on a region without an
edge, or mapped Gauss-Legendre panels with the Gaussian written out on a
union of intervals, so that indicator boundaries are hit exactly; an empty
region never reaches the field.  The region is asked once per break
segment (`_SourceAt.region`): it changes only at the source's time
breakpoints, which are band edges.

Both inner rules are rows for one evaluator (`_row_average`): a row is a
node of tau with a fixed number of points w and weights, at the node's
2 sqrt(tau).  Gauss-Hermite gives one row per node (`_hermite_rows`), the
panel rule one row per live panel (`_panel_rows`, enumerated from each
node's count of live panels).  One Gaussian cut governs both rules: a panel
that lies wholly past +-W_CUT, where e^(-w^2) <= 2^-64, makes no row, and a
Gauss-Hermite row keeps only the nodes w with |w| < W_CUT.  The evaluator
takes all bands of a call together, hands the field BLOCK // width rows at
once (one row at least), sums each row on its own and then adds each
node's rows in row order, so that block edges never change a result.
Cached node tables and layouts are read-only.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .core import FracParams, ScalarField, SpaceTimePoint, abs_gamma_neg, check_slowly_increasing
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
W_CUT = math.sqrt(64.0 * math.log(2.0))  # exp(-W_CUT^2) = 2^-64: panels, nodes past it skipped
TAU_MU = 12.0  # symbol fields end at tau = TAU_MU / (|k|^2 + max(lam, 0))
TAU_BAND = 1e-3  # the Gauss-Jacobi bottom band ends at this lag at the latest
TAU_MAX = 1e4  # every time range ends here at the latest
BLOCK = 2**13  # points per field call of the inner rules, at most (one row at least)

# glibc's malloc maps each block of 128 KiB or more on its own and gives the
# top of its heap back to the system once 128 KiB lie free there, so the
# inner rules' temporaries, a few BLOCKs at a time, would be faulted in anew
# on every call (a round-trip result took 95,000 minor page faults and 27 %
# longer).  Freeing one mapped block raises both thresholds for the rest
# of the process, to its size and twice that (the dynamic mmap threshold of
# mallopt(3)); this 4 MiB array is allocated and freed at once.  Other
# allocators ignore it.
np.empty(2**19)


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs for the kernel quadratures.

    tau_min is the lag from which the dyadic bands are graded: below it
    (and up to top = tau_min 2^m <= TAU_BAND) a Gauss-Jacobi bottom band of
    graded_nodes nodes takes the integral (the convolution: an analytic head
    at a declared point that the Gaussian window at tau_min does not clear,
    `_band_top`); the range ends at TAU_MAX at the latest.  graded_nodes is
    the Gauss-Legendre order per dyadic band, hermite_order the Gauss-Hermite
    order of every unbounded spatial integral (symbol fields end their range
    where it resolves them), spatial_nodes the Gauss-Legendre order per
    mapped spatial panel.
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


@lru_cache(maxsize=64)
def gauss_jacobi(order: int, beta: float):
    """Nodes u and weights of the Gauss rule for int_0^1 u^beta p(u) du,
    beta > -1, exact for polynomials p of degree <= 2 order - 1.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    polynomials P^(0, beta) on [-1, 1] (weight (1 + x)^beta), mapped to
    u = (1 + x) / 2, and the weights the squared first components of its
    eigenvectors times the weight's mass 1 / (beta + 1) on [0, 1].
    """
    k = np.arange(1.0, order)
    sk = 2.0 * k + beta
    # the general diagonal beta^2 / (sk (sk + 2)) is 0/0 at k = 0, beta = 0
    diag = np.concatenate([[beta / (beta + 2.0)], beta**2 / (sk * (sk + 2.0))])
    off = 2.0 * k * (k + beta) / (sk * np.sqrt((sk + 1.0) * (sk - 1.0)))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return _read_only(0.5 * (1.0 + x), vec[0] ** 2 / (beta + 1.0))


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

    def intervals(self, eta: float):
        """The admissible spatial region at time eta, and with it the inner
        rule: intervals for windowed panels ([] where the source vanishes),
        or None for Gauss-Hermite.  An unconstrained field with no bounding
        interval has a region without an edge: None at every eta, whatever
        its n or tail.  Any other source is its interval (or the line)
        inside its time window, cut by the constraints active at eta."""
        base = self.field.spatial_interval()
        if base is None and not self.constraints:
            return None
        lo, hi = self.field.time_window()
        if not lo < eta < hi:
            return []
        ints = [base] if base is not None else [(-math.inf, math.inf)]
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


@lru_cache(maxsize=64)
def _band_layout(lo: float, hi: float, breaks: tuple, nodes: int) -> tuple:
    """Read-only nodes tau of `_graded_bands`, one band per row, and the
    bands' half-widths, shared by every quadrature at one t, top and order.
    The bottom band's row is not stacked here: its power follows s, which
    independent queries draw afresh, so each would miss."""
    edges = np.array(_band_edges(lo, hi, breaks))
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    gl_x, _ = gauss_legendre(nodes)
    return _read_only(0.5 * (a + b)[:, None] + half[:, None] * gl_x, half)


def _graded_bands(
    integrand: Callable, lo: float, hi: float, breaks, nodes: int,
    bottom: Optional[tuple] = None,
) -> float:
    """int_lo^hi integrand over dyadic bands graded toward lo, plus
    int_0^lo by the bottom band if one is given.

    The bands double from lo and are split at every break inside (lo, hi);
    each gets the Gauss-Legendre rule of order nodes.  bottom is a rule
    (tau, weights) of `nodes` nodes on [0, lo] (`_bottom_band`), taken as one
    more row in front of the bands.  All rows are evaluated together:
    integrand(tau) gets the nodes tau, shape (rows, nodes), and returns the
    integrand there, same shape.
    """
    tau, half = _band_layout(lo, hi, tuple(breaks), nodes)
    _, gl_w = gauss_legendre(nodes)
    total = 0.0
    if bottom is None:
        vals = integrand(tau)
    else:
        vals = integrand(np.concatenate((bottom[0][None], tau)))
        total, vals = float((bottom[1] * vals[0]).sum()), vals[1:]
    # Python floats: the same products and sums as numpy scalars, without their overhead
    for h, v in zip(half.tolist(), (gl_w * vals).sum(axis=1).tolist()):
        total += h * v
    return total


@lru_cache(maxsize=256)
def _bottom_band(top: float, beta: float, order: int) -> tuple:
    """Read-only nodes tau and weights of int_0^top f(tau) dtau for
    f = tau^beta h with h smooth: Gauss-Jacobi of that weight
    (`gauss_jacobi`), its weights divided by tau^beta, since f comes with
    the power in it."""
    u, w = gauss_jacobi(order, beta)
    return _read_only(top * u, top * w * u ** (-beta))


def _band_top(at: _SourceAt, x: Optional[np.ndarray], tau_min: float, tau_hi: float) -> tuple:
    """(top, cusp): the top of the bottom band [0, top] of a source seen
    from t (`_SourceAt`) at x, and whether a declared singular point lies
    within the Gaussian window's reach at tau_min.

    top is the largest tau_min 2^m (m >= 0) that is at most TAU_BAND, the
    range's end tau_hi, the first positive break lag and the lag where the
    Gaussian window x +- 2 W_MAX sqrt(tau) reaches a kink: (d / (2 W_MAX))^2
    for each edge of the source's region at a distance d > 0 from x and
    each declared ("space", x0) at a distance d >= 0, and t - t0 for each
    declared ("time", t0) with t0 <= t.  Below it the Gaussian average is
    smooth in tau.  The graded bands above top keep the edges of bands
    graded from tau_min.  Where TAU_BAND or a kink comes nearer than
    tau_min, top is tau_min; x None (a point value, no window) skips the
    edges and the space points.  Where tau_hi or a break comes nearer, top
    is that lag: no band crosses a break.  cusp flags a declared point
    nearer than tau_min, where the average is not smooth in tau on [0, top];
    an edge that near flags nothing.
    """
    t = at.t
    reach = min([tau_hi, *(b for b in at.breaks if b > 0.0)])
    edge = point = math.inf
    for kind, where in at.source.field.singular_points:
        if kind == "time" and where <= t:
            point = min(point, t - where)
        elif kind == "space" and x is not None:
            point = min(point, (math.dist(x, where) / (2.0 * W_MAX)) ** 2)
    cusp = point < tau_min
    if reach <= tau_min:
        return reach, cusp
    ints = at.region(0.5 * tau_min) if x is not None else None
    for end in (v for iv in ints or () for v in iv):
        d = abs(end - x[0])
        if 0.0 < d < math.inf:
            edge = min(edge, (d / (2.0 * W_MAX)) ** 2)
    bound = min(reach, TAU_BAND, edge, point)
    top = tau_min
    while 2.0 * top <= bound:
        top *= 2.0
    return top, cusp


def _band_error(band: tuple, top: float, p: float, size: float, values=None) -> float:
    """The error of a bottom band (tau, w) on [0, top] of an increment
    integral int tau^(-1-p) G(tau) dtau whose G cancels near lag 0.

    Round-off: 4 ulps of size (G's scale) weighted by tau^(-1-p) as the rules
    weight it, 4 eps size (sum_j w_j tau_j^(-1-p) + top^(-p) / p), since the
    field values, inner weights and sum each round and their errors can share
    a sign (up to 2.7 ulps of the integral on symbol fields).  values, G at
    the nodes where a kink lies within the band's reach and the band does not
    fit G, add the band's whole value |sum_j w_j tau_j^(-1-p) G(tau_j)|.
    """
    tau, w = band
    weight = w * tau ** (-1.0 - p)
    err = 4.0 * float(np.finfo(float).eps) * size * (float(np.sum(weight)) + top ** (-p) / p)
    if values is not None:
        err += abs(float(np.sum(weight * values)))
    return err


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
    if field.symbol_params is None:
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


_EPS = 2.0**-53  # unit round-off: each series stops once its terms fall below it
_MAX_TERMS = 2000  # a cap on every series, so that a NaN argument cannot loop forever
_EULER = 0.5772156649015329  # the Euler-Mascheroni constant
_ZETA = (  # zeta(k) for k = 2, ..., 52: the Taylor coefficients of ln Gamma(1 + a)
    1.6449340668482264, 1.2020569031595942, 1.0823232337111381, 1.03692775514337,
    1.0173430619844492, 1.008349277381923, 1.0040773561979444, 1.0020083928260821,
    1.000994575127818, 1.0004941886041194, 1.000246086553308, 1.0001227133475785,
    1.0000612481350588, 1.000030588236307, 1.0000152822594086, 1.0000076371976379,
    1.000003817293265, 1.0000019082127165, 1.0000009539620338, 1.0000004769329869,
    1.0000002384505027, 1.000000119219926, 1.000000059608189, 1.0000000298035034,
    1.0000000149015549, 1.0000000074507118, 1.000000003725334, 1.0000000018626598,
    1.0000000009313275, 1.0000000004656628, 1.000000000232831, 1.0000000001164155,
    1.0000000000582077, 1.0000000000291038, 1.000000000014552, 1.000000000007276,
    1.000000000003638, 1.000000000001819, 1.0000000000009095, 1.0000000000004547,
    1.0000000000002274, 1.0000000000001137, 1.0000000000000568, 1.0000000000000284,
    1.0000000000000142, 1.000000000000007, 1.0000000000000036, 1.0000000000000018,
    1.0000000000000009, 1.0000000000000004, 1.0000000000000002,
)


def _lgamma1p(a: float) -> float:
    """ln Gamma(1 + a) for 0 < a < 1, to a few ulps of its value.

    math.lgamma(1 + a) is off by up to 8e-16 in absolute terms, a large
    share of ln Gamma(1 + a) ~ -0.58 a at small a (3.7e-13 relative at
    a = 1e-3); so for a <= 1/2 the Taylor series
    -gamma a + sum_k (-a)^k zeta(k) / k takes it, as scipy's lgam1p does
    (at a = 1/2 its terms fall below the round-off by k = 51).
    """
    if a > 0.5:
        return math.lgamma(1.0 + a)
    total, power = -_EULER * a, -a
    for k, zeta in enumerate(_ZETA, 2):
        power *= -a
        term = zeta * power / k
        total += term
        if abs(term) <= _EPS * abs(total):
            break
    return total


def _gammaincc(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x) / Gamma(a), the regularized upper incomplete
    gamma function, for 0 < a < 1 and x >= 0.

    The regions are those of scipy's gammaincc (Cephes igamc; DLMF 8.7 and
    8.9, Gautschi, ACM TOMS 5, 1979).  For x <= 1.1: 1 - P, with P's power
    series x^a e^(-x) / Gamma(a + 1) sum_j x^j / ((a + 1) ... (a + j)), where
    x is small against a (x <= 0.5 and a > -0.4 / ln x, or 1.1 x < a);
    elsewhere Q's series (DLMF 8.7.3), whose leading term
    1 - x^a / Gamma(1 + a) goes through -expm1 and `_lgamma1p`, since Q is
    about a E1(x) for small a.  For x > 1.1 (where scipy takes 1 - P if
    x < a, which a < 1 rules out): the continued fraction of Gamma(a, x)
    (DLMF 8.9.2, contracted) by Lentz's method, times e^(-x)
    apart from x^a / Gamma(a), so that the exponent does not round at the
    scale of x; past x ~ 745 that underflows to 0 without a warning.
    Within 1e-14 of the exact value for a in [0.01, 0.99], x up to 1e5,
    where scipy's own value is off by up to about 1e-13.
    """
    if x == 0.0:
        return 1.0
    log_x = math.log(x)
    if x <= 1.1:
        if a > (-0.4 / log_x if x <= 0.5 else 1.1 * x):
            term = total = 1.0
            for j in range(1, _MAX_TERMS):
                term *= x / (a + j)
                total += term
                if term <= _EPS * total:
                    break
            return 1.0 - total * math.exp(a * log_x - x - math.lgamma(a)) / a
        factor, total = 1.0, 0.0
        for j in range(1, _MAX_TERMS):
            factor *= -x / j
            term = factor / (a + j)
            total += term
            if abs(term) <= _EPS * abs(total):
                break
        return (-math.expm1(a * log_x - _lgamma1p(a))
                - math.exp(a * log_x - math.lgamma(a)) * total)
    # Lentz's c and 1 / d are at least x + 1 + j at step j (by induction,
    # from x + 1 - a > 1), so neither needs the method's guard against zero
    b = x + 1.0 - a
    c = math.inf
    d = 1.0 / b
    fraction = d
    for j in range(1, _MAX_TERMS):
        an = -j * (j - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        fraction *= d * c
        if abs(d * c - 1.0) <= _EPS:
            break
    return math.exp(-x) * math.exp(a * log_x - math.lgamma(a)) * fraction


class _SourceAt:
    """A source seen from time t by lag tau, each fact read once: its time
    range (start to end), its break lags (the field window's finite ends and
    every cylinder's, sorted) and its region (`region`).

    The time window is the field's, cut by every cylinder the source is kept
    inside.  The source vanishes below the lag start (t - the end of that
    window) and past t - its start; the range ends there, at TAU_MAX if that
    is nearer, and for a symbol source at `_symbol_range`'s cut.  mu is that
    of `_symbol_mu`, and reaches says whether the source goes on past the
    end.  With symbol False (a kernel derivative, which has no closed-form
    symbol tail) the symbol is not read: mu is None and the range uncut.
    """

    def __init__(self, source: RestrictedSource, t: float, symbol: bool = True):
        lo, hi = source.field.time_window()
        points = [v for v in (lo, hi) if math.isfinite(v)]
        for cyl, inside in source.constraints:
            points += [cyl.t_lo, cyl.t_hi]
            if inside:
                lo, hi = max(lo, cyl.t_lo), min(hi, cyl.t_hi)
        self.source, self.t, self.start, self.end = source, t, t - hi, min(TAU_MAX, t - lo)
        self.breaks = tuple(sorted(t - b for b in points))
        self.mu = _symbol_mu(source.field) if symbol else None
        self.end = _symbol_range(source.field, self.end, self.breaks) if symbol else self.end
        self.reaches = t - lo > self.end
        self._regions = {}

    def region(self, lag: float):
        """source.intervals(t - lag), asked once per segment between the
        break lags, since the region changes only at a breakpoint."""
        seg = bisect.bisect_left(self.breaks, lag)
        if seg not in self._regions:
            self._regions[seg] = self.source.intervals(self.t - lag)
        return self._regions[seg]


def _row_average(
    field_eval: Callable,
    x: np.ndarray,
    t: float,
    tau: np.ndarray,
    root: np.ndarray,
    rows: tuple,
    params: FracParams,
    deriv: Optional[tuple],
) -> np.ndarray:
    """sum_j wt[r, j] g(x - root w[r, j], t - tau) [phi] over the rows
    (node, width, points) of an inner rule, added up per node of tau, with
    root = 2 sqrt(tau) at each node.

    Row r is `width` points at the lag tau.flat[node[r]].  points(rows),
    for a slice of rows, gives their points w, each row's flattened with
    the coordinates last, shape (rows, width * n), and their weights wt,
    shape (rows, width), or one pair of shapes (width * n,) and (width,)
    for all of them; flat rows keep numpy's inner loops long, and points
    made a block at a time keep every temporary cache-sized.  The field gets
    BLOCK // width rows per call (one row at least); each row is summed on
    its own, and then each node's rows are added in row order, so block
    edges never change a result.  Returns tau's shape, zero at a node
    without rows.
    """
    node, width, points = rows
    n = x.size
    lag = tau.ravel()[node]
    scale, eta = root.ravel()[node], t - lag
    # x at a row's points, as w: for n = 1 a scalar, which is faster and gives the same bits
    x_row = x[0] if n == 1 else np.tile(x, width)
    step = max(1, BLOCK // width)
    sums = np.empty(len(node))
    for a in range(0, len(node), step):
        block = slice(a, a + step)
        w, wt = points(block)
        dy = scale[block, None] * w
        vals = field_eval((x_row - dy).reshape(-1, n), eta[block].repeat(width))
        vals = vals.reshape(-1, width)
        if deriv is not None:
            dy = dy.reshape(-1, width, n)
            vals = vals * _factor_eval(params, deriv, dy, lag[block].repeat(width).reshape(-1, width))
        sums[block] = (vals * wt).sum(axis=1)
    return np.bincount(node, sums, minlength=tau.size).reshape(tau.shape)


@lru_cache(maxsize=64)
def _hermite_grid(order: int, n: int):
    """The tensor Gauss-Hermite nodes w with |w|^2 < W_CUT^2, shape
    (nodes, n), and their weights, in the tensor grid's order.

    The nodes past the cut, where e^(-|w|^2) <= 2^-64, are dropped, as the
    panel rule drops its panels there: their weights add up to less than
    2^-64 pi^(n/2).  At order 40, 34 of 40 nodes stay for n = 1 and 980 of
    1,600 for n = 2.
    """
    gx, gw = gauss_hermite(order)
    wpts = np.stack([g.ravel() for g in np.meshgrid(*[gx] * n, indexing="ij")], axis=-1)
    wq = np.prod(np.meshgrid(*[gw] * n, indexing="ij"), axis=0).ravel()
    keep = np.sum(wpts * wpts, axis=1) < W_CUT * W_CUT
    return _read_only(wpts[keep], wq[keep])


def _hermite_rows(size: int, order: int, n: int) -> tuple:
    """One row per node of a region without an edge, all with the tensor
    Gauss-Hermite rule of one order, n <= 2 (the Gaussian is its weight),
    cut at |w| < W_CUT like the panel rule (`_hermite_grid`)."""
    if n > 2:
        raise NotImplementedError("unbounded inner integral implemented for n <= 2")
    wpts, wq = _hermite_grid(order, n)
    grid = (wpts.ravel(), wq)
    return np.arange(size), len(wq), lambda block: grid


# panel k of p spans k / p to (k + 1) / p of the window, each edge taken as
# np.linspace takes it, k (1 / p); a window spans at most 2 W_MAX in w.
# The table of k is made once, since most of a small convolution's time is
# fixed cost per call.
(_EDGE,) = _read_only(np.arange(math.ceil(W_MAX) + 1.0))
_PANEL = _EDGE[:-1]
(_NO_ROWS,) = _read_only(np.empty(0, np.intp))  # so that no interval still concatenates


def _panel_rows(x: float, root: np.ndarray, regions, spatial_nodes: int) -> tuple:
    """One row per live panel (n = 1): for each (bands, intervals) of
    regions, the panels of the nodes of root's rows `bands` (a slice) on
    those intervals, a node's rows in the order interval, panel.

    A node's window on an interval is the part within W_MAX of x in w
    (root = 2 sqrt(tau)).  A band cuts its nodes' windows on one interval
    into ceil(len / 2) equal panels, len the widest of them, each with
    spatial_nodes Gauss-Legendre points and the Gaussian written into their
    weights.  Panels wholly past +-W_CUT, where e^(-w^2) <= 2^-64, are
    dropped (the window's two outer ones when it is not clipped): a node's
    row of panel edges counts its live panels, and the rows repeat it that
    many times.
    """
    nodes = root.shape[1]
    node, mids, halfs = [], [], []
    for bands, ints in regions:
        sq = root[bands].ravel()
        reach = W_MAX * sq
        ids = np.arange(bands.start * nodes, bands.stop * nodes)
        for lo, hi in ints:
            y_lo = np.maximum(lo, x - reach)
            y_hi = np.maximum(np.minimum(hi, x + reach), y_lo)
            w_lo = (x - y_hi) / sq
            span = (x - y_lo) / sq - w_lo
            panels = np.ceil(span.reshape(-1, nodes).max(axis=1) / 2.0).repeat(nodes)[:, None]
            edge = w_lo[:, None] + span[:, None] * (_EDGE * (1.0 / np.maximum(panels, 1.0)))
            e_lo, e_hi = edge[:, :-1], edge[:, 1:]
            live = (_PANEL < panels) & (e_hi > -W_CUT) & (e_lo < W_CUT)
            node.append(ids.repeat(live.sum(axis=1)))
            e_lo, e_hi = e_lo[live], e_hi[live]
            mids.append(0.5 * (e_hi + e_lo))
            halfs.append(0.5 * (e_hi - e_lo))
    if len(node) == 1:
        node, mids, halfs = node[0], mids[0], halfs[0]
    else:  # several intervals, or none (every region empty): then no rows
        node, mids, halfs = (np.concatenate([_NO_ROWS, *parts]) for parts in (node, mids, halfs))
    gl_x, gl_w = gauss_legendre(spatial_nodes)

    def points(block):
        w = mids[block, None] + halfs[block, None] * gl_x
        return w, np.exp(-(w * w)) * (halfs[block, None] * gl_w)

    return node, spatial_nodes, points


def _average(
    at: _SourceAt,
    x: np.ndarray,
    tau: np.ndarray,
    spec: QuadratureSpec,
    params: FracParams,
    deriv: Optional[tuple],
) -> np.ndarray:
    """int e^{-w^2} g(x - 2 sqrt(tau) w, t - tau) [phi] dw at the tau nodes
    of a source seen from t; 2 sqrt(tau) is taken once, for every row.

    tau holds the nodes of one band per row, in rising lag; no band crosses
    a time breakpoint, where alone the region changes.  So the rows split
    into runs at the break lags, each with its region (`_SourceAt.region`).
    A region without an edge (None, at every time, so the first answer
    settles it) sends every node to Gauss-Hermite; otherwise the panel rows
    of every run form one row stream (an empty region has none).
    """
    first, root = tau[:, 0], 2.0 * np.sqrt(tau)
    if at.region(first[0]) is None:
        rows = _hermite_rows(tau.size, spec.hermite_order, params.n)
    else:
        cuts = sorted({0, len(first), *np.searchsorted(first, at.breaks).tolist()})
        regions = [(slice(a, b), at.region(first[a])) for a, b in zip(cuts, cuts[1:])]
        rows = _panel_rows(x[0], root, regions, spec.spatial_nodes)
    return _row_average(at.source.field.eval, x, at.t, tau, root, rows, params, deriv)


def _convolve_once(
    source: RestrictedSource,
    pt: SpaceTimePoint,
    params: FracParams,
    quad: QuadratureSpec,
    deriv: Optional[tuple],
) -> float:
    """int_0^inf tau^(s-1) A(tau) dtau / (pi^(n/2) Gamma(s)), one pass at
    quad, with A the Gaussian average `_average` of the source (times the
    kernel-derivative factor phi for a deriv).

    The range is `_SourceAt`'s; a kernel derivative reads no symbol.  Where
    the source reaches down to lag 0, the bottom band takes [0, top]
    (`_band_top`) with the weight tau^(s-1): tau^(s-1) A is that power times
    a function smooth in tau, also for a spatial kernel derivative, and the
    bands start at top.  A source that declares a
    singular point takes it too where the window at tau_min clears every
    kink, and otherwise (`_band_top`'s cusp), with deriv None, an analytic
    head on [0, top] that takes the inner integral at its limit
    pi^(n/2) g(x, t), a spatial derivative the band on that range.  A kernel
    derivative in time, whose integrand opens like tau^(s-2), keeps the
    bands from tau_min and no bottom.  A symbol source exp(lam t) cos(k.x)
    (deriv None) that reaches past the range's end tau_hi is there the
    unrestricted field f (the cut lies past every break short of TAU_MAX),
    whose Gaussian average is pi^(n/2) f(x, t) e^(-mu tau),
    mu = lam + |k|^2: its tail is mu^(-s) f(x, t) Q(s, mu tau_hi), with Q
    the regularized upper incomplete gamma function.  With mu <= 0 that tail
    diverges, and a source reaching past TAU_MAX raises ValueError, as does
    any non-symbol source reaching past TAU_MAX, whose tail is not known
    (K * 1 diverges).  The source vanishes before the lag start, where the
    range then begins.
    """
    x = pt.x_array()
    t = pt.t
    s = params.s
    at = _SourceAt(source, t, symbol=deriv is None)
    if at.end <= 0.0:
        return 0.0
    if at.reaches and source.field.symbol_params is None:
        raise ValueError(f"the convolution of {source.field.name} has no tail: no time"
                         f" floor within TAU_MAX = {TAU_MAX:g} of t = {t}")
    if at.reaches and at.mu is not None and at.mu <= 0.0:
        raise ValueError(f"the convolution of {source.field.name} diverges:"
                         f" lam + |k|^2 = {at.mu} <= 0")
    tau_lo = max(quad.tau_min, at.start)
    total = 0.0
    if at.reaches and at.mu is not None:
        total += source.field.eval_at(pt) * at.mu ** (-s) * _gammaincc(s, at.mu * at.end)
    bottom = None
    # the source reaches down to lag 0; a kernel derivative in time keeps no bottom
    if tau_lo == quad.tau_min and (deriv is None or deriv[-1] == 0):
        tau_lo, cusp = _band_top(at, x, tau_lo, at.end)
        if cusp and deriv is None:
            # analytic head: the inner integral tends to pi^{n/2} g(x, t)
            total += source.value_at(x, t) * tau_lo**s / (s * math.gamma(s))
        else:
            bottom = _bottom_band(tau_lo, s - 1.0, quad.graded_nodes)
    if at.end <= tau_lo and bottom is None:
        return total
    scale = 1.0 / (math.pi ** (params.n / 2.0) * math.gamma(s))
    return total + scale * _graded_bands(
        lambda tau: tau ** (s - 1.0) * _average(at, x, tau, quad, params, deriv),
        tau_lo, at.end, at.breaks, quad.graded_nodes, bottom)


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
    finite, ValueError when the convolution of a symbol source diverges or
    any other source has no time floor within TAU_MAX of pt, and
    NotImplementedError for a kernel derivative of an unrestricted
    symbol source with k != 0 (no closed-form tail ends its range).
    """
    if isinstance(source, ScalarField):
        source = RestrictedSource(source)
    field = source.field
    if (deriv is not None and not source.constraints and field.symbol_params is not None
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
    at: _SourceAt, x: Optional[np.ndarray], s: float, u_at: float, G: Callable, unit: float,
    quad: QuadratureSpec,
) -> tuple:
    """(value, err) of int_0^inf tau^(-1-s) G(tau) dtau / (unit |Gamma(-s)|).

    G(tau, spec) = unit * u_at - (directional average of u at t - tau) on
    the nodes of one band per row, with unit the average's total weight, at
    the source u seen from t, and x the point of that average (None for a
    point value, which has no window).  The working range is at's, at least
    4 tau_min long.  Below top (`_band_top`) the bottom band takes G / tau,
    smooth in tau, with the weight tau^(-s), as one more row of the bands'
    nodes.  Its error (`_band_error`) is G's round-off, 4 ulps of unit u_at,
    and where the window at tau_min is not clear of a declared point
    (`_band_top`'s cusp) the band's whole value too: a value that diverges
    as tau_min falls is flagged.  The tail beyond tau_hi, with mass =
    tau_hi^(-s) / s: for a symbol field, whose G is unit u_at
    (1 - e^(-mu tau)), the closed form unit u_at (tau_hi^(-s)
    (1 - e^(-mu tau_hi)) + mu^s Gamma(1-s) Q(1-s, mu tau_hi)) / s, with Q
    the regularized upper incomplete gamma function (mu = 0: the integral
    is exactly 0); for a field that does not reach past tau_hi unit u_at
    mass, exactly; for any other field G frozen at tau_hi, with the worst
    case 2 unit bound mass as its error.
    """
    u = at.source.field
    if not check_slowly_increasing(u):
        raise ValueError("field grows too fast backward in time for the history"
                         " integral")
    tau_hi, mu = at.end, at.mu
    if mu == 0.0:
        return 0.0, 0.0
    tau_hi = max(tau_hi, 4.0 * quad.tau_min)
    top, cusp = _band_top(at, x, quad.tau_min, tau_hi)

    def one_pass(spec: QuadratureSpec) -> float:
        nodes = spec.graded_nodes
        return _graded_bands(lambda tau: tau ** (-1.0 - s) * G(tau, spec), top, tau_hi,
                             at.breaks, nodes, _bottom_band(top, -s, nodes))

    mass = tau_hi ** (-s) / s
    tail, tail_err = unit * u_at * mass, 0.0  # exact if u vanishes past tau_hi
    band = _bottom_band(top, -s, quad.graded_nodes)
    values = G(band[0][None], quad)[0] if cusp else None
    band_err = _band_error(band, top, s, unit * abs(u_at), values)
    if mu is not None:
        z = mu * tau_hi
        upper = mu**s * math.gamma(1.0 - s) * _gammaincc(1.0 - s, z)
        tail = unit * u_at * (-math.expm1(-z) * tau_hi ** (-s) + upper) / s
    elif at.reaches:
        # no decay assumption available: freeze G at its tau_hi value
        tail = G(np.array([[tau_hi]]), quad)[0, 0] * mass
        bound = u.bound if u.bound is not None else abs(u_at)
        tail_err = 2.0 * unit * bound * mass
    scale = 1.0 / (unit * abs_gamma_neg(s))
    return _refined(one_pass, quad, tail, tail_err + band_err, scale)


def increment_integral(
    u: ScalarField,
    pt: SpaceTimePoint,
    params: FracParams,
    quad: QuadratureSpec,
) -> tuple:
    """Backward space-time increment integral of the fractional heat operator.

    value = int_0^inf tau^(-1-s) G(tau) dtau / (pi^(n/2) |Gamma(-s)|) (that is
    c_{n,s} 2^n times the integral), by `_increment`, with the Gaussian
    increment G = pi^(n/2) u(pt) - A(tau) and A the Gaussian average
    `_average` of u, which takes u's admissible region (and so its time
    window) from `RestrictedSource.intervals` like a convolution does.
    Returns (value, error).
    """
    at = _SourceAt(RestrictedSource(u), pt.t)
    x = pt.x_array()
    unit = math.pi ** (params.n / 2.0)
    u_at = u.eval_at(pt)

    def G(tau, spec):
        return unit * u_at - _average(at, x, tau, spec, params, None)

    return _increment(at, x, params.s, u_at, G, unit, quad)
