"""Space-time kernel of the fully fractional heat operator.

K(x, t) = c_{n,s} * exp(-|x|^2 / (4t)) / t^(n/2 + 1 - s)  for t > 0,

with c_{n,s} = 1 / ((4 pi)^{n/2} |Gamma(-s)|).  `log_kernel`, `eval_kernel`
and `kernel_mass` carry c_{n,s}, so that the mass over (0, T) is
T^s / Gamma(1-s), while the quadratures write their constants with Gamma
alone.

Everything is computed in log space so that extreme scale ratios |x|^2 / t
do not overflow.  Besides evaluation this module provides exact closed-form
derivatives (polynomial times kernel), the kernel mass over a time slab,
and empirical verifiers for the pointwise bounds used throughout the
decomposition estimates.  The verifiers report observed constants and a
refinement-stability flag; they never assert a universal constant.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import FracParams, MultiIndex, multi_indices

__all__ = [
    "log_kernel",
    "eval_kernel",
    "eval_kernel_derivative",
    "kernel_mass",
    "SamplePlan",
    "BoundReport",
    "verify_global_bound",
    "verify_local_bound",
    "verify_translation_bound",
]

MAX_DERIVATIVE_DEGREE = 4  # total parabolic degree |alpha| + 2m


def _as_xt(params: FracParams, x, t):
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if params.n == 1 and (x.ndim == 0 or x.ndim == 1):
        x = np.atleast_1d(x)[:, None]
    x = np.atleast_2d(x)
    t = np.atleast_1d(t)
    return x, t


def log_kernel(params: FracParams, x, t) -> np.ndarray:
    """log K(x, t); -inf where t <= 0."""
    x, t = _as_xt(params, x, t)
    r2 = np.sum(x * x, axis=-1)
    out = np.full(np.broadcast(r2, t).shape, -np.inf)
    pos = t > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = (
            math.log(params.c_ns)
            - np.broadcast_to(r2, out.shape) / (4.0 * t)
            - params.time_exponent * np.log(t)
        )
    out[pos] = np.broadcast_to(vals, out.shape)[pos]
    return out


def eval_kernel(params: FracParams, x, t) -> np.ndarray:
    """K(x, t), evaluated through the log form.  Zero for t <= 0."""
    return np.exp(log_kernel(params, x, t))


# ---------------------------------------------------------------------------
# Closed-form derivatives.  D^sigma K = K * phi_sigma(x, 1/t) where phi is a
# polynomial; terms are stored as {(beta, q): c} meaning c * x^beta * t^-q.
# ---------------------------------------------------------------------------


def _diff_factor_x(terms: dict, i: int) -> dict:
    out: dict = {}
    for (beta, q), c in terms.items():
        if beta[i] > 0:
            b = list(beta)
            b[i] -= 1
            _acc(out, (tuple(b), q), c * beta[i])
        b = list(beta)
        b[i] += 1
        _acc(out, (tuple(b), q + 1), -0.5 * c)
    return out


def _diff_factor_t(terms: dict, p: float, n: int) -> dict:
    out: dict = {}
    for (beta, q), c in terms.items():
        if q:
            _acc(out, (beta, q + 1), -q * c)
        _acc(out, (beta, q + 1), -p * c)
        for i in range(n):
            b = list(beta)
            b[i] += 2
            _acc(out, (tuple(b), q + 2), 0.25 * c)
    return out


def _acc(d: dict, key, val):
    d[key] = d.get(key, 0.0) + val
    if d[key] == 0.0:
        del d[key]


@lru_cache(maxsize=None)
def _derivative_factor(n: int, p: float, sigma: tuple) -> tuple:
    """Polynomial factor of D^sigma K as a tuple of ((beta, q), coeff)."""
    terms = {(tuple([0] * n), 0): 1.0}
    for i, order in enumerate(sigma[:-1]):
        for _ in range(order):
            terms = _diff_factor_x(terms, i)
    for _ in range(sigma[-1]):
        terms = _diff_factor_t(terms, p, n)
    return tuple(terms.items())


def _factor_eval(params: FracParams, sigma: tuple, dx: np.ndarray, tau: np.ndarray):
    """Polynomial factor phi with D^sigma K = K * phi; dx has shape (..., n)."""
    out = np.zeros(np.broadcast(dx[..., 0], tau).shape)
    for (beta, q), c in _derivative_factor(params.n, params.time_exponent, sigma):
        term = np.full(out.shape, c)
        for i, b in enumerate(beta):
            if b:
                term = term * dx[..., i] ** b
        if q:
            term = term * tau ** (-float(q))
        out = out + term
    return out


def eval_kernel_derivative(params: FracParams, sigma, x, t) -> np.ndarray:
    """Exact derivative D^sigma K(x, t) for parabolic degree |sigma| <= 4.

    sigma = (alpha_1, ..., alpha_n, m) differentiates alpha_i times in x_i
    and m times in t.  The result is the kernel times a polynomial in
    (x, 1/t), never a finite difference.
    """
    mi = sigma if isinstance(sigma, MultiIndex) else MultiIndex(tuple(sigma))
    if mi.n != params.n:
        raise ValueError("multi-index dimension mismatch")
    if mi.spatial_degree > 4 or mi.time_order > 2 or mi.parabolic_degree > MAX_DERIVATIVE_DEGREE:
        raise ValueError(
            f"derivative order {mi.sigma} outside supported range "
            f"(spatial <= 4, time <= 2, parabolic degree <= {MAX_DERIVATIVE_DEGREE})"
        )
    x, t = _as_xt(params, x, t)
    logK = log_kernel(params, x, t)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        factor = _factor_eval(params, mi.sigma, x, np.where(t > 0, t, 1.0))
        out = np.exp(logK) * factor
    return np.where(np.isfinite(logK), out, 0.0)


def kernel_mass(params: FracParams, T: float) -> tuple:
    """Numerical mass int_0^T int_{R^n} K dx dt and an error estimate.

    After x = 2 sqrt(t) w the spatial integral is the Gaussian integral
    pi^{n/2} exactly, leaving the time integral of c 2^n pi^{n/2} t^(s-1),
    handled with dyadic bands plus an analytic head where the integrand is
    a pure power.  The accuracy is fixed: the value comes from 12 nodes per
    band and the estimate from its difference to the coarsened 6, with a
    relative floor of 1e-14.  Closed form for cross-checking:
    T^s / Gamma(1-s).
    """
    # quadrature imports this module, so its integrators are imported here
    from .quadrature import QuadratureSpec, _graded_bands, _refined

    if T <= 0:
        raise ValueError("T must be positive")
    s = params.s
    c = params.c_ns * 2.0**params.n * math.pi ** (params.n / 2.0)
    lo = T * 1e-12

    def time_integral(spec) -> float:
        bands = _graded_bands(lambda t: t ** (s - 1.0), lo, T, (), spec.graded_nodes)
        return c * (lo**s / s + bands)  # exact power head below lo

    return _refined(time_integral, QuadratureSpec(graded_nodes=12), floor=(1e-14, 0.0))


# ---------------------------------------------------------------------------
# Empirical bound verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplePlan:
    """Stratified sampling plan for bound verification.

    Deterministic adversarial sweeps along the first axis and the orthant
    diagonal, then n_samples random points log-uniform in |t| over
    [r^2*1e-4, r^2*1e4] and in |x| over [r*1e-4, 1e2*r].  Seeded, so a plan
    always draws the same points; plans of different sizes are not nested
    (only the |t| draws share a prefix).  The last draw is kept, read-only,
    so the verifiers of one plan at one r and n draw it once.  n_samples
    and seed are integers >= 0, numpy integers stored as Python ints, so
    that equal plans hash equal.
    """

    n_samples: int = 10000
    seed: int = 0

    def __post_init__(self):
        for name in ("n_samples", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
            object.__setattr__(self, name, int(value))


@dataclass
class BoundReport:
    lemma: str
    empirical_constant: float
    worst_point: tuple
    refinement_stable: bool
    refinement_change: float
    n_samples: int
    params: dict = field(default_factory=dict)

    def __str__(self):
        flag = "stable" if self.refinement_stable else "UNSTABLE"
        return (
            f"{self.lemma}: C_hat={self.empirical_constant:.6g} ({flag}, "
            f"change={self.refinement_change:.2%}, N={self.n_samples})"
        )


@lru_cache(maxsize=1)
def _samples(plan: SamplePlan, r: float, n: int):
    """(x, t, n_det): the adversarial sweep (axis and diagonal rays crossed
    with a |t| grid, plus the pure-time edge, at both signs of t), then the
    plan's random draw.  The last draw is kept, its arrays read-only; one
    entry only, since a draw of 10^5 points is megabytes."""
    abs_x = r * np.geomspace(1e-4, 1e2, 61)
    abs_t = r**2 * np.geomspace(1e-4, 1e4, 81)
    rays = [np.eye(n)[0], np.ones(n) / math.sqrt(n)]
    xs = [np.repeat((ray * sx)[None, :], len(abs_t), axis=0)
          for ray in rays for sx in abs_x]
    xs.append(np.zeros((len(abs_t), n)))
    xa = np.concatenate(xs, axis=0)
    ta = np.tile(abs_t, len(xs))
    xa, ta = np.concatenate([xa, xa], axis=0), np.concatenate([ta, -ta])

    count = plan.n_samples
    rng = np.random.default_rng(plan.seed)
    abs_t = np.exp(rng.uniform(math.log(r**2 * 1e-4), math.log(r**2 * 1e4), size=count))
    abs_x = np.exp(rng.uniform(math.log(r * 1e-4), math.log(r * 1e2), size=count))
    dirs = rng.standard_normal((count, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    xr = dirs * abs_x[:, None]
    tr = abs_t * rng.choice([-1.0, 1.0], size=count)
    x, t = np.concatenate([xa, xr], axis=0), np.concatenate([ta, tr])
    x.flags.writeable = t.flags.writeable = False
    return x, t, len(ta)


def _ratio_report(
    lemma: str,
    log_ratio: np.ndarray,
    x: np.ndarray,
    t: np.ndarray,
    n_random: int,
    n_det: int,
    extra: dict,
) -> BoundReport:
    """Max ratio over all samples; stability compares a nested 1/10 prefix."""
    finite = np.isfinite(log_ratio)
    log_ratio = np.where(finite, log_ratio, -np.inf)
    idx = int(np.argmax(log_ratio))
    c_full = float(np.exp(np.max(log_ratio)))
    # prefix: all deterministic points + first tenth of the random draw
    keep = np.zeros(len(log_ratio), dtype=bool)
    keep[:n_det] = True
    keep[n_det : n_det + max(1, n_random // 10)] = True
    c_prefix = float(np.exp(np.max(log_ratio[keep])))
    change = abs(c_full - c_prefix) / max(c_full, 1e-300)
    return BoundReport(
        lemma=lemma,
        empirical_constant=c_full,
        worst_point=(tuple(np.atleast_1d(x[idx]).tolist()), float(t[idx])),
        refinement_stable=change < 0.05,
        refinement_change=change,
        n_samples=n_det + n_random,
        params=extra,
    )


def _power_gaussian_report(
    lemma: str, a: float, b: float, A: float, r: float, n: int, plan: SamplePlan,
    region,
) -> BoundReport:
    """Max of (|x|^{2a}/|t|^b) e^{-A|x|^2/|t|} / r^{2(a-b)} over the samples
    where region(|x|, |t|) holds."""
    x, t, n_det = _samples(plan, r, n)
    abs_x = np.linalg.norm(x, axis=1)
    abs_t = np.abs(t)
    with np.errstate(divide="ignore"):
        log_lhs = 2 * a * np.log(abs_x) - b * np.log(abs_t) - A * abs_x**2 / abs_t
    log_ratio = np.where(region(abs_x, abs_t), log_lhs - 2 * (a - b) * math.log(r), -np.inf)
    return _ratio_report(
        lemma, log_ratio, x, t, plan.n_samples, n_det,
        {"a": a, "b": b, "A": A, "r": r, "n": n},
    )


def verify_global_bound(
    a: float, b: float, A: float, r: float, n: int = 1, plan: SamplePlan = SamplePlan()
) -> BoundReport:
    """Bound (|x|^{2a}/|t|^b) e^{-A|x|^2/|t|} <= C r^{2(a-b)} off the cylinder.

    Requires 0 <= a <= b and A > 0.  Sampled over the complement of the
    two-sided cylinder of radius r.
    """
    if not (0 <= a <= b) or A <= 0 or r <= 0:
        raise ValueError("need 0 <= a <= b, A > 0, r > 0")
    return _power_gaussian_report(
        "global_offsite_bound", a, b, A, r, n, plan,
        lambda abs_x, abs_t: (abs_x >= r) | (abs_t >= r**2),
    )


def verify_local_bound(
    a: float, b: float, A: float, r: float, n: int = 1, plan: SamplePlan = SamplePlan()
) -> BoundReport:
    """Same ratio bound, restricted to the dyadic annulus between radii r and 2r."""
    if a < 0 or b < 0 or A <= 0 or r <= 0:
        raise ValueError("need a, b >= 0, A > 0, r > 0")

    def in_annulus(abs_x, abs_t):
        inner = (abs_x < r) & (abs_t < r**2)
        outer = (abs_x < 2 * r) & (abs_t < 4 * r**2)
        return outer & ~inner

    return _power_gaussian_report("local_annulus_bound", a, b, A, r, n, plan, in_annulus)


def _translation_rhs_log(params: FracParams, x: np.ndarray, abs_t: np.ndarray, r: float):
    """log of sum_j K(x + eta_j, |t|) + K(x, |t| + r^2/n).

    The 2^n shifts eta_j have every component of magnitude r/n, with -eta_j
    lying in the j-th orthant; so |eta_j| = r/sqrt(n) and some shift always
    moves x away from the kernel's spatial peak.
    """
    n = params.n
    signs = np.array(
        [[1 if (j >> i) & 1 else -1 for i in range(n)] for j in range(2**n)],
        dtype=float,
    )
    etas = -(r / n) * signs  # -eta in orthant given by `signs`
    logs = [
        log_kernel(params, x + eta[None, :], abs_t) for eta in etas
    ]
    logs.append(log_kernel(params, x, abs_t + r**2 / n))
    return _logsumexp(np.stack(logs, axis=0))


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log sum_i exp(a[i]) over axis 0, as scipy.special.logsumexp takes it:
    the m largest terms, all equal, are taken out of the sum, and the rest
    goes through log1p, which keeps its bits when the largest dominate."""
    a_max = np.max(a, axis=0)
    top = a == a_max
    m = np.sum(top, axis=0)
    terms = np.exp(a - np.where(np.isfinite(a_max), a_max, 0.0))
    terms[top] = 0.0
    return np.log1p(np.sum(terms, axis=0) / m) + np.log(m) + a_max


def verify_translation_bound(
    params: FracParams,
    m: int,
    l: int,
    r: float,
    deriv_order: Optional[int] = None,
    plan: SamplePlan = SamplePlan(),
) -> BoundReport:
    """Kernel-translation bound used to control off-cylinder remainders.

    Base variant (deriv_order None):
        (|x|^m / |t|^l) K(x, |t|) <= C r^{m-2l} * RHS(x, t, r)
    Derivative variant (deriv_order = k <= 4):
        sum_{|sigma|=k} |D^sigma K(x, |t|)| <= C r^{-k} * RHS(x, t, r)
    where RHS sums the kernel at 2^n diagonal shifts of x plus a forward
    shift in time.  Empirical only; the report carries the observed C.
    """
    if m < 0 or l < 0 or r <= 0:
        raise ValueError("need m, l >= 0 and r > 0")
    if deriv_order is not None and not 0 <= deriv_order <= 4:
        raise ValueError("derivative variant supports order <= 4")
    n = params.n
    x, t, n_det = _samples(plan, r, n)
    abs_t = np.abs(t)
    abs_x = np.linalg.norm(x, axis=1)

    if deriv_order is None:
        with np.errstate(divide="ignore"):
            log_lhs = (
                m * np.log(abs_x) - l * np.log(abs_t) + log_kernel(params, x, abs_t)
            )
        scale = (m - 2 * l) * math.log(r)
        label = "translation_bound"
    else:
        total = np.zeros(len(abs_t))
        for mi in multi_indices(n, deriv_order):
            if mi.parabolic_degree == deriv_order:
                total += np.abs(eval_kernel_derivative(params, mi, x, abs_t))
        with np.errstate(divide="ignore"):
            log_lhs = np.log(total)
        scale = -deriv_order * math.log(r)
        label = "translation_bound_derivative"

    log_rhs = _translation_rhs_log(params, x, abs_t, r)
    log_ratio = log_lhs - scale - log_rhs
    return _ratio_report(
        label, log_ratio, x, t, plan.n_samples, n_det,
        {"m": m, "l": l, "r": r, "deriv_order": deriv_order, "s": params.s, "n": n},
    )
