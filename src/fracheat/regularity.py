"""Pointwise regularity analysis of space-time functions.

The central object is the deviation profile

    nu(R) = sup over radii r <= R (on the sampled geometric grid) of the
            cylinder average of |f - P| over Q_r, normalized by choice.

Dyadic partial sums of r^{-i(k+alpha)} nu(r^i) discriminate between the
pointwise classes: bounded sums mean a Dini-type modulus, linear growth in
the number of scales means plain Hoelder C^{k+alpha}, quadratic growth the
logarithmically corrected class.  `estimate_exponent` fits the decay rate
of nu directly, optionally against a model with an |ln r| factor.
`extract_jet` reconstructs the Taylor jet of a synthesized solution from
annulus contributions with closed-form kernel derivatives, following the
scale-iteration that produces the limit jet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    FracParams,
    ParabolicPolynomial,
    ScalarField,
    SpaceTimePoint,
    multi_indices,
)
from .quadrature import QuadratureSpec, kernel_convolve
from .synthesis import _piece_sources

__all__ = [
    "NuProfile",
    "RegularityReport",
    "JetSequence",
    "nu_profile",
    "fit_polynomial",
    "classify_pointwise",
    "estimate_exponent",
    "reduce_to_g",
    "extract_jet",
    "target_exponent",
    "integer_threshold_kind",
]


def target_exponent(k: int, alpha: float, s: float) -> float:
    """Expected pointwise exponent of the solution: k + alpha + 2s."""
    return k + alpha + 2.0 * s


def _jet_degree(k: int, alpha: float, s: float) -> tuple:
    """(gamma, degree) with gamma = k + floor(alpha + 2s) and degree the jet
    degree: gamma, or gamma - 1 when alpha + 2s is an integer (the
    logarithmic threshold), never below 0."""
    v = 2.0 * s + alpha
    gamma = k + int(math.floor(v + 1e-12))
    return gamma, max(gamma - 1 if abs(v - round(v)) < 1e-12 else gamma, 0)


def integer_threshold_kind(k: int, alpha: float, s: float) -> Optional[str]:
    """None off the integer thresholds; at 2s + alpha integer, "x-ln" when
    k + 2s + alpha is odd and "ln" when it is even."""
    gamma, degree = _jet_degree(k, alpha, s)
    if degree == gamma:
        return None
    return "x-ln" if gamma % 2 == 1 else "ln"


@dataclass
class NuProfile:
    """Deviation profile of f against P around a base point.

    radii decrease geometrically; `raw` holds the per-radius averages and
    `nu` the running sup over all sampled radii <= R (so nu is monotone in
    R by construction).  mode is "l1" (cylinder average of |f - P|) or
    "sup" (grid max).
    """

    base: SpaceTimePoint
    radii: np.ndarray
    raw: np.ndarray
    nu: np.ndarray
    mode: str = "l1"
    spatial_only: bool = False

    def ratio(self) -> float:
        r = np.asarray(self.radii, dtype=float)
        return float(np.exp(np.mean(np.log(r[1:] / r[:-1]))))

    def rows(self):
        return list(zip(self.radii.tolist(), self.nu.tolist()))

    @staticmethod
    def from_values(base, radii, values, mode="l1", spatial_only=False) -> "NuProfile":
        radii = np.asarray(radii, dtype=float)
        order = np.argsort(-radii)
        radii = radii[order]
        raw = np.asarray(values, dtype=float)[order]
        nu = np.maximum.accumulate(raw[::-1])[::-1]
        return NuProfile(base, radii, raw, nu, mode, spatial_only)


def _deviation_samples(
    f: ScalarField,
    P: ParabolicPolynomial,
    base: SpaceTimePoint,
    r: float,
    grid: tuple,
    spatial_only: bool,
):
    nx, nt = grid
    x0 = base.x_array()
    if f.n != 1:
        raise NotImplementedError("profiles implemented for n = 1")
    xs = x0[0] + r * (2.0 * (np.arange(nx) + 0.5) / nx - 1.0)
    if spatial_only:
        ts = np.full(1, base.t)
    else:
        ts = base.t - r**2 * (np.arange(nt) + 0.5) / nt
    X, T = np.meshgrid(xs, ts, indexing="ij")
    pts_x = X.ravel()[:, None]
    pts_t = T.ravel()
    dev = f.eval(pts_x, pts_t) - P.eval(pts_x, pts_t)
    return np.abs(dev)


def nu_profile(
    f: ScalarField,
    P: ParabolicPolynomial,
    base: SpaceTimePoint,
    radii: Sequence[float],
    mode: str = "l1",
    grid: tuple = (64, 64),
    spatial_only: bool = False,
) -> NuProfile:
    """Deviation profile on the given (decreasing geometric) radii.

    mode "l1" uses the midpoint tensor average; "sup" the grid maximum.
    spatial_only restricts sampling to the time slice t = base.t, for the
    odd integer-threshold diagnostics.
    """
    if mode not in ("l1", "sup"):
        raise ValueError("mode must be 'l1' or 'sup'")
    vals = []
    for r in radii:
        dev = _deviation_samples(f, P, base, float(r), grid, spatial_only)
        vals.append(float(np.max(dev)) if mode == "sup" else float(np.mean(dev)))
    return NuProfile.from_values(base, radii, vals, mode, spatial_only)


def fit_polynomial(
    f: ScalarField,
    base: SpaceTimePoint,
    k: int,
    fit_radius: float,
    grid: tuple = (48, 48),
    shell_weight_power: Optional[float] = None,
) -> ParabolicPolynomial:
    """Weighted least-squares parabolic polynomial of degree k at base.

    Rows are weighted by an inverse power of the parabolic distance so that
    the smallest sampled scales dominate and the coefficients approach the
    Taylor jet when one exists.  Raises on a rank-deficient design.
    """
    if f.n != 1:
        raise NotImplementedError("fitting implemented for n = 1")
    nx, nt = grid
    x0, t0 = base.x[0], base.t
    xs = x0 + fit_radius * (2.0 * (np.arange(nx) + 0.5) / nx - 1.0)
    ts = t0 - fit_radius**2 * (np.arange(nt) + 0.5) / nt
    X, T = np.meshgrid(xs, ts, indexing="ij")
    dx = (X - x0).ravel()
    dt = (T - t0).ravel()
    rho = np.sqrt(dx**2 + np.abs(dt))
    power = shell_weight_power if shell_weight_power is not None else (f.n + 4) / 2.0
    w = rho ** (-power)
    w /= np.max(w)
    mis = multi_indices(1, k)
    cols = []
    for mi in mis:
        col = np.ones_like(dx) / mi.factorial()
        p = mi.spatial[0]
        if p:
            col = col * dx**p
        if mi.time_order:
            col = col * dt**mi.time_order
        cols.append(col)
    A = np.stack(cols, axis=1) * w[:, None]
    y = f.eval(X.ravel()[:, None], T.ravel()) * w
    coef, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < len(mis):
        raise ValueError("degenerate fit grid: design matrix is rank deficient")
    return ParabolicPolynomial(k, base, {mi: c for mi, c in zip(mis, coef)})


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass
class RegularityReport:
    label: str  # "dini" | "holder" | "log" | "unclassified"
    k: int
    alpha: float
    partial_sums: np.ndarray
    increments: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __str__(self):
        return f"RegularityReport(label={self.label}, k={self.k}, alpha={self.alpha})"


def classify_pointwise(
    profile: NuProfile,
    k: int,
    alpha: float,
    r: Optional[float] = None,
) -> RegularityReport:
    """Classify the modulus behind a deviation profile at exponent k+alpha.

    With r the profile's geometric ratio, the increments
    Delta_i = r^{-i(k+alpha)} nu(r^i) drive the decision: decaying
    increments give "dini" (the dyadic sum converges), stable increments
    "holder" (partial sums grow linearly in the number of scales), linearly
    growing increments "log" (quadratic partial sums).  Geometric growth of
    the increments, or a raw profile that grows toward small radii (the
    running sup saturated by its inner end), is "unclassified".  Ties
    within 10% break toward the weaker label.
    """
    ratio = profile.ratio()
    if r is not None and abs(ratio - r) > 1e-8 * max(1.0, r):
        raise ValueError(f"profile ratio {ratio} does not match declared r {r}")
    rad = np.asarray(profile.radii, dtype=float)
    nu = np.asarray(profile.nu, dtype=float)
    raw = np.asarray(profile.raw, dtype=float)
    r0 = float(rad[0])
    scale_idx = np.arange(len(rad))
    incr = nu / (rad / r0) ** (k + alpha)
    sums = np.cumsum(incr)

    diag = {"ratio": ratio, "r0": r0}
    if np.max(nu) <= 0.0:
        return RegularityReport("dini", k, alpha, sums, incr, diag | {"constant": 0.0})

    eps = 1e-300
    m = len(incr)
    third = max(2, m // 3)

    # saturation guard: if the per-radius averages grow toward small radii
    # the running sup is carried by its inner end and the claimed exponent
    # overshoots the truth; no label applies.
    head_raw = float(np.mean(raw[:third]))
    tail_raw = float(np.mean(raw[-third:]))
    diag |= {"raw_head": head_raw, "raw_tail": tail_raw}
    if tail_raw > 1.5 * head_raw:
        return RegularityReport("unclassified", k, alpha, sums, incr, diag)

    head = float(np.mean(incr[:third]))
    tail = float(np.mean(incr[-third:]))
    idx = scale_idx.astype(float)
    lin = np.polyfit(idx, incr, 1)
    slope_norm = float(lin[0] * (m - 1) / max(np.mean(incr), eps))
    growth = tail / max(head, eps)
    diag |= {"incr_head": head, "incr_tail": tail, "growth": growth,
             "slope_norm": slope_norm}

    # decaying increments: convergent dyadic sum (10% tie margin -> holder)
    if tail < 0.45 * head:
        return RegularityReport("dini", k, alpha, sums, incr, diag)
    # stable increments: partial sums linear in the scale count
    if growth <= 2.0 and abs(slope_norm) < 0.75:
        return RegularityReport("holder", k, alpha, sums, incr, diag)
    # growing increments: linear growth means quadratic partial sums (log
    # class); a persistent geometric growth factor means escape.
    pos = incr > 0
    tail_ratios = incr[1:][pos[1:] & pos[:-1]] / np.maximum(incr[:-1][pos[1:] & pos[:-1]], eps)
    r_tail = float(np.mean(tail_ratios[-3:])) if len(tail_ratios) >= 3 else 1.0
    diag |= {"tail_ratio": r_tail}
    if r_tail > 1.3:
        return RegularityReport("unclassified", k, alpha, sums, incr, diag)
    return RegularityReport("log", k, alpha, sums, incr, diag)


def estimate_exponent(profile: NuProfile, try_log_factor: bool = True) -> dict:
    """Least-squares decay exponent of nu(r) ~ C r^beta.

    With try_log_factor, also fits log nu = beta log r + log|log r| + c and
    reports log_correction=True when that model reduces the residual sum of
    squares by at least 25%.
    """
    r = np.asarray(profile.radii, dtype=float)
    nu = np.asarray(profile.nu, dtype=float)
    keep = nu > 0
    r, nu = r[keep], nu[keep]
    if len(r) < 3:
        raise ValueError("need at least 3 positive profile rows")
    lr, ln = np.log(r), np.log(nu)
    A = np.stack([lr, np.ones_like(lr)], axis=1)
    coef, res_a = _lstsq_rss(A, ln)
    out = {
        "exponent": float(coef[0]),
        "log_correction": False,
        "rss_power": res_a,
    }
    if try_log_factor:
        target = ln - np.log(np.abs(np.log(r)))
        coef_b, res_b = _lstsq_rss(A, target)
        out["rss_log_model"] = res_b
        if res_b < 0.75 * res_a:
            out["log_correction"] = True
            out["exponent"] = float(coef_b[0])
    return out


def _lstsq_rss(A: np.ndarray, y: np.ndarray) -> tuple:
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    rss = float(np.sum((A @ coef - y) ** 2))
    return coef, rss


def reduce_to_g(
    f: ScalarField,
    P: ParabolicPolynomial,
    base: SpaceTimePoint,
    k: int,
    alpha: float,
) -> ScalarField:
    """g = (f - P) / d^(k+alpha) with d the parabolic distance to base.

    f lies in C^{k+alpha} at base with jet P iff g is bounded near base
    (C^0 there with value 0); the classifier applied to g at exponent 0
    must agree with the classifier applied to f at exponent k + alpha.
    """
    x0 = base.x_array()
    t0 = base.t
    expo = (k + alpha) / 2.0

    def func(x, t):
        x = np.atleast_2d(x)
        d2 = np.sum((x - x0) ** 2, axis=-1) + np.abs(np.asarray(t) - t0)
        dev = f.eval(x, t) - P.eval(x, t)
        out = np.zeros(np.shape(dev))
        pos = d2 > 0
        out[pos] = dev[pos] / d2[pos] ** expo
        return out

    return ScalarField(
        func, f.n, tail=f.tail, support=f.support, bound=None,
        time_floor=f.time_floor, name=f"g_reduction[{f.name}]",
    )


# ---------------------------------------------------------------------------
# Jet extraction by scale iteration
# ---------------------------------------------------------------------------


@dataclass
class JetSequence:
    """Per-scale polynomial jets P_i and their convergence diagnostics.

    polys[i] approximates the degree-gamma jet at scale eta^i.  diffs[j]
    holds the eta^{j i}-weighted coefficient differences at parabolic order
    j, rates[j] their fitted decay exponents in log_eta scale (expected
    k + alpha + 2s), limits[j] the extrapolated coefficients, and cauchy[j]
    whether the weighted increments contract (last below 10% of first).
    """

    eta: float
    gamma: int
    polys: list
    diffs: dict
    rates: dict
    limits: dict
    cauchy: dict


def extract_jet(
    f: ScalarField,
    P: ParabolicPolynomial,
    params: FracParams,
    k: int,
    alpha: float,
    eta: float = 0.5,
    depth: int = 8,
    quad: QuadratureSpec = QuadratureSpec(),
    center: Optional[SpaceTimePoint] = None,
    cutoff: Optional[ScalarField] = None,
) -> JetSequence:
    """Iterated jets of the annulus contribution T_r at shrinking scales.

    For each scale r_i = eta^(i-1) the polynomial P_i collects the exact
    kernel-derivative moments of (f - J) over the unit past cylinder minus
    the past cylinder of radius r_i, evaluated at the base point.  Degrees
    run to gamma = k + floor(alpha + 2s); when alpha + 2s is an integer the
    top order is dropped (degrees <= gamma - 1), matching the logarithmic
    threshold.  P_1 = 0 since the annulus at unit scale is empty.
    """
    if not 0 < eta < 1:
        raise ValueError("eta must lie in (0,1)")
    if depth < 3:
        raise ValueError("depth must be >= 3")
    center = center or SpaceTimePoint.of(np.zeros(params.n), 0.0)
    gamma, top = _jet_degree(k, alpha, params.s)
    if top > 4:
        raise ValueError("jet degree above 4 not supported")
    mis = list(multi_indices(params.n, top))
    polys = [ParabolicPolynomial.zero(params.n, top, center)]
    for i in range(2, depth + 1):
        r_i = eta ** (i - 1)
        src = _piece_sources(f, P, r_i, params, center, cutoff)["T_r"]
        coeffs = {}
        for mi in mis:
            val, _ = kernel_convolve(
                src, center, params, quad, deriv=mi.sigma, with_error=False
            )
            coeffs[mi] = val
        polys.append(ParabolicPolynomial(top, center, coeffs))

    diffs: dict = {}
    rates: dict = {}
    limits: dict = {}
    cauchy: dict = {}
    orders = sorted({mi.parabolic_degree for mi in mis})
    coeff_scale = max(
        (abs(p.derivative_at_base(mi)) for p in polys for mi in mis), default=0.0
    )
    for j in orders:
        mj = [mi for mi in mis if mi.parabolic_degree == j]
        d = []
        # skip the bootstrap step: the zero initial jet is not an iterate
        for i in range(1, len(polys) - 1):
            raw = sum(
                abs(polys[i + 1].derivative_at_base(mi) - polys[i].derivative_at_base(mi))
                for mi in mj
            )
            d.append(eta ** (j * (i + 1)) * raw)
        d = np.asarray(d)
        diffs[j] = d
        if np.max(d) <= 1e-12 * max(coeff_scale, 1e-300):
            # coefficients vanish identically (e.g. by symmetry of the data)
            rates[j] = math.nan
            cauchy[j] = True
            limits[j] = {mi.sigma: 0.0 for mi in mj}
            continue
        pos = d > 0
        if np.sum(pos) >= 3:
            idx = np.arange(1, len(d) + 1, dtype=float)[pos]
            ld = np.log(d[pos])
            # fit on the tail half: the first annuli are pre-asymptotic
            keep = max(3, len(idx) // 2 + 1)
            slope = np.polyfit(idx[-keep:], ld[-keep:], 1)[0]
            rates[j] = float(slope / math.log(eta))
        else:
            rates[j] = math.nan
        cauchy[j] = bool(d[-1] < 0.1 * d[0]) if d[0] > 0 else True
        # extrapolated limit per coefficient via estimated geometric ratio
        lims = {}
        for mi in mj:
            seq = np.array([p.derivative_at_base(mi) for p in polys])
            inc = np.diff(seq)
            if len(inc) >= 2 and abs(inc[-2]) > 0 and abs(inc[-1] / inc[-2]) < 0.95:
                rho = inc[-1] / inc[-2]
                lims[mi.sigma] = float(seq[-1] + inc[-1] * rho / (1.0 - rho))
            else:
                lims[mi.sigma] = float(seq[-1])
        limits[j] = lims
    return JetSequence(eta, gamma, polys, diffs, rates, limits, cauchy)
