"""Core types for parabolic nonlocal analysis.

Shared vocabulary for the rest of the package: operator parameters,
space-time points, parabolic cylinders and the parabolic distance,
multi-indices with parabolic degree counting, and polynomials graded by
that degree.  The time variable counts twice in all degree bookkeeping,
matching the natural scaling (x, t) -> (lam*x, lam^2*t) of the heat
operator.  `ParabolicCylinder.midpoints` is the one sample grid of a past
cylinder and `monomial` the one Taylor monomial; the regularity statistics
and the polynomial fits are built on both.  `FracParams` carries the
operator's constant c_{n,s}; a `ScalarField` declares its support, symbol,
bound and time floor, from which the quadratures read its kind.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

__all__ = [
    "FracParams",
    "SpaceTimePoint",
    "ParabolicCylinder",
    "MultiIndex",
    "ParabolicPolynomial",
    "ScalarField",
    "monomial",
    "abs_gamma_neg",
    "normalization_constant",
    "parabolic_distance",
    "multi_indices",
    "check_slowly_increasing",
]


def abs_gamma_neg(s: float) -> float:
    """|Gamma(-s)| for s in (0, 1), via the recursion Gamma(1-s) = -s*Gamma(-s)."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    return math.gamma(1.0 - s) / s


def normalization_constant(n: int, s: float) -> float:
    """Constant c making the operator agree with the Fourier symbol (lam+|k|^2)^s.

    c = 1 / ((4*pi)^(n/2) * |Gamma(-s)|).
    """
    return 1.0 / ((4.0 * math.pi) ** (n / 2.0) * abs_gamma_neg(s))


@dataclass(frozen=True)
class FracParams:
    """Problem parameters: spatial dimension n >= 1 and fractional order s in (0,1)."""

    n: int
    s: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0, 1), got {self.s}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def c_ns(self) -> float:
        return normalization_constant(self.n, self.s)

    @property
    def time_exponent(self) -> float:
        """Exponent p of t^-p in the space-time kernel: p = n/2 + 1 - s."""
        return self.n / 2.0 + 1.0 - self.s


@dataclass(frozen=True)
class SpaceTimePoint:
    """A point (x, t) with x in R^n."""

    x: tuple
    t: float

    @staticmethod
    def of(x, t: float) -> "SpaceTimePoint":
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return SpaceTimePoint(tuple(x.tolist()), float(t))

    @property
    def n(self) -> int:
        return len(self.x)

    def x_array(self) -> np.ndarray:
        return np.asarray(self.x, dtype=float)


def parabolic_distance(p: SpaceTimePoint, q: SpaceTimePoint) -> float:
    """d(p, q) = (|x_p - x_q|^2 + |t_p - t_q|)^(1/2).

    Not a metric, but satisfies the quasi-triangle inequality
    d(a,c)^2 <= 2 (d(a,b)^2 + d(b,c)^2).
    """
    dx = p.x_array() - q.x_array()
    return math.sqrt(float(dx @ dx) + abs(p.t - q.t))


@dataclass(frozen=True)
class ParabolicCylinder:
    """Cylinder of radius r about a center (x0, t0).

    sided="past" is B_r(x0) x (t0 - r^2, t0]; sided="two" is the two-sided
    version B_r(x0) x (t0 - r^2, t0 + r^2).
    """

    center: SpaceTimePoint
    radius: float
    sided: str = "past"  # "past" or "two"

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.sided not in ("past", "two"):
            raise ValueError("sided must be 'past' or 'two'")

    @property
    def t_lo(self) -> float:
        return self.center.t - self.radius**2

    @property
    def t_hi(self) -> float:
        return self.center.t + self.radius**2 if self.sided == "two" else self.center.t

    def contains(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Vectorized membership test.  x has shape (m, n), t shape (m,)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = np.asarray(t, dtype=float)
        c = self.center.x_array()
        in_ball = np.sum((x - c) ** 2, axis=-1) < self.radius**2
        if self.sided == "past":
            in_time = (t > self.t_lo) & (t <= self.center.t)
        else:
            in_time = (t > self.t_lo) & (t < self.t_hi)
        return in_ball & in_time

    def midpoints(self, grid: tuple) -> tuple:
        """Midpoint tensor grid (x, t) of a past cylinder, n = 1.

        grid = (nx, nt); x has shape (nx*nt, 1) and t shape (nx*nt,), in
        x-major order, with t = t0 - r^2 (j + 1/2) / nt falling from the apex.
        """
        if self.center.n != 1:
            raise NotImplementedError("cylinder grids implemented for n = 1")
        if self.sided != "past":
            raise ValueError("midpoint grids sample past cylinders only")
        nx, nt = grid
        r = self.radius
        xs = self.center.x[0] + r * (2.0 * (np.arange(nx) + 0.5) / nx - 1.0)
        ts = self.center.t - r**2 * (np.arange(nt) + 0.5) / nt
        X, T = np.meshgrid(xs, ts, indexing="ij")
        return X.ravel()[:, None], T.ravel()

    def scaled(self, lam: float) -> "ParabolicCylinder":
        c = self.center
        return ParabolicCylinder(
            SpaceTimePoint.of(c.x_array() * lam, c.t * lam**2),
            self.radius * lam,
            self.sided,
        )


@dataclass(frozen=True)
class MultiIndex:
    """Space-time multi-index sigma = (sigma_1, ..., sigma_n, sigma_t).

    The parabolic degree weights the time entry twice:
    |sigma| = sigma_1 + ... + sigma_n + 2*sigma_t.
    """

    sigma: tuple

    def __post_init__(self):
        if len(self.sigma) < 2 or any(int(s) != s or s < 0 for s in self.sigma):
            raise ValueError(f"invalid multi-index {self.sigma}")
        object.__setattr__(self, "sigma", tuple(int(s) for s in self.sigma))

    @property
    def n(self) -> int:
        return len(self.sigma) - 1

    @property
    def spatial(self) -> tuple:
        return self.sigma[:-1]

    @property
    def time_order(self) -> int:
        return self.sigma[-1]

    @property
    def spatial_degree(self) -> int:
        return sum(self.sigma[:-1])

    @property
    def parabolic_degree(self) -> int:
        return self.spatial_degree + 2 * self.sigma[-1]

    def factorial(self) -> float:
        out = 1.0
        for s in self.sigma:
            out *= math.factorial(s)
        return out


def multi_indices(n: int, max_degree: int) -> list:
    """All multi-indices with parabolic degree <= max_degree, graded lexicographic.

    Ordered first by parabolic degree, then lexicographically on the raw tuple.
    """
    out = []
    for deg in range(max_degree + 1):
        batch = []
        for mt in range(deg // 2 + 1):
            rem = deg - 2 * mt
            for combo in _compositions(rem, n):
                batch.append(MultiIndex(combo + (mt,)))
        batch.sort(key=lambda m: m.sigma)
        out.extend(batch)
    return out


def _compositions(total: int, parts: int) -> Iterable[tuple]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def monomial(mi: MultiIndex, dx: np.ndarray, dt: np.ndarray, a: float = 1.0) -> np.ndarray:
    """a / sigma! * dx^sigma' * dt^sigma_t; dx has shape (..., n)."""
    out = np.full(np.broadcast(dx[..., 0], dt).shape, a / mi.factorial())
    for i, p in enumerate(mi.spatial):
        if p:
            out = out * dx[..., i] ** p
    if mi.time_order:
        out = out * dt**mi.time_order
    return out


class ParabolicPolynomial:
    """Polynomial P(x,t) = sum_sigma a_sigma / sigma! * (x-x0)^sigma' (t-t0)^sigma_t.

    Coefficients are stored in derivative convention: a_sigma = D^sigma P(base).
    Degree is bounded in the parabolic sense (time counts twice).
    """

    def __init__(self, k: int, base: SpaceTimePoint, coeffs: dict):
        if k < 0:
            raise ValueError("degree bound k must be >= 0")
        self.k = int(k)
        self.base = base
        self.coeffs = {}
        for sig, a in coeffs.items():
            mi = sig if isinstance(sig, MultiIndex) else MultiIndex(tuple(sig))
            if mi.n != base.n:
                raise ValueError("multi-index dimension mismatch")
            if mi.parabolic_degree > self.k:
                raise ValueError(
                    f"coefficient {mi.sigma} exceeds parabolic degree bound {self.k}"
                )
            self.coeffs[mi] = float(a)

    @staticmethod
    def zero(n: int, k: int = 0, base: Optional[SpaceTimePoint] = None) -> "ParabolicPolynomial":
        base = base or SpaceTimePoint.of(np.zeros(n), 0.0)
        return ParabolicPolynomial(k, base, {})

    def __call__(self, x, t):
        return self.eval(x, t)

    def eval(self, x, t):
        """Evaluate at points. x: (m, n) or scalar-like for n=1; t: (m,) or scalar."""
        x = np.asarray(x, dtype=float)
        if x.ndim <= 1 and self.base.n == 1:
            x = np.atleast_1d(x)[:, None]
        dx = np.atleast_2d(x) - self.base.x_array()
        dt = np.atleast_1d(np.asarray(t, dtype=float)) - self.base.t
        out = np.zeros(np.broadcast(dx[..., 0], dt).shape)
        for mi, a in self.coeffs.items():
            out += monomial(mi, dx, dt, a)
        return out

    def derivative_at_base(self, sigma) -> float:
        mi = sigma if isinstance(sigma, MultiIndex) else MultiIndex(tuple(sigma))
        return self.coeffs.get(mi, 0.0)

    def norm(self) -> float:
        """sum over parabolic orders j <= k of sum_{|sigma|=j} |D^sigma P(base)|."""
        return sum(abs(a) for a in self.coeffs.values())

    def to_dict(self) -> dict:
        order = multi_indices(self.base.n, self.k)
        return {
            "k": self.k,
            "base": list(self.base.x) + [self.base.t],
            "coeffs": [
                {"sigma": list(mi.sigma), "a": self.coeffs[mi]}
                for mi in order
                if mi in self.coeffs
            ],
        }

    @staticmethod
    def from_dict(d: dict) -> "ParabolicPolynomial":
        base_raw = d["base"]
        base = SpaceTimePoint.of(base_raw[:-1], base_raw[-1])
        coeffs = {tuple(c["sigma"]): c["a"] for c in d["coeffs"]}
        return ParabolicPolynomial(d["k"], base, coeffs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @staticmethod
    def from_json(s: str) -> "ParabolicPolynomial":
        return ParabolicPolynomial.from_dict(json.loads(s))


@dataclass
class ScalarField:
    """A scalar function of space-time with what it declares about itself.

    func(x, t) must accept x of shape (m, n) and t of shape (m,) and return
    shape (m,).  The declarations set the quadratures' time range and tail:

    - `symbol_params` (lam, k): the field is exp(lam*t) * cos(k . x), and
      declares neither a support nor a time floor
    - `support`: the field is compact, zero outside the cylinder
    - otherwise it is bounded, by `bound` if given
    - `time_floor`: the field vanishes for t < time_floor (synthesized
      solutions of compact sources declare it)
    - `singular_points`: where the field is not smooth, as pairs
      ("space", x0), across the point x0 (n finite coordinates, stored as a
      tuple of floats; for n = 1 a bare number is the 1-tuple) at every
      time, or ("time", t0), across the finite time t0 at every x; any other
      entry raises ValueError.  The bottom band of a quadrature at (x, t)
      stays below the lag where its Gaussian window reaches a declared
      point.  Where the window at tau_min is not clear of one (a space
      point within 2 W_MAX sqrt(tau_min) of x, or a time within tau_min
      before t), the operator and the Marchaud derivative count the band
      on [0, tau_min] whole as error, and the convolution takes an
      analytic head in its place; the direct Laplacian route's bands break
      at ("space", x0).  Nothing checks that a field declares every kink: one
      whose kink is undeclared (the cutoff's, along |x| = sqrt|t| where its
      step moves) takes the bottom band (`quadrature.power_rule`), which
      assumes a source smooth in tau
    """

    func: Callable
    n: int
    support: Optional[ParabolicCylinder] = None
    bound: Optional[float] = None
    symbol_params: Optional[tuple] = None  # (lam, k_vec) of exp(lam*t) * cos(k . x)
    time_floor: Optional[float] = None
    name: str = "field"
    singular_points: tuple = ()

    def __post_init__(self):
        self.singular_points = tuple(_singular_point(p, self.n) for p in self.singular_points)
        if self.symbol_params is not None:
            if self.support is not None or self.time_floor is not None:
                raise ValueError("a symbol field declares neither a support nor a time floor")
            lam, k = self.symbol_params
            k = np.atleast_1d(np.asarray(k, dtype=float))
            if len(k) != self.n:
                raise ValueError("frequency vector dimension mismatch")
            self.symbol_params = (float(lam), tuple(k.tolist()))

    def eval(self, x, t) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.n == 1 and x.ndim == 1:
            x = x[:, None]
        t = np.asarray(t, dtype=float)
        return np.asarray(self.func(x, t), dtype=float)

    def eval_at(self, pt: SpaceTimePoint) -> float:
        return float(self.eval(pt.x_array()[None, :], np.array([pt.t]))[0])

    def spatial_interval(self) -> Optional[tuple]:
        """Bounding spatial interval of the support in n=1, or None if unbounded."""
        if self.support is None or self.n != 1:
            return None
        c = self.support.center
        return (c.x[0] - self.support.radius, c.x[0] + self.support.radius)

    def time_window(self) -> tuple:
        """(t_lo, t_hi) outside of which the field vanishes: the support's
        window, or (time_floor, inf); -inf without a floor."""
        if self.support is not None:
            return (self.support.t_lo, self.support.t_hi)
        lo = self.time_floor if self.time_floor is not None else -math.inf
        return (lo, math.inf)


def _singular_point(entry, n: int) -> tuple:
    """entry as ("space", a tuple of n floats) or ("time", a float), or
    ValueError naming it; for n = 1 a bare number is the 1-tuple."""

    def finite(v) -> bool:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)

    pair = isinstance(entry, tuple) and len(entry) == 2 and isinstance(entry[0], str)
    kind, where = entry if pair else (None, None)
    if kind == "time" and finite(where):
        return ("time", float(where))
    if kind == "space":
        coords = (where,) if finite(where) else where
        if (isinstance(coords, (tuple, list, np.ndarray)) and len(coords) == n
                and all(finite(v) for v in coords)):
            return ("space", tuple(float(v) for v in coords))
    raise ValueError(f"singular point {entry!r}: need ('space', {n} finite coordinates)"
                     " or ('time', a finite number)")


def check_slowly_increasing(u: ScalarField) -> bool:
    """Admissibility for the backward-in-time integral defining the operator.

    Compact and bounded fields are admissible.  Symbol fields
    exp(lam*t)cos(k.x) are admissible iff lam >= 0 (the history integral
    must converge against the kernel's power weight).
    """
    if u.symbol_params is None:
        return True
    lam, _ = u.symbol_params
    return lam >= 0.0
