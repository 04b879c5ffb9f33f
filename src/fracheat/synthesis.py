"""Kernel-convolution solutions and their cylinder decomposition.

Given a source f, the synthesized solution is the backward convolution

    u(x,t) = int_{-inf}^t int_{R^n} f(y,eta) K(x-y, t-eta) dy deta,

which the operator maps back to f.  For local regularity analysis the
solution is split along parabolic cylinders about a base point:

  * external part v_r: contribution of f outside the two-sided cylinder
    of radius r (smooth near the base point);
  * internal part w_r: contribution of f inside it, so u = v_r + w_r;
  * with J = P * psi (polynomial jet times a cutoff), the contribution of
    f on the unit past cylinder splits as w_1 = S_r + T_r + u_P where S_r
    carries (f - J) on the past cylinder of radius r, T_r carries (f - J)
    on the unit past cylinder minus it, and u_P carries J on the unit past
    cylinder;
  * the polynomial's own global solution V_P = W_{P,1} + u_P, with W_{P,r}
    the contribution of J outside the past cylinder of radius r.

The decay of the cylinder average of |S_r| in r is the quantitative
regularity transfer from f to u probed by `s_decay_probe`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    FracParams,
    ParabolicCylinder,
    ParabolicPolynomial,
    ScalarField,
    SpaceTimePoint,
)
from .quadrature import QuadratureSpec, RestrictedSource, kernel_convolve

__all__ = [
    "make_cutoff",
    "synthesize_solution",
    "synthesized_field",
    "jet_source",
    "difference_field",
    "DecompositionBundle",
    "decompose_internal",
    "s_decay_probe",
    "cylinder_average",
]


def _mollifier_step(z: np.ndarray) -> np.ndarray:
    """Smooth step: 0 for z <= 0, 1 for z >= 1, C^inf transition."""
    z = np.asarray(z, dtype=float)

    def phi(v):
        out = np.zeros(np.shape(v))
        pos = v > 0
        with np.errstate(over="ignore", divide="ignore"):
            out[pos] = np.exp(-1.0 / v[pos])
        return out

    a = phi(z)
    b = phi(1.0 - z)
    return a / (a + b)


def make_cutoff(n: int = 1, r_inner: float = 1.0, r_outer: float = 2.0) -> ScalarField:
    """Smooth cutoff psi: 1 on the two-sided cylinder of radius r_inner,
    0 outside radius r_outer, radial in the parabolic gauge max(|x|, sqrt|t|)."""
    if not 0 < r_inner < r_outer:
        raise ValueError("need 0 < r_inner < r_outer")

    def func(x, t):
        rho = np.maximum(
            np.sqrt(np.sum(np.atleast_2d(x) ** 2, axis=-1)), np.sqrt(np.abs(t))
        )
        return _mollifier_step((r_outer - rho) / (r_outer - r_inner))

    support = ParabolicCylinder(
        SpaceTimePoint.of(np.zeros(n), 0.0), r_outer * 1.0000001, sided="two"
    )
    return ScalarField(func, n, tail="compact", support=support, bound=1.0,
                       name=f"cutoff({r_inner},{r_outer})")


def synthesize_solution(
    f: ScalarField,
    pt: SpaceTimePoint,
    params: FracParams,
    quad: QuadratureSpec = QuadratureSpec(),
    with_error: bool = True,
) -> tuple:
    """u(pt) = (f * K)(pt); returns (value, error_estimate)."""
    if f.n != params.n:
        raise ValueError("field dimension mismatch")
    return kernel_convolve(f, pt, params, quad, with_error=with_error)


class _ErrTracker:
    def __init__(self):
        self.max_err = 0.0

    def update(self, e: float):
        if math.isfinite(e):
            self.max_err = max(self.max_err, e)


def synthesized_field(
    f: ScalarField,
    params: FracParams,
    quad: QuadratureSpec = QuadratureSpec(),
    with_error: bool = False,
) -> ScalarField:
    """The solution u = f * K wrapped as a lazily evaluated ScalarField.

    The wrapper is bounded, vanishes before the source's time window, and
    records the largest per-point error estimate seen in `.err_tracker`.
    """
    tracker = _ErrTracker()
    floor, _ = f.time_window()

    def func(x, t):
        x = np.atleast_2d(x)
        t = np.atleast_1d(t)
        out = np.empty(len(t))
        for i in range(len(t)):
            v, e = kernel_convolve(
                f, SpaceTimePoint.of(x[i], t[i]), params, quad, with_error=with_error
            )
            out[i] = v
            if with_error:
                tracker.update(e)
        return out

    u = ScalarField(
        func,
        f.n,
        tail="bounded",
        bound=None,
        time_floor=floor if math.isfinite(floor) else None,
        name=f"solution[{f.name}]",
    )
    u.err_tracker = tracker
    return u


def jet_source(P: ParabolicPolynomial, cutoff: Optional[ScalarField] = None) -> ScalarField:
    """J = P * psi: the polynomial jet localized by the cutoff."""
    cutoff = cutoff or make_cutoff(P.base.n)

    def func(x, t):
        return P.eval(x, t) * cutoff.eval(x, t)

    return ScalarField(
        func, P.base.n, tail="compact", support=cutoff.support, name="jet_source"
    )


def difference_field(
    f: ScalarField,
    P: ParabolicPolynomial,
    params: FracParams,
    center: Optional[SpaceTimePoint] = None,
    cutoff: Optional[ScalarField] = None,
) -> ScalarField:
    """f - J with J = P * psi, as a compact field (both pieces are compact)."""
    center = center or SpaceTimePoint.of(np.zeros(params.n), 0.0)
    J = jet_source(P, cutoff)

    def diff_eval(x, t):
        return f.eval(x, t) - J.eval(x, t)

    rad = J.support.radius
    t_span = max(J.support.t_hi - center.t, center.t - J.support.t_lo)
    if f.support is not None:
        rad = max(
            rad,
            f.support.radius
            + float(np.linalg.norm(f.support.center.x_array() - center.x_array())),
        )
        t_span = max(t_span, f.support.t_hi - center.t, center.t - f.support.t_lo)
    diff_support = ParabolicCylinder(
        center, max(rad, math.sqrt(max(t_span, 1e-12))) * 1.0000001, "two"
    )
    return ScalarField(
        diff_eval, params.n, tail="compact", support=diff_support, name="f_minus_jet"
    )


@dataclass
class DecompositionBundle:
    """Callable handles for the nine pieces of the cylinder decomposition.

    Each entry maps a SpaceTimePoint to (value, error_estimate).  The
    identities u = v_r + w_r, w_1 = S_r + T_r + u_P and V_P = W_{P,1} + u_P
    hold pointwise: v_r and w_r split f on the two-sided cylinder of radius
    r; w_1, S_r, T_r and u_P restrict to past cylinders, S_r and T_r
    carrying f - J; W_P is J outside the past cylinder of radius r (so
    W_{P,1} at r = 1) and V_P is J unrestricted.
    """

    r: float
    P: ParabolicPolynomial
    params: FracParams
    u: Callable
    v_r: Callable
    w_r: Callable
    w_1: Callable
    S_r: Callable
    T_r: Callable
    u_P: Callable
    W_P: Callable
    V_P: Callable


def _piece_sources(
    f: ScalarField,
    P: ParabolicPolynomial,
    r: float,
    params: FracParams,
    center: SpaceTimePoint,
    cutoff: Optional[ScalarField] = None,
) -> dict:
    """The restricted source every decomposition piece at radius r convolves,
    with J = P * cutoff."""
    J = jet_source(P, cutoff)
    fmJ = difference_field(f, P, params, center=center, cutoff=cutoff)
    past_r = ParabolicCylinder(center, r, sided="past")
    past_1 = ParabolicCylinder(center, 1.0, sided="past")
    two_r = ParabolicCylinder(center, r, sided="two")
    table = {
        "u": (f, ()),
        "v_r": (f, [(two_r, False)]),
        "w_r": (f, [(two_r, True)]),
        "w_1": (f, [(past_1, True)]),
        "S_r": (fmJ, [(past_r, True)]),
        "T_r": (fmJ, [(past_1, True), (past_r, False)]),
        "u_P": (J, [(past_1, True)]),
        "W_P": (J, [(past_r, False)]),
        "V_P": (J, ()),
    }
    return {name: RestrictedSource(*src) for name, src in table.items()}


def decompose_internal(
    f: ScalarField,
    P: ParabolicPolynomial,
    r: float,
    params: FracParams,
    center: Optional[SpaceTimePoint] = None,
    quad: QuadratureSpec = QuadratureSpec(),
    cutoff: Optional[ScalarField] = None,
) -> DecompositionBundle:
    """Build the full internal/external decomposition at radius r."""
    if not 0 < r <= 1:
        raise ValueError("r must lie in (0, 1]")
    center = center or SpaceTimePoint.of(np.zeros(params.n), 0.0)

    def piece(src):
        return lambda pt: kernel_convolve(src, pt, params, quad)

    pieces = _piece_sources(f, P, r, params, center, cutoff)
    return DecompositionBundle(
        r=r, P=P, params=params, **{name: piece(src) for name, src in pieces.items()}
    )


def cylinder_average(
    eval_fn: Callable,
    cyl: ParabolicCylinder,
    grid: tuple = (64, 64),
    absolute: bool = True,
) -> float:
    """Midpoint tensor average of |g| (or g) over a past cylinder, n = 1."""
    if cyl.center.n != 1:
        raise NotImplementedError("cylinder averages implemented for n = 1")
    nx, nt = grid
    cx = cyl.center.x[0]
    xs = cx + cyl.radius * (2.0 * (np.arange(nx) + 0.5) / nx - 1.0)
    ts = cyl.t_lo + (cyl.t_hi - cyl.t_lo) * (np.arange(nt) + 0.5) / nt
    vals = np.empty((nt, nx))
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            vals[i, j] = eval_fn(SpaceTimePoint.of([x], t))
    return float(np.mean(np.abs(vals) if absolute else vals))


def s_decay_probe(
    f: ScalarField,
    P: ParabolicPolynomial,
    radii: Sequence[float],
    params: FracParams,
    center: Optional[SpaceTimePoint] = None,
    quad: QuadratureSpec = QuadratureSpec(),
    grid: tuple = (64, 64),
) -> dict:
    """Average of |S_r| over the past cylinder Q_r for each radius.

    Returns {"radii", "averages", "slope"}: the slope is the least-squares
    fit of log average against log r, the decay exponent of the internal
    remainder.  Expected: k + alpha + 2s when f lies in C^{k+alpha} at the
    base point with jet P.
    """
    center = center or SpaceTimePoint.of(np.zeros(params.n), 0.0)
    radii = sorted(float(r) for r in radii)
    avgs = []
    for r in radii:
        src = _piece_sources(f, P, r, params, center)["S_r"]
        cyl = ParabolicCylinder(center, r, sided="past")

        def val(pt):
            return kernel_convolve(src, pt, params, quad, with_error=False)[0]

        avgs.append(cylinder_average(val, cyl, grid=grid))
    lr = np.log(np.asarray(radii))
    la = np.log(np.maximum(np.asarray(avgs), 1e-300))
    slope = float(np.polyfit(lr, la, 1)[0])
    return {"radii": list(radii), "averages": avgs, "slope": slope}
