"""Catalog of concrete scalar fields used by the CLI and the experiments.

Every constructor returns a ScalarField that declares its support, symbol,
bound or time floor, so quadrature routines know how to truncate.  All
bump-based sources are nonnegative by construction (smooth compactly
supported mollifier shapes, never a clipped max(., 0)).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .core import ParabolicCylinder, ParabolicPolynomial, ScalarField, SpaceTimePoint

__all__ = [
    "constant",
    "exp_symbol",
    "gaussian_bump",
    "power_cusp",
    "polynomial_field",
    "time_profile",
    "make_field",
]


def constant(value: float, n: int = 1) -> ScalarField:
    v = float(value)

    def func(x, t):
        return np.full(np.shape(t), v)

    return ScalarField(func, n, bound=abs(v), name=f"constant({value})")


def exp_symbol(lam: float, k, n: int = 1) -> ScalarField:
    """Eigen-style field exp(lam*t) * cos(k . x)."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if len(k) != n:
        raise ValueError("frequency vector length must equal n")

    def func(x, t):
        return np.exp(lam * t) * np.cos(x @ k)

    return ScalarField(
        func,
        n,
        symbol_params=(lam, tuple(k.tolist())),
        name=f"exp_symbol(lam={lam},k={k.tolist()})",
    )


def gaussian_bump(
    center=(0.0,), t_center: float = 0.0, width: float = 1.0, t_width: float = 1.0,
    n: int = 1, amplitude: float = 1.0,
) -> ScalarField:
    """Smooth nonnegative bump, compactly supported.

    exp(1 - 1/(1 - q)) on q < 1, zero elsewhere, with the elliptical
    argument q = |x - c|^2/width^2 + (t - tc)^2/t_width^2.  Peaks at
    `amplitude`, support contained in the box |x-c| < width,
    |t - tc| < t_width.
    """
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if len(c) != n:
        raise ValueError("center length must equal n")

    def func(x, t):
        d = x - c
        r2 = d[..., 0] * d[..., 0] if n == 1 else np.sum(d * d, axis=-1)
        q = r2 / width**2 + (t - t_center) ** 2 / t_width**2
        inside = q < 1.0
        out = np.zeros(q.shape)
        out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - q[inside]))  # only on the support
        return out

    rad = max(width, math.sqrt(t_width))
    support = ParabolicCylinder(
        SpaceTimePoint.of(c, t_center), rad * 1.0000001, sided="two"
    )
    return ScalarField(
        func,
        n,
        support=support,
        bound=amplitude,
        name=f"gaussian_bump(w={width},tw={t_width})",
    )


def power_cusp(
    beta: float,
    direction: str = "space",
    bump: Optional[ScalarField] = None,
    n: int = 1,
) -> ScalarField:
    """|x|^beta (or |t|^(beta/2) in time direction) times a smooth bump.

    The cusp sits at the origin of space-time; the bump keeps the field
    compactly supported and nonnegative.  In space the field lies in
    C^(floor(beta)+frac) at the origin with vanishing jet.  The field
    declares the cusp as a singular point, ("space", (0.0,) * n) or
    ("time", 0.0), after any that the bump declares.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if direction not in ("space", "time"):
        raise ValueError("direction must be 'space' or 'time'")
    bump = bump if bump is not None else gaussian_bump(np.zeros(n), 0.0, 0.75, 0.75, n=n)

    def func(x, t):
        base = bump.eval(x, t)
        if direction == "space":
            x = np.atleast_2d(x)
            cusp = (x[..., 0] * x[..., 0] if n == 1 else np.sum(x * x, axis=-1)) ** (beta / 2.0)
        else:
            cusp = np.abs(t) ** (beta / 2.0)
        return base * cusp

    return ScalarField(
        func,
        n,
        support=bump.support,
        bound=bump.bound,
        name=f"power_cusp(beta={beta},{direction})",
        singular_points=bump.singular_points
        + ((direction, (0.0,) * n if direction == "space" else 0.0),),
    )


def polynomial_field(p: ParabolicPolynomial, cut: Optional[ScalarField] = None) -> ScalarField:
    """Field given by a parabolic polynomial, optionally times a cutoff field."""
    n = p.base.n

    def func(x, t):
        vals = p.eval(x, t)
        if cut is not None:
            vals = vals * cut.eval(x, t)
        return vals

    support = None if cut is None else cut.support
    return ScalarField(func, n, support=support,
                       name="polynomial" if cut is None else "polynomial*cutoff",
                       singular_points=() if cut is None else cut.singular_points)


def time_profile(func, time_floor: Optional[float] = None,
                 bound: Optional[float] = None) -> ScalarField:
    """Purely temporal field u(t) wrapped as a ScalarField on n = 1."""

    def f(x, t):
        return np.asarray(func(np.asarray(t, dtype=float)), dtype=float)

    return ScalarField(f, 1, bound=bound, time_floor=time_floor, name="time_profile")


def make_field(spec, n: int = 1) -> ScalarField:
    """Build a field from a JSON-style spec: {"kind": name, ...params}."""
    if isinstance(spec, ScalarField):
        return spec
    if isinstance(spec, str):
        spec = {"kind": spec}
    kind = spec.get("kind")
    if kind == "constant":
        return constant(spec.get("value", 1.0), n=n)
    if kind == "exp_symbol":
        return exp_symbol(spec.get("lam", 1.0), spec.get("k", [0.0] * n), n=n)
    if kind == "gaussian_bump":
        return gaussian_bump(
            spec.get("center", [0.0] * n),
            spec.get("t_center", 0.0),
            spec.get("width", 1.0),
            spec.get("t_width", 1.0),
            n=n,
            amplitude=spec.get("amplitude", 1.0),
        )
    if kind == "power_cusp":
        inner = spec.get("bump")
        bump = make_field(inner, n=n) if inner else None
        return power_cusp(
            spec.get("beta", 0.5), spec.get("direction", "space"), bump=bump, n=n
        )
    if kind == "polynomial":
        p = ParabolicPolynomial.from_dict(spec["poly"])
        return polynomial_field(p)
    raise ValueError(f"unknown field kind {kind!r}")
