"""Transverse potential profiles, the squeezing rescaling, and strengths.

A profile lives in tube coordinates of one segment: V(s, t) for s in
[0, L] and |t| < half_width, extended by zero outside the support.
Squeezing by eps replaces it with (w/eps) * V(s, (w/eps) * t), which keeps
the transverse integral

    alpha(s) = int_{-w}^{w} V(s, t) dt

invariant; alpha is the strength of the limiting concentrated interaction.
Profiles may carry complex values; all quadrature is Gauss-Legendre.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Network

__all__ = [
    "TubeProfile",
    "StrengthFunction",
    "ParameterError",
    "constant_profile",
    "separable_profile",
    "tabulated_profile",
    "scale_profile",
    "effective_alpha",
    "potential_from_alpha",
    "SqueezedPotential",
]


class ParameterError(ValueError):
    """Invalid squeezing or profile parameter."""


@dataclass(frozen=True)
class TubeProfile:
    """Transverse profile V(s, t) on segment `segment`, supported in |t| < half_width."""

    segment: int
    half_width: float
    kind: str
    fun: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        inside = np.abs(t) < self.half_width
        vals = np.where(inside, self.fun(s, np.where(inside, t, 0.0)), 0.0)
        return vals


@dataclass(frozen=True)
class StrengthFunction:
    """Per-segment strength alpha(s) (energy * length units)."""

    segment: int
    fun: Callable[[np.ndarray], np.ndarray]

    def __call__(self, s):
        return self.fun(np.asarray(s, dtype=float))

    def integral(self, length: float):
        """int_0^length alpha(s) ds by 16-point Gauss-Legendre."""
        half = 0.5 * length
        return half * (self(half * (_GQ16 + 1.0)) @ _GW16).item()

    @classmethod
    def constant(cls, segment: int, value):
        return cls(segment, lambda s, v=value: np.full_like(s, v, dtype=np.result_type(v, float)))


def constant_profile(segment: int, value, half_width: float) -> TubeProfile:
    """V(s, t) = value inside the tube, 0 outside."""
    dtype = np.result_type(value, float)

    def fun(s, t):
        return np.full(np.broadcast(s, t).shape, value, dtype=dtype)

    return TubeProfile(segment, float(half_width), "constant", fun)


def separable_profile(segment: int, g_s, g_t, half_width: float) -> TubeProfile:
    """V(s, t) = g_s(s) * g_t(t)."""

    def fun(s, t):
        return g_s(np.asarray(s, dtype=float)) * g_t(np.asarray(t, dtype=float))

    return TubeProfile(segment, float(half_width), "separable", fun)


def tabulated_profile(segment: int, s_grid, t_grid, values, half_width: float) -> TubeProfile:
    """Bilinear interpolation of a bounded value table on s_grid x t_grid,
    each grid strictly increasing with at least 2 nodes."""
    s_grid = np.asarray(s_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    values = np.asarray(values)
    for name, grid in (("s_grid", s_grid), ("t_grid", t_grid)):
        if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0):
            raise ParameterError(f"{name} must be strictly increasing with at least 2 nodes, "
                                 f"got {grid.tolist()}")
    if values.shape != (s_grid.size, t_grid.size):
        raise ParameterError("value table must have shape (len(s_grid), len(t_grid))")
    if not np.all(np.isfinite(values)):
        raise ParameterError("tabulated profile must be bounded")

    def fun(s, t):
        s = np.clip(s, s_grid[0], s_grid[-1])
        t = np.clip(t, t_grid[0], t_grid[-1])
        i = np.clip(np.searchsorted(s_grid, s) - 1, 0, s_grid.size - 2)
        j = np.clip(np.searchsorted(t_grid, t) - 1, 0, t_grid.size - 2)
        fs = (s - s_grid[i]) / (s_grid[i + 1] - s_grid[i])
        ft = (t - t_grid[j]) / (t_grid[j + 1] - t_grid[j])
        return (
            values[i, j] * (1 - fs) * (1 - ft)
            + values[i + 1, j] * fs * (1 - ft)
            + values[i, j + 1] * (1 - fs) * ft
            + values[i + 1, j + 1] * fs * ft
        )

    return TubeProfile(segment, float(half_width), "tabulated", fun)


def scale_profile(profile: TubeProfile, eps: float, beta: float) -> TubeProfile:
    """Squeeze the profile into |t| < eps: (s, t) -> (beta/eps) V(s, (beta/eps) t)."""
    if not 0.0 < eps <= beta:
        raise ParameterError(f"need 0 < eps <= beta, got eps={eps}, beta={beta}")
    ratio = beta / eps

    def fun(s, t, _f=profile.fun, _r=ratio):
        return _r * _f(s, _r * t)

    return TubeProfile(profile.segment, float(eps), profile.kind, fun)


_GQ16, _GW16 = np.polynomial.legendre.leggauss(16)


def effective_alpha(profile: TubeProfile) -> StrengthFunction:
    """Transverse integral alpha(s) = int_{-w}^{w} V(s, t) dt by 16-point
    Gauss-Legendre."""
    w = profile.half_width
    tq = w * _GQ16
    tw = w * _GW16

    def fun(s, _p=profile.fun):
        scalar = np.ndim(s) == 0
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        vals = _p(s_arr[:, None], tq[None, :]) @ tw
        if not np.all(np.isfinite(vals)):
            raise ParameterError("transverse quadrature of the profile is not finite")
        return vals[0] if scalar else vals

    return StrengthFunction(profile.segment, fun)


def potential_from_alpha(alpha: StrengthFunction, beta: float) -> TubeProfile:
    """Constant-in-t profile alpha(s) / (2 beta) whose transverse integral is alpha."""
    if beta <= 0.0:
        raise ParameterError("beta must be positive")

    def fun(s, t, _a=alpha.fun, _b=beta):
        return _a(s) / (2.0 * _b) * np.ones_like(np.asarray(t, dtype=float))

    return TubeProfile(alpha.segment, float(beta), "separable", fun)


class SqueezedPotential:
    """Squeezed network potential sum_k V_eps^(k) as a point function on the plane.

    Vectorized callable on coordinate arrays.  A point inside several
    eps-tubes is owned by the lowest segment index; the overlap set has
    measure zero for transversal junctions, so integrals are unaffected.
    """

    def __init__(self, net: Network, profiles, eps: float):
        if not 0.0 < eps <= net.beta:
            raise ParameterError(f"need 0 < eps <= beta={net.beta}, got eps={eps}")
        self.net = net
        self.eps = float(eps)
        self.by_segment = {}
        for p in profiles:
            if p.segment in self.by_segment:
                raise ParameterError(f"segment {p.segment} has two profiles")
            self.by_segment[p.segment] = scale_profile(p, eps, net.beta)
        self.pad = 1.01 * self.eps  # bounding-box margin of a segment's candidates

    # relative half-value band around |t| = eps: quadrature points that land
    # exactly on the support edge (tube aligned with mesh lines) take half
    # the profile value, the midpoint-rule convention for indicator jumps
    _EDGE_BAND = 1e-9

    def support_mask(self, lo, hi):
        """Mask of the boxes [lo_i, hi_i] (corners (n, 2)) that meet some
        segment's candidate box: the potential vanishes on every other box."""
        mask = np.zeros(len(lo), dtype=bool)
        for k in self.by_segment:
            mask |= self.net.candidate_mask(k, lo, self.pad, upper=hi)
        return mask

    def __call__(self, x, y):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        pts = np.stack([x.ravel(), y.ravel()], axis=1)
        is_complex = any(
            np.iscomplexobj(p.fun(np.zeros(1), np.zeros(1)))
            for p in self.by_segment.values()
        )
        vals = np.zeros(len(pts), dtype=complex if is_complex else float)
        owned = np.zeros(len(pts), dtype=bool)
        band = self._EDGE_BAND * self.eps
        for k in sorted(self.by_segment):
            prof = self.by_segment[k]
            cand = self.net.candidate_mask(k, pts, pad=self.pad) & ~owned
            if not np.any(cand):
                continue
            s, t, inside = self.net.project_onto_segment(
                k, pts[cand], halfwidth=self.eps + band
            )
            take = np.where(cand)[0][inside]
            weight = np.where(np.abs(t[inside]) > self.eps - band, 0.5, 1.0)
            t_eval = np.clip(t[inside], -self.eps + band, self.eps - band)
            vals[take] = weight * prof.fun(s[inside], t_eval)
            owned[take] = True
        return vals.reshape(x.shape)

