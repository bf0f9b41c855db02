"""Planar curve networks, their normal bundles, and tube coordinates.

Every segment is parametrized by arc length s in [0, L].  The transverse
frame is fixed once per segment: the normal is the *left* normal of the
direction of travel, nu(s) = rot90(gamma'(s)) with rot90(x, y) = (-y, x),
and the signed curvature follows the Frenet convention gamma'' = kappa * nu
(so nu' = -kappa * gamma').  A point of the tube of half-width beta is
addressed by (s, t) through the offset map

    (s, t) -> gamma(s) + t * nu(s),    |t| < beta,

which is injective as long as beta stays below both the curvature bound
1/(2 sup|kappa|) and half the minimal distance between non-adjacent
segments; `compute_beta` certifies such a beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.spatial import cKDTree

__all__ = [
    "CurveSegment",
    "LineSegment",
    "CircularArc",
    "CuspBranch",
    "SplineSegment",
    "Network",
    "DomainError",
    "TubeError",
    "NetworkConstructionError",
    "curvature",
    "tube_map",
    "tube_jacobian",
    "compute_beta",
]


class DomainError(ValueError):
    """Arc-length parameter outside [0, L]."""


class TubeError(ValueError):
    """Offset |t| at or beyond the certified tube half-width."""


class NetworkConstructionError(ValueError):
    """Segments overlap on a set of positive length."""


def _rot90(v):
    """Left rotation by 90 degrees: (x, y) -> (-y, x).  v has shape (..., 2)."""
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


def _as_s_array(s, length, tol=1e-9):
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s_arr < -tol * max(length, 1.0)) or np.any(
        s_arr > length * (1.0 + tol) + tol
    ):
        raise DomainError(
            f"arc length parameter outside [0, {length}]: "
            f"range [{s_arr.min()}, {s_arr.max()}]"
        )
    return np.clip(s_arr, 0.0, length), np.isscalar(s) or np.ndim(s) == 0


class CurveSegment:
    """Base class: an arc-length parametrized planar C^2 curve piece."""

    kind = "abstract"
    length: float

    def point(self, s):
        """Position gamma(s); shape (2,) for scalar s, (n, 2) for arrays."""
        raise NotImplementedError

    def tangent(self, s):
        """Unit tangent gamma'(s)."""
        raise NotImplementedError

    def normal(self, s):
        """Left unit normal nu(s) = rot90(gamma'(s))."""
        s_arr, scalar = _as_s_array(s, self.length)
        nu = _rot90(np.atleast_2d(self._tangent_arr(s_arr)))
        return nu[0] if scalar else nu

    def curvature(self, s):
        """Signed curvature with respect to the left normal."""
        raise NotImplementedError

    def max_curvature(self) -> float:
        """sup |kappa| over the segment (cusp kinds exclude their collar)."""
        raise NotImplementedError

    def _tangent_arr(self, s_arr):
        return np.atleast_2d(self.tangent(s_arr))

    @property
    def endpoints(self):
        return self.point(0.0), self.point(self.length)


class LineSegment(CurveSegment):
    """Straight segment between two endpoints."""

    kind = "line"

    def __init__(self, p0, p1):
        self.p0 = np.asarray(p0, dtype=float)
        self.p1 = np.asarray(p1, dtype=float)
        self.length = float(np.linalg.norm(self.p1 - self.p0))
        if self.length <= 0.0:
            raise NetworkConstructionError("line segment with zero length")
        self._dir = (self.p1 - self.p0) / self.length

    def point(self, s):
        s_arr, scalar = _as_s_array(s, self.length)
        p = self.p0[None, :] + s_arr[:, None] * self._dir[None, :]
        return p[0] if scalar else p

    def tangent(self, s):
        s_arr, scalar = _as_s_array(s, self.length)
        t = np.broadcast_to(self._dir, (s_arr.size, 2)).copy()
        return t[0] if scalar else t

    def curvature(self, s):
        s_arr, scalar = _as_s_array(s, self.length)
        k = np.zeros(s_arr.size)
        return float(k[0]) if scalar else k

    def max_curvature(self):
        return 0.0


class CircularArc(CurveSegment):
    """Arc of a circle, traversed from theta0 to theta1 (radians).

    Counterclockwise travel (theta1 > theta0) gives the inward-pointing left
    normal and signed curvature +1/R; clockwise travel flips both signs.
    A full circle is the closed arc theta1 = theta0 + 2*pi.
    """

    kind = "arc"

    def __init__(self, center, radius, theta0, theta1):
        if radius <= 0.0:
            raise NetworkConstructionError("arc radius must be positive")
        if theta1 == theta0:
            raise NetworkConstructionError("arc with zero opening angle")
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.theta0 = float(theta0)
        self.theta1 = float(theta1)
        self._sgn = 1.0 if theta1 > theta0 else -1.0
        self.length = self.radius * abs(theta1 - theta0)

    def _theta(self, s_arr):
        return self.theta0 + self._sgn * s_arr / self.radius

    def point(self, s):
        s_arr, scalar = _as_s_array(s, self.length)
        th = self._theta(s_arr)
        p = self.center[None, :] + self.radius * np.stack(
            [np.cos(th), np.sin(th)], axis=1
        )
        return p[0] if scalar else p

    def tangent(self, s):
        s_arr, scalar = _as_s_array(s, self.length)
        th = self._theta(s_arr)
        t = self._sgn * np.stack([-np.sin(th), np.cos(th)], axis=1)
        return t[0] if scalar else t

    def curvature(self, s):
        s_arr, scalar = _as_s_array(s, self.length)
        k = np.full(s_arr.size, self._sgn / self.radius)
        return float(k[0]) if scalar else k

    def max_curvature(self):
        return 1.0 / self.radius


class CuspBranch(CurveSegment):
    """One branch of a power cusp, y = sign * x**d for x in [0, x_max], d > 1.

    Travel is in the direction of increasing x.  The arc-length coordinate
    s(x) = int_0^x sqrt(1 + d^2 xi^(2d-2)) dxi is tabulated on a graded grid
    and inverted with Newton corrections, so positions stay consistent with
    the arc-length parametrization to ~1e-12.  For d < 2 the curvature blows
    up at the cusp tip; `max_curvature` then excludes the collar [0, collar).
    """

    kind = "cusp"

    _TABLE_N = 4096
    _GQ, _GW = np.polynomial.legendre.leggauss(16)

    def __init__(self, exponent, sign=1.0, x_max=1.0, collar=1e-3):
        if exponent <= 1.0:
            raise NetworkConstructionError("cusp exponent must exceed 1")
        if x_max <= 0.0:
            raise NetworkConstructionError("cusp branch needs x_max > 0")
        self.exponent = float(exponent)
        self.sign = 1.0 if sign >= 0 else -1.0
        self.x_max = float(x_max)
        self.collar = float(collar)
        # graded table x_j = x_max * (j/N)^2 resolves the metric near x = 0
        j = np.arange(self._TABLE_N + 1)
        self._xt = self.x_max * (j / self._TABLE_N) ** 2
        self._st = np.concatenate(
            [[0.0], np.cumsum(self._panel_lengths(self._xt[:-1], self._xt[1:]))]
        )
        self.length = float(self._st[-1])

    def _speed(self, x):
        d = self.exponent
        return np.sqrt(1.0 + (d * x ** (d - 1.0)) ** 2)

    def _panel_lengths(self, a, b):
        # 16-point Gauss-Legendre per panel of the arclength integrand
        mid = 0.5 * (a + b)[:, None]
        half = 0.5 * (b - a)[:, None]
        return (self._speed(mid + half * self._GQ[None, :]) * self._GW[None, :]).sum(
            axis=1
        ) * half[:, 0]

    def _x_of_s(self, s_arr):
        x = np.interp(s_arr, self._st, self._xt)
        # two Newton corrections on s(x) - s = 0, ds/dx = speed(x)
        for _ in range(2):
            i = np.clip(np.searchsorted(self._xt, x) - 1, 0, self._TABLE_N - 1)
            s_here = self._st[i] + self._panel_lengths(self._xt[i], x)
            x = np.clip(x - (s_here - s_arr) / self._speed(x), 0.0, self.x_max)
        return x

    def point(self, s):
        s_arr, scalar = _as_s_array(s, self.length)
        x = self._x_of_s(s_arr)
        p = np.stack([x, self.sign * x**self.exponent], axis=1)
        return p[0] if scalar else p

    def tangent(self, s):
        s_arr, scalar = _as_s_array(s, self.length)
        x = self._x_of_s(s_arr)
        d = self.exponent
        t = np.stack([np.ones_like(x), self.sign * d * x ** (d - 1.0)], axis=1)
        t /= np.linalg.norm(t, axis=1, keepdims=True)
        return t[0] if scalar else t

    def curvature(self, s):
        s_arr, scalar = _as_s_array(s, self.length)
        x = self._x_of_s(s_arr)
        k = self._kappa_of_x(x)
        return float(k[0]) if scalar else k

    def _kappa_of_x(self, x):
        d = self.exponent
        with np.errstate(divide="ignore"):
            # for d < 2 the second derivative, hence kappa, blows up at x = 0
            ypp = d * (d - 1.0) * np.asarray(x, dtype=float) ** (d - 2.0)
        return self.sign * ypp / (1.0 + (d * x ** (d - 1.0)) ** 2) ** 1.5

    def max_curvature(self):
        lo = self.collar if self.exponent < 2.0 else 0.0
        x = np.linspace(lo, self.x_max, 4097)
        return float(np.max(np.abs(self._kappa_of_x(x))))


class SplineSegment(CurveSegment):
    """Cubic spline through sampled control points, reparametrized to arc length.

    Curvature is exact in the spline parameter u:
    kappa = (x' y'' - y' x'') / |gamma'|^3, with ' = d/du.
    """

    kind = "spline"

    _TABLE_N = 4096
    _GQ, _GW = np.polynomial.legendre.leggauss(16)

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 4 or pts.shape[1] != 2:
            raise NetworkConstructionError("spline needs at least 4 control points")
        self.points = pts
        chord = np.concatenate(
            [[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))]
        )
        self._spl = CubicSpline(chord, pts, axis=0)
        self._du = self._spl.derivative()
        self._d2u = self._du.derivative()
        u = np.linspace(0.0, chord[-1], self._TABLE_N + 1)
        self._ut = u
        self._st = np.concatenate(
            [[0.0], np.cumsum(self._panel_lengths(u[:-1], u[1:]))]
        )
        self.length = float(self._st[-1])

    def _speed(self, u):
        return np.linalg.norm(np.atleast_2d(self._du(u)), axis=1)

    def _panel_lengths(self, a, b):
        mid = 0.5 * (a + b)[:, None]
        half = 0.5 * (b - a)[:, None]
        uq = mid + half * self._GQ[None, :]
        sp = np.linalg.norm(self._du(uq.ravel()), axis=1).reshape(uq.shape)
        return (sp * self._GW[None, :]).sum(axis=1) * half[:, 0]

    def _u_of_s(self, s_arr):
        u = np.interp(s_arr, self._st, self._ut)
        for _ in range(2):
            i = np.clip(np.searchsorted(self._ut, u) - 1, 0, self._TABLE_N - 1)
            s_here = self._st[i] + self._panel_lengths(self._ut[i], u)
            u = np.clip(u - (s_here - s_arr) / self._speed(u), 0.0, self._ut[-1])
        return u

    def point(self, s):
        s_arr, scalar = _as_s_array(s, self.length)
        p = np.atleast_2d(self._spl(self._u_of_s(s_arr)))
        return p[0] if scalar else p

    def tangent(self, s):
        s_arr, scalar = _as_s_array(s, self.length)
        t = np.atleast_2d(self._du(self._u_of_s(s_arr)))
        t = t / np.linalg.norm(t, axis=1, keepdims=True)
        return t[0] if scalar else t

    def curvature(self, s):
        s_arr, scalar = _as_s_array(s, self.length)
        u = self._u_of_s(s_arr)
        d1 = np.atleast_2d(self._du(u))
        d2 = np.atleast_2d(self._d2u(u))
        k = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / np.linalg.norm(d1, axis=1) ** 3
        return float(k[0]) if scalar else k

    def max_curvature(self):
        s = np.linspace(0.0, self.length, 2049)[1:-1]
        return float(np.max(np.abs(self.curvature(s))))


# ---------------------------------------------------------------------------
# module-level operations


def curvature(seg: CurveSegment, s):
    """Signed curvature of the segment at arc length s."""
    return seg.curvature(s)


def tube_map(seg: CurveSegment, s, t, beta=None):
    """Offset point gamma(s) + t * nu(s); enforces |t| < beta when beta given."""
    if beta is not None and np.any(np.abs(t) >= beta):
        raise TubeError(f"offset |t| >= beta = {beta}")
    p = seg.point(s)
    nu = seg.normal(s)
    return p + np.expand_dims(np.asarray(t, dtype=float), -1) * nu


def tube_jacobian(seg: CurveSegment, s, t, beta=None):
    """Area weight 1 - t * kappa(s) of the tube coordinates at (s, t)."""
    if beta is not None and np.any(np.abs(t) >= beta):
        raise TubeError(f"offset |t| >= beta = {beta}")
    return 1.0 - np.asarray(t, dtype=float) * seg.curvature(s)


_SAMPLES = 2048  # points per segment for tube widths and projection starts
_ENDPOINT_TOL = 1e-8  # endpoints closer than this are shared


def compute_beta(segments, beta_cap):
    """Certified tube half-width: min(cap, 1/(2 sup|kappa|), d_min / 2).

    d_min is the minimal distance between the _SAMPLES points per segment of
    non-adjacent segments (segments sharing an endpoint are exempt; their
    overlap near the shared vertex is the accepted measure-zero set).  A
    near-zero d_min that persists over many sample pairs signals an overlap
    of positive length and raises NetworkConstructionError.
    """
    if not segments:
        raise NetworkConstructionError("network needs at least one segment")
    if beta_cap <= 0.0:
        raise NetworkConstructionError("beta_cap must be positive")

    sup_kappa = max(seg.max_curvature() for seg in segments)
    beta = beta_cap if sup_kappa == 0.0 else min(beta_cap, 0.5 / sup_kappa)

    pts = [seg.point(np.linspace(0.0, seg.length, _SAMPLES)) for seg in segments]
    ends = [(seg.point(0.0), seg.point(seg.length)) for seg in segments]

    def adjacent(k, l):
        return any(
            np.linalg.norm(a - b) < _ENDPOINT_TOL
            for a in ends[k]
            for b in ends[l]
        )

    d_min = np.inf
    for k in range(len(segments)):
        for l in range(k + 1, len(segments)):
            if adjacent(k, l):
                continue
            d, _ = cKDTree(pts[l]).query(pts[k])
            n_touch = int(np.sum(d < _ENDPOINT_TOL))
            if n_touch > max(2, _SAMPLES // 100):
                raise NetworkConstructionError(
                    f"segments {k} and {l} overlap on positive length"
                )
            d_min = min(d_min, float(d.min()))
    if d_min <= 1e-12:
        raise NetworkConstructionError("distinct segments coincide at sampled points")
    return min(beta, d_min / 2.0)


@dataclass(frozen=True)
class _Projector:
    """Closest-point machinery of one segment (samples + KD-tree)."""

    s_samples: np.ndarray
    tree: cKDTree


class Network:
    """Ordered segments with a certified tube half-width beta.

    Immutable after construction; the per-segment sample caches and KD-trees
    are built eagerly so instances can be shared between threads.
    """

    def __init__(self, segments, beta_cap):
        self.segments = tuple(segments)
        self.beta_cap = float(beta_cap)
        self.beta = compute_beta(self.segments, self.beta_cap)
        self._proj = []
        for seg in self.segments:
            s = np.linspace(0.0, seg.length, _SAMPLES)
            self._proj.append(_Projector(s, cKDTree(seg.point(s))))
        self._bboxes = [
            (p.tree.mins.copy(), p.tree.maxes.copy()) for p in self._proj
        ]

    def __len__(self):
        return len(self.segments)

    def tube_map(self, k: int, s, t):
        return tube_map(self.segments[k], s, t, beta=self.beta)

    def tube_jacobian(self, k: int, s, t):
        return tube_jacobian(self.segments[k], s, t, beta=self.beta)

    def project_onto_segment(self, k: int, points, *, halfwidth=None):
        """Tube coordinates of `points` (n, 2) relative to segment k.

        Returns (s, t, inside) where inside marks points that admit the exact
        representation point = gamma(s) + t * nu(s) with |t| < halfwidth
        (default: the network beta).  Newton refinement of the closest-point
        projection from a KD-tree start; residuals below 1e-9 (relative to
        1 + |point|) are accepted.
        """
        seg = self.segments[k]
        proj = self._proj[k]
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        hw = self.beta if halfwidth is None else halfwidth
        _, idx = proj.tree.query(pts)
        s = proj.s_samples[idx]
        for _ in range(8):
            g = seg.point(s)
            tg = seg.tangent(s)
            nu = _rot90(tg)
            diff = pts - g
            t = np.einsum("ij,ij->i", diff, nu)
            gval = np.einsum("ij,ij->i", diff, tg)
            gp = -(1.0 - seg.curvature(s) * t)
            gp = np.where(np.abs(gp) < 0.1, -np.sign(gp + 1e-300) * 0.1, gp)
            s = np.clip(s - gval / gp, 0.0, seg.length)
        g = seg.point(s)
        nu = _rot90(seg.tangent(s))
        diff = pts - g
        t = np.einsum("ij,ij->i", diff, nu)
        resid = np.linalg.norm(diff - t[:, None] * nu, axis=1)
        scale = 1.0 + np.linalg.norm(pts, axis=1)
        inside = (resid <= 1e-9 * scale) & (np.abs(t) < hw)
        return s, t, inside

    def inverse_tube_map(self, point):
        """(k, s, t) of the lowest-index segment whose tube contains `point`.

        Returns None when the point lies outside every tube.  Near shared
        endpoints several tubes may claim the point; the lowest segment index
        owns it.
        """
        pts = np.asarray(point, dtype=float)[None, :]
        for k in range(len(self.segments)):
            s, t, inside = self.project_onto_segment(k, pts)
            if inside[0]:
                return k, float(s[0]), float(t[0])
        return None

    def candidate_mask(self, k: int, points, pad: float):
        """Cheap bounding-box prefilter for projection queries."""
        lo, hi = self._bboxes[k]
        pts = np.atleast_2d(points)
        return np.all((pts >= lo - pad) & (pts <= hi + pad), axis=1)

    def sampled_distance(self, k: int, points):
        """Distance of points (n, 2) to the sample cloud of segment k."""
        d, _ = self._proj[k].tree.query(np.atleast_2d(points))
        return d

    def collision_check(self, n_pairs: int = 10_000, seed: int = 0, tol: float = 1e-9):
        """Sampled injectivity diagnostic of the tube coordinates.

        Draws random (k, s, t) pairs, maps them through the tube map, and
        reports collisions between distinct coordinates whose images agree to
        `tol` while not both lying within 2*beta of a shared endpoint.
        Returns the number of violations.
        """
        rng = np.random.default_rng(seed)
        ks = rng.integers(0, len(self.segments), size=n_pairs)
        pts = np.empty((n_pairs, 2))
        ss = np.empty(n_pairs)
        ts = rng.uniform(-self.beta, self.beta, size=n_pairs) * (1 - 1e-12)
        for k in range(len(self.segments)):
            m = ks == k
            ss[m] = rng.uniform(0.0, self.segments[k].length, size=m.sum())
            pts[m] = self.segments[k].point(ss[m]) + ts[m, None] * self.segments[
                k
            ].normal(ss[m])
        tree = cKDTree(pts)
        pairs = tree.query_pairs(tol, output_type="ndarray")
        ends = np.array(
            [e for seg in self.segments for e in seg.endpoints]
        ).reshape(-1, 2)
        violations = 0
        for i, j in pairs:
            same = ks[i] == ks[j] and abs(ss[i] - ss[j]) < 1e-6 and abs(
                ts[i] - ts[j]
            ) < 1e-6
            if same:
                continue
            near_end = np.min(
                np.linalg.norm(ends - pts[i], axis=1)
            ) < 2 * self.beta and np.min(
                np.linalg.norm(ends - pts[j], axis=1)
            ) < 2 * self.beta
            if not near_end:
                violations += 1
        return violations
