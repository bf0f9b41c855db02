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

Each segment kind has one exact closest-point routine, `closest`, behind
both the inverse of the offset map (`Network.project_onto_segment`) and the
distance to the curve (`Network.sampled_distance`).  Lines clamp their
projection to [0, L]; arcs clamp the polar angle to their angular range.
Cusp branches and splines run Newton on their native parameter (x, or the
spline's chord-length parameter) from the nearest node of a coarse sample,
and convert to arc length once, by forward quadrature.  The tube width
(`compute_beta`) measures the distance of curve samples to the other
segments with the same routine.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded

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
    """Base class: an arc-length parametrized planar C^2 curve piece.  The
    evaluators check s against [0, L] and shape their result once; each kind
    supplies `_point`, `_tangent` and `_curvature` on the checked array."""

    kind = "abstract"
    length: float

    def _at(self, fn, s):
        s_arr, scalar = _as_s_array(s, self.length)
        v = fn(s_arr)
        if not scalar:
            return v
        return v[0] if v.ndim > 1 else float(v[0])

    def point(self, s):
        """Position gamma(s); shape (2,) for scalar s, (n, 2) for arrays."""
        return self._at(self._point, s)

    def tangent(self, s):
        """Unit tangent gamma'(s)."""
        return self._at(self._tangent, s)

    def normal(self, s):
        """Left unit normal nu(s) = rot90(gamma'(s))."""
        return self._at(lambda s_arr: _rot90(self._tangent(s_arr)), s)

    def curvature(self, s):
        """Signed curvature with respect to the left normal."""
        return self._at(self._curvature, s)

    def max_curvature(self) -> float:
        """sup |kappa| over the segment (cusp kinds exclude their collar)."""
        raise NotImplementedError

    def closest(self, points):
        """Closest points of the segment to `points` (n, 2): (s, q, tau) with
        the arc length s of each, the point q = gamma(s) and the unit tangent
        tau = gamma'(s) there, each row for one point."""
        raise NotImplementedError

    def bbox(self):
        """(lo, hi) corners of the axis-aligned bounding box.  The endpoints'
        box, which holds the curves monotone in x and y (lines, cusp
        branches); other kinds override it."""
        p0, p1 = self.endpoints
        return np.minimum(p0, p1), np.maximum(p0, p1)

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

    def _point(self, s_arr):
        return self.p0[None, :] + s_arr[:, None] * self._dir[None, :]

    def _tangent(self, s_arr):
        return np.broadcast_to(self._dir, (s_arr.size, 2)).copy()

    def _curvature(self, s_arr):
        return np.zeros(s_arr.size)

    def max_curvature(self):
        return 0.0

    def closest(self, points):
        s = np.clip((points - self.p0) @ self._dir, 0.0, self.length)
        return s, self.p0 + s[:, None] * self._dir, np.tile(self._dir, (len(s), 1))


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
        self._span = abs(theta1 - theta0)
        self.length = self.radius * self._span

    def _theta(self, s_arr):
        return self.theta0 + self._sgn * s_arr / self.radius

    def _travelled(self, theta):
        """Angle in [0, 2 pi] from theta0 to the polar angle theta, measured
        in the direction of travel."""
        return np.mod(self._sgn * (theta - self.theta0), 2.0 * np.pi)

    def _point(self, s_arr):
        th = self._theta(s_arr)
        return self.center[None, :] + self.radius * np.stack(
            [np.cos(th), np.sin(th)], axis=1
        )

    def _tangent(self, s_arr):
        th = self._theta(s_arr)
        return self._sgn * np.stack([-np.sin(th), np.cos(th)], axis=1)

    def _curvature(self, s_arr):
        return np.full(s_arr.size, self._sgn / self.radius)

    def max_curvature(self):
        return 1.0 / self.radius

    def closest(self, points):
        rel = points - self.center
        r = self._travelled(np.arctan2(rel[:, 1], rel[:, 0]))
        # outside the angular range the endpoint nearer in angle is nearer
        end = np.where(r - self._span < 2.0 * np.pi - r, self._span, 0.0)
        s = self.radius * np.where(r <= self._span, r, end)
        return s, self.point(s), self.tangent(s)

    def bbox(self):
        axes = 0.5 * np.pi * np.arange(4)
        axes = axes[self._travelled(axes) <= self._span]
        pts = np.vstack([*self.endpoints, self.center + self.radius * np.stack(
            [np.cos(axes), np.sin(axes)], axis=1)])
        return pts.min(axis=0), pts.max(axis=0)


_CHUNK = 2048  # points per block of a nearest-sample search


def _nearest_sample(points, samples):
    """Index of the nearest of `samples` (m, 2) to each of `points` (n, 2),
    in blocks of points so the n x m distance table never exists."""
    idx = np.empty(len(points), dtype=np.intp)
    for i in range(0, len(points), _CHUNK):
        dx = points[i:i + _CHUNK, :1] - samples[:, 0]
        dy = points[i:i + _CHUNK, 1:] - samples[:, 1]
        dx *= dx
        dy *= dy
        dx += dy
        idx[i:i + _CHUNK] = np.argmin(dx, axis=1)
    return idx


class _TabulatedCurve(CurveSegment):
    """A curve gamma(u) given in a native parameter u in [0, u_max], with the
    arc length s(u) tabulated on _TABLE_N panels of 16-point Gauss-Legendre
    quadrature of the speed |gamma'(u)|.  Arc length is inverted with Newton
    corrections, so positions stay consistent with the arc-length
    parametrization to ~1e-12."""

    _TABLE_N = 4096
    _GQ, _GW = np.polynomial.legendre.leggauss(16)
    _COARSE = 64  # every 64th table node, ends included, starts a closest-point search
    _NEWTON_STEPS = 64  # bisection alone needs about 50 from the bracket

    def _tabulate(self, ut):
        self._ut = ut
        self._st = np.concatenate([[0.0], np.cumsum(self._panel_lengths(ut[:-1], ut[1:]))])
        self.length = float(self._st[-1])

    def _speed(self, u):
        """|gamma'(u)|, elementwise for u of any shape."""
        raise NotImplementedError

    def _derivs(self, u):
        """gamma(u), gamma'(u) and gamma''(u), each (n, 2), for u of shape (n,)."""
        raise NotImplementedError

    def _panel_lengths(self, a, b):
        mid = 0.5 * (a + b)[:, None]
        half = 0.5 * (b - a)[:, None]
        return (self._speed(mid + half * self._GQ[None, :]) * self._GW[None, :]).sum(
            axis=1
        ) * half[:, 0]

    def _arclength(self, u):
        """s(u) by forward quadrature from the nearest table node below u."""
        i = np.clip(np.searchsorted(self._ut, u) - 1, 0, self._TABLE_N - 1)
        return self._st[i] + self._panel_lengths(self._ut[i], u)

    def _param_of_s(self, s_arr):
        u = np.interp(s_arr, self._st, self._ut)
        # two Newton corrections on s(u) - s = 0, ds/du = speed(u)
        for _ in range(2):
            u = np.clip(u - (self._arclength(u) - s_arr) / self._speed(u), 0.0, self._ut[-1])
        return u

    def _point(self, s_arr):
        return self._derivs(self._param_of_s(s_arr))[0]

    def _tangent(self, s_arr):
        d1 = self._derivs(self._param_of_s(s_arr))[1]
        return d1 / np.linalg.norm(d1, axis=1, keepdims=True)

    def _curvature(self, s_arr):
        return self._kappa(self._param_of_s(s_arr))

    def _kappa(self, u):
        """Signed curvature (x' y'' - y' x'') / |gamma'|^3 at the native parameter u."""
        _, d1, d2 = self._derivs(u)
        return (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / np.linalg.norm(d1, axis=1) ** 3

    def closest(self, points):
        """Newton on the native parameter for the stationarity condition
        g(u) = (gamma(u) - p) . gamma'(u) = 0, started at the nearest node of
        a coarse sample and safeguarded by bisection on the bracket of that
        node's neighbours, which g shrinks as it changes sign.  The result
        is compared with the start, which is no farther than either endpoint
        (both are coarse nodes), and converted to arc length once at the end."""
        ut = self._ut
        uc = ut[:: self._COARSE]
        j = _nearest_sample(points, self._derivs(uc)[0])
        lo, hi = uc[np.maximum(j - 1, 0)], uc[np.minimum(j + 1, len(uc) - 1)]
        u = start = uc[j]
        for _ in range(self._NEWTON_STEPS):
            gam, d1, d2 = self._derivs(u)
            diff = gam - points
            g = np.einsum("ij,ij->i", diff, d1)
            lo, hi = np.where(g < 0.0, u, lo), np.where(g < 0.0, hi, u)
            # g' is inf or nan at a cusp tip with d < 2: bisect there
            with np.errstate(divide="ignore", invalid="ignore"):
                u_new = u - g / (np.einsum("ij,ij->i", d1, d1) + np.einsum("ij,ij->i", diff, d2))
            u_new = np.where((u_new >= lo) & (u_new <= hi), u_new, 0.5 * (lo + hi))
            done = np.max(np.abs(u_new - u), initial=0.0) <= 1e-15 * ut[-1]
            u = u_new
            if done:
                break
        farther = np.sum((self._derivs(u)[0] - points) ** 2, axis=1) > np.sum(
            (self._derivs(start)[0] - points) ** 2, axis=1)
        u = np.where(farther, start, u)
        gam, d1, _ = self._derivs(u)
        return self._arclength(u), gam, d1 / np.linalg.norm(d1, axis=1, keepdims=True)


class CuspBranch(_TabulatedCurve):
    """One branch of a power cusp, y = sign * x**d for x in [0, x_max], d > 1.

    Travel is in the direction of increasing x, the native parameter.  The
    table is graded, x_j = x_max (j/N)^2, to resolve the metric near x = 0.
    For d < 2 the curvature blows up at the cusp tip; `max_curvature` then
    excludes the collar [0, collar).
    """

    kind = "cusp"

    def __init__(self, exponent, sign=1.0, x_max=1.0, collar=1e-3):
        if exponent <= 1.0:
            raise NetworkConstructionError("cusp exponent must exceed 1")
        if x_max <= 0.0:
            raise NetworkConstructionError("cusp branch needs x_max > 0")
        self.exponent = float(exponent)
        self.sign = 1.0 if sign >= 0 else -1.0
        self.x_max = float(x_max)
        self.collar = float(collar)
        j = np.arange(self._TABLE_N + 1)
        self._tabulate(self.x_max * (j / self._TABLE_N) ** 2)

    def _speed(self, x):
        d = self.exponent
        return np.sqrt(1.0 + (d * x ** (d - 1.0)) ** 2)

    def _derivs(self, x):
        d, sg = self.exponent, self.sign
        with np.errstate(divide="ignore"):  # x^(d-2) at the tip for d < 2
            ypp = d * (d - 1.0) * x ** (d - 2.0)
        return (
            np.stack([x, sg * x**d], axis=1),
            np.stack([np.ones_like(x), sg * d * x ** (d - 1.0)], axis=1),
            np.stack([np.zeros_like(x), sg * ypp], axis=1),
        )

    def _kappa(self, x):
        d = self.exponent
        with np.errstate(divide="ignore"):
            # for d < 2 the second derivative, hence kappa, blows up at x = 0
            ypp = d * (d - 1.0) * np.asarray(x, dtype=float) ** (d - 2.0)
        return self.sign * ypp / (1.0 + (d * x ** (d - 1.0)) ** 2) ** 1.5

    def max_curvature(self):
        lo = self.collar if self.exponent < 2.0 else 0.0
        x = np.linspace(lo, self.x_max, 4097)
        return float(np.max(np.abs(self._kappa(x))))


def _not_a_knot_cubic(x, y):
    """Power-form coefficients c (4, n - 1, 2) of the not-a-knot cubic spline
    through the points y (n, 2) at the increasing knots x (n,), n >= 4: on
    [x_i, x_i+1] the spline is sum_j c[j, i] (u - x_i)^(3 - j).

    The knot slopes solve the tridiagonal system of C2 continuity, closed by
    equal third derivatives across x_1 and x_n-2 (de Boor, A Practical
    Guide to Splines, ch. IV), the system and arithmetic of
    scipy.interpolate.CubicSpline."""
    n = len(x)
    dx = np.diff(x)
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    A = np.zeros((3, n))  # banded: upper, main and lower diagonal
    b = np.empty((n, 2))
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    d = x[2] - x[0]
    A[1, 0], A[0, 1] = dx[1], d
    b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    A[1, -1], A[-1, -2] = dx[-2], d
    b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
    m = solve_banded((1, 1), A, b, overwrite_ab=True, overwrite_b=True, check_finite=False)
    t = (m[:-1] + m[1:] - 2 * slope) / dxr
    return np.stack([t / dxr, (slope - m[:-1]) / dxr - t, m[:-1], y[:-1]])


def _piecewise_poly(coefs, x, u):
    """Values at u (any shape) of piecewise polynomials on the knots x, each
    given by power-form coefficients c (k, 2, n - 1) in u - x_i, highest
    power first, the end pieces continued beyond [x_0, x_n-1]: one array of
    shape u.shape + (2,) per entry of `coefs`.  The powers are summed from
    the constant term up, as in scipy.interpolate.PPoly."""
    i = np.clip(np.searchsorted(x, u, side="right") - 1, 0, len(x) - 2)
    z = u - x[i]
    values = []
    for c in coefs:
        c = np.take(c, i, axis=-1)  # (k, 2) + u.shape
        val, power = c[-1], z
        for cj in c[-2::-1]:
            val = val + cj * power
            power = power * z
        values.append(np.moveaxis(val, 0, -1))
    return values


class SplineSegment(_TabulatedCurve):
    """Cubic spline through sampled control points, reparametrized to arc length.

    The native parameter u is the chord length of the control polygon, on a
    uniform table; the spline is the not-a-knot cubic in u
    (`_not_a_knot_cubic`).  Curvature is exact in u:
    kappa = (x' y'' - y' x'') / |gamma'|^3, with ' = d/du.
    """

    kind = "spline"

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 4 or pts.shape[1] != 2:
            raise NetworkConstructionError("spline needs at least 4 control points")
        self.points = pts
        self._knots = np.concatenate(
            [[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))]
        )
        # coefficients (k, 2, pieces) of gamma, gamma' and gamma''
        c = _not_a_knot_cubic(self._knots, pts).transpose(0, 2, 1)
        d1 = c[:-1] * np.array([3.0, 2.0, 1.0])[:, None, None]
        self._coefs = (c, d1, d1[:-1] * np.array([2.0, 1.0])[:, None, None])
        self._tabulate(np.linspace(0.0, self._knots[-1], self._TABLE_N + 1))

    def _eval(self, u, *orders):
        """[gamma, gamma', gamma''][order] at u for each of `orders`."""
        return _piecewise_poly([self._coefs[o] for o in orders], self._knots, u)

    def _speed(self, u):
        return np.linalg.norm(self._eval(u, 1)[0], axis=-1)

    def _derivs(self, u):
        return tuple(self._eval(u, 0, 1, 2))

    def max_curvature(self):
        s = np.linspace(0.0, self.length, 2049)[1:-1]
        return float(np.max(np.abs(self.curvature(s))))

    def bbox(self):
        # extremes of each coordinate lie at the ends or where its derivative,
        # a quadratic a z^2 + b z + c in z = u - u_i on piece i, vanishes
        a, b, c = self._coefs[1].transpose(0, 2, 1)  # each (pieces, 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
            z = np.where(a != 0.0, [q / a, c / q], -c / b)  # nan: no real root
        inside = (z >= 0.0) & (z <= np.diff(self._knots)[:, None])
        u = (self._knots[:-1, None] + z)[inside]
        pts = self._eval(np.concatenate([self._knots[[0, -1]], u]), 0)[0]
        return pts.min(axis=0), pts.max(axis=0)


# ---------------------------------------------------------------------------
# module-level operations


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


_SAMPLES = 2048  # points per segment for the tube width d_min
_ENDPOINT_TOL = 1e-8  # endpoints closer than this are shared


def compute_beta(segments, beta_cap):
    """Certified tube half-width: min(cap, 1/(2 sup|kappa|), d_min / 2).

    d_min is the minimal exact distance (`CurveSegment.closest`) of the
    _SAMPLES points of each segment to every later segment.  Two segments
    that share an endpoint v meet there, the accepted measure-zero set, so
    the points p of the first near v are exempt: those with
    |p - v| sin(theta) < 4 beta, theta the angle between the segments at v
    (90 degrees when wider) and beta the width before d_min.  Straight
    segments are |p - v| sin(theta) apart there, so they never bind d_min;
    tangent ones (the branches of a cusp tip) are exempt along their length.
    More than 1 % of the samples of one segment within round-off of another
    signal an overlap of positive length and raise NetworkConstructionError,
    for every pair.  Of two adjacent segments only the middle half of the
    shorter one's samples is tested for that: tangent segments come within
    round-off of each other near their shared vertex, while an overlap that
    starts there covers the middle of the shorter segment when both are
    lines or arcs of one circle.
    """
    if not segments:
        raise NetworkConstructionError("network needs at least one segment")
    if beta_cap <= 0.0:
        raise NetworkConstructionError("beta_cap must be positive")

    sup_kappa = max(seg.max_curvature() for seg in segments)
    beta = beta_cap if sup_kappa == 0.0 else min(beta_cap, 0.5 / sup_kappa)

    pts = [seg.point(np.linspace(0.0, seg.length, _SAMPLES)) for seg in segments]
    ends = [(seg.point(0.0), seg.point(seg.length)) for seg in segments]
    middle = slice(_SAMPLES // 4, _SAMPLES - _SAMPLES // 4)

    def shared(k, l):
        return [a for a in ends[k] if any(np.linalg.norm(a - b) < _ENDPOINT_TOL for b in ends[l])]

    def leaving(k, v):  # unit tangent of segment k leaving its endpoint v
        seg = segments[k]
        if np.linalg.norm(ends[k][0] - v) < _ENDPOINT_TOL:
            return seg.tangent(0.0)
        return -seg.tangent(seg.length)

    def distance(p, l):
        return np.linalg.norm(p - segments[l].closest(p)[1], axis=1)

    d_min = np.inf
    for k in range(len(segments)):
        for l in range(k + 1, len(segments)):
            vertices = shared(k, l)
            if vertices:
                shorter, longer = sorted((k, l), key=lambda i: segments[i].length)
                d = distance(pts[shorter][middle], longer)
                far = np.ones(_SAMPLES, dtype=bool)
                for v in vertices:
                    cos = float(np.dot(leaving(k, v), leaving(l, v)))
                    sin = 1.0 if cos <= 0.0 else np.sqrt(max(0.0, 1.0 - cos * cos))
                    far &= sin * np.linalg.norm(pts[k] - v, axis=1) >= 4.0 * beta
                if far.any():
                    d_min = min(d_min, float(distance(pts[k][far], l).min()))
            else:
                d = distance(pts[k], l)
                d_min = min(d_min, float(d.min()))
            if int(np.sum(d < _ENDPOINT_TOL)) > max(2, _SAMPLES // 100):
                raise NetworkConstructionError(
                    f"segments {k} and {l} overlap on positive length"
                )
    if d_min <= 1e-12:
        raise NetworkConstructionError("distinct segments coincide at sampled points")
    return min(beta, d_min / 2.0)


class Network:
    """Ordered segments with a certified tube half-width beta.

    Immutable after construction.  Closest points, distances and tube
    coordinates come from each segment's exact closest-point routine
    (`CurveSegment.closest`); the only per-segment cache is the bounding box
    that prefilters projections.
    """

    def __init__(self, segments, beta_cap):
        self.segments = tuple(segments)
        self.beta_cap = float(beta_cap)
        self.beta = compute_beta(self.segments, self.beta_cap)
        self._bboxes = [seg.bbox() for seg in self.segments]

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
        (default: the network beta).  (s, t) come from the closest point of
        the segment; a tangential residual below 1e-9 (relative to
        1 + |point|) is accepted, which rejects points whose closest point is
        an endpoint off their normal line.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        hw = self.beta if halfwidth is None else halfwidth
        s, q, tau = self.segments[k].closest(pts)
        nu = _rot90(tau)
        diff = pts - q
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

    def candidate_mask(self, k: int, points, pad: float, upper=None):
        """Cheap bounding-box prefilter for projection queries: the points
        (n, 2) within `pad` of segment k's bounding box in each coordinate,
        or, given `upper` (n, 2), the boxes [points_i, upper_i] that come
        that close to it."""
        lo, hi = self._bboxes[k]
        pts = np.atleast_2d(points)
        top = pts if upper is None else np.atleast_2d(upper)
        # column by column: a reduction over rows of two is slow in numpy
        mask = (top[:, 0] >= lo[0] - pad) & (pts[:, 0] <= hi[0] + pad)
        mask &= top[:, 1] >= lo[1] - pad
        mask &= pts[:, 1] <= hi[1] + pad
        return mask

    def sampled_distance(self, k: int, points):
        """Distance of points (n, 2) to segment k, exact to round-off: the
        distance to the closest point of the segment.  (The name is kept
        from the sampled distance this replaced.)"""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        _, q, _ = self.segments[k].closest(pts)
        return np.linalg.norm(pts - q, axis=1)
