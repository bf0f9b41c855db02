import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from deltasqueeze.geometry import (
    CircularArc,
    CuspBranch,
    DomainError,
    LineSegment,
    Network,
    NetworkConstructionError,
    SplineSegment,
    TubeError,
    compute_beta,
    tube_jacobian,
    tube_map,
)
from deltasqueeze.lab import cusp_network

ROOT = pathlib.Path(__file__).resolve().parents[1]


def unit_circle():
    return CircularArc((0.0, 0.0), 1.0, 0.0, 2.0 * np.pi)


def circle_spline(n, radius=1.0, sweep=1.75 * np.pi):
    th = np.linspace(0.0, sweep, n)
    return SplineSegment(radius * np.stack([np.cos(th), np.sin(th)], axis=1))


def fd_curvature(seg, s, h):
    # centered finite differences of the normal: kappa = -nu'(s) . T(s)
    dnu = (seg.normal(s + h) - seg.normal(s - h)) / (2.0 * h)
    return -float(dnu @ seg.tangent(s))


# ---------------------------------------------------------------- curvature


def test_line_curvature_zero():
    seg = LineSegment((0.0, 0.0), (3.0, 1.0))
    s = np.linspace(0.0, seg.length, 11)
    assert np.all(seg.curvature(s) == 0.0)


def test_arc_curvature_magnitude():
    seg = CircularArc((1.0, -2.0), 2.0, 0.3, 2.1)
    assert np.allclose(np.abs(seg.curvature(seg.length / 3)), 0.5)


def test_cusp_curvature_matches_symbolic_and_fd():
    # kappa(x) = d(d-1)x^(d-2) / (1 + d^2 x^(2d-2))^(3/2); at d=2, x=1: 2/5^1.5
    seg = CuspBranch(exponent=2.0, sign=1.0, x_max=1.5)
    from scipy.optimize import brentq

    s_at_x1 = brentq(lambda s: seg.point(s)[0] - 1.0, 0.0, seg.length)
    k = seg.curvature(s_at_x1)
    assert k == pytest.approx(2.0 / 5.0**1.5, abs=1e-10)
    assert k == pytest.approx(0.17889, abs=1e-5)
    k_fd = fd_curvature(seg, s_at_x1, 1e-4)
    assert k == pytest.approx(k_fd, abs=1e-6)


@pytest.mark.parametrize(
    "seg",
    [
        LineSegment((0.0, 0.0), (2.0, 0.0)),
        CircularArc((0.0, 0.0), 1.5, -0.4, 1.9),
        CuspBranch(2.5, -1.0, 1.2),
    ],
)
def test_curvature_matches_fd_at_second_order(seg):
    s = 0.47 * seg.length
    k = seg.curvature(s)
    err = [abs(fd_curvature(seg, s, h) - k) for h in (2e-3, 1e-3)]
    assert err[1] <= err[0] / 2.5 + 1e-11


def test_arclength_parametrization_unit_speed():
    segs = [
        LineSegment((0.0, 1.0), (2.0, 2.0)),
        CircularArc((0.0, 0.0), 0.7, 0.0, 3.0),
        CuspBranch(1.6, 1.0, 0.9),
        circle_spline(256),
    ]
    for seg in segs:
        s = np.linspace(0.0, seg.length, 101)[1:-1]
        h = seg.length * 1e-6
        speed = np.linalg.norm(
            (seg.point(s + h) - seg.point(s - h)) / (2 * h), axis=1
        )
        assert np.max(np.abs(speed - 1.0)) < 1e-8
        assert np.max(np.abs(np.linalg.norm(seg.normal(s), axis=1) - 1.0)) < 1e-10


SEGMENT_KINDS = {
    "line": lambda: LineSegment((0.0, 0.0), (1.0, 0.0)),
    "arc": lambda: CircularArc((0.0, 0.0), 1.5, -0.4, 1.9),
    "cusp": lambda: CuspBranch(1.6, -1.0, 0.9),
    "spline": lambda: circle_spline(16),
}


@pytest.mark.parametrize("evaluator", ["point", "tangent", "normal", "curvature"])
@pytest.mark.parametrize("kind", list(SEGMENT_KINDS))
def test_out_of_range_s_raises(kind, evaluator):
    # the evaluation contract of every kind: a scalar s gives one value of
    # shape (2,) or a float, an array one row per entry, the same values
    seg = SEGMENT_KINDS[kind]()
    fn = getattr(seg, evaluator)
    one, many = fn(0.25 * seg.length), fn(np.linspace(0.0, seg.length, 5))
    if evaluator == "curvature":
        assert type(one) is float and many.shape == (5,)
    else:
        assert one.shape == (2,) and many.shape == (5, 2)
    assert np.array_equal(one, many[1])
    for s in (-0.2, 1.5 * seg.length, np.array([0.5, 1.5]) * seg.length):
        with pytest.raises(DomainError):
            fn(s)


# ----------------------------------------------------------------- tube map


def test_tube_map_flat_segment():
    seg = LineSegment((0.0, 0.0), (1.0, 0.0))
    assert np.allclose(tube_map(seg, 0.3, 0.1), [0.3, 0.1])


def test_tube_map_circle_inward_normal():
    seg = unit_circle()
    assert np.allclose(tube_map(seg, 0.0, 0.2), [0.8, 0.0], atol=1e-14)


def test_tube_map_zero_offset_is_identity():
    for seg in (LineSegment((0, 0), (1, 1)), unit_circle(), CuspBranch(2.0)):
        s = 0.37 * seg.length
        assert np.allclose(tube_map(seg, s, 0.0), seg.point(s))


def test_tube_map_rejects_offsets_beyond_beta():
    seg = LineSegment((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(TubeError):
        tube_map(seg, 0.5, 0.3, beta=0.2)
    net = Network([seg], beta_cap=0.2)
    with pytest.raises(TubeError):
        net.tube_map(0, 0.5, 0.25)


# ------------------------------------------------------------- tube jacobian


def test_jacobian_line_is_one():
    net = Network([LineSegment((0.0, 0.0), (1.0, 0.0))], beta_cap=0.2)
    assert net.tube_jacobian(0, 0.4, 0.1) == 1.0


def test_jacobian_circle():
    net = Network([unit_circle()], beta_cap=10.0)
    assert net.tube_jacobian(0, 0.0, 0.3) == pytest.approx(0.7, abs=1e-14)


def test_jacobian_integrates_to_annulus_area():
    net = Network([unit_circle()], beta_cap=10.0)
    beta = net.beta
    seg = net.segments[0]
    gq, gw = np.polynomial.legendre.leggauss(32)
    s = 0.5 * seg.length * (gq + 1.0)
    ws = 0.5 * seg.length * gw
    t = beta * gq * (1 - 1e-14)
    wt = beta * gw
    jac = 1.0 - t[None, :] * seg.curvature(s)[:, None]
    area_quad = float(np.einsum("i,j,ij->", ws, wt, jac))
    assert area_quad == pytest.approx(2.0 * np.pi * 2.0 * beta, abs=1e-6)
    # Monte Carlo cross-check of the annulus area
    rng = np.random.default_rng(42)
    pts = rng.uniform(-1.5, 1.5, size=(500_000, 2))
    r = np.linalg.norm(pts, axis=1)
    area_mc = 9.0 * np.mean((r > 1 - beta) & (r < 1 + beta))
    assert abs(area_mc - area_quad) < 0.05


def test_jacobian_bounds_inside_tube():
    net = Network([unit_circle(), LineSegment((3.0, 0.0), (4.0, 0.0))], beta_cap=10.0)
    rng = np.random.default_rng(7)
    for k, seg in enumerate(net.segments):
        s = rng.uniform(0, seg.length, 2000)
        t = rng.uniform(-net.beta, net.beta, 2000) * (1 - 1e-12)
        j = net.tube_jacobian(k, s, t)
        assert np.all(j > 0.5) and np.all(j < 1.5)


# ------------------------------------------------------------- compute_beta


def test_beta_unit_circle():
    assert compute_beta([unit_circle()], beta_cap=10.0) == pytest.approx(0.5)


def test_beta_cap_binds_for_straight_segment():
    assert compute_beta([LineSegment((0, 0), (1, 0))], beta_cap=0.25) == 0.25


def test_beta_parallel_lines_distance_rule():
    segs = [LineSegment((0, 0), (1, 0)), LineSegment((0, 0.3), (1, 0.3))]
    assert compute_beta(segs, beta_cap=10.0) == pytest.approx(0.15, rel=1e-6)


def test_beta_degenerate_overlap_raises():
    # the last three share an endpoint: a doubled line, the line reversed and
    # a collinear piece from its end; each built a network with beta at its cap
    line = LineSegment((-1.0, 0.0), (1.0, 0.0))
    for segs in ([LineSegment((0, 0), (1, 0)), LineSegment((0.2, 0.0), (1.3, 0.0))],
                 [line, line], [line, LineSegment((1.0, 0.0), (-1.0, 0.0))],
                 [line, LineSegment((1.0, 0.0), (0.0, 0.0))]):
        with pytest.raises(NetworkConstructionError, match="overlap on positive length"):
            compute_beta(segs, beta_cap=1.0)


# segments that meet only at shared endpoints: a cusp's branches stay within
# round-off of each other near its tip, at up to 170 of 2048 samples for d = 6
@pytest.mark.parametrize("segments", [
    *[cusp_network(d, x_max, 0.25).segments for d in (1.5, 2.0, 3.0, 4.0, 6.0)
      for x_max in (0.5, 0.75)],
    [CircularArc((0.0, 0.0), 1.0, 0.0, np.pi), CircularArc((0.0, 0.0), 1.0, np.pi, 2.0 * np.pi)],
], ids=[*(f"cusp_d{d:g}_x{x_max:g}" for d in (1.5, 2.0, 3.0, 4.0, 6.0) for x_max in (0.5, 0.75)),
        "two_arcs"])
def test_segments_meeting_at_vertices_are_no_overlap(segments):
    assert compute_beta(segments, beta_cap=1.0) > 0.0


# --------------------------------------------------------- inverse tube map


def test_inverse_tube_map_flat():
    net = Network([LineSegment((0.0, 0.0), (1.0, 0.0))], beta_cap=0.2)
    k, s, t = net.inverse_tube_map((0.5, 0.05))
    assert k == 0
    assert s == pytest.approx(0.5, abs=1e-10)
    assert t == pytest.approx(0.05, abs=1e-10)
    assert net.inverse_tube_map((0.5, 0.5)) is None


@pytest.mark.parametrize(
    "seg",
    [
        LineSegment((-1.0, 0.5), (2.0, 1.5)),
        unit_circle(),
        CuspBranch(2.0, 1.0, 1.2),
        circle_spline(256, radius=2.0),
    ],
)
def test_inverse_tube_map_round_trip(seg):
    net = Network([seg], beta_cap=0.2)
    rng = np.random.default_rng(3)
    n = 1000
    s = rng.uniform(0.002 * seg.length, 0.998 * seg.length, n)
    t = rng.uniform(-0.9 * net.beta, 0.9 * net.beta, n)
    pts = seg.point(s) + t[:, None] * seg.normal(s)
    s2, t2, inside = net.project_onto_segment(0, pts)
    assert np.all(inside)
    back = seg.point(s2) + t2[:, None] * seg.normal(s2)
    assert np.max(np.linalg.norm(back - pts, axis=1)) < 1e-8
    assert np.max(np.abs(t2 - t)) < 1e-8
    assert np.max(np.abs(s2 - s)) < 1e-7 * max(1.0, seg.length)


def tube_violations(net, n=1000, seed=11):
    """(round-trip failures, points inside a foreign tube) of n random tube
    points of each segment: each point, mapped from (k, s, t), must project
    back onto segment k at (s, t), and must lie outside the tube of every
    other segment l unless it is near an endpoint v that k and l share:
    |p - v| sin(theta) < 2 beta, theta the angle between them at v (90
    degrees when wider).  Two tubes that meet at v at the angle theta
    overlap out to beta / sin(theta / 2) <= 2 beta / sin(theta) from v."""

    def leaving(seg, v):  # unit tangent of seg leaving its endpoint v
        if np.linalg.norm(seg.endpoints[0] - v) < 1e-8:
            return seg.tangent(0.0)
        return -seg.tangent(seg.length)

    rng = np.random.default_rng(seed)
    failed = foreign = 0
    for k, seg in enumerate(net.segments):
        s = rng.uniform(0.002, 0.998, n) * seg.length
        t = rng.uniform(-1.0, 1.0, n) * net.beta * (1.0 - 1e-12)
        pts = net.tube_map(k, s, t)
        s2, t2, inside = net.project_onto_segment(k, pts)
        failed += int(np.sum(~inside | (np.abs(s2 - s) > 1e-7 * seg.length)
                             | (np.abs(t2 - t) > 1e-8)))
        for l, other in enumerate(net.segments):
            if l == k:
                continue
            away = np.ones(n, dtype=bool)
            for a in seg.endpoints:
                if any(np.linalg.norm(a - b) < 1e-8 for b in other.endpoints):
                    cos = float(np.dot(leaving(seg, a), leaving(other, a)))
                    sin = 1.0 if cos <= 0.0 else np.sqrt(max(0.0, 1.0 - cos * cos))
                    away &= sin * np.linalg.norm(pts - a, axis=1) >= 2.0 * net.beta
            foreign += int(np.sum(net.project_onto_segment(l, pts[away])[2]))
    return failed, foreign


def test_tube_coordinates_are_injective_and_tubes_disjoint():
    star = [
        LineSegment((0.0, 0.0), (1.0, 0.0)),
        LineSegment((0.0, 0.0), (-0.5, np.sqrt(3) / 2)),
        LineSegment((0.0, 0.0), (-0.5, -np.sqrt(3) / 2)),
    ]
    assert tube_violations(Network(star, beta_cap=0.4)) == (0, 0)
    net = Network([unit_circle(), LineSegment((2.0, -1.0), (2.0, 1.0))], beta_cap=10.0)
    assert tube_violations(net) == (0, 0)
    # a spline from the line's end that comes back within 0.0231 of it near
    # x = 1.55 had beta = 0.0636 and 275 foreign points: only a neighbourhood
    # of their shared vertex is exempt from d_min
    dip = SplineSegment([[0.0, 0.0], [-0.2, 0.35], [0.6, 0.45], [1.5, 0.026], [2.0, 0.3]])
    net = Network([LineSegment((0.0, 0.0), (2.0, 0.0)), dip], beta_cap=1.0)
    assert net.beta < 0.0116
    assert tube_violations(net) == (0, 0)
    # two lines at an acute vertex: their tubes overlap out to beta / sin(theta / 2),
    # past a fixed 2 beta from the vertex (95 and 4 foreign points at 30 and 51 degrees)
    for theta in (30.0, 51.0):
        ray = (np.cos(np.radians(theta)), np.sin(np.radians(theta)))
        net = Network([LineSegment((0.0, 0.0), (1.0, 0.0)), LineSegment((0.0, 0.0), ray)],
                      beta_cap=0.1)
        assert net.beta == 0.1
        assert tube_violations(net) == (0, 0)


@pytest.mark.parametrize("segments, beta, overlap", [
    ([LineSegment((-1.0, 0.0), (1.0, 0.0)), LineSegment((-1.0, 1.0), (1.0, 1.0))], 0.9, 1),
    ([unit_circle(), LineSegment((2.0, -1.0), (2.0, 1.0))], 0.9, 1),
    ([unit_circle()], 1.5, 0),  # wider than the radius: the map folds over the center
], ids=["parallel_lines", "circle_and_line", "circle"])
def test_tube_violations_are_found_when_beta_is_forced_too_wide(segments, beta, overlap):
    net = Network(segments, beta_cap=10.0)
    assert tube_violations(net) == (0, 0)
    net.beta = beta
    assert tube_violations(net)[overlap] > 0


def test_spline_curvature_second_order_convergence():
    errs = []
    for n in (32, 64, 128):
        seg = circle_spline(n)
        s = np.linspace(0.1 * seg.length, 0.9 * seg.length, 53)
        errs.append(np.max(np.abs(seg.curvature(s) - 1.0)))
    rate1 = np.log2(errs[0] / errs[1])
    rate2 = np.log2(errs[1] / errs[2])
    assert rate1 > 1.6 and rate2 > 1.6


def test_spline_curvature_matches_the_exact_formula():
    # kappa = (x' y'' - y' x'') / |gamma'|^3 in the chord-length parameter u of
    # the interpolating cubic spline, at s(u) by adaptive quadrature per piece
    pts = np.array([[-1.5, -0.5], [-0.8, 0.4], [0.0, 0.1], [0.7, 0.6], [1.5, -0.2]])
    chord = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))])
    spl = CubicSpline(chord, pts, axis=0)
    d1, d2 = spl.derivative(1), spl.derivative(2)

    def arc_length(u):
        edges = [c for c in chord if c < u] + [u]
        return sum(quad(lambda v: np.linalg.norm(d1(v)), a, b, epsabs=0.0, epsrel=1e-13)[0]
                   for a, b in zip(edges, edges[1:]))

    u = np.linspace(0.0, chord[-1], 41)[1:-1]
    p, pp = d1(u), d2(u)
    exact = (p[:, 0] * pp[:, 1] - p[:, 1] * pp[:, 0]) / np.linalg.norm(p, axis=1) ** 3
    k = SplineSegment(pts).curvature(np.array([arc_length(ui) for ui in u]))
    assert np.max(np.abs(k - exact)) <= 1e-13 * np.max(np.abs(exact))


def test_spline_is_the_not_a_knot_cubic():
    # the interpolating cubic of scipy's default end conditions in the chord
    # parameter, with its first and second derivatives, past the ends too
    pts = np.array([[-1.5, -0.5], [-0.8, 0.4], [0.0, 0.1], [0.7, 0.6], [1.5, -0.2]])
    chord = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))])
    spl = CubicSpline(chord, pts, axis=0)
    u = np.linspace(-0.1, chord[-1] + 0.1, 203)
    for order, value in enumerate(SplineSegment(pts)._derivs(u)):
        ref = spl(u, order)
        assert np.max(np.abs(value - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_spline_construction_leaves_scipy_interpolate_unloaded():
    # scipy.interpolate, with the scipy.optimize and scipy.spatial it loads,
    # costs about a quarter second to import
    code = ("import sys, deltasqueeze\n"
            "from deltasqueeze.geometry import Network, SplineSegment\n"
            "seg = SplineSegment([[0.0, 0.0], [1.0, 0.5], [2.0, 0.0], [3.0, 0.5]])\n"
            "Network([seg], beta_cap=0.2).project_onto_segment(0, [[1.0, 0.2]])\n"
            "print('scipy.interpolate' in sys.modules)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "False"


# ------------------------------------------------------------ closest points


def brute_force_closest(seg, pts, n=4001):
    """(s, t, distance) of the closest points by dense sampling in arc length
    and 60 bisections of (gamma(s) - p) . gamma'(s) on the sample bracket."""
    grid = np.linspace(0.0, seg.length, n)
    samples = seg.point(grid)
    i = np.argmin(np.linalg.norm(pts[:, None, :] - samples[None, :, :], axis=2), axis=1)
    lo, hi = grid[np.maximum(i - 1, 0)], grid[np.minimum(i + 1, n - 1)]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        g = np.einsum("ij,ij->i", seg.point(mid) - pts, seg.tangent(mid))
        lo, hi = np.where(g < 0.0, mid, lo), np.where(g < 0.0, hi, mid)
    s = 0.5 * (lo + hi)
    diff = pts - seg.point(s)
    return s, np.einsum("ij,ij->i", diff, seg.normal(s)), np.linalg.norm(diff, axis=1)


CLOSEST_CASES = {
    "line": LineSegment((-0.7, 0.2), (1.1, -0.4)),
    "arc_ccw_across_pi": CircularArc((0.3, -0.2), 1.2, 2.0, 4.5),
    "arc_cw_across_pi": CircularArc((0.3, -0.2), 1.2, -2.2, -4.4),
    "full_circle": CircularArc((0.1, 0.2), 0.9, 1.0, 1.0 + 2.0 * np.pi),
    "cusp_d2": CuspBranch(2.0, 1.0, 0.75),
    "cusp_d1.5": CuspBranch(1.5, -1.0, 0.9),
    "spline": SplineSegment([[-1.5, -0.5], [-0.8, 0.4], [0.0, 0.1], [0.7, 0.6], [1.5, -0.2]]),
}


@pytest.mark.parametrize("name", sorted(CLOSEST_CASES))
def test_closest_points_match_brute_force(name):
    seg = CLOSEST_CASES[name]
    net = Network([seg], beta_cap=0.2)
    dense = seg.point(np.linspace(0.0, seg.length, 4001))
    lo, hi = net._bboxes[0]
    assert np.all(lo <= dense.min(axis=0)) and np.all(hi >= dense.max(axis=0))
    assert np.allclose(lo, dense.min(axis=0), atol=1e-6)
    assert np.allclose(hi, dense.max(axis=0), atol=1e-6)
    rng = np.random.default_rng(5)
    pts = rng.uniform(lo - 0.4, hi + 0.4, size=(400, 2))
    s_ref, t_ref, d_ref = brute_force_closest(seg, pts)
    assert np.max(np.abs(net.sampled_distance(0, pts) - d_ref)) < 1e-10
    s, t, _ = net.project_onto_segment(0, pts)
    assert np.max(np.abs(s - s_ref)) < 1e-10
    assert np.max(np.abs(t - t_ref)) < 1e-10
