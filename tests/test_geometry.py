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
    curvature,
    tube_jacobian,
    tube_map,
)


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
    assert np.all(curvature(seg, s) == 0.0)


def test_arc_curvature_magnitude():
    seg = CircularArc((1.0, -2.0), 2.0, 0.3, 2.1)
    assert np.allclose(np.abs(curvature(seg, seg.length / 3)), 0.5)


def test_cusp_curvature_matches_symbolic_and_fd():
    # kappa(x) = d(d-1)x^(d-2) / (1 + d^2 x^(2d-2))^(3/2); at d=2, x=1: 2/5^1.5
    seg = CuspBranch(exponent=2.0, sign=1.0, x_max=1.5)
    from scipy.optimize import brentq

    s_at_x1 = brentq(lambda s: seg.point(s)[0] - 1.0, 0.0, seg.length)
    k = curvature(seg, s_at_x1)
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
    k = curvature(seg, s)
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


def test_out_of_range_s_raises():
    seg = LineSegment((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(DomainError):
        seg.point(1.5)
    with pytest.raises(DomainError):
        curvature(seg, -0.2)


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
    segs = [LineSegment((0, 0), (1, 0)), LineSegment((0.2, 0.0), (1.3, 0.0))]
    with pytest.raises(NetworkConstructionError):
        compute_beta(segs, beta_cap=1.0)


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


def test_injectivity_collision_sampling():
    star = [
        LineSegment((0.0, 0.0), (1.0, 0.0)),
        LineSegment((0.0, 0.0), (-0.5, np.sqrt(3) / 2)),
        LineSegment((0.0, 0.0), (-0.5, -np.sqrt(3) / 2)),
    ]
    net = Network(star, beta_cap=0.4)
    assert net.collision_check(10_000, seed=11) == 0
    net2 = Network([unit_circle(), LineSegment((2.0, -1.0), (2.0, 1.0))], beta_cap=10.0)
    assert net2.collision_check(10_000, seed=12) == 0


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
