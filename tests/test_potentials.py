import numpy as np
import pytest
from scipy.integrate import quad

from deltasqueeze.geometry import CircularArc, LineSegment, Network
from deltasqueeze.potentials import (
    ParameterError,
    SqueezedPotential,
    StrengthFunction,
    constant_profile,
    effective_alpha,
    potential_from_alpha,
    scale_profile,
    separable_profile,
    tabulated_profile,
)


BETA = 0.5


def flat_net(length=1.0, beta=BETA):
    return Network([LineSegment((0.0, 0.0), (length, 0.0))], beta_cap=beta)


# ------------------------------------------------------------- scale_profile


def test_scale_identity_at_eps_equal_beta():
    V = separable_profile(0, lambda s: 1 + s, lambda t: np.cos(t), BETA)
    Vs = scale_profile(V, BETA, BETA)
    s = np.linspace(0, 1, 7)
    t = np.linspace(-0.49, 0.49, 9)
    assert np.allclose(Vs(s[:, None], t[None, :]), V(s[:, None], t[None, :]))


def test_scale_constant_doubles_and_shrinks_support():
    c = -3.0
    V = constant_profile(0, c, BETA)
    Vs = scale_profile(V, BETA / 2, BETA)
    assert Vs(0.3, 0.1) == pytest.approx(2 * c)
    assert Vs(0.3, 0.26) == 0.0
    assert V(0.3, 0.26) == pytest.approx(c)


def test_scale_preserves_transverse_integral():
    rng = np.random.default_rng(5)
    profiles = [
        constant_profile(0, -4.2, BETA),
        separable_profile(0, lambda s: 1 + s**2, lambda t: np.exp(-(t**2)), BETA),
        separable_profile(0, lambda s: np.cos(s), lambda t: 1 + t + t**2, BETA),
    ]
    for V in profiles:
        for _ in range(4):
            eps = rng.uniform(0.05, 1.0) * BETA
            s = rng.uniform(0.0, 1.0)
            Vs = scale_profile(V, eps, BETA)
            ref, _ = quad(lambda r: np.real(V.fun(np.float64(s), r)), -BETA, BETA,
                          epsabs=1e-13, epsrel=1e-13)
            val, _ = quad(lambda r: np.real(Vs.fun(np.float64(s), r)), -eps, eps,
                          epsabs=1e-13, epsrel=1e-13)
            assert abs(val - ref) < 1e-10


def test_scale_rejects_bad_eps():
    V = constant_profile(0, 1.0, BETA)
    with pytest.raises(ParameterError):
        scale_profile(V, 0.0, BETA)
    with pytest.raises(ParameterError):
        scale_profile(V, BETA * 1.01, BETA)


def test_sup_norm_scaling_identity():
    V = separable_profile(0, lambda s: 2 - s, lambda t: np.cos(3 * t), BETA)
    eps = BETA / 8
    Vs = scale_profile(V, eps, BETA)
    s = np.linspace(0, 1, 33)
    t = np.linspace(-BETA, BETA, 65) * (1 - 1e-12)
    sup_orig = np.max(np.abs(V.fun(s[:, None], t[None, :])))
    sup_scaled = np.max(np.abs(Vs.fun(s[:, None], (eps / BETA) * t[None, :])))
    assert sup_scaled == (BETA / eps) * sup_orig


# ----------------------------------------------------------- effective_alpha


def test_alpha_of_constant_profile():
    V = constant_profile(0, -5.0, BETA)
    a = effective_alpha(V)
    assert a(0.2) == pytest.approx(2 * BETA * (-5.0), abs=1e-13)


def test_alpha_of_separable_profile_against_quadrature():
    # alpha(s) = s * int_{-1}^{1} e^{-t^2} dt = s * sqrt(pi) * erf(1)
    V = separable_profile(0, lambda s: s, lambda t: np.exp(-(t**2)), 1.0)
    a = effective_alpha(V)
    ref, _ = quad(lambda t: np.exp(-(t**2)), -1.0, 1.0, epsabs=1e-14)
    assert ref == pytest.approx(1.493648265624854, abs=1e-12)
    for s in (0.25, 1.0, 1.7):
        assert a(s) == pytest.approx(s * ref, abs=1e-12)


def test_alpha_roundtrip_through_potential():
    rng = np.random.default_rng(17)
    s = np.linspace(0.0, 2.0, 41)
    for _ in range(10):
        coeff = rng.normal(size=3)
        alpha = StrengthFunction(0, lambda x, c=coeff: c[0] + c[1] * x + c[2] * x**2)
        V = potential_from_alpha(alpha, BETA)
        back = effective_alpha(V)
        assert np.max(np.abs(back(s) - alpha(s))) < 1e-12


def test_alpha_invariant_under_scaling():
    V = separable_profile(0, lambda s: 1 + s, lambda t: np.cosh(t), BETA)
    a_ref = effective_alpha(V)
    s = np.linspace(0, 1, 11)
    for eps in (BETA / 2, BETA / 5, BETA / 16):
        a_eps = effective_alpha(scale_profile(V, eps, BETA))
        assert np.max(np.abs(a_eps(s) - a_ref(s))) < 1e-10


def test_tabulated_profile_bilinear_and_bounded():
    sg = np.linspace(0, 1, 5)
    tg = np.linspace(-BETA, BETA, 9)
    vals = np.outer(1 + sg, tg**2)
    V = tabulated_profile(0, sg, tg, vals, BETA)
    assert V(0.5, 0.125) == pytest.approx((1 + 0.5) * 0.125**2, abs=2e-3)
    assert V(0.5, BETA + 0.01) == 0.0
    with pytest.raises(ParameterError):
        tabulated_profile(0, sg, tg, np.full_like(vals, np.inf), BETA)
    # a grid that is not strictly increasing with 2 nodes is refused, by name:
    # a decreasing t_grid read 2 at t = 0, one s node read NaN, a repeated one
    # divided by zero
    for s_grid, t_grid, table, name in (
            ([0.0, 1.0], [0.3, -0.3], [[1.0, 2.0], [1.0, 2.0]], "t_grid"),
            ([0.5], [-0.3, 0.3], [[1.0, 2.0]], "s_grid"),
            ([0.0, 0.5, 0.5], [-0.3, 0.3], [[1.0, 2.0]] * 3, "s_grid")):
        with pytest.raises(ParameterError, match=name):
            tabulated_profile(0, s_grid, t_grid, np.array(table), BETA)
    # the increasing t_grid of the same table interpolates
    V = tabulated_profile(0, [0.0, 1.0], [-0.3, 0.3], np.array([[2.0, 1.0]] * 2), BETA)
    assert V(0.5, 0.0) == pytest.approx(1.5)
    assert V(0.5, 0.29) == pytest.approx(1.0 + 0.01 / 0.6)


# ------------------------------------------------------- potential_from_alpha


def test_potential_from_alpha_values():
    V = potential_from_alpha(StrengthFunction.constant(0, -5.0), 0.2)
    assert V(0.1, 0.0) == pytest.approx(-12.5)
    assert V(0.1, 0.19) == pytest.approx(-12.5)
    assert V(0.1, 0.21) == 0.0
    Vz = potential_from_alpha(StrengthFunction.constant(0, 0.0), 0.2)
    assert Vz(0.3, 0.1) == 0.0


# ------------------------------------------------- squeezed point evaluation


def test_evaluate_scaled_outside_tubes_is_zero():
    net = flat_net()
    V = [constant_profile(0, -2.0, net.beta)]
    rng = np.random.default_rng(23)
    pts = rng.uniform(-3, 3, size=(10_000, 2))
    eps = net.beta / 4
    outside = (
        (np.abs(pts[:, 1]) > eps * 1.001)
        | (pts[:, 0] < -1e-9)
        | (pts[:, 0] > 1 + 1e-9)
    )
    vals = SqueezedPotential(net, V, eps)(pts[:, 0], pts[:, 1])
    assert np.all(vals[outside] == 0.0)


def test_evaluate_scaled_flat_tube_value():
    net = flat_net()
    c = -3.5
    V = [constant_profile(0, c, net.beta)]
    eps = net.beta / 4
    val = SqueezedPotential(net, V, eps)(0.5, eps / 2)
    assert val == pytest.approx(4 * c)


def test_evaluate_scaled_total_integral_jacobian_defect():
    # volume integral of V_eps approaches the line integral of alpha at O(eps);
    # the defect is (eps/beta) * int kappa dsigma * int t V dt, so a profile
    # with constant alpha but nonzero first transverse moment exposes the rate
    net = Network([CircularArc((0, 0), 1.0, 0.0, 2 * np.pi)], beta_cap=10.0)
    beta = net.beta
    c = -2.0
    V = [separable_profile(0, lambda s: c + 0 * s, lambda t: 1.0 + t / beta, beta)]
    target = (2 * beta * c) * 2 * np.pi  # alpha = 2 beta c, times circumference
    gq, gw = np.polynomial.legendre.leggauss(48)
    defects = []
    for eps in (0.2, 0.1, 0.05):
        # polar quadrature of V_eps over the annulus 1-eps < r < 1+eps
        r = 1.0 + eps * gq
        wr = eps * gw
        th = np.pi * (gq + 1.0)
        wth = np.pi * gw
        R, TH = np.meshgrid(r, th, indexing="ij")
        vals = SqueezedPotential(net, V, eps)(R * np.cos(TH), R * np.sin(TH))
        integral = np.einsum("i,j,ij->", wr, wth, vals * R)
        defects.append(abs(integral - target))
    # defect scales ~ eps: halving eps halves the defect within 20 percent
    for d1, d2 in zip(defects, defects[1:]):
        assert d2 == pytest.approx(d1 / 2, rel=0.2)


def test_evaluate_scaled_ownership_at_shared_vertex():
    net = Network(
        [LineSegment((0, 0), (1, 0)), LineSegment((0, 0), (0, 1))], beta_cap=0.2
    )
    V = [constant_profile(0, -1.0, net.beta), constant_profile(1, -10.0, net.beta)]
    # a point near the vertex inside both tubes: owned by segment 0
    val = SqueezedPotential(net, V, net.beta)(0.05, 0.05)
    assert val == pytest.approx(-1.0)
