import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import erf, iv, kv

from deltasqueeze.oracles import (
    DomainSizeError,
    NoBoundStateError,
    WedgeParams,
    _fd_lowest,
    cusp_operator_eigs,
    delta_point_eigenvalue,
    ring_delta_eigenvalues,
    ring_mode_eigenvalue,
    square_well_ground_state,
    squeezed_1d_eigenvalue,
    wedge_F,
    wedge_F_infimum,
)


# ------------------------------------------------------------ point delta


def test_point_delta_values():
    assert delta_point_eigenvalue(-5.0) == -6.25
    assert delta_point_eigenvalue(-2.0) == -1.0


def test_point_delta_weak_coupling_limit():
    lam = delta_point_eigenvalue(-1e-3)
    assert abs(lam) == pytest.approx(2.5e-7, rel=1e-12)
    assert abs(lam) < 1e-6


def test_point_delta_rejects_nonnegative():
    with pytest.raises(NoBoundStateError):
        delta_point_eigenvalue(0.0)
    with pytest.raises(NoBoundStateError):
        delta_point_eigenvalue(1.0)


def test_point_delta_cross_check_against_fd():
    alpha, beta = -5.0, 0.02
    lam = squeezed_1d_eigenvalue(
        lambda t: np.full_like(t, alpha / (2 * beta)), beta / 64.0, beta,
        cells_per_eps=4, domain_halfwidth=4.0,
    )
    assert lam == pytest.approx(delta_point_eigenvalue(alpha), abs=1e-2)


# ------------------------------------------------------------ delta ring


def test_ring_delta_eigenvalues_are_the_published_roots():
    # alpha = -5 on the unit circle binds m = 0, 1, 2 (m < -alpha R / 2), and
    # each m >= 1 twice: five bound states, so k = 6 returns five
    lams = ring_delta_eigenvalues(-5.0, 1.0, 6)
    assert lams == pytest.approx([-6.558011, -5.241617, -5.241617, -2.072459, -2.072459],
                                 abs=1e-6)
    for m, lam in zip((0, 1, 2), lams[[0, 1, 3]]):
        x = np.sqrt(-lam)
        assert 1.0 - 5.0 * iv(m, x) * kv(m, x) == pytest.approx(0.0, abs=1e-13)


def test_ring_delta_eigenvalues_scale_and_bind_only_when_attractive():
    # radius R and strength alpha give R^-2 times the spectrum at (alpha R, 1)
    assert ring_delta_eigenvalues(-2.5, 2.0, 3) == pytest.approx(
        ring_delta_eigenvalues(-5.0, 1.0, 3) / 4.0, rel=1e-12)
    assert ring_delta_eigenvalues(-5.0, 1.0, 2) == pytest.approx([-6.558011, -5.241617], abs=1e-6)
    assert ring_delta_eigenvalues(2.0, 1.0, 3).size == 0
    # the strong-coupling limit is the line's -alpha^2 / 4
    assert ring_delta_eigenvalues(-600.0, 1.0, 1)[0] == pytest.approx(-90000.0, rel=1e-5)


def test_ring_mode_eigenvalue_without_field_is_the_plane_ring_in_a_disc():
    # the wall at 3.5 raises m = 0 by 6e-6 relative and m = 1 by 2e-5; m = 2
    # decays slowly, so it feels the wall: -2.070841 against -2.072459
    exact = ring_delta_eigenvalues(-5.0, 1.0, 2)
    for m, lam in enumerate(exact):
        radial = ring_mode_eigenvalue(-5.0, 1.0, m, wall=3.5)
        assert radial == pytest.approx(lam, rel=1e-4) and radial > lam
    assert ring_mode_eigenvalue(-5.0, 1.0, 2, wall=3.5) == pytest.approx(-2.070841, abs=1e-6)


@pytest.mark.parametrize("m, b", [(0, 0.0), (1, 0.0), (1, 1.5), (0, 1.5), (2, 1.5), (-1, 1.5)])
def test_ring_mode_eigenvalue_agrees_over_two_radial_steps(m, b):
    coarse = ring_mode_eigenvalue(-5.0, 1.0, m, b, wall=3.5, steps=100)
    assert coarse == pytest.approx(ring_mode_eigenvalue(-5.0, 1.0, m, b, wall=3.5), rel=1e-7)


def test_ring_mode_eigenvalues_in_a_field_split_by_the_sign_of_m():
    # (m/r - b r/2)^2 - (-m/r - b r/2)^2 = -2 b m, a constant on the grid too
    lams = {m: ring_mode_eigenvalue(-5.0, 1.0, m, 1.5, wall=3.5) for m in (-1, 0, 1, 2)}
    assert lams[1] - lams[-1] == pytest.approx(-3.0, abs=1e-9)
    assert lams[1] == pytest.approx(-6.103387, abs=1e-6)  # the ground state
    assert lams[1] < lams[0] < lams[2] < lams[-1]


def test_ring_mode_eigenvalue_needs_the_wall_on_the_grid_beyond_the_ring():
    with pytest.raises(ValueError, match="wall 3.55 must be a multiple"):
        ring_mode_eigenvalue(-5.0, 1.0, 0, wall=3.55, steps=10)
    with pytest.raises(ValueError, match="above R"):
        ring_mode_eigenvalue(-5.0, 1.0, 0, wall=0.5)


# ------------------------------------------------------------- squeezed 1d


def test_square_well_matches_transcendental_bisection():
    alpha, beta = -5.0, 0.02
    lam_fd = squeezed_1d_eigenvalue(
        lambda t: np.full_like(t, alpha / (2 * beta)), beta, beta,
        cells_per_eps=16, domain_halfwidth=8.0,
    )
    lam_exact = square_well_ground_state(depth=abs(alpha) / (2 * beta), halfwidth=beta)
    assert abs(lam_fd - lam_exact) < 1e-8


def test_squeezed_sweep_converges_to_point_delta():
    alpha, beta = -5.0, 0.02
    g = lambda t: np.full_like(t, alpha / (2 * beta))
    eps_list = beta / 2.0 ** np.arange(1, 7)
    gaps = []
    for eps in eps_list:
        lam = squeezed_1d_eigenvalue(g, eps, beta, cells_per_eps=4, domain_halfwidth=4.0)
        gaps.append(abs(lam + 6.25))
    slope = np.polyfit(np.log(eps_list), np.log(gaps), 1)[0]
    assert slope >= 0.9
    assert gaps[-1] < 1e-2


def test_zero_profile_has_no_bound_state():
    out = squeezed_1d_eigenvalue(
        lambda t: np.zeros_like(t), 0.1, 0.2, domain_halfwidth=5.0
    )
    assert out is None


def test_fd_solver_second_order_self_convergence():
    # harmonic half-line oracle: -f'' + x^2 f with f(0) = 0 has E_1 = 3
    X = 12.0
    errs, ns = [], [400, 800, 1600]
    for n in ns:
        hx = X / (n + 1)
        nodes = hx * np.arange(1, n + 1)
        errs.append(abs(_fd_lowest(nodes**2, hx)[0] - 3.0))
    slope = np.polyfit(np.log(1.0 / np.asarray(ns)), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


# ------------------------------------------------------------------ cusp B


def test_cusp_operator_harmonic_case():
    E = cusp_operator_eigs(2.0, k=3)
    assert np.max(np.abs(E - np.array([3.0, 7.0, 11.0]))) < 1e-3


def test_cusp_operator_odd_harmonic_sequence():
    E = cusp_operator_eigs(2.0, k=5, n=6000)
    assert np.max(np.abs(E - (4.0 * np.arange(1, 6) - 1.0))) < 1e-3


def test_cusp_operator_quartic_against_shooting():
    # same truncated domain for both routes: the Dirichlet wall at X is part
    # of the discretized operator
    X = 3.0
    E1 = cusp_operator_eigs(4.0, k=1, x_max=X, n=6000)[0]

    def endpoint(E):
        sol = solve_ivp(
            lambda x, f: [f[1], (x**4 - E) * f[0]],
            (0.0, X),
            [0.0, 1.0],
            method="DOP853",
            rtol=1e-11,
            atol=1e-13,
        )
        return sol.y[0, -1]

    E_shoot = brentq(endpoint, E1 - 0.5, E1 + 0.5, xtol=1e-10)
    assert abs(E1 - E_shoot) < 1e-4
    # the known first odd level of the line quartic oscillator is 3.79967303;
    # the truncated-domain value must sit within the Dirichlet-shift budget
    assert E1 == pytest.approx(3.7996730298, abs=5e-4)


def test_cusp_operator_dirichlet_truncation_inert():
    E_a = cusp_operator_eigs(2.0, k=1, x_max=6.0, n=3000)[0]
    E_b = cusp_operator_eigs(2.0, k=1, x_max=12.0, n=6000)[0]
    assert abs(E_a - E_b) < 1e-8


def test_cusp_operator_domain_error():
    with pytest.raises(DomainSizeError):
        cusp_operator_eigs(2.0, k=3, x_max=2.0)


# ------------------------------------------------------------------- wedge


def test_wedge_F_magnetic_only_part():
    p = WedgeParams(phi=0.7, alpha=-1e-300, theta=1.2)
    x = np.array([0.5, 1.0, 2.0])
    expected = 1.0 + x**4 / 4.0 - 1.2 * x**2
    for y in (0.1, 1.0, 7.0):
        assert np.allclose(wedge_F(p, x, y), expected, atol=1e-290)


def test_wedge_F_attractive_term_lowers_value():
    p0 = WedgeParams(phi=1.0, alpha=-1e-9, theta=1.0)
    p1 = WedgeParams(phi=1.0, alpha=-2.0, theta=1.0)
    x, y = 1.3, 0.4
    assert wedge_F(p1, x, y) < wedge_F(p0, x, y)


def test_wedge_F_erf_factor_high_precision():
    # 50-digit reference: erf(1) = 0.84270079294971486934...
    erf1 = 0.8427007929497149
    assert abs(erf(1.0) - erf1) < 1e-15
    p = WedgeParams(phi=np.pi / 2.0, alpha=-3.0, theta=0.8)
    x = 1.7
    expected = (
        1.0
        + x**4 / 4.0
        - 0.8 * x**2
        - 3.0 / np.sqrt(np.pi) * x * np.exp(-1.0) * (1.0 + erf1)
    )
    assert wedge_F(p, x, 1.0) == pytest.approx(expected, abs=1e-14)


def test_wedge_infimum_matches_quartic_calculus():
    # for |alpha| -> 0 the infimum is min_x (1 + x^4/4 - Theta x^2) = 1 - Theta^2
    out = wedge_F_infimum(WedgeParams(phi=np.pi / 3, alpha=-1e-6, theta=1.5))
    assert out.value == pytest.approx(1.0 - 1.5**2, abs=1e-4)
    assert out.negative and out.refined
    assert out.argmin[0] == pytest.approx(np.sqrt(2 * 1.5), abs=1e-2)


def test_wedge_infimum_positive_case():
    out = wedge_F_infimum(WedgeParams(phi=np.pi / 3, alpha=-1e-6, theta=0.5))
    assert out.value == pytest.approx(0.75, abs=1e-4)
    assert not out.negative


def test_wedge_infimum_monotone_in_strength():
    vals, flags = [], []
    for alpha in (-0.1, -1.0, -10.0):
        out = wedge_F_infimum(WedgeParams(phi=np.pi / 4, alpha=alpha, theta=1.2))
        vals.append(out.value)
        flags.append(out.negative)
    assert vals[0] >= vals[1] >= vals[2]
    for earlier, later in zip(flags, flags[1:]):
        assert later or not earlier  # once negative, stays negative


def test_wedge_params_validation():
    with pytest.raises(ValueError):
        WedgeParams(phi=0.0, alpha=-1.0, theta=1.0)
    with pytest.raises(ValueError):
        WedgeParams(phi=1.0, alpha=0.5, theta=1.0)
