import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from deltasqueeze import spectral
from deltasqueeze.fem import (
    assemble_delta_term,
    assemble_magnetic_stiffness,
    assemble_mass,
    build_form,
    build_mesh,
    homogeneous_gauge,
    restrict,
)
from deltasqueeze.geometry import LineSegment, Network
from deltasqueeze.oracles import delta_point_eigenvalue
from deltasqueeze.potentials import SqueezedPotential, constant_profile
from deltasqueeze.spectral import (
    FitError,
    NonHermitianError,
    ResolventFactor,
    ShiftError,
    count_below,
    fit_rate,
    lowest_eigs,
    resolvent_diff_norm,
)


def dirichlet_pencil(h, box=((0.0, 1.0), (0.0, 1.0)), A=None):
    m = build_mesh(box, h)
    S = restrict(m, assemble_magnetic_stiffness(m, A))
    M = restrict(m, assemble_mass(m))
    return S, M, m


def segment_pencil(alpha, half_len, h, box=((-2.0, 2.0), (-2.0, 2.0)), beta_cap=1.0):
    net = Network([LineSegment((-half_len, 0.0), (half_len, 0.0))], beta_cap=beta_cap)
    m = build_mesh(box, h)
    S = restrict(
        m, assemble_magnetic_stiffness(m) + assemble_delta_term(m, net, [alpha])
    )
    M = restrict(m, assemble_mass(m))
    return S, M, net, m


# --------------------------------------------------------------- lowest_eigs


def test_dirichlet_square_eigs_with_degenerate_pair():
    S, M, _ = dirichlet_pencil(1.0 / 64.0)
    res = lowest_eigs(S, M, k=3)
    targets = np.pi**2 * np.array([2.0, 5.0, 5.0])
    assert np.all(np.abs(res.eigenvalues - targets) / targets < 0.01)
    split = abs(res.eigenvalues[2] - res.eigenvalues[1]) / res.eigenvalues[1]
    assert split < 1e-3
    assert np.all(res.residuals <= 1e-8)
    assert res.rayleigh_imag <= 1e-10


def test_identity_pencil():
    M = restrict(*(lambda m: (m, assemble_mass(m)))(build_mesh(((0, 1), (0, 1)), 0.125)))
    res = lowest_eigs(M, M, k=4)
    assert np.allclose(res.eigenvalues, 1.0, atol=1e-10)


def test_segment_bound_state_above_line_threshold_and_monotone_in_length():
    # the infinite-line threshold -alpha^2/4 bounds finite segments from below
    alpha = -5.0
    threshold = delta_point_eigenvalue(alpha)
    lams = []
    for half_len in (1.0, 1.5, 2.0):
        S, M, _, _ = segment_pencil(
            alpha, half_len, 1.0 / 32.0, box=((-3.0, 3.0), (-2.0, 2.0))
        )
        lams.append(lowest_eigs(S, M, k=1, shift=-12.0).eigenvalues[0])
    assert all(threshold < lam < 0.0 for lam in lams)
    assert lams[0] > lams[1] > lams[2]


def test_eigenvalue_monotonicity_in_alpha():
    lams = []
    for alpha in (-2.0, -4.0, -6.0):
        S, M, _, _ = segment_pencil(alpha, 1.0, 1.0 / 16.0)
        lams.append(lowest_eigs(S, M, k=1).eigenvalues[0])
    assert lams[1] <= lams[0] + 1e-10
    assert lams[2] <= lams[1] + 1e-10


def test_shift_inside_spectrum_is_retried():
    S, M, _ = dirichlet_pencil(1.0 / 16.0)
    # 2*pi^2 is the ground state; a shift far above it must still return it
    res = lowest_eigs(S, M, k=1, shift=100.0)
    assert res.eigenvalues[0] == pytest.approx(2 * np.pi**2, rel=0.02)


def deep_segment_pencil():
    """n = 961 and lam_1 = -43.8, below -1 * 2**5: more than five lowerings
    of the shift from its default start -1."""
    S, M, _, _ = segment_pencil(-14.0, 1.0, 1.0 / 8.0)
    return S, M


def test_every_factorization_without_an_estimate_is_counted(monkeypatch):
    calls = {"splu": 0, "count_below": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spectral.spla, "splu", counted("splu", spectral.spla.splu))
    monkeypatch.setattr(spectral, "count_below", counted("count_below", count_below))
    S, M = deep_segment_pencil()
    lowest_eigs(S, M, k=1)
    assert calls["splu"] == calls["count_below"] > 5


def test_certified_shift_far_below_the_start_matches_dense_eigh():
    S, M = deep_segment_pencil()
    lam = sla.eigh(S.toarray(), M.toarray(), eigvals_only=True)
    assert lam[0] < -32.0
    res = lowest_eigs(S, M, k=3)
    assert np.allclose(res.eigenvalues, lam[:3], rtol=1e-10, atol=0.0)
    assert count_below(ResolventFactor(S, M, res.shift)) == 0


def test_no_certified_shift_for_a_negative_mass_raises():
    # S - sigma M is singular at the start -1, then negative definite below it
    S = sp.identity(80, format="csc")
    with pytest.raises(ShiftError, match="certified below"):
        lowest_eigs(S, -S, k=1)


# -------------------------------------------------------------------- inertia

# a rectangle, so lambda_2 < lambda_3 (the square's pair is degenerate)
RECT = ((0.0, 1.0), (0.0, 0.75))


@pytest.mark.parametrize("b", [0.0, 1.5], ids=["dirichlet", "magnetic"])
@pytest.mark.parametrize("where", ["below_1", "between_2_3", "above_3"])
def test_count_below_matches_dense_eigh(b, where):
    S, M, _ = dirichlet_pencil(1.0 / 12.0, RECT, homogeneous_gauge(b) if b else None)
    assert np.iscomplexobj(S.data) == bool(b)
    lam = sla.eigh(S.toarray(), M.toarray(), eigvals_only=True)
    assert lam[2] - lam[1] > 1.0
    sigma = {
        "below_1": lam[0] - 1e-6,
        "between_2_3": 0.5 * (lam[1] + lam[2]),
        "above_3": lam[2] + 1e-6,
    }[where]
    expected = {"below_1": 0, "between_2_3": 2, "above_3": 3}[where]
    assert np.sum(lam < sigma) == expected
    assert count_below(ResolventFactor(S, M, sigma)) == expected


def test_certified_factor_reproduces_the_fresh_eigensolve():
    S, M, _ = dirichlet_pencil(1.0 / 24.0, RECT, homogeneous_gauge(1.5))
    fresh = lowest_eigs(S, M, k=2)
    sigma = fresh.eigenvalues[0] - 5.0
    reused = lowest_eigs(S, M, k=2, factor=ResolventFactor(S, M, sigma))
    assert reused.shift == sigma
    assert np.allclose(reused.eigenvalues, fresh.eigenvalues, rtol=1e-10, atol=0.0)
    assert np.all(reused.residuals <= 1e-8)


def test_uncertified_factor_is_rejected():
    S, M, _ = dirichlet_pencil(1.0 / 24.0, RECT)
    lam = lowest_eigs(S, M, k=2).eigenvalues
    factor = ResolventFactor(S, M, 0.5 * (lam[0] + lam[1]))
    with pytest.raises(ShiftError, match="1 eigenvalues below"):
        lowest_eigs(S, M, k=1, factor=factor)


def test_non_hermitian_pencil_is_refused():
    # a complex strength makes the delta term, hence S, non-Hermitian
    net = Network([LineSegment((-1.0, 0.0), (1.0, 0.0))], beta_cap=0.5)
    mesh = build_mesh(((-2.0, 2.0), (-2.0, 2.0)), 1.0 / 8.0)
    S = build_form(mesh, net=net, strengths={0: -5.0 + 2.0j}).S
    S_real, M = build_form(mesh, net=net, strengths={0: -5.0}).S, build_form(mesh).M
    assert S.shape[0] >= 60  # past the dense cutoff of lowest_eigs
    for call in (
        lambda: lowest_eigs(S, M, k=2),
        lambda: lowest_eigs(S, M, k=2, upper_estimate=-1.0),
        lambda: count_below(ResolventFactor(S, M, -1.0)),
        lambda: resolvent_diff_norm(ResolventFactor(S_real, M, -30.0),
                                    ResolventFactor(S, M, -30.0)),
    ):
        with pytest.raises(NonHermitianError, match="not Hermitian"):
            call()
    # a magnetic pencil is complex but Hermitian: it still solves
    S_mag = build_form(mesh, A=homogeneous_gauge(1.5), net=net, strengths={0: -5.0}).S
    lam = sla.eigh(S_mag.toarray(), M.toarray(), eigvals_only=True)
    assert np.allclose(lowest_eigs(S_mag, M, k=2).eigenvalues, lam[:2], rtol=1e-10, atol=0.0)
    assert count_below(ResolventFactor(S_mag, M, lam[0] - 1.0)) == 0


# --------------------------------------------------------- resolvent factor


def test_resolvent_on_eigenvector():
    S, M, _ = dirichlet_pencil(1.0 / 32.0)
    res = lowest_eigs(S, M, k=2)
    lam = -5.0
    v = res.eigenvectors[:, 0]
    x = ResolventFactor(S, M, lam).apply(v)
    assert np.linalg.norm(x - v / (res.eigenvalues[0] - lam)) < 1e-8


def test_resolvent_norm_bound_at_deep_shift():
    S, M, _ = dirichlet_pencil(1.0 / 16.0)
    lam_min = lowest_eigs(S, M, k=1).eigenvalues[0]
    lam = lam_min - 1e3
    rng = np.random.default_rng(0)
    rhs = rng.standard_normal(S.shape[0])
    x = ResolventFactor(S, M, lam).apply(rhs)
    nrm = lambda v: np.sqrt(v @ (M @ v))
    assert nrm(x) <= nrm(rhs) / abs(lam - lam_min) * (1 + 1e-10)


def test_resolvent_two_by_two_diagonal_oracle():
    # hand-solved: S = diag(2, 6), M = diag(1, 2), lam = -1
    # (S - lam M) x = M rhs  =>  diag(3, 8) x = (1, 2)  =>  x = (1/3, 1/4)
    S = sp.diags([2.0, 6.0]).tocsr()
    M = sp.diags([1.0, 2.0]).tocsr()
    factor = ResolventFactor(S, M, -1.0)
    assert count_below(factor) == 0
    x = factor.apply(np.array([1.0, 1.0]))
    assert np.max(np.abs(x - np.array([1.0 / 3.0, 1.0 / 4.0]))) < 1e-14


def test_resolvent_rejects_shift_in_spectrum():
    S = sp.diags([2.0, 6.0]).tocsr()
    M = sp.diags([1.0, 2.0]).tocsr()
    inside = ResolventFactor(S, M, 2.5)
    assert count_below(inside) == 1
    with pytest.raises(ShiftError, match="1 eigenvalues below"):
        lowest_eigs(S, M, k=1, factor=inside)
    with pytest.raises(RuntimeError, match="singular"):
        ResolventFactor(S, M, 2.0)  # an eigenvalue


def test_resolvent_check_by_inertia_of_its_factor():
    S, M, _ = dirichlet_pencil(1.0 / 16.0, RECT)
    lam = sla.eigh(S.toarray(), M.toarray(), eigvals_only=True)
    below = ResolventFactor(S, M, lam[0] - 1e-6)
    assert count_below(below) == 0
    res = lowest_eigs(S, M, k=1, factor=below)
    assert res.eigenvalues[0] == pytest.approx(lam[0], rel=1e-10)
    with pytest.raises(ShiftError, match="2 eigenvalues below"):
        lowest_eigs(S, M, k=1, factor=ResolventFactor(S, M, 0.5 * (lam[1] + lam[2])))


def test_estimated_shift_needs_fewer_than_41_solves(monkeypatch):
    # k = 1 with only an upper estimate: a 20-vector Lanczos basis, not 40
    S, M, _, _ = segment_pencil(-5.0, 1.0, 1.0 / 16.0)
    assert S.shape[0] == 3969
    solves = []
    splu = spectral.spla.splu

    class CountedFactor:
        def __init__(self, lu):
            self._lu = lu

        def solve(self, *args, **kwargs):
            solves.append(1)
            return self._lu.solve(*args, **kwargs)

        def __getattr__(self, attr):
            return getattr(self._lu, attr)

    monkeypatch.setattr(spectral.spla, "splu",
                        lambda *args, **kwargs: CountedFactor(splu(*args, **kwargs)))
    res = lowest_eigs(S, M, k=1, upper_estimate=-5.0)
    assert len(solves) < 41
    # Fortran-ordered dense copies that eigh may overwrite: one copy each
    lam = sla.eigh(S.toarray(order="F"), M.toarray(order="F"), eigvals_only=True,
                   subset_by_index=[0, 0], overwrite_a=True, overwrite_b=True)
    assert res.eigenvalues[0] == pytest.approx(lam[0], rel=1e-10)


# ------------------------------------------------------- resolvent diff norm


def test_identical_forms_give_zero():
    S, M, _ = dirichlet_pencil(1.0 / 16.0)
    out = resolvent_diff_norm(ResolventFactor(S, M, -3.0), ResolventFactor(S.copy(), M, -3.0))
    assert out.converged
    assert out.value <= 1e-12


def test_scalar_shift_norm_against_dense_eigendecomposition():
    # 16-node mesh: forms differing by c*M have resolvent difference norm
    # max_mu |1/(mu - lam) - 1/(mu + c - lam)| over pencil eigenvalues mu
    S, M, m = dirichlet_pencil(1.0 / 3.0)
    assert m.n_nodes == 16
    c, lam = 7.5, -2.0
    S2 = (S + c * M).tocsr()
    out = resolvent_diff_norm(ResolventFactor(S, M, lam), ResolventFactor(S2, M, lam))
    mu = sla.eigh(S.toarray(), M.toarray(), eigvals_only=True)
    exact = np.max(np.abs(1.0 / (mu - lam) - 1.0 / (mu + c - lam)))
    assert out.converged
    assert out.value == pytest.approx(exact, rel=1e-10)


def test_norm_of_a_plus_minus_eigenvalue_pair():
    # D = diag(1/a - 1/b) at lam = 0 has the pair +-0.5 above a cluster near
    # 1e-4: an estimate of |x.Dx| alone sees the pair cancel
    n = 60
    a = np.concatenate([[1.0, 2.0], np.linspace(3.0, 9.0, n - 2)])
    b = np.concatenate([[2.0, 1.0], a[2:] + 1e-3])
    M = sp.identity(n, format="csc")
    out = resolvent_diff_norm(ResolventFactor(sp.diags(a), M, 0.0),
                              ResolventFactor(sp.diags(b), M, 0.0))
    assert np.max(np.abs(1.0 / a - 1.0 / b)) == 0.5
    assert out.converged
    assert out.value == pytest.approx(0.5, rel=1e-10)


def test_factors_at_different_shifts_are_refused():
    S, M, _ = dirichlet_pencil(1.0 / 8.0)
    with pytest.raises(ValueError, match=r"-3\.0.*-4\.0"):
        resolvent_diff_norm(ResolventFactor(S, M, -3.0), ResolventFactor(S, M, -4.0))


def test_diff_operator_m_symmetric():
    S, M, _ = dirichlet_pencil(0.25)
    net = Network([LineSegment((0.3, 0.5), (0.7, 0.5))], beta_cap=0.2)
    m = build_mesh(((0.0, 1.0), (0.0, 1.0)), 0.25)
    B = restrict(m, assemble_delta_term(m, net, [-1.0]))
    lam = -10.0
    n = S.shape[0]
    Rd = np.column_stack(
        [ResolventFactor(S, M, lam).apply(e) for e in np.eye(n)]
    )
    Re = np.column_stack(
        [ResolventFactor(S + B, M, lam).apply(e) for e in np.eye(n)]
    )
    MD = M.toarray() @ (Rd - Re)
    assert np.max(np.abs(MD - MD.T.conj())) <= 1e-10


def test_halving_eps_contracts_norm_at_squeezing_rate():
    # once eps <= beta/4, halving eps scales the norm by 2^(-s), s in [0.35, 0.8]
    alpha = -5.0
    h = 1.0 / 32.0
    S_d, M, net, mesh = segment_pencil(alpha, 1.0, h)
    beta = net.beta
    assert beta == 1.0
    lam1 = lowest_eigs(S_d, M, k=1, shift=-12.0).eigenvalues[0]
    lam = lam1 - max(1.0, abs(lam1))
    R_d = ResolventFactor(S_d, M, lam)
    norms = []
    for eps in (beta / 4.0, beta / 8.0):
        W = SqueezedPotential(net, [constant_profile(0, alpha / (2 * beta), beta)], eps)
        from deltasqueeze.fem import assemble_magnetic_stiffness, assemble_volume_potential

        S_e = restrict(
            mesh,
            assemble_magnetic_stiffness(mesh) + assemble_volume_potential(mesh, W),
        )
        norms.append(resolvent_diff_norm(R_d, ResolventFactor(S_e, M, lam)).value)
    ratio = norms[1] / norms[0]
    assert 2.0**-0.8 <= ratio <= 2.0**-0.35


# ------------------------------------------------------------------ fit_rate


def test_fit_exact_half_power():
    eps = np.geomspace(1.0, 0.01, 6)
    fit = fit_rate(eps, eps**0.5)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)


def test_fit_linear_with_prefactor():
    eps = np.geomspace(0.5, 0.05, 5)
    fit = fit_rate(eps, 3.0 * eps)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)


def test_fit_under_multiplicative_noise_monte_carlo():
    # 5 percent multiplicative noise on eps^0.5 over 8 points: the slope stays
    # within [0.42, 0.58]; checked on one seeded draw and on 1000 trials
    eps = 0.7 ** np.arange(8)
    rng = np.random.default_rng(99)
    vals = eps**0.5 * (1.0 + 0.05 * rng.standard_normal(8))
    assert 0.42 <= fit_rate(eps, vals).slope <= 0.58
    slopes = []
    for _ in range(1000):
        noisy = eps**0.5 * (1.0 + 0.05 * rng.standard_normal(8))
        slopes.append(fit_rate(eps, noisy).slope)
    slopes = np.array(slopes)
    assert np.mean((slopes >= 0.42) & (slopes <= 0.58)) >= 0.99
    assert np.median(slopes) == pytest.approx(0.5, abs=0.01)


def test_fit_excludes_nonpositive_and_errors_when_underdetermined():
    eps = np.array([0.4, 0.2, 0.1, 0.05])
    with pytest.warns(UserWarning):
        fit = fit_rate(eps, np.array([0.6, 0.4, -1.0, 0.2]))
    assert fit.n_used == 3 and fit.n_excluded == 1
    with pytest.raises(FitError):
        with pytest.warns(UserWarning):
            fit_rate(eps, np.array([0.5, -1.0, -2.0, 0.1]))
