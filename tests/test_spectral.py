import logging
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from conftest import reference_entries

from deltasqueeze import fem, frontal, spectral
from deltasqueeze.fem import (
    assemble_base,
    assemble_delta_term,
    assemble_magnetic_stiffness,
    assemble_mass,
    build_form,
    build_mesh,
    homogeneous_gauge,
    restrict,
)
from deltasqueeze.geometry import LineSegment, Network
from deltasqueeze.lab import cusp_network
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
        m, assemble_magnetic_stiffness(m) + assemble_delta_term(m, net, {0: alpha})
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


def m_orthonormality(res, M):
    """max|V^H M V - I| of the eigenvectors V of `res`."""
    V = res.eigenvectors
    return np.abs(V.conj().T @ (M @ V) - np.eye(V.shape[1])).max()


def test_identity_pencil():
    M = restrict(*(lambda m: (m, assemble_mass(m)))(build_mesh(((0, 1), (0, 1)), 0.125)))
    res = lowest_eigs(M, M, k=4)  # n = 49: the dense path
    assert np.allclose(res.eigenvalues, 1.0, atol=1e-10)
    assert m_orthonormality(res, M) <= 1e-13


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


@pytest.fixture
def calls(monkeypatch):
    """Number of factorizations and of inertia counts the test makes."""
    calls = {"splu": 0, "count_below": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spectral.spla, "splu", counted("splu", spectral.spla.splu))
    monkeypatch.setattr(spectral, "count_below", counted("count_below", count_below))
    return calls


def test_every_factorization_without_an_estimate_is_counted(calls):
    S, M = deep_segment_pencil()
    lowest_eigs(S, M, k=1)
    assert calls["splu"] == calls["count_below"] > 5


def test_every_superlu_factor_of_an_estimate_is_counted(calls):
    S, M = deep_segment_pencil()
    lam = sla.eigh(S.toarray(), M.toarray(), eigvals_only=True)
    # a first shift just above lam_1: its count refuses it, so the shift is lowered
    res = lowest_eigs(S, M, k=1, shift=lam[0] + 0.1 * (lam[1] - lam[0]),
                      upper_estimate=lam[0] + 1.0)
    assert calls["count_below"] == calls["splu"] >= 2
    assert res.eigenvalues[0] == pytest.approx(lam[0], rel=1e-10)
    assert res.shift < lam[0]


def test_a_shift_between_two_eigenvalues_with_an_estimate_returns_lam_1(calls):
    # a shift between lam_1 = 1 and lam_2 = 1.2, and an estimate within half
    # a unit of lam_2: shift-invert there finds lam_2 first, so only the
    # inertia count, which sees lam_1 below the shift, tells it from lam_1
    d = np.concatenate([[1.0, 1.2], np.linspace(3.0, 50.0, 98)])
    S, M = sp.diags(d, format="csr"), sp.identity(d.size, format="csr")
    lam = sla.eigh(S.toarray(), M.toarray(), eigvals_only=True)
    res = lowest_eigs(S, M, k=1, shift=1.15, upper_estimate=1.5)
    assert res.eigenvalues[0] == pytest.approx(lam[0], rel=1e-10)
    assert res.shift < lam[0] == 1.0
    assert calls["count_below"] == calls["splu"] == 2


def test_every_tree_factor_of_an_estimate_is_counted(monkeypatch):
    # a first shift just above lam_1: its tree factor counts one eigenvalue
    # below it, so the loop lowers the shift without an eigensolve there
    S, M, _, mesh = segment_pencil(-14.0, 1.0, 1.0 / 8.0)
    lam = sla.eigh(S.toarray(), M.toarray(), eigvals_only=True)
    init, shifts, counted = ResolventFactor.__init__, [], []

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        shifts.append(self.lam)

    monkeypatch.setattr(ResolventFactor, "__init__", recording)
    monkeypatch.setattr(spectral, "count_below",
                        lambda factor: counted.append(factor.lam) or count_below(factor))
    res = lowest_eigs(S, M, k=1, shift=lam[0] + 0.1 * (lam[1] - lam[0]),
                      upper_estimate=lam[0] + 1.0, tree=mesh.tree)
    assert counted == shifts and len(shifts) >= 2
    assert lam[0] < shifts[0] and res.shift == shifts[-1] < lam[0]
    assert res.eigenvalues[0] == pytest.approx(lam[0], rel=1e-10)


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


@pytest.mark.parametrize("b, kind", [(0.0, "superlu"), (1.5, "superlu"), (0.0, "tree"),
                                     (1.5, "tree")],
                         ids=["dirichlet", "magnetic", "dirichlet-tree", "magnetic-tree"])
@pytest.mark.parametrize("where", ["below_1", "between_2_3", "above_3", "between_3_4"])
def test_count_below_matches_dense_eigh(b, kind, where):
    # the pencil is factored in the mesh's nested-dissection numbering: by
    # SuperLU, where a complex Hermitian one must keep perm_r == perm_c too,
    # or on the mesh's dissection tree, whose fronts fail Cholesky above lam_1
    S, M, m = dirichlet_pencil(1.0 / 12.0, RECT, homogeneous_gauge(b) if b else None)
    assert np.iscomplexobj(S.data) == bool(b)
    lam = sla.eigh(S.toarray(), M.toarray(), eigvals_only=True)
    assert lam[2] - lam[1] > 1.0 and lam[3] - lam[2] > 1.0
    sigma = {
        "below_1": lam[0] - 1e-6,
        "between_2_3": 0.5 * (lam[1] + lam[2]),
        "above_3": lam[2] + 1e-6,
        "between_3_4": 0.5 * (lam[2] + lam[3]),
    }[where]
    expected = {"below_1": 0, "between_2_3": 2, "above_3": 3, "between_3_4": 3}[where]
    assert np.sum(lam < sigma) == expected
    if kind == "tree":
        factor = ResolventFactor(S, M, sigma, tree=m.tree)
        assert factor._lu.negatives == expected  # counted as it was made
        if where.startswith("between"):  # an indefinite factor solves, away from lam
            x = np.random.default_rng(2).standard_normal(S.shape[0])
            want = np.linalg.solve((S - sigma * M).toarray(), M @ x)
            assert np.allclose(factor.apply(x), want, rtol=0.0, atol=1e-12 * np.abs(want).max())
    else:
        factor = ResolventFactor(S, M, sigma)
        assert np.array_equal(factor._lu.perm_r, factor._lu.perm_c)
    assert count_below(factor) == expected


@pytest.mark.parametrize("b", [0.0, 1.5], ids=["real", "magnetic"])
@pytest.mark.parametrize("pencil", ["smoke", "cusp"])
def test_tree_solve_matches_superlu(pencil, b):
    # the criterion-9 smoke box and line, and the cusp-trend box and curve
    if pencil == "smoke":
        net = Network([LineSegment((-1.0, 0.0), (1.0, 0.0))], beta_cap=1.0)
        mesh = build_mesh(((-2.0, 2.0), (-2.0, 2.0)), 1.0 / 16.0)
    else:
        net = cusp_network(2.0, 0.75, 0.25)
        mesh = build_mesh(((-0.75, 3.0), (-1.75, 1.75)), 1.0 / 16.0)
    strengths = dict.fromkeys(range(len(net.segments)), -6.0)
    form = build_form(mesh, A=homogeneous_gauge(b) if b else None, net=net,
                      strengths=strengths)
    assert np.iscomplexobj(form.S.data) == bool(b) and form.tree is mesh.tree
    sigma = -40.0  # below both spectra
    tree = ResolventFactor(form.S, form.M, sigma, tree=form.tree)
    lu = ResolventFactor(form.S, form.M, sigma)
    assert count_below(tree) == count_below(lu) == 0
    assert tree._lu.nnz < 0.7 * lu._lu.nnz
    rng = np.random.default_rng(5)
    x = rng.standard_normal(form.n) + (1j * rng.standard_normal(form.n) if b else 0.0)
    want = lu.apply(x)
    assert np.max(np.abs(tree.apply(x) - want)) <= 1e-12 * np.max(np.abs(want))


def tube_pencils(pencil, b):
    """(mesh, delta form, squeezed form) of the criterion-9 smoke box and line
    or the cusp-trend box and curve at h = 1/16, on one base form: the
    pencils of a convergence sweep, equal outside the squeezed tube."""
    if pencil == "smoke":
        net = Network([LineSegment((-1.0, 0.0), (1.0, 0.0))], beta_cap=1.0)
        mesh, eps = build_mesh(((-2.0, 2.0), (-2.0, 2.0)), 1.0 / 16.0), 0.5
    else:
        net = cusp_network(2.0, 0.75, 0.25)
        mesh, eps = build_mesh(((-0.75, 3.0), (-1.75, 1.75)), 1.0 / 16.0), 0.25
    A = homogeneous_gauge(b) if b else None
    base = assemble_base(mesh, A)
    strengths = dict.fromkeys(range(len(net.segments)), -6.0)
    profiles = [constant_profile(k, -6.0 / (2.0 * net.beta), net.beta)
                for k in range(len(net.segments))]
    delta = build_form(mesh, A=A, net=net, strengths=strengths, base=base)
    squeezed = build_form(mesh, A=A, potential=SqueezedPotential(net, profiles, eps), base=base)
    return mesh, delta, squeezed


@pytest.mark.parametrize("b", [0.0, 1.5], ids=["real", "magnetic"])
@pytest.mark.parametrize("pencil", ["smoke", "cusp"])
def test_shared_exterior_factor_matches_a_fresh_tree_factor(pencil, b):
    mesh, delta, squeezed = tube_pencils(pencil, b)
    tube = delta.tube | squeezed.tube
    assert 0 < np.count_nonzero(tube) < 0.5 * tube.size
    lam = lowest_eigs(squeezed.S, squeezed.M, k=2, tree=mesh.tree).eigenvalues
    rng = np.random.default_rng(9)
    x = rng.standard_normal(delta.n) + (1j * rng.standard_normal(delta.n) if b else 0.0)
    # below the spectrum, and between lam_1 and lam_2: one negative pivot
    for sigma, below in ((lam[0] - 10.0, 0), (0.5 * (lam[0] + lam[1]), 1)):
        R_delta = ResolventFactor(delta.S, delta.M, sigma, tree=mesh.tree, share=tube)
        R_eps = ResolventFactor(squeezed.S, squeezed.M, sigma, tree=mesh.tree, share=R_delta)
        fresh = ResolventFactor(squeezed.S, squeezed.M, sigma, tree=mesh.tree)
        assert R_delta._lu.shares(R_eps._lu) and not R_delta._lu.shares(fresh._lu)
        # the eps factor stores the classes of the tube fronts only, those a
        # fresh factor has there, and takes the others from R_delta
        plan = fresh._lu._plan
        assert R_eps._lu.nnz == sum(K.size for g, K in zip(plan.groups, fresh._lu._K)
                                    if not g.shared) < fresh._lu.nnz
        assert all(K is R_delta._lu._K[i] for i, K in enumerate(R_eps._lu._K)
                   if plan.groups[i].shared)
        assert R_eps._lu.negatives == fresh._lu.negatives == below
        assert count_below(R_delta) == count_below(ResolventFactor(
            delta.S, delta.M, sigma, tree=mesh.tree))
        want = fresh._lu.solve(x)
        assert np.max(np.abs(R_eps._lu.solve(x) - want)) <= 1e-12 * np.max(np.abs(want))
        solves = R_delta._lu.solve(x), R_eps._lu.solve(x)
        diff = R_delta._lu.solve_difference(R_eps._lu, x)
        assert np.max(np.abs(diff - (solves[0] - solves[1]))) <= 1e-12 * np.max(
            np.abs(solves[0]))


@pytest.mark.parametrize("pencil, b", [("smoke", 0.0), ("cusp", 0.0), ("cusp", 1.5)],
                         ids=["smoke", "cusp", "cusp-magnetic"])
def test_chunk_boundaries_change_no_bit(monkeypatch, pencil, b):
    # one front per chunk against the default budget, which takes each group
    # of these pencils in one chunk: a plain factor, a tube-keeping delta
    # factor and an eps factor that reuses its exterior on a tube plan with
    # non-monotone parent offsets
    mesh, delta, squeezed = tube_pencils(pencil, b)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(delta.n) + (1j * rng.standard_normal(delta.n) if b else 0.0)

    def factors():
        mesh.tree.cache.clear()  # the plain factor on a plan of its own
        plain = ResolventFactor(delta.S, delta.M, -40.0, tree=mesh.tree)._lu
        R_delta = ResolventFactor(delta.S, delta.M, -40.0, tree=mesh.tree,
                                  share=delta.tube | squeezed.tube)._lu
        R_eps = ResolventFactor(squeezed.S, squeezed.M, -40.0, tree=mesh.tree,
                                share=R_delta)._lu
        assert R_eps.shares(R_delta)
        return plain, R_delta, R_eps

    default = factors()
    monkeypatch.setattr(frontal, "_FRONTS", 1)
    chunked = factors()
    assert any(g.rank is not None for g in chunked[2]._plan.groups)
    for one, other in zip(default, chunked):
        assert one.negatives == other.negatives == 0
        assert [K.tobytes() for K in one._K] == [K.tobytes() for K in other._K]
        assert one._D == other._D == [None] * len(one._D)
        assert one.solve(x).tobytes() == other.solve(x).tobytes()
    assert (default[1].solve_difference(default[2], x).tobytes()
            == chunked[1].solve_difference(chunked[2], x).tobytes())


def test_only_a_chunk_that_fails_cholesky_is_diagonalised(monkeypatch):
    # in a deep square well the leaf fronts fail Cholesky at this shift and
    # the others pass: with one front per chunk, only the fronts that fail
    # are diagonalised (D = 1 on the rest of their group), and the count of
    # negative eigenvalues stays exact
    monkeypatch.setattr(frontal, "_FRONTS", 1)
    calls, pivot_blocks = [], frontal._pivot_blocks

    def recording(F11):
        K1, D, negatives = pivot_blocks(F11)
        calls.append((len(F11), D is not None))
        return K1, D, negatives

    monkeypatch.setattr(frontal, "_pivot_blocks", recording)
    mesh = build_mesh(((-1.0, 1.0), (-1.0, 1.0)), 1.0 / 16.0)
    form = build_form(mesh, potential=lambda x, y: np.where(
        (np.abs(x) < 0.3) & (np.abs(y) < 0.3), -5000.0, 0.0))
    A = (form.S + 2000.0 * form.M).tocsr()
    factor = frontal.TreeFactor(A, mesh.tree)
    assert factor.negatives == np.count_nonzero(np.linalg.eigvalsh(A.toarray()) < 0) > 0
    diagonalised = sum(m for m, eigh in calls if eigh)
    assert diagonalised == sum(np.count_nonzero(np.any(D < 0, axis=1))
                               for D in factor._D if D is not None)
    assert diagonalised < sum(len(g.pivots) for g, D in zip(factor._plan.groups, factor._D)
                              if D is not None)
    x = np.random.default_rng(0).standard_normal(form.n)
    assert np.max(np.abs(A @ factor.solve(x) - x)) <= 1e-12 * np.max(np.abs(x))


@pytest.mark.parametrize("below", [0, 100], ids=["below", "inside"])
def test_a_factor_counts_the_negatives_of_every_front_of_a_class(below):
    # a uniform mesh: most fronts share their class with others, and the
    # count weights each class's negatives by its fronts.  Inside the
    # spectrum, classes of several fronts fail Cholesky
    mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), 1.0 / 32.0)
    form = build_form(mesh)
    lam = sla.eigh(form.S.toarray(), form.M.toarray(), eigvals_only=True)
    sigma = lam[0] - 1.0 if below == 0 else 0.5 * (lam[below - 1] + lam[below])
    A = (form.S - sigma * form.M).tocsr()
    factor = frontal.TreeFactor(A, mesh.tree)
    classes = factor._classes
    assert sum(len(t.reps) for t in classes) < 0.4 * sum(len(t.of) for t in classes)
    assert factor.negatives == np.count_nonzero(lam < sigma) == below
    repeated = sum(int(t.count[np.any(D < 0, axis=1)].max()) > 1
                   for t, D in zip(classes, factor._D) if D is not None)
    assert (repeated > 0) == (below > 0)
    x = np.random.default_rng(1).standard_normal(form.n)
    assert np.max(np.abs(A @ factor.solve(x) - x)) <= 1e-10 * np.max(np.abs(x))


def test_every_front_of_a_class_that_fails_cholesky_takes_its_d(monkeypatch):
    # a square well on grid lines: repeated fronts inside it fail Cholesky.
    # With one class per chunk only the classes that fail are diagonalised,
    # and all their fronts take their class's D, in the count and in solves
    monkeypatch.setattr(frontal, "_FRONTS", 1)
    calls, pivot_blocks = [], frontal._pivot_blocks

    def recording(F11):
        K1, D, negatives = pivot_blocks(F11)
        calls.append((len(F11), D is not None))
        return K1, D, negatives

    monkeypatch.setattr(frontal, "_pivot_blocks", recording)
    mesh = build_mesh(((-1.0, 1.0), (-1.0, 1.0)), 1.0 / 16.0)
    form = build_form(mesh, potential=lambda x, y: np.where(
        (np.abs(x) < 0.5) & (np.abs(y) < 0.5), -5000.0, 0.0))
    A = (form.S + 2000.0 * form.M).tocsr()
    factor = frontal.TreeFactor(A, mesh.tree)
    assert len(calls) == sum(len(t.reps) for t in factor._classes)
    failed = [(t, np.any(D < 0, axis=1)) for t, D in zip(factor._classes, factor._D)
              if D is not None]
    assert sum(m for m, eigh in calls if eigh) == sum(np.count_nonzero(f) for _, f in failed)
    assert max(int(t.count[f].max()) for t, f in failed) > 1
    counted = sum(int(t.count @ np.count_nonzero(D < 0, axis=1))
                  for t, D in zip(factor._classes, factor._D) if D is not None)
    assert factor.negatives == counted == np.count_nonzero(np.linalg.eigvalsh(A.toarray()) < 0)
    x = np.random.default_rng(0).standard_normal(form.n)
    assert np.max(np.abs(A @ factor.solve(x) - x)) <= 1e-12 * np.max(np.abs(x))


def test_rows_that_share_a_hash_are_told_apart_by_their_bits():
    # two rows whose difference (m1, -m0) is orthogonal to the multipliers
    # (m0, m1) mod 2^64: the hash collides, the classes do not
    m0, m1 = frontal._mix(2)
    rows = np.full((3, 2), [3, 5], dtype=np.uint64)
    rows[1] += np.array([m1, 0], np.uint64)  # wraps mod 2^64, as the hash does
    rows[1] -= np.array([0, m0], np.uint64)
    assert len(set(rows @ frontal._mix(2))) == 1
    inverse, first = frontal._row_classes(rows.view(np.int64))
    assert inverse[0] == inverse[2] != inverse[1]
    assert list(first[inverse]) == [0, 1, 0]


def converge_line_pencil(h, b=0.0):
    """(mesh, form, S - sigma M) of the converge-line delta pencil, a line of
    length 4 with alpha = -5 on the grid line y = 0 of [-3, 3]^2, at its
    sweep shift sigma = -11.58, in the symmetric gauge of field b."""
    net = Network([LineSegment((-2.0, 0.0), (2.0, 0.0))], beta_cap=0.5)
    mesh = build_mesh(((-3.0, 3.0), (-3.0, 3.0)), h)
    form = build_form(mesh, A=homogeneous_gauge(b) if b else None, net=net,
                      strengths={0: -5.0})
    A = (form.S + 11.58 * form.M).tocsr()
    A.sum_duplicates()
    return mesh, form, A


def test_a_one_ulp_change_splits_the_classes_of_its_front_and_its_ancestors_only():
    mesh, form, A = converge_line_pencil(1.0 / 32.0)
    tree = mesh.tree
    one = frontal.TreeFactor(A, tree)
    # a leaf front of the largest class, off the line: its first pivot's
    # diagonal entry moves by one ulp
    leaf, t = one._plan.groups[0], one._classes[0]
    off_line = ~np.any(form.tube[leaf.pivots], axis=1)
    fronts = np.flatnonzero((t.of == np.argmax(t.count)) & off_line)
    assert len(fronts) > 1
    i = leaf.pivots[fronts[len(fronts) // 2], 0]
    B = A.copy()
    at = B.indptr[i] + np.flatnonzero(B.indices[B.indptr[i]:B.indptr[i + 1]] == i)[0]
    B.data[at] = np.nextafter(B.data[at], np.inf)
    other = frontal.TreeFactor(B, tree)
    chain = [np.searchsorted(tree.starts, i, side="right") - 1]
    while tree.parent[chain[-1]] >= 0:
        chain.append(tree.parent[chain[-1]])
    split = 0
    for g, old, new in zip(one._plan.groups, one._classes, other._classes):
        moved = np.isin(np.searchsorted(tree.starts, g.pivots[:, 0], side="right") - 1, chain)
        # every front off the chain keeps its class, and no front joins one
        rest = set(zip(old.of[~moved], new.of[~moved]))
        assert len(rest) == len(set(old.of[~moved])) == len(set(new.of[~moved]))
        assert np.all(new.count[new.of[moved]] == 1)
        split += np.count_nonzero(old.count[old.of[moved]] > 1)
    assert split >= 1
    assert (sum(len(t.reps) for t in other._classes)
            == sum(len(t.reps) for t in one._classes) + split)
    x = np.random.default_rng(2).standard_normal(form.n)
    for matrix, factor in ((A, one), (B, other)):
        want = spla.splu(matrix.tocsc()).solve(x)
        assert np.max(np.abs(factor.solve(x) - want)) <= 1e-12 * np.max(np.abs(want))


def test_a_magnetic_pencil_has_one_front_per_class_and_no_class_product(monkeypatch):
    # the symmetric gauge varies over the box, so no two fronts are equal,
    # and solves take the stacked product of every group, as without classes
    mesh, _, A = converge_line_pencil(1.0 / 32.0, b=1.5)
    magnetic = frontal.TreeFactor(A, mesh.tree)
    assert all(t.perm is None and len(t.reps) == len(t.of) for t in magnetic._classes)
    real = frontal.TreeFactor(converge_line_pencil(1.0 / 32.0)[2], mesh.tree)
    products, matmul = [], np.matmul
    monkeypatch.setattr(np, "matmul", lambda *a, **k: products.append(a) or matmul(*a, **k))
    x = np.random.default_rng(3).standard_normal(A.shape[0])
    magnetic.solve(x)
    assert products == []
    real.solve(x)
    assert products


def test_only_a_factor_given_a_tube_keeps_what_sharing_factors_take():
    # the values in the shared fronts and the updates they pass into the
    # tube: a factor made without a tube, on the cached tube plan, or one
    # that reuses an exterior holds neither, and cannot lend its exterior
    mesh, delta, squeezed = tube_pencils("smoke", 0.0)
    R_delta = ResolventFactor(delta.S, delta.M, -40.0, tree=mesh.tree,
                              share=delta.tube | squeezed.tube)._lu
    plain = ResolventFactor(delta.S, delta.M, -40.0, tree=mesh.tree)._lu
    R_eps = ResolventFactor(squeezed.S, squeezed.M, -40.0, tree=mesh.tree, share=R_delta)._lu
    assert plain._plan is R_delta._plan and R_delta.shares(R_eps)
    assert R_delta._shared_values is not None
    assert any(u is not None for u in R_delta._updates)
    A = (squeezed.S + 40.0 * squeezed.M).tocsr()
    A.sum_duplicates()
    fresh = frontal.TreeFactor(A, mesh.tree)
    for factor in (plain, R_eps):
        assert factor._shared_values is None and factor._updates is None
        again = frontal.TreeFactor(A, mesh.tree, share=factor)
        assert not factor.shares(again) and again.nnz == fresh.nnz


def test_a_pencil_that_differs_outside_the_tube_is_factored_in_full():
    # one entry changed far from the tube, or one pair of entries added in a
    # tube front: the bitwise comparison, or the pattern, refuses the exterior
    mesh, delta, squeezed = tube_pencils("smoke", 0.0)
    sigma = -40.0
    R_delta = ResolventFactor(delta.S, delta.M, sigma, tree=mesh.tree,
                              share=delta.tube | squeezed.tube)
    changed = squeezed.S.copy()
    assert not squeezed.tube[0]  # a corner unknown, in a leaf front far from the line
    changed[0, 0] += 1e-3
    widened = squeezed.S.tolil()
    i = mesh.tree.starts[-2]  # on the root's cut line, two nodes apart: no mesh edge
    assert squeezed.M[i, i + 2] == 0.0
    widened[i, i + 2] = widened[i + 2, i] = 1e-3
    x = np.random.default_rng(4).standard_normal(delta.n)
    for S in (changed, widened.tocsr()):
        R_eps = ResolventFactor(S, squeezed.M, sigma, tree=mesh.tree, share=R_delta)
        fresh = ResolventFactor(S, squeezed.M, sigma, tree=mesh.tree)
        assert not R_delta._lu.shares(R_eps._lu)
        assert R_eps._lu.nnz == fresh._lu.nnz
        want = fresh.apply(x)
        assert np.max(np.abs(R_eps.apply(x) - want)) <= 1e-12 * np.max(np.abs(want))
        # the norm takes two solves, as with unrelated factors
        assert resolvent_diff_norm(R_delta, R_eps).value == pytest.approx(
            resolvent_diff_norm(R_delta, fresh).value, rel=1e-10)


def map_cases():
    """(tree, tube mask or None, A) of the pattern-map tests: the unit square
    with the plain plan, the cusp-trend box with the tube of a line, a
    magnetic pencil, and a hand-built pencil whose pattern is not the mesh
    stencil (a Laplacian without its zero diagonal-edge entries, and one
    pair of entries two nodes apart on the root's cut line)."""
    S, M, square = dirichlet_pencil(1.0 / 16.0)
    yield "square", square.tree, None, (S + 2.0 * M).tocsr()
    net = Network([LineSegment((0.0, 0.0), (2.0, 0.0))], beta_cap=0.5)
    cusp = build_mesh(((-0.75, 3.0), (-1.75, 1.75)), 1.0 / 16.0)
    profiles = [constant_profile(0, -5.0 / (2.0 * net.beta), net.beta)]
    delta = build_form(cusp, net=net, strengths={0: -5.0})
    squeezed = build_form(cusp, potential=SqueezedPotential(net, profiles, 0.25))
    assert 0 < np.count_nonzero(delta.tube | squeezed.tube) < 0.5 * delta.n
    yield "cusp-tube", cusp.tree, delta.tube | squeezed.tube, (delta.S + 40.0 * delta.M).tocsr()
    mesh, _, A = converge_line_pencil(1.0 / 32.0, b=1.5)
    yield "magnetic", mesh.tree, None, A
    laplacian = S.tolil()
    laplacian.setdiag(laplacian.diagonal() + 1.0)
    i = square.tree.starts[-2]
    laplacian[i, i + 2] = laplacian[i + 2, i] = -0.25
    laplacian = laplacian.tocsr()
    laplacian.eliminate_zeros()
    assert laplacian.nnz < (S + M).nnz
    yield "hand-built", square.tree, None, laplacian


@pytest.mark.parametrize("case", ["square", "cusp-tube", "magnetic", "hand-built"])
def test_the_pattern_map_is_bitwise_the_one_sorted_at_once(case):
    # the counting sort in blocks of rows against one argsort of int64 keys
    # over every lower entry: the same arrays, dtypes and depth edges
    [(tree, tube, A)] = [c[1:] for c in map_cases() if c[0] == case]
    A.sum_duplicates()
    tree.cache.clear()
    plan = frontal._plan(tree, tube)
    made, want = frontal._entries(plan, tree, A), reference_entries(plan, tree, A)
    for x, y in zip(made[:4], want[:4]):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert made[4] == want[4]
    assert made[2].dtype == made[3].dtype == np.int32
    assert all(g.pos.dtype == np.int32 for g in plan.groups)
    # a factor of the map solves as the matrix does
    x = np.random.default_rng(8).standard_normal(A.shape[0])
    want = spla.splu(A.tocsc()).solve(x)
    solved = frontal.TreeFactor(A, tree).solve(x)
    assert np.max(np.abs(solved - want)) <= 1e-10 * np.max(np.abs(want))


def test_a_second_pencil_with_the_same_pattern_reuses_the_map():
    # the plan keeps the map of the last pattern; a pencil with other values
    # takes it as it is, and one with another pattern replaces it
    mesh, _, A = converge_line_pencil(1.0 / 32.0)
    mesh.tree.cache.clear()
    first = frontal.TreeFactor(A, mesh.tree)
    B = A.copy()
    B.data *= 2.0
    second = frontal.TreeFactor(B, mesh.tree)
    assert second._pattern is first._pattern is first._plan.pattern
    assert second.negatives == first.negatives == 0
    C = B.tolil()
    i = mesh.tree.starts[-2]  # on the root's cut line, two nodes apart: no mesh edge
    C[i, i + 2] = C[i + 2, i] = 1e-3
    third = frontal.TreeFactor(C.tocsr(), mesh.tree)
    assert third._pattern is not first._pattern and third._plan is first._plan


def test_the_pattern_map_of_the_converge_line_tree_holds_one_block_at_a_time():
    # converge-line's h tree: 585,225 lower entries, 32,767 fronts, whose
    # s * n + i keys overflow int32.  One argsort over every entry peaked
    # at 75.3 MiB; the map and the CSR pattern it keeps take 8.9 MiB
    mesh, _, A = converge_line_pencil(1.0 / 64.0)
    tree = mesh.tree
    tree.cache.clear()
    plan = frontal._plan(tree)
    assert len(tree.parent) * tree.n > np.iinfo(np.int32).max
    made, peak = traced_peak(lambda: frontal._entries(plan, tree, A))
    assert peak <= 20 * 2**20
    want = reference_entries(plan, tree, A)
    assert all(np.array_equal(x, y) for x, y in zip(made[:4], want[:4])) and made[4] == want[4]


def working_set(factor):
    """Bytes that a plain tree factor holds at its peak by design: its stored
    entries, one chunk of fronts (`frontal._FRONTS` entries, or the largest
    front if more), the packed lower triangles of the updates of two adjacent
    depths (the one assembled from and the one made), one per class, and the
    lower triangle of its matrix gathered in front order."""
    plan, item = factor._plan, np.dtype(factor._dtype).itemsize
    chunk = max([frontal._FRONTS] + [(g.p + g.R + 1) ** 2 for g in plan.groups])
    classes = iter(factor._classes)
    packed = [sum(len(next(classes).reps) * g.R * (g.R + 1) // 2 for g in groups)
              for _, groups in plan.depths]
    return item * (factor.nnz + chunk + max(map(sum, zip(packed, packed[1:])))
                   + len(factor._pattern[3]))


def traced_peak(make):
    """(make(), the peak of traced memory during the call above its start)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        made = make()
        return made, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def check_factor_peaks():
    # the smoke box and line at h = 1/48 (n = 36,481), whose largest depth
    # holds 0.92 M front entries, 0.91 M in the first fronts of its classes
    net = Network([LineSegment((-1.0, 0.0), (1.0, 0.0))], beta_cap=1.0)
    mesh = build_mesh(((-2.0, 2.0), (-2.0, 2.0)), 1.0 / 48.0)
    form = build_form(mesh, net=net, strengths={0: -6.0})
    sigma = -40.0
    A = (form.S - sigma * form.M).tocsr()
    A.sum_duplicates()
    frontal.TreeFactor(A, mesh.tree)  # the plan and its entry map, kept on the tree
    for make in (lambda: frontal.TreeFactor(A, mesh.tree),
                 lambda: ResolventFactor(form.S, form.M, sigma, tree=mesh.tree)._lu):
        factor, peak = traced_peak(make)
        assert factor.negatives == 0
        assert peak <= 1.1 * working_set(factor)


def test_tree_factors_eliminate_in_one_front_buffer_without_a_copy_of_the_matrix():
    # with the default budget of 0.52 M entries the factors peak at 1.06 of
    # the bound; a buffer of the largest depth takes them to 1.26, and a
    # copy of S - sigma M held through the elimination to 1.27 or more
    check_factor_peaks()


def test_tree_factors_in_chunks_of_one_front_stay_within_the_working_set(monkeypatch):
    # with one front per chunk the factors peak at 1.03 of the bound, which
    # then charges the largest front (0.08 M entries); a buffer of the
    # largest depth takes them to 1.6
    monkeypatch.setattr(frontal, "_FRONTS", 1)
    check_factor_peaks()


@pytest.mark.parametrize("b", [0.0, 1.5], ids=["real", "magnetic"])
def test_the_hermiticity_gate_holds_one_copy_of_the_matrix_and_one_block(b):
    # the residual and the scale are taken in row blocks against one
    # transposed copy; the whole-matrix residual S - S^H held four copies of
    # the matrix at once, 4.0 (real) and 3.0 (complex) of them above it here
    net = Network([LineSegment((-1.0, 0.0), (1.0, 0.0))], beta_cap=1.0)
    mesh = build_mesh(((-2.0, 2.0), (-2.0, 2.0)), 1.0 / 48.0)
    form = build_form(mesh, A=homogeneous_gauge(b) if b else None, net=net,
                      strengths={0: -6.0})
    A = (form.S + 40.0 * form.M).tocsr()
    copy = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    assert A.nnz > 3 * fem._HERMITICITY_BLOCK
    # a block's temporaries: its difference and the modulus of that
    block = fem._HERMITICITY_BLOCK * (A.dtype.itemsize + 8)
    (residual, scale), peak = traced_peak(lambda: fem.hermiticity_residual(A, scale=True))
    assert residual <= 1e-12 * scale and scale == np.max(np.abs(A.data))
    assert peak <= copy + 1.1 * block
    _, peak = traced_peak(lambda: spectral._check_hermitian(A, "A"))
    assert peak <= copy + 1.1 * block


@pytest.mark.parametrize("pencil", ["smoke", "cusp"])
def test_a_complex_solve_copies_no_group_of_its_factor(pencil):
    # K^H z is conj(K^T conj z): a solve allocates its work vectors and
    # vectors of the fronts, never a conjugate copy of a K group.  With one
    # it peaks at 1.3-1.6 of the largest group, without at 0.6-0.95
    mesh, delta, squeezed = tube_pencils(pencil, 1.5)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(delta.n) + 1j * rng.standard_normal(delta.n)
    plain = ResolventFactor(delta.S, delta.M, -40.0, tree=mesh.tree)._lu
    R_delta = ResolventFactor(delta.S, delta.M, -40.0, tree=mesh.tree,
                              share=delta.tube | squeezed.tube)
    R_eps = ResolventFactor(squeezed.S, squeezed.M, -40.0, tree=mesh.tree, share=R_delta)
    want = np.linalg.solve((delta.S + 40.0 * delta.M).toarray(), x)
    solved, peak = traced_peak(lambda: plain.solve(x))
    assert np.max(np.abs(solved - want)) <= 1e-12 * np.max(np.abs(want))
    assert peak < max(K.nbytes for K in plain._K)
    # the difference holds two more work vectors and sweeps the shared
    # fronts' rings only
    lu_delta, lu_eps = R_delta._lu, R_eps._lu
    want = lu_delta.solve(x) - lu_eps.solve(x)
    diff, peak = traced_peak(lambda: lu_delta.solve_difference(lu_eps, x))
    assert np.max(np.abs(diff - want)) <= 1e-12 * np.max(np.abs(want))
    assert peak - 2 * x.nbytes < max(K.nbytes for K in lu_delta._K + lu_eps._K)


def test_count_below_frees_the_copy_of_the_factor_and_counts_once():
    # reading U makes SuperLU cache CSC copies of L and U on the factor (41.6 MB
    # here); the count must free them and keep its value for later counts
    n = 120
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    S = (sp.kron(T, sp.eye(n)) + sp.kron(sp.eye(n), T)).tocsr()
    M = sp.eye(n * n, format="csr")
    lam = 4.0 - 2.0 * np.cos(np.pi / (n + 1)) - 2.0 * np.cos(np.array([1, 2]) * np.pi / (n + 1))
    factor = ResolventFactor(S, M, lam.mean())  # one eigenvalue below the shift
    x = np.random.default_rng(3).standard_normal(n * n)
    before = factor._lu.solve(x)
    tracemalloc.start()
    try:
        assert count_below(factor) == 1
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert traced < 1e6
    assert count_below(factor) == 1
    assert np.array_equal(factor._lu.solve(x), before)


def test_certified_factor_reproduces_the_fresh_eigensolve():
    S, M, _ = dirichlet_pencil(1.0 / 24.0, RECT, homogeneous_gauge(1.5))
    fresh = lowest_eigs(S, M, k=2)
    sigma = fresh.eigenvalues[0] - 5.0
    reused = lowest_eigs(S, M, k=2, factor=ResolventFactor(S, M, sigma))
    assert reused.shift == sigma
    assert np.allclose(reused.eigenvalues, fresh.eigenvalues, rtol=1e-10, atol=0.0)
    assert np.all(reused.residuals <= 1e-8)
    assert max(m_orthonormality(fresh, M), m_orthonormality(reused, M)) <= 1e-13  # ARPACK


def test_lowest_eigs_starts_lanczos_from_the_given_vector(monkeypatch):
    S, M, _ = dirichlet_pencil(1.0 / 24.0, RECT)
    factor = ResolventFactor(S, M, -1.0)
    start = np.linspace(1.0, 2.0, S.shape[0])
    eigsh, starts = spectral.spla.eigsh, []

    def capturing(*args, **kwargs):
        starts.append(kwargs["v0"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spectral.spla, "eigsh", capturing)
    warm = lowest_eigs(S, M, k=2, factor=factor, v0=start)
    cold = lowest_eigs(S, M, k=2, factor=factor)
    assert starts[0] is start and starts[1] is not start
    assert np.allclose(warm.eigenvalues, cold.eigenvalues, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("field_b, h, k, basis", [(0.0, 1.0 / 16.0, 1, 20),
                                                  (1.5, 1.0 / 8.0, 4, 9)],
                         ids=["smoke-delta", "magnetic-restarted"])
def test_lanczos_on_a_tree_pencil_matches_dense_eigh(monkeypatch, field_b, h, k, basis):
    # a tree factor's eigensolve is `_lanczos`; with a basis of 9 vectors the
    # k = 4 one restarts at least twice, keeping k + (9 - k) // 2 Ritz vectors.
    # `values_only` stops it on the Ritz values' error estimate, well before
    # their residuals reach EIG_RTOL, with the same eigenvalues
    form, _ = line_forms(field_b, h)
    assert np.iscomplexobj(form.S.data) == bool(field_b)
    lanczos, applied = spectral._lanczos, []

    def counting(apply, *args, **kwargs):
        return lanczos(lambda y: applied.append(1) or apply(y), *args, **kwargs)

    monkeypatch.setattr(spectral, "_BASIS", basis)
    monkeypatch.setattr(spectral, "_lanczos", counting)
    res = lowest_eigs(form.S, form.M, k=k, tree=form.tree)
    solves = len(applied)
    applied.clear()
    value = lowest_eigs(form.S, form.M, k=k, tree=form.tree, values_only=True)
    refill = basis - (k + (basis - k) // 2)  # the steps of a fill after a restart
    assert solves > len(applied) > (basis + refill if k > 1 else 0)
    assert max(m_orthonormality(res, form.M), m_orthonormality(value, form.M)) <= 1e-13
    assert np.all(res.residuals <= 1e-8)
    assert value.value_error is not None and value.value_error <= 1e-13
    # Fortran-ordered dense copies that eigh may overwrite: one copy each
    lam = sla.eigh(form.S.toarray(order="F"), form.M.toarray(order="F"), eigvals_only=True,
                   subset_by_index=[0, k - 1], overwrite_a=True, overwrite_b=True)
    assert np.allclose(res.eigenvalues, lam, rtol=1e-10, atol=0.0)
    # LAPACK's generalized drivers (gvd, gvx, gv) disagree by up to 6e-13
    # relative on lam_2 of the magnetic pencil: there the dense reference
    # holds to 1e-12, the residual-stopped Lanczos to 1e-13
    assert np.allclose(value.eigenvalues, lam, rtol=1e-13 if k == 1 else 1e-12, atol=0.0)
    assert np.allclose(value.eigenvalues, res.eigenvalues, rtol=1e-13, atol=0.0)


def test_value_stop_does_not_fire_on_an_exactly_double_top_eigenvalue():
    # one Lanczos vector sees one copy of a double eigenvalue; rounding
    # brings in the other, and then two Ritz values sit within round-off of
    # each other: over that gap the estimate never passes, and the residual
    # test ends the run
    n = 30
    d = np.concatenate([[2.0, 2.0], np.linspace(1.0, 0.1, n - 2)])
    M = sp.identity(n, format="csr")
    v0 = np.random.default_rng(0).standard_normal(n)
    runs = {}
    with np.errstate(all="raise"):
        for values in (False, True):
            applied = []
            runs[values] = applied, spectral._lanczos(
                lambda x: applied.append(1) or d * x, M, v0, 2, spectral.EIG_RTOL, values=values)
        # Ritz values that coincide exactly: a zero gap, no division
        error = spectral._value_error(np.array([2.0, 2.0, 1.0]), np.array([1e-20, 1e-20]))
    assert np.all(np.isinf(error))
    (plain, (theta, X, converged, _)), (valued, (theta_v, _, converged_v, _)) = runs.values()
    assert converged and converged_v and X is not None
    assert len(valued) == len(plain)
    assert np.array_equal(theta_v, theta)
    assert np.allclose(theta, 2.0, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("d, start", [([2.0, 2.0], "random"), ([2.0, 2.0, 1.0], "e1")])
def test_lanczos_goes_on_from_a_fresh_direction_after_a_breakdown(d, start):
    # the Krylov space of the start is invariant before it holds k = 2 Ritz
    # vectors: the run must not divide by its zero residual (the random start
    # is one whose residual rounds to exactly 0)
    d = np.asarray(d)
    v0 = np.eye(d.size)[0] if start == "e1" else np.random.default_rng(1).standard_normal(d.size)
    M = sp.identity(d.size, format="csr")
    with np.errstate(all="raise"):
        theta, X, converged, _ = spectral._lanczos(lambda x: d * x, M, v0, 2, spectral.EIG_RTOL)
    want = sla.eigh(np.diag(d), eigvals_only=True)[::-1][:2]
    assert converged
    assert np.allclose(theta, want, rtol=1e-14, atol=0.0)
    assert np.allclose(X.T @ X, np.eye(2), rtol=0.0, atol=1e-14)
    assert np.allclose(d[:, None] * X, X * theta, rtol=0.0, atol=1e-14)


def test_factor_and_eigensolve_keep_a_csr_mass_matrix_uncopied():
    S, M, _ = dirichlet_pencil(1.0 / 24.0, RECT)
    factor = ResolventFactor(S, M, -1.0)
    assert factor.M is M
    fresh = lowest_eigs(S, M, k=1)
    assert np.array_equal(lowest_eigs(S.tocsc(), M.tocsc(), k=1).eigenvalues, fresh.eigenvalues)


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


def test_non_hermitian_pencil_is_refused_on_the_tree_path():
    # a Cholesky front reads one triangle of its pencil: the factor would be
    # made, so the Hermiticity check must come first
    net = Network([LineSegment((-1.0, 0.0), (1.0, 0.0))], beta_cap=0.5)
    mesh = build_mesh(((-2.0, 2.0), (-2.0, 2.0)), 1.0 / 8.0)
    form = build_form(mesh, net=net, strengths={0: -5.0 + 2.0j})
    S, M = form.S, form.M
    assert frontal.TreeFactor((S + 40.0 * M).tocsr(), mesh.tree).negatives == 0
    for call in (
        lambda: ResolventFactor(S, M, -40.0, tree=mesh.tree),
        lambda: lowest_eigs(S, M, k=1, tree=mesh.tree),
        lambda: lowest_eigs(S, M, k=1, upper_estimate=-1.0, tree=mesh.tree),
    ):
        with pytest.raises(NonHermitianError, match="not Hermitian"):
            call()


def test_a_nan_pencil_is_refused_before_any_factor_is_made(monkeypatch):
    # a NaN potential makes max|A - A^H| NaN, and NaN > tol is False: the
    # gate must pass only a residual that is <= tol.  Unrefused, the tree
    # factor at -1 counts no negative pivot, and SuperLU's shifts go down
    # to -1.8e19
    mesh = build_mesh(((-2.0, 2.0), (-2.0, 2.0)), 1.0 / 16.0)
    form = build_form(mesh, potential=lambda x, y: np.where(
        (np.abs(x) < 0.3) & (np.abs(y) < 0.3), np.nan, 0.0))
    S, M = form.S, form.M
    assert np.count_nonzero(np.isnan(S.data)) > 0
    factored = []
    pivot_blocks, splu = frontal._pivot_blocks, spectral.spla.splu
    monkeypatch.setattr(frontal, "_pivot_blocks",
                        lambda *a: factored.append("tree") or pivot_blocks(*a))
    monkeypatch.setattr(spectral.spla, "splu",
                        lambda *a, **k: factored.append("splu") or splu(*a, **k))
    for call in (
        lambda: ResolventFactor(S, M, -1.0, tree=mesh.tree),
        lambda: ResolventFactor(S, M, -1.0),
        lambda: lowest_eigs(S, M, k=1, tree=mesh.tree),
        lambda: lowest_eigs(S, M, k=1),
    ):
        with pytest.raises(NonHermitianError, match=r"matrix S.*nan.*non-finite entries"):
            call()
    assert factored == []


def test_the_dense_path_refuses_a_non_hermitian_pencil():
    # the dense path makes no factor, so it checks S and M itself, with or
    # without a given factor
    net = Network([LineSegment((-0.5, 0.0), (0.5, 0.0))], beta_cap=0.3)
    mesh = build_mesh(((-1.0, 1.0), (-1.0, 1.0)), 1.0 / 4.0)
    real = build_form(mesh, net=net, strengths={0: -5.0})
    complex_ = build_form(mesh, net=net, strengths={0: -5.0 + 2.0j}).S
    nan = build_form(mesh, potential=lambda x, y: np.where(
        (np.abs(x) < 0.3) & (np.abs(y) < 0.3), np.nan, 0.0)).S
    assert real.n < 60 and np.count_nonzero(np.isnan(nan.data)) > 0
    factor = ResolventFactor(real.S, real.M, -100.0, tree=mesh.tree)
    assert count_below(factor) == 0
    for S, match in ((complex_, r"matrix S is not Hermitian"), (nan, r"matrix S.*nan")):
        for given in (None, factor):
            with pytest.raises(NonHermitianError, match=match):
                lowest_eigs(S, real.M, k=1, factor=given)
    with pytest.raises(NonHermitianError, match=r"matrix M is not Hermitian"):
        lowest_eigs(real.S, real.M + sp.triu(real.M, 1), k=1)


def test_a_non_hermitian_mass_matrix_is_refused_before_any_factor_is_made(monkeypatch):
    # S - sigma M shows a non-Hermitian M at every sigma != 0, here at the
    # default shift -1, on the tree path and on the SuperLU path
    mesh = build_mesh(((-2.0, 2.0), (-2.0, 2.0)), 1.0 / 16.0)
    form = build_form(mesh)
    M = (form.M + 0.1 * sp.triu(form.M, 1)).tocsr()
    assert form.n >= 60 and spectral.hermiticity_residual(form.S) == 0.0
    factored = []
    pivot_blocks, splu = frontal._pivot_blocks, spectral.spla.splu
    monkeypatch.setattr(frontal, "_pivot_blocks",
                        lambda *a: factored.append("tree") or pivot_blocks(*a))
    monkeypatch.setattr(spectral.spla, "splu",
                        lambda *a, **k: factored.append("splu") or splu(*a, **k))
    for call in (
        lambda: ResolventFactor(form.S, M, -1.0, tree=mesh.tree),
        lambda: ResolventFactor(form.S, M, -1.0),
        lambda: lowest_eigs(form.S, M, k=1, tree=mesh.tree),
        lambda: lowest_eigs(form.S, M, k=1),
    ):
        with pytest.raises(NonHermitianError, match=r"matrix S - -1 M is not Hermitian"):
            call()
    assert factored == []


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
    assert out.value == 0.0
    assert out.iterations == 1  # D = 0: the first Lanczos step breaks down


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


def line_forms(field_b, h):
    """The delta form and the eps = 0.5 squeezed form of a line with
    alpha = -5 on [-2, 2]^2; at h = 1/16 the delta form is the pencil of the
    benchmark's smoke config."""
    alpha, beta = -5.0, 1.0
    net = Network([LineSegment((-1.0, 0.0), (1.0, 0.0))], beta_cap=beta)
    mesh = build_mesh(((-2.0, 2.0), (-2.0, 2.0)), h)
    A = homogeneous_gauge(field_b) if field_b else None
    W = SqueezedPotential(net, [constant_profile(0, alpha / (2 * beta), beta)], 0.5)
    return (build_form(mesh, A=A, net=net, strengths={0: alpha}),
            build_form(mesh, A=A, potential=W))


def line_norm_pencils(field_b, *, shared=False):
    """Factors of the delta and the eps = 0.5 squeezed pencil of a line with
    alpha = -5 at h = 1/8, at lam_delta - max(1, |lam_delta|), with the delta
    ground state and the dense resolvent difference D.  SuperLU factors, or
    with `shared` tree factors, the eps one on the delta one's exterior."""
    delta, eps = line_forms(field_b, 1.0 / 8.0)
    ground = lowest_eigs(delta.S, delta.M, k=1, shift=-12.0)
    lam = ground.eigenvalues[0] - max(1.0, abs(ground.eigenvalues[0]))
    M = delta.M.toarray()
    D = (sla.solve(delta.S.toarray() - lam * M, M)
         - sla.solve(eps.S.toarray() - lam * M, M))
    if shared:
        R_d = ResolventFactor(delta.S, delta.M, lam, tree=delta.tree, share=delta.tube | eps.tube)
        factors = R_d, ResolventFactor(eps.S, delta.M, lam, tree=eps.tree, share=R_d)
    else:
        factors = ResolventFactor(delta.S, delta.M, lam), ResolventFactor(eps.S, delta.M, lam)
    return factors, ground.eigenvectors[:, 0], D


@pytest.mark.parametrize("field_b", [0.0, 1.5])
def test_norm_from_the_delta_ground_state_matches_dense_eigenvalues(field_b):
    (R_d, R_e), start, D = line_norm_pencils(field_b)
    assert np.iscomplexobj(start) == bool(field_b)
    out = resolvent_diff_norm(R_d, R_e, start=start)
    assert out.converged
    assert out.value == pytest.approx(np.max(np.abs(sla.eigvals(D))), rel=1e-10)
    assert out.iterations <= 6  # 6 Lanczos steps from the start itself


@pytest.mark.parametrize("field_b", [0.0, 1.5], ids=["real", "magnetic"])
def test_norm_on_factors_that_share_an_exterior_matches_dense_eigenvalues(field_b):
    # each application of D takes one sweep each way over the shared fronts
    (R_d, R_e), start, D = line_norm_pencils(field_b, shared=True)
    assert R_d._lu.shares(R_e._lu)
    out = resolvent_diff_norm(R_d, R_e, start=start)
    assert out.converged
    assert out.value == pytest.approx(np.max(np.abs(sla.eigvals(D))), rel=1e-10)


def lanczos_starts(monkeypatch):
    """The start vector of every later `_lanczos` call, in order."""
    lanczos, starts = spectral._lanczos, []

    def capturing(apply, M, v0, *args, **kwargs):
        starts.append(v0)
        return lanczos(apply, M, v0, *args, **kwargs)

    monkeypatch.setattr(spectral, "_lanczos", capturing)
    return starts


def test_norm_starts_lanczos_from_the_start_itself(monkeypatch):
    (R_d, R_e), start, _ = line_norm_pencils(1.5)
    starts = lanczos_starts(monkeypatch)
    resolvent_diff_norm(R_d, R_e, start=start)
    resolvent_diff_norm(R_d, R_e, start=start.real)  # cast to the factors' dtype
    assert starts[0] is start
    assert np.iscomplexobj(starts[1]) and np.array_equal(starts[1], start.real)


def test_nonconverged_norm_returns_the_lower_bound_of_a_complex_start(monkeypatch):
    # one fill of a 3-vector basis stops the run unconverged after three
    # applications of D: the value is the largest |Ritz value| on the Krylov
    # space of x0, D x0 and D^2 x0, a lower bound of the norm that is at
    # least ||D x0||_M / ||x0||_M
    (R_d, R_e), start, D = line_norm_pencils(1.5)
    assert np.abs(start.imag).max() > 1e-3 * np.abs(start).max()  # genuinely complex
    monkeypatch.setattr(spectral, "_CYCLES", 1)
    monkeypatch.setattr(spectral, "_BASIS", 3)
    out = resolvent_diff_norm(R_d, R_e, start=start)
    M = R_d.M.toarray()
    X = np.linalg.qr(np.column_stack([start, D @ start, D @ D @ start]))[0]
    ritz = sla.eigvals(X.conj().T @ M @ D @ X, X.conj().T @ M @ X)
    assert not out.converged
    assert out.iterations == 3
    assert out.value == pytest.approx(np.max(np.abs(ritz)), rel=1e-10)
    Ds = D @ start
    assert out.value >= np.sqrt(np.vdot(Ds, M @ Ds).real / np.vdot(start, M @ start).real)
    assert out.value <= np.max(np.abs(sla.eigvals(D)))


def test_magnetic_norm_from_a_random_start_matches_its_warm_start():
    # the random start of complex factors is real + i real
    (R_d, R_e), start, D = line_norm_pencils(1.5)
    warm = resolvent_diff_norm(R_d, R_e, start=start)
    cold = resolvent_diff_norm(R_d, R_e)
    assert warm.converged and cold.converged
    assert cold.value == pytest.approx(warm.value, rel=1e-10)
    assert warm.value == pytest.approx(np.max(np.abs(sla.eigvals(D))), rel=1e-10)


def test_random_starts_are_drawn_as_one_stream_of_the_start_seed(monkeypatch):
    # lowest_eigs draws a complex start as its real part, then its imaginary
    # part, from one generator seeded with START_SEED
    form, _ = line_forms(1.5, 1.0 / 8.0)
    starts = lanczos_starts(monkeypatch)
    lowest_eigs(form.S, form.M, k=1, tree=form.tree)
    rng = np.random.default_rng(spectral.START_SEED)
    real = rng.standard_normal(form.n)
    assert np.array_equal(starts[0], real + 1j * rng.standard_normal(form.n))
    draws = spectral._random_starts(form.n, False)
    assert np.array_equal(next(draws), real)
    assert not np.array_equal(next(draws), real)  # a breakdown's next direction is new


def test_factors_at_different_shifts_are_refused():
    S, M, _ = dirichlet_pencil(1.0 / 8.0)
    with pytest.raises(ValueError, match=r"-3\.0.*-4\.0"):
        resolvent_diff_norm(ResolventFactor(S, M, -3.0), ResolventFactor(S, M, -4.0))


def test_factors_of_different_mass_matrices_are_refused():
    # the norm is taken in one M-inner product: unrefused, M against 2M read
    # 0.0980 one way and 0.1960 the other, against 0.0577 with one M
    delta, eps = line_forms(0.0, 1.0 / 16.0)
    R_d = ResolventFactor(delta.S, delta.M, -12.0, tree=delta.tree)
    R_e = ResolventFactor(eps.S, 2.0 * eps.M, -12.0, tree=eps.tree)
    for pair in ((R_d, R_e), (R_e, R_d)):
        with pytest.raises(ValueError, match="different mass matrices"):
            resolvent_diff_norm(*pair)
    # the two forms were assembled apart: their mass matrices are two
    # objects with equal entries, one M
    assert eps.M is not delta.M
    same = resolvent_diff_norm(R_d, ResolventFactor(eps.S, delta.M, -12.0, tree=eps.tree))
    equal = resolvent_diff_norm(R_d, ResolventFactor(eps.S, eps.M, -12.0, tree=eps.tree))
    assert equal == same


def test_diff_operator_m_symmetric():
    S, M, _ = dirichlet_pencil(0.25)
    net = Network([LineSegment((0.3, 0.5), (0.7, 0.5))], beta_cap=0.2)
    m = build_mesh(((0.0, 1.0), (0.0, 1.0)), 0.25)
    B = restrict(m, assemble_delta_term(m, net, {0: -1.0}))
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


def test_fit_excludes_nonpositive_and_errors_when_underdetermined(caplog):
    eps = np.array([0.4, 0.2, 0.1, 0.05])
    with caplog.at_level(logging.WARNING, logger="deltasqueeze.spectral"):
        fit = fit_rate(eps, np.array([0.6, 0.4, -1.0, 0.2]))
    assert caplog.messages == ["fit_rate: excluded 1 non-positive values"]
    assert fit.n_used == 3 and fit.n_excluded == 1
    caplog.clear()
    with pytest.raises(FitError):
        with caplog.at_level(logging.WARNING, logger="deltasqueeze.spectral"):
            fit_rate(eps, np.array([0.5, -1.0, -2.0, 0.1]))
    assert caplog.messages == ["fit_rate: excluded 2 non-positive values"]
