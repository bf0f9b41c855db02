import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from conftest import (
    assert_same_csr,
    coo_mass,
    coo_stiffness,
    full_scatter_potential,
    smooth_bump,
    star_network,
)

from deltasqueeze.fem import (
    GeometryError,
    MeshParameterError,
    ResolutionError,
    assemble_base,
    assemble_delta_term,
    assemble_magnetic_stiffness,
    assemble_mass,
    assemble_volume_potential,
    build_form,
    build_mesh,
    hermiticity_residual,
    homogeneous_gauge,
    interpolate,
    line_quadrature,
    restrict,
)
from deltasqueeze import fem
from deltasqueeze.geometry import CircularArc, LineSegment, Network, SplineSegment
from deltasqueeze.potentials import (
    SqueezedPotential,
    constant_profile,
    separable_profile,
    tabulated_profile,
)

UNIT_BOX = ((0.0, 1.0), (0.0, 1.0))


def lowest_arpack(S, M, k=1, sigma=-1.0):
    # independent route: plain ARPACK shift-invert, no package solver involved
    return np.sort(
        spla.eigsh(S.tocsc(), k=k, M=M.tocsc(), sigma=sigma, which="LM",
                   return_eigenvectors=False)
    )


# ------------------------------------------------------------------- meshes


def test_mesh_counts_unit_square():
    m = build_mesh(UNIT_BOX, 0.5)
    assert m.n_nodes == 9
    assert len(m.triangles) == 8
    assert m.n_interior == 1


def test_mesh_counts_sym_box():
    m = build_mesh(((-1.0, 1.0), (-1.0, 1.0)), 0.25)
    assert m.n_nodes == 81
    assert len(m.triangles) == 128
    assert m.n_interior == 49


def test_triangle_areas_uniform():
    m = build_mesh(UNIT_BOX, 0.25)
    x = m.node_x[m.triangles]
    y = m.node_y[m.triangles]
    areas = 0.5 * np.abs(
        (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
        - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0])
    )
    assert np.allclose(areas, m.h**2 / 2.0, atol=1e-15)


def test_mesh_rejects_nondivisible_h():
    with pytest.raises(MeshParameterError):
        build_mesh(UNIT_BOX, 0.3)


def _check_split(m, K, order):
    """Check the top split of a nested-dissection block, `order` its node
    indices in elimination order: the block ends with the grid line through
    the middle of its longer side, and before it come the two halves, one
    after the other, with no entry of K between them.  Returns the halves."""
    i = np.rint((m.node_x[order] - m.box[0][0]) / m.h).astype(int)
    j = np.rint((m.node_y[order] - m.box[1][0]) / m.h).astype(int)
    axis, across = (i, j) if np.ptp(i) >= np.ptp(j) else (j, i)
    cut = axis[-1]
    assert abs(cut - 0.5 * (axis.min() + axis.max())) <= 0.5
    n_sep = np.ptp(across) + 1
    assert np.all(axis[-n_sep:] == cut) and np.all(axis[:-n_sep] != cut)
    side = axis[:-n_sep] < cut
    change = np.flatnonzero(side[1:] != side[:-1])
    assert len(change) == 1  # one half, then the other
    first, second = order[: change[0] + 1], order[change[0] + 1: -n_sep]
    assert K[first][:, second].nnz == 0
    return first, second


@pytest.mark.parametrize("box, h", [
    (UNIT_BOX, 1.0 / 16.0),
    (((-0.75, 3.0), (-1.75, 1.75)), 1.0 / 8.0),  # the cusp-trend box, 29 x 27
], ids=["square", "cusp_box"])
def test_interior_is_a_nested_dissection_order(box, h):
    m = build_mesh(box, h)
    (x0, x1), (y0, y1) = box
    inside = np.flatnonzero((m.node_x > x0 + h / 2) & (m.node_x < x1 - h / 2)
                            & (m.node_y > y0 + h / 2) & (m.node_y < y1 - h / 2))
    assert m.interior.dtype.kind == "i"
    assert np.array_equal(np.sort(m.interior), inside)
    K = assemble_magnetic_stiffness(m)
    for half in _check_split(m, K, m.interior):
        _check_split(m, K, half)


@pytest.mark.parametrize("box, h, b", [
    (UNIT_BOX, 1.0 / 16.0, 0.0),
    (((-0.75, 3.0), (-1.75, 1.75)), 1.0 / 8.0, 0.0),  # the cusp-trend box
    (UNIT_BOX, 1.0 / 16.0, 1.5),
], ids=["square", "cusp_box", "magnetic"])
def test_restricted_entries_fall_in_their_fronts(box, h, b):
    # the separator tree's supernodes partition the unknowns, parents come
    # after their children, every ring lies after its pivots and in the
    # parent's front, and every lower entry of S lies in its column's front
    m = build_mesh(box, h)
    tree = m.tree
    n, starts, ring_ptr = m.n_interior, tree.starts, tree.ring_ptr
    assert tree.n == n and starts[0] == 0 and np.all(np.diff(starts) > 0)
    ns = len(tree.parent)
    assert tree.parent[-1] == -1 and np.all(tree.parent[:-1] > np.arange(ns - 1))
    owner = np.repeat(np.arange(ns), np.diff(ring_ptr))
    key = owner * n + tree.ring
    assert np.all(np.diff(key) > 0)  # ascending within each ring
    assert np.all(tree.ring >= starts[owner + 1])
    parent = tree.parent[owner]
    assert np.all(parent >= 0)  # the root has no ring
    in_front = (tree.ring < starts[parent + 1]) | np.isin(parent * n + tree.ring, key)
    assert np.all(in_front)
    S = restrict(m, assemble_magnetic_stiffness(m, homogeneous_gauge(b) if b else None)
                 + assemble_mass(m)).tocoo()
    low = S.row >= S.col
    i, j = S.row[low], S.col[low]
    assert i.size == (S.nnz + n) // 2
    s = np.searchsorted(starts, j, side="right") - 1
    assert np.all((i < starts[s + 1]) | np.isin(s * n + i, key))


def test_restrict_follows_the_interior_numbering():
    m = build_mesh(((-0.75, 3.0), (-1.75, 1.75)), 1.0 / 8.0)
    net = Network([LineSegment((0.0, -1.0), (2.0, 1.0))], beta_cap=0.5)
    rng = np.random.default_rng(3)
    u = np.zeros(m.n_nodes)
    u[m.interior] = rng.standard_normal(m.n_interior)  # vanishes on the boundary
    for A in (
        assemble_magnetic_stiffness(m),
        assemble_mass(m),
        assemble_delta_term(m, net, {0: -3.0}),
        assemble_magnetic_stiffness(m, homogeneous_gauge(1.5)),
    ):
        assert np.allclose(restrict(m, A) @ u[m.interior], (A @ u)[m.interior],
                           rtol=1e-13, atol=1e-13 * abs(A).max())


# --------------------------------------------------------------------- mass


def test_total_mass_is_box_area():
    m = build_mesh(((-1.5, 2.0), (0.0, 1.0)), 0.25)
    M = assemble_mass(m)
    ones = np.ones(m.n_nodes)
    assert ones @ (M @ ones) == pytest.approx(3.5, abs=1e-12)


def test_mass_spd():
    m = build_mesh(UNIT_BOX, 0.125)
    M = restrict(m, assemble_mass(m))
    assert hermiticity_residual(M) == 0.0
    lam_min = spla.eigsh(M, k=1, which="SA", return_eigenvectors=False)[0]
    assert lam_min > 0.0


def test_mass_matches_hand_assembly():
    # hand assembly of the 8 triangles on the unit square at h = 0.5
    h = 0.5
    lower = [(0, 1, 4), (1, 2, 5), (3, 4, 7), (4, 5, 8)]
    upper = [(0, 4, 3), (1, 5, 4), (3, 7, 6), (4, 8, 7)]
    Me = h**2 / 24.0 * np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]])
    ref = np.zeros((9, 9))
    for tri in lower + upper:
        for a in range(3):
            for b in range(3):
                ref[tri[a], tri[b]] += Me[a, b]
    M = assemble_mass(build_mesh(UNIT_BOX, h)).toarray()
    assert np.max(np.abs(M - ref)) < 1e-15


# ----------------------------------------------------------- kinetic + field


def test_dirichlet_laplacian_ground_state():
    m = build_mesh(UNIT_BOX, 1.0 / 64.0)
    S = restrict(m, assemble_magnetic_stiffness(m))
    M = restrict(m, assemble_mass(m))
    lam = lowest_arpack(S, M, k=1)
    assert lam[0] == pytest.approx(2 * np.pi**2, rel=0.01)


def test_zero_field_matrix_is_real():
    m = build_mesh(UNIT_BOX, 0.25)
    S = assemble_magnetic_stiffness(m, homogeneous_gauge(0.0))
    assert not np.iscomplexobj(S.toarray())


def test_diamagnetic_ordering():
    m = build_mesh(UNIT_BOX, 1.0 / 32.0)
    M = restrict(m, assemble_mass(m))
    lam0 = lowest_arpack(restrict(m, assemble_magnetic_stiffness(m)), M)[0]
    lam1 = lowest_arpack(
        restrict(m, assemble_magnetic_stiffness(m, homogeneous_gauge(1.0))), M
    )[0]
    assert lam1 >= lam0 - 10.0 * m.h**2


def test_magnetic_assembly_hermitian():
    m = build_mesh(((-1.0, 1.0), (-1.0, 1.0)), 0.125)
    S = assemble_magnetic_stiffness(m, homogeneous_gauge(2.5))
    assert hermiticity_residual(S) <= 1e-12


@pytest.mark.parametrize("matrix", ["stiffness", "magnetic", "mass", "constant_potential"])
def test_full_node_sums_equal_the_coo_scatter_bit_for_bit(matrix):
    # every slot sums its entries in triangle order, as scipy's COO to CSR
    # conversion happens to on this mesh, explicit zeros included
    m = build_mesh(((-1.0, 2.0), (-1.5, 1.0)), 0.125)
    got, reference = {
        "stiffness": lambda: (assemble_magnetic_stiffness(m), coo_stiffness(m)),
        "magnetic": lambda: (assemble_magnetic_stiffness(m, homogeneous_gauge(1.5)),
                             coo_stiffness(m, homogeneous_gauge(1.5))),
        "mass": lambda: (assemble_mass(m), coo_mass(m)),
        "constant_potential": lambda: (assemble_volume_potential(m, 0.7),
                                       full_scatter_potential(m, 0.7)),
    }[matrix]()
    assert_same_csr(got, reference)
    # the 7-point stencil: each node and its horizontal, vertical and diagonal edges
    nx, ny = m.nx, m.ny
    assert got.nnz == m.n_nodes + 2 * (nx * (ny + 1) + (nx + 1) * ny + nx * ny)


MOVED_AREA, MOVED_GRAD = 3.75, np.array([1.1 - 0.4j, 0.7 + 0.2j])
# each check on the moved mesh: (its value, the exact value, the tolerance)
MOVED_CHECKS = {
    # the interpolant of a linear function has its gradient on every triangle
    "linear_energy": lambda m, u: (np.vdot(u, assemble_magnetic_stiffness(m) @ u).real,
                                   np.vdot(MOVED_GRAD, MOVED_GRAD).real * MOVED_AREA,
                                   1e-12 * MOVED_AREA),
    "mass_total": lambda m, u: (assemble_mass(m).sum(), MOVED_AREA, 1e-12 * MOVED_AREA),
    "constants_in_kernel": lambda m, u: (
        np.max(np.abs(assemble_magnetic_stiffness(m) @ np.ones(m.n_nodes))), 0.0, 1e-12),
    "unit_potential_is_mass": lambda m, u: (
        abs(assemble_volume_potential(m, 1.0) - assemble_mass(m)).max(), 0.0, 1e-15),
    "magnetic_hermitian": lambda m, u: (
        hermiticity_residual(assemble_magnetic_stiffness(m, homogeneous_gauge(1.5))), 0.0, 1e-12),
}


def sheared_mesh():
    """The mesh of [-1, 1]^2 at h = 1/8 moved by (x, y) -> (1.25 x + 0.3 y,
    0.75 y), a parallelogram of area 3.75: triangles, numbering and pattern stay."""
    m = build_mesh(((-1.0, 1.0), (-1.0, 1.0)), 1.0 / 8.0)
    return dataclasses.replace(m, node_x=1.25 * m.node_x + 0.3 * m.node_y,
                               node_y=0.75 * m.node_y)


@pytest.mark.parametrize("check", MOVED_CHECKS)
def test_element_matrices_follow_the_node_coordinates(check):
    m = sheared_mesh()
    value, exact, tol = MOVED_CHECKS[check](m, MOVED_GRAD[0] * m.node_x + MOVED_GRAD[1] * m.node_y)
    assert abs(value - exact) <= tol


def test_gauge_covariance_under_refinement():
    # chi(x, y) = xy: spectra of A and A + grad(chi) agree in the continuum;
    # the discrete defect must vanish with slope >= 1 in log-log
    b = 1.0
    base = homogeneous_gauge(b)

    def gauged(x, y):
        ax, ay = base(x, y)
        return ax + y, ay + x

    diffs = []
    hs = [1 / 8, 1 / 16, 1 / 32]
    for h in hs:
        m = build_mesh(UNIT_BOX, h)
        M = restrict(m, assemble_mass(m))
        l0 = lowest_arpack(restrict(m, assemble_magnetic_stiffness(m, base)), M)[0]
        l1 = lowest_arpack(restrict(m, assemble_magnetic_stiffness(m, gauged)), M)[0]
        diffs.append(abs(l1 - l0))
    slope = np.polyfit(np.log(hs), np.log(diffs), 1)[0]
    assert slope >= 1.0


# ----------------------------------------------------------------- potential


def test_unit_potential_equals_mass():
    m = build_mesh(UNIT_BOX, 0.125)
    P = assemble_volume_potential(m, 1.0)
    M = assemble_mass(m)
    assert np.max(np.abs((P - M).toarray())) < 1e-12


def test_zero_potential_is_zero_matrix():
    m = build_mesh(UNIT_BOX, 0.25)
    P = assemble_volume_potential(m, lambda x, y: np.zeros_like(x))
    assert np.max(np.abs(P.toarray())) == 0.0


def test_squeezed_potential_total_integral():
    # quadratic form of the all-ones interpolant = int V_eps = alpha * length
    alpha, L = -5.0, 4.0
    net = Network([LineSegment((-2.0, 0.0), (2.0, 0.0))], beta_cap=0.5)
    h = 1.0 / 16.0
    eps = 4.0 * h
    m = build_mesh(((-3.0, 3.0), (-3.0, 3.0)), h)
    W = SqueezedPotential(net, [constant_profile(0, alpha / (2 * net.beta), net.beta)], eps)
    P = assemble_volume_potential(m, W)
    ones = np.ones(m.n_nodes)
    assert ones @ (P @ ones) == pytest.approx(alpha * L, rel=0.02)


def test_resolution_error_names_eps_and_h():
    net = Network([LineSegment((-1.0, 0.0), (1.0, 0.0))], beta_cap=0.5)
    m = build_mesh(((-2.0, 2.0), (-2.0, 2.0)), 0.125)
    W = SqueezedPotential(net, [constant_profile(0, -1.0, net.beta)], 0.25)
    with pytest.raises(ResolutionError, match="0.25") as err:
        assemble_volume_potential(m, W)
    assert "0.125" in str(err.value)


# ---------------------------------------------------------------- delta term


def test_zero_strength_delta_is_zero():
    net = Network([LineSegment((-1.0, 0.0), (1.0, 0.0))], beta_cap=0.5)
    m = build_mesh(((-2.0, 2.0), (-2.0, 2.0)), 0.25)
    B = assemble_delta_term(m, net, {0: 0.0})
    assert np.max(np.abs(B.toarray())) == 0.0


def test_delta_term_refuses_a_list_of_strengths():
    # with `k in strengths` a list would test its values, not its indices,
    # and drop the line term without a word
    net = Network([LineSegment((-1.0, 0.0), (1.0, 0.0))], beta_cap=0.5)
    m = build_mesh(((-2.0, 2.0), (-2.0, 2.0)), 0.25)
    with pytest.raises(AttributeError):
        assemble_delta_term(m, net, [-3.0])
    # build_form reads a list as entry k for segment k
    assert_same_csr(build_form(m, net=net, strengths=[-3.0]).S,
                    build_form(m, net=net, strengths={0: -3.0}).S)


def test_delta_term_refuses_a_strength_for_a_segment_the_network_lacks():
    # such a strength used to be dropped without a word
    net = Network([LineSegment((-1.0, 0.0), (1.0, 0.0))], beta_cap=0.5)
    m = build_mesh(((-2.0, 2.0), (-2.0, 2.0)), 0.25)
    with pytest.raises(ValueError, match="segment 3 of a 1-segment network"):
        assemble_delta_term(m, net, {0: -1.0, 3: -2.0})
    with pytest.raises(ValueError, match="segment 1 of a 1-segment network"):
        build_form(m, net=net, strengths=[-1.0, -2.0, -3.0])
    # an entry set to None is no term
    assert_same_csr(assemble_delta_term(m, net, {0: -1.0, 3: None}),
                    assemble_delta_term(m, net, {0: -1.0}))


def test_delta_term_is_the_plain_point_order_sum():
    # each point adds its element matrix in turn; scipy's COO to CSR
    # conversion summed a long row's duplicates in no fixed order
    net = Network([SplineSegment([[-0.9, -0.3], [-0.2, 0.4], [0.5, -0.1], [0.9, 0.3]]),
                   LineSegment((-0.9, -0.3), (0.2, -0.9))], beta_cap=0.3)
    m = build_mesh(((-1.0, 1.0), (-1.0, 1.0)), 1.0 / 8.0)
    strengths = {0: lambda s: -2.0 - s, 1: -1.0 + 0.5j}
    B = assemble_delta_term(m, net, strengths)
    ref = np.zeros((m.n_nodes, m.n_nodes), dtype=complex)
    reached = np.zeros(ref.shape, dtype=bool)
    for k, seg in enumerate(net.segments):
        sq, wq, pts = line_quadrature(m.box, m.h, k, seg)
        aq = strengths[k](sq) if callable(strengths[k]) else np.full(sq.shape, strengths[k])
        nodes, basis = fem._p1_basis_at_points(m, pts)
        for a, t, b in zip(aq * wq, nodes, basis):
            ref[np.ix_(t, t)] += a * b[:, None] * b[None, :]
            reached[np.ix_(t, t)] = True
    assert np.array_equal(B.toarray(), ref)
    stored = np.zeros(ref.shape, dtype=bool)
    stored[B.tocoo().row, B.tocoo().col] = True
    assert np.array_equal(stored, reached)


@pytest.mark.parametrize("b, term", [(0.0, "squeezed"), (0.0, "delta"), (1.5, "squeezed"),
                                     (1.5, "delta")])
def test_a_form_keeps_its_nonzero_entries_and_leaves_its_base_as_it_is(b, term):
    net = Network([LineSegment((-0.6, 0.05), (0.7, 0.3))], beta_cap=0.3)
    m = build_mesh(((-1.0, 1.0), (-1.0, 1.0)), 1.0 / 16.0)
    A = homogeneous_gauge(b) if b else None
    base = assemble_base(m, A)
    arrays = [x.copy() for x in (base.S.indptr, base.S.indices, base.S.data)]
    if term == "squeezed":
        W = SqueezedPotential(net, [constant_profile(0, -4.0, net.beta)], 0.25)
        form, full = build_form(m, A=A, potential=W, base=base), assemble_volume_potential(m, W)
    else:
        form = build_form(m, A=A, net=net, strengths={0: -4.0}, base=base)
        full = assemble_delta_term(m, net, {0: -4.0})
    # base.S stores the whole stencil, explicit zeros included; the form's S
    # keeps the nonzero entries only, as the sparse sum of restrictions did
    assert base.S.nnz == base.M.nnz and (b or np.any(base.S.data == 0))
    assert np.all(form.S.data != 0) and form.S.has_canonical_format
    assert np.array_equal(form.tube, np.diff(restrict(m, full).indptr) > 0)
    assert all(np.array_equal(x, y) for x, y in zip(
        arrays, (base.S.indptr, base.S.indices, base.S.data)))


def test_delta_on_mesh_line_quadratic_form():
    c = -3.0
    net = Network([LineSegment((-0.5, 0.0), (0.5, 0.0))], beta_cap=0.5)
    m = build_mesh(((-2.0, 2.0), (-2.0, 2.0)), 0.25)
    B = assemble_delta_term(m, net, {0: c})
    ones = np.ones(m.n_nodes)
    assert ones @ (B @ ones) == pytest.approx(c * 1.0, abs=1e-10)


def test_delta_outside_box_raises():
    net = Network([LineSegment((-3.0, 0.0), (3.0, 0.0))], beta_cap=0.5)
    m = build_mesh(((-2.0, 2.0), (-2.0, 2.0)), 0.25)
    with pytest.raises(GeometryError):
        assemble_delta_term(m, net, {0: -1.0})


def test_star_rotation_invariance_within_mesh_error():
    alpha = -5.0
    box = ((-2.0, 2.0), (-2.0, 2.0))

    def lam(net, h):
        m = build_mesh(box, h)
        S = restrict(m, assemble_magnetic_stiffness(m)
                     + assemble_delta_term(m, net, dict.fromkeys(range(3), alpha)))
        M = restrict(m, assemble_mass(m))
        return lowest_arpack(S, M, sigma=-30.0)[0]

    sym = star_network([120.0, 120.0, 120.0])
    rot = star_network([120.0, 120.0, 120.0], rot_deg=17.0)
    h = 1.0 / 32.0
    mesh_err = abs(lam(sym, h) - lam(sym, h / 2))
    gap = abs(lam(rot, h) - lam(sym, h))
    assert gap <= mesh_err


def test_magnetic_plus_delta_hermitian():
    net = star_network([90.0, 270.0], length=0.8)
    m = build_mesh(((-1.5, 1.5), (-1.5, 1.5)), 1.0 / 16.0)
    form = build_form(
        m, A=homogeneous_gauge(1.0), net=net, strengths={0: -2.0, 1: -2.0}
    )
    assert form.meta["hermiticity_residual"] <= 1e-12
    assert np.iscomplexobj(form.S.data) and form.tube.any()


def test_complex_strength_assembly_supported():
    net = Network([LineSegment((-0.5, 0.0), (0.5, 0.0))], beta_cap=0.3)
    m = build_mesh(((-1.0, 1.0), (-1.0, 1.0)), 0.125)
    B = assemble_delta_term(m, net, {0: -1.0 + 0.5j})
    assert np.iscomplexobj(B.toarray())
    # complex strength: symmetric, not Hermitian
    assert np.max(np.abs((B - B.T).toarray())) < 1e-14


def test_form_consistency_delta_interpolants():
    # discrete form at interpolants of smooth bumps converges to the analytic
    # h_{0,0,alpha}[f] = int |grad f|^2 + alpha int_Sigma |f|^2 with rate >= 1
    alpha = -2.0
    circle = CircularArc((0.0, 0.0), 0.7, 0.0, 2 * np.pi)
    net = Network([circle], beta_cap=10.0)
    bumps = [
        smooth_bump((0.0, 0.0), 1.2),
        smooth_bump((0.4, 0.1), 0.9),
        smooth_bump((-0.3, -0.2), 1.0),
    ]
    gq, gw = np.polynomial.legendre.leggauss(96)

    def analytic_value(f, grad):
        # kinetic: polar quadrature on the supporting disk; line: along circle
        # (supports all lie inside the 1.3-disk)
        r = 0.65 * (gq + 1.0)
        wr = 0.65 * gw
        th = np.pi * (gq + 1.0)
        wth = np.pi * gw
        R, TH = np.meshgrid(r, th, indexing="ij")
        gx, gy = grad(R * np.cos(TH), R * np.sin(TH))
        kin = np.einsum("i,j,ij->", wr, wth, (gx**2 + gy**2) * R)
        s = 0.7 * np.pi * (gq + 1.0)
        ws = 0.7 * np.pi * gw
        p = circle.point(s)
        line = alpha * np.sum(ws * f(p[:, 0], p[:, 1]) ** 2)
        return kin + line

    hs = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    for f, grad in bumps:
        ref = analytic_value(f, grad)
        errs = []
        for h in hs:
            m = build_mesh(((-1.5, 1.5), (-1.5, 1.5)), h)
            form = build_form(m, net=net, strengths={0: alpha})
            v = f(m.node_x, m.node_y)[m.interior]
            errs.append(abs(v @ (form.S @ v) - ref))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope >= 1.0


# ------------------------------------------------------- tube-only scatter


def test_interpolate_keeps_coarse_nodes_and_averages_edge_midpoints():
    # every node of the h/2 mesh of a dyadic mesh lies between two coarse
    # nodes (i, j) and (i + a, j + b), the same one at a coarse node: it takes
    # the coarse value there, bitwise, and the mean of the two ends at the
    # midpoint of an edge, the diagonal included; 0 on the boundary
    mesh = build_mesh(((-1.0, 1.0), (-0.5, 1.0)), 0.125)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(mesh.n_interior) + 1j * rng.standard_normal(mesh.n_interior)
    values = np.zeros(mesh.n_nodes, dtype=complex)
    values[mesh.interior] = u
    fine = build_mesh(mesh.box, mesh.h / 2)
    got = interpolate(mesh, u, np.stack([fine.node_x, fine.node_y], axis=1))
    i, j = np.arange(fine.n_nodes) % (fine.nx + 1), np.arange(fine.n_nodes) // (fine.nx + 1)
    lo = (j // 2) * (mesh.nx + 1) + i // 2
    hi = ((j + 1) // 2) * (mesh.nx + 1) + (i + 1) // 2
    coarse = (i % 2 == 0) & (j % 2 == 0)
    assert np.array_equal(got[coarse], values[lo[coarse]])
    assert np.array_equal(got, (values[lo] + values[hi]) / 2)
    boundary = np.ones(fine.n_nodes, dtype=bool)
    boundary[fine.interior] = False
    assert not np.any(got[boundary])
    assert interpolate(mesh, u.real, np.stack([fine.node_x, fine.node_y], axis=1)).dtype == float


def moved_mesh(dx, dy, seed=5):
    """The mesh of [-1, 1]^2 at h = 1/8 with its interior nodes moved by
    uniform random steps of at most dx * h and dy * h."""
    m = build_mesh(((-1.0, 1.0), (-1.0, 1.0)), 1.0 / 8.0)
    rng = np.random.default_rng(seed)
    step = np.zeros((2, m.n_nodes))
    step[:, m.interior] = rng.uniform(-1.0, 1.0, (2, m.n_interior)) * [[dx * m.h], [dy * m.h]]
    return dataclasses.replace(m, node_x=m.node_x + step[0], node_y=m.node_y + step[1])


@pytest.mark.parametrize("sheared, point", [
    (True, (0.3, 0.2)), (False, (1.5, 0.2)), (False, (-3.0, 0.0)), (False, (np.nan, 0.0))],
    ids=["sheared", "right_of_the_box", "left_of_the_box", "nan"])
def test_interpolate_refuses_a_point_outside_its_triangle(sheared, point):
    # uniform-grid basis tables gave 0.435 for x at (0.3, 0.2) on the sheared
    # mesh of test_element_matrices_follow_the_node_coordinates, and
    # extrapolated -3.5 and 14.0 outside the box
    m = sheared_mesh() if sheared else build_mesh(((-1.0, 1.0), (-1.0, 1.0)), 1.0 / 8.0)
    with pytest.raises(GeometryError, match=re.escape(f"point ({point[0]}, {point[1]})")) as err:
        interpolate(m, m.node_x[m.interior], [point])
    assert "h=0.125" in str(err.value)


def test_interpolate_is_exact_for_linear_functions_on_a_moved_mesh():
    # the P1 interpolant of a linear function is that function on every
    # triangle whose corners are all interior nodes (0 on the boundary)
    m = moved_mesh(0.1, 0.1)
    inner = np.zeros(m.n_nodes, dtype=bool)
    inner[m.interior] = True
    tri = m.triangles[np.all(inner[m.triangles], axis=1)]
    centroids = np.stack([m.node_x[tri].mean(axis=1), m.node_y[tri].mean(axis=1)], axis=1)

    def f(x, y):
        return 0.7 * x - 1.3 * y + 0.2

    got = interpolate(m, f(m.node_x, m.node_y)[m.interior], centroids)
    assert np.max(np.abs(got - f(*centroids.T))) <= 1e-14


def test_delta_term_is_exact_for_linear_traces_on_a_moved_mesh():
    # nodes moved in y by at most h/10 keep the horizontal line at mid-row in
    # its row of cells; there the traces of linear u and v are exact, and
    # 4-point Gauss integrates their product exactly
    alpha, y, (a, b) = -2.5, 1.0 / 16.0, (-0.8, 0.7)
    m = moved_mesh(0.0, 0.1)
    net = Network([LineSegment((a, y), (b, y))], beta_cap=0.3)
    B = assemble_delta_term(m, net, {0: alpha})
    u, v = 0.7 * m.node_x - 1.3 * m.node_y + 0.2, (0.4 - 0.3j) * m.node_x + 0.9 * m.node_y
    x, w = np.polynomial.legendre.leggauss(2)
    x, w = a + 0.5 * (b - a) * (x + 1.0), 0.5 * (b - a) * w
    exact = alpha * np.sum(w * (0.7 * x - 1.3 * y + 0.2) * ((0.4 - 0.3j) * x + 0.9 * y))
    assert abs(np.vdot(u, B @ v) - exact) <= 1e-12 * abs(exact)
    # on the sheared mesh the line's points leave their grid cells' triangles
    with pytest.raises(GeometryError, match=r"segment 0: point \(.*h=0.125"):
        assemble_delta_term(sheared_mesh(), net, {0: alpha})


def test_tube_only_potential_equals_the_full_scatter():
    net = Network([LineSegment((-1.0, 0.1), (1.0, -0.2)),
                   CircularArc((0.0, 0.3), 0.9, 0.3, 2.5)], beta_cap=0.3)
    m = build_mesh(((-2.0, 2.0), (-2.0, 2.0)), 1.0 / 16.0)
    profiles = [constant_profile(0, -4.0, net.beta), constant_profile(1, 2.5 + 1.0j, net.beta)]
    W = SqueezedPotential(net, profiles, 0.25)
    P, full = assemble_volume_potential(m, W), full_scatter_potential(m, W)
    assert P.nnz < full.nnz / 4  # only the tube's triangles are scattered
    assert P.dtype == full.dtype == complex
    assert_same_csr(P, full_scatter_potential(m, W, tube=True))
    P.eliminate_zeros()
    full.eliminate_zeros()
    assert_same_csr(P, full)


class CountedPotential:
    """A squeezed potential that counts its evaluation points, with or
    without its support boxes."""

    def __init__(self, W, with_support):
        self.W, self.eps, self.points = W, W.eps, 0
        if with_support:
            self.support_mask = W.support_mask

    def __call__(self, x, y):
        self.points += np.size(x)
        return self.W(x, y)


@pytest.mark.parametrize("segment", [
    LineSegment((-1.0, 0.0), (1.0, 0.0)),  # tube edges on mesh lines
    SplineSegment([[-1.5, -0.5], [-0.8, 0.4], [0.0, 0.1], [0.7, 0.6], [1.5, -0.2]]),
], ids=["mesh_aligned_line", "spline"])
def test_squeezed_potential_is_evaluated_near_its_segment_only(segment):
    net = Network([segment], beta_cap=0.25)
    m = build_mesh(((-2.0, 2.0), (-2.0, 2.0)), 1.0 / 40.0)
    W = SqueezedPotential(net, [constant_profile(0, -4.0, net.beta)], net.beta)
    near, every = CountedPotential(W, True), CountedPotential(W, False)
    P = assemble_volume_potential(m, near)
    assert_same_csr(P, assemble_volume_potential(m, every))
    assert_same_csr(P, assemble_volume_potential(m, W))
    assert every.points == 3 * len(m.triangles)
    assert near.points < 0.5 * every.points


def test_nan_potential_value_reaches_the_matrix():
    m = build_mesh(UNIT_BOX, 0.125)

    def W(x, y):
        w = np.zeros_like(x)
        w[(np.abs(x - 0.5) < 1e-12) & (np.abs(y - 0.5625) < 1e-12)] = np.nan
        return w

    nan = np.isnan(assemble_volume_potential(m, W).toarray())
    # the edge's two triangles put NaN on its 2 x 2 block, as the full scatter does
    assert nan.sum() == 4
    assert np.array_equal(nan, np.isnan(full_scatter_potential(m, W).toarray()))


def test_build_form_refuses_a_base_of_another_mesh_or_field():
    m, m2 = build_mesh(UNIT_BOX, 0.125), build_mesh(UNIT_BOX, 0.125)
    base = assemble_base(m)
    assert build_form(m, base=base).S is base.S
    for kwargs in ({"mesh": m2}, {"mesh": m, "A": homogeneous_gauge(1.0)},
                   {"mesh": m, "Q": 2.0}):
        mesh = kwargs.pop("mesh")
        with pytest.raises(ValueError, match="base form"):
            build_form(mesh, base=base, **kwargs)


@pytest.mark.parametrize("b", [0.0, 1.5])
@pytest.mark.parametrize("Q", [-3.0, lambda x, y: 0.5 * x ** 2], ids=["q_constant", "q_quadratic"])
@pytest.mark.parametrize("kind", ["constant", "separable", "tabulated"])
def test_a_squeezed_form_is_at_least_its_floor_times_the_mass(kind, Q, b):
    # K_A >= 0, and a potential's matrix less its least edge-midpoint value
    # times M is a sum of PSD edge blocks: S - floor M has no negative eigenvalue
    net = Network([LineSegment((-0.6, 0.05), (0.7, 0.3))], beta_cap=0.3)
    m = build_mesh(((-1.0, 1.0), (-1.0, 1.0)), 1.0 / 16.0)
    beta, length = net.beta, net.segments[0].length
    profile = {
        "constant": lambda: constant_profile(0, -4.0, beta),
        "separable": lambda: separable_profile(0, lambda s: 1.0 + s,
                                               lambda t: np.cos(9.0 * t) - 0.8, beta),
        "tabulated": lambda: tabulated_profile(
            0, np.linspace(0.0, length, 6), np.linspace(-beta, beta, 5),
            np.random.default_rng(5).uniform(-6.0, 2.0, (6, 5)), beta),
    }[kind]()
    A = homogeneous_gauge(b) if b else None
    base = assemble_base(m, A, Q)
    form = build_form(m, A=A, Q=Q, potential=SqueezedPotential(net, [profile], 0.25), base=base)
    assert base.floor == min(0.0, Q if np.isscalar(Q) else 0.0)
    assert form.floor < base.floor  # every profile dips below 0
    # the form, and its squeezed term alone, whose bound is sharp for a
    # constant profile: the term is floor M on the tube's triangles
    for matrix, floor in ((form.S, form.floor), (form.S - base.S, form.floor - base.floor)):
        lowest = sla.eigh((matrix - floor * form.M).toarray(), eigvals_only=True,
                          subset_by_index=[0, 0])[0]
        assert lowest >= -1e-10 * abs(form.floor)


def test_a_line_term_has_no_floor_and_a_bare_form_has_its_base_floor():
    net = Network([LineSegment((-0.6, 0.05), (0.7, 0.3))], beta_cap=0.3)
    m = build_mesh(((-1.0, 1.0), (-1.0, 1.0)), 1.0 / 16.0)
    base = assemble_base(m, None, -3.0)
    W = SqueezedPotential(net, [constant_profile(0, -4.0, net.beta)], 0.25)
    assert build_form(m, Q=-3.0, net=net, strengths={0: -4.0}, base=base).floor is None
    assert build_form(m, Q=-3.0, net=net, strengths={0: -4.0}, potential=W,
                      base=base).floor is None
    bare = build_form(m, Q=-3.0, base=base)
    assert bare.floor == base.floor == -3.0 and bare.potential_sum is None
    # the squeezed term's floor is its constant value, scaled by beta / eps
    squeezed = build_form(m, Q=-3.0, potential=W, base=base)
    assert squeezed.floor == -3.0 + (-4.0 * net.beta / 0.25)
    # potential_sum is the sum of the term's entries: int V_eps, as the
    # full-node matrix gives it (the tube keeps off the boundary)
    full = assemble_volume_potential(m, W)
    assert squeezed.potential_sum == pytest.approx(full.sum(), rel=1e-12)
