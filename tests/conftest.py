"""Shared builders for the test suite."""

import numpy as np
import scipy.sparse as sp

from deltasqueeze import fem, frontal
from deltasqueeze.geometry import LineSegment, Network
from deltasqueeze.potentials import SqueezedPotential


def star_network(angles_deg, length=1.0, rot_deg=0.0, beta_cap=0.4):
    """Star of line segments from the origin; angles are the wedge openings."""
    azimuth = [0.0]
    for a in angles_deg[:-1]:
        azimuth.append(azimuth[-1] + a)
    segs = []
    for theta in azimuth:
        th = np.radians(theta + rot_deg)
        segs.append(
            LineSegment((0.0, 0.0), (length * np.cos(th), length * np.sin(th)))
        )
    return Network(segs, beta_cap=beta_cap)


def smooth_bump(center, radius):
    """C-infinity bump exp(1 - 1/(1 - (r/R)^2)) on r < R, with its gradient."""
    cx, cy = center

    def f(x, y):
        u2 = ((x - cx) ** 2 + (y - cy) ** 2) / radius**2
        out = np.zeros_like(np.asarray(u2, dtype=float))
        inside = u2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - u2[inside]))
        return out

    def grad(x, y):
        dx, dy = x - cx, y - cy
        u2 = (dx**2 + dy**2) / radius**2
        gx = np.zeros_like(np.asarray(u2, dtype=float))
        gy = np.zeros_like(gx)
        inside = u2 < 1.0 - 1e-14
        pref = np.zeros_like(gx)
        pref[inside] = (
            np.exp(1.0 - 1.0 / (1.0 - u2[inside]))
            * (-2.0 / (1.0 - u2[inside]) ** 2)
            / radius**2
        )
        gx[inside] = pref[inside] * dx[inside]
        gy[inside] = pref[inside] * dy[inside]
        return gx, gy

    return f, grad


def coo_scatter(mesh, elems, triangles=None):
    """Sum of the element matrices `elems` of `triangles` (default: all) over
    all nodes by scipy's COO to CSR conversion: the reference for the
    stencil sums of `fem`."""
    t = mesh.triangles if triangles is None else triangles
    rows, cols = np.repeat(t, 3, axis=1).ravel(), np.tile(t, (1, 3)).ravel()
    return sp.coo_matrix((elems.ravel(), (rows, cols)),
                         shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()


def coo_stiffness(mesh, A=None):
    """`fem.assemble_magnetic_stiffness`, every element matrix made at once
    and summed by `coo_scatter`."""
    area, half = mesh.h**2 / 2.0, len(mesh.triangles) // 2
    grads = np.concatenate([
        np.broadcast_to(np.array([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]]) / mesh.h, (half, 3, 2)),
        np.broadcast_to(np.array([[0.0, -1.0], [1.0, 0.0], [-1.0, 1.0]]) / mesh.h, (half, 3, 2))])
    K = area * np.einsum("tid,tjd->tij", grads, grads)
    if A is None:
        return coo_scatter(mesh, K)
    px, py = mesh.node_x[mesh.triangles], mesh.node_y[mesh.triangles]
    ax, ay = A(px.mean(axis=1), py.mean(axis=1))
    AG = ax[:, None] * grads[:, :, 0] + ay[:, None] * grads[:, :, 1]
    elems = K.astype(complex) + 1j * (area / 3.0) * (AG[:, None, :] - AG[:, :, None])
    for i in range(3):
        elems[:, i, i] += (area / 3.0) * (ax**2 + ay**2)
    return coo_scatter(mesh, elems)


def coo_mass(mesh):
    """`fem.assemble_mass` summed by `coo_scatter`."""
    Me = (mesh.h**2 / 2.0) * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    return coo_scatter(mesh, np.broadcast_to(Me, (len(mesh.triangles), 3, 3)))


def full_scatter_potential(mesh, W, tube=False):
    """int W u conj(v) by the edge-midpoint rule, every triangle scattered
    (with `tube`, those with a nonzero quadrature value, NaN included):
    the reference for the tube-only `fem.assemble_volume_potential`."""
    px, py = mesh.node_x[mesh.triangles], mesh.node_y[mesh.triangles]
    pairs = ((1, 2), (0, 2), (0, 1))
    if callable(W):
        wq = np.stack([W(0.5 * (px[:, a] + px[:, b]), 0.5 * (py[:, a] + py[:, b]))
                       for a, b in pairs], axis=1)
    else:
        wq = np.full(px.shape, W, dtype=np.result_type(W, float))
    area = mesh.h**2 / 2.0
    elems = np.zeros((len(mesh.triangles), 3, 3), dtype=wq.dtype)
    for k, (a, b) in enumerate(pairs):
        for i in (a, b):
            for j in (a, b):
                elems[:, i, j] += (area / 12.0) * wq[:, k]
    keep = np.any(wq != 0, axis=1) if tube else slice(None)
    return coo_scatter(mesh, elems[keep], mesh.triangles[keep])


def full_node_form(op, eps=None):
    """(S, M) of `lab.Operator` op at eps assembled over all nodes, every
    term summed there, then restricted: the reference for `Operator.form`."""
    mesh, A, Q = op.base.mesh, op.base.A, op.base.Q
    S = fem.assemble_magnetic_stiffness(mesh, A)
    if Q is not None:
        S = S + full_scatter_potential(mesh, Q)
    if eps is None:
        S = S + fem.assemble_delta_term(mesh, op.net, op.strengths)
    else:
        S = S + full_scatter_potential(mesh, SqueezedPotential(op.net, op.profiles, eps))
    return fem.restrict(mesh, S), fem.restrict(mesh, fem.assemble_mass(mesh))


def assert_same_csr(A, B):
    """A and B are the same CSR matrix, array for array and bit for bit."""
    A, B = A.tocsr(), B.tocsr()
    assert A.shape == B.shape and A.dtype == B.dtype
    for x, y in ((A.indptr, B.indptr), (A.indices, B.indices), (A.data, B.data)):
        assert np.array_equal(x, y)


def reference_entries(plan, tree, A):
    """`frontal._entries`'s (indptr, indices, slot, at, edge) of the lower
    triangle of A, made over every entry at once and ordered by one argsort
    of int64 keys: the reference for its counting sort in blocks of rows."""
    n = plan.n
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    at = np.flatnonzero(rows >= A.indices)
    i, j = rows[at], A.indices[at]
    s = np.repeat(np.arange(len(tree.parent)), np.diff(tree.starts))[j]  # supernode of j
    start, side, p = (x[s] for x in plan.front)
    row = i - tree.starts[s]
    outside = i >= tree.starts[s + 1]
    so = s[outside]
    row[outside] = p[outside] + np.searchsorted(frontal._ring_key(tree), so * n + i[outside]) \
        - tree.ring_ptr[so]
    slot = start + row * side + (j - tree.starts[s])
    depth = plan.depth[s]
    first = np.concatenate([[0], np.cumsum([size for size, _ in plan.depths])])
    order = np.argsort(first[depth] + slot)
    key = 2 * depth + ~plan.tube[s]
    edge = np.concatenate([[0], np.cumsum(np.bincount(key, minlength=2 * len(plan.depths)))])
    return (A.indptr.copy(), A.indices.copy(), slot[order].astype(np.int32),
            at[order].astype(np.int32), edge.tolist())
