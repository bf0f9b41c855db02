"""P1 finite elements on a Dirichlet box for magnetic forms with line terms.

The box is triangulated uniformly, two triangles per cell with a fixed
diagonal (lower-left to upper-right), so all element matrices come in two
congruence classes and the sparsity pattern is deterministic.  The assembled
sesquilinear form is

    S[u, v] = int (i grad u + A u) . conj(i grad v + A v)
            + int W u conj(v)  +  int_Sigma alpha u conj(v) dsigma

with A frozen at triangle barycenters, W integrated by the 3-point
edge-midpoint rule (exact for quadratics, hence reproducing the mass matrix
for W = 1), and the line term integrated by composite Gauss-Legendre along
arc length.  Assembly returns matrices over all nodes; `restrict` removes
the Dirichlet boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .geometry import Network

__all__ = [
    "Mesh",
    "AssembledForm",
    "GeometryError",
    "MeshParameterError",
    "ResolutionError",
    "build_mesh",
    "assemble_mass",
    "assemble_volume_potential",
    "assemble_magnetic_stiffness",
    "assemble_delta_term",
    "restrict",
    "build_form",
    "homogeneous_gauge",
    "hermiticity_residual",
]


class MeshParameterError(ValueError):
    """Grid step does not divide the box."""


class ResolutionError(ValueError):
    """Mesh too coarse for the squeezed potential."""


class GeometryError(ValueError):
    """Curve quadrature points leave the computational box."""


@dataclass(frozen=True)
class Mesh:
    """Uniform triangulation of a box with Dirichlet boundary eliminated."""

    box: tuple
    h: float
    nx: int
    ny: int
    node_x: np.ndarray
    node_y: np.ndarray
    triangles: np.ndarray  # (nt, 3) node indices, lower block then upper block
    interior: np.ndarray  # bool mask over nodes

    @property
    def n_nodes(self):
        return (self.nx + 1) * (self.ny + 1)

    @property
    def n_interior(self):
        return int(self.interior.sum())

    def summary(self):
        return {
            "box": [list(self.box[0]), list(self.box[1])],
            "h": self.h,
            "nodes": self.n_nodes,
            "triangles": len(self.triangles),
            "interior": self.n_interior,
        }


def build_mesh(box, h: float) -> Mesh:
    """Uniform mesh of box = ((x0, x1), (y0, y1)) with step h in both directions."""
    (x0, x1), (y0, y1) = box
    if h <= 0:
        raise MeshParameterError("h must be positive")
    nx_f, ny_f = (x1 - x0) / h, (y1 - y0) / h
    nx, ny = int(round(nx_f)), int(round(ny_f))
    if abs(nx_f - nx) > 1e-9 or abs(ny_f - ny) > 1e-9 or nx < 1 or ny < 1:
        raise MeshParameterError(f"h={h} does not divide the box sides {x1-x0}, {y1-y0}")
    Nx, Ny = nx + 1, ny + 1
    xs = x0 + h * np.arange(Nx)
    ys = y0 + h * np.arange(Ny)
    node_x = np.tile(xs, Ny)
    node_y = np.repeat(ys, Nx)
    I, J = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    I, J = I.ravel(), J.ravel()
    p00 = J * Nx + I
    p10 = J * Nx + I + 1
    p01 = (J + 1) * Nx + I
    p11 = (J + 1) * Nx + I + 1
    lower = np.stack([p00, p10, p11], axis=1)
    upper = np.stack([p00, p11, p01], axis=1)
    triangles = np.concatenate([lower, upper])
    interior = np.zeros(Nx * Ny, dtype=bool)
    ii, jj = np.meshgrid(np.arange(1, nx), np.arange(1, ny), indexing="ij")
    interior[jj.ravel() * Nx + ii.ravel()] = True
    return Mesh(
        box=((float(x0), float(x1)), (float(y0), float(y1))),
        h=float(h),
        nx=nx,
        ny=ny,
        node_x=node_x,
        node_y=node_y,
        triangles=triangles,
        interior=interior,
    )


# fixed P1 gradients of the two triangle classes, scaled by 1/h at use time
_GRAD_LOWER = np.array([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]])
_GRAD_UPPER = np.array([[0.0, -1.0], [1.0, 0.0], [-1.0, 1.0]])
_MASS_ELEMENT = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def _tri_corners(mesh: Mesh):
    t = mesh.triangles
    return mesh.node_x[t], mesh.node_y[t]


def _scatter(mesh: Mesh, element_matrices):
    t = mesh.triangles
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    n = mesh.n_nodes
    return sp.coo_matrix(
        (element_matrices.ravel(), (rows, cols)), shape=(n, n)
    ).tocsr()


def assemble_mass(mesh: Mesh):
    """Exact P1 mass matrix over all nodes."""
    area = mesh.h**2 / 2.0
    Me = area * _MASS_ELEMENT
    elems = np.broadcast_to(Me, (len(mesh.triangles), 3, 3))
    return _scatter(mesh, np.ascontiguousarray(elems))


def assemble_volume_potential(mesh: Mesh, W, eps: float | None = None):
    """Matrix of int W u conj(v) by the 3-point edge-midpoint rule.

    W is a scalar or a vectorized callable W(x, y); squeezed potentials carry
    their eps (attribute or argument) and must satisfy h <= eps / 4.
    """
    eff_eps = eps if eps is not None else getattr(W, "eps", None)
    if eff_eps is not None and mesh.h > eff_eps / 4.0 + 1e-12:
        raise ResolutionError(
            f"squeezed potential with eps={eff_eps} needs h <= eps/4, got h={mesh.h}"
        )
    px, py = _tri_corners(mesh)
    area = mesh.h**2 / 2.0
    # midpoint opposite local vertex k lies between the other two vertices
    pairs = ((1, 2), (0, 2), (0, 1))
    if callable(W):
        wq = []
        for a, b in pairs:
            wq.append(W(0.5 * (px[:, a] + px[:, b]), 0.5 * (py[:, a] + py[:, b])))
        wq = np.stack(wq, axis=1)
    else:
        wq = np.full((len(mesh.triangles), 3), W, dtype=np.result_type(W, float))
    dtype = complex if np.iscomplexobj(wq) else float
    elems = np.zeros((len(mesh.triangles), 3, 3), dtype=dtype)
    for k, (a, b) in enumerate(pairs):
        contrib = (area / 12.0) * wq[:, k]
        for i in (a, b):
            for j in (a, b):
                elems[:, i, j] += contrib
    return _scatter(mesh, elems)


def homogeneous_gauge(b: float):
    """Symmetric-gauge vector potential of the homogeneous field b: (b/2)(-y, x)."""

    def A(x, y):
        return -0.5 * b * np.asarray(y, dtype=float), 0.5 * b * np.asarray(x, dtype=float)

    A.b = b
    return A


def assemble_magnetic_stiffness(mesh: Mesh, A=None):
    """Kinetic form int (i grad u + A u) . conj(i grad v + A v) over all nodes.

    A is evaluated at triangle barycenters; the |A|^2 u conj(v) coupling uses
    the 3-point vertex rule (lumped), the cross term uses the exact P1
    integrals.  The result is Hermitian by construction and real when A
    vanishes identically.
    """
    area = mesh.h**2 / 2.0
    nt = len(mesh.triangles)
    half = nt // 2
    grads = np.empty((nt, 3, 2))
    grads[:half] = _GRAD_LOWER / mesh.h
    grads[half:] = _GRAD_UPPER / mesh.h
    K = area * np.einsum("tid,tjd->tij", grads, grads)
    if A is None:
        return _scatter(mesh, K)
    px, py = _tri_corners(mesh)
    ax, ay = A(px.mean(axis=1), py.mean(axis=1))
    ax = np.asarray(ax, dtype=float)
    ay = np.asarray(ay, dtype=float)
    if not np.any(ax) and not np.any(ay):
        return _scatter(mesh, K)
    AG = ax[:, None] * grads[:, :, 0] + ay[:, None] * grads[:, :, 1]
    cross = 1j * (area / 3.0) * (AG[:, None, :] - AG[:, :, None])
    elems = K.astype(complex) + cross
    asq = (area / 3.0) * (ax**2 + ay**2)
    for i in range(3):
        elems[:, i, i] += asq
    return _scatter(mesh, elems)


def _p1_basis_at_points(mesh: Mesh, pts):
    """Containing-triangle nodes and P1 basis values for each point (n, 2)."""
    (x0, _), (y0, _) = mesh.box
    h = mesh.h
    Nx = mesh.nx + 1
    ix = np.clip(((pts[:, 0] - x0) / h).astype(np.int64), 0, mesh.nx - 1)
    iy = np.clip(((pts[:, 1] - y0) / h).astype(np.int64), 0, mesh.ny - 1)
    fx = (pts[:, 0] - (x0 + h * ix)) / h
    fy = (pts[:, 1] - (y0 + h * iy)) / h
    lower = fy <= fx
    p00 = iy * Nx + ix
    p10 = iy * Nx + ix + 1
    p01 = (iy + 1) * Nx + ix
    p11 = (iy + 1) * Nx + ix + 1
    nodes = np.where(
        lower[:, None],
        np.stack([p00, p10, p11], axis=1),
        np.stack([p00, p11, p01], axis=1),
    )
    basis = np.where(
        lower[:, None],
        np.stack([1.0 - fx, fx - fy, fy], axis=1),
        np.stack([1.0 - fy, fx, fy - fx], axis=1),
    )
    return nodes, basis


_GQ4, _GW4 = np.polynomial.legendre.leggauss(4)


def assemble_delta_term(mesh: Mesh, net: Network, strengths):
    """Line-term matrix int_Sigma alpha u conj(v) dsigma on P1 traces.

    `strengths` maps segment index to its strength (scalar, callable of arc
    length, or StrengthFunction); segments without an entry are skipped.
    Composite 4-point Gauss-Legendre on arc-length intervals of size <= h.
    """
    if isinstance(strengths, dict):
        table = strengths
    else:
        table = dict(enumerate(strengths))
    (x0, x1), (y0, y1) = mesh.box
    n = mesh.n_nodes
    rows, cols, vals = [], [], []
    any_complex = False
    for k, seg in enumerate(net.segments):
        if k not in table or table[k] is None:
            continue
        a_k = table[k]
        n_int = int(np.ceil(seg.length / mesh.h))
        edges = seg.length * np.arange(n_int + 1) / n_int
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[:-1] + edges[1:])
        sq = (mid[:, None] + half[:, None] * _GQ4[None, :]).ravel()
        wq = (half[:, None] * _GW4[None, :]).ravel()
        pts = seg.point(sq)
        inside = (
            (pts[:, 0] > x0) & (pts[:, 0] < x1) & (pts[:, 1] > y0) & (pts[:, 1] < y1)
        )
        if not np.all(inside):
            raise GeometryError(
                f"segment {k}: curve quadrature points leave the open box {mesh.box}"
            )
        if callable(a_k):
            aq = np.asarray(a_k(sq))
        else:
            aq = np.full(sq.shape, a_k, dtype=np.result_type(a_k, float))
        any_complex = any_complex or np.iscomplexobj(aq)
        nodes, basis = _p1_basis_at_points(mesh, pts)
        w = aq * wq
        elems = w[:, None, None] * basis[:, :, None] * basis[:, None, :]
        rows.append(np.repeat(nodes, 3, axis=1).ravel())
        cols.append(np.tile(nodes, (1, 3)).ravel())
        vals.append(elems.ravel())
    if not rows:
        return sp.csr_matrix((n, n))
    dtype = complex if any_complex else float
    return sp.coo_matrix(
        (
            np.concatenate(vals).astype(dtype),
            (np.concatenate(rows), np.concatenate(cols)),
        ),
        shape=(n, n),
    ).tocsr()


def restrict(mesh: Mesh, A):
    """Submatrix over interior nodes (Dirichlet boundary eliminated)."""
    idx = np.where(mesh.interior)[0]
    return A[idx][:, idx].tocsr()


def hermiticity_residual(S):
    """max |S - S^H| entrywise."""
    d = (S - S.getH()).tocoo()
    return float(np.max(np.abs(d.data))) if d.nnz else 0.0


@dataclass(frozen=True)
class AssembledForm:
    """Interior-node matrices of one operator: S Hermitian-ish, M SPD mass."""

    S: sp.spmatrix
    M: sp.spmatrix
    meta: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.S.shape[0]


def build_form(
    mesh: Mesh,
    *,
    A=None,
    Q=None,
    net: Network = None,
    strengths=None,
    potential=None,
    eps: float | None = None,
) -> AssembledForm:
    """Assemble and restrict the full operator of one experiment.

    Combines the magnetic kinetic part, an optional background potential Q,
    an optional squeezed potential (callable carrying eps), and an optional
    concentrated line term given by per-segment strengths on `net`.
    """
    S = assemble_magnetic_stiffness(mesh, A)
    if Q is not None:
        S = S + assemble_volume_potential(mesh, Q)
    if potential is not None:
        S = S + assemble_volume_potential(mesh, potential, eps=eps)
    if strengths is not None:
        if net is None:
            raise ValueError("delta strengths need a network")
        S = S + assemble_delta_term(mesh, net, strengths)
    M = assemble_mass(mesh)
    Si, Mi = restrict(mesh, S), restrict(mesh, M)
    meta = {
        "mesh": mesh.summary(),
        "magnetic": A is not None,
        "delta": strengths is not None,
        "squeezed_eps": eps if eps is not None else getattr(potential, "eps", None),
        "hermiticity_residual": hermiticity_residual(Si),
    }
    return AssembledForm(S=Si, M=Mi, meta=meta)
