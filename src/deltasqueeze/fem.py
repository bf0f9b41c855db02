"""P1 finite elements on a Dirichlet box for magnetic forms with line terms.

The box is triangulated uniformly, two triangles per cell with a fixed
diagonal (lower-left to upper-right), so the sparsity pattern is
deterministic; each element matrix, and each P1 basis value at a point
(the line term, `interpolate`), comes from its triangle's corners
(`_geometry`), and a point outside its triangle raises GeometryError.  The
assembled sesquilinear form is

    S[u, v] = int (i grad u + A u) . conj(i grad v + A v)
            + int W u conj(v)  +  int_Sigma alpha u conj(v) dsigma

with A frozen at triangle barycenters, W integrated by the 3-point
edge-midpoint rule (exact for quadratics, hence reproducing the mass matrix
for W = 1), and the line term integrated by composite Gauss-Legendre along
arc length.  Every matrix is summed straight into the one pattern of P1 on
the mesh, the 7-point stencil of the diagonal, each slot in triangle order
(`_sum`).  The unknowns are `Mesh.interior`, the interior nodes (Dirichlet
boundary eliminated) in geometric nested-dissection order (George, Nested
dissection of a regular finite element mesh, SIAM J. Numer. Anal. 10
(1973) 345-363).  Unknown i is node interior[i]: the rows of every form's
S and M and of every eigenvector follow that order, which is the
elimination order of their sparse factorizations.  The mesh keeps the
separator tree of that order (`DissectionTree`), and every form built on
the mesh carries it to the multifrontal factors of `spectral`.  The public
`assemble_*` functions sum over all nodes; `restrict` takes their
interior-node submatrix.

The part of a form that depends only on (mesh, A, Q) is a `BaseForm`: K_A
+ Q and M, summed once into the pattern of the unknowns.  Every form built
on it sums its own terms, the squeezed potential or the line term, into
that pattern, adds them to base.S and shares its M.  Both are local: the
line term lives on the triangles its quadrature points hit, and
`assemble_volume_potential` evaluates a squeezed potential only on the
triangles near its segments' bounding boxes and sums only the triangles
where it has a nonzero quadrature value, the eps-tube.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .geometry import Network

__all__ = [
    "Mesh",
    "DissectionTree",
    "AssembledForm",
    "BaseForm",
    "GeometryError",
    "MeshParameterError",
    "ResolutionError",
    "resolves",
    "build_mesh",
    "assemble_mass",
    "assemble_volume_potential",
    "assemble_magnetic_stiffness",
    "assemble_delta_term",
    "line_quadrature",
    "interpolate",
    "restrict",
    "assemble_base",
    "build_form",
    "homogeneous_gauge",
    "hermiticity_residual",
]


class MeshParameterError(ValueError):
    """Grid step does not divide the box."""


class ResolutionError(ValueError):
    """Mesh too coarse for the squeezed potential."""


class GeometryError(ValueError):
    """A point leaves the computational box or the triangle it is looked up in."""


@dataclass(frozen=True)
class Mesh:
    """Triangulation of a box, Dirichlet boundary eliminated; element matrices read its nodes."""

    box: tuple
    h: float
    nx: int
    ny: int
    node_x: np.ndarray
    node_y: np.ndarray
    triangles: np.ndarray  # (nt, 3) node indices, corners counter-clockwise
    interior: np.ndarray  # interior node indices in nested-dissection order
    tree: DissectionTree = field(repr=False, compare=False)  # separator tree of `interior`

    @property
    def n_nodes(self):
        return (self.nx + 1) * (self.ny + 1)

    @property
    def n_interior(self):
        return len(self.interior)

    def summary(self):
        return {
            "box": [list(self.box[0]), list(self.box[1])],
            "h": self.h,
            "nodes": self.n_nodes,
            "triangles": len(self.triangles),
            "interior": self.n_interior,
        }


# corners (di, dj) of a cell's lower and upper triangle, [p00, p10, p11] and [p00, p11, p01]
_CORNERS = np.array([[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]])


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
    node_x = np.tile(x0 + h * np.arange(Nx), Ny)
    node_y = np.repeat(y0 + h * np.arange(Ny), Nx)
    p00 = (Nx * np.arange(ny) + np.arange(nx)[:, None]).ravel()  # of cell (i, j), i first
    triangles = (p00[None, :, None] + (_CORNERS @ [1, Nx])[:, None, :]).reshape(-1, 3)
    interior, tree = _nested_dissection(nx, ny)
    return Mesh(box=((float(x0), float(x1)), (float(y0), float(y1))), h=float(h), nx=nx,
                ny=ny, node_x=node_x, node_y=node_y, triangles=triangles,
                interior=interior, tree=tree)


_ND_LEAF = 4  # nested dissection stops at blocks of at most this many nodes


@dataclass(frozen=True, eq=False)
class DissectionTree:
    """Separator tree of a nested-dissection numbering: the supernodes of a
    multifrontal factorization (Liu, The multifrontal method for sparse
    matrix solution, SIAM Review 34 (1992) 82-109).

    Supernode s is the unknowns starts[s] .. starts[s+1] - 1, a leaf block or
    a cut line, listed children first.  It closes a rectangle of the grid:
    a leaf block itself, a cut line the rectangle it splits.  parent[s] is
    the cut line whose split made that rectangle (-1 for the root).  The
    ring of s, ring[ring_ptr[s]:ring_ptr[s+1]] in ascending order, is the
    set of later unknowns that share an entry of the Cholesky factor with
    its columns: the nodes of ancestor cut lines adjacent to its rectangle.
    The pivots of s and its ring make up its front.
    """

    starts: np.ndarray
    parent: np.ndarray
    ring_ptr: np.ndarray
    ring: np.ndarray
    cache: dict = field(default_factory=dict, repr=False)  # the factors' analysis of the tree

    @property
    def n(self):
        return int(self.starts[-1])


def _nested_dissection(nx, ny):
    """Interior node indices of an nx-by-ny cell grid in nested-dissection
    order, with the separator tree of that order (`DissectionTree`).

    The interior grid (columns 1..nx-1, rows 1..ny-1) is split recursively:
    each step cuts the longer side at its middle grid line and orders the
    two halves first, then the cut line.  Every P1 edge, the diagonal
    included, joins nodes at most one row and one column apart, so the line
    separates the halves.  Blocks of at most _ND_LEAF nodes and the cut
    lines keep the natural row-major order.
    """
    # breadth first: every rectangle of one depth is split at once, then the
    # blocks are put in postorder.  A rectangle closes with its block: itself
    # when it is a leaf, else its cut line, whose halves are split next.
    rect = np.array([[1, nx, 1, ny]], dtype=np.int64)
    up = half = np.array([-1])  # the cut line above, and which of its halves
    levels = []
    while len(rect):
        i0, i1, j0, j1 = rect.T
        w, t = i1 - i0, j1 - j0
        keep = (w > 0) & (t > 0)
        rect, up, half = rect[keep], up[keep], half[keep]
        (i0, i1, j0, j1), w, t = rect.T, w[keep], t[keep]
        leaf, wide = w * t <= _ND_LEAF, w >= t
        m = np.where(wide, (i0 + i1) // 2, (j0 + j1) // 2)
        block = np.where(leaf[:, None], rect, np.where(
            wide[:, None], np.stack([m, m + 1, j0, j1], axis=1),
            np.stack([i0, i1, m, m + 1], axis=1)))
        first = len(levels) and levels[-1][0][-1] + 1
        ids = first + np.arange(len(rect))
        levels.append((ids, block, rect, up, half))
        cut, wide, m = ~leaf, wide[~leaf], m[~leaf]
        i0, i1, j0, j1 = rect[cut].T
        rect = np.concatenate([
            np.stack([i0, np.where(wide, m, i1), j0, np.where(wide, j1, m)], axis=1),
            np.stack([np.where(wide, m + 1, i0), i1, np.where(wide, j0, m + 1), j1], axis=1)])
        up = np.tile(ids[cut], 2)
        half = np.repeat([0, 1], len(up) // 2)
    ids, blocks, rects, up, half = (np.concatenate(x) for x in zip(*levels))
    # postorder: a subtree's blocks, then its cut line; first half first
    count = np.ones(len(ids), dtype=np.int64)  # blocks per subtree
    for ids_d, _, _, up_d, _ in reversed(levels[1:]):
        np.add.at(count, up_d, count[ids_d])
    first_count = np.zeros(len(ids), dtype=np.int64)
    first_count[up[half == 0]] = count[half == 0]
    start = np.zeros(len(ids), dtype=np.int64)
    for ids_d, _, _, up_d, half_d in levels[1:]:
        start[ids_d] = start[up_d] + half_d * first_count[up_d]
    post = start + count - 1
    blocks[post], rects[post] = blocks.copy(), rects.copy()
    parent = np.full(len(ids), -1, dtype=np.int64)
    parent[post[1:]] = post[up[1:]]
    i0, i1, j0, j1 = blocks.T
    width = i1 - i0
    size = width * (j1 - j0)
    b = np.repeat(np.arange(len(size)), size)
    k = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    order = (j0[b] + k // width[b]) * (nx + 1) + i0[b] + k % width[b]
    number = np.full((nx + 1) * (ny + 1), -1, dtype=np.int64)
    number[order] = np.arange(len(order))
    ring_ptr, ring = _rings(rects, nx, number)
    starts = np.concatenate([[0], np.cumsum(size)])
    return order, DissectionTree(starts, parent, ring_ptr, ring)


def _rings(rects, nx, number):
    """Ring of every rectangle (i0, i1, j0, j1) in the numbering `number` of
    the nodes (-1 off the interior), as (ring_ptr, ring): the nodes a P1 edge
    joins to the rectangle.  Those are its frame but for the corners
    (i1, j0 - 1) and (i0 - 1, j1), which the diagonal misses."""
    i0, i1, j0, j1 = rects.T
    row = nx + 1
    # four sides: first node, step and length; left and right columns first
    first = np.stack([(j0 - 1) * row + i0 - 1, j0 * row + i1,
                      (j0 - 1) * row + i0, j1 * row + i0], axis=1).ravel()
    step = np.tile([row, row, 1, 1], len(rects))
    length = np.stack([j1 - j0 + 1, j1 - j0 + 1, i1 - i0, i1 - i0], axis=1).ravel()
    offset = np.cumsum(length) - length
    nodes = number[np.repeat(first - step * offset, length)
                   + np.repeat(step, length) * np.arange(length.sum())]
    owner = np.repeat(np.arange(len(rects)), length.reshape(-1, 4).sum(axis=1))
    keep = nodes >= 0
    owner = owner[keep]
    count = np.bincount(owner, minlength=len(rects))
    base = np.repeat(np.arange(len(rects)) * len(number), count)
    ring = np.sort(owner * len(number) + nodes[keep]) - base  # by owner, then node
    return np.concatenate([[0], np.cumsum(count)]), ring


_MASS_ELEMENT = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
# the 7-point stencil of the p00-p11 diagonal: the steps (di, dj) from a node to the
# nodes it shares a triangle with, in ascending node index; _STENCIL[3] is (0, 0)
_STENCIL = np.array([[-1, -1], [0, -1], [-1, 0], [0, 0], [1, 0], [0, 1], [1, 1]])
_CHUNK = 1 << 16  # triangles per block of element matrices
# CSR pattern of P1 matrices over the unknowns of a node numbering: the entry of nodes
# p and p + offsets[k] is at slots[7 p + k], or at nnz when either is not an unknown
_Pattern = namedtuple("_Pattern", "indptr indices slots offsets")


def _pattern(mesh: Mesh, order) -> _Pattern:
    """The `_Pattern` of unknown i at node order[i]: their 7-point stencils, columns ascending."""
    Nx = mesh.nx + 1
    number = np.full((mesh.ny + 3, Nx + 2), -1, dtype=np.int32)  # -1 off the unknowns
    number[1:-1, 1:-1].flat[order] = np.arange(len(order))
    col = number.ravel()[(order // Nx * (Nx + 2) + order % Nx + Nx + 3)[:, None]
                         + _STENCIL @ [1, Nx + 2]]
    key = np.where(col >= 0, col, len(order))  # absent entries last in a row
    rank = np.sum(key[:, None, :] < key[:, :, None], axis=2, dtype=np.int32)
    indptr = np.concatenate([[0], np.cumsum(np.sum(col >= 0, axis=1))]).astype(np.int32)
    slot = np.where(col >= 0, indptr[:-1, None] + rank, indptr[-1])
    indices = np.empty(indptr[-1] + 1, dtype=np.int32)
    indices[slot] = col
    slots = np.full((mesh.n_nodes, len(_STENCIL)), indptr[-1], dtype=np.int32)
    slots[order] = slot
    return _Pattern(indptr, indices[:-1], slots.ravel(), _STENCIL @ [1, Nx])


def _sum(pattern: _Pattern, nodes, elements, dtype):
    """(data, reached): in each slot of `pattern`, the sum of the entries of the element
    matrices elements(s) of the triangles nodes[s], entry (a, b) at (nodes[a], nodes[b]),
    and whether one reaches it; np.add.at, unbuffered, sums each slot in triangle order."""
    data = np.zeros(len(pattern.indices) + 1, dtype=dtype)
    reached = np.zeros(len(data), dtype=bool)
    for a in range(0, len(nodes), _CHUNK):
        s, t = slice(a, a + _CHUNK), nodes[a:a + _CHUNK]
        k = np.searchsorted(pattern.offsets, t[:, None, :] - t[:, :, None])
        slots = pattern.slots.take(len(_STENCIL) * t[:, :, None] + k).ravel()
        np.add.at(data, slots, np.broadcast_to(elements(s), (len(t), 3, 3)).ravel())
        reached[slots] = True
    return data[:-1], reached[:-1]


def _csr(pattern: _Pattern, data, keep=None):
    """The matrix of `data` on `pattern`, with the entries `keep` marks (all)."""
    indptr, indices = pattern.indptr, pattern.indices
    if keep is not None:
        indptr = np.concatenate([[0], np.cumsum(keep)])[indptr]
        data, indices = data[keep], indices[keep]
    return sp.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1,) * 2)


def _full_node(mesh: Mesh, nodes, elements, dtype):
    """`_sum` over all nodes, with the entries that the triangles reach."""
    pattern = _pattern(mesh, np.arange(mesh.n_nodes))
    return _csr(pattern, *_sum(pattern, nodes, elements, dtype))


def _geometry(mesh: Mesh, tri):
    """(area, grads) of the triangles tri (t, 3) from their corners: areas (t, 1, 1), shaped
    for element matrices, and P1 gradients (t, 3, 2), (y1 - y2, x2 - x1) / det at corner 0."""
    x, y = mesh.node_x[tri], mesh.node_y[tri]
    det = ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
           - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))[:, None, None]
    nxt, prv = [1, 2, 0], [2, 0, 1]  # corners i + 1 and i + 2
    return det / 2.0, np.stack([y[:, nxt] - y[:, prv], x[:, prv] - x[:, nxt]], axis=2) / det


def _mass(mesh: Mesh):
    """(triangles, element matrices, dtype) of the exact P1 mass matrix."""
    return mesh.triangles, lambda s: _geometry(mesh, mesh.triangles[s])[0] * _MASS_ELEMENT, float


def assemble_mass(mesh: Mesh):
    """Exact P1 mass matrix over all nodes."""
    return _full_node(mesh, *_mass(mesh))


def resolves(h: float, eps: float) -> bool:
    """Whether the step h resolves a squeezed potential of tube width eps:
    h <= eps / 4, with 1e-12 slack for round-off in h."""
    return h <= eps / 4.0 + 1e-12


def _volume_potential(mesh: Mesh, W):
    """((triangles, element matrices, dtype), values) of `assemble_volume_potential`,
    with W's values (t, 3) at the edge midpoints of those triangles."""
    eps = getattr(W, "eps", None)
    if eps is not None and not resolves(mesh.h, eps):
        raise ResolutionError(f"squeezed potential with eps={eps} needs h <= eps/4, "
                              f"got h={mesh.h}")
    px, py = mesh.node_x[mesh.triangles], mesh.node_y[mesh.triangles]
    # midpoint opposite local vertex k lies between the other two vertices
    pairs = ((1, 2), (0, 2), (0, 1))
    tri = np.arange(len(mesh.triangles))
    if callable(W):
        if hasattr(W, "support_mask"):
            # corner boxes column by column: min(axis=1) over 3 is slow
            lo = np.stack([np.minimum(np.minimum(p[:, 0], p[:, 1]), p[:, 2])
                           for p in (px, py)], axis=1)
            hi = np.stack([np.maximum(np.maximum(p[:, 0], p[:, 1]), p[:, 2])
                           for p in (px, py)], axis=1)
            tri = np.flatnonzero(W.support_mask(lo, hi))
            px, py = px[tri], py[tri]
        wq = np.stack([W(0.5 * (px[:, a] + px[:, b]), 0.5 * (py[:, a] + py[:, b]))
                       for a, b in pairs], axis=1)
    else:
        wq = np.full((len(tri), 3), W, dtype=np.result_type(W, float))
    keep = np.flatnonzero(np.any(wq != 0, axis=1))  # NaN != 0 holds
    wq, triangles = wq[keep], mesh.triangles[tri[keep]]
    dtype = complex if np.iscomplexobj(wq) else float

    def elements(s):
        area = _geometry(mesh, triangles[s])[0]
        elems = np.zeros((len(area), 3, 3), dtype=dtype)
        for k, (a, b) in enumerate(pairs):  # the 2 x 2 block of a and b
            elems[:, [[a], [b]], [a, b]] += (area / 12.0) * wq[s, k, None, None]
        return elems

    return (triangles, elements, dtype), wq


def assemble_volume_potential(mesh: Mesh, W):
    """Matrix of int W u conj(v) by the 3-point edge-midpoint rule.

    W is a scalar or a vectorized callable W(x, y); squeezed potentials carry
    their eps as an attribute and must satisfy `resolves(h, eps)`.  A W
    with a `support_mask(lo, hi)` (a squeezed potential) is evaluated only
    at the edge midpoints of the triangles whose corner box it marks, since
    every midpoint lies in its triangle's corner box; any other callable at
    every edge midpoint.  Only the triangles with a nonzero quadrature value
    (NaN included) are scattered: for a squeezed potential, the triangles
    that meet its eps-tube.
    """
    return _full_node(mesh, *_volume_potential(mesh, W)[0])


def homogeneous_gauge(b: float):
    """Symmetric-gauge vector potential of the homogeneous field b: (b/2)(-y, x)."""

    def A(x, y):
        return -0.5 * b * np.asarray(y, dtype=float), 0.5 * b * np.asarray(x, dtype=float)

    A.b = b
    return A


def _stiffness(mesh: Mesh, A):
    """(triangles, element matrices, dtype) of `assemble_magnetic_stiffness`;
    the element matrices of a block of triangles are made when it is summed."""
    if A is not None:
        px, py = mesh.node_x[mesh.triangles], mesh.node_y[mesh.triangles]
        ax, ay = (np.asarray(a, dtype=float) for a in A(px.mean(axis=1), py.mean(axis=1)))
    magnetic = A is not None and (np.any(ax) or np.any(ay))

    def elements(s):
        area, grads = _geometry(mesh, mesh.triangles[s])
        K = area * np.einsum("tid,tjd->tij", grads, grads)
        if not magnetic:
            return K
        AG = ax[s, None] * grads[:, :, 0] + ay[s, None] * grads[:, :, 1]
        elems = K.astype(complex) + 1j * (area / 3.0) * (AG[:, None, :] - AG[:, :, None])
        elems[:, [0, 1, 2], [0, 1, 2]] += (area[:, 0] / 3.0) * (ax[s] ** 2 + ay[s] ** 2)[:, None]
        return elems

    return mesh.triangles, elements, complex if magnetic else float


def assemble_magnetic_stiffness(mesh: Mesh, A=None):
    """Kinetic form int (i grad u + A u) . conj(i grad v + A v) over all nodes.

    Each triangle's area and P1 gradients come from its corners (`_geometry`).
    A is evaluated at triangle barycenters; the |A|^2 u conj(v) coupling uses
    the 3-point vertex rule (lumped), the cross term uses the exact P1
    integrals.  The result is Hermitian by construction and real when A
    vanishes identically.
    """
    return _full_node(mesh, *_stiffness(mesh, A))


def _p1_basis_at_points(mesh: Mesh, pts):
    """Containing-triangle nodes and P1 basis values for each point (n, 2).

    The grid cell is looked up on the box, as in `_pattern`; of its two
    triangles the point takes the one on its side of the p00-p11 diagonal.
    The basis values come from the corners (`_geometry`): [i = 0] + grad
    phi_i . (p - x_0), bitwise the uniform grid's ones on a dyadic step.  A
    least value below -1e-12, or NaN, raises GeometryError naming the point
    and h: the point lies off the box, or off its cell on a moved mesh.
    """
    (x0, _), (y0, _) = mesh.box
    h, Nx = mesh.h, mesh.nx + 1
    # a NaN coordinate takes cell 0; its coordinates fail the containment test below
    ix = np.clip(np.nan_to_num((pts[:, 0] - x0) / h), 0, mesh.nx - 1).astype(np.int64)
    iy = np.clip(np.nan_to_num((pts[:, 1] - y0) / h), 0, mesh.ny - 1).astype(np.int64)
    p00 = iy * Nx + ix
    x, y = pts[:, 0] - mesh.node_x[p00], pts[:, 1] - mesh.node_y[p00]
    # the lower triangle [p00, p10, p11] lies right of the diagonal p00 -> p11, or on it
    dx, dy = (c[p00 + Nx + 1] - c[p00] for c in (mesh.node_x, mesh.node_y))
    nodes = p00[:, None] + (_CORNERS @ [1, Nx])[(dx * y > dy * x).astype(np.int64)]
    grads = _geometry(mesh, nodes)[1]
    basis = grads[:, :, 0] * x[:, None] + grads[:, :, 1] * y[:, None]
    basis[:, 0] += 1.0
    outside = ~(np.min(basis, axis=1) >= -1e-12)
    if np.any(outside):
        px, py = pts[np.argmax(outside)]
        raise GeometryError(f"point ({px}, {py}) lies outside its triangle of the mesh with h={h}")
    return nodes, basis


_GQ4, _GW4 = np.polynomial.legendre.leggauss(4)


def line_quadrature(box, h: float, k: int, seg):
    """(arc lengths, weights, points) of the line-term quadrature of segment
    k on the mesh of `box` and step h: composite 4-point Gauss-Legendre on
    arc-length intervals of size <= h.  Raises GeometryError when a point
    leaves the open box."""
    (x0, x1), (y0, y1) = box
    n_int = int(np.ceil(seg.length / h))
    edges = seg.length * np.arange(n_int + 1) / n_int
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    sq = (mid[:, None] + half[:, None] * _GQ4[None, :]).ravel()
    wq = (half[:, None] * _GW4[None, :]).ravel()
    pts = seg.point(sq)
    inside = (pts[:, 0] > x0) & (pts[:, 0] < x1) & (pts[:, 1] > y0) & (pts[:, 1] < y1)
    if not np.all(inside):
        raise GeometryError(f"segment {k}: curve quadrature points leave the open box {box}")
    return sq, wq, pts


def _delta_term(mesh: Mesh, net: Network, strengths):
    """(triangles, element matrices, dtype) of `assemble_delta_term`, one
    triangle per quadrature point, in the order of the points."""
    n = len(net.segments)
    for k, a_k in strengths.items():
        if a_k is not None and k not in range(n):
            raise ValueError(f"strength for segment {k!r} of a {n}-segment network")
    elems, nodes = [np.zeros((0, 3, 3))], [np.zeros((0, 3), np.int64)]
    for k, seg in enumerate(net.segments):
        a_k = strengths.get(k)
        if a_k is None:
            continue
        sq, wq, pts = line_quadrature(mesh.box, mesh.h, k, seg)
        if callable(a_k):
            aq = np.asarray(a_k(sq))
        else:
            aq = np.full(sq.shape, a_k, dtype=np.result_type(a_k, float))
        try:
            tri, basis = _p1_basis_at_points(mesh, pts)
        except GeometryError as err:
            raise GeometryError(f"segment {k}: {err}") from None
        elems.append((aq * wq)[:, None, None] * basis[:, :, None] * basis[:, None, :])
        nodes.append(tri)
    elems = np.concatenate(elems)
    return np.concatenate(nodes), lambda s: elems[s], elems.dtype


def assemble_delta_term(mesh: Mesh, net: Network, strengths):
    """Line-term matrix int_Sigma alpha u conj(v) dsigma on P1 traces.

    `strengths` maps segment index to its strength (scalar, callable of arc
    length, or StrengthFunction) and is read by `get`, so a list raises;
    segments without an entry, or with None, are skipped, and an entry for a
    segment that `net` lacks raises ValueError.  Each point of the
    quadrature, `line_quadrature`'s, adds the element matrix of its triangle,
    in the order of the points (`_p1_basis_at_points`: a point outside its
    triangle raises GeometryError naming the segment).
    """
    return _full_node(mesh, *_delta_term(mesh, net, strengths))


def interpolate(mesh: Mesh, u, points):
    """Values at `points` (n, 2) of the P1 function of `mesh` with the values
    `u` at the interior nodes, in the order of `mesh.interior`, and 0 on the
    boundary (`_p1_basis_at_points`: a point outside its triangle raises
    GeometryError)."""
    values = np.zeros(mesh.n_nodes, dtype=np.result_type(u, float))
    values[mesh.interior] = u
    nodes, basis = _p1_basis_at_points(mesh, np.asarray(points, dtype=float))
    return np.sum(values[nodes] * basis, axis=1)


def restrict(mesh: Mesh, A):
    """Submatrix over interior nodes (Dirichlet boundary eliminated), with
    unknown i at node mesh.interior[i], in canonical CSR form."""
    return A[mesh.interior][:, mesh.interior].tocsr().sorted_indices()


_HERMITICITY_BLOCK = 1 << 16  # entries of S in one row block of `hermiticity_residual`


def hermiticity_residual(S, *, scale=False):
    """max |S - S^H| entrywise, NaN when S has a NaN entry; with `scale` the
    pair (max |S - S^H|, max |S|).  Taken in blocks of rows of about
    _HERMITICITY_BLOCK entries against one transposed copy of S, so its
    temporaries are that copy and one block, whatever the size of S."""
    S = S.tocsr()
    if not S.has_canonical_format:  # the matrix that its duplicates sum to
        S = S.copy()
        S.sum_duplicates()
    T = S.T.tocsr()  # canonical; row i of S^H is the conjugate of row i of T
    # with a symmetric pattern, entry e of T is the transpose of entry e of S,
    # and the difference needs no sparse subtraction
    symmetric = np.array_equal(S.indptr, T.indptr) and np.array_equal(S.indices, T.indices)
    residual = top = np.float64(0.0)
    cuts = np.searchsorted(S.indptr, np.arange(_HERMITICITY_BLOCK, S.nnz, _HERMITICITY_BLOCK))
    for a, b in zip([0, *cuts], [*cuts, S.shape[0]]):
        block = S.data[S.indptr[a]:S.indptr[b]]
        if symmetric:
            difference = np.conjugate(T.data[S.indptr[a]:S.indptr[b]])
            np.subtract(block, difference, out=difference)
        else:
            difference = (S[a:b] - T[a:b].conj()).data
        # np.max and np.maximum carry a NaN through
        residual = np.maximum(residual, np.max(np.abs(difference), initial=0.0))
        top = np.maximum(top, np.max(np.abs(block), initial=0.0))
        del difference  # freed before the next block's is made
    return (float(residual), float(top)) if scale else float(residual)


@dataclass(frozen=True)
class AssembledForm:
    """Interior-node matrices of one operator: S (Hermitian for real Q and
    strengths; each factor of S - sigma M checks it), M SPD mass, the
    separator tree of their numbering (None for none), the rows where S
    may differ from its base form's S (None for unknown), the floor with
    S >= floor M (None for a form with a line term), and the sum of the
    entries of its squeezed term (None without one)."""

    S: sp.spmatrix
    M: sp.spmatrix
    tree: DissectionTree | None = field(default=None, repr=False, compare=False)
    tube: np.ndarray | None = field(default=None, repr=False, compare=False)
    floor: float | None = None
    potential_sum: float | complex | None = None

    @property
    def n(self):
        return self.S.shape[0]

    @functools.cached_property
    def meta(self):
        """{"hermiticity_residual": max|S - S^H|}, computed on the first read."""
        return {"hermiticity_residual": hermiticity_residual(self.S)}


@dataclass(frozen=True)
class BaseForm:
    """The interior-node pair S = K_A + Q, M = mass of one (mesh, A, Q),
    shared by every form on them; A is matched by identity.  S and M share
    `pattern`, the `_Pattern` of the unknowns, explicit zeros included.
    floor is the least of 0 and Q's values at the edge midpoints, where its
    matrix takes them: that matrix is at least floor M, and K_A >= 0, so
    S >= floor M."""

    mesh: Mesh
    A: object
    Q: object
    S: sp.csr_matrix
    M: sp.csr_matrix
    floor: float
    pattern: _Pattern = field(repr=False, compare=False)

    def matches(self, mesh: Mesh, A=None, Q=None) -> bool:
        return self.mesh is mesh and self.A is A and self.Q == Q


def assemble_base(mesh: Mesh, A=None, Q=None) -> BaseForm:
    """Sum the kinetic part, the background potential Q (scalar or callable,
    None for none) and the mass matrix of `mesh` into the pattern of its
    unknowns (`_sum`), K_A and Q each on its own, then added."""
    pattern = _pattern(mesh, mesh.interior)
    S, floor = _sum(pattern, *_stiffness(mesh, A))[0], 0.0
    if Q is not None:
        term, values = _volume_potential(mesh, Q)
        S = S + _sum(pattern, *term)[0]
        floor = float(np.min(np.real(values), initial=0.0))
    M = _sum(pattern, *_mass(mesh))[0]
    return BaseForm(mesh, A, Q, _csr(pattern, S), _csr(pattern, M), floor, pattern)


def build_form(mesh: Mesh, *, A=None, Q=None, net: Network = None, strengths=None,
               potential=None, base: BaseForm | None = None) -> AssembledForm:
    """Assemble the full operator of one experiment over the unknowns.

    Combines the magnetic kinetic part, an optional background potential Q,
    an optional squeezed potential (callable carrying eps), and an optional
    concentrated line term given by per-segment strengths on `net` (a dict,
    or a list or tuple indexed by segment).  The kinetic part, Q and the mass
    matrix come from `base`, the `BaseForm` of (mesh, A, Q) (ValueError for
    another one), or from `assemble_base`.  The form sums each of its terms
    into base.pattern, adds them to base.S's values, keeps the nonzero
    entries and shares base.M; without a term, S is base.S.  Its `tube`
    marks the interior nodes of the terms' triangles: elsewhere S has
    base.S's nonzero values, bitwise.

    Its `floor` is base.floor plus w, the least of 0 and the real parts of
    the potential's edge-midpoint values, so S >= floor M exactly: the
    potential's element matrix less w times the mass one is the sum over
    the triangle's edges of (area / 12) (w_k - w) [[1, 1], [1, 1]] on the
    edge's two corners, and a triangle without the potential adds -w times
    its mass matrix, with w <= 0.  A line term has no such bound, and its
    form's floor is None.  Its `potential_sum` is the sum of the entries of
    the summed potential: int W e^2 by the edge-midpoint rule, e the sum of
    the unknowns' hat functions, 1 off the boundary's cells.
    """
    if strengths is not None and net is None:
        raise ValueError("delta strengths need a network")
    if isinstance(strengths, (list, tuple)):
        strengths = dict(enumerate(strengths))
    if base is None:
        base = assemble_base(mesh, A, Q)
    elif not base.matches(mesh, A, Q):
        raise ValueError("base form of another mesh, vector potential or background")
    terms = [] if potential is None else [_volume_potential(mesh, potential)]
    if strengths is not None:
        terms.append((_delta_term(mesh, net, strengths), None))
    data, tube = base.S.data, np.zeros(base.S.shape[0], dtype=bool)
    floor, total = base.floor, None
    for term, values in terms:
        term, reached = _sum(base.pattern, *term)
        data = data + term
        tube |= reached[base.pattern.slots[len(_STENCIL) * mesh.interior + 3]]
        if values is not None:  # the squeezed potential's
            total = np.sum(term).item()
            floor += float(np.min(np.real(values), initial=0.0))
    S = _csr(base.pattern, data, data != 0) if terms else base.S
    return AssembledForm(S=S, M=base.M, tree=mesh.tree, tube=tube, potential_sum=total,
                         floor=None if strengths is not None else floor)
