"""Multifrontal LDL^H factors of Hermitian mesh pencils on their
nested-dissection tree.

The fronts of a `fem.DissectionTree` (Liu, The multifrontal method for
sparse matrix solution, SIAM Review 34 (1992) 82-109; George, Nested
dissection of a regular finite element mesh, SIAM J. Numer. Anal. 10 (1973)
345-363) are dense: front s holds the pivots of supernode s and its ring.
They are factored depth by depth from the leaves to the root.  The fronts
of one depth with one pivot count are a group, stacked with their rings
padded to one length (padded slots are zero), so a depth is a few batched
numpy calls per group, taken in chunks that keep temporaries small.  A
front F = [F11 F12; F21 F22] gathers the lower triangle of its matrix
entries and of its children's updates (extend-add), eliminates its pivots
and passes the lower triangle of its update F22 - F21 F11^-1 F12 to its
parent.  Nothing reads an upper triangle, so a non-Hermitian matrix is
factored as the Hermitian one of its lower triangle: callers check
Hermiticity first.

Each front keeps K = [K1; -F21 F11^-1] with F11^-1 = K1^H D K1: K1 = L11^-1
for a Cholesky factor F11 = L11 L11^H and D = I; when a group's Cholesky
fails, its pivot blocks are diagonalised, F11 = Q diag(w) Q^H, with
K1 = |w|^-1/2 Q^H and D = sign(w).  A solve is one matmul per group and
sweep.  By Haynsworth's inertia additivity (Haynsworth, Determination of
the inertia of a partitioned Hermitian matrix, Linear Algebra Appl. 1
(1968) 73-81) the number of negative eigenvalues of the matrix is the
number of negative w over all pivot blocks: exact, and 0 when every front
passes Cholesky.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

__all__ = ["TreeFactor"]

_SMALL_PIVOTS = 32  # pivot blocks up to this size are inverted by batched substitution
_CHUNK = 1 << 16  # entries of the temporaries of one batched step


@dataclass(frozen=True)
class _Group:
    """The fronts of one depth with p pivots each, rings padded to R slots,
    stored one after another from `offset` in their depth's buffer, each as
    a (p + R + 1)^2 block whose last row and column are spare."""

    p: int
    R: int
    offset: int
    pivots: np.ndarray  # (nb, p) the pivots of every front
    ring: np.ndarray  # (nb, R) the ring of every front, n for a padded slot
    parent: np.ndarray  # (nb,) buffer offset of the parent's front in the depth above
    side: np.ndarray  # (nb,) row length of the parent's front
    pos: np.ndarray  # (nb, R) slot of every ring slot in the parent's front


@dataclass(eq=False)
class _Plan:
    """Symbolic analysis of a tree: its groups by depth, deepest first, with
    each depth's buffer size, and the map of the last matrix pattern onto
    the fronts (replaced whole, so threads may share it)."""

    n: int
    depths: list  # [(buffer size, [_Group])]
    front: tuple  # (buffer offset of the front, its row length, its p) per supernode
    depth: np.ndarray  # depth of every supernode
    pattern: tuple | None = None  # (indptr, indices, [(buffer slot, index into data)])


def _plan(tree) -> _Plan:
    """The symbolic analysis of `tree`, made once and kept in its cache."""
    plan = tree.cache.get("frontal")
    if plan is None:
        plan = tree.cache["frontal"] = _analyse(tree)
    return plan


def _analyse(tree) -> _Plan:
    n, parent, starts, ring_ptr = tree.n, tree.parent, tree.starts, tree.ring_ptr
    ns = len(parent)
    p, r = np.diff(starts), np.diff(ring_ptr)
    height = np.zeros(ns, dtype=np.int64)  # distance from the root
    above = parent.copy()
    while np.any(live := above >= 0):
        height[live] += 1
        above[live] = parent[above[live]]
    depth = height.max() - height  # deepest first
    ring_key = _ring_key(tree)
    # groups: by depth, then pivot count
    order = np.lexsort((p, depth))
    cut = np.flatnonzero(np.diff(depth[order]) | np.diff(p[order])) + 1
    groups = np.split(order, cut)
    R = np.array([r[g].max() for g in groups])
    side = np.array([p[g[0]] for g in groups]) + R + 1
    # buffer offset and row length of every front
    start = np.zeros(ns, dtype=np.int64)
    width = np.zeros(ns, dtype=np.int64)
    sizes = np.zeros(depth.max() + 1, dtype=np.int64)
    for g, nodes in enumerate(groups):
        d = depth[nodes[0]]
        start[nodes] = sizes[d] + side[g] ** 2 * np.arange(len(nodes))
        width[nodes] = side[g]
        sizes[d] += side[g] ** 2 * len(nodes)
    depths = [(int(size), []) for size in sizes]
    for g, nodes in enumerate(groups):
        P, Rg = int(p[nodes[0]]), int(R[g])
        pivots = starts[nodes, None] + np.arange(P)
        slot = np.arange(Rg)
        off = slot >= r[nodes, None]
        ring = np.where(off, n, tree.ring[np.minimum(ring_ptr[nodes, None] + slot,
                                                     len(tree.ring) - 1)])
        q = parent[nodes]  # -1 at the root, which has no ring
        pos = ring - starts[q, None]  # a pivot of the parent
        outside = ~off & (ring >= starts[q + 1, None])
        qo = np.broadcast_to(q[:, None], ring.shape)[outside]
        pos[outside] = p[qo] + np.searchsorted(ring_key, qo * n + ring[outside]) - ring_ptr[qo]
        pos[off] = np.broadcast_to(width[q, None] - 1, pos.shape)[off]  # the spare slot
        depths[depth[nodes[0]]][1].append(_Group(
            P, Rg, int(start[nodes[0]]), pivots, ring, start[q], width[q], pos))
    return _Plan(n, depths, (start, width, p), depth)


def _ring_key(tree):
    """supernode * n + ring node over every ring, ascending."""
    return np.repeat(np.arange(len(tree.parent)), np.diff(tree.ring_ptr)) * tree.n + tree.ring


def _entries(plan: _Plan, tree, A):
    """(buffer slot, index into A.data) per depth of the lower triangle of
    the canonical CSR matrix A.  Mesh pencils share a pattern, so the map of
    the last pattern is kept."""
    last = plan.pattern
    if (last is not None and np.array_equal(last[0], A.indptr)
            and np.array_equal(last[1], A.indices)):
        return last[2]
    n = plan.n
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    at = np.flatnonzero(rows >= A.indices)
    i, j = rows[at], A.indices[at]
    s = np.repeat(np.arange(len(tree.parent)), np.diff(tree.starts))[j]  # supernode of j
    start, side, p = (x[s] for x in plan.front)
    row = i - tree.starts[s]
    outside = i >= tree.starts[s + 1]
    so = s[outside]
    row[outside] = p[outside] + np.searchsorted(_ring_key(tree), so * n + i[outside]) \
        - tree.ring_ptr[so]
    slot = start + row * side + (j - tree.starts[s])
    d = plan.depth[s].astype(np.int16)  # a stable sort of small integers is a radix sort
    order = np.argsort(d, kind="stable")
    cuts = np.cumsum(np.bincount(d, minlength=len(plan.depths)))[:-1]
    entry_map = list(zip(np.split(slot[order].astype(np.int32), cuts),
                         np.split(at[order].astype(np.int32), cuts)))
    plan.pattern = (A.indptr.copy(), A.indices.copy(), entry_map)
    return entry_map


def _chunks(n, size):
    """Slices of range(n) of about _CHUNK / size items each, so that the
    temporaries of a batched operation on items of `size` entries stay small."""
    step = max(1, _CHUNK // max(size, 1))
    return [slice(c, c + step) for c in range(0, n, step)]


def _H(X):
    """Conjugate transpose of a stack of matrices."""
    X = X.swapaxes(-1, -2)
    return X.conj() if np.iscomplexobj(X) else X


def _inverse_lower(L):
    """Inverses of a stack of lower triangular matrices: by substitution, one
    batched row at a time, for small ones; else by LAPACK, one at a time."""
    p = L.shape[-1]
    if p > _SMALL_PIVOTS:
        trtri = lapack.ztrtri if np.iscomplexobj(L) else lapack.dtrtri
        for b in range(len(L)):
            L[b] = trtri(L[b], lower=1)[0]
        return L
    X = np.zeros_like(L)
    for i in range(p):
        X[:, i, i] = 1.0
        X[:, i, :i] -= np.sum(L[:, i, :i, None] * X[:, :i, :i], axis=1)
        X[:, i, :i + 1] /= L[:, i, i, None]
    return X


def _pivot_blocks(F11):
    """(K1, D, negatives) of a stack of pivot blocks: K1 = L11^-1 and D None
    when every block passes Cholesky, else the scaled eigenvectors K1 with
    F11^-1 = K1^H diag(D) K1.  RuntimeError for a singular block."""
    try:
        return _inverse_lower(np.linalg.cholesky(F11)), None, 0
    except np.linalg.LinAlgError:
        pass
    w, Q = np.linalg.eigh(F11)
    scale = np.abs(w)
    if np.any(scale <= F11.shape[-1] * np.finfo(float).eps * scale.max(axis=-1, keepdims=True)):
        raise RuntimeError("a pivot block is singular to working precision")
    return _H(Q) / np.sqrt(scale)[..., None], np.sign(w), int(np.count_nonzero(w < 0))


class TreeFactor:
    """LDL^H factor of a Hermitian matrix A, given in canonical CSR form in
    the numbering of the `fem.DissectionTree` `tree`, by the multifrontal
    method.

    `negatives` is the number of negative eigenvalues of A; `nnz` the number
    of stored factor entries.  Only the lower triangle of A is read.
    RuntimeError when a pivot block is singular to working precision.
    """

    def __init__(self, A, tree):
        plan = self._plan = _plan(tree)
        if A.shape != (plan.n, plan.n):
            raise ValueError(f"matrix of shape {A.shape} on a tree of {plan.n} unknowns")
        dtype = np.result_type(A.dtype, float)
        self._K, self._D, self.negatives = [], [], 0
        # two buffers in turn: a depth's fronts, and its children's updates
        buffers = [np.empty(max(size for size, _ in plan.depths), dtype) for _ in range(2)]
        below = []  # (group, fronts) of the depth below
        entries = _entries(plan, tree, A)
        for d, ((size, groups), (slot, at)) in enumerate(zip(plan.depths, entries)):
            buffer = buffers[d % 2][:size]
            buffer[:] = 0.0
            buffer[slot] = A.data[at]
            for g, F in below:  # extend-add of the lower triangles of the updates
                i, j = np.tril_indices(g.R)
                tri = (g.p + i) * (g.p + g.R + 1) + g.p + j  # their offsets in a front
                for c in _chunks(len(F), len(i)):
                    pos = g.pos[c]
                    row = g.parent[c, None] + pos * g.side[c, None]  # buffer offsets of rows
                    target = np.take(row, i, axis=1) + np.take(pos, j, axis=1)
                    np.add.at(buffer, target.ravel(),
                              np.take(F[c].reshape(-1, F[0].size), tri, axis=1).ravel())
            below = []
            for g in groups:
                p, f = g.p, g.p + g.R
                F = buffer[g.offset:g.offset + len(g.pivots) * (f + 1) ** 2]
                F = F.reshape(-1, f + 1, f + 1)
                K1, D, negatives = _pivot_blocks(F[:, :p, :p])
                self.negatives += negatives
                L21 = F[:, p:f, :p] @ _H(K1)
                L21D = L21 if D is None else L21 * D[:, None, :]
                K = np.empty((len(F), f, p), dtype)
                K[:, :p] = K1
                np.matmul(L21D, -K1, out=K[:, p:])
                self._K.append(K)
                self._D.append(D)
                for c in _chunks(len(F), g.R ** 2):  # the update F22 - F21 F11^-1 F12
                    F[c, p:f, p:f] -= L21D[c] @ _H(L21[c])
                below.append((g, F))
        self.nnz = sum(K.size for K in self._K)

    def solve(self, b):
        """x with A x = b, for one right-hand side b, in one work vector: the
        forward sweep leaves D y on the pivots, the backward sweep x."""
        n = self._plan.n
        groups = [g for _, depth in self._plan.depths for g in depth]
        v = np.zeros(n + 1, np.result_type(b.dtype, self._K[0].dtype))
        v[:n] = b
        for g, K, D in zip(groups, self._K, self._D):
            Y = (K @ v[g.pivots][..., None])[..., 0]
            v[g.pivots] = Y[:, :g.p] if D is None else Y[:, :g.p] * D
            np.add.at(v, g.ring.ravel(), Y[:, g.p:].ravel())  # padding adds 0 to v[n]
        for g, K in zip(reversed(groups), reversed(self._K)):
            Z = np.empty((len(K), g.p + g.R, 1), v.dtype)
            Z[:, :g.p, 0], Z[:, g.p:, 0] = v[g.pivots], v[g.ring]
            v[g.pivots] = (_H(K) @ Z)[..., 0]
        return v[:n]
