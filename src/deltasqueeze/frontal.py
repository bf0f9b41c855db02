"""Multifrontal LDL^H factors of Hermitian mesh pencils on their
nested-dissection tree.

The fronts of a `fem.DissectionTree` (Liu, The multifrontal method for
sparse matrix solution, SIAM Review 34 (1992) 82-109; George, Nested
dissection of a regular finite element mesh, SIAM J. Numer. Anal. 10 (1973)
345-363) are dense: front s holds the pivots of supernode s and its ring.
They are factored depth by depth from the leaves to the root.  The fronts
of one depth with one pivot count are a group, stacked with their rings
padded to one length (padded slots are zero), so a depth is a few batched
numpy calls per chunk of a group, whose temporaries are bounded.  A
front F = [F11 F12; F21 F22] gathers the lower triangle of its matrix
entries and of its children's updates (extend-add), eliminates its pivots
and passes the lower triangle of its update F22 - F21 F11^-1 F12 to its
parent.  Nothing reads an upper triangle, so a non-Hermitian matrix is
factored as the Hermitian one of its lower triangle: callers check
Hermiticity first.

A factor reads its matrix once, before it eliminates any front: it gathers
the lower triangle in the order the fronts take it, and keeps no reference
to the matrix.  It assembles and eliminates the fronts of a group in
chunks of consecutive fronts, at most _FRONTS entries together (one front
when it alone has more), in one buffer of that size.  Once a chunk is
eliminated, the lower triangles of its updates are copied into a packed
array of its group, one row per front, and the chunks of the depth above
are assembled from these arrays: the stack of update matrices of the
multifrontal method (Liu, The multifrontal method and paging in sparse
Cholesky factorization, ACM TOMS 12 (1986) 249-264), two depths deep, the
one assembled from and the one made.  A chunk takes its matrix entries
from a run of the gathered ones, which are kept by depth and, within a
depth, by slot; and the updates of its children from a run of rows, since
a group packs its rows by their parent's offset.  That order is stable, so
every slot of a front adds its matrix entry and its children's updates in
one order whatever the chunks: chunk boundaries change no bit of a factor.
So a factor's working set is its stored entries, one chunk, the packed
updates of two adjacent depths and the gathered entries.  For the
converge-line delta factor (n = 146,689) these are 7.50 M, 0.52 M, at most
2.46 M and 0.59 M entries; the CSR matrix it reads takes 12.9 MB, and the
Hermiticity check before it a transposed copy of that and one block of rows
(`fem.hermiticity_residual`).

Each front keeps K = [K1; -F21 F11^-1] with F11^-1 = K1^H D K1: K1 = L11^-1
for a Cholesky factor F11 = L11 L11^H and D = I; when Cholesky fails on a
chunk, its pivot blocks are diagonalised, F11 = Q diag(w) Q^H, with
K1 = |w|^-1/2 Q^H and D = sign(w), and D = 1 on the rest of the group.  A
solve is one matmul per group and sweep.  By Haynsworth's inertia
additivity (Haynsworth, Determination of the inertia of a partitioned
Hermitian matrix, Linear Algebra Appl. 1 (1968) 73-81) the number of
negative eigenvalues of the matrix is the number of negative w over all
pivot blocks: exact, and 0 when every front passes Cholesky.

A front's factor and update depend only on the matrix entries of its
subtree (Liu, above), so pencils that agree outside a tube share every
front whose subtree holds no tube unknown.  A factor made with a tube keeps
what they share: it groups the other fronts apart from the tube fronts (the
fronts of the tube unknowns and their ancestors), keeps the values of its
matrix in them and the updates they pass into the tube.  A later factor at
the same shift on the same tree checks its matrix against those values,
bitwise, and then factors the tube fronts only, taking the rest by
reference.  On the converge-line pencils (h = 1/64, n = 146,689) the tube
of the widest squeezed potential and the line holds 13,621 unknowns and
3,451 of the 32,767 fronts, ancestors included.  An eps factor stores a
third of the entries, and the six factors of a sweep take 0.43 of the time
of six full ones (2-core machine, one BLAS thread).  Two such factors solve
their difference with one sweep each way over the shared fronts
(`TreeFactor.solve_difference`), in 0.53 of the time of two solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

__all__ = ["TreeFactor"]

_SMALL_PIVOTS = 32  # pivot blocks up to this size are inverted by batched substitution
_CHUNK = 1 << 16  # entries of the temporaries of one batched step
_FRONTS = 1 << 19  # entries of a chunk of fronts, or of its one front if more


@dataclass(frozen=True)
class _Group:
    """The fronts of one depth with p pivots each, rings padded to R slots,
    stored one after another from `offset` in their depth's layout, each as
    a (p + R + 1)^2 block whose last row and column are spare.  A shared
    group lies outside the tube (`_Plan`).  The packed updates of its fronts
    are stored by parent offset, stably (`order`), so the children of a run
    of fronts in the depth above are a run of rows."""

    p: int
    R: int
    offset: int
    pivots: np.ndarray  # (nb, p) the pivots of every front
    ring: np.ndarray  # (nb, R) the ring of every front, n for a padded slot
    parent: np.ndarray  # (nb,) layout offset of the parent's front in the depth above
    side: np.ndarray  # (nb,) row length of the parent's front
    pos: np.ndarray  # (nb, R) slot of every ring slot in the parent's front
    shared: bool
    order: np.ndarray  # (nb,) the fronts by parent offset, stably: the rows of the updates
    rank: np.ndarray | None  # (nb,) the row of every front; None when it is the front itself
    boundary: np.ndarray  # the rows of a shared group's fronts whose parent is a tube front


@dataclass(eq=False)
class _Plan:
    """Symbolic analysis of a tree: its groups by depth, deepest first, with
    each depth's buffer size and the size of its tube groups, which come
    first, and the map of the last matrix pattern onto the fronts (replaced
    whole, so threads may share it).

    The tube fronts are those that hold an unknown of the tube or lie above
    one that does; every front when there is no tube.  Every other front is
    shared: its subtree holds no tube unknown, so its factor is the same for
    every matrix that agrees with another outside the tube."""

    n: int
    depths: list  # [(buffer size, size of the tube groups, [_Group])]
    front: tuple  # (buffer offset of the front, its row length, its p) per supernode
    depth: np.ndarray  # depth of every supernode
    tube: np.ndarray  # whether each supernode is a tube front
    pattern: tuple | None = None  # (indptr, indices, slot, at, edge): `_entries`

    def __post_init__(self):
        self.groups = [g for _, _, depth in self.depths for g in depth]
        # the pivots of the tube fronts
        self.nodes = np.concatenate([np.empty(0, np.int64)] + [
            g.pivots.ravel() for g in self.groups if not g.shared])


def _plan(tree, tube=None) -> _Plan:
    """The symbolic analysis of `tree`, with the tube fronts of the unknowns
    marked by the boolean mask `tube` (every front without one), kept in the
    tree's cache: the last one only, since each holds the map of a pattern.
    Without a tube the cached plan serves whatever its tube: a factor made
    without `share` factors its tube and shared fronts alike."""
    plan = tree.cache.get("frontal")
    if tube is None and plan is not None:
        return plan
    marked = np.ones(len(tree.parent), dtype=bool)
    if tube is not None:
        if tube.shape != (tree.n,):
            raise ValueError(f"tube mask of shape {tube.shape} on a tree of {tree.n} unknowns")
        marked[:] = False
        s = np.unique(np.searchsorted(tree.starts, np.flatnonzero(tube), side="right") - 1)
        while len(s):  # the supernodes of the tube unknowns and their ancestors
            marked[s] = True
            s = np.unique(tree.parent[s])
            s = s[(s >= 0) & ~marked[np.maximum(s, 0)]]
    if plan is None or not np.array_equal(plan.tube, marked):
        tree.cache.pop("frontal", None)
        del plan  # freed before the next one is made
        plan = tree.cache["frontal"] = _analyse(tree, marked)
    return plan


def _analyse(tree, tube) -> _Plan:
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
    # groups: by depth, then tube fronts first, then pivot count
    shared = (~tube).astype(np.int64)
    order = np.lexsort((p, shared, depth))
    cut = np.flatnonzero(np.diff(depth[order]) | np.diff(shared[order]) | np.diff(p[order])) + 1
    groups = np.split(order, cut)
    R = np.array([r[g].max() for g in groups])
    side = np.array([p[g[0]] for g in groups]) + R + 1
    # buffer offset and row length of every front
    start = np.zeros(ns, dtype=np.int64)
    width = np.zeros(ns, dtype=np.int64)
    sizes = np.zeros((depth.max() + 1, 2), dtype=np.int64)  # all groups, tube groups
    for g, nodes in enumerate(groups):
        d = depth[nodes[0]]
        start[nodes] = sizes[d, 0] + side[g] ** 2 * np.arange(len(nodes))
        width[nodes] = side[g]
        sizes[d] += side[g] ** 2 * len(nodes) * np.array([1, tube[nodes[0]]])
    depths = [(int(size), int(inner), []) for size, inner in sizes]
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
        is_shared = bool(shared[nodes[0]])
        by_parent = np.argsort(start[q], kind="stable")
        rank = None
        if np.any(np.diff(start[q]) < 0):
            rank = np.empty_like(by_parent)
            rank[by_parent] = np.arange(len(by_parent))
        boundary = (np.flatnonzero(((q >= 0) & tube[q])[by_parent]) if is_shared
                    else np.empty(0, np.int64))
        depths[depth[nodes[0]]][2].append(_Group(
            P, Rg, int(start[nodes[0]]), pivots, ring, start[q], width[q], pos, is_shared,
            by_parent, rank, boundary))
    return _Plan(n, depths, (start, width, p), depth, tube)


def _ring_key(tree):
    """supernode * n + ring node over every ring, ascending."""
    return np.repeat(np.arange(len(tree.parent)), np.diff(tree.ring_ptr)) * tree.n + tree.ring


def _entries(plan: _Plan, tree, A):
    """(indptr, indices, slot, at, edge) of the lower triangle of the
    canonical CSR matrix A: entry e goes to layout slot slot[e] from
    A.data[at[e]], depth by depth and by slot within a depth, and the
    entries of depth d in its tube fronts are edge[2d]:edge[2d + 1], in its
    shared fronts edge[2d + 1]:edge[2d + 2].  Mesh pencils share a pattern,
    so the map of the last pattern is kept."""
    last = plan.pattern
    if (last is not None and np.array_equal(last[0], A.indptr)
            and np.array_equal(last[1], A.indices)):
        return last
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
    # by depth, then slot; a depth's tube fronts lie before its shared ones,
    # so this is also by depth, then tube
    depth = plan.depth[s]
    first = np.concatenate([[0], np.cumsum([size for size, _, _ in plan.depths])])
    order = np.argsort(first[depth] + slot)
    key = 2 * depth + ~plan.tube[s]
    edge = np.concatenate([[0], np.cumsum(np.bincount(key, minlength=2 * len(plan.depths)))])
    plan.pattern = (A.indptr.copy(), A.indices.copy(), slot[order].astype(np.int32),
                    at[order].astype(np.int32), edge.tolist())
    return plan.pattern


def _shared(values, edge):
    """The entries of `values`, in the order of a pattern with `edge`
    (`_entries`), that fall in shared fronts."""
    return np.concatenate([values[a:b] for a, b in zip(edge[1::2], edge[2::2])])


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


def _extend_add(buffer, lo, g, fronts, rows, tril):
    """Adds to `buffer`, which holds the fronts of the depth above g from
    layout offset `lo` on, the lower triangles of the updates of g's fronts
    `fronts` (an index array), one row of `rows` per front, with `tril` the
    np.tril_indices(g.R) of their order."""
    i, j = tril
    pos, parent, side = g.pos[fronts], g.parent[fronts] - lo, g.side[fronts]
    for c in _chunks(len(pos), len(i)):
        row = parent[c, None] + pos[c] * side[c, None]  # buffer offsets of rows
        target = np.take(row, i, axis=1) + np.take(pos[c], j, axis=1)
        np.add.at(buffer, target.ravel(), rows[c].ravel())


def _forward(v, fronts):
    """Forward sweep over [(group, K, D)] in order: D y on their pivots."""
    for g, K, D in fronts:
        Y = (K @ v[g.pivots][..., None])[..., 0]
        v[g.pivots] = Y[:, :g.p] if D is None else Y[:, :g.p] * D
        np.add.at(v, g.ring.ravel(), Y[:, g.p:].ravel())  # padding adds 0 to v[n]


def _backward(v, fronts, *, rings_only=False):
    """Backward sweep over [(group, K, D)] in reverse order: x on their
    pivots.  `rings_only` when v holds 0 on every pivot of `fronts`."""
    for g, K, _ in reversed(fronts):
        if rings_only:
            K, Z = K[:, g.p:], v[g.ring][..., None]
        else:
            Z = np.empty((len(K), g.p + g.R, 1), v.dtype)
            Z[:, :g.p, 0], Z[:, g.p:, 0] = v[g.pivots], v[g.ring]
        v[g.pivots] = (K.swapaxes(1, 2) @ Z.conj()).conj()[..., 0]  # K^H Z, K not copied


class TreeFactor:
    """LDL^H factor of a Hermitian matrix A, given in canonical CSR form in
    the numbering of the `fem.DissectionTree` `tree`, by the multifrontal
    method, in chunks of fronts in one buffer of a fixed size, with the
    updates of two depths packed (see the module docstring).  A may also
    be a function that returns the matrix: the factor calls it, reads the
    matrix once and drops it before the first front is eliminated, so a
    matrix made for the factor alone is not alive while the fronts are.

    `share` is None, a boolean mask of the unknowns of a tube, or a factor
    made with one.  Given a tube, the factor keeps what later factors of
    matrices that agree with A outside it reuse: the values of A in the
    shared fronts (`_Plan`) and the updates they pass into tube fronts.
    Given such a factor F on this tree, the factor compares the lower
    triangle of A in every shared front with F's, bitwise, and when A has
    F's pattern, dtype and these values it factors only the tube fronts: it
    takes the K and D of every shared front, and the updates they pass into
    the tube, from F, without a copy (the factor of a front depends only on
    the entries of its subtree: Liu, SIAM Review 34 (1992) 82-109).
    Otherwise it factors A in full, as without `share`.

    `negatives` is the number of negative eigenvalues of A; `nnz` the number
    of factor entries the factor stores itself.  Only the lower triangle of
    A is read.  RuntimeError when a pivot block is singular to working
    precision.
    """

    def __init__(self, A, tree, *, share=None):
        if callable(A):
            A = A()  # held here only, and dropped once read
        n = tree.n
        if A.shape != (n, n):
            raise ValueError(f"matrix of shape {A.shape} on a tree of {n} unknowns")
        dtype = np.result_type(A.dtype, float)
        # the lower triangle of A in the order of a pattern (`_entries`):
        # A is read once, here, and then dropped
        values = gathered = None
        if (isinstance(share, TreeFactor) and tree is share._tree and dtype == share._dtype
                and np.array_equal(share._pattern[0], A.indptr)
                and np.array_equal(share._pattern[1], A.indices)):
            gathered = share._pattern
            values = A.data[gathered[3]].astype(dtype, copy=False)
        reuse = values is not None and np.array_equal(
            _shared(values, gathered[4]).view(np.uint8), share._shared_values.view(np.uint8))
        if reuse:
            plan, pattern = share._plan, share._pattern
            self._exterior = share._exterior  # the identity of the shared fronts
        else:
            tube = None if share is None or isinstance(share, TreeFactor) else share
            plan = _plan(tree, None if tube is None else np.asarray(tube, dtype=bool))
            pattern = _entries(plan, tree, A)
            if pattern is not gathered:
                values = A.data[pattern[3]].astype(dtype, copy=False)
            self._exterior = object()
        del A
        self._plan, self._pattern, self._tree, self._dtype = plan, pattern, tree, dtype
        groups = plan.groups
        K, D = [None] * len(groups), [None] * len(groups)
        self.negatives = shared_negatives = 0
        updates = [None] * len(groups)  # of the shared fronts into the tube
        if reuse:
            for i, g in enumerate(groups):
                if g.shared:
                    K[i], D[i], updates[i] = share._K[i], share._D[i], share._updates[i]
            self.negatives = shared_negatives = share._shared_negatives
        _, _, slot, _, edge = pattern
        # one buffer holds a chunk of fronts of one group at a time; the lower
        # triangles of their updates are packed, one row per front, for the
        # depth above
        sizes = [(g.p + g.R + 1) ** 2 for g in groups if not (reuse and g.shared)]
        buffer = np.empty(min(max([_FRONTS, *sizes]), max(
            d[1] if reuse else d[0] for d in plan.depths)), dtype)
        below = []  # (group, fronts, their parents' offsets, rows, tril) of the depth below
        first = 0  # index in `groups` of the depth's first group
        for d, (_, _, depth) in enumerate(plan.depths):
            a = edge[2 * d]
            by_slot = slot[a:edge[2 * d + 2]]
            above = []
            for i, g in enumerate(depth, first):
                if reuse and g.shared:
                    if len(g.boundary):
                        fronts = g.order[g.boundary]
                        above.append((g, fronts, g.parent[fronts], updates[i],
                                      np.tril_indices(g.R)))
                    continue
                tril = np.tril_indices(g.R)
                p, f, nb = g.p, g.p + g.R, len(g.pivots)
                tri = (p + tril[0]) * (f + 1) + p + tril[1]
                K[i] = np.empty((nb, f, p), dtype)
                packed = np.empty((nb, len(tri)), dtype)  # by parent offset
                step = max(1, _FRONTS // (f + 1) ** 2)  # fronts of a chunk
                for k in range(0, nb, step):
                    m = min(step, nb - k)
                    lo, hi = g.offset + k * (f + 1) ** 2, g.offset + (k + m) * (f + 1) ** 2
                    F = buffer[:hi - lo]
                    F[:] = 0.0
                    e = a + np.searchsorted(by_slot, (lo, hi))
                    F[slot[e[0]:e[1]] - lo] = values[e[0]:e[1]]
                    for h, children, parents, rows, t in below:  # extend-add
                        c = np.searchsorted(parents, (lo, hi))
                        if c[0] < c[1]:
                            _extend_add(F, lo, h, children[c[0]:c[1]], rows[c[0]:c[1]], t)
                    F = F.reshape(m, f + 1, f + 1)
                    K1, Dk, negatives = _pivot_blocks(F[:, :p, :p])
                    self.negatives += negatives
                    if g.shared:
                        shared_negatives += negatives
                    L21 = F[:, p:f, :p] @ _H(K1)
                    L21D = L21
                    if Dk is not None:  # this chunk failed Cholesky: D is 1 elsewhere
                        if D[i] is None:
                            D[i] = np.ones((nb, p))
                        D[i][k:k + m] = Dk
                        L21D = L21 * Dk[:, None, :]
                    K[i][k:k + m, :p] = K1
                    np.matmul(L21D, -K1, out=K[i][k:k + m, p:])
                    for c in _chunks(m, g.R ** 2):  # the update F22 - F21 F11^-1 F12
                        F[c, p:f, p:f] -= L21D[c] @ _H(L21[c])
                    F = F.reshape(m, -1)
                    if g.rank is None:
                        np.take(F, tri, axis=1, out=packed[k:k + m], mode="clip")
                    else:
                        packed[g.rank[k:k + m]] = np.take(F, tri, axis=1)
                if len(g.boundary):  # kept for the factors that share this one's exterior
                    updates[i] = packed[g.boundary]
                above.append((g, g.order, g.parent[g.order], packed, tril))
            below = above
            first += len(depth)
        self._K, self._D, self._updates = K, D, updates
        self._shared_negatives = shared_negatives
        # the values of A in the shared fronts, which a sharing factor compares
        self._shared_values = share._shared_values if reuse else _shared(values, edge)
        self.nnz = sum(K[i].size for i, g in enumerate(groups) if not (reuse and g.shared))

    def _fronts(self, shared):
        return [(g, K, D) for g, K, D in zip(self._plan.groups, self._K, self._D)
                if g.shared == shared]

    def shares(self, other) -> bool:
        """Whether `other` is a TreeFactor that shares this one's exterior:
        the same K in every shared front."""
        return isinstance(other, TreeFactor) and other._exterior is self._exterior

    def solve(self, b):
        """x with A x = b, for one right-hand side b, in one work vector: the
        forward sweep leaves D y on the pivots, the backward sweep x."""
        n = self._plan.n
        fronts = list(zip(self._plan.groups, self._K, self._D))
        v = np.zeros(n + 1, np.result_type(b.dtype, self._dtype))
        v[:n] = b
        _forward(v, fronts)
        _backward(v, fronts)
        return v[:n]

    def solve_difference(self, other, b):
        """A^-1 b - B^-1 b, for one right-hand side b, with `other` a factor
        of B that shares this one's exterior (`shares`).

        The forward sweep over the shared fronts reads b and the shared K
        only, so it is made once for both; the backward sweep over them is
        linear in the values on their rings, which it reads from the tube
        fronts, so it is made once, on the difference of both.  That is one
        sweep each way over the shared fronts, two over the tube fronts.
        """
        if not self.shares(other):
            raise ValueError("the factors do not share an exterior")
        n, nodes = self._plan.n, self._plan.nodes
        v = np.zeros(n + 1, np.result_type(b.dtype, self._dtype))
        v[:n] = b
        shared = self._fronts(True)
        _forward(v, shared)
        w = v.copy()
        for factor, x in ((self, v), (other, w)):
            tube = factor._fronts(False)
            _forward(x, tube)
            _backward(x, tube)
        z = np.zeros_like(v)
        z[nodes] = v[nodes] - w[nodes]
        _backward(z, shared, rings_only=True)
        return z[:n]
