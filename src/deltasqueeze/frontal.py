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
chunks, at most _FRONTS entries together (one front when it alone has
more), in one buffer of that size.  Once a chunk is eliminated, the lower
triangles of its updates are copied into a packed array of its group, and
the chunks of the depth above are assembled from these arrays: the stack of
update matrices of the multifrontal method (Liu, The multifrontal method
and paging in sparse Cholesky factorization, ACM TOMS 12 (1986) 249-264),
two depths deep, the one assembled from and the one made.  Every slot of a
front adds its matrix entry and then its children's updates, by child
group and, within one, by child, whatever the chunks: chunk boundaries
change no bit of a factor.

A front's factor and update are functions of its assembled front, so fronts
whose assembled fronts are bitwise equal have bitwise equal factors and
updates.  On a uniform mesh with A = Q = 0 most fronts away from the curve
and the box wall are such repeats.  So the fronts of a group fall into
classes (`_classes`): fronts of one class take entries of the same bits at
the same slots of their own, and children of the same classes at the same
positions, in the same order.  A factor assembles and eliminates the first
front of each class only, and stores one K, one D and one packed update per
class; a parent takes each child's update from its child's class.  The
negative pivots of a class count once per front of it.  A solve gathers the
pivots and rings of a group once, applies one GEMM per class of several
fronts and one stacked matmul over the classes of one front, so a pencil
without repeats, such as a magnetic one, takes the stacked matmul alone.
So a factor's working set is its stored class entries, one chunk, the
packed class updates of two adjacent depths and the gathered entries.  The
converge-line delta factor at its sweep shift (n = 146,689) has 399 classes
among its 32,767 fronts, 248 of them of several fronts; these are 2.87 M,
0.52 M, at most 1.83 M and 0.59 M entries (7.50 M, 0.52 M, 2.46 M and
0.59 M for one class per front).  The CSR matrix it reads takes 12.9 MB,
and the Hermiticity check before it a transposed copy of that and one block
of rows (`fem.hermiticity_residual`).  The symbolic phase is bounded too:
the map of a pattern onto the fronts (`_entries`), made once per plan and
pattern, is int32 and is made in blocks of rows.  On that tree (585,225
lower entries) it peaks at 13.6 MiB traced and keeps the 4.5 MiB map,
where one argsort over every entry took 75.3 MiB.  It keeps the pattern it
maps by reference, not by copy: a shifted mesh pencil has the index arrays
of its mass matrix, which every form of the mesh shares
(`spectral.ResolventFactor`), so no copy of a pattern is live.

Each front keeps K = [K1; -F21 F11^-1] with F11^-1 = K1^H D K1: K1 = L11^-1
for a Cholesky factor F11 = L11 L11^H and D = I; when Cholesky fails on a
chunk, its pivot blocks are diagonalised, F11 = Q diag(w) Q^H, with
K1 = |w|^-1/2 Q^H and D = sign(w), and D = 1 on the rest of the group.  By
Haynsworth's inertia additivity (Haynsworth, Determination of the inertia
of a partitioned Hermitian matrix, Linear Algebra Appl. 1 (1968) 73-81) the
number of negative eigenvalues of the matrix is the number of negative w
over all pivot blocks: exact, and 0 when every front passes Cholesky.

A front's factor and update depend only on the matrix entries of its
subtree (Liu, above), so pencils that agree outside a tube share every
front whose subtree holds no tube unknown.  A factor made with a tube keeps
what they share: it groups the other fronts apart from the tube fronts (the
fronts of the tube unknowns and their ancestors), keeps the values of its
matrix in them and the updates they pass into the tube.  A later factor at
the same shift on the same tree checks its matrix against those values,
bitwise, and then factors the tube fronts only, taking the rest, classes
included, by reference.  On the converge-line pencils (h = 1/64,
n = 146,689) the tube of the widest squeezed potential and the line holds
13,621 unknowns and 3,451 of the 32,767 fronts, ancestors included, in 231
to 287 classes.  An eps factor stores 0.72 of the delta factor's entries,
since the exterior repeats most, and the six factors of a sweep take
0.75-0.82 of the time of six full ones (2-core machine, one BLAS thread).
Two such factors solve their difference with one sweep each way over the
shared fronts (`TreeFactor.solve_difference`), in 0.61-0.66 of the time of
two solves.
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
    group lies outside the tube (`_Plan`).  `order` lists the fronts by
    parent offset, stably, so the fronts with one parent are a run of it,
    and `rank` is every front's place in it (None when that is the front
    itself).  Fronts of one `shape` place their updates at the same slots
    of their parents.  `pos`, which only a factor reads, is int32; the
    arrays every solve indexes with, `pivots` and `ring`, stay intp, which
    numpy would otherwise cast on every gather."""

    p: int
    R: int
    offset: int
    pivots: np.ndarray  # (nb, p) the pivots of every front
    ring: np.ndarray  # (nb, R) the ring of every front, n for a padded slot
    parent: np.ndarray  # (nb,) layout offset of the parent's front in the depth above
    side: np.ndarray  # (nb,) row length of the parent's front
    pos: np.ndarray  # (nb, R) int32: slot of every ring slot in the parent's front
    shape: np.ndarray  # (nb,) the class of every front's row of pos
    shared: bool
    order: np.ndarray  # (nb,) the fronts by parent offset, stably
    rank: np.ndarray | None  # (nb,) the place of every front in order; None when it is the front
    boundary: np.ndarray  # the fronts of a shared group whose parent is a tube front


@dataclass(frozen=True)
class _Classes:
    """The fronts of a group in classes whose assembled fronts are bitwise
    equal (`_classes`): the classes of several fronts first, by first front,
    then those of one front, by front.  `of` is the class of every front,
    `reps` the first front of every class and `count` its number of fronts.
    `perm` lists the fronts by class, stably: class c < len(bounds) - 1 is
    perm[bounds[c]:bounds[c + 1]], and the one-front classes follow from
    bounds[-1] on; `place` is every front's place in perm.  Both are None
    when every class has one front: the classes are then the fronts."""

    of: np.ndarray
    reps: np.ndarray
    count: np.ndarray
    perm: np.ndarray | None
    place: np.ndarray | None
    bounds: list


@dataclass(eq=False)
class _Plan:
    """Symbolic analysis of a tree: its groups by depth, deepest first, the
    tube groups of a depth first, with each depth's layout span (the sum of
    its fronts' squared sides, over which `front` places them and `_entries`
    orders the pattern), and the int32 map of the last matrix pattern onto
    the fronts (`_entries`).

    The tube fronts are those that hold an unknown of the tube or lie above
    one that does; every front when there is no tube.  Every other front is
    shared: its subtree holds no tube unknown, so its factor is the same for
    every matrix that agrees with another outside the tube."""

    n: int
    depths: list  # [(layout span, [_Group])]
    front: tuple  # (offset of the front in its depth's span, its row length, its p) per supernode
    depth: np.ndarray  # depth of every supernode
    tube: np.ndarray  # whether each supernode is a tube front
    pattern: tuple | None = None  # (indptr, indices, slot, at, edge): `_entries`

    def __post_init__(self):
        self.groups = [g for _, depth in self.depths for g in depth]
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
    # offset in its depth's span and row length of every front
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
        # intp, as every solve indexes with it, from the tree's int32 rings
        ring = np.where(off, n, tree.ring[np.minimum(ring_ptr[nodes, None] + slot,
                                                     len(tree.ring) - 1)].astype(np.intp))
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
        boundary = (np.flatnonzero((q >= 0) & tube[q]) if is_shared
                    else np.empty(0, np.int64))
        depths[depth[nodes[0]]][1].append(_Group(
            P, Rg, int(start[nodes[0]]), pivots, ring, start[q], width[q], pos.astype(np.int32),
            _row_classes(pos)[0], is_shared, by_parent, rank, boundary))
    return _Plan(n, depths, (start, width, p), depth, tube)


def _ring_key(tree):
    """supernode * n + ring node over every ring, ascending."""
    return np.repeat(np.arange(len(tree.parent)), np.diff(tree.ring_ptr)) * tree.n + tree.ring


def _mix(width):
    """Odd 64-bit multipliers of the row hash of `_row_classes`."""
    return np.random.default_rng(0).integers(0, 2**64 - 1, width, np.uint64,
                                             endpoint=True) | np.uint64(1)


def _row_classes(rows):
    """(inverse, first) of the distinct rows of an integer matrix: row i is
    row first[inverse[i]], the first of its kind.  Rows are told apart by a
    linear hash mod 2^64, checked bitwise against the first row of their
    kind, and by their bytes when two distinct rows share a hash."""
    rows = np.ascontiguousarray(rows)
    if rows.shape[1] == 0:
        return np.zeros(len(rows), np.int64), np.zeros(min(len(rows), 1), np.int64)
    _, first, inverse = np.unique(rows.view(np.uint64) @ _mix(rows.shape[1]),
                                  return_index=True, return_inverse=True)
    if not np.array_equal(rows, rows[first[inverse]]):
        keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return inverse, first


def _table(inverse, first) -> _Classes:
    """The `_Classes` of a group whose fronts are the rows of `_row_classes`."""
    count = np.bincount(inverse)
    if len(count) == len(inverse):  # every front is a class of its own
        fronts = np.arange(len(inverse))
        return _Classes(fronts, fronts, count, None, None, [0])
    order = np.lexsort((first, count == 1))
    of, count = np.argsort(order)[inverse], count[order]
    perm = np.argsort(of, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(count[count > 1])])
    return _Classes(of, first[order], count, perm, np.argsort(perm), bounds.tolist())


def _parents(g, offsets, sizes):
    """(group, front) of the parent of every front of g in the depth above,
    whose groups have the layout offsets `offsets` and front sizes `sizes`."""
    group = np.searchsorted(offsets, g.parent, side="right") - 1
    return group, (g.parent - offsets[group]) // sizes[group]


def _front_entries(g, by_slot, a):
    """The run of gathered entries of every front of g: front k takes
    entries ends[k]:ends[k + 1], with `by_slot` the slots of its depth's
    entries from entry a on."""
    side = (g.p + g.R + 1) ** 2
    return a + np.searchsorted(by_slot, g.offset + side * np.arange(len(g.pivots) + 1))


def _classes(plan, slot, values, edge, given):
    """The `_Classes` of every group of `plan` for a matrix with the pattern
    map (slot, edge) of `_entries` and the gathered entries `values`, where
    `given` does not hold one already.

    Fronts are in one class when they lie in one group, take entries of the
    same bits at the same slots of their own, and have children of the same
    classes and shapes, in the same order: their assembled fronts are then
    bitwise equal, since extend-add adds the updates of the children in that
    order (Liu, SIAM Review 34 (1992) 82-109).  A front's key is one integer
    row: its entries' slots and bits, then the class and shape of each
    child, padded with -1."""
    bits = values.view(np.int64).reshape(len(values), -1)
    q = 1 + bits.shape[1]  # columns per entry: slot and bits
    tables = list(given)
    first = 0
    for d, (_, depth) in enumerate(plan.depths):
        a = edge[2 * d]
        by_slot = slot[a:edge[2 * d + 2]]
        offsets = np.array([g.offset for g in depth])
        sides = np.array([(g.p + g.R + 1) ** 2 for g in depth])
        kids = []  # (parent group, parent front, place among its children, class, shape)
        if d:
            below = plan.depths[d - 1][1]
            for j, h in enumerate(below, first - len(below)):
                place = np.arange(len(h.parent)) if h.rank is None else h.rank
                place = place - np.searchsorted(h.parent[h.order], h.parent)
                kids.append((*_parents(h, offsets, sides), place, tables[j].of, h.shape))
        for i, g in enumerate(depth, first):
            if tables[i] is not None:
                continue
            ends = _front_entries(g, by_slot, a)
            count = np.diff(ends)
            front = np.repeat(np.arange(len(count)), count)
            e = np.arange(ends[0], ends[-1])
            col = q * (e - ends[front])
            width = q * int(count.max(initial=0))
            children = []
            for pg, pk, place, of, shape in kids:
                mine = pg == i - first
                if np.any(mine):
                    children.append((pk[mine], width + 2 * place[mine], of[mine], shape[mine]))
                    width += 2 * int(place[mine].max() + 1)
            rows = np.full((len(count), width), -1, np.int64)
            flat, at = rows.reshape(-1), front * width + col
            flat[at] = slot[e] - g.offset - sides[i - first] * front
            for c in range(1, q):
                flat[at + c] = bits[e, c - 1]
            for pk, at, of, shape in children:
                rows[pk, at], rows[pk, at + 1] = of, shape
            tables[i] = _table(*_row_classes(rows))
        first += len(depth)
    return tables


def _entries(plan: _Plan, tree, A):
    """(indptr, indices, slot, at, edge) of the lower triangle of the
    canonical CSR matrix A: entry e goes to layout slot slot[e] from
    A.data[at[e]], depth by depth and by slot within a depth, and the
    entries of depth d in its tube fronts are edge[2d]:edge[2d + 1], in its
    shared fronts edge[2d + 1]:edge[2d + 2].  Mesh pencils share a pattern,
    so the map of the last pattern is kept, with references to the index
    arrays it was made from, not copies: a shifted mesh pencil takes those
    of its mass matrix (`spectral.ResolventFactor`), which every form of a
    mesh shares and none changes, so the map holds no copy of a pattern.  A
    matrix is recognised by those arrays themselves, else by their bits.

    A front's rows are its pivots and then its ring, both ascending, so its
    entries in CSR order are in slot order, and the fronts of a depth lie
    one after another in its layout.  So the map is a counting sort of the
    entries by front: one pass over blocks of rows counts the entries of
    every front, and a second places each block's entries after those of
    their fronts in earlier blocks.  Besides the int32 map, it holds the
    temporaries of one block of about _CHUNK entries at a time: the bound
    that Liu (ACM TOMS 12 (1986) 249-264) sets on the numeric phase's stack,
    here on the symbolic phase."""
    last = plan.pattern
    if last is not None and ((last[0] is A.indptr and last[1] is A.indices) or (
            np.array_equal(last[0], A.indptr) and np.array_equal(last[1], A.indices))):
        return last
    n, starts, (start, side, p) = plan.n, tree.starts, plan.front
    # the supernode of every unknown, intp: s * n + i overflows int32 on
    # converge-line's tree
    snode = np.repeat(np.arange(len(start)), np.diff(starts))
    blocks = _chunks(n, -(-len(A.indices) // max(n, 1)))

    def lower(rows):
        """(at, i, j) of the lower triangle's entries in a block of rows."""
        ptr = A.indptr[rows.start:rows.stop + 1]
        i = np.repeat(np.arange(rows.start, rows.start + len(ptr) - 1, dtype=A.indices.dtype),
                      np.diff(ptr))
        j = A.indices[ptr[0]:ptr[-1]]
        at = np.flatnonzero(i >= j)
        return at + ptr[0], i[at], j[at]

    count = np.zeros(len(start), np.int64)  # the entries of every front
    for rows in blocks:
        count += np.bincount(snode[lower(rows)[2]], minlength=len(start))
    # the fronts by depth, then layout offset; a depth's tube fronts lie
    # before its shared ones, so this is also by depth, then tube
    fronts = np.lexsort((start, plan.depth))
    ends = np.cumsum(count[fronts])
    key = (2 * plan.depth + ~plan.tube)[fronts]
    edge = np.concatenate([[0], ends])[np.searchsorted(key, np.arange(2 * len(plan.depths) + 1))]
    free = np.empty(len(start), np.int64)  # the place of every front's next entry
    free[fronts] = ends - count[fronts]
    del count, ends, key, fronts  # freed before the blocks' temporaries
    ring_key = _ring_key(tree)
    slot, at = np.empty(edge[-1], np.int32), np.empty(edge[-1], np.int32)
    for rows in blocks:
        e, i, j = lower(rows)
        s = snode[j]
        o = np.argsort(s, kind="stable")  # by front, in CSR order within one
        e, i, j, s = e[o], i[o], j[o], s[o]
        row = i - starts[s]
        outside = np.flatnonzero(row >= p[s])
        so = s[outside]
        row[outside] = p[so] + np.searchsorted(ring_key, so * n + i[outside]) \
            - tree.ring_ptr[so]
        head = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1]]))  # each front's first
        size = np.diff(np.append(head, len(s)))
        place = free[s] + np.arange(len(s)) - np.repeat(head, size)
        free[s[head]] += size
        slot[place] = start[s] + row * side[s] + (j - starts[s])
        at[place] = e
    plan.pattern = (A.indptr, A.indices, slot, at, edge.tolist())
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
    """(K1, D, negatives) of a stack of pivot blocks: K1 = L11^-1, D None
    and negatives 0 when every block passes Cholesky, else the scaled
    eigenvectors K1 with F11^-1 = K1^H diag(D) K1 and the number of negative
    eigenvalues of each block.  RuntimeError for a singular block."""
    try:
        return _inverse_lower(np.linalg.cholesky(F11)), None, 0
    except np.linalg.LinAlgError:
        pass
    w, Q = np.linalg.eigh(F11)
    scale = np.abs(w)
    if np.any(scale <= F11.shape[-1] * np.finfo(float).eps * scale.max(axis=-1, keepdims=True)):
        raise RuntimeError("a pivot block is singular to working precision")
    return _H(Q) / np.sqrt(scale)[..., None], np.sign(w), np.count_nonzero(w < 0, axis=-1)


def _assembled(depth, classes, factored):
    """Where the fronts of a depth, the groups `depth` with their `_Classes`
    and whether each is factored, are assembled: (layout offsets, sizes and
    assembly offsets of the groups, the first front of each group in the
    depth, the class of every front, whether it is its class's first).  The
    first fronts of the classes of a factored group are assembled one after
    another, group after group; a group that is not factored has offset -1."""
    sizes = np.array([(g.p + g.R + 1) ** 2 for g in depth])
    count = np.array([len(t.reps) if f else 0 for t, f in zip(classes, factored)])
    at = np.concatenate([[0], np.cumsum(count * sizes)[:-1]])
    at[count == 0] = -1
    base = np.concatenate([[0], np.cumsum([len(t.of) for t in classes])])
    first = np.zeros(base[-1], dtype=bool)
    for b, t in zip(base, classes):
        first[b + t.reps] = True
    return (np.array([g.offset for g in depth]), sizes, at, base[:-1],
            np.concatenate([t.of for t in classes]), first)


def _to_parents(g, fronts, up):
    """(fronts, offsets): those of `fronts` of g whose parent is assembled
    (`_assembled` `up`, of the depth above), by the assembly offset of the
    parent, stably, and those offsets."""
    offsets, sizes, at, base, of, first = up
    pg, k = (x[fronts] for x in _parents(g, offsets, sizes))
    k += base[pg]
    keep = first[k] & (at[pg] >= 0)
    offset = (at[pg] + of[k] * sizes[pg])[keep]
    order = np.argsort(offset, kind="stable")
    return fronts[keep][order], offset[order]


def _extend_add(buffer, lo, below):
    """Adds to `buffer`, which holds fronts of one depth from assembly
    offset `lo` on, the lower triangles of the updates of their children.
    `below` lists (g, fronts, parents, rows, index, tril) per group g of the
    depth below: the fronts of g whose parents are at the ascending
    assembly offsets `parents`, where front fronts[c] passes row index[c] of
    `rows`, with `tril` the np.tril_indices(g.R) of their order."""
    for g, fronts, parents, rows, index, (i, j) in below:
        a, b = np.searchsorted(parents, (lo, lo + len(buffer)))
        pos, parent, side = g.pos[fronts[a:b]], parents[a:b] - lo, g.side[fronts[a:b]]
        for c in _chunks(b - a, len(i)):
            row = parent[c, None] + pos[c] * side[c, None]  # buffer offsets of rows
            target = np.take(row, i, axis=1)
            target += np.take(pos[c], j, axis=1)
            np.add.at(buffer, target.ravel(), rows[index[a:b][c]].ravel())


def _apply(K, t, X, *, adjoint=False):
    """Row f is K_f x_f, or K_f^H x_f when `adjoint`, for every front f of a
    group, with x_f row f of X and K_f the K of f's class in the `_Classes`
    t: one GEMM per class of several fronts, one stacked matmul over the
    classes of one front."""
    if adjoint:  # K^H x = conj(K^T conj x): K is not copied
        return _apply(K.swapaxes(1, 2), t, X.conj()).conj()
    if t.perm is None:
        return (K @ X[..., None])[..., 0]
    X, b = np.take(X, t.perm, axis=0), t.bounds
    Y = np.empty((len(X), K.shape[1]), np.result_type(K, X))
    for c in range(len(b) - 1):
        np.matmul(X[b[c]:b[c + 1]], K[c].T, out=Y[b[c]:b[c + 1]])
    Y[b[-1]:] = (K[len(b) - 1:] @ X[b[-1]:, :, None])[..., 0]
    return np.take(Y, t.place, axis=0)


def _forward(v, fronts):
    """Forward sweep over [(group, K, D, classes)] in order: D y on their
    pivots."""
    for g, K, D, t in fronts:
        Y = _apply(K, t, v[g.pivots])
        v[g.pivots] = Y[:, :g.p] if D is None else Y[:, :g.p] * D[t.of]
        np.add.at(v, g.ring.ravel(), Y[:, g.p:].ravel())  # padding adds 0 to v[n]


def _backward(v, fronts, *, rings_only=False):
    """Backward sweep over [(group, K, D, classes)] in reverse order: x on
    their pivots.  `rings_only` when v holds 0 on every pivot of `fronts`."""
    for g, K, _, t in reversed(fronts):
        if rings_only:
            K, Z = K[:, g.p:], v[g.ring]
        else:
            Z = np.empty((len(g.pivots), g.p + g.R), v.dtype)
            Z[:, :g.p], Z[:, g.p:] = v[g.pivots], v[g.ring]
        v[g.pivots] = _apply(K, t, Z, adjoint=True)


class TreeFactor:
    """LDL^H factor of a Hermitian matrix A, given in canonical CSR form in
    the numbering of the `fem.DissectionTree` `tree`, by the multifrontal
    method, in chunks of fronts in one buffer of a fixed size, with the
    updates of two depths packed, and each class of bitwise-equal fronts
    factored and stored once (see the module docstring).  A may also be a
    function that returns the matrix: the factor calls it, reads the matrix
    once and drops it before the first front is eliminated, so a matrix
    made for the factor alone is not alive while the fronts are.  The
    tree's map of A's pattern onto the fronts keeps A's `indptr` and
    `indices` by reference (`_entries`), so a mapped matrix's index arrays
    must not be changed in place; its data may.

    `share` is None, a boolean mask of the unknowns of a tube, or a factor
    made with one.  Given a tube, the factor keeps what later factors of
    matrices that agree with A outside it reuse: the values of A in the
    shared fronts (`_Plan`) and the updates they pass into tube fronts; a
    factor made otherwise keeps neither.  Given such a factor F on this
    tree, while the tree's cache still holds F's plan, the factor compares
    the lower triangle of A in every shared front with F's, bitwise, and
    when A has F's pattern, dtype and these values it factors only the tube
    fronts: it takes the classes, K and D of every shared front, and the
    updates they pass into the tube, from F, without a copy (the factor of
    a front depends only on the entries of its subtree: Liu, SIAM Review 34
    (1992) 82-109).  Otherwise it factors A in full, as without `share`.

    `negatives` is the number of negative eigenvalues of A; `nnz` the number
    of entries of K that the factor stores itself, one K per class.  Only
    the lower triangle of A is read.  RuntimeError when a pivot block is
    singular to working precision.
    """

    def __init__(self, A, tree, *, share=None):
        if callable(A):
            A = A()  # held here only, and dropped once read
        n = tree.n
        if A.shape != (n, n):
            raise ValueError(f"matrix of shape {A.shape} on a tree of {n} unknowns")
        dtype = np.result_type(A.dtype, float)
        keep = share is not None and not isinstance(share, TreeFactor)  # a tube
        # without a tube the tree's cached plan, whatever its tube: a lender's
        # while the cache holds it, and then its pattern when A has it
        plan = _plan(tree, np.asarray(share, dtype=bool) if keep else None)
        pattern = _entries(plan, tree, A)
        # the lower triangle of A in the order of the pattern: A is read
        # once, here, and then dropped
        values = A.data[pattern[3]].astype(dtype, copy=False)
        del A
        reuse = (isinstance(share, TreeFactor) and share._shared_values is not None
                 and share._pattern is pattern and dtype == share._dtype
                 and np.array_equal(_shared(values, pattern[4]).view(np.uint8),
                                    share._shared_values.view(np.uint8)))
        # the identity of the shared fronts
        self._exterior = share._exterior if reuse else object()
        self._plan, self._pattern, self._dtype = plan, pattern, dtype
        groups = plan.groups
        K, D = [None] * len(groups), [None] * len(groups)
        given = [None] * len(groups)
        factored = [not (reuse and g.shared) for g in groups]
        self.negatives = shared_negatives = 0
        updates = [None] * len(groups)  # of the shared fronts into the tube
        if reuse:
            for i, g in enumerate(groups):
                if g.shared:
                    K[i], D[i], given[i] = share._K[i], share._D[i], share._classes[i]
            self.negatives = shared_negatives = share._shared_negatives
        _, _, slot, _, edge = pattern
        classes = _classes(plan, slot, values, edge, given)
        # one buffer holds a chunk of the first fronts of classes of one
        # group at a time; the lower triangles of their updates are packed,
        # one row per class, for the depth above
        sizes = [(g.p + g.R + 1) ** 2 for g in groups]
        spans = np.cumsum([0] + [len(depth) for _, depth in plan.depths]).tolist()
        assembled = [sum(len(classes[i].reps) * sizes[i] for i in range(a, b) if factored[i])
                     for a, b in zip(spans, spans[1:])]
        buffer = np.empty(min(max([_FRONTS] + [s for s, f in zip(sizes, factored) if f]),
                              max(assembled)), dtype)
        below = []  # (group, fronts, their parents' offsets, rows, row of each front, tril)
        for d, (_, depth) in enumerate(plan.depths):
            a, first = edge[2 * d], spans[d]
            by_slot = slot[a:edge[2 * d + 2]]
            up = None  # where the fronts of the depth above are assembled
            if d + 1 < len(plan.depths):
                upper = slice(spans[d + 1], spans[d + 2])
                up = _assembled(plan.depths[d + 1][1], classes[upper], factored[upper])
            above = []
            at = 0  # assembly offset of the group's first class
            for i, g in enumerate(depth, first):
                t, tril = classes[i], np.tril_indices(g.R)
                if not factored[i]:
                    if len(g.boundary):
                        rows, row = share._updates[i]
                        fronts, parents = _to_parents(g, g.boundary, up)
                        above.append((g, fronts, parents, rows,
                                      row[np.searchsorted(g.boundary, fronts)], tril))
                    continue
                p, f, nc = g.p, g.p + g.R, len(t.reps)
                size = sizes[i]
                tri = (p + tril[0]) * (f + 1) + p + tril[1]
                ends = _front_entries(g, by_slot, a)
                K[i] = np.empty((nc, f, p), dtype)
                packed = np.empty((nc, len(tri)), dtype)  # by class
                step = max(1, _FRONTS // size)  # classes of a chunk
                for k in range(0, nc, step):
                    m = min(step, nc - k)
                    lo, F = at + k * size, buffer[:m * size]
                    F[:] = 0.0
                    # the entries of the chunk's first fronts, moved from
                    # their layout slots to the chunk
                    r = t.reps[k:k + m]
                    count = ends[r + 1] - ends[r]
                    e = np.arange(count.sum()) + np.repeat(ends[r] - np.cumsum(count) + count,
                                                           count)
                    F[slot[e] - np.repeat(g.offset + (r - np.arange(m)) * size, count)] = \
                        values[e]
                    _extend_add(F, lo, below)
                    F = F.reshape(m, f + 1, f + 1)
                    K1, Dk, negatives = _pivot_blocks(F[:, :p, :p])
                    negatives = int(np.sum(t.count[k:k + m] * negatives))
                    self.negatives += negatives
                    if g.shared:
                        shared_negatives += negatives
                    L21 = F[:, p:f, :p] @ _H(K1)
                    L21D = L21
                    if Dk is not None:  # this chunk failed Cholesky: D is 1 elsewhere
                        if D[i] is None:
                            D[i] = np.ones((nc, p))
                        D[i][k:k + m] = Dk
                        L21D = L21 * Dk[:, None, :]
                    K[i][k:k + m, :p] = K1
                    np.matmul(L21D, -K1, out=K[i][k:k + m, p:])
                    for c in _chunks(m, g.R ** 2):  # the update F22 - F21 F11^-1 F12
                        F[c, p:f, p:f] -= L21D[c] @ _H(L21[c])
                    np.take(F.reshape(m, -1), tri, axis=1, out=packed[k:k + m], mode="clip")
                    del K1, L21, L21D  # freed before the next chunk is assembled
                at += nc * size
                if keep and len(g.boundary):  # kept for the factors that share this exterior
                    used, row = np.unique(t.of[g.boundary], return_inverse=True)
                    updates[i] = (packed[used], row)
                if up is not None:
                    fronts, parents = _to_parents(g, np.arange(len(g.pivots)), up)
                    above.append((g, fronts, parents, packed, t.of[fronts], tril))
            below = above
        self._K, self._D, self._classes = K, D, classes
        self._shared_negatives = shared_negatives
        # what a sharing factor takes: the values of A in the shared fronts,
        # which it compares, and the updates they pass into the tube
        self._shared_values = _shared(values, edge) if keep else None
        self._updates = updates if keep else None
        self.nnz = sum(K[i].size for i in range(len(groups)) if factored[i])

    def _fronts(self, shared):
        return [front for front in zip(self._plan.groups, self._K, self._D, self._classes)
                if front[0].shared == shared]

    def shares(self, other) -> bool:
        """Whether `other` is a TreeFactor that shares this one's exterior:
        the same K in every shared front."""
        return isinstance(other, TreeFactor) and other._exterior is self._exterior

    def solve(self, b):
        """x with A x = b, for one right-hand side b, in one work vector: the
        forward sweep leaves D y on the pivots, the backward sweep x."""
        n = self._plan.n
        fronts = list(zip(self._plan.groups, self._K, self._D, self._classes))
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
