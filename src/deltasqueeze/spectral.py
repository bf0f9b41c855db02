"""Sparse generalized eigensolves, resolvent differences, and rate fits.

All operators live in the pencil geometry (S, M) with M symmetric positive
definite: eigenpairs solve S v = lambda M v, the discrete resolvent at a
real shift lambda below the spectrum maps x to (S - lambda M)^{-1} M x, and
operator norms are measured in the M-inner product, the Galerkin surrogate
of the L2 norm.

Every factorization of (S - sigma M) is a `ResolventFactor`.  A mesh
pencil comes in the nested-dissection order of `fem.build_mesh` (George,
SIAM J. Numer. Anal. 10 (1973) 345-363) with its separator tree, and is
factored on that tree by a multifrontal LDL^H in numpy (`frontal`), which
stores one triangle and counts the pencil eigenvalues below sigma as it
runs: by Sylvester's law of inertia they are the negative eigenvalues of
S - sigma M (`count_below`; Parlett, The Symmetric Eigenvalue Problem,
sec. 3.3).  A pencil without a tree is factored by SuperLU in symmetric
mode with diagonal pivots, in its own numbering; its count reads SuperLU's
CSC copies of L and U, about the size of the factor again, frees them once
it has the count, and stores the count on the factor.  A factor whose
count is 0 is a certified shift: `lowest_eigs` reuses it for shift-invert
Lanczos and `resolvent_diff_norm` for the norm, one factorization per
pencil.  Mesh pencils at one shift that differ only inside a tube share
the fronts outside it: a factor made with `share` set to the tube keeps
them, and a factor made with `share` set to that factor reuses them, so it
factors only the tube fronts, and the norm of their resolvent difference
takes one sweep each way over the shared fronts per application.  An
eigensolve with no certified factor makes its own in the one loop that
lowers a shift, until the inertia count is 0: the count is the one
certificate of a shift, and every factor is counted, a tree factor for
free.  Eigensolves and norms are one Lanczos run each and need a
Hermitian pencil: every factor checks S - sigma M before it is made, and
the dense path of `lowest_eigs`, which makes none, checks S and M
(NonHermitianError).  The check takes max|A - A^H| and max|A| in blocks of
rows against one transposed copy of A (`fem.hermiticity_residual`), so it
holds that copy and one block, whatever the size of A.  Every norm and
every eigensolve on a tree factor runs `_lanczos`, which tests its Ritz
pairs after every step and so stops as soon as they pass, not when its
basis is full; an eigensolve on a SuperLU factor (a pencil without a
tree) runs ARPACK.  Eigensolves stop at the relative residual EIG_RTOL,
not at machine epsilon.  A Ritz value's error
goes with the square of its residual over its gap (Kato-Temple), so a
caller that uses only the values stops earlier, on that estimate: every
norm, and every eigensolve asked for `values_only`, stops as soon as the
estimate is at most VALUE_RTOL relative, or the residual test passes.  An
eigensolve starts from a given vector near the wanted eigenspace when the
caller has one (a trial state, or the ground state of a nearby pencil),
plus a random vector on a complex pencil, else from a random vector drawn
with START_SEED.  A norm is one Lanczos
run from its start, taken the same way: a given vector near the top
eigenvector of the resolvent difference (the delta ground state, or a trial
state near it), itself.  One fixed seed and no state kept between calls:
identical inputs give bit-identical reports.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from scipy.special import stdtrit

from .fem import hermiticity_residual
from .frontal import TreeFactor

__all__ = [
    "SpectralResult",
    "RateFit",
    "NormResult",
    "ShiftError",
    "FitError",
    "NonHermitianError",
    "ResolventFactor",
    "count_below",
    "lowest_eigs",
    "resolvent_diff_norm",
    "fit_rate",
]

logger = logging.getLogger(__name__)

EIG_RTOL = 1e-12  # Lanczos relative residual tolerance of shift-invert eigensolves
VALUE_RTOL = 1e-14  # relative Ritz value error estimate of the value stop: norms, values_only
_BASIS = 20  # least Lanczos basis, max(2k + 1, 20) vectors: ARPACK's default ncv
_CYCLES = 20  # basis fills before `_lanczos` gives up, as ARPACK's maxiter of the norms
START_SEED = 7  # seed of every random Lanczos start: eigensolves and norms given no start
HERMITIAN_RTOL = 1e-12  # round-off bound on max|A - A^H| / max|A|
FIT_CONFIDENCE = 0.95  # level of the slope interval `RateFit.ci95`


class ShiftError(RuntimeError):
    """No usable shift below the pencil spectrum was found."""


class FitError(ValueError):
    """Too few usable points for a log-log rate fit."""


class NonHermitianError(ValueError):
    """A pencil matrix is not Hermitian to round-off: inertia counts and the
    Hermitian Lanczos process do not apply to it."""


def _check_hermitian(A, name):
    """Raise NonHermitianError unless max|A - A^H| <= HERMITIAN_RTOL max|A| (NaN fails)."""
    residual, scale = hermiticity_residual(A, scale=True)
    if not residual <= HERMITIAN_RTOL * scale:  # a NaN compares False
        raise NonHermitianError(
            f"pencil matrix {name} is not Hermitian: max|A - A^H| = {residual:.3g} against "
            f"max|A| = {scale:.3g}, {np.count_nonzero(~np.isfinite(A.data))} non-finite "
            "entries; shift-invert Lanczos and inertia counts need a Hermitian pencil")


def _random_starts(n, complex_):
    """Random n-vectors drawn with START_SEED in turn: real, or real + i real if `complex_`."""
    rng = np.random.default_rng(START_SEED)
    while True:
        r = rng.standard_normal(n)
        yield r + 1j * rng.standard_normal(n) if complex_ else r


@dataclass(frozen=True)
class SpectralResult:
    """Ascending eigenvalues with M-orthonormal eigenvectors and residuals."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray  # ||S v - lambda M v||_2 per pair, v normalized in M
    shift: float
    rayleigh_imag: float  # max |Im(v* S v)| over the returned pairs
    # largest Lanczos error estimate of the eigenvalues (`_lanczos`), None
    # without one (dense and ARPACK solves, or no estimate at the stop)
    value_error: float | None = None


@dataclass(frozen=True)
class NormResult:
    value: float
    converged: bool
    iterations: int  # applications of R_delta - R_eps
    value_error: float | None = None  # Lanczos error estimate of value, as in SpectralResult


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    stderr: float
    ci95: tuple
    n_used: int
    n_excluded: int


def _lower(shift):
    return 2.0 * shift if shift < -0.5 else shift - max(1.0, 2.0 * abs(shift))


def lowest_eigs(S, M, k: int = 1, shift: float | None = None, *,
                upper_estimate: float | None = None,
                factor: ResolventFactor | None = None, v0=None, tree=None,
                values_only: bool = False) -> SpectralResult:
    """k smallest eigenpairs of S v = lambda M v by shift-invert Lanczos.

    Dense solve below 60 unknowns.  Given `factor`, a `ResolventFactor` of
    this pencil, the call first certifies it: `count_below(factor)` must be
    0, else ShiftError.  Otherwise the call makes its own factor in one
    loop: it factors at `shift` (default -1), on the separator tree `tree`
    of the pencil's numbering when given, and lowers the shift until the
    inertia count is 0.  A certified factor is used as is, at its shift.

    `upper_estimate` is a known bound lam_1 <= upper_estimate (e.g. a
    variational Rayleigh quotient).  It only seeds the first shift: without
    a `shift`, a negative estimate seeds the shift rule; an estimate >= 0
    gives the rule no scale.  Every factor the loop makes is checked by its
    inertia count, a tree factor's or a SuperLU one's alike.

    Every sparse path runs shift-invert Lanczos with a basis of
    max(2k + 1, 20) vectors, the ARPACK default, to the relative Ritz
    residual EIG_RTOL (1e-12; the eigenvalues agree with a machine-precision
    run to about 1e-13 relative), started from `v0` when given (a vector
    near the wanted eigenspace, such as a positive trial state or the
    ground state of a nearby pencil; ARPACK Users' Guide, SIAM 1998, sec.
    4.4), else from a random vector drawn with START_SEED, which a complex
    pencil adds to `v0`, each normalised in M: a magnetic ground state may
    be odd under a symmetry that v0 keeps (the half-turn of a gauge centred
    in the box), and Lanczos from v0 alone reaches it by rounding.  On a tree
    factor it is `_lanczos` on (S - sigma M)^-1 M, which tests after every
    step (18 solves for the converge-line delta eigensolve against ARPACK's
    21) and raises RuntimeError after _CYCLES fills; on a SuperLU factor it
    is ARPACK.  With `values_only`, for a caller that uses the eigenvalues
    and the eigenvectors at most as starts, `_lanczos` also stops when its
    error estimate of every wanted Ritz value theta is at most
    VALUE_RTOL |theta|: on converge-line the eigenvalues move by at most
    2.1e-14 relative, the residuals rise to about 1e-6, and the delta
    eigensolve takes 12 solves.  `value_error` is the largest estimate
    carried to the eigenvalues, |d lam| = |d theta| / theta^2, whichever
    test stopped the run; None on the dense and ARPACK paths, or without an
    estimate.  Raises NonHermitianError for a pencil not Hermitian to
    round-off, before any factor is made: the dense path checks S and M,
    every factor S - sigma M.  A CSR pencil is used as is, never copied.
    """
    n = S.shape[0]
    S, M = S.tocsr(), M.tocsr()
    if factor is not None:
        below = count_below(factor)
        if below != 0:
            found = "no inertia count" if below is None else f"{below} eigenvalues below it"
            raise ShiftError(
                f"shift {factor.lam} not certified below the pencil spectrum: {found}")
        shift = factor.lam
    if n < max(3 * k + 2, 60):  # the one path that makes no factor to check the pencil
        _check_hermitian(S, "S")
        _check_hermitian(M, "M")
        w, V = sla.eigh(S.toarray(), M.toarray())
        w, V = w[:k], V[:, :k]
        shift_used = shift if shift is not None else float(w[0] - 1.0)
        return _finalize(S, M, w, V, shift_used, None)
    if v0 is None or np.iscomplexobj(S.data):  # random, or v0 plus random, each normalised in M
        r = next(_random_starts(n, np.iscomplexobj(S.data)))
        v0 = r if v0 is None else sum(v / np.sqrt(np.vdot(v, M @ v).real) for v in (v0, r))
    if shift is None:
        # variational estimates may miss vertex deepening factors
        shift = (upper_estimate - max(1.0, 3.0 * abs(upper_estimate))
                 if upper_estimate is not None and upper_estimate < 0.0 else -1.0)
    for _ in range(64):  # 2**64 below the start: only a non-definite M gets here
        if factor is None:  # a given factor was counted above
            try:
                # S positional: the benchmark's tracer reads the pencil from it
                factor = ResolventFactor(S, M, shift, tree=tree)
            except RuntimeError:  # exactly singular: shift is an eigenvalue
                pass
            else:
                if count_below(factor) != 0:
                    factor = None  # freed before the next factorization
        if factor is not None:
            error = None
            if isinstance(factor._lu, TreeFactor):
                theta, V, converged, error = _lanczos(
                    factor._lu.solve, M, np.asarray(v0, np.result_type(v0, S.dtype, float)),
                    k, EIG_RTOL, values=values_only)
                if not converged:
                    raise RuntimeError(f"Lanczos did not converge in {_CYCLES} basis fills")
                w = factor.lam + 1.0 / theta
                error = _largest(error / theta**2)  # lam = sigma + 1/theta
            else:
                w, V = _shift_invert(S, M, k, factor, v0)
            return _finalize(S, M, w, V, shift, error)
        shift = _lower(shift)
    raise ShiftError(f"no shift down to {shift} certified below the pencil spectrum")


def _lanczos(apply, M, v0, k, tol, *, values=False):
    """(theta, X, converged, error): the k eigenvalues theta of largest magnitude,
    by decreasing |theta|, of an operator OP that is self-adjoint in the
    M-inner product, with M-orthonormal Ritz vectors X (n x k), by Lanczos
    from v0.

    OP x = apply(M x) for a Hermitian `apply`, ARPACK's mode-3 convention:
    apply = (S - sigma M)^-1 gives the spectral transformation of a pencil
    (Ericsson & Ruhe, Math. Comp. 35 (1980) 1251-1268), apply = R_delta -
    R_eps the resolvent difference D.  v0 has OP's dtype, real or complex.
    Each step applies OP once and M-orthogonalises the result against the
    whole basis by two classical Gram-Schmidt passes, so the projected
    matrix Q^H M OP Q is read off their coefficients; its Ritz pairs are
    tested after every step by ARPACK's rule, residual <= tol max(|theta|,
    eps^(2/3)) for each of the k wanted ones.  With `values`, the run also
    stops when the error estimate (residual_i)^2 / min_{l != i} |theta_i -
    theta_l| of every wanted Ritz value is at most VALUE_RTOL |theta_i|
    (Kato-Temple; Parlett, The Symmetric Eigenvalue Problem, ch. 11),
    whichever test passes first.  It is an estimate, not a certificate: the
    gap is taken to the other Ritz values, and a Ritz value bounds its
    eigenvalue from one side only (theta_2 <= lambda_2 for the second
    largest, by interlacing), so the true gap can be smaller.  It needs
    k + 1 Ritz values, and a zero gap gives none: that test then fails,
    without a division.  A full basis of max(2k + 1, 20) vectors, ARPACK's
    default ncv, restarts thick from its k + (cap - k)/2 Ritz vectors of
    largest |theta|, as many as ARPACK keeps for k = 1, and the residual
    direction (Wu & Simon, SIAM J. Matrix Anal. Appl. 22 (2000) 602-616).  After _CYCLES fills without
    convergence, X is None and theta holds the last Ritz values.  `error`
    holds the last estimates of the k wanted ones, inf where there is none.

    A breakdown, a residual beta <= eps |Q^H M OP q_j| that leaves the span
    of the basis invariant under OP to working precision, makes the residuals
    of every Ritz pair 0: the run returns when it has k of them, and else
    goes on, as after a restart whose residual is 0, from a fresh random
    direction drawn with START_SEED and M-orthogonalised against the basis.
    """
    n = v0.shape[0]
    cap = min(n, max(2 * k + 1, _BASIS))
    keep = k + (cap - k) // 2
    real = not np.iscomplexobj(v0)
    # the one basis of the call, M-orthonormal rows, freed on return; rows
    # past the last step are never written
    Q = np.empty((cap, n), v0.dtype)
    T = np.zeros((cap, cap), v0.dtype)  # Q^H M OP Q, upper triangle

    def orthogonalise(w, m):  # (w minus its M-projection on Q[:m], the coefficients)
        c = 0.0
        for _ in range(2):  # a complex pass conjugates the short vectors, never the basis
            d = Q[:m] @ (M @ w) if real else np.conj(Q[:m] @ np.conj(M @ w))
            c, w = c + d, w - d @ Q[:m]
        return w, c

    def next_vector(w, Mw, beta, m):  # the basis vector after Q[:m], and M times it
        if beta > 0.0:
            return w / beta, Mw / beta
        # breakdown: Q[:m] spans an invariant space, so go on from a fresh
        # random direction M-orthogonal to it
        r = orthogonalise(next(fresh), m)[0]
        Mr = M @ r
        scale = np.sqrt(np.vdot(r, Mr).real)
        return r / scale, Mr / scale

    fresh = _random_starts(n, not real)  # the directions after a breakdown
    Mq = M @ v0
    scale = np.sqrt(np.vdot(v0, Mq).real)
    Q[0], Mq = v0 / scale, Mq / scale
    floor = np.finfo(float).eps ** (2.0 / 3.0)
    theta, error, j = np.empty(0), np.full(k, np.inf), 0
    for _ in range(_CYCLES):
        for j in range(j, cap):
            w, T[:j + 1, j] = orthogonalise(apply(Mq), j + 1)
            Mw = M @ w
            beta = np.sqrt(np.vdot(w, Mw).real)
            if beta <= np.finfo(float).eps * np.linalg.norm(T[:j + 1, j]):
                beta = 0.0  # OP Q[:j + 1] lies in their span to working precision
            theta, Y = sla.eigh(T[:j + 1, :j + 1], lower=False)
            order = np.argsort(-np.abs(theta))
            theta, Y = theta[order], Y[:, order]
            if j + 1 >= k:
                residual = beta * np.abs(Y[j, :k])
                error = _value_error(theta, residual)
                if np.all(residual <= tol * np.maximum(np.abs(theta[:k]), floor)) or (
                        values and np.all(error <= VALUE_RTOL * np.abs(theta[:k]))):
                    return theta[:k], (Y[:, :k].T @ Q[:j + 1]).T, True, error
            if j + 1 < cap:
                Q[j + 1], Mq = next_vector(w, Mw, beta, j + 1)
        Q[:keep] = Y[:, :keep].T @ Q
        Q[keep], Mq = next_vector(w, Mw, beta, keep)
        T[:] = 0.0
        T[np.arange(keep), np.arange(keep)] = theta[:keep]
        j = keep
    return theta[:k], None, False, error


def _value_error(theta, residual):
    """(residual_i)^2 / min_{l != i} |theta_i - theta_l| for the first
    len(residual) Ritz values theta_i: the error estimate of each, inf where
    it has no other Ritz value or shares its value with one."""
    k = residual.shape[0]
    if theta.shape[0] <= k:
        return np.full(k, np.inf)
    gap = np.abs(theta[:k, None] - theta[None, :])
    gap[np.arange(k), np.arange(k)] = np.inf
    gap = gap.min(axis=1)
    with np.errstate(over="ignore", under="ignore"):  # a tiny gap or residual
        return np.divide(residual ** 2, gap, out=np.full(k, np.inf), where=gap > 0.0)


def _shift_invert(S, M, k, factor, v0):
    """ARPACK shift-invert eigenpairs nearest factor.lam, ascending, with
    the ResolventFactor `factor` of (S - factor.lam M)."""
    n = S.shape[0]
    op = spla.LinearOperator((n, n), matvec=factor._lu.solve,
                             dtype=np.result_type(S.dtype, float))
    w, V = spla.eigsh(
        S,
        k=k,
        M=M,
        sigma=factor.lam,
        OPinv=op,
        which="LM",
        v0=v0,
        ncv=min(n - 1, max(2 * k + 1, _BASIS)),
        tol=EIG_RTOL,
    )
    order = np.argsort(w)
    return w[order], V[:, order]


def _largest(error):
    """The largest entry of the error estimates `error`, None unless all are finite."""
    largest = float(np.max(error))
    return largest if np.isfinite(largest) else None


def _finalize(S, M, w, V, shift, value_error):
    SV = S @ V
    residuals = np.linalg.norm(SV - (M @ V) * w[None, :], axis=0)
    ray = np.einsum("ij,ij->j", V.conj(), SV)
    return SpectralResult(
        eigenvalues=np.asarray(w, dtype=float),
        eigenvectors=V,
        residuals=residuals,
        shift=float(shift),
        rayleigh_imag=float(np.max(np.abs(ray.imag))) if np.iscomplexobj(ray) else 0.0,
        value_error=value_error,
    )


class ResolventFactor:
    """Factorized discrete resolvent x -> (S - lambda M)^{-1} M x, the one
    factor behind every eigensolve, inertia count and norm.

    A pencil given with its `fem.DissectionTree` `tree` (a mesh pencil in
    the nested-dissection numbering of `fem.build_mesh`) is factored by the
    multifrontal LDL^H of `frontal.TreeFactor` on that tree (George, Nested
    dissection of a regular finite element mesh, SIAM J. Numer. Anal. 10
    (1973) 345-363; Liu, The multifrontal method for sparse matrix solution,
    SIAM Review 34 (1992) 82-109).  It stores one triangle and counts the
    negative eigenvalues of S - lambda M as it runs, so the factor carries
    its inertia count.  The tree factor makes S - lambda M itself and reads
    it once, so no copy of it is alive while the fronts are eliminated, in
    the fixed-size chunk buffer of `frontal`.  A pencil without a tree is
    factored by SuperLU in symmetric mode, in the pencil's own numbering, with
    diagonal pivoting, which keeps perm_r == perm_c unless a diagonal pivot
    vanishes; its count is read from U on demand.  Keeps M in CSR form,
    without a copy when it is given so.  Raises NonHermitianError when S -
    lambda M is not Hermitian to round-off (a Cholesky front reads one
    triangle only), as for a non-Hermitian M at every lambda != 0 (lambda =
    0 reads S alone), and RuntimeError when it is singular (exactly, for
    SuperLU; to working precision in a pivot block of the tree factor).

    `share`, on the tree path, is a boolean mask of the unknowns of a tube
    (say the rows where this pencil or a later one differs from their common
    base form), or a factor made with one at this shift on this tree.  The
    first keeps the fronts outside the tube for later factors; the second
    factors only the fronts of the tube and their ancestors when S - lambda M
    agrees with that factor's matrix, bitwise, in every other front, and
    factors in full otherwise (`frontal.TreeFactor`).
    """

    def __init__(self, S, M, lam: float, *, tree=None, share=None):
        self.M = M.tocsr()
        self.lam = float(lam)
        self.dtype = np.result_type(S.dtype, self.M.dtype, float)  # of its solves
        if tree is not None:
            if isinstance(share, ResolventFactor):
                share = share._lu
            # the tree factor makes S - lam M itself, reads it once and drops
            # it: no copy of it is alive while the fronts are eliminated
            self._lu = TreeFactor(functools.partial(self._shifted, S), tree, share=share)
            self._below = self._lu.negatives
            return
        self._lu = spla.splu(
            self._shifted(S).tocsc(),
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )

    def _shifted(self, S):
        """S - lam M in canonical CSR form, checked to be Hermitian to round-off."""
        A = (S - self.lam * self.M).tocsr()
        _check_hermitian(A, f"S - {self.lam:g} M")
        A.sum_duplicates()
        return A

    def apply(self, x):
        return self._lu.solve(self.M @ x)

    @functools.cached_property
    def _below(self):
        """`count_below`'s value for a SuperLU factor, read from U once."""
        lu = self._lu
        if not np.array_equal(lu.perm_r, lu.perm_c):
            return None
        L, U = lu.L, lu.U  # CSC copies that SuperLU caches on the factor
        below = int(np.count_nonzero(U.diagonal().real < 0.0))
        for T in (L, U):  # emptied in place, so their arrays are freed now
            T.data = np.empty(0, T.data.dtype)
            T.indices = np.empty(0, T.indices.dtype)
            T.indptr = np.zeros_like(T.indptr)
        return below


def count_below(factor: ResolventFactor) -> int | None:
    """Number of pencil eigenvalues below factor.lam, by inertia.

    The negative eigenvalues of S - lam M are the pencil eigenvalues below
    lam, since M is positive definite (Sylvester's law of inertia; Parlett,
    The Symmetric Eigenvalue Problem, sec. 3.3).  A tree factor counts them
    as it is made: 0 when every front passes Cholesky, else the negative
    eigenvalues of its pivot blocks (Haynsworth's inertia additivity), so
    the count is exact and reads nothing back.

    A SuperLU factor with perm_r == perm_c is a congruence P (S - lam M)
    P^T = L U: for Hermitian S - lam M, U = D L^H with D = diag(U) real, and
    the negative entries of D are the count.  None when a vanishing
    diagonal pivot made SuperLU interchange rows: the count is then not
    available.  Reading U makes SuperLU build CSC copies of L and U, about
    the size of the factor again, and cache them on it.  The first count
    empties both copies once it has read the diagonal, so a count holds
    that memory only while it runs, and stores its value on the factor: a
    second read of the emptied U would find no negative pivot, so every
    later count returns the stored value.
    """
    return factor._below


def resolvent_diff_norm(R_delta: ResolventFactor, R_eps: ResolventFactor, *,
                        start=None) -> NormResult:
    """M-operator norm of D = R_delta(lam) - R_eps(lam) by Lanczos.

    Both factors must be at one shift lam and share one mass matrix M, the
    same object or equal entries (else ValueError); the norm is taken in the
    M-inner product, in which D is self-adjoint for real lam, so it is the
    largest |eigenvalue| of D.  `_lanczos` iterates OP = D and, since only
    the value is returned, stops on its value error estimate: when the Ritz
    value theta of largest magnitude has an estimated error (residual^2 over
    the gap to the next Ritz value) of at most VALUE_RTOL |theta|, or a
    residual <= VALUE_RTOL |theta| (ARPACK's test; Lehoucq, Sorensen & Yang,
    ARPACK Users' Guide, SIAM 1998), checked after every step.  `value_error`
    is that estimate.  Each application of D costs one solve per factor, or,
    when R_eps shares the fronts outside a tube with R_delta
    (`ResolventFactor` `share`), one sweep each way over those fronts and
    two over the tube fronts (`frontal.TreeFactor.solve_difference`).

    Lanczos starts from `start` when given, cast to the factors' dtype: a
    vector near the top eigenvector of D, the delta ground state or a trial
    state near it (the delta ground state of a line at h = 1/64 overlaps it
    by 0.96-0.98 in the M-inner product; ARPACK Users' Guide, sec. 4.4).
    Otherwise it starts from a random vector drawn with START_SEED.  From
    such a start a converge-line norm takes 6-7 applications of D, and from
    a random start 10-11 (8-9 and 11-13 to the relative residual 1e-10;
    ARPACK, which tests only a full basis, took 10 and 14).  The value is
    the largest |Ritz value|, a lower bound of the norm, flagged
    non-converged when the run does not converge in _CYCLES fills; from the
    second step on, the Krylov space holds x0 and D x0, so the value is at
    least ||D x0||_M / ||x0||_M.  D = 0 ends at the first step's breakdown,
    with value 0.  `iterations` counts the applications of D.

    Lanczos searches only the Krylov space of its start, so a started result
    is the norm of D only when `start` is not M-orthogonal to D's top
    eigenvector.  In a geometry symmetric under a map that commutes with D
    (a line, a symmetric star or two parallel lines under (x, y) ->
    (-x, -y)), the Krylov space keeps the symmetry of the start, and the
    result is the largest |eigenvalue| of D in that symmetry class: the norm
    when the top eigenvector has the ground state's symmetry.  A random
    start covers every class.  `test_warm_started_norms_match_random_starts`
    checks that both starts agree on the geometries the lab runs.
    """
    if R_delta.lam != R_eps.lam:
        raise ValueError(f"resolvent factors at different shifts: R_delta at {R_delta.lam}, "
                         f"R_eps at {R_eps.lam}")
    M = R_delta.M
    if R_eps.M is not M and (R_eps.M.shape != M.shape or (R_eps.M != M).nnz):
        raise ValueError("resolvent factors with different mass matrices M")
    applied = 0

    lu_delta, lu_eps = R_delta._lu, R_eps._lu
    shared = isinstance(lu_delta, TreeFactor) and lu_delta.shares(lu_eps)

    def diff(x):
        nonlocal applied
        applied += 1
        if shared:
            return lu_delta.solve_difference(lu_eps, x)
        return lu_delta.solve(x) - lu_eps.solve(x)

    dtype = np.result_type(R_delta.dtype, R_eps.dtype)
    x0 = next(_random_starts(M.shape[0], dtype.kind == "c")) if start is None else start
    theta, _, converged, error = _lanczos(
        diff, M, np.asarray(x0, np.result_type(x0, dtype)), 1, VALUE_RTOL, values=True)
    return NormResult(float(abs(theta[0])), converged, applied, _largest(error))


def fit_rate(eps, values) -> RateFit:
    """Least-squares slope of log(value) against log(eps) with its
    `FIT_CONFIDENCE` interval (Student t).

    Non-positive values are excluded with a logged warning; fewer than three
    remaining points raise FitError.
    """
    eps = np.asarray(eps, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = values > 0.0
    n_excluded = int(np.sum(~keep))
    if n_excluded:
        logger.warning("fit_rate: excluded %d non-positive values", n_excluded)
    eps, values = eps[keep], values[keep]
    if eps.size < 3:
        raise FitError(f"need >= 3 positive points, have {eps.size}")
    X = np.log(eps)
    Y = np.log(values)
    A = np.stack([X, np.ones_like(X)], axis=1)
    coef, _, _, _ = np.linalg.lstsq(A, Y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    dof = eps.size - 2
    resid = Y - A @ coef
    s2 = float(resid @ resid) / max(dof, 1)
    sx = float(np.sum((X - X.mean()) ** 2))
    stderr = np.sqrt(s2 / sx)
    tval = float(stdtrit(max(dof, 1), 0.5 + FIT_CONFIDENCE / 2.0))
    half = tval * stderr if dof > 0 else np.inf
    return RateFit(
        slope=slope,
        intercept=intercept,
        stderr=float(stderr),
        ci95=(slope - half, slope + half),
        n_used=int(eps.size),
        n_excluded=n_excluded,
    )
