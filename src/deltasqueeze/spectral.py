"""Sparse generalized eigensolves, resolvent differences, and rate fits.

All operators live in the pencil geometry (S, M) with M symmetric positive
definite: eigenpairs solve S v = lambda M v, the discrete resolvent at a
real shift lambda below the spectrum maps x to (S - lambda M)^{-1} M x, and
operator norms are measured in the M-inner product, the Galerkin surrogate
of the L2 norm.

Every factorization of (S - sigma M) is SuperLU in symmetric mode: a minimum
degree ordering of A^T + A and diagonal pivots, which keeps the row and
column permutations equal.  The factorization is then a congruence, so by
Sylvester's law of inertia the negative diagonal entries of U count the
pencil eigenvalues below sigma (`count_below`; Parlett, The Symmetric
Eigenvalue Problem, sec. 3.3).  A `ResolventFactor` whose count is 0 is a
certified shift: `lowest_eigs` reuses it for shift-invert Lanczos and
`resolvent_diff_norm` for power iteration, one factorization per pencil.
An eigensolve given neither such a factor nor an estimate of the bottom
makes its own, lowering the shift until the inertia count is 0.  One given
a variational upper estimate instead shifts below the estimate without
counting (the count keeps a copy of the factor alive, see `count_below`),
verifies the result a posteriori, and retries with a 2x lower shift on
breakdown (at most five times).  Deterministic seeds everywhere: identical
inputs give bit-identical reports.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from scipy.stats import t as student_t

__all__ = [
    "SpectralResult",
    "RateFit",
    "PowerIterationResult",
    "ShiftError",
    "FitError",
    "ResolventFactor",
    "count_below",
    "lowest_eigs",
    "resolvent_apply",
    "resolvent_diff_norm",
    "fit_rate",
]

POWER_TOL = 1e-6  # relative change of successive power-iteration estimates
POWER_MAXITER = 200  # power-iteration steps before an estimate is non-converged


class ShiftError(RuntimeError):
    """No usable shift below the pencil spectrum was found."""


class FitError(ValueError):
    """Too few usable points for a log-log rate fit."""


@dataclass(frozen=True)
class SpectralResult:
    """Ascending eigenvalues with M-orthonormal eigenvectors and residuals."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray  # ||S v - lambda M v||_2 per pair, v normalized in M
    shift: float
    rayleigh_imag: float  # max |Im(v* S v)| over the returned pairs


@dataclass(frozen=True)
class PowerIterationResult:
    value: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    stderr: float
    ci95: tuple
    n_used: int
    n_excluded: int


def _splu(A):
    """SuperLU factor of the Hermitian A in symmetric mode.

    The MMD ordering of A^T + A needs about 40 percent less fill than the
    default COLAMD ordering on P1 pencils, and diagonal pivoting keeps
    perm_r == perm_c unless a diagonal pivot vanishes.
    """
    return spla.splu(
        A.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


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
    0, else ShiftError.  Given neither `factor` nor `upper_estimate`, the
    call makes its own certified factor: it factors at `shift` (default -1)
    and lowers the shift until the inertia count is 0.  A certified factor
    is used as is, at its shift `factor.lam`, with no retry and no miss
    detector, and a Lanczos basis of max(2k+1, 20) vectors.

    `upper_estimate` is a known bound lam_1 <= upper_estimate (e.g. a
    variational Rayleigh quotient).  It seeds the shift rule when no shift
    is given and arms the miss detector; (S - shift M) is factored once per
    attempt, without an inertia count, with a basis of at least 40 vectors.
    A shift that turns out not to lie below the spectrum is retried 2x
    lower, at most five times.
    """
    n = S.shape[0]
    Sc, Mc = S.tocsc(), M.tocsc()
    if factor is not None:
        _certify(factor)
        shift = factor.lam
    if n < max(3 * k + 2, 60):
        w, V = sla.eigh(Sc.toarray(), Mc.toarray())
        w, V = w[:k], V[:, :k]
        shift_used = shift if shift is not None else float(w[0] - 1.0)
        return _finalize(Sc, Mc, w, V, shift_used)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    if np.iscomplexobj(Sc.data):
        v0 = v0 + 1j * rng.standard_normal(n)
    if factor is None and upper_estimate is None:
        factor = _certified_factor(Sc, Mc, -1.0 if shift is None else shift)
    if factor is not None:
        w, V = _shift_invert(Sc, Mc, k, factor.lam, factor._lu, v0, 20)
        return _finalize(Sc, Mc, w, V, factor.lam)
    if shift is None:
        # variational estimates may miss vertex deepening factors
        shift = upper_estimate - max(1.0, 3.0 * abs(upper_estimate))
    last_err = None
    for _ in range(5):
        try:
            lu = _splu(Sc - shift * Mc)
            w, V = _shift_invert(Sc, Mc, k, shift, lu, v0, 40)
        except (RuntimeError, ValueError, spla.ArpackError) as err:  # noqa: B030
            last_err = err
            shift = _lower(shift)
            continue
        below_shift = np.any(w < shift + 1e-12 * abs(shift))
        missed_bottom = np.min(w) > upper_estimate + 0.5 * max(1.0, abs(upper_estimate))
        if below_shift or missed_bottom or not np.all(np.isfinite(w)):
            # shift was not below the spectrum: deepen and retry
            last_err = ShiftError(f"shift {shift} not below the pencil spectrum")
            shift = _lower(shift)
            continue
        return _finalize(Sc, Mc, w, V, shift)
    raise ShiftError(f"no usable shift after 5 retries: {last_err}")


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


def _shift_invert(S, M, k, shift, lu, v0, min_ncv):
    """ARPACK shift-invert eigenpairs nearest `shift`, ascending, from the
    factor `lu` of (S - shift M)."""
    n = S.shape[0]
    op = spla.LinearOperator((n, n), matvec=lu.solve, dtype=np.result_type(S.dtype, float))
    w, V = spla.eigsh(
        S,
        k=k,
        M=M,
        sigma=shift,
        OPinv=op,
        which="LM",
        v0=v0,
        ncv=min(n - 1, max(2 * k + 1, min_ncv)),
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
    """Factorized discrete resolvent x -> (S - lambda M)^{-1} M x."""

    def __init__(self, S, M, lam: float):
        self.M = M.tocsc()
        self.lam = float(lam)
        self._lu = _splu(S.tocsc() - lam * self.M)

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


def _certify(factor: ResolventFactor):
    """Raise ShiftError unless no pencil eigenvalue lies below factor.lam."""
    below = count_below(factor)
    if below != 0:
        found = "no inertia count" if below is None else f"{below} eigenvalues below it"
        raise ShiftError(f"shift {factor.lam} not certified below the pencil spectrum: {found}")


def resolvent_apply(S, M, lam: float, rhs, *, check: bool = True):
    """Solve (S - lam M) x = M rhs; lam must lie below the pencil spectrum.

    The check certifies lam by the inertia of the factorization the solve
    uses: it raises ShiftError unless no eigenvalue lies below lam, or when
    lam is an eigenvalue (the factorization is singular).
    """
    try:
        factor = ResolventFactor(S, M, lam)
    except RuntimeError as err:  # exactly singular: lam is an eigenvalue
        if not check:
            raise
        raise ShiftError(f"lam={lam} is an eigenvalue of the pencil: {err}") from err
    if check:
        _certify(factor)
    return factor.apply(rhs)


def resolvent_diff_norm(
    S_delta,
    S_eps,
    M,
    lam: float,
    *,
    seed: int = 2024,
) -> PowerIterationResult:
    """M-operator norm of R_delta(lam) - R_eps(lam) by power iteration.

    The difference is self-adjoint in the M-inner product for real lam, so
    the norm is the dominant Rayleigh quotient magnitude; each step costs one
    sparse solve per resolvent.  The iteration stops when two successive
    estimates agree to POWER_TOL relative; non-convergence within
    POWER_MAXITER steps returns the best estimate flagged non-converged.
    """
    R_d = S_delta if isinstance(S_delta, ResolventFactor) else ResolventFactor(S_delta, M, lam)
    R_e = S_eps if isinstance(S_eps, ResolventFactor) else ResolventFactor(S_eps, M, lam)
    Mc = M.tocsc()
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(Mc.shape[0])
    x = x / np.sqrt(x @ (Mc @ x))
    est = 0.0
    for it in range(1, POWER_MAXITER + 1):
        y = R_d.apply(x) - R_e.apply(x)
        ray = abs(np.vdot(x, Mc @ y))
        norm_y = np.sqrt(abs(np.vdot(y, Mc @ y)))
        if norm_y == 0.0:
            return PowerIterationResult(0.0, True, it)
        x = y / norm_y
        if it > 1 and abs(ray - est) <= POWER_TOL * max(ray, 1e-300):
            return PowerIterationResult(float(ray), True, it)
        est = ray
    return PowerIterationResult(float(est), False, POWER_MAXITER)


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
    tval = float(student_t.ppf(0.5 + confidence / 2.0, max(dof, 1)))
    half = tval * stderr if dof > 0 else np.inf
    return RateFit(
        slope=slope,
        intercept=intercept,
        stderr=float(stderr),
        ci95=(slope - half, slope + half),
        n_used=int(eps.size),
        n_excluded=n_excluded,
    )
