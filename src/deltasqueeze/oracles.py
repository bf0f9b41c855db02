"""Independent low-dimensional solvers anchoring the 2D experiments.

Four families: the transverse 1D problem (point interaction and its
squeezed square-well regularization), the half-line operator
-f'' + x^d f with a Dirichlet condition at 0 governing cusp-induced
eigenvalues, the wedge criterion function whose negative infimum signals
discrete spectrum below the magnetic threshold, and the bound states of a
delta interaction on a circle: exact in the plane, and mode by mode in a
disc with a homogeneous magnetic field.  All 1D solves are
second-order finite differences with Richardson extrapolation over two
grids.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import erf, ive, kve

__all__ = [
    "WedgeParams",
    "WedgeInfimum",
    "NoBoundStateError",
    "DomainSizeError",
    "delta_point_eigenvalue",
    "ring_delta_eigenvalues",
    "ring_mode_eigenvalue",
    "square_well_ground_state",
    "squeezed_1d_eigenvalue",
    "cusp_operator_eigs",
    "wedge_F",
    "wedge_F_infimum",
]

logger = logging.getLogger(__name__)


class NoBoundStateError(ValueError):
    """Nonnegative coupling admits no 1D bound state."""


class DomainSizeError(ValueError):
    """Truncation domain too small for the requested eigenvalues."""


_GQ8, _GW8 = np.polynomial.legendre.leggauss(8)


def delta_point_eigenvalue(alpha: float) -> float:
    """Bound state -alpha^2/4 of the 1D point interaction of strength alpha < 0."""
    if alpha >= 0.0:
        raise NoBoundStateError(f"no bound state for alpha = {alpha} >= 0")
    return -(alpha**2) / 4.0


def ring_delta_eigenvalues(alpha: float, R: float, k: int) -> np.ndarray:
    """The k lowest eigenvalues of -Laplace + alpha delta on the circle of
    radius R in the plane, with multiplicity, or all of them when there are
    fewer (none for alpha >= 0); the essential spectrum is [0, inf).

    The angular momentum m has the bound state lam = -kappa^2 for each root
    kappa > 0 of 1 + alpha R I_m(kappa R) K_m(kappa R) = 0 (Antoine, Gesztesy
    and Shabani, J. Phys. A 20 (1987) 3687), twice for m >= 1.  I_m K_m falls
    from 1/(2m) (infinity for m = 0) to 0, so m has one root when
    -alpha R > 2m, and the roots rise with m.  ive * kve is I_m K_m with the
    exponentials cancelled; where K_m overflows (m >= 2 near x = 0), I_m K_m
    is its limit 1/(2m).
    """
    from scipy.optimize import brentq  # loaded only for the roots

    def f(x):
        k_m = kve(m, x)
        return 1.0 + alpha * R * (ive(m, x) * k_m if np.isfinite(k_m) else 0.5 / m)

    lams, m = [], 0
    while len(lams) < k and -alpha * R > 2 * m:
        # f < 0 below the root; f(1 - alpha R) > 0, as I_m K_m(x) < 1/x there
        x = brentq(f, 1e-300, 1.0 - alpha * R, xtol=1e-300, rtol=1e-15)
        lams += [-((x / R) ** 2)] * (1 if m == 0 else 2)
        m += 1
    return np.asarray(lams[:k])


def ring_mode_eigenvalue(alpha: float, R: float, m: int, b: float = 0.0, *,
                         wall: float, steps: int = 200) -> float:
    """Lowest eigenvalue of -(1/r)(r u')' + (m/r - b r/2)^2 u, the mode m of
    (i grad + A)^2 with A = (b/2)(-y, x), with the jump u'(R+) - u'(R-) =
    alpha u(R) and u(wall) = 0.  Cell-centred differences of the r-weighted
    form on the cells [r - h/2, r + h/2] of r = 0, h, .. ([0, h/2] at 0),
    h = R / steps, Richardson-extrapolated over h and h/3; wall / h must be
    an integer.  Steps 100 and 200 agree to 5e-8 (alpha -5, R 1, wall 3.5)."""
    lams = []
    for J in (steps, 3 * steps):
        h, N = R / J, round(wall * J / R)
        if abs(wall * J / R - N) > 1e-9 or N <= J:
            raise ValueError(f"wall {wall} must be a multiple of R / steps = {R / steps} above R")
        r = h * np.arange(0 if m == 0 else 1, N)
        w = np.where(r == 0.0, h * h / 8.0, h * r)  # each cell's integral of r dr
        face = r + 0.5 * h  # the last cell's outer face meets the wall node
        d = (np.maximum(r - 0.5 * h, 0.0) + face) / h \
            + w * (m / np.where(r == 0.0, 1.0, r) - 0.5 * b * r) ** 2
        d[J - (m != 0)] += alpha * R  # the cell of r = R
        s = 1.0 / np.sqrt(w)  # the pencil (d, -face / h) against diag(w), made symmetric
        lams.append(eigvalsh_tridiagonal(d * s * s, -face[:-1] / h * s[:-1] * s[1:],
                                         select="i", select_range=(0, 0))[0])
    return float((9.0 * lams[1] - lams[0]) / 8.0)


def square_well_ground_state(depth: float, halfwidth: float) -> float:
    """Ground state of -u'' - depth * 1_{|x| < a} by bisection.

    Solves sqrt(depth - K^2) * tan(a * sqrt(depth - K^2)) = K on the first
    branch; the eigenvalue is -K^2.
    """
    if depth <= 0.0 or halfwidth <= 0.0:
        raise NoBoundStateError("square well needs positive depth and width")
    a = halfwidth

    def f(k):
        q = np.sqrt(depth - k * k)
        return q * np.tan(a * q) - k

    k_hi = np.sqrt(depth) * (1.0 - 1e-14)
    if a * np.sqrt(depth) >= np.pi / 2.0:
        # ground state stays on the first tan branch
        k_hi = min(k_hi, np.sqrt(depth - (np.pi / (2 * a) * (1 - 1e-12)) ** 2))
        k_hi = np.sqrt(depth - 1e-30) if not np.isfinite(k_hi) else k_hi
    lo = 1e-14
    if f(k_hi) < 0:  # extremely shallow well: root close to k_hi
        k_hi = np.sqrt(depth) * (1 - 1e-16)
    from scipy.optimize import brentq  # scipy.optimize is slow to import

    k = brentq(f, lo, k_hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    return -(k * k)


def _fd_lowest(v_nodes, hx, k=1):
    """k lowest Dirichlet eigenvalues of -d^2/dx^2 + diag(v) on a uniform grid."""
    d = 2.0 / hx**2 + v_nodes
    e = np.full(len(v_nodes) - 1, -1.0 / hx**2)
    return eigvalsh_tridiagonal(d, e, select="i", select_range=(0, k - 1))


def _cell_averages(fun, nodes, hx):
    """Gauss-Legendre cell averages of fun over [x - hx/2, x + hx/2]."""
    xq = nodes[:, None] + 0.5 * hx * _GQ8[None, :]
    return (fun(xq) * _GW8[None, :]).sum(axis=1) / 2.0


def squeezed_1d_eigenvalue(
    g,
    eps: float,
    beta: float,
    *,
    cells_per_eps: int = 8,
    domain_halfwidth: float | None = None,
):
    """Lowest eigenvalue of -d^2/dt^2 + (beta/eps) g((beta/eps) t), or None.

    g is the transverse profile on (-beta, beta); the operator acts on a
    Dirichlet interval sized by the expected decay length (20 / sqrt|lambda|
    by default).  Second-order finite differences with the potential
    cell-averaged (so jump edges aligned with the grid keep clean h^2
    behavior) and Richardson extrapolation over the (h, h/2) grid pair.
    Returns None when no negative eigenvalue exists.
    """
    if not 0.0 < eps <= beta:
        raise ValueError(f"need 0 < eps <= beta, got eps={eps}, beta={beta}")
    ratio = beta / eps

    def v(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) < eps, ratio * g(np.clip(ratio * x, -beta, beta)), 0.0)

    T = domain_halfwidth
    if T is None:
        tq = beta * _GQ8 * (1 - 1e-12)
        integral = float(np.sum(beta * _GW8 * g(tq)))
        lambda_est = -(integral**2) / 4.0 if integral < 0 else -1.0
        T = 20.0 / np.sqrt(max(abs(lambda_est), 1e-2))
    hx = eps / cells_per_eps
    # keep +-eps on grid nodes for both Richardson grids
    T = hx * int(np.ceil(T / hx))
    lams = []
    for step in (hx, hx / 2.0):
        n = int(round(2 * T / step))
        nodes = -T + step * np.arange(1, n)
        lams.append(_fd_lowest(_cell_averages(v, nodes, step), step)[0])
    lam = (4.0 * lams[1] - lams[0]) / 3.0
    return float(lam) if lam < 0.0 else None


def cusp_operator_eigs(
    d: float,
    k: int = 1,
    x_max: float | None = None,
    n: int = 4000,
):
    """k lowest eigenvalues of -f'' + x^d f on (0, X), Dirichlet at both ends.

    X must satisfy X^d >= E_k + 10 so the Dirichlet truncation is inert; a
    user-supplied X violating the margin raises DomainSizeError, otherwise X
    grows automatically until the margin holds.  Finite differences with
    Richardson extrapolation over (n, 2n) interior points.
    """
    if d <= 1.0:
        raise ValueError("cusp exponent d must exceed 1")
    if k < 1:
        raise ValueError("need k >= 1")

    def solve(X):
        lams = []
        for nn in (n, 2 * n):
            hx = X / (nn + 1)
            nodes = hx * np.arange(1, nn + 1)
            lams.append(_fd_lowest(nodes**d, hx, k=k))
        return (4.0 * lams[1] - lams[0]) / 3.0

    user_fixed = x_max is not None
    X = x_max if user_fixed else (4.0 * k + 10.0) ** (1.0 / d)
    for _ in range(8):
        E = solve(X)
        if user_fixed:
            if X**d >= E[-1] + 10.0:
                return E
            raise DomainSizeError(
                f"x_max={X} too small: potential at the boundary ({X**d:.3f}) "
                f"is below E_{k} + 10 = {E[-1] + 10.0:.3f}"
            )
        # automatic sizing aims well past the minimal margin so the Dirichlet
        # wall sits deep in the tunneling region
        if X**d >= 2.0 * E[-1] + 30.0:
            return E
        X = (2.0 * E[-1] + 30.0) ** (1.0 / d) * 1.05
    raise DomainSizeError("domain growth did not reach the potential margin")


@dataclass(frozen=True)
class WedgeParams:
    """Opening angle phi in (0, pi), strength alpha < 0, and the essential-
    spectrum infimum Theta of the magnetic wedge operator (an input here)."""

    phi: float
    alpha: float
    theta: float

    def __post_init__(self):
        if not 0.0 < self.phi < np.pi:
            raise ValueError(f"phi must lie in (0, pi), got {self.phi}")
        if self.alpha >= 0.0:
            raise ValueError(f"alpha must be negative, got {self.alpha}")


@dataclass(frozen=True)
class WedgeInfimum:
    value: float
    argmin: tuple
    negative: bool
    refined: bool


def wedge_F(params: WedgeParams, x, y):
    """Criterion function of the magnetic wedge:

    F(x, y) = 1 + x^4/4 - x^2 Theta
            + (alpha/sqrt(pi)) x exp(-y^2 tan^2(phi/2)) (1 + erf(y)).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    tan2 = np.tan(params.phi / 2.0) ** 2
    return (
        1.0
        + x**4 / 4.0
        - x**2 * params.theta
        + params.alpha / np.sqrt(np.pi) * x * np.exp(-(y**2) * tan2) * (1.0 + erf(y))
    )


def wedge_F_infimum(params: WedgeParams) -> WedgeInfimum:
    """Infimum of F over the open quadrant (0, inf)^2.

    Coarse log-spaced 200 x 200 grid scan over [1e-3, 1e3]^2 followed by
    Nelder-Mead refinement in log coordinates (which keeps the iterates
    strictly positive); the `negative`
    flag reports inf F < -1e-8, the discrete-spectrum criterion.
    """
    g = np.geomspace(1e-3, 1e3, 200)
    X, Y = np.meshgrid(g, g, indexing="ij")
    vals = wedge_F(params, X, Y)
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    best = (g[i], g[j])
    f0 = float(vals[i, j])

    def in_log(u):
        return float(wedge_F(params, np.exp(u[0]), np.exp(u[1])))

    from scipy.optimize import minimize

    out = minimize(
        in_log,
        np.log(np.asarray(best)),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000},
    )
    if out.success and out.fun <= f0:
        value = float(out.fun)
        argmin = (float(np.exp(out.x[0])), float(np.exp(out.x[1])))
        refined = True
    else:
        logger.warning("wedge_F_infimum: refinement did not converge; grid value used")
        value, argmin, refined = f0, best, False
    return WedgeInfimum(
        value=value, argmin=argmin, negative=bool(value < -1e-8), refined=refined
    )
