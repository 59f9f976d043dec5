"""Independent exact references: Gaussian precision algebra and quadrature.

Everything here validates the sampling/estimation path from the side:
closed-form Gaussian sampling, moments and s^2 for quadratic energies, and
the exact expected acceptance of a quadratic energy by one rule (Craig's
form of erfc) for both increment families: Gaussian increments on any
window, from Q's band; uniform increments on a diagonal Q, where the
expectation factorises over the sites.

scipy's banded LAPACK routines (`scipy.linalg`) are imported inside the
functions that call them, so importing the package, or a run that never
factors Q, does not load them.  A diagonal Q (bandwidth 0, a window without
pair couplings) is factored (`_cholesky_band`), solved and drawn from in
numpy, so it never loads `scipy.linalg`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .models import InteractionModel, QuadraticOperator, quadratic_operator
from .lattice import Window


@dataclass(frozen=True)
class PrecisionMatrix:
    """Quadratic window energy H(x) = x'Qx/2 - b'x with Q positive definite.

    Q is kept as its upper band in LAPACK `ab` layout: band[b + i - j, j] =
    Q_ij for i <= j <= i + b, where b is the bandwidth.  A lexicographically
    ordered box has b = (2L+1)^(d-1) and its Cholesky factor stays inside
    the band (Rue, JRSS-B 2001), so draws and solves cost O(n b^2) time and
    O(n b) memory.  The factor is computed on first use and shared by every
    later draw and solve on this object.
    """

    band: np.ndarray   # Q's upper band, (b + 1, n)
    shift: np.ndarray  # b, (n,)

    @classmethod
    def from_operator(cls, op: QuadraticOperator) -> PrecisionMatrix:
        """The band of Q = diag(op.diag) + op.offdiag, whose bandwidth is the
        largest |i - j| over the off-diagonal pattern (0 without pairs).

        Only Q's upper triangle is stored, so symmetry is checked here, once,
        on the sparse pattern: |Q_ij - Q_ji| <= 1e-12 + 1e-5 |Q_ji|."""
        n = op.n
        if op.offdiag is None or op.offdiag.nnz == 0:
            return cls(op.diag[None, :].copy(), op.shift)
        lower = op.offdiag.T
        excess = abs(op.offdiag - lower) - 1e-5 * abs(lower)
        if excess.max() > 1e-12:
            raise ValueError("precision matrix must be symmetric")
        pairs = op.offdiag.tocoo()
        pairs.sum_duplicates()
        i, j = pairs.row, pairs.col
        b = int(np.abs(i - j).max())
        band = np.zeros((b + 1, n))
        band[b] = op.diag
        up = j > i
        # Added onto zeros, as the sparse matrix's dense form is: -0.0 reads 0.0.
        band[b + i[up] - j[up], j[up]] += pairs.data[up]
        return cls(band, op.shift)

    @property
    def n(self) -> int:
        return self.band.shape[1]

    @property
    def bandwidth(self) -> int:
        return self.band.shape[0] - 1

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense Q (read-only, built on first read): for small windows and
        for inspection; no draw or solve uses it."""
        b, n = self.bandwidth, self.n
        Q = np.zeros((n, n))
        for k in range(1, b + 1):
            i = np.arange(n - k)
            Q[i, i + k] = Q[i + k, i] = self.band[b - k, k:]
        np.fill_diagonal(Q, self.band[b])
        Q.setflags(write=False)
        return Q

    @cached_property
    def factor(self) -> np.ndarray:
        """Upper Cholesky factor U (U'U = Q) in the same band layout
        (read-only, computed once); raises LinAlgError unless Q is positive
        definite."""
        U = _cholesky_band(self.band)
        U.setflags(write=False)
        return U

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Q^{-1} rhs through the shared factor, for rhs of shape (n,) or
        (n, k).  At bandwidth 0 it is rhs / u / u with u = diag U, the
        operations of LAPACK's dpbtrs there."""
        if self.bandwidth == 0:
            u = self.factor[0]
            return (rhs.T / u / u).T
        from scipy.linalg import cho_solve_banded

        return cho_solve_banded((self.factor, False), rhs)

    def mean(self) -> np.ndarray:
        if not self.shift.any():
            return np.zeros(self.n)
        return self.solve(self.shift)

    def covariance(self) -> np.ndarray:
        return self.solve(np.eye(self.n))


def _cholesky_band(ab: np.ndarray, overwrite_ab: bool = False) -> np.ndarray:
    """Upper Cholesky factor of the band `ab`, in the same layout, with the
    errors of scipy's cholesky_banded: ValueError for a non-finite entry,
    LinAlgError unless Q is positive definite.  At bandwidth 0 it is
    sqrt(diag) in numpy, bit for bit what LAPACK's dpbtrf computes there."""
    if ab.shape[0] > 1:
        from scipy.linalg import cholesky_banded

        return cholesky_banded(ab, overwrite_ab=overwrite_ab, lower=False)
    if not np.isfinite(ab).all():
        raise ValueError("array must not contain infs or NaNs")
    bad = np.flatnonzero(ab[0] <= 0)
    if bad.size:
        raise np.linalg.LinAlgError(
            f"{bad[0] + 1}-th leading minor not positive definite")
    return np.sqrt(ab)


def build_precision(model: InteractionModel, window: Window) -> PrecisionMatrix:
    """Banded Q and b of a quadratic model, from its quadratic operator."""
    if not model.is_quadratic:
        raise ValueError(f"{model.family} has no quadratic Hamiltonian")
    return PrecisionMatrix.from_operator(quadratic_operator(model, window))


def gaussian_exact_samples(precision: PrecisionMatrix, rng: np.random.Generator,
                           count: int) -> np.ndarray:
    """(count, n) exact draws x = mu + U^{-1} z (U'U = Q), one factorization;
    at bandwidth 0, U^{-1} z is z / diag U, as LAPACK's dtbtrs computes it."""
    z = rng.standard_normal((precision.n, count))
    if precision.bandwidth == 0:
        x = z / precision.factor[0][:, None]
    else:
        from scipy.linalg.lapack import dtbtrs

        x, _ = dtbtrs(precision.factor, z)
    return (precision.mean()[:, None] + x).T


def gaussian_s2_exact(model: InteractionModel, window: Window) -> float:
    """Exact stationary s^2 = E[(D_k H)^2] at the middle interior site k.

    By Stein's identity (integration by parts against exp(-H)) it equals
    E[D_k^2 H], the constant Q_kk for quadratic H.  The window is built with
    the model's neighborhood, so every slot is active at every interior site
    and all of them give the same Q_kk; adjacency windows have no
    boundary."""
    if not model.is_quadratic:
        raise ValueError(f"{model.family} has no quadratic Hamiltonian")
    q = quadratic_operator(model, window).diag
    inner = window.interior_indices()
    if not inner.size:
        raise ValueError("window has no interior vertex")
    return float(q[inner[len(inner) // 2]])


# -- Quadrature --------------------------------------------------------------


def quad_expectation_1d(g, mu: float = 0.0, var: float = 1.0,
                        order: int = 200) -> float:
    """E[g(X)] for X ~ N(mu, var) by Gauss-Hermite, to ~1e-8 or better for
    smooth bounded g."""
    if var <= 0:
        raise ValueError("var must be positive")
    nodes, weights = hermegauss(order)
    vals = np.asarray(g(mu + math.sqrt(var) * nodes), dtype=float)
    return float((weights * vals).sum() / math.sqrt(2.0 * math.pi))


@cache
def _craig_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes t = (pi/2) e^{-s} and weights (2/pi) w t of the 96-node
    Gauss-Legendre rule in s on [0, 20], built once (leggauss(96) costs
    milliseconds)."""
    x, w = np.polynomial.legendre.leggauss(96)
    theta = 0.5 * math.pi * np.exp(-10.0 * (x + 1.0))
    return theta, 2.0 / math.pi * (10.0 * w) * theta


def _craig_acceptance(sigma2: float, laplace) -> float:
    """(2/pi) int_0^{pi/2} laplace(c(t)) dt, c = sigma^2 / (4 sin^2 t), on
    _craig_rule's nodes.

    Given the increment xi, dH over the stationary state is Gaussian with
    mean sigma^2 q / 2 and variance sigma^2 q, q = xi'Q xi, whatever the
    law of xi, so the acceptance is E erfc(sigma sqrt(q) / (2 sqrt 2)).
    Craig's form erfc(x) = (2/pi) int_0^{pi/2} exp(-x^2 / sin^2 t) dt
    (Craig, MILCOM 1991) turns it into this integral, with laplace(c) =
    E exp(-c q / 2) the Laplace transform of q.
    A small sigma puts a boundary layer of width ~ sigma sqrt(lambda) / 2
    at t = 0, so the rule runs in s with t = (pi/2) e^{-s}: Gauss-Legendre
    nodes on s in [0, 20].  The integrand is at most 1, so the cut at
    s = 20 drops at most e^{-20}.  As n grows the integrand tends to
    exp(-x^2 / sin^2 t), which falls double-exponentially in s: 64 nodes
    miss erfc(x) there by up to 5e-8, 96 by at most 1.4e-10.
    """
    total = 0.0
    for t, wt in zip(*_craig_rule()):
        total += wt * laplace(sigma2 / (4.0 * math.sin(t) ** 2))
    return float(total)


def _gaussian_laplace(band: np.ndarray):
    """c -> E exp(-c q / 2) = det(I + cQ)^{-1/2} for Gaussian xi, from one
    banded Cholesky factor U of I + cQ: det^{-1/2} = 1 / prod diag U."""
    def laplace(c: float) -> float:
        ab = c * band
        ab[-1] += 1.0
        return math.exp(-np.log(_cholesky_band(ab, overwrite_ab=True)[-1]).sum())
    return laplace


def _uniform_laplace(u: np.ndarray):
    """c -> E exp(-c q / 2) for xi uniform on [-sqrt 3, sqrt 3]^n and a
    diagonal Q, from u = diag U = sqrt(Q_ii): a product over the sites of
    E exp(-c u^2 U^2 / 2) = (sqrt(pi) / 2) erf(y) / y, y = u sqrt(3c / 2)
    (1 at y = 0), one erf per distinct u_i, so the cost does not grow with n."""
    values, counts = np.unique(u, return_counts=True)

    def laplace(c: float) -> float:
        y = (math.sqrt(1.5 * c) * values).tolist()
        site = [0.5 * math.sqrt(math.pi) * math.erf(t) / t if t else 1.0 for t in y]
        return math.exp(float(counts @ np.log(site)))
    return laplace


def quad_acceptance(model: InteractionModel, window: Window, tau: float,
                    increment_family: str = "standard_normal") -> float:
    """Exact expected stationary acceptance E[1 ^ exp(-dH)] at sigma = tau/sqrt(n).

    One rule for both increment families (_craig_acceptance); only the
    Laplace transform of q = xi'Q xi differs: Gaussian increments take it
    from Q's band on any window, uniform increments from diag U when Q is
    diagonal (the product family, every one-site window).  Anything else,
    a non-quadratic model included, is a ValueError.  tau = 0 gives 1.
    """
    if increment_family not in ("standard_normal", "uniform"):
        raise ValueError(f"unknown increment family {increment_family!r}")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    sigma2 = tau * tau / window.n
    if sigma2 == 0.0:  # tau = 0, or tau * tau underflowed
        return 1.0
    precision = build_precision(model, window) if model.is_quadratic else None
    if precision is None or (increment_family == "uniform" and precision.bandwidth):
        raise ValueError("exact acceptance needs a quadratic model, with Gaussian "
                         "increments on any window or uniform increments on a "
                         "window without pair couplings (diagonal Q)")
    if increment_family == "standard_normal":
        return _craig_acceptance(sigma2, _gaussian_laplace(precision.band))
    # diag U, read from the factor: LinAlgError unless Q is positive definite.
    return _craig_acceptance(sigma2, _uniform_laplace(precision.factor[0]))
