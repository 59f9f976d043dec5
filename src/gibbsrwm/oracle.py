"""Independent exact references: Gaussian precision algebra and quadrature.

Everything here validates the sampling/estimation path from the side:
closed-form Gaussian sampling, moments and s^2 for quadratic energies, and
the exact expected acceptance: on any window for Gaussian increments on a
quadratic energy (from Q's band), and on one-site windows otherwise.

scipy's banded LAPACK routines (`scipy.linalg`) and `scipy.integrate` are
imported inside the functions that call them, so importing the package, or
a run that never factors Q, does not load them.  A diagonal Q (bandwidth 0,
a window without pair couplings) is factored (`_cholesky_band`), solved and
drawn from in numpy, so it never loads `scipy.linalg`.
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
                        rule: str = "gauss_hermite", order: int = 200) -> float:
    """E[g(X)] for X ~ N(mu, var), to ~1e-8 or better for smooth bounded g."""
    if var <= 0:
        raise ValueError("var must be positive")
    if rule == "gauss_hermite":
        nodes, weights = hermegauss(order)
        vals = np.asarray(g(mu + math.sqrt(var) * nodes), dtype=float)
        return float((weights * vals).sum() / math.sqrt(2.0 * math.pi))
    if rule == "adaptive":
        from scipy.integrate import quad

        sd = math.sqrt(var)

        def integrand(x):
            return g(x) * math.exp(-0.5 * ((x - mu) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))

        val, _ = quad(integrand, mu - 12 * sd, mu + 12 * sd, epsabs=1e-12, limit=200)
        return float(val)
    raise ValueError(f"unknown rule {rule!r}")


def _state_bound(energy) -> float:
    """Integration bound r for the state of a one-site window with energy
    `energy`, covering essentially all of exp(-H): r grows by 1.2 from 1
    until moving the site to +r and to -r both cost more than 35."""
    base = energy(np.zeros(1))
    r = 1.0
    while True:
        if (energy(np.array([[r], [-r]])) - base).min() > 35.0 or r > 1e6:
            return r
        r *= 1.2


def _state_kinks(energy, sigma: float, rlim: float, r: float,
                 scan_points: int = 257) -> np.ndarray:
    """Sorted states x in (-r, r) of a one-site window where the increment
    integral of the acceptance has a kink in x, with dH(x, x + sigma*rho)
    the increment's energy change:

    - where a root of dH in rho sits at an edge rho = +-rlim of the
      increment support, so a kink of the acceptance enters or leaves the
      integral: the roots of H(x +- sigma*rlim) - H(x);
    - where dH's nonzero root meets its root rho = 0, at a critical point
      of H: the roots of H(x + h) - H(x - h) for a small h.

    The roots are bracketed on a scan grid and polished by bisection; for a
    quadratic energy with minimum mu they are mu and mu -+ sigma*rlim/2.
    """
    xs = np.linspace(-r, r, scan_points)
    h = 1e-6 * r
    kinks = []
    for a, b in ((sigma * rlim, 0.0), (-sigma * rlim, 0.0), (h, -h)):
        def positive(x):
            return energy((x + a)[:, None]) - energy((x + b)[:, None]) > 0

        sign = positive(xs)
        idx = np.nonzero(sign[1:] != sign[:-1])[0]
        kinks.append(_bisect(positive, xs[idx], xs[idx + 1], sign[idx]))
    return np.unique(np.concatenate(kinks))


def _bisect(positive, lo: np.ndarray, hi: np.ndarray,
            lo_pos: np.ndarray) -> np.ndarray:
    """Midpoints of the brackets [lo, hi] after 54 halvings, each keeping
    the half where `positive` (elementwise sign test) changes; lo_pos is
    its value at lo."""
    for _ in range(54):
        mid = 0.5 * (lo + hi)
        same = positive(mid) == lo_pos
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _gauss_legendre_grid(lo: float, hi: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(m)
    half = 0.5 * (hi - lo)
    return lo + half * (nodes + 1.0), half * weights


def _increment_density(family: str):
    if family == "standard_normal":
        lim = 9.0
        def pdf(r):
            return np.exp(-0.5 * r * r) / math.sqrt(2.0 * math.pi)
        return pdf, lim
    if family == "uniform":
        lim = math.sqrt(3.0)
        def pdf(r):
            return np.where(np.abs(r) <= lim, 0.5 / lim, 0.0)
        return pdf, lim
    raise ValueError(f"unknown increment family {family!r}")


def _accept_integral_rows(energy, sigma: float, X: np.ndarray, pdf, rlim: float,
                          gl_order: int = 48, scan_points: int = 257) -> np.ndarray:
    """Per row of the (rows, 1) one-site states X, integral over the
    increment r of min(1, exp(-dH(x, x + sigma*r))) * pdf(r), with dH the
    change of the window energy `energy`.

    dH is smooth in r, so the integrand is piecewise smooth with kinks at
    the roots of dH: the roots are bracketed on a scan grid, polished by
    bisection, and each smooth piece gets its own Gauss-Legendre rule.
    """
    rows = X.shape[0]
    eps_x = energy(X)
    out = np.empty(rows)
    nodes01, w01 = np.polynomial.legendre.leggauss(gl_order)
    chunk = max(1, int(4e6) // scan_points)
    for start in range(0, rows, chunk):
        sl = slice(start, min(start + chunk, rows))
        Xc = X[sl]
        eps_c = eps_x[sl]
        m = Xc.shape[0]

        def dh_c(r):
            return energy(Xc[:, None, :] + sigma * r[..., None]) - eps_c[:, None]

        rs = np.linspace(-rlim, rlim, scan_points)
        sign = dh_c(np.broadcast_to(rs, (m, scan_points)).copy()) > 0
        flips = sign[:, 1:] != sign[:, :-1]
        ridx, cidx = np.nonzero(flips)
        counts = np.bincount(ridx, minlength=m)
        maxk = int(counts.max()) if ridx.size else 0
        # Degenerate padded slots collapse to the right endpoint.
        roots = np.full((m, maxk), rlim)
        if maxk:
            hi = roots.copy()
            lo_pos = np.zeros((m, maxk), dtype=bool)
            slot = np.arange(ridx.size) - np.repeat(np.cumsum(counts) - counts, counts)
            roots[ridx, slot] = rs[cidx]
            hi[ridx, slot] = rs[cidx + 1]
            lo_pos[ridx, slot] = sign[ridx, cidx]
            roots = _bisect(lambda r: dh_c(r) > 0, roots, hi, lo_pos)
        cuts = np.concatenate([np.full((m, 1), -rlim), roots,
                               np.full((m, 1), rlim)], axis=1)
        total = np.zeros(m)
        for p in range(cuts.shape[1] - 1):
            a, b = cuts[:, p], cuts[:, p + 1]
            half = 0.5 * (b - a)
            pts = a[:, None] + half[:, None] * (nodes01 + 1.0)
            dh = dh_c(pts)
            with np.errstate(under="ignore"):
                acc = np.where(dh <= 0, 1.0, np.exp(-np.minimum(dh, 700.0)))
            total += half * ((acc * pdf(pts)) @ w01)
        out[sl] = total
    return out


class QuadratureConvergenceError(RuntimeError):
    pass


def _craig_acceptance(model: InteractionModel, window: Window, tau: float) -> float:
    """Expected acceptance of Gaussian increments on a quadratic energy.

    Given the increment xi, dH over the stationary state is Gaussian with
    mean sigma^2 q / 2 and variance sigma^2 q, q = xi'Q xi, so the
    acceptance is E erfc(sigma sqrt(q) / (2 sqrt 2)).  Craig's form
    erfc(x) = (2/pi) int_0^{pi/2} exp(-x^2 / sin^2 t) dt (Craig, MILCOM 1991)
    and the Gaussian Laplace transform of q turn it into

        (2/pi) int_0^{pi/2} det(I + c(t) Q)^{-1/2} dt,  c = sigma^2 / (4 sin^2 t),

    with each determinant from one banded Cholesky factor of I + cQ, so
    det^{-1/2} = 1 / prod diag U.
    A small sigma puts a boundary layer of width ~ sigma sqrt(lambda) / 2
    at t = 0, so the rule runs in s with t = (pi/2) e^{-s}: Gauss-Legendre
    nodes on s in [0, 20].  The integrand is at most 1, so the cut at
    s = 20 drops at most e^{-20}.  As n grows the integrand tends to
    exp(-x^2 / sin^2 t), which falls double-exponentially in s: 64 nodes
    miss erfc(x) there by up to 5e-8, 96 by at most 1.4e-10.
    """
    band = build_precision(model, window).band
    sigma2 = tau * tau / window.n
    total = 0.0
    for t, wt in zip(*_craig_rule()):
        ab = (sigma2 / (4.0 * math.sin(t) ** 2)) * band
        ab[-1] += 1.0
        U = _cholesky_band(ab, overwrite_ab=True)
        total += wt * math.exp(-np.log(U[-1]).sum())
    return float(total)


@cache
def _craig_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes t = (pi/2) e^{-s} and weights (2/pi) w t of the 96-node
    Gauss-Legendre rule in s on [0, 20], built once (leggauss(96) costs
    milliseconds)."""
    s, w = _gauss_legendre_grid(0.0, 20.0, 96)
    theta = 0.5 * math.pi * np.exp(-s)
    return theta, 2.0 / math.pi * w * theta


def quad_acceptance(model: InteractionModel, window: Window, tau: float,
                    increment_family: str = "standard_normal",
                    tol: float = 1e-5) -> float:
    """Exact expected stationary acceptance E[1 ^ exp(-dH)] at sigma = tau/sqrt(n).

    Gaussian increments on a quadratic model integrate state and increment
    out through Craig's form of erfc on Q's band, on any window (a fixed
    rule; `tol` is not used).  Any other model or increment family needs a
    one-site window: a Gauss-Legendre rule over the state, split at the
    kinks of the increment integral (_state_kinks) and doubled until stable
    within tol, with the increment integral split exactly at the
    acceptance kinks.
    """
    pdf, rlim = _increment_density(increment_family)
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if tau == 0.0:
        return 1.0
    if model.is_quadratic and increment_family == "standard_normal":
        return _craig_acceptance(model, window, tau)
    if window.n != 1:
        raise ValueError("quadrature acceptance for non-quadratic models or "
                         "non-Gaussian increments supports one-site windows only")
    energy = quadratic_operator(model, window).energy
    r = _state_bound(energy)
    # sigma = tau at n = 1.
    cuts = np.concatenate([[-r], _state_kinks(energy, tau, rlim, r), [r]])
    # Total mass of the (possibly truncated) increment density on [-rlim, rlim].
    rg, rw = _gauss_legendre_grid(-rlim, rlim, 256)
    pdf_mass = float((rw * pdf(rg)).sum())

    def estimate(m: int) -> float:
        # m nodes on each smooth piece of the state range.
        x, wx = np.concatenate([_gauss_legendre_grid(a, b, m)
                                for a, b in zip(cuts[:-1], cuts[1:])], axis=1)
        X = x[:, None]
        eps_x = energy(X)
        dens = np.exp(-(eps_x - eps_x.min()))
        inner = _accept_integral_rows(energy, tau, X, pdf, rlim)
        num = float((wx * dens) @ inner)
        den = float((wx * dens).sum()) * pdf_mass
        return num / den

    m = 32
    prev = estimate(m)
    diff = math.inf
    while m < 1024:
        m *= 2
        cur = estimate(m)
        diff = abs(cur - prev)
        if diff < tol:
            return cur
        prev = cur
    raise QuadratureConvergenceError(
        f"state grid refinement stalled at change {diff:.2e} > {tol:g}")
