"""Translation-invariant finite-range Gibbs models on lattice windows.

Sign convention used everywhere: the window energy is H = sum_k eps_k(x) with
per-site energies eps_k, and the target density is proportional to exp(-H).
Each eps_k, the model's definition, is a self term in x_k plus quadratic
pair terms coupling x_k to its neighbors:

    eps_k(x) = self(x_k) + sum_{v != 0} [ diag_v * x_k^2 - cross_v * x_k * x_{k+v} ]

Neighbors outside the window read the frozen boundary configuration; under
free boundary conditions those pair terms are dropped.  A lattice window
must be built with the model's neighborhood, which fixes both its boundary
and the site tables the operator is assembled from.  H, its gradient and
the Metropolis dH (`gradient_dh`) are evaluated only from the one operator
of `quadratic_operator`, as H(x) = x'Qx/2 - b'x + sum_k self(x_k).
Q's off-diagonal part is a `scipy.sparse` CSR matrix, imported only when the
window has pair couplings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .lattice import (Neighborhood, SiteTables, Vertex, Window, _as_vertex,
                      nearest_neighbor, self_neighborhood)

if TYPE_CHECKING:
    from scipy import sparse


@dataclass(frozen=True)
class InteractionModel:
    """A local potential family plus the coupling structure it induces."""

    family: str
    params: tuple[tuple[str, float], ...]
    neighborhood: Neighborhood
    self_energy: Callable[[np.ndarray], np.ndarray]
    d_self_energy: Callable[[np.ndarray], np.ndarray]
    pair_diag: dict[Vertex, float] = field(default_factory=dict)
    pair_cross: dict[Vertex, float] = field(default_factory=dict)
    self_quad_coeff: float | None = None  # self(x) == coeff * x^2 when quadratic

    def __post_init__(self):
        nz = set(self.neighborhood.nonzero_offsets)
        if set(self.pair_diag) != nz or set(self.pair_cross) != nz:
            raise ValueError("pair coefficients must cover the nonzero offsets")
        for v in nz:
            nv = tuple(-c for c in v)
            if abs(self.pair_cross[v] - self.pair_cross[nv]) > 0:
                raise ValueError(f"cross coupling must satisfy J(v) == J(-v), differs at {v}")
            if abs(self.pair_diag[v] - self.pair_diag[nv]) > 0:
                raise ValueError(f"diagonal coupling must be symmetric, differs at {v}")

    @property
    def is_quadratic(self) -> bool:
        return self.self_quad_coeff is not None

    def slot_coeffs(self, tables: SiteTables) -> tuple[np.ndarray, np.ndarray]:
        """Per-slot (diag, cross) coefficient vectors matching the tables."""
        if tables.offsets is not None:
            diag = np.array([self.pair_diag[v] for v in tables.offsets])
            cross = np.array([self.pair_cross[v] for v in tables.offsets])
            return diag, cross
        # Adjacency-form windows carry no offsets: couplings must be uniform.
        diags = set(self.pair_diag.values())
        crosses = set(self.pair_cross.values())
        if len(diags) > 1 or len(crosses) > 1:
            raise ValueError("adjacency-form windows need offset-independent couplings")
        d = diags.pop() if diags else 0.0
        c = crosses.pop() if crosses else 0.0
        S = len(tables.nbr)
        return np.full(S, d), np.full(S, c)


@dataclass(eq=False)
class Configuration:
    """Real values on a window's sites; boundary values live on the window."""

    window: Window
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.window.n,):
            raise ValueError(f"need {self.window.n} values, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("configuration values must be finite")
        vals.setflags(write=False)
        self.values = vals


def _check_model_window(model: InteractionModel, window: Window):
    if window.adjacency is None and window.neighborhood != model.neighborhood:
        raise ValueError(f"{model.family} needs a window built with its own "
                         "neighborhood: build the window with model.neighborhood")


# Elements per block of QuadraticOperator.quad_forms: 256 KB of doubles, so a
# block and its transposed copies stay in cache (a 2401-site window ran 5x
# faster than in one (256, n) block).
QUAD_BLOCK = 1 << 15


@dataclass(frozen=True)
class QuadraticOperator:
    """A window energy H(x) = x'Qx/2 - b'x + sum_k remainder(x_k), with
    Q = diag(diag) + offdiag.

    Q holds the pair terms, plus the self term when the model is quadratic;
    the remainder is the self energy otherwise, and None for quadratic
    models.  Every product below treats the rows of a batch one by one: a
    row's bits do not depend on the rows beside it.  `diag` and `shift` may
    also be given in a batch's (R, n) shape, so that `gradient` of an (R, n)
    batch multiplies operands of one shape.
    """

    diag: np.ndarray                   # (n,), or (R, n) for a batch
    offdiag: sparse.csr_matrix | None  # (n, n) zero diagonal; None without pairs
    shift: np.ndarray                  # b, shaped as diag
    remainder: Callable[[np.ndarray], np.ndarray] | None = None  # elementwise

    @property
    def n(self) -> int:
        return self.diag.shape[-1]

    def gradient(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Qx - b along the last axis of `x`, the gradient of the quadratic
        part, written into `out` if given (an array of x's shape).  A 1-D
        `x` takes one sparse matvec, which sums each row of the product in
        the order a batch's product does, so its bits are the batch row's."""
        out = np.multiply(self.diag, x, out=out)
        if self.offdiag is not None:
            if x.ndim == 1:
                out += self.offdiag @ x
            else:
                rows = x.reshape(-1, self.n)
                out += (self.offdiag @ rows.T).T.reshape(x.shape)
        out -= self.shift
        return out

    def energy(self, x: np.ndarray) -> np.ndarray:
        """H along the last axis of `x`: x.(Qx - 2b)/2 plus the sum of the
        remainder."""
        h = 0.5 * (x * (self.gradient(x) - self.shift)).sum(axis=-1)
        if self.remainder is not None:
            h = h + self.remainder(x).sum(axis=-1)
        return h

    def quad_forms(self, d: np.ndarray, out: np.ndarray):
        """d_j'Qd_j for each row d_j of the (c, n) block `d`, into `out`.

        The off-diagonal product runs on a transposed copy of a few rows at
        a time (QUAD_BLOCK elements, so the copies stay in cache), and each
        row's terms are summed along a contiguous last axis: d_j'Qd_j does
        not depend on c or on the other rows.
        """
        rows = max(1, QUAD_BLOCK // self.n)
        for start in range(0, d.shape[0], rows):
            block = d[start:start + rows]
            terms = self.diag * block
            if self.offdiag is not None:
                terms += np.ascontiguousarray(
                    (self.offdiag @ np.ascontiguousarray(block.T)).T)
            terms *= block
            terms.sum(axis=-1, out=out[start:start + rows])


def quadratic_operator(model: InteractionModel, window: Window) -> QuadraticOperator:
    """Assemble Q's diagonal, its off-diagonal part and b from the tables.

    The diagonal starts from 2 * self_quad_coeff (quadratic models) and adds
    2 * diag for each slot active at the site; b adds cross * value for each
    slot that reads a frozen value; both add slot by slot, in slot order.  A
    pair term -cross * x_i * x_j puts -cross into Q_ij and Q_ji from each
    end of the pair, so each off-diagonal entry sums two equal values.
    """
    _check_model_window(model, window)
    t = window.site_tables()
    diag, cross = model.slot_coeffs(t)
    n = window.n
    start = 2.0 * model.self_quad_coeff if model.is_quadratic else 0.0
    # Row 0 holds the starting value; numpy reduces axis 0 row after row.
    q = np.vstack([np.full(n, start), np.where(t.active, 2.0 * diag[:, None], 0.0)])
    b = np.vstack([np.zeros(n), cross[:, None] * t.frozen])
    offdiag = None
    slot, i = np.nonzero(t.nbr >= 0)
    if i.size:
        from scipy import sparse

        j = t.nbr[slot, i]
        vals = np.tile(-cross[slot], 2)
        offdiag = sparse.csr_matrix(
            (vals, (np.concatenate([i, j]), np.concatenate([j, i]))), shape=(n, n))
    return QuadraticOperator(q.sum(axis=0), offdiag, b.sum(axis=0),
                             None if model.is_quadratic else model.self_energy)


def gradient_dh(d: np.ndarray, g: np.ndarray, half_q: np.ndarray,
                remainder: Callable[[np.ndarray], np.ndarray] | None,
                x: np.ndarray, rem_x: np.ndarray | None, terms: np.ndarray,
                out: np.ndarray):
    """dH of the (R, k) moves x + d from the (R, n) states x, in gradient
    form: d.g + q/2 with g = Qx - b and half_q = q/2 for q = d'Qd (the
    sampler passes sigma**2 z'Qz / 2 for d = sigma * z), plus the change of
    the operator's remainder (rem_x is its value at x).  Elementwise
    products summed along the last axis keep each row's value independent
    of R and k.

    dH is written into `out`, an (R, k) array; `terms`, a scratch array of
    d's shape, holds the products before they are summed, then x + d and
    the remainder's change.  Returns (out, remainder(x + d)), or
    (out, None) without a remainder: a caller that accepts a move takes its
    remainder from there instead of evaluating it again.
    """
    np.multiply(d, g[:, None], out=terms)
    np.add.reduce(terms, axis=-1, out=out)
    out += half_q
    if remainder is None:
        return out, None
    rem_y = remainder(np.add(x[:, None], d, out=terms))
    if np.may_share_memory(rem_y, terms):
        rem_y = rem_y.copy()  # a remainder that returns (a view of) its input
    out += np.add.reduce(np.subtract(rem_y, rem_x[:, None], out=terms), axis=-1)
    return out, rem_y


def hamiltonian(model: InteractionModel, config: Configuration) -> float:
    """Window energy H(x); the density is exp(-H)/Z."""
    return float(quadratic_operator(model, config.window).energy(config.values))


def delta_hamiltonian(model: InteractionModel, x: Configuration, y: Configuration) -> float:
    """H(y) - H(x) in the Metropolis kernel's gradient form (gradient_dh),
    with no cancellation between two large energies."""
    if y.window is not x.window:
        raise ValueError("configurations live on different windows")
    op = quadratic_operator(model, x.window)
    xs, d = x.values[None], (y.values - x.values)[None, None]  # one move
    q = np.empty(1)
    op.quad_forms(d[0], q)
    rem_x = op.remainder(xs) if op.remainder is not None else None
    dh, _ = gradient_dh(d, op.gradient(xs), 0.5 * q[:, None], op.remainder, xs,
                        rem_x, np.empty_like(d), np.empty((1, 1)))
    return float(dh[0, 0])


def log_density_ratio(model: InteractionModel, x: Configuration, y: Configuration) -> float:
    """log(psi(y)/psi(x)) = -(H(y) - H(x)); antisymmetric by construction."""
    return -delta_hamiltonian(model, x, y)


def hamiltonian_gradient(model: InteractionModel, window: Window, values: np.ndarray) -> np.ndarray:
    """Gradient of the window energy at every site, Qx - b plus the self
    terms' derivative for non-quadratic models; batch axes allowed."""
    x = np.asarray(values, dtype=float)
    g = quadratic_operator(model, window).gradient(x)
    if not model.is_quadratic:
        g += model.d_self_energy(x)
    return g


# -- Model zoo ---------------------------------------------------------------


def gaussian_product(variance: float = 1.0, d: int = 1) -> InteractionModel:
    """Independent N(0, variance) at every site."""
    if variance <= 0:
        raise ValueError("variance must be positive")
    inv2v = 0.5 / variance
    return InteractionModel(
        family="gaussian_product",
        params=(("variance", float(variance)),),
        neighborhood=self_neighborhood(d),
        self_energy=lambda x: inv2v * x * x,
        d_self_energy=lambda x: (2.0 * inv2v) * x,
        self_quad_coeff=inv2v,
    )


def gff(beta: float = 1.0, m2: float = 1.0, d: int = 2,
        neighborhood: Neighborhood | None = None) -> InteractionModel:
    """Massive Gaussian free field: H = (beta/2) x'Lx + (m2/2)|x|^2.

    L is the Dirichlet lattice Laplacian of the window (degree 2d on the
    diagonal, -1 across window edges), so boundary edges enter at full
    weight and the zero-boundary precision matrix is beta*L + m2*I.
    """
    if beta < 0 or m2 < 0 or (beta == 0 and m2 == 0):
        raise ValueError("need beta >= 0, m2 >= 0, not both zero")
    nb = neighborhood or nearest_neighbor(d)
    return InteractionModel(
        family="gff",
        params=(("beta", float(beta)), ("m2", float(m2))),
        neighborhood=nb,
        self_energy=lambda x: (0.5 * m2) * x * x,
        d_self_energy=lambda x: m2 * x,
        pair_diag={v: 0.5 * beta for v in nb.nonzero_offsets},
        pair_cross={v: 0.5 * beta for v in nb.nonzero_offsets},
        self_quad_coeff=0.5 * m2,
    )


def phi4(a: float, b: float, coupling: float = 1.0, d: int = 1,
         neighborhood: Neighborhood | None = None) -> InteractionModel:
    """Quartic per-site potential a*x^4 + b*x^2 with quadratic neighbor coupling.

    Out-of-assumptions stress model: the quartic's curvature is unbounded.
    """
    if a <= 0:
        raise ValueError("a must be positive for a normalizable density")
    nb = neighborhood or nearest_neighbor(d)
    return InteractionModel(
        family="phi4",
        params=(("a", float(a)), ("b", float(b)), ("coupling", float(coupling))),
        neighborhood=nb,
        self_energy=lambda x: (a * x * x + b) * x * x,
        d_self_energy=lambda x: (4.0 * a * x * x + 2.0 * b) * x,
        pair_diag={v: 0.5 * coupling for v in nb.nonzero_offsets},
        pair_cross={v: 0.5 * coupling for v in nb.nonzero_offsets},
    )


def custom_pairwise(couplings: dict, self_potential: Callable,
                    d_self_potential: Callable) -> InteractionModel:
    """User-supplied pairwise model: eps_k = u(x_k) - sum_v J(v) x_k x_{k+v} / 2.

    J must be symmetric (J(v) == J(-v)); the neighborhood is derived from the
    coupling support.  u and its derivative must be numpy-vectorized.  Every
    boundary mode applies, free included.
    """
    J = {_as_vertex(v): float(cv) for v, cv in couplings.items()}
    nb = Neighborhood.from_offsets(list(J))
    for v in nb.nonzero_offsets:
        J.setdefault(v, 0.0)
    origin = nb.origin
    if J.get(origin):
        raise ValueError("origin coupling belongs in the self potential")
    J.pop(origin, None)
    return InteractionModel(
        family="custom_pairwise",
        params=tuple((f"J{v}", J[v]) for v in sorted(J)),
        neighborhood=nb,
        self_energy=self_potential,
        d_self_energy=d_self_potential,
        pair_diag={v: 0.0 for v in nb.nonzero_offsets},
        pair_cross={v: 0.5 * J[v] for v in nb.nonzero_offsets},
    )
