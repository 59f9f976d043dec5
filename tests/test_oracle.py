import numpy as np
import pytest
import scipy.linalg
from scipy import sparse
from scipy.linalg import (LinAlgError, cho_solve, cho_solve_banded, cholesky,
                          cholesky_banded, solve_triangular)
from scipy.linalg.lapack import dtbtrs

from gibbsrwm import oracle, sampler
from gibbsrwm.lattice import (Neighborhood, Window, build_box, build_line,
                              nearest_neighbor)
from gibbsrwm.models import (Configuration, QuadraticOperator, gaussian_product,
                             gff, hamiltonian, phi4, quadratic_operator)
from gibbsrwm.oracle import (PrecisionMatrix, build_precision,
                             gaussian_exact_samples, gaussian_s2_exact,
                             quad_acceptance, quad_expectation_1d)
from gibbsrwm.sampler import ProposalSpec, chain_rng, run_replicas
from gibbsrwm.scaling import c_theoretical

RNG = np.random.default_rng(77)


class TestBuildPrecision:
    def test_product_gives_identity(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(3, m.neighborhood)
        prec = build_precision(m, w)
        assert np.array_equal(prec.matrix, np.eye(3))
        assert not prec.shift.any()

    def test_1d_gff_tridiagonal(self):
        # beta=1, m2=0, zero boundary: expanding the pair terms over sites
        # {-1,0,1} gives x.^2 sums with -x_i x_{i+1} couplings => tridiag(2,-1)
        m = gff(1.0, 0.0, d=1)
        w = build_box(1, 1, m.neighborhood)
        prec = build_precision(m, w)
        expected = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        assert np.allclose(prec.matrix, expected, atol=1e-14)

    @pytest.mark.parametrize("mode,const", [("zero", 0.0), ("constant", 1.3),
                                            ("free", 0.0)])
    def test_quadratic_form_matches_hamiltonian(self, mode, const):
        m = gff(0.8, 0.5, d=2)
        w = build_box(2, 2, m.neighborhood, mode, const)
        prec = build_precision(m, w)
        for _ in range(10):
            x = RNG.standard_normal(w.n)
            direct = hamiltonian(m, Configuration(w, x))
            quad = 0.5 * x @ prec.matrix @ x - prec.shift @ x
            assert direct == pytest.approx(quad, rel=1e-9, abs=1e-9)

    def test_symmetric_positive_definite(self):
        m = gff(1.0, 1.0, d=2)
        w = build_box(2, 3, m.neighborhood)
        prec = build_precision(m, w)
        assert np.array_equal(prec.matrix, prec.matrix.T)
        assert prec.factor.shape == prec.band.shape  # raises unless positive definite

    def test_rejects_non_quadratic(self):
        m = phi4(0.5, -1.0, d=1)
        w = build_box(1, 1, m.neighborhood)
        with pytest.raises(ValueError):
            build_precision(m, w)

    def test_rejects_asymmetric_matrix(self):
        # The band keeps one triangle, so an asymmetric Q is refused when
        # the band is built from the sparse operator.
        op = QuadraticOperator(np.ones(2), sparse.csr_matrix([[0.0, 0.2], [0.0, 0.0]]),
                               np.zeros(2))
        with pytest.raises(ValueError, match="symmetric"):
            PrecisionMatrix.from_operator(op)

    def test_symmetry_tolerance_on_sparse_pattern(self):
        # One asymmetric pair at the far end of a long window; the tolerance
        # is np.allclose's (atol=1e-12), as with the dense check before.
        n = 1024

        def op(value):
            off = sparse.csr_matrix(([value], ([n - 1], [n - 2])), shape=(n, n))
            return QuadraticOperator(np.ones(n), off, np.zeros(n))

        with pytest.raises(ValueError, match="symmetric"):
            PrecisionMatrix.from_operator(op(1e-9))
        prec = PrecisionMatrix.from_operator(op(5e-13))  # within atol: accepted
        assert prec.bandwidth == 1
        assert prec.band[0, n - 1] == 0.0  # only the upper triangle is kept


def dense_reference(model, window):
    """Reference dense Q (the sparse operator densified, then its diagonal
    filled in), its dense upper Cholesky factor and b."""
    op = quadratic_operator(model, window)
    Q = op.offdiag.toarray() if op.offdiag is not None else np.zeros((op.n, op.n))
    np.fill_diagonal(Q, op.diag)
    return Q, cholesky(Q, lower=False), op.shift


def dense_draws(model, window, rng, count):
    """(count, n) draws mu + U^{-1} z through the dense reference factor."""
    Q, U, shift = dense_reference(model, window)
    z = rng.standard_normal((Q.shape[0], count))
    return (cho_solve((U, False), shift)[:, None]
            + solve_triangular(U, z, lower=False)).T


RANGE2 = Neighborhood.from_offsets([(2, 0), (1, 1), (0, 1)])
L_SHAPE = [(i, j) for i in range(8) for j in range(8) if i < 3 or j < 3][::-1]
NN2 = nearest_neighbor(2)
BAND_CASES = {
    **{f"gff-d{d}-L{L}-{mode}": (gff(0.7, 0.3, d=d),
                                 build_box(d, L, nearest_neighbor(d), mode, 1.3))
       for d, L in ((1, 6), (2, 4), (3, 2))
       for mode in ("zero", "constant", "free")},
    "gff-range2": (gff(0.7, 0.3, neighborhood=RANGE2),
                   build_box(2, 4, RANGE2, "constant", 2.5)),
    "gff-l_shape": (gff(0.7, 0.3), Window(L_SHAPE, NN2)),
    "product": (gaussian_product(0.3), build_line(9)),
}


class TestBandedOracle:
    @pytest.mark.parametrize("case", sorted(BAND_CASES))
    def test_band_densifies_to_dense_q(self, case):
        model, window = BAND_CASES[case]
        Q, _, shift = dense_reference(model, window)
        prec = build_precision(model, window)
        assert prec.matrix.tobytes() == Q.tobytes()  # bit for bit, signed zeros too
        assert np.array_equal(prec.shift, shift)
        rows, cols = np.nonzero(Q - np.diag(np.diag(Q)))
        assert prec.bandwidth == (int(np.abs(rows - cols).max()) if rows.size else 0)

    @pytest.mark.parametrize("d,L", [(1, 6), (2, 4), (3, 2)])
    def test_box_bandwidth(self, d, L):
        m = gff(1.0, 1.0, d=d)
        prec = build_precision(m, build_box(d, L, m.neighborhood))
        assert prec.band.shape == ((2 * L + 1) ** (d - 1) + 1, (2 * L + 1) ** d)

    @pytest.mark.parametrize("case", sorted(BAND_CASES))
    def test_draws_and_solves_match_dense_reference(self, case):
        model, window = BAND_CASES[case]
        Q, U, shift = dense_reference(model, window)
        prec = build_precision(model, window)
        tol = 1e-13
        assert np.abs(prec.mean() - cho_solve((U, False), shift)).max() <= tol
        assert np.abs(prec.covariance() - cho_solve((U, False), np.eye(prec.n))).max() <= tol
        for k in (1, 2):
            rhs = np.eye(prec.n, k)
            assert np.abs(prec.solve(rhs) - cho_solve((U, False), rhs)).max() <= tol
        for cid, count in ((0, 1), (5, 1), (2, 3)):
            got = gaussian_exact_samples(prec, chain_rng(17, cid), count)
            ref = dense_draws(model, window, chain_rng(17, cid), count)
            assert got.shape == (count, prec.n)
            assert np.abs(got - ref).max() <= tol

    @pytest.mark.parametrize("variance", [1.0, 0.3, 2.5])
    def test_zero_bandwidth_draws_are_scaled_normals(self, variance):
        m = gaussian_product(variance, d=1)
        prec = build_precision(m, build_line(50, m.neighborhood))
        assert prec.bandwidth == 0
        scale = np.sqrt(prec.band[0])
        for cid in range(8):
            z = chain_rng(3, cid).standard_normal(prec.n)
            got = gaussian_exact_samples(prec, chain_rng(3, cid), 1)[0]
            assert np.array_equal(got, prec.mean() + z / scale)

    def test_not_positive_definite_raises(self):
        prec = PrecisionMatrix(np.array([[0.0, 2.0], [1.0, 1.0]]), np.zeros(2))
        assert np.array_equal(prec.matrix, [[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(LinAlgError):
            gaussian_exact_samples(prec, chain_rng(0, 0), 1)
        with pytest.raises(LinAlgError):
            prec.solve(np.ones(2))

    def test_singular_free_field_raises(self):
        # m2 = 0 with a free boundary: Q is the graph Laplacian, singular.
        m = gff(1.0, 0.0, d=1)
        prec = build_precision(m, build_box(1, 4, m.neighborhood, "free"))
        with pytest.raises(LinAlgError):
            prec.solve(np.ones(prec.n))

    def test_chains_from_banded_start_match_dense_start(self, monkeypatch):
        # A 21x21 free field, 8 replicas: starting from the dense reference's
        # draws changes the states in their last bits only, so every uniform
        # and accept flag is the same.
        m = gff(1.0, 1.0, d=2)
        w = build_box(2, 10, m.neighborhood, "constant", 0.5)
        args = (m, w, ProposalSpec(2.38 / np.sqrt(5.0), w.n), 250, 11)
        kw = dict(n_replicas=8, recording="full", thin=20)
        banded = run_replicas(*args, **kw)
        monkeypatch.setattr(sampler, "gaussian_exact_samples",
                            lambda prec, rng, count: dense_draws(m, w, rng, count))
        dense = run_replicas(*args, **kw)
        for a, b in zip(banded, dense):
            assert np.array_equal(a.records.u, b.records.u)
            assert np.array_equal(a.records.accepted, b.records.accepted)
            assert a.records.accepted.any() and not a.records.accepted.all()
            assert np.abs(a.states - b.states).max() <= 1e-13
            assert np.abs(a.final_state.values - b.final_state.values).max() <= 1e-13


class TestSharedFactor:
    def test_factor_computed_once_and_read_only(self):
        m = gff(1.0, 1.0, d=2)
        prec = build_precision(m, build_box(2, 3, m.neighborhood))
        U = prec.factor
        assert prec.factor is U
        assert not U.flags.writeable
        assert U.shape == prec.band.shape
        Ud = np.zeros((prec.n, prec.n))
        for k in range(prec.bandwidth + 1):
            i = np.arange(prec.n - k)
            Ud[i, i + k] = U[prec.bandwidth - k, k:]
        assert np.allclose(Ud.T @ Ud, prec.matrix, atol=1e-12)

    def test_dense_matrix_built_once_and_read_only(self):
        m = gff(1.0, 1.0, d=2)
        prec = build_precision(m, build_box(2, 2, m.neighborhood))
        Q = prec.matrix
        assert prec.matrix is Q
        assert not Q.flags.writeable

    def test_solves_bit_equal_to_fresh_factorization(self):
        m = gff(0.7, 0.3, d=2)
        prec = build_precision(m, build_box(2, 4, m.neighborhood, "constant", 1.3))
        fresh = (cholesky_banded(prec.band, lower=False), False)
        assert prec.shift.any()
        assert np.array_equal(prec.mean(), cho_solve_banded(fresh, prec.shift))
        assert np.array_equal(prec.covariance(), cho_solve_banded(fresh, np.eye(prec.n)))


DIAG_RNG = np.random.default_rng(20)
DIAGONAL_CASES = {
    "product": build_precision(gaussian_product(0.3), build_line(40)),
    # Uneven diagonal and a nonzero b, so the mean is a real solve.
    "uneven": PrecisionMatrix(np.exp(DIAG_RNG.normal(0.0, 2.0, (1, 60))),
                              DIAG_RNG.normal(0.0, 3.0, 60)),
}


class TestDiagonalPrecision:
    """Bandwidth 0 runs in numpy, bit for bit what LAPACK computes there."""

    @pytest.mark.parametrize("case", sorted(DIAGONAL_CASES))
    def test_factor_solves_and_draws_equal_lapack(self, case):
        prec = DIAGONAL_CASES[case]
        assert prec.bandwidth == 0
        U = cholesky_banded(prec.band, lower=False)
        assert np.array_equal(prec.factor, U)
        rhs = np.random.default_rng(21).normal(0.0, 5.0, (prec.n, 3))
        assert np.array_equal(prec.solve(rhs[:, 0]),
                              cho_solve_banded((U, False), rhs[:, 0]))
        assert np.array_equal(prec.solve(rhs), cho_solve_banded((U, False), rhs))
        assert np.array_equal(prec.mean(), cho_solve_banded((U, False), prec.shift))
        assert np.array_equal(prec.covariance(),
                              cho_solve_banded((U, False), np.eye(prec.n)))
        for cid, count in ((0, 1), (3, 4)):
            z = chain_rng(5, cid).standard_normal((prec.n, count))
            x, info = dtbtrs(U, z)
            assert info == 0
            got = gaussian_exact_samples(prec, chain_rng(5, cid), count)
            assert np.array_equal(got, (prec.mean()[:, None] + x).T)

    @pytest.mark.parametrize("variance", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("tau", [0.1, 1.0, 2.38, 6.0])
    def test_quad_acceptance_equals_lapack(self, monkeypatch, variance, tau):
        m = gaussian_product(variance, d=1)
        w = build_line(30, m.neighborhood)
        got = quad_acceptance(m, w, tau)
        monkeypatch.setattr(oracle, "_cholesky_band",
                            lambda ab, overwrite_ab=False: cholesky_banded(
                                ab, overwrite_ab=overwrite_ab, lower=False))
        assert got == quad_acceptance(m, w, tau)

    @pytest.mark.parametrize("bad", [0.0, -0.0, -2.0, np.nan, np.inf, -np.inf])
    def test_errors_match_cholesky_banded(self, bad):
        band = np.array([[1.0, 4.0, bad, 2.0]])
        with pytest.raises(Exception) as ref:
            cholesky_banded(band, lower=False)
        with pytest.raises(Exception) as got:
            PrecisionMatrix(band, np.zeros(4)).factor
        assert type(got.value) is type(ref.value)
        assert str(got.value) == str(ref.value)


class TestExactSampling:
    def test_identity_precision_gives_iid_normals(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(4, m.neighborhood)
        prec = build_precision(m, w)
        rng = chain_rng(12, 0)
        draws = np.stack([gaussian_exact_samples(prec, rng, 1)[0]
                          for _ in range(20_000)])
        assert abs(draws.mean()) < 4 / np.sqrt(draws.size)
        assert abs(draws.var() - 1.0) < 5 / np.sqrt(draws.size)
        offdiag = np.cov(draws.T) - np.diag(np.diag(np.cov(draws.T)))
        assert np.abs(offdiag).max() < 4 / np.sqrt(len(draws))

    def test_covariance_matches_inverse_precision(self):
        m = gff(1.0, 0.0, d=1)
        w = build_box(1, 1, m.neighborhood)
        prec = build_precision(m, w)
        cov = prec.covariance()
        rng = chain_rng(5, 0)
        draws = np.stack([gaussian_exact_samples(prec, rng, 1)[0]
                          for _ in range(100_000)])
        emp = np.cov(draws.T)
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / len(draws))
        assert np.all(np.abs(emp - cov) <= 3.5 * se)
        # lag-1 correlation of the tridiagonal chain
        r = emp[0, 1] / np.sqrt(emp[0, 0] * emp[1, 1])
        r_exact = cov[0, 1] / np.sqrt(cov[0, 0] * cov[1, 1])
        assert r == pytest.approx(r_exact, abs=0.02)

    def test_fixed_seed_reproducible(self):
        m = gff(1.0, 1.0, d=2)
        w = build_box(2, 1, m.neighborhood)
        prec = build_precision(m, w)
        a = gaussian_exact_samples(prec, chain_rng(9, 3), 1)[0]
        b = gaussian_exact_samples(prec, chain_rng(9, 3), 1)[0]
        assert np.array_equal(a, b)

    def test_batched_draws_match_single_draw_statistics(self):
        m = gff(1.0, 0.5, d=1)
        w = build_box(1, 2, m.neighborhood)
        prec = build_precision(m, w)
        xs = gaussian_exact_samples(prec, chain_rng(7, 0), 60_000)
        cov = prec.covariance()
        emp = np.cov(xs.T)
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / len(xs))
        assert np.all(np.abs(emp - cov) <= 4 * se)

    @pytest.mark.parametrize("d,L", [(1, 3), (1, 8), (2, 1), (2, 3), (2, 5),
                                     (3, 1)])
    def test_single_draw_equals_direct_formula(self, d, L):
        # x = mu + U^{-1} z through a fresh band factor, with z drawn as one
        # (n,) vector, as the single draw was computed before it went
        # through gaussian_exact_samples.
        m = gff(0.7, 0.3, d=d)
        prec = build_precision(m, build_box(d, L, m.neighborhood, "constant", 2.5))
        assert prec.shift.any()
        for cid in range(5):
            rng = chain_rng(41, cid)
            z = rng.standard_normal(prec.n)
            U = cholesky_banded(prec.band, lower=False)
            direct = prec.mean() + dtbtrs(U, z[:, None])[0][:, 0]
            got = gaussian_exact_samples(prec, chain_rng(41, cid), 1)[0]
            assert np.array_equal(got, direct)

    def test_nonzero_mean_with_constant_boundary(self):
        m = gff(1.0, 1.0, d=1)
        w = build_box(1, 1, m.neighborhood, "constant", 2.0)
        prec = build_precision(m, w)
        mu = prec.mean()
        rng = chain_rng(4, 0)
        draws = np.stack([gaussian_exact_samples(prec, rng, 1)[0]
                          for _ in range(50_000)])
        assert np.all(np.abs(draws.mean(axis=0) - mu)
                      <= 4 * draws.std(axis=0, ddof=1) / np.sqrt(len(draws)))


def dense_s2(model, window, k):
    """E[(D_k H)^2] as the Gaussian quadratic form a'Q^{-1}a, a = Q e_k:
    the reference the closed form Q_kk is checked against."""
    prec = build_precision(model, window)
    a = prec.matrix[k]
    return float(a @ prec.solve(a))


def brute_central_vertex(window):
    """Interior vertex farthest, in Chebyshev distance, from the boundary
    (lexicographic tie-break)."""
    interior = [v for v in window.vertices if v not in window.boundary]
    if not window.boundary:
        return interior[len(interior) // 2]

    def dist(v):
        return min(max(abs(a - b) for a, b in zip(v, w)) for w in window.boundary)

    best = max(dist(v) for v in interior)
    return min(v for v in interior if dist(v) == best)


# A ring of 7 with chords 3-0 and 3-5: the middle vertex 3 is the only one
# of degree 4, so its Q_kk differs from every other vertex's.
CHORD_RING = [((i - 1) % 7, (i + 1) % 7) for i in range(7)]
CHORD_RING[3] += (0, 5)
CHORD_RING[0] += (3,)
CHORD_RING[5] += (3,)

S2_CASES = {
    **{f"gff{b},{m2}-L{L}-{mode}": (gff(b, m2), build_box(2, L, NN2, mode, 2.5))
       for b, m2 in ((1.0, 1.0), (0.7, 0.3), (1.0, 0.01))
       for L in (3, 7) for mode in ("zero", "constant", "free")},
    "gff-3d": (gff(0.9, 0.2, d=3), build_box(3, 2, nearest_neighbor(3))),
    "gff-range2": (gff(0.7, 0.3, neighborhood=RANGE2),
                   build_box(2, 4, RANGE2, "constant", 2.5)),
    "gff-l_shape": (gff(0.7, 0.3), Window(L_SHAPE, NN2)),
    "gff-adjacency": (gff(0.7, 0.3), Window([(i, 0) for i in range(7)], NN2,
                                            adjacency=CHORD_RING)),
    "product0.3": (gaussian_product(0.3), build_line(7)),
    "product2.5": (gaussian_product(2.5), build_line(15)),
}


class TestS2Exact:
    def test_product_is_one(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(3, m.neighborhood)
        assert gaussian_s2_exact(m, w) == pytest.approx(1.0)

    def test_product_scales_inversely_with_variance(self):
        m = gaussian_product(4.0, d=1)
        w = build_line(3, m.neighborhood)
        assert gaussian_s2_exact(m, w) == pytest.approx(0.25)

    def test_energy_rescaling_is_linear_in_s2(self):
        # Scaling H by lam rescales both the gradient (lam) and the measure
        # (variance 1/lam), so the stationary second moment scales by lam.
        lam = 3.0
        w = build_line(3, gaussian_product(1.0, d=1).neighborhood)
        base = gaussian_s2_exact(gaussian_product(1.0, d=1), w)
        scaled = gaussian_s2_exact(gaussian_product(1.0 / lam, d=1), w)
        assert scaled == pytest.approx(lam * base)

    def test_gff_center_value(self):
        # for the zero-boundary field, D_k H = (Qx)_k so s^2 = Q_kk
        m = gff(1.0, 1.0, d=2)
        w = build_box(2, 4, m.neighborhood)
        assert gaussian_s2_exact(m, w) == 5.0

    @pytest.mark.parametrize("case", sorted(S2_CASES))
    def test_closed_form_matches_dense(self, case):
        model, window = S2_CASES[case]
        inner = window.interior_indices()
        k = inner[len(inner) // 2]
        s2 = gaussian_s2_exact(model, window)
        dense = dense_s2(model, window, k)
        assert abs(s2 - dense) <= 4 * np.spacing(max(abs(s2), abs(dense)))
        assert s2 == build_precision(model, window).matrix[k, k]

    def test_no_precision_or_factorization(self, monkeypatch):
        calls = []

        def forbidden(name):
            return lambda *args, **kwargs: calls.append(name)

        # The oracle imports the banded LAPACK routines where it calls them,
        # so they are forbidden at their source, scipy.linalg.
        monkeypatch.setattr(oracle, "build_precision", forbidden("build_precision"))
        for name in ("cholesky_banded", "cho_solve_banded"):
            monkeypatch.setattr(scipy.linalg, name, forbidden(name))
        m = gff(0.7, 0.3)
        assert gaussian_s2_exact(m, build_box(2, 5, m.neighborhood)) == 3.0999999999999996
        assert calls == []

    def test_central_vertex_is_deep_interior(self):
        # With a free boundary Q_kk is smaller on the boundary, so the value
        # shows that s^2 is taken at an interior site such as (0, 0).
        m = gff(1.0, 1.0)
        w = build_box(2, 3, m.neighborhood, "free")
        Q = build_precision(m, w).matrix
        centre, corner = w.index_of[(0, 0)], w.index_of[(-3, -3)]
        assert gaussian_s2_exact(m, w) == Q[centre, centre] > Q[corner, corner]

    @pytest.mark.parametrize("window", [
        build_box(1, 5, nearest_neighbor(1)),
        build_box(2, 4, nearest_neighbor(2)),
        build_box(3, 2, nearest_neighbor(3)),
        build_box(2, 5, RANGE2),
        build_box(2, 3, nearest_neighbor(2), "constant", 2.5),
        # Rectangle (ties along a segment) and an L shape, as vertex lists.
        Window([(i, j) for i in range(9) for j in range(4)], nearest_neighbor(2)),
        Window(L_SHAPE, NN2),
    ], ids=["box1", "box2", "box3", "box2_range2", "constant", "rectangle",
            "l_shape"])
    def test_central_vertex_matches_brute_force(self, window):
        # Every interior site of a lattice window has the same Q_kk, bit for
        # bit, so the middle interior site gives the value at the vertex
        # farthest from the boundary.
        m = gff(0.7, 0.3, neighborhood=window.neighborhood)
        k = window.index_of[brute_central_vertex(window)]
        assert gaussian_s2_exact(m, window) == build_precision(m, window).matrix[k, k]

    def test_no_interior_errors(self):
        m = gff(1.0, 1.0, d=1)
        w = build_box(1, 0, m.neighborhood)
        with pytest.raises(ValueError):
            gaussian_s2_exact(m, w)


# Windows of one and two sites, with the values the former radial (one site)
# and polar (two sites) quadratures gave for them at tol=1e-10.  The small
# taus put a boundary layer at theta = 0 that a plain rule in theta misses.
_PRODUCT, _GFF1 = gaussian_product(1.0, d=1), gff(1.0, 1.0, d=1)
QUAD_REFERENCE = {
    "product1": (_PRODUCT, build_line(1, _PRODUCT.neighborhood), [
        (1e-06, 0.999999681690114), (0.0001, 0.9999681690114084),
        (0.001, 0.9996816901403424), (0.5, 0.8440417392452608),
        (1.7, 0.5515051491878052), (5.0, 0.24223788318168368),
        (100.0, 0.012730698201951262)]),
    "product2": (_PRODUCT, build_line(2, _PRODUCT.neighborhood), [
        (1e-06, 0.9999996464466097), (0.0001, 0.9999646446609629),
        (0.001, 0.9996464466315038), (0.5, 0.8259223440443022),
        (1.7, 0.4848484848484847), (5.0, 0.12961172022151043),
        (100.0, 0.00039976015988808496)]),
    "gff1": (_GFF1, build_box(1, 0, _GFF1.neighborhood), [
        (1e-06, 0.9999994486711048), (0.0001, 0.9999448671105958),
        (0.001, 0.9994486712424105), (0.5, 0.7398530617069928),
        (1.3, 0.46236090597425755), (5.0, 0.144487910475828),
        (100.0, 0.007350725251690132)]),
    "gff2": (_GFF1, build_line(2, _GFF1.neighborhood), [
        (1e-06, 0.9999993919966382), (0.0001, 0.9999391996639461),
        (0.001, 0.9993919967555122), (0.5, 0.7096269020110016),
        (1.7, 0.285222494321317), (5.0, 0.05195924839229039),
        (100.0, 0.0001413895448265941)]),
}


def uniform_one_site_mpmath(tau):
    """Exact acceptance of uniform increments on the one-site unit Gaussian:
    for a fixed increment r, dH ~ N(tau^2 r^2 / 2, tau^2 r^2), so alpha =
    (1/sqrt 3) int_0^sqrt3 erfc(tau r / (2 sqrt 2)) dr."""
    import mpmath

    with mpmath.workdps(30):
        root3 = mpmath.sqrt(3)
        return float(mpmath.quad(lambda r: mpmath.erfc(tau * r / (2 * mpmath.sqrt(2))),
                                 [0, root3]) / root3)


class TestQuadAcceptance:
    def test_tau_zero_is_one(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(1, m.neighborhood)
        assert quad_acceptance(m, w, 0.0) == 1.0

    def test_monotone_decreasing_in_tau(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(1, m.neighborhood)
        vals = [quad_acceptance(m, w, t) for t in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("family", ["standard_normal", "uniform"])
    def test_phi4_raises_named_error(self, family, n):
        # No exact acceptance for a non-quadratic model, one site included.
        p = phi4(0.25, -0.5, d=1)
        with pytest.raises(ValueError, match="needs a quadratic model"):
            quad_acceptance(p, build_line(n, p.neighborhood), 1.0,
                            increment_family=family)

    def test_uniform_on_pair_couplings_raises_named_error(self):
        # Uniform increments need a diagonal Q; a free field has pairs.
        m = gff(1.0, 1.0, d=1)
        w = build_line(3, m.neighborhood)
        assert build_precision(m, w).bandwidth == 1
        with pytest.raises(ValueError, match="without pair couplings"):
            quad_acceptance(m, w, 1.0, increment_family="uniform")
        assert 0.0 < quad_acceptance(m, w, 1.0) < 1.0

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("model", [gaussian_product(1.0, d=1),
                                       phi4(0.25, -0.5, d=1)],
                             ids=["product", "phi4"])
    def test_input_errors_on_every_window_size(self, model, n):
        w = build_line(n, model.neighborhood)
        with pytest.raises(ValueError, match="unknown increment family"):
            quad_acceptance(model, w, 1.0, increment_family="laplace")
        with pytest.raises(ValueError, match="tau must be >= 0"):
            quad_acceptance(model, w, -0.5)

    @pytest.mark.parametrize("case", sorted(QUAD_REFERENCE))
    def test_matches_former_quadratures(self, case):
        m, w, values = QUAD_REFERENCE[case]
        for tau, ref in values:
            assert abs(quad_acceptance(m, w, tau) - ref) <= 1e-10, tau

    @pytest.mark.parametrize("tau", [0.1, 2.38])
    def test_product_n100_against_chi_square(self, tau):
        # q = xi'xi is chi^2_100, and alpha = E erfc(sigma sqrt(q) / (2 sqrt 2)).
        from scipy.integrate import quad
        from scipy.special import erfc
        from scipy.stats import chi2

        sigma = tau / 10.0
        ref, _ = quad(lambda q: erfc(sigma * np.sqrt(q) / (2.0 * np.sqrt(2.0)))
                      * chi2.pdf(q, 100), 0.0, 400.0, points=[100.0],
                      epsabs=1e-15, epsrel=1e-13, limit=200)
        m = gaussian_product(1.0, d=1)
        w = build_line(100, m.neighborhood)
        assert abs(quad_acceptance(m, w, tau) - ref) <= 1e-9

    def test_gff_box_against_dst_eigenvalues(self):
        # The zero-boundary 7x7 box has Q = L_D + m2 I, whose eigenvalues
        # are sums over the axes of 2 - 2cos(pi k / 8), k = 1..7, plus m2
        # (DST-I); Craig's integral of prod (1 + c lam)^{-1/2} by adaptive
        # quadrature is the reference.
        from scipy.integrate import quad

        m = gff(1.0, 1.0, d=2)
        w = build_box(2, 3, m.neighborhood)
        axis = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, 8) / 8.0)
        lam = (axis[:, None] + axis[None, :]).ravel() + 1.0
        assert np.allclose(np.sort(lam), np.linalg.eigvalsh(build_precision(m, w).matrix),
                           rtol=0, atol=1e-12)
        tau = 2.38 / np.sqrt(5.0)
        sigma2 = tau * tau / 49

        def f(t):
            return np.exp(-0.5 * np.log1p(sigma2 * lam / (4.0 * np.sin(t) ** 2)).sum())

        ref = 2.0 / np.pi * quad(f, 0.0, np.pi / 2, epsabs=1e-15, epsrel=1e-13,
                                 limit=200)[0]
        assert abs(quad_acceptance(m, w, tau) - ref) <= 1e-9

    def test_indefinite_precision_raises(self, monkeypatch):
        m = gaussian_product(1.0, d=1)
        w = build_line(2, m.neighborhood)
        prec = PrecisionMatrix(np.array([[0.0, 2.0], [1.0, 1.0]]), np.zeros(2))
        monkeypatch.setattr(oracle, "build_precision", lambda model, window: prec)
        with pytest.raises(LinAlgError):
            quad_acceptance(m, w, 1.0)

    def test_uniform_on_a_nonpositive_diagonal_raises(self, monkeypatch):
        m = gaussian_product(1.0, d=1)
        w = build_line(2, m.neighborhood)
        prec = PrecisionMatrix(np.array([[1.0, -1.0]]), np.zeros(2))
        monkeypatch.setattr(oracle, "build_precision", lambda model, window: prec)
        with pytest.raises(LinAlgError):
            quad_acceptance(m, w, 1.0, increment_family="uniform")

    def test_two_site_value_against_mc(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(2, m.neighborhood)
        v = quad_acceptance(m, w, 1.0)
        rng = np.random.default_rng(3)
        M = 2_000_000
        s = 1.0 / np.sqrt(2.0)
        x = rng.standard_normal((M, 2))
        r = rng.standard_normal((M, 2))
        dh = (s * x * r + 0.5 * s * s * r * r).sum(axis=1)
        acc = np.minimum(1.0, np.exp(np.minimum(-dh, 50.0)))
        assert abs(v - acc.mean()) <= 3.5 * acc.std() / np.sqrt(M)

    def test_gff_single_site_with_boundary(self):
        m = gff(1.0, 1.0, d=1)
        w = build_box(1, 0, m.neighborhood)
        v = quad_acceptance(m, w, 1.3)
        # s^2 = Q00 = 3 here; one site: precision 3 target, sigma = 1.3
        rng = np.random.default_rng(8)
        M = 2_000_000
        x = rng.standard_normal(M) / np.sqrt(3.0)
        r = rng.standard_normal(M)
        dh = 1.3 * (3.0 * x) * r + 0.5 * 1.69 * 3.0 * r * r
        acc = np.minimum(1.0, np.exp(np.minimum(-dh, 50.0)))
        assert abs(v - acc.mean()) <= 3.5 * acc.std() / np.sqrt(M)

    def test_uniform_increment_family(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(1, m.neighborhood)
        v = quad_acceptance(m, w, 1.0, increment_family="uniform")
        rng = np.random.default_rng(4)
        M = 2_000_000
        x = rng.standard_normal(M)
        r = rng.uniform(-np.sqrt(3), np.sqrt(3), M)
        dh = x * r + 0.5 * r * r
        acc = np.minimum(1.0, np.exp(np.minimum(-dh, 50.0)))
        assert abs(v - acc.mean()) <= 3.5 * acc.std() / np.sqrt(M)

    @pytest.mark.parametrize("tau, bound", [(1.7, 1e-12), (1e-4, 1e-11),
                                            (0.1, 1e-11), (100.0, 1e-11)])
    def test_uniform_against_mpmath(self, tau, bound):
        m = gaussian_product(1.0, d=1)
        w = build_line(1, m.neighborhood)
        v = quad_acceptance(m, w, tau, increment_family="uniform")
        assert abs(v - uniform_one_site_mpmath(tau)) <= bound

    @pytest.mark.parametrize("tau", [1e-160, 1e-170])
    @pytest.mark.parametrize("family", ["standard_normal", "uniform"])
    def test_tiny_tau_is_one(self, family, tau):
        # sigma^2 is subnormal at 1e-160 and underflows to 0 at 1e-170.
        m = gaussian_product(1.0, d=1)
        w = build_line(1, m.neighborhood)
        v = quad_acceptance(m, w, tau, increment_family=family)
        assert abs(v - 1.0) <= 1e-8

    def test_uniform_n10_against_mc(self):
        # Ten sites of variance 0.5 (Q = 2I), uniform increments.
        m = gaussian_product(0.5, d=1)
        w = build_line(10, m.neighborhood)
        v = quad_acceptance(m, w, 1.5, increment_family="uniform")
        rng = np.random.default_rng(6)
        M = 1_000_000
        s = 1.5 / np.sqrt(10.0)
        x = rng.standard_normal((M, 10)) / np.sqrt(2.0)
        r = rng.uniform(-np.sqrt(3), np.sqrt(3), (M, 10))
        dh = 2.0 * (s * x * r + 0.5 * s * s * r * r).sum(axis=1)
        acc = np.minimum(1.0, np.exp(np.minimum(-dh, 50.0)))
        assert abs(v - acc.mean()) <= 3.5 * acc.std() / np.sqrt(M)

    def test_uniform_gap_to_the_limit_is_two_fifths_of_gaussian(self):
        # n (alpha_n - c) is proportional to the variance of the squared
        # increment: Var(U^2) / Var(Z^2) = 0.8 / 2 for the two unit laws.
        m = gaussian_product(1.0, d=1)
        w = build_line(10_000, m.neighborhood)
        c = c_theoretical(2.38, 1.0)
        uniform = quad_acceptance(m, w, 2.38, increment_family="uniform")
        gauss = quad_acceptance(m, w, 2.38)
        assert abs((uniform - c) / (gauss - c) - 0.4) <= 1e-3

    @pytest.mark.parametrize("n", [1, 7, 100])
    def test_shared_rule_on_a_diagonal_closed_form(self, n):
        # Gaussian increments on Q = I: E exp(-c q / 2) = (1 + c)^(-n/2) in
        # closed form, against one banded factor per node.
        m = gaussian_product(1.0, d=1)
        w = build_line(n, m.neighborhood)
        for tau in (0.1, 2.38, 6.0):
            closed = oracle._craig_acceptance(tau * tau / n,
                                              lambda c: (1.0 + c) ** (-0.5 * n))
            assert abs(closed - quad_acceptance(m, w, tau)) <= 1e-14


class TestQuadExpectation1D:
    def test_normalization(self):
        assert quad_expectation_1d(lambda x: np.ones_like(x)) == pytest.approx(1.0)

    def test_cos_squared_closed_form(self):
        # E cos^2 Z = (1 + E cos 2Z) / 2 = (1 + e^-2) / 2.
        gh = quad_expectation_1d(lambda x: np.cos(x) ** 2)
        assert abs(gh - (1 + np.exp(-2)) / 2) <= 1e-14

    def test_odd_function_vanishes(self):
        assert abs(quad_expectation_1d(lambda x: x**3)) < 1e-10

    def test_nonstandard_moments(self):
        assert quad_expectation_1d(lambda x: x * x, mu=1.0, var=4.0) == \
            pytest.approx(5.0, abs=1e-8)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            quad_expectation_1d(lambda x: x, var=0.0)
