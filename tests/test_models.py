import numpy as np
import pytest

from gibbsrwm.lattice import Window, build_box, build_line, nearest_neighbor
from gibbsrwm.models import (Configuration, custom_pairwise, delta_hamiltonian,
                             gaussian_product, gff, hamiltonian,
                             hamiltonian_gradient, log_density_ratio, phi4,
                             quadratic_operator)
from gibbsrwm.oracle import build_precision
from gibbsrwm.sampler import ProposalSpec, run_replicas
from test_lattice import frozen_value

RNG = np.random.default_rng(20240811)


def naive_site_energy(model, window, values, k):
    """Slow per-site energy straight from the pair-term definition."""
    x_k = values[window.index_of[k]]
    outside = frozen_value(window.boundary_mode, window.boundary_constant)
    self_e = float(model.self_energy(np.array([x_k]))[0])
    total = self_e
    for v in model.neighborhood.nonzero_offsets:
        tgt = tuple(a + b for a, b in zip(k, v))
        if tgt in window.index_of:
            nv = values[window.index_of[tgt]]
        elif outside is None:  # free boundary: term dropped
            continue
        else:
            nv = outside
        total += model.pair_diag[v] * x_k**2 - model.pair_cross[v] * x_k * nv
    return total


def naive_hamiltonian(model, config):
    return sum(naive_site_energy(model, config.window, config.values, k)
               for k in config.window.vertices)


def models_to_probe():
    return [
        ("gaussian_product", gaussian_product(1.0, d=1),
         build_box(1, 2, gaussian_product(1.0, d=1).neighborhood)),
        ("gff", gff(1.3, 0.7, d=2), build_box(2, 2, nearest_neighbor(2))),
        ("phi4", phi4(0.5, -1.0, d=1), build_box(1, 3, nearest_neighbor(1))),
    ]


def slot_loop_site_energies(model, window, values):
    """Per-site energies eps_k by a per-slot gather-then-select loop straight
    from the window definition (index_of, the boundary mode's frozen value,
    adjacency): the test-side reference for the operator's H."""
    x = np.asarray(values, dtype=float)
    n = window.n
    outside = frozen_value(window.boundary_mode, window.boundary_constant)
    if window.adjacency is None:
        slots = [(model.pair_diag[v], model.pair_cross[v],
                  [tuple(a + b for a, b in zip(k, v)) for k in window.vertices])
                 for v in model.neighborhood.nonzero_offsets]
    else:
        (diag,), (cross,) = set(model.pair_diag.values()), set(model.pair_cross.values())
        degree = max(len(nbrs) for nbrs in window.adjacency)
        slots = [(diag, cross, [window.vertices[nbrs[s]] if s < len(nbrs) else None
                                for nbrs in window.adjacency])
                 for s in range(degree)]
    eps = model.self_energy(x)
    for diag, cross, targets in slots:
        idx = np.zeros(n, dtype=np.intp)
        inside = np.zeros(n, dtype=bool)
        bval = np.zeros(n)
        active = np.ones(n, dtype=bool)
        for i, tgt in enumerate(targets):
            if tgt in window.index_of:
                idx[i], inside[i] = window.index_of[tgt], True
            elif tgt is None or outside is None:
                active[i] = False
            else:
                bval[i] = outside
        nv = np.where(inside, x[..., idx], bval)
        term = diag * x * x - cross * x * nv
        eps = eps + np.where(active, term, 0.0)
    return eps


def gather_windows():
    nb = nearest_neighbor(2)
    rect = [(i, j) for i in range(4) for j in range(3)]
    ring = [[(i - 1) % 7, (i + 1) % 7] for i in range(7)]
    return {
        "zero": build_box(2, 3, nb),
        "constant": build_box(2, 3, nb, "constant", -1.7),
        "free": build_box(2, 3, nb, "free"),
        "rect_constant": Window(rect, nb, "constant", 0.4),
        "adjacency": Window([(i, 0) for i in range(7)], nb, adjacency=ring),
    }


class TestSiteEnergiesGather:
    @pytest.mark.parametrize("name", ["zero", "constant", "free", "rect_constant",
                                      "adjacency"])
    @pytest.mark.parametrize("model", [gff(0.7, 0.3, d=2), gff(1.0, 1.0, d=2),
                                       phi4(0.25, -0.5, d=2)],
                             ids=["gff_0.7_0.3", "gff_1_1", "phi4"])
    def test_bit_equal_to_slot_loop(self, name, model):
        # The operator's H, assembled from the window's SiteTables, against the
        # slot loop's site energies summed; the two sum in different orders,
        # so they agree to rounding, not bit for bit.
        w = gather_windows()[name]
        op = quadratic_operator(model, w)
        for shape in [(w.n,), (3, w.n), (2, 4, w.n)]:
            x = RNG.standard_normal(shape)
            x.flat[0] = -0.0
            got = op.energy(x)
            want = slot_loop_site_energies(model, w, x).sum(axis=-1)
            assert np.shape(got) == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestHamiltonian:
    def test_gaussian_zero_config(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(3, m.neighborhood)
        assert hamiltonian(m, Configuration(w, np.zeros(w.n))) == 0.0

    def test_gaussian_sum_of_squares(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(2, m.neighborhood)
        assert hamiltonian(m, Configuration(w, [1.0, 2.0])) == pytest.approx(2.5)

    def test_gff_1d_hand_expansion(self):
        # beta=1, m2=1, window {-1,0,1}, zero boundary, x=(1,0,-1):
        # eps_k = x_k^2/2 + (1/2) x_k [(x_k - left) + (x_k - right)]
        #   k=-1: 1/2 + (1/2)(1*(1-0) + 1*(1-0)) = 3/2
        #   k= 0: 0
        #   k=+1: 1/2 + (1/2)((-1)*(-1-0) + (-1)*(-1-0)) = 3/2
        m = gff(1.0, 1.0, d=1)
        w = build_box(1, 1, m.neighborhood)
        cfg = Configuration(w, [1.0, 0.0, -1.0])
        assert hamiltonian(m, cfg) == pytest.approx(3.0, abs=1e-14)
        assert hamiltonian(m, cfg) == pytest.approx(naive_hamiltonian(m, cfg))

    @pytest.mark.parametrize("name,model,window", models_to_probe())
    def test_matches_naive_enumeration(self, name, model, window):
        for _ in range(5):
            cfg = Configuration(window, RNG.standard_normal(window.n))
            assert hamiltonian(model, cfg) == pytest.approx(
                naive_hamiltonian(model, cfg), rel=1e-12, abs=1e-12)

    def test_free_boundary_drops_terms(self):
        m = gff(1.0, 1.0, d=1)
        w_free = build_box(1, 1, m.neighborhood, boundary_mode="free")
        cfg = Configuration(w_free, [1.0, 0.0, -1.0])
        # the two outer pair terms disappear relative to the zero-bc value
        assert hamiltonian(m, cfg) == pytest.approx(
            naive_hamiltonian(m, cfg), rel=1e-12)
        assert hamiltonian(m, cfg) < 3.0

    def test_window_needs_the_models_neighborhood(self):
        # The window's neighborhood decides its boundary and interior, so it
        # must be the one the energy reaches over, in both directions.
        cases = [(gff(1.0, 0.1, d=1), build_line(9, boundary_mode="free")),
                 (gaussian_product(1.0, d=2), build_box(2, 2, nearest_neighbor(2)))]
        for model, w in cases:
            for call in (lambda: quadratic_operator(model, w),
                         lambda: hamiltonian(model, Configuration(w, np.zeros(w.n))),
                         lambda: build_precision(model, w),
                         lambda: run_replicas(model, w, ProposalSpec(1.0, w.n), 10, 0)):
                with pytest.raises(ValueError, match="model.neighborhood"):
                    call()

    def test_constant_boundary(self):
        m = gff(2.0, 0.0, d=1)
        w = build_box(1, 0, m.neighborhood, "constant", 3.0)
        cfg = Configuration(w, [1.0])
        # eps_0 = (2/2)*1*[(1-3) + (1-3)] = -4, plus diag 2*(1/2*2)*... see naive
        assert hamiltonian(m, cfg) == pytest.approx(naive_hamiltonian(m, cfg))


class TestDeltaHamiltonian:
    def test_identical_states(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(4, m.neighborhood)
        cfg = Configuration(w, RNG.standard_normal(4))
        assert delta_hamiltonian(m, cfg, cfg) == 0.0

    def test_gaussian_single_site(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(1, m.neighborhood)
        x = Configuration(w, [0.0])
        y = Configuration(w, [1.0])
        assert delta_hamiltonian(m, x, y) == pytest.approx(0.5)

    def test_agrees_with_direct_difference(self):
        m = gff(1.0, 1.0, d=2)
        w = build_box(2, 2, m.neighborhood)  # 5x5 window
        for _ in range(10):
            x = Configuration(w, RNG.standard_normal(w.n))
            y = Configuration(w, RNG.standard_normal(w.n))
            direct = hamiltonian(m, y) - hamiltonian(m, x)
            assert delta_hamiltonian(m, x, y) == pytest.approx(direct, rel=1e-10)

    def test_window_mismatch(self):
        m = gaussian_product(1.0, d=1)
        x = Configuration(build_line(2, m.neighborhood), [0.0, 0.0])
        y = Configuration(build_line(2, m.neighborhood), [0.0, 0.0])
        with pytest.raises(ValueError):
            delta_hamiltonian(m, x, y)


class TestLogDensityRatio:
    def test_trivials(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(1, m.neighborhood)
        x = Configuration(w, [1.0])
        y = Configuration(w, [0.0])
        assert log_density_ratio(m, x, x) == 0.0
        assert log_density_ratio(m, x, y) == pytest.approx(0.5)

    @pytest.mark.parametrize("name,model,window", models_to_probe())
    def test_antisymmetry_exact(self, name, model, window):
        for _ in range(20):
            x = Configuration(window, RNG.standard_normal(window.n))
            y = Configuration(window, RNG.standard_normal(window.n))
            forward = log_density_ratio(model, x, y)
            backward = log_density_ratio(model, y, x)
            assert abs(forward + backward) <= 1e-12


class TestGradient:
    def test_gaussian_gradient_is_identity(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(5, m.neighborhood)
        x = RNG.standard_normal(5)
        g = hamiltonian_gradient(m, w, x)
        for k in w.vertices:
            assert g[w.index_of[k]] == pytest.approx(x[w.index_of[k]])

    def test_gff_interior_formula(self):
        m = gff(1.3, 0.7, d=2)
        w = build_box(2, 2, m.neighborhood)
        x = RNG.standard_normal(w.n)
        i = w.index_of[(0, 0)]
        nbrs = [w.index_of[v] for v in ((0, 1), (0, -1), (1, 0), (-1, 0))]
        expected = 1.3 * sum(x[i] - x[j] for j in nbrs) + 0.7 * x[i]
        assert hamiltonian_gradient(m, w, x)[i] == pytest.approx(expected)

    @pytest.mark.parametrize("mode,const", [("zero", 0.0), ("constant", -0.6),
                                            ("free", 0.0)])
    def test_gff_corner_formula(self, mode, const):
        # The corner (1, 1) of a 3x3 box has two neighbors inside and two
        # outside. An outside slot's term (beta/2)(x^2 - x c) reads the frozen
        # value c, and drops out under a free boundary.
        m = gff(1.3, 0.7, d=2)
        w = build_box(2, 1, m.neighborhood, mode, const)
        x = RNG.standard_normal(w.n)
        i = w.index_of[(1, 1)]
        inside = sum(x[i] - x[w.index_of[v]] for v in ((0, 1), (1, 0)))
        outside = 0.0 if mode == "free" else 2 * (x[i] - 0.5 * const)
        expected = 1.3 * (inside + outside) + 0.7 * x[i]
        assert hamiltonian_gradient(m, w, x)[i] == pytest.approx(expected)

    def test_phi4_odd_symmetry_at_zero(self):
        m = phi4(0.5, -1.0, d=1)
        w = build_box(1, 2, m.neighborhood)
        assert hamiltonian_gradient(m, w, np.zeros(w.n))[w.index_of[(0,)]] == 0.0

    @pytest.mark.parametrize("name,model,window", models_to_probe())
    def test_matches_finite_differences(self, name, model, window):
        h = 1e-5
        for _ in range(100):
            vals = RNG.standard_normal(window.n)
            cfg = Configuration(window, vals)
            grads = hamiltonian_gradient(model, window, vals)
            i = int(RNG.integers(window.n))
            up = vals.copy(); up[i] += h
            dn = vals.copy(); dn[i] -= h
            fd = (hamiltonian(model, Configuration(window, up))
                  - hamiltonian(model, Configuration(window, dn))) / (2 * h)
            assert grads[i] == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("model", [gaussian_product(1.0, d=2),
                                       gff(1.0, 0.5, d=2), phi4(0.25, -0.5, d=2)],
                             ids=["product", "gff", "phi4"])
    @pytest.mark.parametrize("shape", [(1,), (4,)])
    def test_gradient_into_buffer_is_the_gradient(self, model, shape):
        w = build_box(2, 2, model.neighborhood, "constant", 0.3)
        op = quadratic_operator(model, w)
        assert (op.offdiag is None) == (model.family == "gaussian_product")
        x = RNG.standard_normal(shape + (w.n,))
        g = np.full_like(x, np.nan)
        assert op.gradient(x, out=g) is g
        assert np.array_equal(g, op.gradient(x))


class TestTranslationInvariance:
    def test_gradient_shift(self):
        m = gff(0.9, 1.1, d=1)
        w = build_box(1, 4, m.neighborhood)
        vals = RNG.standard_normal(w.n)
        g = hamiltonian_gradient(m, w, vals)
        g_shift = hamiltonian_gradient(m, w, np.roll(vals, 1))
        for k in range(-2, 3):
            assert g_shift[w.index_of[(k + 1,)]] == pytest.approx(
                g[w.index_of[(k,)]], abs=1e-12)


class TestModelZoo:
    def test_phi4_requires_positive_quartic(self):
        with pytest.raises(ValueError):
            phi4(0.0, 1.0, d=1)

    def test_gaussian_requires_positive_variance(self):
        with pytest.raises(ValueError):
            gaussian_product(0.0)

    def test_custom_pairwise_symmetry_enforced(self):
        with pytest.raises(ValueError):
            custom_pairwise({(1,): 1.0, (-1,): 0.5},
                            lambda x: x * x, lambda x: 2 * x)

    def test_custom_pairwise_fractional_offset_rejected(self):
        with pytest.raises(ValueError, match="integer coordinates"):
            custom_pairwise({(1.5,): 0.3, (-1.5,): 0.3},
                            lambda x: x * x, lambda x: 2 * x)

    def test_custom_pairwise_matches_definition(self):
        # eps_k = u(x_k) - J/2 * x_k * (x_{k-1} + x_{k+1})
        m = custom_pairwise({(1,): 0.8, (-1,): 0.8},
                            lambda x: 0.5 * x * x, lambda x: x)
        w = build_box(1, 1, m.neighborhood)
        cfg = Configuration(w, [1.0, 2.0, 3.0])
        expected = (0.5 * (1 + 4 + 9)
                    - 0.4 * (1 * 2) - 0.4 * (2 * 1 + 2 * 3) - 0.4 * (3 * 2))
        assert hamiltonian(m, cfg) == pytest.approx(expected)

    def test_custom_pairwise_free_boundary(self):
        # Its pair terms have no diagonal part, so dropping the exterior terms
        # (free) gives the energy of a zero exterior.
        m = custom_pairwise({(1,): 0.8, (-1,): 0.8},
                            lambda x: 0.5 * x * x, lambda x: x)
        free, zero = (Configuration(build_box(1, 1, m.neighborhood, mode),
                                    [1.0, 2.0, 3.0]) for mode in ("free", "zero"))
        assert hamiltonian(m, free) == pytest.approx(naive_hamiltonian(m, free))
        assert hamiltonian(m, free) == pytest.approx(hamiltonian(m, zero))


class TestConfiguration:
    def test_rejects_nan(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(2, m.neighborhood)
        with pytest.raises(ValueError):
            Configuration(w, [np.nan, 0.0])

    def test_rejects_wrong_length(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(2, m.neighborhood)
        with pytest.raises(ValueError):
            Configuration(w, [1.0])

    def test_values_read_only(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(2, m.neighborhood)
        cfg = Configuration(w, [1.0, 2.0])
        with pytest.raises(ValueError):
            cfg.values[0] = 9.0
