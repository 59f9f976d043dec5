import math
import tracemalloc

import numpy as np
import pytest

from gibbsrwm.estimators import (CYLINDER_FUNCTIONS, CylinderFunction,
                                 EstimateWithError, acceptance_rate,
                                 batch_means_se, delta_h_stats,
                                 dirichlet_form_empirical, esjd_first_coord,
                                 estimate_s2, ks_normal, limiting_form,
                                 pool_replicas)
from gibbsrwm.lattice import Window, build_box, build_line
from gibbsrwm.models import (QUAD_BLOCK, gaussian_product, gff,
                             hamiltonian_gradient, phi4)
from gibbsrwm.oracle import build_precision, gaussian_exact_samples, gaussian_s2_exact
from gibbsrwm.sampler import (N_BATCHES, ChainSummary, ProposalSpec,
                              StepRecords, batch_means, chain_rng,
                              run_replicas)
from gibbsrwm.scaling import c_theoretical


def summarize_records(delta_h, accepted, jump_sq) -> ChainSummary:
    """ChainSummary of whole record columns: the reference the sampler's
    streamed summaries must match."""
    steps = len(delta_h)
    if steps == 0:
        raise ValueError("no step records")
    return ChainSummary(
        steps=steps,
        accept_count=int(np.count_nonzero(accepted)),
        jump_sq_sum=float(np.sum(jump_sq)),
        dh_sum=float(np.sum(delta_h)),
        nonfinite_dh=int(np.count_nonzero(~np.isfinite(delta_h))),
        batch_acc=batch_means(accepted),
        batch_jump=batch_means(jump_sq),
    )


def make_records(delta_h, accepted, u=None, jump=None):
    delta_h = np.asarray(delta_h, dtype=float)
    accepted = np.asarray(accepted, dtype=bool)
    if u is None:
        u = np.zeros_like(delta_h)
    if jump is None:
        jump = np.where(accepted, 1.0, 0.0)
    return StepRecords(delta_h, accepted, np.asarray(u, float),
                       np.asarray(jump, float))


def make_summary(accepted, jump=None):
    accepted = np.asarray(accepted, dtype=bool)
    if jump is None:
        jump = np.where(accepted, 1.0, 0.0)
    return summarize_records(np.zeros(accepted.size), accepted,
                             np.asarray(jump, float))


class TestBatchMeans:
    def test_constant_series(self):
        assert batch_means_se(np.ones(1000)) == 0.0

    def test_single_sample(self):
        assert batch_means_se(np.array([1.0])) == 0.0

    def test_iid_matches_classic_se(self):
        x = chain_rng(1, 0).standard_normal(100_000)
        classic = x.std(ddof=1) / math.sqrt(x.size)
        assert batch_means_se(x) == pytest.approx(classic, rel=0.35)

    def test_summary_route_uses_same_rule(self):
        # Chains of 51-99 steps once kept only 50 one-sample batches.
        rng = chain_rng(6, 0)
        for steps in range(1, 301):
            acc = rng.random(steps) < 0.3
            jump = np.where(acc, rng.random(steps), 0.0)
            summary = summarize_records(np.zeros(steps), acc, jump)
            assert acceptance_rate(summary).std_error == batch_means_se(acc)
            assert esjd_first_coord(summary, 7).std_error == 7 * batch_means_se(jump)
            if 1 < steps < 2 * N_BATCHES:  # one batch per sample
                assert batch_means_se(jump) == np.std(jump, ddof=1) / math.sqrt(steps)

    def test_halving_grows_error_like_sqrt2(self):
        x = chain_rng(2, 0).standard_normal(200_000)
        full = batch_means_se(x)
        half = batch_means_se(x[: x.size // 2])
        assert half / full == pytest.approx(math.sqrt(2.0), rel=0.3)


class TestEstimateWithError:
    def test_rejects_negative_se(self):
        with pytest.raises(ValueError):
            EstimateWithError(1.0, -0.1, 10)


class TestAcceptanceRate:
    def test_all_accepted(self):
        assert acceptance_rate(make_summary(np.ones(100, dtype=bool))).value == 1.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            summarize_records([], [], [])

    def test_tau_zero_chain(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(5, m.neighborhood)
        run = run_replicas(m, w, ProposalSpec(0.0, 5), 200, seed=0)[0]
        assert acceptance_rate(run.summary).value == 1.0

    def test_value_in_unit_interval_and_recomputable(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(20, m.neighborhood)
        run = run_replicas(m, w, ProposalSpec(1.5, 20), 2000, seed=3,
                           recording="full")[0]
        est = acceptance_rate(run.summary)
        assert 0.0 <= est.value <= 1.0
        assert est.value == run.records.accepted.mean()
        assert est.std_error == batch_means_se(run.records.accepted)


class TestDeltaHStats:
    def test_tau_zero(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(5, m.neighborhood)
        run = run_replicas(m, w, ProposalSpec(0.0, 5), 300, seed=0,
                           recording="full")[0]
        stats = delta_h_stats(run.records)
        assert stats.mean.value == 0.0
        assert stats.variance.value == 0.0

    def test_known_series(self):
        rec = make_records([1.0, 2.0, 3.0], [True, True, True])
        stats = delta_h_stats(rec)
        assert stats.mean.value == pytest.approx(2.0)
        assert stats.variance.value == pytest.approx(1.0)

    def test_mean_is_half_variance_for_gaussian_target(self):
        # proposed-move energy differences at stationarity: mean ~ var/2
        m = gaussian_product(1.0, d=1)
        w = build_line(400, m.neighborhood)
        run = run_replicas(m, w, ProposalSpec(1.0, 400), 30_000, seed=4,
                           recording="full")[0]
        stats = delta_h_stats(run.records)
        assert 2 * stats.mean.value == pytest.approx(
            stats.variance.value, abs=6 * stats.variance.std_error)


class TestKsNormal:
    def test_matches_scipy_kstest(self):
        from scipy.stats import kstest

        rng = np.random.default_rng(31)
        for m in (1, 2, 50, 777, 20_000):
            x = rng.normal(rng.normal(0.0, 0.05), rng.uniform(0.8, 1.2), m)
            ref = kstest(x, "norm").statistic
            assert abs(ks_normal(x) - ref) <= 1e-14 * ref

    def test_order_free_and_exact_on_a_point(self):
        x = np.array([0.3, -1.2, 2.0, 0.0])
        assert ks_normal(x) == ks_normal(x[::-1])
        # One point at 0: the empirical CDF jumps from 0 to 1 where Phi = 1/2.
        assert ks_normal([0.0]) == 0.5


class TestEsjd:
    def test_tau_zero(self):
        summary = make_summary(np.ones(10, bool), jump=np.zeros(10))
        assert esjd_first_coord(summary, 100).value == 0.0

    def test_all_rejected(self):
        summary = make_summary(np.zeros(10, bool), jump=np.zeros(10))
        assert esjd_first_coord(summary, 100).value == 0.0

    def test_scaling_by_n(self):
        summary = make_summary(np.ones(4, bool), jump=[0.1, 0.2, 0.3, 0.4])
        assert esjd_first_coord(summary, 10).value == pytest.approx(2.5)


class TestEstimateS2:
    def test_product_unit(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(50, m.neighborhood)
        states = chain_rng(0, 0).standard_normal((400, 50))
        est = estimate_s2(m, states, window=w)
        assert est.value == pytest.approx(1.0, abs=3.5 * max(est.std_error, 1e-3))

    def test_zero_state(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(10, m.neighborhood)
        est = estimate_s2(m, np.zeros((3, 10)), window=w)
        assert est.value == 0.0

    def test_gff_matches_exact_quadratic_form(self):
        m = gff(1.0, 1.0, d=2)
        w = build_box(2, 4, m.neighborhood)  # 9x9
        prec = build_precision(m, w)
        rng = chain_rng(5, 0)
        states = np.stack([gaussian_exact_samples(prec, rng, 1)[0]
                           for _ in range(800)])
        est = estimate_s2(m, states, window=w)
        exact = gaussian_s2_exact(m, w)
        assert abs(est.value - exact) <= 3.5 * est.std_error

    def test_invariant_under_vertex_relabeling(self):
        m = gff(1.0, 1.0, d=1)
        w = build_box(1, 3, m.neighborhood)
        perm = [(1,), (-3,), (0,), (3,), (-1,), (2,), (-2,)]
        w2 = Window(perm, m.neighborhood)
        vals = chain_rng(6, 0).standard_normal((20, w.n))
        vals2 = np.empty_like(vals)
        for j, v in enumerate(w2.vertices):
            vals2[:, j] = vals[:, w.index_of[v]]
        a = estimate_s2(m, vals, window=w)
        b = estimate_s2(m, vals2, window=w2)
        assert a.value == pytest.approx(b.value, abs=1e-12)

    @pytest.mark.parametrize("model_name", ["gff", "phi4"])
    def test_blocks_give_the_whole_array_bits(self, model_name):
        # The states are evaluated QUAD_BLOCK // n at a time; T is not a
        # multiple of that block.
        if model_name == "gff":
            m = gff(1.0, 1.0, d=2)
            w = build_box(2, 7, m.neighborhood)
        else:
            m = phi4(0.25, -0.5, d=1)
            w = build_box(1, 49, m.neighborhood)
        block = QUAD_BLOCK // w.n
        states = chain_rng(7, 0).standard_normal((3 * block + 17, w.n))
        grads = hamiltonian_gradient(m, w, states)
        per_state = (grads[:, w.interior_indices()] ** 2).mean(axis=1)
        est = estimate_s2(m, states, window=w)
        assert est.value == float(per_state.mean())
        assert est.std_error == batch_means_se(per_state)
        assert est.n_samples == len(states)

    def test_memory_grows_by_less_than_one_block(self):
        m = gff(1.0, 1.0, d=2)
        w = build_box(2, 10, m.neighborhood)
        block_bytes = 8 * (QUAD_BLOCK // w.n) * w.n
        peaks = []
        for count in (300, 3000):
            states = chain_rng(8, 0).standard_normal((count, w.n))
            tracemalloc.start()
            try:
                estimate_s2(m, states, window=w)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < block_bytes, peaks

    def test_no_interior_errors(self):
        m = gff(1.0, 1.0, d=1)
        w = build_box(1, 0, m.neighborhood)
        with pytest.raises(ValueError):
            estimate_s2(m, np.zeros((2, 1)), window=w)

    def test_needs_states_on_chain_runs(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(5, m.neighborhood)
        run = run_replicas(m, w, ProposalSpec(1.0, 5), 50, seed=1)[0]
        with pytest.raises(ValueError):
            estimate_s2(m, run)


class TestCylinderFunctions:
    @pytest.mark.parametrize("name", sorted(CYLINDER_FUNCTIONS))
    def test_gradient_matches_finite_differences(self, name):
        f = CYLINDER_FUNCTIONS[name]
        rng = chain_rng(3, 0)
        pts = rng.standard_normal((200, f.n_coords)) * 1.5
        g = f.gradient(pts)
        h = 1e-6
        for axis in range(f.n_coords):
            up = pts.copy(); up[:, axis] += h
            dn = pts.copy(); dn[:, axis] -= h
            fd = (f.value(up) - f.value(dn)) / (2 * h)
            assert np.abs(g[:, axis] - fd).max() < 1e-6

    @pytest.mark.parametrize("name", sorted(CYLINDER_FUNCTIONS))
    def test_bounds_hold_on_probes(self, name):
        f = CYLINDER_FUNCTIONS[name]
        pts = chain_rng(4, 0).standard_normal((5000, f.n_coords)) * 3.0
        assert np.abs(f.value(pts)).max() <= f.sup_value + 1e-12
        norms = np.sqrt((f.gradient(pts) ** 2).sum(axis=1))
        assert norms.max() <= f.sup_gradient + 1e-12


def constant_cylinder(c=1.0):
    return CylinderFunction(
        "const", 1,
        value=lambda x: np.full(x.shape[:-1], c),
        gradient=lambda x: np.zeros_like(x),
        sup_value=abs(c), sup_gradient=0.0)


class TestDirichletFormEmpirical:
    def test_constant_function_zero(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(10, m.neighborhood)
        run = run_replicas(m, w, ProposalSpec(1.0, 10), 200, seed=1,
                           recording="full", track_first=1)[0]
        assert dirichlet_form_empirical(constant_cylinder(), run).value == 0.0

    def test_tau_zero_chain_zero(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(10, m.neighborhood)
        run = run_replicas(m, w, ProposalSpec(0.0, 10), 200, seed=1,
                           recording="full", track_first=1)[0]
        f = CYLINDER_FUNCTIONS["sin_x1"]
        assert dirichlet_form_empirical(f, run).value == 0.0

    def test_needs_tracked_path(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(10, m.neighborhood)
        run = run_replicas(m, w, ProposalSpec(1.0, 10), 50, seed=1,
                           recording="full")[0]
        with pytest.raises(ValueError):
            dirichlet_form_empirical(CYLINDER_FUNCTIONS["sin_x1"], run)

    def test_function_wider_than_window(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(1, m.neighborhood)
        run = run_replicas(m, w, ProposalSpec(1.0, 1), 50, seed=1,
                           recording="full", track_first=1)[0]
        with pytest.raises(ValueError):
            dirichlet_form_empirical(CYLINDER_FUNCTIONS["gauss_bump_x1x2"], run)

    def test_converges_to_limiting_form(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(200, m.neighborhood)
        f = CYLINDER_FUNCTIONS["sin_x1"]
        run = run_replicas(m, w, ProposalSpec(2.38, 200), 60_000, seed=7,
                           track_first=1)[0]
        emp = dirichlet_form_empirical(f, run)
        scale = 0.5 * 2.38**2 * c_theoretical(2.38, 1.0)
        limit = scale * (1 + math.exp(-2)) / 2
        assert abs(emp.value - limit) <= 3.5 * emp.std_error + 0.01


class TestLimitingForm:
    def test_constant_zero(self):
        samples = np.zeros((50, 1))
        est = limiting_form(constant_cylinder(), 1.0, 1.0, samples)
        assert est.value == 0.0

    def test_tau_zero(self):
        f = CYLINDER_FUNCTIONS["sin_x1"]
        est = limiting_form(f, 0.0, 1.0,
                            np.random.default_rng(0).standard_normal((100, 1)))
        assert est.value == 0.0

    def test_gaussian_cos2_identity(self):
        f = CYLINDER_FUNCTIONS["sin_x1"]
        samples = chain_rng(8, 0).standard_normal((200_000, 1))
        est = limiting_form(f, 2.38, 1.0, samples)
        scale = 0.5 * 2.38**2 * c_theoretical(2.38, 1.0)
        exact = scale * (1 + math.exp(-2)) / 2
        assert abs(est.value - exact) <= 3.5 * est.std_error


class TestPoolReplicas:
    def test_single_passthrough(self):
        e = EstimateWithError(1.0, 0.1, 10)
        assert pool_replicas([e]) == e

    def test_mean_of_values(self):
        pooled = pool_replicas([EstimateWithError(1.0, 0.1, 10),
                                EstimateWithError(3.0, 0.1, 10)])
        assert pooled.value == 2.0
        assert pooled.n_samples == 20

    def test_se_shrinks_with_replicas(self):
        rng = chain_rng(9, 0)
        ests = [EstimateWithError(float(rng.standard_normal()), 1.0, 1)
                for _ in range(16)]
        pooled = pool_replicas(ests)
        assert pooled.std_error < 1.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            pool_replicas([])
