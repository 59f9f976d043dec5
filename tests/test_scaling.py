import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsrwm import scaling
from gibbsrwm.estimators import (CYLINDER_FUNCTIONS, CylinderFunction,
                                 acceptance_rate, esjd_first_coord,
                                 limiting_form, pool_replicas)
from gibbsrwm.lattice import build_box, build_line
from gibbsrwm.models import gaussian_product, gff
from gibbsrwm.oracle import build_precision, gaussian_exact_samples
from gibbsrwm.sampler import ProposalSpec, chain_rng, run_replicas
from gibbsrwm.scaling import (c_mc_oracle, c_theoretical, efficiency,
                              limiting_form_quadrature, mosco_m2_check,
                              product_chain_family, sweep_n, sweep_tau,
                              tau_star)


@pytest.fixture
def captured_runs(monkeypatch):
    """Every run_replicas call scaling makes: one list of runs per call."""
    calls = []

    def capture(*args, **kwargs):
        runs = run_replicas(*args, **kwargs)
        calls.append(runs)
        return runs

    monkeypatch.setattr(scaling, "run_replicas", capture)
    return calls

OPT = 2.381202494517  # argmax of u^2 * 2*Phi(-u/2), to 1e-10


class TestCTheoretical:
    def test_tau_zero(self):
        assert c_theoretical(0.0, 1.0) == 1.0
        assert c_theoretical(0.0, 3.7) == 1.0

    def test_optimal_point(self):
        assert c_theoretical(2.38, 1.0) == pytest.approx(0.2338, abs=5e-4)

    def test_large_tau_vanishes(self):
        assert c_theoretical(60.0, 1.0) < 1e-100

    def test_range(self):
        for tau in (0.0, 0.5, 2.0, 10.0):
            assert 0.0 < c_theoretical(tau, 1.0) <= 1.0

    def test_within_4_ulp_of_mpmath(self):
        # The error of erfc itself, at the argument c_theoretical forms.
        import mpmath

        worst = 0.0
        with mpmath.workdps(40):
            for ts in np.linspace(0.0, 12.0, 601):
                ref = mpmath.erfc(mpmath.mpf(ts / (2.0 * math.sqrt(2.0))))
                ulp = math.ulp(float(ref))
                worst = max(worst, float(abs(c_theoretical(ts, 1.0) - ref)) / ulp)
        assert worst <= 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            c_theoretical(1.0, 0.0)
        with pytest.raises(ValueError):
            c_theoretical(-1.0, 1.0)

    @given(st.floats(0.01, 10.0), st.floats(0.05, 20.0), st.floats(0.1, 10.0))
    @settings(max_examples=100)
    def test_depends_only_on_tau_times_s(self, tau, s, lam):
        a = c_theoretical(tau, s)
        b = c_theoretical(tau * lam, s / lam)
        assert abs(a - b) <= 1e-12


class TestCMcOracle:
    def test_tau_zero_every_draw_accepts(self):
        est = c_mc_oracle(0.0, 1.0, 1000, seed=1)
        assert est.value == 1.0 and est.std_error == 0.0

    def test_matches_theory_within_4se(self):
        for i, ts in enumerate((0.5, 1.0, 2.38, 4.0)):
            est = c_mc_oracle(ts, 1.0, 1_000_000, seed=10 + i)
            assert abs(est.value - c_theoretical(ts, 1.0)) <= 4 * est.std_error

    def test_split_scale_consistency(self):
        a = c_mc_oracle(1.0, 2.0, 200_000, seed=5)
        b = c_theoretical(1.0, 2.0)
        assert abs(a.value - b) <= 4 * a.std_error

    def test_validation(self):
        with pytest.raises(ValueError):
            c_mc_oracle(1.0, 1.0, 0, seed=0)


class TestTauStar:
    def test_unit_s(self):
        assert tau_star(1.0) == pytest.approx(OPT, abs=1e-6)

    def test_relative_gap_to_nominal_constant(self):
        # the optimizer's 2.3812/s sits within 1e-3 of 2.38/s in relative terms
        for s in (0.5, 1.0, 2.0, 5.0):
            assert abs(tau_star(s) * s - 2.38) / 2.38 <= 1e-3

    def test_product_constant_across_s(self):
        prods = [tau_star(s) * s for s in (0.5, 1.0, 2.0, 5.0)]
        assert max(prods) - min(prods) <= 1e-6

    def test_acceptance_at_optimum(self):
        for s in (0.5, 1.0, 2.0):
            assert c_theoretical(tau_star(s), s) == pytest.approx(0.234, abs=1e-3)

    def test_equals_scipy_golden_search(self):
        from scipy.optimize import minimize_scalar

        for s in (1e-3, 0.37, 1.0, 2.5, 40.0):
            ref = minimize_scalar(lambda t: -efficiency(t, s),
                                  bracket=(1e-8, 2.38 / s, 20.0 / s),
                                  method="golden", options={"xtol": 1e-10})
            assert tau_star(s) == ref.x

    def test_is_a_maximum(self):
        t = tau_star(1.0)
        assert efficiency(t, 1.0) > efficiency(t - 0.01, 1.0)
        assert efficiency(t, 1.0) > efficiency(t + 0.01, 1.0)


class TestSweepTau:
    def test_grid_zero_trivial(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(10, m.neighborhood)
        curve = sweep_tau(m, w, [0.0], steps=200, replicas=2, seed=1, s_hat=1.0)
        row = curve.rows[0]
        assert row.acceptance.value == 1.0
        assert row.esjd.value == 0.0
        assert row.c_theory == 1.0

    def test_acceptance_monotone_and_theory_columns(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(25, m.neighborhood)
        curve = sweep_tau(m, w, [0.5, 1.5, 3.0, 6.0], steps=4000, replicas=4,
                          seed=2)
        accs = [r.acceptance.value for r in curve.rows]
        ses = [r.acceptance.std_error for r in curve.rows]
        for (a, sa), (b, sb) in zip(zip(accs, ses), zip(accs[1:], ses[1:])):
            assert b <= a + 2 * math.hypot(sa, sb)
        cs = [r.c_theory for r in curve.rows]
        assert all(x > y for x, y in zip(cs, cs[1:]))  # strictly decreasing
        for r in curve.rows:
            assert r.efficiency_theory == pytest.approx(r.tau**2 * r.c_theory)

    def test_efficiency_theory_unimodal_on_default_grid(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(10, m.neighborhood)
        grid = [0.5 + 0.25 * k for k in range(23)]
        curve = sweep_tau(m, w, grid, steps=100, replicas=1, seed=3, s_hat=1.0)
        eff = [r.efficiency_theory for r in curve.rows]
        slopes = np.sign(np.diff(eff))
        flips = np.count_nonzero(np.diff(slopes) != 0)
        assert flips == 1

    def test_invalid_grid(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(5, m.neighborhood)
        with pytest.raises(ValueError):
            sweep_tau(m, w, [], steps=10, replicas=1, seed=0, s_hat=1.0)
        with pytest.raises(ValueError):
            sweep_tau(m, w, [2.0, 1.0], steps=10, replicas=1, seed=0, s_hat=1.0)


class TestStackedSweep:
    """sweep_tau runs its whole grid as one run_replicas call, replica r on
    chain id r at every tau; every chain and every curve column equals
    per-point runs."""

    @pytest.mark.parametrize("family", ["standard_normal", "uniform"])
    @pytest.mark.parametrize("init,burn_steps", [("exact_gaussian", None),
                                                 ("burn_in", 150)])
    def test_blocks_equal_per_point_runs(self, captured_runs, family, init,
                                         burn_steps):
        m = gff(0.7, 0.3, d=1)
        w = build_box(1, 5, m.neighborhood, "constant", 0.4)
        grid = [0.5, 1.5, 2.38, 3.0, 6.0]
        replicas, steps, seed = 2, 300, 41
        curve = sweep_tau(m, w, grid, steps, replicas, seed,
                          increment_family=family, init=init,
                          burn_steps=burn_steps)
        assert [len(runs) for runs in captured_runs] == [10]
        (stacked,) = captured_runs
        for ti, tau in enumerate(grid):
            solo = run_replicas(m, w, ProposalSpec(tau, w.n, family), steps,
                                seed, replicas, chain_ids=range(replicas),
                                recording="summary", init=init,
                                burn_steps=burn_steps)
            for a, b in zip(stacked[ti * replicas:(ti + 1) * replicas], solo):
                for field in ("seed", "chain_id", "steps", "tau", "n",
                              "records", "states", "first_coord_path"):
                    assert getattr(a, field) == getattr(b, field), field
                for field in ("steps", "accept_count", "jump_sq_sum", "dh_sum",
                              "nonfinite_dh"):
                    assert getattr(a.summary, field) == getattr(b.summary, field)
                assert np.array_equal(a.summary.batch_acc, b.summary.batch_acc)
                assert np.array_equal(a.summary.batch_jump, b.summary.batch_jump)
                assert np.array_equal(a.final_state.values, b.final_state.values)
            row = curve.rows[ti]
            assert row.tau == tau
            assert row.acceptance == pool_replicas(
                acceptance_rate(r.summary) for r in solo)
            assert row.esjd == pool_replicas(
                esjd_first_coord(r.summary, w.n) for r in solo)

    def test_benchmark_grid_is_one_block(self, captured_runs):
        # 9 tau x 8 replicas at n = 100: one call, so one factorization.
        m = gaussian_product(1.0, d=1)
        w = build_line(100, m.neighborhood)
        grid = [round(1.38 + 0.25 * k, 2) for k in range(9)]
        sweep_tau(m, w, grid, steps=2, replicas=8, seed=1, s_hat=1.0)
        assert [len(runs) for runs in captured_runs] == [72]
        assert [r.chain_id for r in captured_runs[0]] == list(range(8)) * 9
        assert [r.tau for r in captured_runs[0]] == [t for t in grid
                                                      for _ in range(8)]

    def test_grid_above_the_old_block_size_is_one_call(self, captured_runs,
                                                       monkeypatch):
        # 11 tau x 8 replicas x 100 sites = 8 800 rows x sites, more than one
        # 8 192-site block: still one call, each chain id's increments drawn
        # once per chunk and shared by its 11 rows.
        m = gaussian_product(1.0, d=1)
        w = build_line(100, m.neighborhood)
        grid = [round(1.38 + 0.25 * k, 2) for k in range(11)]
        draws = []
        draw = ProposalSpec.draw_increments

        def count(self, rng, shape, out=None):
            draws.append(shape)
            return draw(self, rng, shape, out)

        monkeypatch.setattr(ProposalSpec, "draw_increments", count)
        steps = 3
        sweep_tau(m, w, grid, steps=steps, replicas=8, seed=1, s_hat=1.0)
        assert [len(runs) for runs in captured_runs] == [88]
        assert [r.chain_id for r in captured_runs[0]] == list(range(8)) * 11
        assert [r.tau for r in captured_runs[0]] == [t for t in grid
                                                      for _ in range(8)]
        # 8 chain ids x one chunk of all the steps (88 rows fit one chunk).
        assert draws == [(steps, w.n)] * 8

    def test_n_sweep_runs_one_point_per_window(self, captured_runs):
        sweep_n(product_chain_family(1.0), [2, 3], tau=1.0, steps=50, seed=5,
                replicas=2)
        assert [[r.chain_id for r in runs] for runs in captured_runs] == \
            [[0, 1], [2, 3]]


class TestSweepN:
    def test_single_site_runs(self):
        rows = sweep_n(product_chain_family(1.0), [1], tau=1.0, steps=500,
                       seed=5, replicas=2)
        assert rows[0].n == 1
        assert 0.0 <= rows[0].acceptance.value <= 1.0

    def test_gaps_shrink_for_product_family(self):
        rows = sweep_n(product_chain_family(1.0), [4, 32, 256], tau=1.0,
                       steps=6000, seed=6, replicas=4)
        gaps = [r.gap for r in rows]
        ses = [r.acceptance.std_error for r in rows]
        assert gaps[-1] <= gaps[0] + 2 * math.hypot(ses[0], ses[-1])
        assert rows[0].c_theory == pytest.approx(c_theoretical(1.0, 1.0))

    def test_large_n_acceptance_near_limit(self):
        # tau=1, s=1: limiting acceptance 2*Phi(-1/2) ~ 0.6171
        rows = sweep_n(product_chain_family(1.0), [400], tau=1.0, steps=20_000,
                       seed=12, replicas=4)
        assert abs(rows[0].acceptance.value - c_theoretical(1.0, 1.0)) <= 0.01

    def test_requires_increasing_ns(self):
        with pytest.raises(ValueError):
            sweep_n(product_chain_family(1.0), [8, 4], tau=1.0, steps=10, seed=0)


class TestMoscoM2:
    def test_constant_function_all_zero(self):
        f = CylinderFunction("const", 1,
                             value=lambda x: np.ones(x.shape[:-1]),
                             gradient=lambda x: np.zeros_like(x),
                             sup_value=1.0, sup_gradient=0.0)
        table = mosco_m2_check(f, product_chain_family(1.0), [4, 8], tau=1.0,
                               steps=400, seed=7, replicas=2)
        assert all(r.empirical.value == 0.0 for r in table.rows)
        assert table.limiting.value == 0.0

    def test_tau_zero_degenerate(self):
        f = CYLINDER_FUNCTIONS["sin_x1"]
        table = mosco_m2_check(f, product_chain_family(1.0), [4, 8], tau=0.0,
                               steps=400, seed=8, replicas=2)
        assert all(r.empirical.value == 0.0 and r.gap == r.limiting.value == 0.0
                   for r in table.rows)

    def test_function_must_fit_smallest_window(self):
        f = CYLINDER_FUNCTIONS["gauss_bump_x1x2"]
        with pytest.raises(ValueError):
            mosco_m2_check(f, product_chain_family(1.0), [1, 8], tau=1.0,
                           steps=100, seed=0)

    def test_rows_carry_shared_limiting_value(self):
        f = CYLINDER_FUNCTIONS["sin_x1"]
        table = mosco_m2_check(f, product_chain_family(1.0), [4, 8], tau=2.38,
                               steps=2000, seed=9, replicas=2)
        assert all(r.limiting == table.limiting for r in table.rows)
        assert all(r.gap == abs(r.empirical.value - table.limiting.value)
                   for r in table.rows)

    def test_quadrature_limiting_value(self):
        f = CYLINDER_FUNCTIONS["sin_x1"]
        model = gaussian_product(1.0)
        est = limiting_form_quadrature(f, model, build_line(3, model.neighborhood),
                                       2.38, 1.0)
        expected = 0.5 * 2.38**2 * c_theoretical(2.38, 1.0) * (1 + math.exp(-2)) / 2
        assert est.value == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("name", sorted(CYLINDER_FUNCTIONS))
    def test_gff_quadrature_matches_exact_draws(self, name):
        # A constant boundary gives the leading coordinates a nonzero mean.
        f = CYLINDER_FUNCTIONS[name]
        model = gff(1.0, 1.0, d=2)
        window = build_box(2, 1, model.neighborhood, "constant", 0.8)
        quad = limiting_form_quadrature(f, model, window, 2.38, 1.2)
        draws = gaussian_exact_samples(build_precision(model, window),
                                       chain_rng(3, 0), 40_000)
        mc = limiting_form(f, 2.38, 1.2, draws)
        assert quad.std_error == 0.0
        assert abs(quad.value - mc.value) <= 4 * mc.std_error

    def test_quadratic_models_take_the_quadrature_route(self):
        f = CYLINDER_FUNCTIONS["gauss_bump_x1x2"]
        model = gff(1.0, 1.0, d=2)

        def make(n):
            return model, build_box(2, (math.isqrt(n) - 1) // 2, model.neighborhood)

        table = mosco_m2_check(f, make, [9, 25], tau=1.0, steps=200, seed=1,
                               replicas=2)
        assert table.limiting == limiting_form_quadrature(
            f, model, make(25)[1], 1.0, table.s_hat)

    def test_quadrature_memory_stays_small(self):
        model = gff(1.0, 1.0, d=2)
        window = build_box(2, 5, model.neighborhood)  # 11 x 11
        tracemalloc.start()
        try:
            limiting_form_quadrature(CYLINDER_FUNCTIONS["gauss_bump_x1x2"], model,
                                     window, 2.38, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
