import math
import time

import numpy as np
import pytest

from gibbsrwm import sampler
from gibbsrwm.lattice import build_box, build_line
from gibbsrwm.models import (Configuration, custom_pairwise, gaussian_product,
                             gff, phi4, zeros_configuration)
from gibbsrwm.oracle import build_precision, gaussian_exact_sample
from gibbsrwm.sampler import (ProposalSpec, accept_prob, chain_rng, init_state,
                              propose, run_chain, run_replicas, step)


class TestProposalSpec:
    def test_sigma(self):
        assert ProposalSpec(2.38, 100).sigma == pytest.approx(0.238)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProposalSpec(-1.0, 10)
        with pytest.raises(ValueError):
            ProposalSpec(1.0, 0)
        with pytest.raises(ValueError):
            ProposalSpec(1.0, 10, "cauchy")

    @pytest.mark.parametrize("family", ["standard_normal", "uniform"])
    def test_increment_moments(self, family):
        spec = ProposalSpec(1.0, 1, family)
        x = spec.draw_increments(chain_rng(3, 0), 200_000)
        n = x.size
        assert abs(x.mean()) < 4 / math.sqrt(n)
        assert abs(x.var() - 1.0) < 5 / math.sqrt(n)

    def test_uniform_bounded(self):
        spec = ProposalSpec(1.0, 1, "uniform")
        x = spec.draw_increments(chain_rng(3, 0), 10_000)
        assert np.all(np.abs(x) <= math.sqrt(3.0))

    def test_per_coordinate_sd(self):
        spec = ProposalSpec(2.38, 10_000)
        incr = spec.sigma * spec.draw_increments(chain_rng(0, 0), 100_000)
        assert incr.std() == pytest.approx(0.0238, rel=0.01)


class TestPropose:
    def test_tau_zero_returns_same_values(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(5, m.neighborhood)
        x = Configuration(w, np.arange(5.0))
        y = propose(x, ProposalSpec(0.0, 5), chain_rng(1, 0))
        assert np.array_equal(y.values, x.values)

    def test_reproducible(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(5, m.neighborhood)
        x = zeros_configuration(w)
        spec = ProposalSpec(1.0, 5)
        a = propose(x, spec, chain_rng(2, 0))
        b = propose(x, spec, chain_rng(2, 0))
        assert np.array_equal(a.values, b.values)

    def test_state_unmodified(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(5, m.neighborhood)
        x = zeros_configuration(w)
        propose(x, ProposalSpec(1.0, 5), chain_rng(2, 0))
        assert np.array_equal(x.values, np.zeros(5))


class TestAcceptProb:
    def test_same_state_accepts(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(2, m.neighborhood)
        x = Configuration(w, [0.3, -0.7])
        assert accept_prob(m, x, x) == 1.0

    def test_downhill_accepts(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(1, m.neighborhood)
        assert accept_prob(m, Configuration(w, [3.0]), Configuration(w, [0.0])) == 1.0

    def test_gaussian_uphill_value(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(1, m.neighborhood)
        p = accept_prob(m, Configuration(w, [0.0]), Configuration(w, [1.0]))
        assert p == pytest.approx(math.exp(-0.5))

    def test_huge_delta_no_overflow(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(1, m.neighborhood)
        assert accept_prob(m, Configuration(w, [0.0]), Configuration(w, [100.0])) == 0.0
        assert accept_prob(m, Configuration(w, [100.0]), Configuration(w, [0.0])) == 1.0

    def test_invariant_under_constant_potential_shift(self):
        base = custom_pairwise({(1,): 0.5, (-1,): 0.5},
                               lambda x: 0.5 * x * x, lambda x: x)
        shifted = custom_pairwise({(1,): 0.5, (-1,): 0.5},
                                  lambda x: 0.5 * x * x + 7.25, lambda x: x)
        w = build_box(1, 2, base.neighborhood)
        ws = build_box(1, 2, shifted.neighborhood)
        rng = np.random.default_rng(0)
        for _ in range(20):
            vals_x = rng.standard_normal(w.n)
            vals_y = rng.standard_normal(w.n)
            p0 = accept_prob(base, Configuration(w, vals_x), Configuration(w, vals_y))
            p1 = accept_prob(shifted, Configuration(ws, vals_x), Configuration(ws, vals_y))
            assert abs(p0 - p1) <= 1e-12


class TestStep:
    def test_tau_zero_always_accepts_zero_jump(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(4, m.neighborhood)
        x = zeros_configuration(w)
        new, rec = step(m, x, ProposalSpec(0.0, 4), chain_rng(0, 0))
        assert rec.accepted and rec.delta_h == 0.0 and rec.jump_sq_first_coord == 0.0
        assert np.array_equal(new.values, x.values)

    def test_forced_u_one_always_rejects(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(4, m.neighborhood)
        x = Configuration(w, [2.0, -1.0, 0.5, 0.0])
        new, rec = step(m, x, ProposalSpec(1.0, 4), chain_rng(0, 0), u_override=1.0)
        assert not rec.accepted
        assert new is x  # rejection hands back the same object
        assert rec.jump_sq_first_coord == 0.0

    def test_record_invariant(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(4, m.neighborhood)
        x = zeros_configuration(w)
        rng = chain_rng(5, 0)
        for _ in range(50):
            x, rec = step(m, x, ProposalSpec(2.0, 4), rng)
            p = 1.0 if rec.delta_h <= 0 else math.exp(-rec.delta_h)
            assert rec.accepted == (rec.u < p)
            assert rec.jump_sq_first_coord >= 0.0
            if not rec.accepted:
                assert rec.jump_sq_first_coord == 0.0


class TestInitState:
    def test_exact_gaussian_product_moments(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(3, m.neighborhood)
        draws = np.stack([
            init_state(m, w, "exact_gaussian", seed=9, chain_id=i).values
            for i in range(30_000)])
        assert abs(draws.mean()) < 4 / math.sqrt(draws.size)
        assert abs(draws.var() - 1.0) < 5 / math.sqrt(draws.size)

    def test_exact_gaussian_rejects_phi4(self):
        m = phi4(0.5, -1.0, d=1)
        w = build_box(1, 1, m.neighborhood)
        with pytest.raises(ValueError):
            init_state(m, w, "exact_gaussian", seed=0)

    def test_given_returns_unchanged(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(3, m.neighborhood)
        x = Configuration(w, [1.0, 2.0, 3.0])
        assert init_state(m, w, "given", given=x) is x

    def test_given_window_mismatch(self):
        m = gaussian_product(1.0, d=1)
        x = Configuration(build_line(3, m.neighborhood), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            init_state(m, build_line(3, m.neighborhood), "given", given=x)

    def test_precision_window_mismatch(self):
        m = gaussian_product(1.0, d=1)
        prec = build_precision(m, build_line(3, m.neighborhood))
        with pytest.raises(ValueError, match="different window"):
            init_state(m, build_line(3, m.neighborhood), "exact_gaussian",
                       seed=0, precision=prec)

    def test_burn_in_tagged(self):
        m = phi4(0.5, -1.0, d=1)
        w = build_box(1, 2, m.neighborhood)
        cfg = init_state(m, w, "burn_in", seed=3, burn_steps=200, burn_tau=1.0)
        assert cfg.source == "burn_in"
        assert np.all(np.isfinite(cfg.values))


class TestRunChain:
    def test_steps_one_equals_single_step(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(6, m.neighborhood)
        spec = ProposalSpec(1.5, 6)
        run = run_chain(m, w, spec, 1, seed=42)
        rng = chain_rng(42, 0)
        x0 = init_state(m, w, "exact_gaussian", rng=rng)
        st, rec = step(m, x0, spec, rng)
        assert np.array_equal(run.final_state.values, st.values)
        assert run.records.delta_h[0] == rec.delta_h
        assert run.records.u[0] == rec.u

    def test_same_seed_identical(self):
        m = gff(1.0, 1.0, d=1)
        w = build_box(1, 5, m.neighborhood)
        spec = ProposalSpec(1.0, w.n)
        a = run_chain(m, w, spec, 700, seed=11)
        b = run_chain(m, w, spec, 700, seed=11)
        assert np.array_equal(a.records.delta_h, b.records.delta_h)
        assert np.array_equal(a.records.accepted, b.records.accepted)
        assert np.array_equal(a.final_state.values, b.final_state.values)
        assert np.array_equal(a.states, b.states)

    def test_batched_replicas_match_standalone(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(10, m.neighborhood)
        spec = ProposalSpec(2.0, 10)
        runs = run_replicas(m, w, spec, 400, seed=13, n_replicas=3,
                            recording="full", track_first=1)
        for cid in range(3):
            solo = run_chain(m, w, spec, 400, seed=13, chain_id=cid, track_first=1)
            assert np.array_equal(runs[cid].records.u, solo.records.u)
            assert np.array_equal(runs[cid].first_coord_path, solo.first_coord_path)
            assert np.array_equal(runs[cid].final_state.values, solo.final_state.values)

    def test_distinct_chain_ids_distinct_streams(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(10, m.neighborhood)
        spec = ProposalSpec(2.0, 10)
        a, b = run_replicas(m, w, spec, 100, seed=13, n_replicas=2, recording="full")
        assert not np.array_equal(a.records.u, b.records.u)

    def test_recording_modes(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(8, m.neighborhood)
        spec = ProposalSpec(1.0, 8)
        full = run_chain(m, w, spec, 100, seed=1, recording="full", thin=10)
        thinned = run_chain(m, w, spec, 100, seed=1, recording="thinned", thin=10)
        summary = run_chain(m, w, spec, 100, seed=1, recording="summary")
        assert full.records is not None and full.states.shape == (10, 8)
        assert thinned.records is None and thinned.states.shape == (10, 8)
        assert summary.records is None and summary.states is None
        assert full.summary.accept_count == thinned.summary.accept_count \
            == summary.summary.accept_count

    def test_track_first_path(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(8, m.neighborhood)
        run = run_chain(m, w, ProposalSpec(1.0, 8), 50, seed=2, track_first=2)
        assert run.first_coord_path.shape == (51, 2)
        assert np.array_equal(run.first_coord_path[-1], run.final_state.values[:2])

    def test_rejected_steps_leave_state_bit_identical(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(5, m.neighborhood)
        # huge tau: nearly everything is rejected
        run = run_chain(m, w, ProposalSpec(200.0, 5), 300, seed=3, track_first=1)
        rejected = ~run.records.accepted
        assert rejected.any()
        path = run.first_coord_path[:, 0]
        assert np.all(path[1:][rejected] == path[:-1][rejected])

    def test_validation(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(5, m.neighborhood)
        with pytest.raises(ValueError):
            run_chain(m, w, ProposalSpec(1.0, 5), 0, seed=0)
        with pytest.raises(ValueError):
            run_chain(m, w, ProposalSpec(1.0, 4), 10, seed=0)
        with pytest.raises(ValueError):
            run_chain(m, w, ProposalSpec(1.0, 5), 10, seed=0, recording="verbose")
        with pytest.raises(ValueError):
            run_chain(m, w, ProposalSpec(1.0, 5), 10, seed=0, track_first=9)

    @pytest.mark.parametrize("mode,const", [("zero", 0.0), ("constant", 1.3)])
    def test_exact_init_matches_per_replica_draw(self, mode, const):
        m = gff(0.7, 0.3, d=2)
        w = build_box(2, 3, m.neighborhood, mode, const)
        ids = [4, 0, 7]
        runs = run_replicas(m, w, ProposalSpec(1.0, w.n), 1, seed=31,
                            n_replicas=3, chain_ids=ids, track_first=w.n)
        for run, cid in zip(runs, ids):
            solo = gaussian_exact_sample(build_precision(m, w), chain_rng(31, cid))
            assert np.array_equal(run.first_coord_path[0], solo.values)

    def test_one_precision_per_call(self, monkeypatch):
        calls = []

        def counting(model, window):
            calls.append(window)
            return build_precision(model, window)

        monkeypatch.setattr(sampler, "build_precision", counting)
        m = gff(1.0, 1.0, d=2)
        w = build_box(2, 2, m.neighborhood)
        run_replicas(m, w, ProposalSpec(1.0, w.n), 5, seed=1, n_replicas=4)
        assert len(calls) == 1
        run_replicas(m, w, ProposalSpec(1.0, w.n), 5, seed=1, n_replicas=2,
                     init="burn_in", burn_steps=10)
        assert len(calls) == 1

    def test_wall_time_is_per_chain_share(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(20, m.neighborhood)
        started = time.perf_counter()
        runs = run_replicas(m, w, ProposalSpec(1.0, 20), 2000, seed=4, n_replicas=4)
        elapsed = time.perf_counter() - started
        assert len({r.wall_time for r in runs}) == 1
        assert 0.0 < sum(r.wall_time for r in runs) <= elapsed

    def test_nonfinite_delta_h_rejected(self):
        # tau=1e160 overflows the quartic: every dH is inf - inf = NaN.
        m = phi4(1.0, -1.0, d=1)
        w = build_line(20, m.neighborhood)
        with np.errstate(over="ignore", invalid="ignore"):
            run = run_chain(m, w, ProposalSpec(1e160, w.n), 50, seed=0,
                            init="given", init_config=zeros_configuration(w))
        assert np.isnan(run.records.delta_h).all()
        assert not run.records.accepted.any()
        assert np.array_equal(run.final_state.values, np.zeros(w.n))

    def test_acceptance_invariant_recomputable(self):
        m = gff(1.0, 1.0, d=1)
        w = build_box(1, 4, m.neighborhood)
        run = run_chain(m, w, ProposalSpec(1.3, w.n), 500, seed=21)
        rec = run.records
        with np.errstate(under="ignore"):
            p = np.where(rec.delta_h > 0, np.exp(-np.maximum(rec.delta_h, 0.0)), 1.0)
        assert np.array_equal(rec.accepted, rec.u < p)
