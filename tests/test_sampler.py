import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gibbsrwm import sampler
from gibbsrwm.lattice import build_box, build_line
from gibbsrwm.models import (Configuration, custom_pairwise, delta_hamiltonian,
                             gaussian_product, gff, phi4, quadratic_operator)
from gibbsrwm.oracle import build_precision, gaussian_exact_samples
from gibbsrwm.sampler import (ProposalSpec, chain_rng, run_replicas,
                              uniform_rng)
from test_estimators import summarize_records
from test_lattice import frozen_value
from test_models import slot_loop_site_energies


# The kernel evaluates dH in gradient form, d.(Qx - b) + d'Qd/2 plus the
# change of the self terms, and the scalar reference as a sum of per-site
# differences of the test-side slot-loop energies: the two agree to
# rounding, not bit for bit.
DH_RTOL = 1e-12


def reference_dh(model, window, x, y):
    """H(y) - H(x) as the sum of the per-site differences of the slot-loop
    energies of test_models, independent of the library's operator."""
    return float((slot_loop_site_energies(model, window, y)
                  - slot_loop_site_energies(model, window, x)).sum())


def scalar_reference(model, window, spec, steps, rng, urng, x):
    """The Metropolis chain one step at a time: all (steps, n) increments
    from `rng`, the stream left after the initial draw, and all uniforms
    from the uniform stream `urng`; dH from reference_dh, and a non-finite
    dH rejected.  Returns the final state, the dH, u and accept columns, and
    the (steps, n) states after each step."""
    incr = spec.draw_increments(rng, (steps, window.n))
    u = urng.random(steps)
    delta_h, accepted, states = [], [], []
    for j in range(steps):
        y = Configuration(window, x.values + spec.sigma * incr[j])
        dh = reference_dh(model, window, x.values, y.values)
        acc = math.isfinite(dh) and bool(u[j] < np.exp(-max(dh, 0.0)))
        delta_h.append(dh)
        accepted.append(acc)
        if acc:
            x = y
        states.append(x.values)
    return x, np.array(delta_h), u, np.array(accepted), np.array(states)


class CountingRounds:
    """Stands in for the kernel's gradient_dh and counts its rounds; the
    models from counting_model also count their self-energy evaluations."""

    def __init__(self):
        self.calls = 0
        self.remainder_calls = 0
        self.round_dh = sampler.gradient_dh

    def __call__(self, *args):
        self.calls += 1
        return self.round_dh(*args)

    def counting_model(self, model):
        def self_energy(x):
            self.remainder_calls += 1
            return model.self_energy(x)

        return dataclasses.replace(model, self_energy=self_energy)


def assert_matches_reference(model, window, spec, steps, seed, ids, thin=0,
                             track_first=0, init_values=None):
    """run_replicas over the chain ids equals scalar_reference for every
    chain: u, accept flags, final state, thinned states and paths bit for
    bit, and dH at the same non-finite positions and within DH_RTOL of
    reference_dh elsewhere.  Chains start from `init_values`, else
    from an exact Gaussian draw."""
    init = {} if init_values is None else dict(
        init="given", init_config=Configuration(window, init_values))
    runs = run_replicas(model, window, spec, steps, seed, n_replicas=len(ids),
                        chain_ids=ids, recording="full", thin=thin,
                        track_first=track_first, **init)
    for run, cid in zip(runs, ids):
        rng = chain_rng(seed, cid)
        x0 = (init["init_config"] if init else Configuration(
            window, gaussian_exact_samples(build_precision(model, window), rng, 1)[0]))
        st, dh, u, acc, states = scalar_reference(
            model, window, spec, steps, rng, uniform_rng(seed, cid), x0)
        rec = run.records
        assert np.array_equal(run.final_state.values, st.values)
        finite = np.isfinite(dh)
        assert np.array_equal(np.isfinite(rec.delta_h), finite)
        err = np.abs(rec.delta_h[finite] - dh[finite])
        assert np.all(err <= DH_RTOL * np.maximum(np.abs(dh[finite]), 1.0))
        assert np.array_equal(rec.u, u)
        assert np.array_equal(rec.accepted, acc)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            p = np.exp(-np.maximum(rec.delta_h, 0.0))
        assert np.array_equal(rec.accepted, np.isfinite(rec.delta_h) & (rec.u < p))
        assert run.summary.accept_count == acc.sum()
        if thin:
            assert np.array_equal(run.states, states[thin - 1::thin])
        if track_first:
            path = np.vstack([x0.values[:track_first], states[:, :track_first]])
            assert np.array_equal(run.first_coord_path, path)
    return runs


def given_run(model, window, tau, steps, values, seed=0,
              increment_family="standard_normal"):
    """One fully recorded chain from the given values, tracking every site."""
    spec = ProposalSpec(tau, window.n, increment_family)
    return run_replicas(model, window, spec, steps, seed, recording="full",
                        track_first=window.n, init="given",
                        init_config=Configuration(window, values))[0]


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

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_nonfinite_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="tau must be finite"):
            ProposalSpec(tau, 10)

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

    @pytest.mark.parametrize("family", ["standard_normal", "uniform"])
    def test_draw_into_buffer_is_the_generator_draw(self, family):
        # Drawing into a reused buffer consumes the stream exactly like the
        # Generator method of the family, and leaves it in the same state.
        spec = ProposalSpec(1.0, 7, family)
        buf = np.full((2, 300, 7), np.nan)
        a, b, c = chain_rng(5, 1), chain_rng(5, 1), chain_rng(5, 1)
        for _ in range(2):
            got = spec.draw_increments(a, (300, 7), out=buf[1])
            half = math.sqrt(3.0)
            want = (b.standard_normal((300, 7)) if family == "standard_normal"
                    else b.uniform(-half, half, (300, 7)))
            assert got is buf[1] or np.shares_memory(got, buf[1])
            assert np.array_equal(buf[1], want)
            assert np.array_equal(spec.draw_increments(c, (300, 7)), want)
        assert np.isnan(buf[0]).all()
        assert a.random() == b.random() == c.random()


class TestPropose:
    """Proposals of the batched kernel: x + (tau / sqrt(n)) * increment."""

    def test_tau_zero_returns_same_values(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(5, m.neighborhood)
        run = given_run(m, w, 0.0, 300, np.arange(5.0),
                        increment_family="uniform")
        assert np.all(run.first_coord_path == np.arange(5.0))
        assert np.array_equal(run.final_state.values, np.arange(5.0))

    def test_reproducible(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(5, m.neighborhood)
        a = given_run(m, w, 1.0, 300, np.zeros(5), seed=2)
        b = given_run(m, w, 1.0, 300, np.zeros(5), seed=2)
        assert np.array_equal(a.first_coord_path, b.first_coord_path)
        assert np.array_equal(a.records.delta_h, b.records.delta_h)

    def test_state_unmodified(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(5, m.neighborhood)
        x = Configuration(w, np.zeros(w.n))
        run = run_replicas(m, w, ProposalSpec(1.0, 5), 300, seed=2,
                           recording="full", init="given", init_config=x)[0]
        assert run.records.accepted.any()
        assert np.array_equal(x.values, np.zeros(5))


class TestAcceptProb:
    """The kernel accepts with probability min(1, exp(-dH))."""

    def test_same_state_accepts(self):
        m = gff(1.0, 1.0, d=1)
        w = build_box(1, 3, m.neighborhood)
        run = given_run(m, w, 0.0, 300, np.linspace(-1.0, 1.0, w.n))
        assert np.all(run.records.delta_h == 0.0)
        assert run.records.accepted.all()

    def test_downhill_accepts(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(1, m.neighborhood)
        run = given_run(m, w, 1.0, 300, [3.0])
        downhill = run.records.delta_h <= 0
        assert downhill.any()
        assert run.records.accepted[downhill].all()

    def test_gaussian_uphill_value(self):
        # From x = 0 every move of the unit Gaussian is uphill by y^2 / 2.
        m = gaussian_product(1.0, d=1)
        w = build_line(1, m.neighborhood)
        for seed in range(20):
            run = given_run(m, w, 1.0, 1, [0.0], seed=seed)
            y = chain_rng(seed, 0).standard_normal((1, 1))[0, 0]
            u = uniform_rng(seed, 0).random(1)[0]
            assert run.records.delta_h[0] == pytest.approx(0.5 * y * y)
            assert run.records.accepted[0] == (u < math.exp(-0.5 * y * y))

    def test_huge_delta_no_overflow(self):
        m = phi4(0.5, -1.0, d=1)
        w = build_line(3, m.neighborhood)
        with np.errstate(all="raise"):
            run = given_run(m, w, 1e4, 300, np.zeros(w.n))
        assert np.all(np.isfinite(run.records.delta_h))
        assert not run.records.accepted.any()

    def test_invariant_under_constant_potential_shift(self):
        base = custom_pairwise({(1,): 0.5, (-1,): 0.5},
                               lambda x: 0.5 * x * x, lambda x: x)
        shifted = custom_pairwise({(1,): 0.5, (-1,): 0.5},
                                  lambda x: 0.5 * x * x + 7.25, lambda x: x)
        w = build_box(1, 2, base.neighborhood)
        ws = build_box(1, 2, shifted.neighborhood)
        x0 = np.random.default_rng(0).standard_normal(w.n)
        for seed in range(5):
            a = given_run(base, w, 2.0, 300, x0, seed=seed).records
            b = given_run(shifted, ws, 2.0, 300, x0, seed=seed).records
            pa = np.exp(-np.maximum(a.delta_h, 0.0))
            pb = np.exp(-np.maximum(b.delta_h, 0.0))
            assert np.max(np.abs(pa - pb)) <= 1e-12
            assert np.array_equal(a.accepted, b.accepted)


class TestStep:
    """Per-step records of the batched kernel."""

    def test_tau_zero_always_accepts_zero_jump(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(4, m.neighborhood)
        run = given_run(m, w, 0.0, 300, np.zeros(4))
        rec = run.records
        assert rec.accepted.all() and np.all(rec.delta_h == 0.0)
        assert np.all(rec.jump_sq_first_coord == 0.0)
        assert np.array_equal(run.final_state.values, np.zeros(4))

    def test_forced_u_one_always_rejects(self):
        # exp(-dH) underflows to 0, so no uniform accepts the move.
        m = gaussian_product(1.0, d=1)
        w = build_line(4, m.neighborhood)
        x0 = np.array([2.0, -1.0, 0.5, 0.0])
        run = given_run(m, w, 1e4, 300, x0)
        assert not run.records.accepted.any()
        assert np.all(run.records.jump_sq_first_coord == 0.0)
        assert np.array_equal(run.final_state.values, x0)

    def test_record_invariant(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(4, m.neighborhood)
        run = given_run(m, w, 2.0, 300, np.zeros(4), seed=5)
        rec = run.records
        p = np.exp(-np.maximum(rec.delta_h, 0.0))
        assert np.array_equal(rec.accepted, rec.u < p)
        jump = np.diff(run.first_coord_path[:, 0]) ** 2
        assert np.all(rec.jump_sq_first_coord[~rec.accepted] == 0.0)
        assert np.allclose(rec.jump_sq_first_coord, jump, rtol=1e-9, atol=1e-15)


class ScriptedUniforms:
    """Stands in for a chain's uniform stream: every draw is `value`."""

    def __init__(self, value):
        self.value = value

    def random(self, out):
        out.fill(self.value)
        return out


def steep_energy(x):
    """1e4 x**2 on [-5, 5], -inf above it and NaN below it."""
    e = np.where(x > 5.0, -np.inf, 1e4 * x * x)
    return np.where(x < -5.0, np.nan, e)


class TestLogSpaceAccept:
    """A move is accepted iff dH < -log u and dH is finite, with -log u
    computed once per chunk (+inf where u = 0)."""

    @pytest.mark.parametrize("batch", [False, True], ids=["one_row", "batch"])
    @pytest.mark.parametrize("model_name", ["product", "gff", "phi4"])
    def test_records_satisfy_the_rule(self, model_name, batch):
        init = {}
        if model_name == "product":
            m = gaussian_product(1.0, d=1)
            w = build_line(10, m.neighborhood)
        elif model_name == "gff":
            m = gff(1.0, 1.0, d=2)
            w = build_box(2, 2, m.neighborhood, "constant", 0.7)
        else:
            m = phi4(0.25, -0.5, d=1)
            w = build_box(1, 6, m.neighborhood)
            init = dict(init="burn_in", burn_steps=200)
        # The batch has rows that share a stream at different scales.
        taus, ids = ([1.0, 2.4, 4.0], [0, 0, 1]) if batch else ([2.4], [3])
        runs = run_replicas(m, w, [ProposalSpec(tau, w.n) for tau in taus],
                            2 * sampler.CHUNK + 50, seed=11, n_replicas=len(ids),
                            chain_ids=ids, recording="full", **init)
        for run in runs:
            rec = run.records
            with np.errstate(divide="ignore"):
                limit = -np.log(rec.u)
            assert np.array_equal(
                rec.accepted, np.isfinite(rec.delta_h) & (rec.delta_h < limit))
            assert 0 < rec.accepted.sum() < len(rec)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_zero_uniform_accepts_every_finite_dh(self, monkeypatch, rows):
        monkeypatch.setattr(sampler, "uniform_rng",
                            lambda seed, chain_id=0: ScriptedUniforms(0.0))
        m = custom_pairwise({(1,): 0.0}, steep_energy, steep_energy)
        w = build_line(1, m.neighborhood)
        runs = run_replicas(m, w, ProposalSpec(20.0, w.n), 400, seed=2,
                            n_replicas=rows, recording="full", init="given",
                            init_config=Configuration(w, np.zeros(w.n)))
        for run in runs:
            rec = run.records
            dh = rec.delta_h
            assert np.all(rec.u == 0.0)
            assert np.isneginf(dh).any() and np.isnan(dh).any()
            assert np.array_equal(rec.accepted, np.isfinite(dh))
            # exp(-dH) underflows above dH = 745, where the exp form of the
            # test rejected even u = 0.
            assert (dh[np.isfinite(dh)] > 745.0).any()
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                exp_form = np.isfinite(dh) & (rec.u < np.exp(-np.maximum(dh, 0.0)))
            assert (rec.accepted & ~exp_form).any()
            assert np.all(np.abs(run.final_state.values) <= 5.0)

    @pytest.mark.parametrize("model_name", ["product", "gff"])
    def test_largest_uniform_accepts_zero_dh(self, monkeypatch, model_name):
        # Generator.random's largest value: -log u is 2**-53 > 0, so a dH of
        # +0.0 or -0.0 is still accepted, as u < exp(0) = 1 accepts it.
        u_max = 1.0 - 2.0**-53
        monkeypatch.setattr(sampler, "uniform_rng",
                            lambda seed, chain_id=0: ScriptedUniforms(u_max))
        if model_name == "product":
            m = gaussian_product(1.0, d=1)
            w = build_line(4, m.neighborhood)
        else:
            m = gff(1.0, 1.0, d=1)
            w = build_box(1, 3, m.neighborhood)
        x0 = np.linspace(-1.0, 1.0, w.n)
        x0[::2] = -0.0
        runs = run_replicas(m, w, ProposalSpec(0.0, w.n), 300, seed=4,
                            n_replicas=2, recording="full", track_first=w.n,
                            init="given", init_config=Configuration(w, x0))
        for run in runs:
            rec = run.records
            assert np.all(rec.u == u_max)
            assert np.all(rec.delta_h == 0.0)
            assert rec.accepted.all()
            assert run.summary.accept_count == 300


@pytest.fixture
def no_draws(monkeypatch):
    """Fail the test if run_replicas factors Q, draws a start or runs a chain."""
    def forbidden(*args, **kwargs):
        raise AssertionError("drew before the init error")

    for name in ("build_precision", "gaussian_exact_samples", "_drive"):
        monkeypatch.setattr(sampler, name, forbidden)


class TestInitState:
    def test_exact_gaussian_product_moments(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(3, m.neighborhood)
        runs = run_replicas(m, w, ProposalSpec(1.0, 3), 1, seed=9,
                            n_replicas=30_000, track_first=3)
        draws = np.stack([run.first_coord_path[0] for run in runs])
        assert abs(draws.mean()) < 4 / math.sqrt(draws.size)
        assert abs(draws.var() - 1.0) < 5 / math.sqrt(draws.size)

    def test_exact_gaussian_rejects_phi4(self, no_draws):
        m = phi4(0.5, -1.0, d=1)
        w = build_box(1, 1, m.neighborhood)
        with pytest.raises(ValueError, match="exact stationary sampling"):
            run_replicas(m, w, ProposalSpec(1.0, w.n), 10, seed=0, n_replicas=2)

    def test_given_returns_unchanged(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(3, m.neighborhood)
        x = Configuration(w, [1.0, 2.0, 3.0])
        runs = run_replicas(m, w, ProposalSpec(1.0, 3), 1, seed=0, n_replicas=3,
                            track_first=3, init="given", init_config=x)
        assert all(np.array_equal(run.first_coord_path[0], x.values)
                   for run in runs)

    def test_given_window_mismatch(self, no_draws):
        m = gaussian_product(1.0, d=1)
        x = Configuration(build_line(3, m.neighborhood), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="different window"):
            run_replicas(m, build_line(3, m.neighborhood), ProposalSpec(1.0, 3),
                         10, seed=0, init="given", init_config=x)

    def test_given_needs_configuration(self, no_draws):
        m = gaussian_product(1.0, d=1)
        w = build_line(3, m.neighborhood)
        with pytest.raises(ValueError, match="needs a configuration"):
            run_replicas(m, w, ProposalSpec(1.0, 3), 10, seed=0, init="given")

    def test_unknown_init_mode(self, no_draws):
        m = gaussian_product(1.0, d=1)
        w = build_line(3, m.neighborhood)
        with pytest.raises(ValueError, match="unknown init mode"):
            run_replicas(m, w, ProposalSpec(1.0, 3), 10, seed=0, init="warm")

    def test_burn_in_states_finite(self):
        m = phi4(0.5, -1.0, d=1)
        w = build_box(1, 2, m.neighborhood)
        runs = run_replicas(m, w, ProposalSpec(1.0, w.n), 1, seed=3,
                            n_replicas=3, track_first=w.n, init="burn_in",
                            burn_steps=200)
        starts = np.stack([run.first_coord_path[0] for run in runs])
        assert np.all(np.isfinite(starts)) and np.all(starts != 0.0)


class TestRunChain:
    def test_steps_one_equals_single_step(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(6, m.neighborhood)
        assert_matches_reference(m, w, ProposalSpec(1.5, 6), 1, seed=42, ids=[0])

    def test_matches_scalar_reference_across_chunks(self):
        m = gff(1.0, 1.0, d=1)
        w = build_box(1, 3, m.neighborhood, "constant", 0.4)
        (run,) = assert_matches_reference(m, w, ProposalSpec(2.0, w.n),
                                          sampler.CHUNK + 44, seed=8, ids=[0])
        assert 0 < run.summary.accept_count < run.steps

    def test_same_seed_identical(self):
        m = gff(1.0, 1.0, d=1)
        w = build_box(1, 5, m.neighborhood)
        spec = ProposalSpec(1.0, w.n)
        a, b = (run_replicas(m, w, spec, 700, seed=11, recording="full")[0]
                for _ in range(2))
        assert np.array_equal(a.records.delta_h, b.records.delta_h)
        assert np.array_equal(a.records.accepted, b.records.accepted)
        assert np.array_equal(a.final_state.values, b.final_state.values)
        assert np.array_equal(a.states, b.states)

    def test_batched_replicas_match_standalone(self):
        # A batched burn-in equals the one-row burn-ins, in start states and
        # in the stream positions the chains go on from.
        m = gaussian_product(1.0, d=1)
        w = build_line(10, m.neighborhood)
        spec = ProposalSpec(2.0, 10)
        for init in ("exact_gaussian", "burn_in"):
            runs = run_replicas(m, w, spec, 400, seed=13, n_replicas=3,
                                recording="full", track_first=w.n, init=init)
            for cid in range(3):
                solo = run_replicas(m, w, spec, 400, seed=13, chain_ids=[cid],
                                    recording="full", track_first=w.n,
                                    init=init)[0]
                assert np.array_equal(runs[cid].records.u, solo.records.u)
                assert np.array_equal(runs[cid].first_coord_path,
                                      solo.first_coord_path)
                assert np.array_equal(runs[cid].final_state.values,
                                      solo.final_state.values)

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
        full, thinned, summary = (
            run_replicas(m, w, spec, 100, seed=1, recording=mode, thin=10)[0]
            for mode in ("full", "thinned", "summary"))
        assert full.records is not None and full.states.shape == (10, 8)
        assert thinned.records is None and thinned.states.shape == (10, 8)
        assert summary.records is None and summary.states is None
        assert full.summary.accept_count == thinned.summary.accept_count \
            == summary.summary.accept_count

    def test_track_first_path(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(8, m.neighborhood)
        run = run_replicas(m, w, ProposalSpec(1.0, 8), 50, seed=2,
                           recording="full", track_first=2)[0]
        assert run.first_coord_path.shape == (51, 2)
        assert np.array_equal(run.first_coord_path[-1], run.final_state.values[:2])

    def test_rejected_steps_leave_state_bit_identical(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(5, m.neighborhood)
        # huge tau: nearly everything is rejected
        run = run_replicas(m, w, ProposalSpec(200.0, 5), 300, seed=3,
                           recording="full", track_first=1)[0]
        rejected = ~run.records.accepted
        assert rejected.any()
        path = run.first_coord_path[:, 0]
        assert np.all(path[1:][rejected] == path[:-1][rejected])

    def test_validation(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(5, m.neighborhood)
        with pytest.raises(ValueError):
            run_replicas(m, w, ProposalSpec(1.0, 5), 0, seed=0)
        with pytest.raises(ValueError):
            run_replicas(m, w, ProposalSpec(1.0, 4), 10, seed=0)
        with pytest.raises(ValueError):
            run_replicas(m, w, ProposalSpec(1.0, 5), 10, seed=0, recording="verbose")
        with pytest.raises(ValueError):
            run_replicas(m, w, ProposalSpec(1.0, 5), 10, seed=0, track_first=9)

    def test_negative_burn_steps_rejected(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(5, m.neighborhood)
        with pytest.raises(ValueError, match="burn_steps must be >= 0"):
            run_replicas(m, w, ProposalSpec(1.0, 5), 10, seed=0, n_replicas=2,
                         init="burn_in", burn_steps=-3)
        # Zero burn-in steps start every replica from zeros.
        (run,) = run_replicas(m, w, ProposalSpec(1.0, 5), 1, seed=0,
                              init="burn_in", burn_steps=0, track_first=5)
        assert np.array_equal(run.first_coord_path[0], np.zeros(5))

    @pytest.mark.parametrize("init", ["given", "exact_gaussian", "burn_in"])
    def test_zero_replicas_rejected(self, init):
        m = gaussian_product(1.0, d=1)
        w = build_line(5, m.neighborhood)
        with pytest.raises(ValueError, match="n_replicas must be >= 1"):
            run_replicas(m, w, ProposalSpec(1.0, 5), 10, seed=0, n_replicas=0,
                         init=init, init_config=Configuration(w, np.zeros(w.n)))

    @pytest.mark.parametrize("recording", sampler.RECORDING_MODES)
    def test_thin_validation(self, recording):
        m = gaussian_product(1.0, d=1)
        w = build_line(5, m.neighborhood)
        args = (m, w, ProposalSpec(1.0, 5), 20)
        with pytest.raises(ValueError, match="thin must be >= 0"):
            run_replicas(*args, seed=0, recording=recording, thin=-2)
        if recording == "thinned":
            with pytest.raises(ValueError, match="needs thin >= 1"):
                run_replicas(*args, seed=0, recording=recording, thin=0)
        else:
            # "full" with thin 0 keeps the records without snapshots, as
            # the CLI's `sample` asks for; "summary" keeps neither.
            run = run_replicas(*args, seed=0, recording=recording, thin=0)[0]
            assert run.states is None
            assert (run.records is not None) == (recording == "full")

    @pytest.mark.parametrize("mode,const", [("zero", 0.0), ("constant", 1.3)])
    def test_exact_init_matches_per_replica_draw(self, mode, const):
        m = gff(0.7, 0.3, d=2)
        w = build_box(2, 3, m.neighborhood, mode, const)
        ids = [4, 0, 7]
        runs = run_replicas(m, w, ProposalSpec(1.0, w.n), 1, seed=31,
                            n_replicas=3, chain_ids=ids, track_first=w.n)
        for run, cid in zip(runs, ids):
            solo = gaussian_exact_samples(build_precision(m, w), chain_rng(31, cid), 1)
            assert np.array_equal(run.first_coord_path[0], solo[0])

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

    def test_nonfinite_delta_h_rejected(self):
        # tau=1e160 overflows sigma**2 and the quartic at y: every dH is +inf.
        m = phi4(1.0, -1.0, d=1)
        w = build_line(20, m.neighborhood)
        with np.errstate(over="ignore", invalid="ignore"):
            run = run_replicas(m, w, ProposalSpec(1e160, w.n), 50, seed=0,
                               recording="full", init="given",
                               init_config=Configuration(w, np.zeros(w.n)))[0]
        assert np.isposinf(run.records.delta_h).all()
        assert not run.records.accepted.any()
        assert np.array_equal(run.final_state.values, np.zeros(w.n))
        assert run.summary.nonfinite_dh == 50
        assert run.summary.acceptance == 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            streamed = run_replicas(m, w, ProposalSpec(1e160, w.n), 50, seed=0,
                                    init="given",
                                    init_config=Configuration(w, np.zeros(w.n)))[0]
        assert streamed.summary.nonfinite_dh == 50

    def test_nan_delta_h_rejected(self):
        # The quartic already overflows at the start, so every dH holds
        # inf - inf = NaN in its self terms.
        m = phi4(1.0, -1.0, d=1)
        w = build_line(20, m.neighborhood)
        x0 = Configuration(w, np.full(w.n, 1e100))
        with np.errstate(over="ignore", invalid="ignore"):
            run = run_replicas(m, w, ProposalSpec(2.38, w.n), 50, seed=0,
                               recording="full", init="given", init_config=x0)[0]
        assert np.isnan(run.records.delta_h).all()
        assert not run.records.accepted.any()
        assert np.array_equal(run.final_state.values, x0.values)
        assert run.summary.nonfinite_dh == 50
        assert run.summary.acceptance == 0.0

    @pytest.mark.parametrize("steps", [1, 49, 99, 100, 255, 256, 257, 10_000])
    def test_streamed_summary_matches_records(self, steps):
        # Rows at three tau (every move accepted at tau = 0) in one batch.
        m = gaussian_product(1.0, d=1)
        w = build_line(6, m.neighborhood)
        specs = [ProposalSpec(tau, w.n) for tau in (0.0, 2.38, 9.0)]
        full = run_replicas(m, w, specs, steps, seed=steps, n_replicas=3,
                            recording="full")
        summary = run_replicas(m, w, specs, steps, seed=steps, n_replicas=3)
        for run, other in zip(full, summary):
            rec = run.records
            ref = summarize_records(rec.delta_h, rec.accepted,
                                    rec.jump_sq_first_coord)
            for got in (run.summary, other.summary):
                assert got.steps == ref.steps == steps
                assert got.accept_count == ref.accept_count
                assert got.nonfinite_dh == ref.nonfinite_dh
                assert np.array_equal(got.batch_acc, ref.batch_acc)
                assert np.array_equal(got.batch_jump, ref.batch_jump)
                assert got.jump_sq_sum == pytest.approx(ref.jump_sq_sum, rel=1e-12)
                assert got.dh_sum == pytest.approx(ref.dh_sum, rel=1e-12)
            assert other.summary.jump_sq_sum == run.summary.jump_sq_sum
            assert other.summary.dh_sum == run.summary.dh_sum
        assert full[0].summary.accept_count == steps

    def test_summary_mode_memory_does_not_grow_with_steps(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(20, m.neighborhood)
        spec = ProposalSpec(2.38, w.n)
        init = dict(init="given", init_config=Configuration(w, np.zeros(w.n)))
        peaks = []
        for steps in (10 * sampler.CHUNK, 100 * sampler.CHUNK):
            tracemalloc.start()
            try:
                run_replicas(m, w, spec, steps, seed=1, n_replicas=2,
                             recording="summary", **init)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_summary_mode_memory_bounded_by_chunk_budget(self):
        # Here the full CHUNK would need a 34 MB increment block; the budget
        # cuts each chunk to CHUNK_BYTES.  The exact start holds Q's band and
        # its Cholesky factor, (b + 1, n) each with bandwidth b = 65, and the
        # rest of a run is a few (R, n) arrays, however many steps it takes.
        m = gff(1.0, 1.0, d=2)
        w = build_box(2, 32, m.neighborhood)
        R = 4  # each row on a stream of its own
        row_block = 8 * R * w.n
        assert row_block * sampler.CHUNK > sampler.CHUNK_BYTES
        width = sampler.CHUNK_BYTES // row_block
        start = 2 * 8 * 66 * w.n  # the band and its factor
        # The first exact start imports scipy's banded solvers; an untraced
        # run first keeps those imports out of the peaks.
        run_replicas(m, w, ProposalSpec(2.38, w.n), 1, seed=1, n_replicas=R)
        peaks = []
        for steps in (2 * width, 20 * width):
            tracemalloc.start()
            try:
                run_replicas(m, w, ProposalSpec(2.38, w.n), steps, seed=1,
                             n_replicas=R, recording="summary")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= sampler.CHUNK_BYTES + 16 * row_block + start, peaks
        assert peaks[1] <= peaks[0] + row_block, peaks

    def test_tau_grid_memory_grows_by_less_than_one_row_block(self):
        # Rows that share a chain id share its (c, n) block of unit
        # increments: nine tau values on two ids hold two blocks, not 18.
        m = gff(1.0, 1.0, d=2)
        w = build_box(2, 10, m.neighborhood)
        ids = [0, 1]
        row_block = 8 * sampler.CHUNK * w.n
        assert 2 * row_block <= sampler.CHUNK_BYTES  # a full CHUNK either way
        init = dict(init="given", init_config=Configuration(w, np.zeros(w.n)))
        peaks = []
        for taus in ([2.38], np.linspace(0.5, 4.5, 9)):
            specs = [ProposalSpec(t, w.n) for t in taus for _ in ids]
            tracemalloc.start()
            try:
                run_replicas(m, w, specs, 2 * sampler.CHUNK, seed=1,
                             n_replicas=len(specs), chain_ids=ids * len(taus),
                             recording="summary", **init)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < row_block, peaks

    def test_per_replica_specs_match_single_spec_runs(self):
        m = gff(1.0, 1.0, d=1)
        w = build_box(1, 4, m.neighborhood)
        taus = [0.5, 2.0, 2.0, 6.0]
        runs = run_replicas(m, w, [ProposalSpec(t, w.n, "uniform") for t in taus],
                            sampler.CHUNK + 30, seed=6, n_replicas=4,
                            chain_ids=[3, 1, 0, 2], recording="full",
                            track_first=2)
        for run, tau, cid in zip(runs, taus, [3, 1, 0, 2]):
            solo = run_replicas(m, w, ProposalSpec(tau, w.n, "uniform"),
                                sampler.CHUNK + 30, seed=6, chain_ids=[cid],
                                recording="full", track_first=2)[0]
            assert run.tau == tau
            for a, b in zip(dataclasses.astuple(run.records),
                            dataclasses.astuple(solo.records)):
                assert np.array_equal(a, b)
            assert np.array_equal(run.first_coord_path, solo.first_coord_path)
            assert np.array_equal(run.final_state.values, solo.final_state.values)

    def test_per_replica_specs_validation(self):
        m = gaussian_product(1.0, d=1)
        w = build_line(5, m.neighborhood)
        with pytest.raises(ValueError, match="one proposal spec per replica"):
            run_replicas(m, w, [ProposalSpec(1.0, 5)], 10, seed=0, n_replicas=2)
        with pytest.raises(ValueError, match="window size"):
            run_replicas(m, w, [ProposalSpec(1.0, 5), ProposalSpec(1.0, 4)],
                         10, seed=0, n_replicas=2)
        with pytest.raises(ValueError, match="increment family"):
            run_replicas(m, w, [ProposalSpec(1.0, 5),
                                ProposalSpec(1.0, 5, "uniform")],
                         10, seed=0, n_replicas=2)

    def test_acceptance_invariant_recomputable(self):
        m = gff(1.0, 1.0, d=1)
        w = build_box(1, 4, m.neighborhood)
        run = run_replicas(m, w, ProposalSpec(1.3, w.n), 500, seed=21,
                           recording="full")[0]
        rec = run.records
        with np.errstate(under="ignore"):
            p = np.where(rec.delta_h > 0, np.exp(-np.maximum(rec.delta_h, 0.0)), 1.0)
        assert np.array_equal(rec.accepted, rec.u < p)


class TestChunkLength:
    """Increments and uniforms come from two streams, so a chain is the same
    for every chunk length that CHUNK_BYTES allows."""

    STEPS = 2 * sampler.CHUNK + 37
    IDS = [2, 0, 5]

    def run(self, monkeypatch, case, c):
        model_name, family, init = case
        if model_name == "gff":
            m = gff(1.0, 0.5, d=2)
            w = build_box(2, 2, m.neighborhood, "constant", 0.3)
        else:
            m = phi4(0.25, -0.5, d=1)
            w = build_box(1, 6, m.neighborhood)
        kwargs = dict(init=init, burn_steps=300)
        if init == "given":
            kwargs["init_config"] = Configuration(w, np.linspace(-1.0, 1.0, w.n))
        rows = len(self.IDS)
        monkeypatch.setattr(sampler, "CHUNK_BYTES", c * 8 * rows * w.n)
        widths = []

        class Widths(sampler._SummaryStream):
            def add(self, acc, dh, jump):
                widths.append(acc.shape[1])
                super().add(acc, dh, jump)

        monkeypatch.setattr(sampler, "_SummaryStream", Widths)
        specs = [ProposalSpec(tau, w.n, family) for tau in (1.0, 2.38, 4.0)]
        runs = run_replicas(m, w, specs, self.STEPS, seed=23, n_replicas=rows,
                            chain_ids=self.IDS, recording="full", thin=7,
                            track_first=2, **kwargs)
        assert max(widths) == c
        return runs

    @pytest.mark.parametrize("case", [
        ("gff", "standard_normal", "exact_gaussian"),
        ("gff", "uniform", "burn_in"),
        ("phi4", "standard_normal", "burn_in"),
        ("phi4", "uniform", "given"),
    ], ids="-".join)
    def test_chains_equal_for_every_chunk_length(self, monkeypatch, case):
        ref = self.run(monkeypatch, case, sampler.CHUNK)
        for c in (1, 5):
            for a, b in zip(ref, self.run(monkeypatch, case, c)):
                for x, y in zip(dataclasses.astuple(a.records),
                                dataclasses.astuple(b.records)):
                    assert np.array_equal(x, y)
                assert np.array_equal(a.states, b.states)
                assert np.array_equal(a.first_coord_path, b.first_coord_path)
                assert np.array_equal(a.final_state.values, b.final_state.values)
                # Every summary field, the two float sums included: they add
                # block by block, not chunk by chunk.
                for x, y in zip(dataclasses.astuple(a.summary),
                                dataclasses.astuple(b.summary)):
                    assert np.array_equal(x, y)


class TestSharedStreams:
    """Rows with equal chain ids read one pair of streams, drawn once; each
    row still equals the solo chain of its id at its own tau."""

    IDS = [0, 1, 0, 1, 0]
    TAUS = [0.5, 1.0, 2.38, 4.0, 6.0]
    STEPS = sampler.CHUNK + 30

    @staticmethod
    def model_window(model_name):
        if model_name == "gff":
            m = gff(1.0, 0.5, d=1)
            return m, build_box(1, 3, m.neighborhood, "constant", 0.3)
        m = phi4(0.25, -0.5, d=1)
        return m, build_box(1, 3, m.neighborhood)

    @pytest.mark.parametrize("recording", sampler.RECORDING_MODES)
    @pytest.mark.parametrize("family", sampler.INCREMENT_FAMILIES)
    @pytest.mark.parametrize("model_name,init", [
        ("gff", "given"), ("gff", "exact_gaussian"), ("gff", "burn_in"),
        ("phi4", "burn_in"),
    ], ids="-".join)
    def test_repeated_ids_equal_solo_chains(self, model_name, init, family,
                                            recording):
        m, w = self.model_window(model_name)
        kwargs = dict(recording=recording, thin=7, track_first=2, init=init,
                      burn_steps=300)
        if init == "given":
            kwargs["init_config"] = Configuration(w, np.linspace(-1.0, 1.0, w.n))
        runs = run_replicas(m, w, [ProposalSpec(t, w.n, family) for t in self.TAUS],
                            self.STEPS, seed=17, n_replicas=len(self.IDS),
                            chain_ids=self.IDS, **kwargs)
        for run, tau, cid in zip(runs, self.TAUS, self.IDS):
            solo = run_replicas(m, w, ProposalSpec(tau, w.n, family), self.STEPS,
                                seed=17, chain_ids=[cid], **kwargs)[0]
            assert (run.chain_id, run.tau) == (cid, tau)
            if recording == "full":
                for a, b in zip(dataclasses.astuple(run.records),
                                dataclasses.astuple(solo.records)):
                    assert np.array_equal(a, b)
            else:
                assert run.records is None and solo.records is None
            if recording == "summary":
                assert run.states is None and solo.states is None
            else:
                assert np.array_equal(run.states, solo.states)
            assert np.array_equal(run.first_coord_path, solo.first_coord_path)
            assert np.array_equal(run.final_state.values, solo.final_state.values)
            for a, b in zip(dataclasses.astuple(run.summary),
                            dataclasses.astuple(solo.summary)):
                assert np.array_equal(a, b)
        # Same streams, different tau: the shared rows are different chains.
        assert runs[0].summary.accept_count != runs[4].summary.accept_count

    @pytest.mark.parametrize("init,burn_chunks", [("given", 0),
                                                  ("exact_gaussian", 0),
                                                  ("burn_in", 2)])
    def test_one_draw_per_distinct_id_per_chunk(self, monkeypatch, init,
                                                burn_chunks):
        draws, starts = [], []
        draw_increments = ProposalSpec.draw_increments
        exact_samples = sampler.gaussian_exact_samples

        def counting_draw(spec, rng, shape, out=None):
            draws.append(shape)
            return draw_increments(spec, rng, shape, out=out)

        def counting_start(precision, rng, count):
            starts.append(count)
            return exact_samples(precision, rng, count)

        monkeypatch.setattr(ProposalSpec, "draw_increments", counting_draw)
        monkeypatch.setattr(sampler, "gaussian_exact_samples", counting_start)
        m, w = self.model_window("gff")
        given = Configuration(w, np.zeros(w.n)) if init == "given" else None
        steps = 2 * sampler.CHUNK + 5  # three chunks
        run_replicas(m, w, [ProposalSpec(t, w.n) for t in self.TAUS], steps,
                     seed=3, n_replicas=len(self.IDS), chain_ids=self.IDS,
                     init=init, init_config=given, burn_steps=sampler.CHUNK + 1)
        distinct = len(set(self.IDS))
        assert len(draws) == distinct * (3 + burn_chunks)
        assert draws[-distinct:] == [(5, w.n)] * distinct
        assert len(starts) == (distinct if init == "exact_gaussian" else 0)


class TestOneProposalRounds:
    """A batch with R n > ROUND_SITES runs one proposal per round, on (R, 1)
    column views of its chunk buffers; its solo chains run several.  Each
    row still equals its solo chain bit for bit."""

    TAUS = [1.0, 2.38, 3.5, 6.0]
    STEPS = sampler.CHUNK + 40

    @pytest.mark.parametrize("ids", [[0, 1, 2, 3], [0, 1, 0, 1]],
                             ids=["own-streams", "shared-streams"])
    @pytest.mark.parametrize("model_name", ["gff", "product"])
    def test_rows_equal_solo_chains(self, monkeypatch, model_name, ids):
        if model_name == "gff":
            m = gff(1.0, 1.0, d=2)
            w = build_box(2, 10, m.neighborhood, "constant", 0.3)  # n = 441
        else:
            m = gaussian_product(1.0, d=1)  # diagonal Q: the masked commit
            w = build_line(400, m.neighborhood)
        assert len(self.TAUS) * w.n > sampler.ROUND_SITES
        counter = CountingRounds()
        monkeypatch.setattr(sampler, "gradient_dh", counter)
        kwargs = dict(recording="full", thin=7, track_first=3)
        specs = [ProposalSpec(tau, w.n) for tau in self.TAUS]
        runs = run_replicas(m, w, specs, self.STEPS, seed=29,
                            n_replicas=len(specs), chain_ids=ids, **kwargs)
        assert counter.calls == self.STEPS
        for run, spec, cid in zip(runs, specs, ids):
            counter.calls = 0
            solo = run_replicas(m, w, spec, self.STEPS, seed=29, chain_ids=[cid],
                                **kwargs)[0]
            for a, b in zip(dataclasses.astuple(run.records),
                            dataclasses.astuple(solo.records)):
                assert np.array_equal(a, b)
            assert np.array_equal(run.states, solo.states)
            assert np.array_equal(run.first_coord_path, solo.first_coord_path)
            assert np.array_equal(run.final_state.values, solo.final_state.values)
            for a, b in zip(dataclasses.astuple(run.summary),
                            dataclasses.astuple(solo.summary)):
                assert np.array_equal(a, b)
        # The last solo chain, at the lowest acceptance, ran multi-proposal
        # rounds.
        assert counter.calls < self.STEPS


class TestSingleSiteBatch:
    """The batch of checks.mc_vs_quad_acceptance: one site, four rows at
    tau = 0.5, 1, 2 and 4, each on its own stream, in rounds of several
    proposals that commit with masked ufuncs.  Each row equals its solo
    chain bit for bit."""

    TAUS = (0.5, 1.0, 2.0, 4.0)
    STEPS = 2 * sampler.CHUNK + 37

    def test_rows_equal_solo_chains(self, monkeypatch):
        counter = CountingRounds()
        monkeypatch.setattr(sampler, "gradient_dh", counter)
        m = gaussian_product(1.0, d=1)
        w = build_line(1, m.neighborhood)
        specs = [ProposalSpec(tau, 1) for tau in self.TAUS]
        kwargs = dict(recording="full", thin=7, track_first=1)
        runs = run_replicas(m, w, specs, self.STEPS, seed=31,
                            n_replicas=len(specs),
                            chain_ids=range(len(specs)), **kwargs)
        assert counter.calls < self.STEPS
        accepted = np.array([run.records.accepted for run in runs])
        # Some committed steps move some rows and leave the others.
        assert (accepted.any(axis=0) & ~accepted.all(axis=0)).any()
        for cid, (run, spec) in enumerate(zip(runs, specs)):
            solo = run_replicas(m, w, spec, self.STEPS, seed=31, chain_ids=[cid],
                                **kwargs)[0]
            for a, b in zip(dataclasses.astuple(run.records),
                            dataclasses.astuple(solo.records)):
                assert np.array_equal(a, b)
            assert np.array_equal(run.states, solo.states)
            assert np.array_equal(run.first_coord_path, solo.first_coord_path)
            assert np.array_equal(run.final_state.values, solo.final_state.values)
            for a, b in zip(dataclasses.astuple(run.summary),
                            dataclasses.astuple(solo.summary)):
                assert np.array_equal(a, b)


class TestSummarySums:
    """jump_sq_sum and dh_sum add one block of CHUNK steps at a time, in
    block order, each block's records summed as one contiguous run of
    values, whatever the chunk length."""

    STEPS = 2 * sampler.CHUNK + 145

    @staticmethod
    def widths(monkeypatch):
        """The chunk widths of the runs that follow, in order."""
        widths = []

        class Widths(sampler._SummaryStream):
            def add(self, acc, dh, jump):
                widths.append(acc.shape[1])
                super().add(acc, dh, jump)

        monkeypatch.setattr(sampler, "_SummaryStream", Widths)
        return widths

    @pytest.mark.parametrize("width", [sampler.CHUNK, 200, 100, 5])
    @pytest.mark.parametrize("ids", [[0, 1, 2], [0, 1, 0]],
                             ids=["own-streams", "shared-streams"])
    def test_sums_add_block_sums_in_order(self, monkeypatch, ids, width):
        m = gff(1.0, 0.5, d=1)
        w = build_box(1, 3, m.neighborhood, "constant", 0.3)
        # The budget counts the distinct streams, not the rows.
        monkeypatch.setattr(sampler, "CHUNK_BYTES", width * 8 * len(set(ids)) * w.n)
        widths = self.widths(monkeypatch)
        specs = [ProposalSpec(tau, w.n) for tau in (1.0, 2.38, 4.0)]
        runs = run_replicas(m, w, specs, self.STEPS, seed=13,
                            n_replicas=len(ids), chain_ids=ids, recording="full")
        assert max(widths) == width
        for run in runs:
            dh, jump = run.records.delta_h, run.records.jump_sq_first_coord
            dh_sum = jump_sum = 0.0
            for b in range(0, self.STEPS, sampler.CHUNK):
                dh_sum += dh[b:b + sampler.CHUNK].sum()
                jump_sum += jump[b:b + sampler.CHUNK].sum()
            assert run.summary.dh_sum == dh_sum
            assert run.summary.jump_sq_sum == jump_sum

    @pytest.mark.parametrize("ids", [[0, 1, 2, 3], [0, 1, 0, 1]],
                             ids=["own-streams", "shared-streams"])
    @pytest.mark.parametrize("model_name", ["gff", "phi4"])
    def test_batch_and_solo_summaries_equal_across_chunk_lengths(
            self, monkeypatch, model_name, ids):
        # The budget gives each solo chain 20-step chunks and the batch 5 or
        # 10, so their sums take every chunk length apart from the blocks.
        if model_name == "gff":
            m = gff(1.0, 0.5, d=2)
            w = build_box(2, 2, m.neighborhood, "constant", 0.3)
        else:
            m = phi4(0.25, -0.5, d=1)
            w = build_box(1, 6, m.neighborhood)
        monkeypatch.setattr(sampler, "CHUNK_BYTES", 20 * 8 * w.n)
        widths = self.widths(monkeypatch)
        specs = [ProposalSpec(tau, w.n) for tau in (1.0, 2.38, 3.5, 6.0)]
        kwargs = dict(init="burn_in", burn_steps=300)
        runs = run_replicas(m, w, specs, self.STEPS, seed=37,
                            n_replicas=len(specs), chain_ids=ids, **kwargs)
        assert max(widths) == 20 // len(set(ids))
        for run, spec, cid in zip(runs, specs, ids):
            widths.clear()
            solo = run_replicas(m, w, spec, self.STEPS, seed=37,
                                chain_ids=[cid], **kwargs)[0]
            assert max(widths) == 20
            for a, b in zip(dataclasses.astuple(run.summary),
                            dataclasses.astuple(solo.summary)):
                assert np.array_equal(a, b)


class TestCommitOperator:
    """The batch-shaped operator of a full-batch commit gives the window
    operator's gradient bit for bit, signed zeros included."""

    @staticmethod
    def window_operator(model_name):
        if model_name == "product":
            m = gaussian_product(2.0, d=1)
            w = build_line(6, m.neighborhood)
        elif model_name == "gff_zero":
            m = gff(1.0, 0.5, d=1)
            w = build_box(1, 3, m.neighborhood)
        else:
            m = gff(0.7, 0.3, d=2)
            w = build_box(2, 2, m.neighborhood, "constant", -1.5)
        return quadratic_operator(m, w)

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("model_name", ["product", "gff_zero", "gff_constant"])
    def test_gradient_equals_window_operator(self, model_name, rows):
        op = self.window_operator(model_name)
        batch = sampler._commit_operator(op, rows)
        if rows == 1 or op.offdiag is not None:
            # One row commits through 1-D views (see the test below), and
            # several rows with pair couplings only their moved rows, both
            # through op itself.
            assert batch is op
        else:
            assert batch.diag.shape == batch.shift.shape == (rows, op.n)
            assert batch.n == op.n
        x = np.random.default_rng(rows).standard_normal((rows, op.n))
        x[:, ::2] = -0.0
        x[-1] = -0.0
        want = op.gradient(x)
        if model_name == "product":
            assert np.signbit(want[x == 0]).all()  # -0.0 * Q_kk - 0.0
        for got in (batch.gradient(x), batch.gradient(x, out=np.empty_like(x))):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("model_name", ["product", "gff_zero", "gff_constant"])
    def test_one_dimensional_state_equals_its_batch_row(self, model_name):
        # A single chain commits through op.gradient of its 1-D state: one
        # sparse matvec, which must give the batch product's row bit for bit.
        op = self.window_operator(model_name)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, op.n)) * 10.0 ** rng.uniform(-8, 8, (5, op.n))
        x[:, ::2] = -0.0
        x[-1] = -0.0
        want = op.gradient(x)
        for r in range(len(x)):
            row = x[r].copy()
            for got in (op.gradient(row), op.gradient(row, out=np.empty(op.n))):
                assert got.shape == (op.n,)
                assert np.array_equal(got, want[r])
                assert np.array_equal(np.signbit(got), np.signbit(want[r]))
            assert np.array_equal(row, x[r])

    def test_one_row_takes_views(self):
        op = self.window_operator("gff_constant")
        batch = sampler._commit_operator(op, 1)
        assert np.shares_memory(batch.diag, op.diag)
        assert np.shares_memory(batch.shift, op.shift)


class TestSignedZeros:
    @pytest.mark.parametrize("model_name", ["gff", "product"])
    def test_rows_that_never_move_keep_negative_zeros(self, model_name):
        # Row 1's proposals are far too wide to be accepted; row 0 moves.
        if model_name == "gff":
            m = gff(1.0, 1.0, d=1)
            w = build_box(1, 3, m.neighborhood)
        else:
            m = gaussian_product(1.0, d=1)
            w = build_line(7, m.neighborhood)
        values = np.linspace(-1.0, 1.0, w.n)
        values[::2] = -0.0
        runs = run_replicas(m, w, [ProposalSpec(1.0, w.n), ProposalSpec(1e6, w.n)],
                            300, seed=3, n_replicas=2, recording="full", thin=10,
                            track_first=w.n, init="given",
                            init_config=Configuration(w, values))
        assert runs[0].summary.accept_count > 0
        assert runs[1].summary.accept_count == 0
        for x in (runs[1].final_state.values, *runs[1].states,
                  *runs[1].first_coord_path):
            assert np.array_equal(np.signbit(x), np.signbit(values))
            assert np.array_equal(x, values)


class TestLookahead:
    """Rounds of several proposals per dH evaluation, pinned to the one-step
    scalar reference where the lookahead is active."""

    @pytest.fixture
    def counter(self, monkeypatch):
        counting = CountingRounds()
        monkeypatch.setattr(sampler, "gradient_dh", counting)
        return counting

    def test_low_acceptance_phi4_two_chunks_and_tail(self, counter):
        m = phi4(0.25, -0.5, d=1)
        w = build_box(1, 10, m.neighborhood)
        steps = 2 * sampler.CHUNK + 37
        x0 = 0.5 * np.random.default_rng(3).standard_normal(w.n)
        (run,) = assert_matches_reference(m, w, ProposalSpec(3.0, w.n), steps,
                                          seed=5, ids=[0], init_values=x0)
        assert 0 < run.summary.acceptance < 0.3
        assert counter.calls < steps

    def test_one_remainder_evaluation_per_round(self, counter):
        # The start state's remainder, then one per round: an accepted
        # move adopts the remainder its dH was evaluated at.
        m = counter.counting_model(phi4(0.25, -0.5, d=1))
        w = build_box(1, 10, m.neighborhood)
        spec, steps, ids = ProposalSpec(1.5, w.n), 2 * sampler.CHUNK + 37, [0, 1, 2]
        x0 = 0.5 * np.random.default_rng(3).standard_normal(w.n)
        runs = assert_matches_reference(m, w, spec, steps, seed=5, ids=ids,
                                        init_values=x0)
        assert 0.2 < runs[0].summary.acceptance < 1
        counter.calls = counter.remainder_calls = 0
        run_replicas(m, w, spec, steps, seed=5, n_replicas=len(ids), chain_ids=ids,
                     recording="summary", init="given", init_config=Configuration(w, x0))
        assert counter.calls > 0
        assert counter.remainder_calls == counter.calls + 1

    def test_batched_rows_match_standalone_and_reference(self, counter):
        m = gff(1.0, 1.0, d=1)
        w = build_box(1, 5, m.neighborhood)
        spec = ProposalSpec(4.0, w.n)
        steps = sampler.CHUNK + 100
        ids = [5, 0, 2]
        runs = assert_matches_reference(m, w, spec, steps, seed=17, ids=ids)
        assert counter.calls < steps
        for run, cid in zip(runs, ids):
            solo = run_replicas(m, w, spec, steps, seed=17, chain_ids=[cid],
                                recording="full")[0]
            assert np.array_equal(run.records.delta_h, solo.records.delta_h)
            assert np.array_equal(run.records.accepted, solo.records.accepted)
            assert np.array_equal(run.final_state.values, solo.final_state.values)

    def test_thinned_states_and_path_inside_rounds(self, counter):
        m = gaussian_product(1.0, d=1)
        w = build_line(12, m.neighborhood)
        steps = sampler.CHUNK + 60
        (run,) = assert_matches_reference(m, w, ProposalSpec(3.5, w.n), steps,
                                          seed=9, ids=[1], thin=7, track_first=3,
                                          init_values=np.linspace(-1.0, 1.0, w.n))
        assert run.states.shape == (steps // 7, w.n)
        assert counter.calls < steps

    def test_uniform_increments(self, counter):
        m = gaussian_product(1.0, d=1)
        w = build_line(10, m.neighborhood)
        steps = sampler.CHUNK + 80
        assert_matches_reference(m, w, ProposalSpec(3.5, w.n, "uniform"), steps,
                                 seed=2, ids=[0], init_values=np.zeros(w.n))
        assert counter.calls < steps

    def test_nonfinite_dh_inside_a_round(self, counter):
        # The self potential drops to -inf beyond |x| = 2: every such
        # proposal has dH = -inf and must be rejected, not accepted.
        m = custom_pairwise({(1,): 0.5, (-1,): 0.5},
                            lambda x: np.where(np.abs(x) > 2.0, -np.inf, 0.5 * x * x),
                            lambda x: x)
        w = build_box(1, 4, m.neighborhood)
        steps = sampler.CHUNK + 120
        (run,) = assert_matches_reference(m, w, ProposalSpec(3.0, w.n), steps,
                                          seed=4, ids=[0], init_values=np.zeros(w.n))
        dh = run.records.delta_h
        assert np.isneginf(dh[sampler.CHUNK:]).any()
        assert not run.records.accepted[~np.isfinite(dh)].any()
        assert run.summary.nonfinite_dh == np.count_nonzero(~np.isfinite(dh))
        assert counter.calls < steps

    @pytest.mark.parametrize("ids", [[0], [0, 1]])
    def test_remainder_that_returns_its_input(self, counter, ids):
        # gradient_dh hands the remainder x + d in its own scratch array: a
        # self potential that returns its argument must still give the
        # one-step chain, not the scratch's later contents.
        m = custom_pairwise({(1,): 0.5, (-1,): 0.5}, lambda x: x, lambda x: 1.0 + 0 * x)
        w = build_box(1, 3, m.neighborhood)
        steps = sampler.CHUNK + 40
        runs = assert_matches_reference(m, w, ProposalSpec(2.0, w.n), steps, seed=6,
                                        ids=ids, init_values=np.zeros(w.n))
        assert 0 < runs[0].summary.acceptance < 1
        assert counter.calls < steps

    def test_phi4_chain_makes_at_most_half_as_many_calls_as_steps(self, counter):
        m = phi4(0.25, -0.5, d=1)
        w = build_box(1, 49, m.neighborhood)
        steps = 2048
        run_replicas(m, w, ProposalSpec(1.4, w.n), steps, seed=1, init="given",
                     init_config=Configuration(w, np.zeros(w.n)))
        assert counter.calls <= steps / 2

    def test_large_batch_makes_one_call_per_step(self, counter):
        m = gff(1.0, 1.0, d=2)
        w = build_box(2, 24, m.neighborhood)
        steps = 300
        runs = run_replicas(m, w, ProposalSpec(6.0, w.n), steps, seed=1,
                            n_replicas=8, init="given",
                            init_config=Configuration(w, np.zeros(w.n)))
        assert max(r.summary.acceptance for r in runs) < 0.2
        assert counter.calls == steps

    def test_round_size_rule(self):
        # No steps yet (a = 1): one proposal per round.
        assert sampler._lookahead(1.0, 1, 99, sampler.CHUNK) == 1
        k = sampler._lookahead(0.23, 1, 99, sampler.CHUNK)
        assert 1 < k * 99 <= sampler.ROUND_SITES
        assert sampler._lookahead(0.0, 1, 1, 5) == 5
        # A round of two proposals would exceed the site budget.
        assert sampler._lookahead(0.0, 8, 100, sampler.CHUNK) == 1
        assert sampler._lookahead(0.0, 8, 2401, sampler.CHUNK) == 1


def exact_energy(model, window, values, self_exact):
    """H(x) in exact rational arithmetic, straight from the pair-term
    definition (index_of, the boundary mode's frozen value); `self_exact`
    maps a Fraction to the self energy."""
    x = [Fraction(v) for v in values]
    outside = frozen_value(window.boundary_mode, window.boundary_constant)
    total = Fraction(0)
    for i, k in enumerate(window.vertices):
        total += self_exact(x[i])
        for v in model.neighborhood.nonzero_offsets:
            tgt = tuple(a + b for a, b in zip(k, v))
            if tgt in window.index_of:
                nv = x[window.index_of[tgt]]
            elif outside is None:
                continue
            else:
                nv = Fraction(outside)
            total += (Fraction(model.pair_diag[v]) * x[i] * x[i]
                      - Fraction(model.pair_cross[v]) * x[i] * nv)
    return total


class TestGradientFormAccuracy:
    """Kernel dH against H(y) - H(x) evaluated exactly with fractions."""

    def replay(self, model, window, spec, steps, seed, init):
        """Each step's recorded dH, its state x and its proposal y."""
        run = run_replicas(model, window, spec, steps, seed, recording="full",
                           track_first=window.n, **init)[0]
        rng = chain_rng(seed, 0)
        if init["init"] == "exact_gaussian":
            gaussian_exact_samples(build_precision(model, window), rng, 1)
        incr = spec.draw_increments(rng, (steps, window.n))
        xs = run.first_coord_path[:-1]
        return run.records.delta_h, xs, xs + spec.sigma * incr

    @pytest.mark.parametrize("case", ["gff_constant_1e3", "phi4"])
    def test_dh_matches_exact_difference(self, case):
        if case == "phi4":
            a, b = 0.25, -0.5
            m = phi4(a, b, d=1)
            w = build_box(1, 12, m.neighborhood)
            spec = ProposalSpec(1.4, w.n)
            init = dict(init="given", init_config=Configuration(
                w, 0.8 * np.random.default_rng(5).standard_normal(w.n)))

            def self_exact(x):
                return (Fraction(a) * x * x + Fraction(b)) * x * x
        else:
            m2 = 0.3
            m = gff(0.7, m2, d=2)
            # The mean field sits near the boundary constant, so every site
            # energy is of order 1e6 while dH stays of order 1.
            w = build_box(2, 2, m.neighborhood, "constant", 1e3)
            spec = ProposalSpec(2.0, w.n)
            init = dict(init="exact_gaussian")

            def self_exact(x):
                return Fraction(0.5 * m2) * x * x
        steps = sampler.CHUNK + 44
        dh, xs, ys = self.replay(m, w, spec, steps, seed=8, init=init)
        exact = np.array([float(exact_energy(m, w, y, self_exact)
                                - exact_energy(m, w, x, self_exact))
                          for x, y in zip(xs, ys)])
        assert np.all(np.isfinite(dh))
        # Per-site differences of energies of order 1e6, as reference_dh
        # takes them, are off by up to 1.6e-10 here on the GFF; the gradient
        # form, which the kernel and delta_hamiltonian share, by 5e-13.
        scale = np.maximum(np.abs(exact), 1.0)
        assert (np.abs(dh - exact) / scale).max() < 1e-11
        lib = np.array([delta_hamiltonian(m, Configuration(w, x), Configuration(w, y))
                        for x, y in zip(xs, ys)])
        assert (np.abs(lib - exact) / scale).max() < 1e-11

    def test_shared_stream_rows_match_the_unfactored_dh(self):
        # Rows that share a stream take their quadratic term as
        # sigma**2 * z'Qz, delta_hamiltonian as d'Qd of the move y - x.  On
        # the constant-boundary GFF, whose site energies are of order 1e6,
        # they agree to 3e-13 relative, mostly the rounding of y - x.
        m = gff(0.7, 0.3, d=2)
        w = build_box(2, 2, m.neighborhood, "constant", 1e3)
        x0 = Configuration(w, 1e3 + np.random.default_rng(4).standard_normal(w.n))
        taus = np.linspace(0.5, 4.5, 9)
        ids = [3, 8]
        specs = [ProposalSpec(t, w.n) for t in taus for _ in ids]
        runs = run_replicas(m, w, specs, 5, seed=2, n_replicas=len(specs),
                            chain_ids=ids * len(taus), recording="full",
                            init="given", init_config=x0)
        for run, spec in zip(runs, specs):
            z0 = spec.draw_increments(chain_rng(2, run.chain_id), (1, w.n))[0]
            y = Configuration(w, x0.values + spec.sigma * z0)
            want = delta_hamiltonian(m, x0, y)
            assert abs(run.records.delta_h[0] - want) <= 1e-12 * max(1.0, abs(want))
