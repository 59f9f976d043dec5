"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Budgeted for a 4-core laptop; the full gate takes a few minutes.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from gibbsrwm.checks import detailed_balance, mc_vs_quad_acceptance
from gibbsrwm.cli import main as cli_main
from gibbsrwm.estimators import (CYLINDER_FUNCTIONS, acceptance_rate,
                                 delta_h_stats, estimate_s2, pool_replicas)
from gibbsrwm.lattice import (Window, boundary_ratio, build_box, build_line,
                              h2_diagnostics, loglog_slope, nearest_neighbor)
from gibbsrwm.models import (Configuration, custom_pairwise, gaussian_product,
                             gff, hamiltonian, hamiltonian_gradient,
                             log_density_ratio, phi4)
from gibbsrwm.oracle import gaussian_s2_exact
from gibbsrwm.sampler import ProposalSpec, chain_rng, run_replicas
from gibbsrwm.scaling import (c_mc_oracle, c_theoretical, mosco_m2_check,
                              sweep_tau, tau_star)

SEED = 20250808


def report(criterion: str, detail: str):
    print(f"\n[ACCEPTANCE] {criterion}: PASS  ({detail})")


def test_criterion_01_optimal_acceptance_0234():
    """Gaussian product, n=100, tau=2.38, 8 x 200k steps from exact start:
    pooled acceptance in [0.210, 0.260] within the 60 s budget."""
    model = gaussian_product(1.0, d=1)
    window = build_line(100, model.neighborhood)
    spec = ProposalSpec(2.38, 100)
    t0 = time.perf_counter()
    runs = run_replicas(model, window, spec, 200_000, SEED, n_replicas=8,
                        recording="summary", init="exact_gaussian")
    elapsed = time.perf_counter() - t0
    pooled = pool_replicas(acceptance_rate(r.summary) for r in runs)
    assert 0.210 <= pooled.value <= 0.260, pooled
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    report("1 optimal acceptance 0.234",
           f"acceptance {pooled.value:.4f} +/- {pooled.std_error:.4f}, "
           f"{elapsed:.1f}s")


def test_criterion_02_c_identity():
    """Closed-form c against the Monte Carlo oracle at 1e6 draws (4 SE),
    plus the 0.2338 +/- 0.0005 value at tau=2.38, s=1."""
    worst = 0.0
    for i, ts in enumerate((0.5, 1.0, 2.38, 4.0)):
        mc = c_mc_oracle(ts, 1.0, 1_000_000, SEED + i)
        z = abs(mc.value - c_theoretical(ts, 1.0)) / mc.std_error
        worst = max(worst, z)
        assert z <= 4.0, (ts, mc, z)
    c_opt = c_theoretical(2.38, 1.0)
    assert abs(c_opt - 0.2338) <= 0.0005, c_opt
    report("2 c(tau) identity",
           f"worst |mc-theory| = {worst:.2f} SE; c(2.38,1) = {c_opt:.6f}")


def test_criterion_03_tau_star_localization():
    """ESJD argmax on a 0.25-step grid lands within one step of 2.38; the
    golden-section optimum of tau^2 c(tau) matches 2.38/s to 1e-3 relative."""
    model = gaussian_product(1.0, d=1)
    window = build_line(100, model.neighborhood)
    grid = [round(1.38 + 0.25 * k, 2) for k in range(9)]
    curve = sweep_tau(model, window, grid, steps=100_000, replicas=8,
                      seed=SEED, s_hat=1.0)
    best = max(curve.rows, key=lambda r: r.esjd.value)
    assert abs(best.tau - 2.38) <= 0.25 + 1e-9, best.tau
    for s in (0.5, 1.0, 2.0, 5.0):
        t = tau_star(s)
        assert abs(t * s - 2.38) / 2.38 <= 1e-3, (s, t)
    # the empirical maximizer nearly attains the theoretical peak efficiency
    eff_at_best = best.tau**2 * c_theoretical(best.tau, 1.0)
    eff_peak = tau_star(1.0) ** 2 * c_theoretical(tau_star(1.0), 1.0)
    assert eff_at_best >= 0.95 * eff_peak
    report("3 tau* localization",
           f"ESJD argmax at tau={best.tau}; tau*(1) = {tau_star(1.0):.6f}")


def test_criterion_04_delta_h_clt():
    """Gaussian product, n=400, tau=1: proposal dH has mean ~ 0.5 (3 SE),
    variance within 5% of 1, and a sub-critical KS distance to N(0,1)."""
    model = gaussian_product(1.0, d=1)
    window = build_line(400, model.neighborhood)
    runs = run_replicas(model, window, ProposalSpec(1.0, 400), 100_000, SEED,
                        n_replicas=4, recording="full")
    stats = [delta_h_stats(r.records) for r in runs]
    mean = pool_replicas(s.mean for s in stats)
    assert abs(mean.value - 0.5) <= 3 * mean.std_error, mean
    dh = np.concatenate([r.records.delta_h for r in runs])
    var = float(dh.var(ddof=1))
    assert abs(var - 1.0) <= 0.05, var
    thinned = np.concatenate([r.records.delta_h[::25] for r in runs])
    from scipy.stats import kstest

    ks = kstest((thinned - thinned.mean()) / thinned.std(ddof=1), "norm").statistic
    crit = 1.6276 / math.sqrt(thinned.size)
    assert ks < crit, (ks, crit)
    report("4 delta-H CLT",
           f"mean {mean.value:.4f} +/- {mean.std_error:.4f}, var {var:.4f}, "
           f"KS {ks:.4f} < {crit:.4f} on {thinned.size} thinned samples")


def test_criterion_05_s2_ergodic_estimator():
    """2D massive free field on a 16x16 zero-boundary window: the chain
    estimate of the gradient second moment meets the exact Gaussian value."""
    model = gff(1.0, 1.0, d=2)
    window = Window(sorted(itertools.product(range(16), repeat=2)),
                    model.neighborhood, boundary_mode="zero")
    exact = gaussian_s2_exact(model, window)
    tau = 2.38 / math.sqrt(exact)
    runs = run_replicas(model, window, ProposalSpec(tau, window.n), 50_000,
                        SEED, n_replicas=2, recording="thinned", thin=10)
    est = pool_replicas(estimate_s2(model, r) for r in runs)
    assert abs(est.value - exact) <= 3 * est.std_error, (est, exact)
    rel = abs(est.value - exact) / exact
    assert rel <= 0.05, rel
    report("5 s(pi) ergodic estimator",
           f"estimate {est.value:.4f} +/- {est.std_error:.4f} vs exact {exact:.4f} "
           f"(rel gap {100 * rel:.2f}%)")


def test_criterion_06_mosco_m2_table():
    """sin(x1) Dirichlet forms at n in {25,100,400}, tau=2.38: gaps shrink
    monotonically (2 SE slack) and the final gap is within 2 combined SE of
    zero against the quadrature limit."""
    f = CYLINDER_FUNCTIONS["sin_x1"]
    model = gaussian_product(1.0)
    windows = [build_line(n, model.neighborhood) for n in (25, 100, 400)]
    table = mosco_m2_check(f, model, windows, tau=2.38, steps=200_000, seed=SEED,
                           replicas=4)
    rows = table.rows
    assert [r.n for r in rows] == [25, 100, 400]
    for a, b in zip(rows, rows[1:]):
        slack = 2 * math.hypot(a.empirical.std_error, b.empirical.std_error)
        assert b.gap <= a.gap + slack, (a, b)
    last = rows[-1]
    combined = math.hypot(last.empirical.std_error, last.limiting.std_error)
    assert last.gap <= 2 * combined, (last.gap, combined)
    report("6 Mosco M2 table",
           "gaps " + " -> ".join(f"{r.gap:.4f}" for r in rows)
           + f"; final vs 2SE = {last.gap:.4f} vs {2 * combined:.4f}; "
           f"E(f) = {table.limiting.value:.5f}")


def test_criterion_07_oracle_equivalence():
    """Single-site MC acceptance within 3 SE of quadrature at four taus, and
    the discretized detailed-balance check."""
    mc = mc_vs_quad_acceptance(SEED, steps=200_000)
    assert mc.passed, mc.detail
    db = detailed_balance(SEED, steps=200_000)
    assert db.passed, db.detail
    report("7 oracle equivalence", f"{mc.detail} | {db.detail}")


def test_criterion_08_h2_diagnostics():
    """2D boxes L in {2,4,8,16}: halo ratio decays at least like n^-0.45 and
    the inscribed radius grows strictly."""
    nb = nearest_neighbor(2)
    rep = h2_diagnostics(2, [2, 4, 8, 16], nb)
    ns = [r.n for r in rep]
    ratios = [r.boundary_ratio for r in rep]
    slope = loglog_slope(ns, ratios)
    assert slope <= -0.45, slope
    radii = [r.inradius for r in rep]
    assert all(a < b for a, b in zip(radii, radii[1:])), radii
    report("8 H2 diagnostics",
           f"log-log slope {slope:.3f} <= -0.45; inradii {radii}")


def _acceptance_cli_configs(tmp_path):
    gp = {"model": {"family": "gaussian_product", "parameters": {"variance": 1.0}},
          "graph": {"d": 1, "L": 10}, "seed": 77, "output_dir": ""}

    def with_run(run, **over):
        doc = json.loads(json.dumps(gp))
        doc["run"] = run
        doc.update(over)
        return doc

    return {
        "sample": with_run({"steps": 400, "tau": 2.38}),
        "sweep-tau": with_run({"steps": 300, "tau_grid": [1.0, 2.38], "replicas": 2}),
        "sweep-n": with_run({"steps": 300, "tau": 1.0, "n_list": [4, 9],
                             "replicas": 2}),
        "estimate-s": with_run({"steps": 600, "tau": 1.0, "thin": 5}),
        "dirichlet-check": with_run({"steps": 600, "tau": 2.38, "n_list": [4, 9],
                                     "replicas": 2, "cylinder": "sin_x1"}),
        "clt-check": with_run({"steps": 800, "tau": 1.0, "thin": 5}),
        "oracle-check": with_run({"steps": 100,
                                  "battery": ["determinism", "increment_moments"]}),
    }


def test_criterion_09_cli_determinism(tmp_path):
    """Every CLI command rerun with the identical config document and seed
    writes byte-identical primary outputs (everything except the manifest)."""
    checked = []
    for command, doc in _acceptance_cli_configs(tmp_path).items():
        out = tmp_path / command
        doc["output_dir"] = str(out)
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(doc))
        assert cli_main([command, "--config", str(cfg)]) == 0, command
        stash = tmp_path / f"{command}-first"
        out.rename(stash)
        assert cli_main([command, "--config", str(cfg)]) == 0, command
        names = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert names, command
        for name in names:
            assert (out / name).read_bytes() == (stash / name).read_bytes(), \
                (command, name)
        checked.append(f"{command}({len(names)})")
    report("9 CLI determinism", "byte-identical: " + ", ".join(checked))


def test_criterion_10_property_suites():
    """Bundled property checks: analytic gradients vs finite differences,
    exact antisymmetry of log density ratios, acceptance invariance under
    constant potential shifts, and increment moments."""
    rng = np.random.default_rng(SEED)

    # gradients against central differences, 1e-6
    probes = [
        (gaussian_product(1.0, d=1), build_line(6, gaussian_product(1.0, d=1).neighborhood)),
        (gff(1.0, 1.0, d=2), build_box(2, 2, nearest_neighbor(2))),
        (phi4(0.5, -1.0, d=1), build_box(1, 3, nearest_neighbor(1))),
    ]
    h = 1e-5
    worst_fd = 0.0
    for model, window in probes:
        for _ in range(40):
            vals = rng.standard_normal(window.n)
            grads = hamiltonian_gradient(model, window, vals)
            i = int(rng.integers(window.n))
            up = vals.copy(); up[i] += h
            dn = vals.copy(); dn[i] -= h
            fd = (hamiltonian(model, Configuration(window, up))
                  - hamiltonian(model, Configuration(window, dn))) / (2 * h)
            worst_fd = max(worst_fd, abs(grads[i] - fd))
    assert worst_fd < 1e-6, worst_fd

    # antisymmetry at 1e-12
    worst_anti = 0.0
    for model, window in probes:
        for _ in range(40):
            x = Configuration(window, rng.standard_normal(window.n))
            y = Configuration(window, rng.standard_normal(window.n))
            worst_anti = max(worst_anti, abs(log_density_ratio(model, x, y)
                                             + log_density_ratio(model, y, x)))
    assert worst_anti <= 1e-12, worst_anti

    # acceptance invariant under constant potential shifts, 1e-12
    base = custom_pairwise({(1,): 0.5, (-1,): 0.5}, lambda x: 0.5 * x * x,
                           lambda x: x)
    shifted = custom_pairwise({(1,): 0.5, (-1,): 0.5},
                              lambda x: 0.5 * x * x - 3.75, lambda x: x)
    wb = build_box(1, 2, base.neighborhood)
    ws = build_box(1, 2, shifted.neighborhood)
    worst_shift = 0.0
    for i in range(20):
        start = rng.standard_normal(wb.n)
        a, b = [run_replicas(model, window, ProposalSpec(2.38, window.n), 300,
                             SEED + i, recording="full", init="given",
                             init_config=Configuration(window, start))[0].records
                for model, window in ((base, wb), (shifted, ws))]
        worst_shift = max(worst_shift, np.max(np.abs(
            np.exp(-np.maximum(a.delta_h, 0.0))
            - np.exp(-np.maximum(b.delta_h, 0.0)))))
        assert np.array_equal(a.accepted, b.accepted)
    assert worst_shift <= 1e-12, worst_shift

    # increment families: mean and variance within CLT bounds
    for i, fam in enumerate(("standard_normal", "uniform")):
        x = ProposalSpec(1.0, 1, fam).draw_increments(chain_rng(SEED, i), 200_000)
        assert abs(x.mean()) < 4 / math.sqrt(x.size)
        assert abs(x.var() - 1.0) < 5 / math.sqrt(x.size)

    report("10 property suites",
           f"max |grad-fd| {worst_fd:.2e}; max antisymmetry {worst_anti:.2e}; "
           f"max shift effect {worst_shift:.2e}; increment moments ok")
