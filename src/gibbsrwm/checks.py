"""Oracle-versus-main-path consistency battery.

Each check pits the sampling/estimation path against an independent
reference (quadrature, closed form, or a determinism contract) and returns
a pass/fail row.  The CLI `oracle-check` command runs a configurable subset
and fails its exit code if any row fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import acceptance_rate, batch_means_se
from .lattice import build_box, build_line
from .models import gaussian_product, gff
from .oracle import build_precision, gaussian_exact_samples, quad_acceptance
from .sampler import ProposalSpec, chain_rng, run_replicas
from .scaling import c_mc_oracle, c_theoretical, sweep_tau


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def mc_vs_quad_acceptance(seed: int, steps: int = 150_000) -> CheckResult:
    """Single-site chain acceptance against the exact acceptance
    (`quad_acceptance`) at tau = 0.5, 1, 2 and 4, 3 SE."""
    taus = (0.5, 1.0, 2.0, 4.0)
    model = gaussian_product(1.0, d=1)
    window = build_line(1, model.neighborhood)
    # One stacked block: chain i runs at taus[i], as a chain of its own would.
    runs = run_replicas(model, window, [ProposalSpec(tau, 1) for tau in taus],
                        steps, seed, n_replicas=len(taus),
                        chain_ids=range(len(taus)), recording="summary")
    worst = 0.0
    details = []
    ok = True
    for tau, run in zip(taus, runs):
        mc = acceptance_rate(run.summary)
        q = quad_acceptance(model, window, tau)
        z = abs(mc.value - q) / max(mc.std_error, 1e-12)
        worst = max(worst, z)
        ok &= z <= 3.0
        details.append(f"tau={tau}: mc={mc.value:.4f} quad={q:.4f} z={z:.2f}")
    return CheckResult("mc_vs_quad_acceptance", ok,
                       "; ".join(details) + f"; worst z={worst:.2f} (limit 3)")


def mc_vs_quad_acceptance_uniform(seed: int) -> CheckResult:
    """Uniform-increment chains on the 100-site product against the exact
    acceptance at tau = 1 and 2.38, 3 SE of four pooled replicas."""
    model = gaussian_product(1.0, d=1)
    window = build_line(100, model.neighborhood)
    curve = sweep_tau(model, window, (1.0, 2.38), 40_000, 4, seed,
                      increment_family="uniform", s_hat=1.0)
    worst = 0.0
    details = []
    for row in curve.rows:
        mc = row.acceptance
        q = quad_acceptance(model, window, row.tau, increment_family="uniform")
        z = (mc.value - q) / max(mc.std_error, 1e-12)
        worst = max(worst, abs(z))
        details.append(f"tau={row.tau}: mc={mc.value:.4f} quad={q:.4f} z={z:+.2f}")
    return CheckResult("mc_vs_quad_acceptance_uniform", worst <= 3.0,
                       "; ".join(details) + f"; worst |z|={worst:.2f} (limit 3)")


def detailed_balance(seed: int, steps: int = 200_000) -> CheckResult:
    """Discretized flux balance pi(x)P(x,y) == pi(y)P(y,x) on a 1-site chain
    at tau = 1.5.

    Transition counts between 8 state cells on [-2.4, 2.4] and the two tails
    must balance within Poisson error, and cell occupancies must match
    quadrature probabilities of the target.
    """
    n_cells = 8
    model = gaussian_product(1.0, d=1)
    window = build_line(1, model.neighborhood)
    run = run_replicas(model, window, ProposalSpec(1.5, 1), steps, seed,
                       track_first=1)[0]
    xs = run.first_coord_path[:, 0]
    edges = np.linspace(-2.4, 2.4, n_cells + 1)
    cells = np.digitize(xs, edges)  # 0 and n_cells+1 are the tails
    counts = np.zeros((n_cells + 2, n_cells + 2))
    np.add.at(counts, (cells[:-1], cells[1:]), 1.0)

    worst_flux = 0.0
    for i in range(n_cells + 2):
        for j in range(i + 1, n_cells + 2):
            tot = counts[i, j] + counts[j, i]
            if tot >= 25:
                worst_flux = max(worst_flux,
                                 abs(counts[i, j] - counts[j, i]) / math.sqrt(tot))

    # The standard normal CDF at the cell edges, Phi(x) = erfc(-x/sqrt 2)/2.
    cdf = [0.5 * math.erfc(-x / math.sqrt(2.0)) for x in edges]
    probs = np.diff(np.concatenate([[0.0], cdf, [1.0]]))
    worst_occ = 0.0
    for c in range(n_cells + 2):
        ind = (cells == c).astype(float)
        se = max(batch_means_se(ind), 1e-12)
        worst_occ = max(worst_occ, abs(ind.mean() - probs[c]) / se)

    ok = worst_flux <= 4.5 and worst_occ <= 4.5
    return CheckResult("detailed_balance", ok,
                       f"worst flux z={worst_flux:.2f}, worst occupancy z={worst_occ:.2f} "
                       "(limit 4.5)")


def c_identity(seed: int) -> CheckResult:
    """Monte Carlo c(tau) from 400 000 draws against the closed form, 4 SE
    at each tau*s in (0.5, 1, 2.38, 4)."""
    ok = True
    details = []
    for i, ts in enumerate((0.5, 1.0, 2.38, 4.0)):
        mc = c_mc_oracle(ts, 1.0, 400_000, seed + i)
        th = c_theoretical(ts, 1.0)
        z = abs(mc.value - th) / max(mc.std_error, 1e-12)
        ok &= z <= 4.0
        details.append(f"tau*s={ts}: z={z:.2f}")
    return CheckResult("c_identity", ok, "; ".join(details) + " (limit 4)")


def determinism(seed: int) -> CheckResult:
    """Bit-identical rerun of a 3000-step chain."""
    model = gaussian_product(1.0, d=1)
    window = build_line(32, model.neighborhood)
    spec = ProposalSpec(1.7, 32)
    a, b = (run_replicas(model, window, spec, 3000, seed, recording="full")[0]
            for _ in range(2))
    same = (np.array_equal(a.records.delta_h, b.records.delta_h)
            and np.array_equal(a.records.u, b.records.u)
            and np.array_equal(a.final_state.values, b.final_state.values))
    return CheckResult("determinism", same,
                       "bit-identical rerun" if same else "reruns differ")


def exact_sampler_moments(seed: int) -> CheckResult:
    """Covariance of 30 000 exact Gaussian draws against the inverse precision."""
    draws = 30_000
    model = gff(1.0, 1.0, d=2)
    window = build_box(2, 1, model.neighborhood)
    prec = build_precision(model, window)
    rng = chain_rng(seed, 0)
    xs = gaussian_exact_samples(prec, rng, draws)
    emp = np.cov(xs.T)
    cov = prec.covariance()
    se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / draws)
    z = float(np.max(np.abs(emp - cov) / se))
    return CheckResult("exact_sampler_moments", z <= 4.5,
                       f"worst covariance z={z:.2f} (limit 4.5)")


def increment_moments(seed: int) -> CheckResult:
    """Mean and variance of 200 000 draws of each increment family, CLT bounds."""
    draws = 200_000
    ok = True
    details = []
    for i, fam in enumerate(("standard_normal", "uniform")):
        spec = ProposalSpec(1.0, 1, fam)
        x = spec.draw_increments(chain_rng(seed, i), draws)
        m_ok = abs(x.mean()) < 4.0 / math.sqrt(draws)
        v_ok = abs(x.var() - 1.0) < 5.0 / math.sqrt(draws)
        ok &= m_ok and v_ok
        details.append(f"{fam}: mean={x.mean():.2e} var-1={x.var()-1:.2e}")
    return CheckResult("increment_moments", ok, "; ".join(details))


BATTERY = {
    "mc_vs_quad_acceptance": mc_vs_quad_acceptance,
    "mc_vs_quad_acceptance_uniform": mc_vs_quad_acceptance_uniform,
    "detailed_balance": detailed_balance,
    "c_identity": c_identity,
    "determinism": determinism,
    "exact_sampler_moments": exact_sampler_moments,
    "increment_moments": increment_moments,
}


def run_battery(names, seed: int) -> list[CheckResult]:
    picked = list(names)
    if not picked:
        raise ValueError("empty check battery")
    unknown = [n for n in picked if n not in BATTERY]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    return [BATTERY[name](seed) for name in picked]
