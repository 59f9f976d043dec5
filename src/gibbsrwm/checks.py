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

from .estimators import acceptance_rate, batch_means_se, pool_replicas
from .lattice import build_box, build_line
from .models import gaussian_product, gff
from .oracle import build_precision, gaussian_exact_samples, quad_acceptance
from .sampler import ProposalSpec, chain_rng, run_chain, run_replicas
from .scaling import c_mc_oracle, c_theoretical


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def mc_vs_quad_acceptance(seed: int, steps: int = 150_000,
                          taus=(0.5, 1.0, 2.0, 4.0)) -> CheckResult:
    """Single-site chain acceptance against the exact acceptance
    (`quad_acceptance`), 3 SE."""
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
    taus, replicas, steps = (1.0, 2.38), 4, 40_000
    # Replica r runs on chain id r at both taus, so its increments are drawn once.
    runs = run_replicas(model, window, [ProposalSpec(tau, 100, "uniform")
                                        for tau in taus for _ in range(replicas)],
                        steps, seed, n_replicas=len(taus) * replicas,
                        chain_ids=list(range(replicas)) * len(taus), recording="summary")
    worst = 0.0
    details = []
    for i, tau in enumerate(taus):
        mc = pool_replicas(acceptance_rate(run.summary)
                           for run in runs[i * replicas:(i + 1) * replicas])
        q = quad_acceptance(model, window, tau, increment_family="uniform")
        z = (mc.value - q) / max(mc.std_error, 1e-12)
        worst = max(worst, abs(z))
        details.append(f"tau={tau}: mc={mc.value:.4f} quad={q:.4f} z={z:+.2f}")
    return CheckResult("mc_vs_quad_acceptance_uniform", worst <= 3.0,
                       "; ".join(details) + f"; worst |z|={worst:.2f} (limit 3)")


def detailed_balance(seed: int, tau: float = 1.5, steps: int = 200_000,
                     n_cells: int = 8, span: float = 2.4) -> CheckResult:
    """Discretized flux balance pi(x)P(x,y) == pi(y)P(y,x) on a 1-site chain.

    Transition counts between state cells must balance within Poisson error,
    and cell occupancies must match quadrature probabilities of the target.
    """
    model = gaussian_product(1.0, d=1)
    window = build_line(1, model.neighborhood)
    run = run_chain(model, window, ProposalSpec(tau, 1), steps, seed,
                    recording="summary", track_first=1)
    xs = run.first_coord_path[:, 0]
    edges = np.linspace(-span, span, n_cells + 1)
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


def c_identity(seed: int, m: int = 400_000,
               tau_s=(0.5, 1.0, 2.38, 4.0)) -> CheckResult:
    """Monte Carlo c(tau) against the closed form, 4 SE at each tau*s."""
    ok = True
    details = []
    for i, ts in enumerate(tau_s):
        mc = c_mc_oracle(ts, 1.0, m, seed + i)
        th = c_theoretical(ts, 1.0)
        z = abs(mc.value - th) / max(mc.std_error, 1e-12)
        ok &= z <= 4.0
        details.append(f"tau*s={ts}: z={z:.2f}")
    return CheckResult("c_identity", ok, "; ".join(details) + " (limit 4)")


def determinism(seed: int, steps: int = 3000, corrupt: bool = False) -> CheckResult:
    """Bit-identical rerun of a small chain; `corrupt` is the negative control."""
    model = gaussian_product(1.0, d=1)
    window = build_line(32, model.neighborhood)
    spec = ProposalSpec(1.7, 32)
    a = run_chain(model, window, spec, steps, seed, recording="full")
    b = run_chain(model, window, spec, steps, seed + (1 if corrupt else 0),
                  recording="full")
    same = (np.array_equal(a.records.delta_h, b.records.delta_h)
            and np.array_equal(a.records.u, b.records.u)
            and np.array_equal(a.final_state.values, b.final_state.values))
    return CheckResult("determinism", same,
                       "bit-identical rerun" if same else "reruns differ")


def exact_sampler_moments(seed: int, draws: int = 30_000) -> CheckResult:
    """Covariance of exact Gaussian draws against the inverse precision."""
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


def increment_moments(seed: int, draws: int = 200_000) -> CheckResult:
    """Mean and variance of both increment families within CLT bounds."""
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


def run_battery(names, seed: int, corrupt_determinism: bool = False) -> list[CheckResult]:
    picked = list(names)
    if not picked:
        raise ValueError("empty check battery")
    unknown = [n for n in picked if n not in BATTERY]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    results = []
    for name in picked:
        if name == "determinism":
            results.append(determinism(seed, corrupt=corrupt_determinism))
        else:
            results.append(BATTERY[name](seed))
    return results
