"""Closed-form limit curves and the sweep harness around them.

The limiting acceptance is c(tau) = 2 * Phi(-tau * s / 2), where s is the
stationary root-mean-square energy gradient at a single site.  (Parts of the
optimal-scaling literature write the argument with sqrt(s); conventions
differ only in whether the symbol names the gradient's second moment or its
square root.  Here s is the root itself, so s = 1 for the unit product
Gaussian and both conventions coincide.)  Efficiency is tau^2 c(tau); its
maximizer sits at tau ~ 2.381 / s with acceptance ~ 0.234, independent of
the model.

A tau sweep runs one window at many tau.  An n-sweep (`sweep_n`,
`mosco_m2_check`) runs one model on a sequence of windows V_n of strictly
increasing size, the sequence along which the paper's Dirichlet forms on
L^2(pi_n) converge, at one tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .estimators import (CylinderFunction, EstimateWithError, acceptance_rate,
                         dirichlet_form_empirical, esjd_first_coord,
                         estimate_s2, limiting_form, pool_replicas)
from .lattice import Window
from .models import InteractionModel
from .oracle import build_precision, gaussian_s2_exact, quad_expectation_1d
from .sampler import ProposalSpec, chain_rng, run_replicas

REFERENCE_CHAIN_ID = 0xFFFF_FFFF  # reserved stream for the s-hat reference run


def c_theoretical(tau: float, s: float) -> float:
    """Limiting acceptance 2*Phi(-tau*s/2), via erfc for tail accuracy."""
    if not 0 < s < math.inf:
        raise ValueError(f"s must be positive and finite, got {s}")
    if not 0 <= tau < math.inf:
        raise ValueError(f"tau must be >= 0 and finite, got {tau}")
    return math.erfc(tau * s / (2.0 * math.sqrt(2.0)))


def c_mc_oracle(tau: float, s: float, m: int, seed: int) -> EstimateWithError:
    """Monte Carlo of E[1 ^ exp(-tau*s*Z - tau^2 s^2 / 2)] over m draws."""
    if m < 1:
        raise ValueError("m must be >= 1")
    # Every step below works in place on the one (m,) buffer of draws.
    vals = chain_rng(seed).standard_normal(m)
    vals *= -tau * s
    vals -= 0.5 * (tau * s) ** 2
    np.minimum(vals, 50.0, out=vals)
    np.exp(vals, out=vals)
    np.minimum(vals, 1.0, out=vals)
    return EstimateWithError(float(vals.mean()),
                             float(vals.std(ddof=1) / math.sqrt(m)) if m > 1 else 0.0,
                             m)


def efficiency(tau: float, s: float) -> float:
    return tau * tau * c_theoretical(tau, s)


def tau_star(s: float) -> float:
    """Golden-section maximizer of tau^2 c(tau) on the bracket (1e-8, 2.38/s,
    20/s) to a relative width of 1e-10, in the steps of scipy's golden
    `minimize_scalar`, so the same tau* to the last bit."""
    if not 0 < s < math.inf:
        raise ValueError(f"s must be positive and finite, got {s}")
    g = 0.61803399
    lo, x1, hi = 1e-8, 2.38 / s, 20.0 / s
    x2 = x1 + (1.0 - g) * (hi - x1)
    f1, f2 = efficiency(x1, s), efficiency(x2, s)
    while abs(hi - lo) > 1e-10 * (abs(x1) + abs(x2)):
        if f2 > f1:
            lo, x1, f1 = x1, x2, f2
            x2 = g * x1 + (1.0 - g) * hi
            f2 = efficiency(x2, s)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = g * x2 + (1.0 - g) * lo
            f1 = efficiency(x1, s)
    return x1 if f1 > f2 else x2


# -- tau sweep ---------------------------------------------------------------


@dataclass(frozen=True)
class ScalingCurveRow:
    tau: float
    acceptance: EstimateWithError
    esjd: EstimateWithError
    c_theory: float
    efficiency_theory: float


@dataclass(frozen=True)
class ScalingCurve:
    rows: tuple[ScalingCurveRow, ...]
    s_hat: float

    def csv_table(self) -> tuple[list[str], list[list]]:
        """Header and rows of scaling_curve.csv."""
        return (["tau", "acc", "acc_se", "esjd", "esjd_se", "c_theory",
                 "eff_theory"],
                [[r.tau, r.acceptance.value, r.acceptance.std_error,
                  r.esjd.value, r.esjd.std_error, r.c_theory,
                  r.efficiency_theory] for r in self.rows])


def _check_grid(grid):
    taus = [float(t) for t in grid]
    if not taus:
        raise ValueError("tau grid is empty")
    if any(t < 0 for t in taus):
        raise ValueError("tau values must be >= 0")
    if taus != sorted(taus) or len(set(taus)) != len(taus):
        raise ValueError("tau grid must be strictly increasing")
    return taus


def _s_hat(model: InteractionModel, window: Window, seed: int, init: str,
           burn_steps: int | None) -> float:
    """s-hat, exact on quadratic models, else from one reference chain at
    tau = 2.38 (20 000 steps, every 10th state), started like the main ones."""
    if model.is_quadratic:
        return math.sqrt(gaussian_s2_exact(model, window))
    run = run_replicas(model, window, ProposalSpec(2.38, window.n), 20_000,
                       seed, chain_ids=[REFERENCE_CHAIN_ID], recording="thinned",
                       thin=10, init=init, burn_steps=burn_steps)[0]
    return math.sqrt(estimate_s2(model, run).value)


def sweep_tau(model: InteractionModel, window: Window, tau_grid, steps: int,
              replicas: int, seed: int,
              increment_family: str = "standard_normal",
              init: str = "exact_gaussian", s_hat: float | None = None,
              burn_steps: int | None = None) -> ScalingCurve:
    """Acceptance and ESJD across a tau grid, joined with the theory curve.
    The grid is one run_replicas call, replica r on chain id r at every tau:
    the rows share their random numbers, drawn once per replica, so each
    row's estimate and SE are those of independent replicas, but rows at
    different tau are correlated."""
    taus = _check_grid(tau_grid)
    if s_hat is None:
        s_hat = _s_hat(model, window, seed, init, burn_steps)
    specs = [ProposalSpec(tau, window.n, increment_family)
             for tau in taus for _ in range(replicas)]
    runs = run_replicas(model, window, specs, steps, seed, len(specs),
                        chain_ids=list(range(replicas)) * len(taus), init=init,
                        burn_steps=burn_steps)
    rows = []
    for i, tau in enumerate(taus):
        point = runs[i * replicas:(i + 1) * replicas]
        acc = pool_replicas(acceptance_rate(r.summary) for r in point)
        esjd = pool_replicas(esjd_first_coord(r.summary, window.n) for r in point)
        rows.append(ScalingCurveRow(tau, acc, esjd, c_theoretical(tau, s_hat),
                                    efficiency(tau, s_hat)))
    return ScalingCurve(tuple(rows), s_hat)


# -- n sweep -----------------------------------------------------------------


@dataclass(frozen=True)
class SweepNRow:
    n: int
    acceptance: EstimateWithError
    c_theory: float
    gap: float


def _largest(windows: Sequence[Window]) -> Window:
    """The last of a non-empty window sequence whose sizes strictly increase."""
    ns = [w.n for w in windows]
    if not ns or any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError("window sizes must be non-empty and strictly increasing")
    return windows[-1]


def _window_runs(model: InteractionModel, windows: Sequence[Window], tau: float,
                 steps: int, seed: int, replicas: int, init: str,
                 burn_steps: int | None, track_first: int = 0):
    """Each window with its run_replicas result, replica r of window i on
    chain id i*replicas + r."""
    for i, window in enumerate(windows):
        yield window, run_replicas(
            model, window, ProposalSpec(tau, window.n), steps, seed, replicas,
            range(i * replicas, (i + 1) * replicas), track_first=track_first,
            init=init, burn_steps=burn_steps)


def sweep_n(model: InteractionModel, windows: Sequence[Window], tau: float,
            steps: int, seed: int, replicas: int = 4, init: str = "exact_gaussian",
            burn_steps: int | None = None) -> list[SweepNRow]:
    """Acceptance on each window V_n of a sequence at fixed tau, with the
    limiting value from s-hat on the largest window."""
    largest = _largest(windows)
    c_lim = c_theoretical(tau, _s_hat(model, largest, seed, init, burn_steps))
    rows = []
    for window, runs in _window_runs(model, windows, tau, steps, seed, replicas,
                                     init, burn_steps):
        acc = pool_replicas(acceptance_rate(r.summary) for r in runs)
        rows.append(SweepNRow(window.n, acc, c_lim, abs(acc.value - c_lim)))
    return rows


# -- Dirichlet-form convergence table ---------------------------------------


@dataclass(frozen=True)
class M2Row:
    n: int
    empirical: EstimateWithError
    limiting: EstimateWithError
    gap: float


@dataclass(frozen=True)
class M2Table:
    rows: tuple[M2Row, ...]
    limiting: EstimateWithError
    s_hat: float

    def csv_table(self) -> tuple[list[str], list[list]]:
        """Header and rows of the M2 table CSV."""
        return (["n", "empirical_En_f", "empirical_se", "limiting_E_f",
                 "limiting_se", "gap"],
                [[r.n, r.empirical.value, r.empirical.std_error,
                  r.limiting.value, r.limiting.std_error, r.gap]
                 for r in self.rows])


def limiting_form_quadrature(f: CylinderFunction, model: InteractionModel,
                             window: Window, tau: float,
                             s_hat: float) -> EstimateWithError:
    """Deterministic limiting form (tau^2 c(tau) / 2) E|grad f|^2 on a
    quadratic model, for f of k <= 2 coordinates.

    Those coordinates are Gaussian, with mean and covariance read from the
    precision matrix (k solves through its factor); Gauss-Hermite quadrature
    integrates |grad f|^2 over them, a tensor rule when k = 2.
    """
    if not model.is_quadratic or f.n_coords > 2:
        raise ValueError("quadrature route needs a quadratic model and a "
                         "cylinder function of at most 2 coordinates")
    k = f.n_coords
    prec = build_precision(model, window)
    mean = prec.mean()[:k]
    cov = prec.solve(np.eye(window.n, k))[:k]
    if k == 1:
        def grad_sq(x):
            return f.gradient(np.asarray(x)[..., None])[..., 0] ** 2

        integral = quad_expectation_1d(grad_sq, mean[0], cov[0, 0])
    else:
        nodes, weights = hermegauss(60)  # orders 60 and 120 agree to 1e-16
        z = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1)
        g = f.gradient(mean + z @ np.linalg.cholesky(cov).T)
        integral = float((np.outer(weights, weights) * (g * g).sum(axis=-1)).sum()
                         / (2.0 * math.pi))
    scale = 0.5 * tau * tau * c_theoretical(tau, s_hat)
    return EstimateWithError(scale * integral, 0.0, 0)


def mosco_m2_check(f: CylinderFunction, model: InteractionModel,
                   windows: Sequence[Window], tau: float, steps: int, seed: int,
                   replicas: int = 4, init: str = "exact_gaussian",
                   burn_steps: int | None = None) -> M2Table:
    """Empirical one-step form on each window V_n of a sequence against its
    limiting value: quadrature on quadratic models, else a chain on the
    largest window."""
    largest = _largest(windows)
    if f.n_coords > windows[0].n:
        raise ValueError(f"{f.name} needs {f.n_coords} coordinates, smallest n is {windows[0].n}")
    s_hat = _s_hat(model, largest, seed, init, burn_steps)
    if model.is_quadratic:
        lim = limiting_form_quadrature(f, model, largest, tau, s_hat)
    else:
        run = run_replicas(model, largest, ProposalSpec(tau, largest.n), steps,
                           seed, chain_ids=[REFERENCE_CHAIN_ID - 2],
                           recording="thinned", init=init,
                           burn_steps=burn_steps)[0]
        lim = limiting_form(f, tau, s_hat, run.states[:, : f.n_coords])
    rows = []
    for window, runs in _window_runs(model, windows, tau, steps, seed, replicas,
                                     init, burn_steps, track_first=f.n_coords):
        emp = pool_replicas(dirichlet_form_empirical(f, r) for r in runs)
        rows.append(M2Row(window.n, emp, lim, abs(emp.value - lim.value)))
    return M2Table(tuple(rows), lim, s_hat)
