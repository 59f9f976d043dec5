"""Trajectory estimators: acceptance, gradient second moment, delta-H law,
empirical and limiting Dirichlet forms, and first-coordinate ESJD.

All MCMC error bars use batch means with a fixed batch count (the layout is
`sampler.batch_means`), which stays honest under the mild autocorrelation
these chains show at stationarity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .models import (QUAD_BLOCK, InteractionModel, _energy_gradient,
                     quadratic_operator)
from .sampler import ChainRun, ChainSummary, StepRecords, batch_means


@dataclass(frozen=True)
class EstimateWithError:
    value: float
    std_error: float
    n_samples: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")


def _batch_se(batch: np.ndarray) -> float:
    nb = len(batch)
    if nb < 2:
        return 0.0
    return float(np.std(batch, ddof=1) / math.sqrt(nb))


def batch_means_se(xs) -> float:
    """Standard error of the mean of a (possibly autocorrelated) series."""
    return _batch_se(batch_means(xs))


def acceptance_rate(summary: ChainSummary) -> EstimateWithError:
    """Mean accept flag with batch-means error bar."""
    return EstimateWithError(summary.acceptance, _batch_se(summary.batch_acc),
                             summary.steps)


def esjd_first_coord(summary: ChainSummary, n: int) -> EstimateWithError:
    """n * mean squared displacement of the first coordinate per step."""
    return EstimateWithError(n * summary.mean_jump_sq,
                             n * _batch_se(summary.batch_jump), summary.steps)


@dataclass(frozen=True)
class DeltaHStats:
    mean: EstimateWithError
    variance: EstimateWithError


def delta_h_stats(records: StepRecords) -> DeltaHStats:
    """Sample mean and variance of proposed-move energy differences."""
    if records is None or len(records) == 0:
        raise ValueError("no step records")
    dh = records.delta_h
    m = len(records)
    mean = float(dh.mean())
    centered_sq = (dh - mean) ** 2
    var = float(centered_sq.sum() / max(m - 1, 1))
    return DeltaHStats(
        mean=EstimateWithError(mean, batch_means_se(dh), m),
        variance=EstimateWithError(var, batch_means_se(centered_sq), m),
    )


def ks_normal(sample) -> float:
    """Kolmogorov-Smirnov distance of `sample` from N(0, 1): the larger
    one-sided gap between its empirical CDF and Phi(x) = erfc(-x/sqrt 2)/2."""
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0))
                    for v in np.sort(sample).tolist()])
    m = len(cdf)
    return float(max((np.arange(1, m + 1) / m - cdf).max(), (cdf - np.arange(m) / m).max()))


def pool_replicas(estimates) -> EstimateWithError:
    """Combine equal-length replica estimates; error bar is the larger of the
    between-replica scatter and the propagated within-replica errors."""
    ests = list(estimates)
    if not ests:
        raise ValueError("no estimates to pool")
    if len(ests) == 1:
        return ests[0]
    vals = np.array([e.value for e in ests])
    R = len(ests)
    between = vals.var(ddof=1) / R
    within = sum(e.std_error**2 for e in ests) / R**2
    return EstimateWithError(float(vals.mean()), math.sqrt(max(between, within)),
                             sum(e.n_samples for e in ests))


def estimate_s2(model: InteractionModel, trajectory, window=None) -> EstimateWithError:
    """Spatial-and-temporal average of the squared energy gradient.

    Only interior sites enter: on the boundary the window gradient differs
    from the translation-invariant one, which would bias the estimate.  The
    window is built with the model's neighborhood, so its interior is the
    set of sites whose whole interaction range lies inside.
    Accepts a ChainRun carrying thinned states, or a raw (T, n) state array
    plus its window.  The gradient is evaluated over a few states at a time
    (QUAD_BLOCK elements), with the arithmetic of hamiltonian_gradient, so
    memory beyond the states does not grow with T.
    """
    if isinstance(trajectory, ChainRun):
        states, window = trajectory.states, trajectory.window
        if states is None:
            raise ValueError("chain run carries no states; rerun with recording="
                             "'full' or 'thinned'")
    else:
        states = np.asarray(trajectory, dtype=float)
        if window is None:
            raise ValueError("need the window for a raw state array")
    if states.ndim == 1:
        states = states[None, :]
    interior = window.interior_indices()
    if interior.size == 0:
        raise ValueError("window has no interior vertex")
    op = quadratic_operator(model, window)
    block = max(1, QUAD_BLOCK // window.n)
    per_state = np.empty(states.shape[0])
    for start in range(0, states.shape[0], block):
        grads = _energy_gradient(model, op, states[start:start + block])
        per_state[start:start + block] = (grads[:, interior] ** 2).mean(axis=1)
    return EstimateWithError(float(per_state.mean()), batch_means_se(per_state),
                             per_state.size)


# -- Cylinder test functions -------------------------------------------------


@dataclass(frozen=True)
class CylinderFunction:
    """Smooth bounded function of the first few coordinates, with gradient."""

    name: str
    n_coords: int
    value: Callable[[np.ndarray], np.ndarray]     # (..., N) -> (...)
    gradient: Callable[[np.ndarray], np.ndarray]  # (..., N) -> (..., N)
    sup_value: float
    sup_gradient: float


def _sin_x1():
    return CylinderFunction(
        "sin_x1", 1,
        value=lambda x: np.sin(x[..., 0]),
        gradient=lambda x: np.cos(x[..., 0])[..., None],
        sup_value=1.0, sup_gradient=1.0)


def _tanh_x1():
    return CylinderFunction(
        "tanh_x1", 1,
        value=lambda x: np.tanh(x[..., 0]),
        gradient=lambda x: (1.0 - np.tanh(x[..., 0]) ** 2)[..., None],
        sup_value=1.0, sup_gradient=1.0)


def _gauss_bump_x1x2():
    def val(x):
        return np.exp(-0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2))

    def grad(x):
        return -x * val(x)[..., None]

    return CylinderFunction("gauss_bump_x1x2", 2, val, grad,
                            sup_value=1.0, sup_gradient=math.exp(-0.5))


CYLINDER_FUNCTIONS: dict[str, CylinderFunction] = {
    f.name: f for f in (_sin_x1(), _tanh_x1(), _gauss_bump_x1x2())
}


def dirichlet_form_empirical(f: CylinderFunction, run: ChainRun) -> EstimateWithError:
    """(n/2) * mean over steps of [f(X(t+1)) - f(X(t))]^2."""
    if f.n_coords > run.n:
        raise ValueError(f"{f.name} needs {f.n_coords} coordinates, window has {run.n}")
    path = run.first_coord_path
    if path is None or path.shape[1] < f.n_coords:
        raise ValueError(f"rerun with track_first >= {f.n_coords} to evaluate {f.name}")
    vals = f.value(path[:, : f.n_coords])
    d2 = np.diff(vals) ** 2
    scale = 0.5 * run.n
    return EstimateWithError(float(scale * d2.mean()), scale * batch_means_se(d2),
                             d2.size)


def limiting_form(f: CylinderFunction, tau: float, s_hat: float,
                  samples: np.ndarray) -> EstimateWithError:
    """(tau^2 c(tau) / 2) * mean |grad f|^2 over stationary samples, with a
    batch-means error bar (the samples may be a chain's states)."""
    from .scaling import c_theoretical

    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[1] < f.n_coords:
        raise ValueError(f"{f.name} needs {f.n_coords} sample coordinates")
    g = f.gradient(x[:, : f.n_coords])
    g2 = (g * g).sum(axis=-1)
    scale = 0.5 * tau * tau * c_theoretical(tau, s_hat)
    return EstimateWithError(float(scale * g2.mean()), scale * batch_means_se(g2),
                             g2.size)
