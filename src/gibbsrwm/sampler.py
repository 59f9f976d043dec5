"""Random-walk Metropolis kernel with proposal scale tau / sqrt(n).

Randomness comes from counter-based Philox streams keyed by (seed, chain id),
so replicas are independent and every run is bit-reproducible.  Within a
chain, draws are consumed in a fixed order: per chunk of steps, first the
increment block, then the uniforms.  The chunk length is a constant, which
makes single-chain and batched execution produce identical chains.

Within a chunk the kernel runs in rounds.  A rejected proposal leaves the
state unchanged, so the proposals up to the next acceptance all start from
the current state: a round evaluates the next K of them in one
site_energies call and commits the steps up to and including the first
that some row accepts.  The chain, its records and its draw order are those
of the one-step kernel, bit for bit; K (see _lookahead) only sets how much
work each call does.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .lattice import Window
from .models import Configuration, InteractionModel, site_energies
from .oracle import PrecisionMatrix, build_precision, gaussian_exact_sample

CHUNK = 256
# Fixed cost of one Metropolis round (Python and numpy call overhead) in
# site evaluations; see _lookahead.  On one 2-vCPU x86 core a round cost
# 30-65 us plus 13-24 ns per site evaluation (product Gaussian and phi4),
# so the overhead equals 1 250-3 000 site evaluations.
ROUND_SITES = 1500
_MASK64 = (1 << 64) - 1

INCREMENT_FAMILIES = ("standard_normal", "uniform")
RECORDING_MODES = ("full", "thinned", "summary")
N_BATCHES = 50


def chain_rng(seed: int, chain_id: int = 0) -> np.random.Generator:
    """Philox stream keyed by (seed, chain id): disjoint across chains."""
    key = np.array([seed & _MASK64, chain_id & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class ProposalSpec:
    """Symmetric unit-variance increments scaled by tau / sqrt(n)."""

    tau: float
    n: int
    increment_family: str = "standard_normal"

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.increment_family not in INCREMENT_FAMILIES:
            raise ValueError(f"unknown increment family {self.increment_family!r}")

    @property
    def sigma(self) -> float:
        return self.tau / math.sqrt(self.n)

    def draw_increments(self, rng: np.random.Generator, shape) -> np.ndarray:
        if self.increment_family == "standard_normal":
            return rng.standard_normal(shape)
        half = math.sqrt(3.0)  # unit variance on [-sqrt(3), sqrt(3)]
        return rng.uniform(-half, half, shape)


@dataclass(frozen=True)
class StepRecords:
    """Per-step record columns of a chain run."""

    delta_h: np.ndarray
    accepted: np.ndarray
    u: np.ndarray
    jump_sq_first_coord: np.ndarray

    def __len__(self) -> int:
        return self.delta_h.shape[0]


@dataclass(frozen=True)
class ChainSummary:
    """Streaming aggregates kept even when per-step records are dropped."""

    steps: int
    accept_count: int
    jump_sq_sum: float
    dh_sum: float
    nonfinite_dh: int       # moves rejected because dH was not finite
    batch_acc: np.ndarray   # batch means of the accept flags
    batch_jump: np.ndarray  # batch means of jump_sq

    @property
    def acceptance(self) -> float:
        return self.accept_count / self.steps

    @property
    def mean_jump_sq(self) -> float:
        return self.jump_sq_sum / self.steps


def batch_means(xs) -> np.ndarray:
    """Batch means under the one layout every error bar uses: one batch per
    sample below 2 * N_BATCHES samples, else N_BATCHES equal batches with the
    tail trimmed."""
    x = np.asarray(xs, dtype=float).ravel()
    if x.size < 2 * N_BATCHES:
        return x
    size = x.size // N_BATCHES
    return x[: N_BATCHES * size].reshape(N_BATCHES, size).mean(axis=1)


def summarize_records(delta_h, accepted, jump_sq) -> ChainSummary:
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


@dataclass(frozen=True)
class ChainRun:
    """One chain's trajectory summary; records/states depend on recording mode."""

    seed: int
    chain_id: int
    steps: int
    tau: float
    n: int
    summary: ChainSummary
    records: StepRecords | None
    states: np.ndarray | None            # thinned post-step states, (T, n)
    first_coord_path: np.ndarray | None  # (steps + 1, m) leading coordinates
    final_state: Configuration
    wall_time: float  # this chain's share of its batch: batch wall / replicas

    @property
    def window(self) -> Window:
        return self.final_state.window


def init_state(model: InteractionModel, window: Window, mode: str = "exact_gaussian",
               rng: np.random.Generator | None = None, seed: int | None = None,
               chain_id: int = 0, burn_steps: int | None = None,
               burn_tau: float = 2.38, given: Configuration | None = None,
               increment_family: str = "standard_normal",
               precision: PrecisionMatrix | None = None) -> Configuration:
    """Initial chain state: exact stationary draw, burn-in end state, or given.

    An exact draw uses `precision` when given (it must be the model's on this
    window), so that callers drawing several states factor Q only once.
    """
    if mode == "given":
        if given is None:
            raise ValueError("mode='given' needs a configuration")
        if given.window is not window:
            raise ValueError("given configuration lives on a different window")
        return given
    if rng is None:
        if seed is None:
            raise ValueError("need an rng or a seed")
        rng = chain_rng(seed, chain_id)
    if mode == "exact_gaussian":
        if not model.is_quadratic:
            raise ValueError(f"exact stationary sampling unavailable for {model.family}")
        if precision is None:
            precision = build_precision(model, window)
        elif precision.window is not window:
            raise ValueError("precision matrix lives on a different window")
        return gaussian_exact_sample(precision, rng)
    if mode == "burn_in":
        steps = burn_steps if burn_steps is not None else 50 * window.n
        spec = ProposalSpec(burn_tau, window.n, increment_family)
        x0 = np.zeros((1, window.n))
        x, *_ = _drive(model, window, spec, steps, [rng], x0,
                       keep_arrays=False, thin=0, track_first=0)
        return Configuration(window, x[0], source="burn_in")
    raise ValueError(f"unknown init mode {mode!r}")


def _lookahead(accept_rate: float, rows: int, n: int, room: int) -> int:
    """Proposals per round, K <= room, that minimise the expected cost of a
    committed step.

    A round of K proposals commits E(K) = (1 - q^K) / (1 - q) steps on
    average, where q = (1 - a)^rows is the chance that no row accepts, and
    costs ROUND_SITES + K * rows * n site evaluations.  Rounds of more than
    one proposal stay within ROUND_SITES evaluations, so many rows or a
    large window always get K = 1.
    """
    k = np.arange(1, max(1, min(room, ROUND_SITES // (rows * n))) + 1)
    q = (1.0 - accept_rate) ** rows
    steps = k if q == 1.0 else (1.0 - q ** k) / (1.0 - q)
    return int(k[np.argmin((ROUND_SITES + k * rows * n) / steps)])


def _drive(model: InteractionModel, window: Window, spec: ProposalSpec, steps: int,
           rngs: list[np.random.Generator], x0: np.ndarray, keep_arrays: bool,
           thin: int, track_first: int):
    """Batched Metropolis driver over len(rngs) replicas sharing one window,
    in lookahead rounds (see the module docstring)."""
    R = len(rngs)
    n = window.n
    sigma = spec.sigma
    x = np.array(x0, dtype=float)
    eps_x = site_energies(model, window, x)

    dh_all = np.empty((R, steps))
    acc_all = np.empty((R, steps), dtype=bool)
    u_all = np.empty((R, steps)) if keep_arrays else None
    jump_all = np.empty((R, steps))
    n_snaps = steps // thin if thin else 0
    states = np.empty((R, n_snaps, n)) if n_snaps else None
    path = np.empty((R, steps + 1, track_first)) if track_first else None
    if path is not None:
        path[:, 0] = x[:, :track_first]

    t = 0
    accepted = 0
    while t < steps:
        c = min(CHUNK, steps - t)
        incr = np.empty((R, c, n))
        us = np.empty((R, c))
        for r in range(R):
            incr[r] = spec.draw_increments(rngs[r], (c, n))
            us[r] = rngs[r].random(c)
        incr *= sigma  # the proposal moves, sigma * increment
        # Before any step, assume every proposal is accepted: K = 1.
        K = _lookahead(accepted / (R * t) if t else 1.0, R, n, c)
        # exp(-max(dh, 0)) is 1 for downhill moves and may underflow.
        with np.errstate(under="ignore"):
            j = 0
            while j < c:
                k = min(K, c - j)
                y = x[:, None] + incr[:, j:j + k]
                eps_y = site_energies(model, window, y)
                dh = (eps_y - eps_x[:, None]).sum(axis=-1)
                # A non-finite dH (inf - inf in the energies) is rejected.
                acc = (us[:, j:j + k] < np.exp(-np.maximum(dh, 0.0))) & np.isfinite(dh)
                m = k
                if k > 1:
                    hits = np.flatnonzero(acc.any(axis=0))
                    m = int(hits[0]) + 1 if hits.size else k
                start, end = t + j, t + j + m
                dh_all[:, start:end] = dh[:, :m]
                acc_all[:, start:end] = acc[:, :m]
                # Every committed step but the last was rejected by every
                # row, so the state after each of them is x.
                if path is not None:
                    path[:, start + 1:end] = x[:, None, :track_first]
                if states is not None:
                    states[:, start // thin:(end - 1) // thin] = x[:, None]
                moved = acc[:, m - 1, None]
                x = np.where(moved, y[:, m - 1], x)
                eps_x = np.where(moved, eps_y[:, m - 1], eps_x)
                if path is not None:
                    path[:, end] = x[:, :track_first]
                if states is not None and end % thin == 0:
                    states[:, end // thin - 1] = x
                j += m
        acc_c = acc_all[:, t:t + c]
        accepted += int(np.count_nonzero(acc_c))
        if u_all is not None:
            u_all[:, t:t + c] = us
        jump_all[:, t:t + c] = np.where(acc_c, incr[:, :, 0] ** 2, 0.0)
        t += c
    return x, dh_all, acc_all, u_all, jump_all, states, path


def run_replicas(model: InteractionModel, window: Window, spec: ProposalSpec,
                 steps: int, seed: int, n_replicas: int = 1,
                 chain_ids=None, recording: str = "summary", thin: int = 10,
                 track_first: int = 0, init: str = "exact_gaussian",
                 init_config: Configuration | None = None,
                 burn_steps: int | None = None, burn_tau: float = 2.38
                 ) -> list[ChainRun]:
    """Run replicas with disjoint RNG streams; results in chain-id order."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if recording not in RECORDING_MODES:
        raise ValueError(f"unknown recording mode {recording!r}")
    if spec.n != window.n:
        raise ValueError("proposal spec n does not match window size")
    if track_first > window.n:
        raise ValueError("track_first exceeds window size")
    ids = list(chain_ids) if chain_ids is not None else list(range(n_replicas))
    if len(ids) != n_replicas:
        raise ValueError("need one chain id per replica")
    started = time.perf_counter()
    rngs = [chain_rng(seed, cid) for cid in ids]
    # One factorization serves every replica's exact draw; each replica still
    # draws its own z and solves on its own.
    precision = (build_precision(model, window)
                 if init == "exact_gaussian" and model.is_quadratic else None)
    inits = [init_state(model, window, init, rng=rngs[r], given=init_config,
                        burn_steps=burn_steps, burn_tau=burn_tau,
                        increment_family=spec.increment_family,
                        precision=precision)
             for r in range(n_replicas)]
    del precision  # Q and its factor are not needed while the chains run
    x0 = np.stack([cfg.values for cfg in inits])
    keep_arrays = recording == "full"
    want_states = recording in ("full", "thinned") and thin > 0
    x, dh, acc, u, jump, states, path = _drive(
        model, window, spec, steps, rngs, x0,
        keep_arrays=keep_arrays, thin=thin if want_states else 0,
        track_first=track_first)
    wall = (time.perf_counter() - started) / n_replicas
    runs = []
    for r in range(n_replicas):
        summary = summarize_records(dh[r], acc[r], jump[r])
        records = None
        if keep_arrays:
            records = StepRecords(dh[r].copy(), acc[r].copy(), u[r].copy(), jump[r].copy())
        runs.append(ChainRun(
            seed=seed, chain_id=ids[r], steps=steps, tau=spec.tau, n=window.n,
            summary=summary, records=records,
            states=states[r].copy() if states is not None else None,
            first_coord_path=path[r].copy() if path is not None else None,
            final_state=Configuration(window, x[r], source=inits[r].source),
            wall_time=wall,
        ))
    return runs


def run_chain(model: InteractionModel, window: Window, spec: ProposalSpec,
              steps: int, seed: int, chain_id: int = 0, recording: str = "full",
              thin: int = 10, track_first: int = 0, init: str = "exact_gaussian",
              init_config: Configuration | None = None,
              burn_steps: int | None = None, burn_tau: float = 2.38) -> ChainRun:
    """Single chain; identical to the matching replica of a batched run."""
    return run_replicas(model, window, spec, steps, seed, n_replicas=1,
                        chain_ids=[chain_id], recording=recording, thin=thin,
                        track_first=track_first, init=init,
                        init_config=init_config, burn_steps=burn_steps,
                        burn_tau=burn_tau)[0]
