"""Random-walk Metropolis kernel with proposal scale tau / sqrt(n).

Randomness comes from counter-based Philox streams keyed by (seed, chain id),
so replicas are independent and every run is bit-reproducible.  Each chain
reads two disjoint streams: chain_rng gives its exact-Gaussian start and
then its increments, step after step; uniform_rng (the same key, jumped by
2**128 draws) gives its accept uniforms.  A Philox stream yields the same
values whether a block is drawn in one call or in several, so a chain does
not depend on how its steps are cut into chunks.  _drive sizes each chunk
for R rows so that R blocks of (c, n) increments would stay within
CHUNK_BYTES, and memory stays bounded as n grows.  A single chain equals its
replica in a batch bit for bit, except that the two float sums of its
summary (jump_sq_sum and dh_sum, added chunk by chunk) may differ in their
last bits when the budget gives the two runs different chunk lengths.
Each row of a batch has its own proposal scale sigma = tau / sqrt(n), so
one batch may stack the replicas of several tau values, as
scaling.sweep_tau does with its grid.

Rows of one batch that share a chain id share its streams, and each stream
is drawn once: one start, one burn-in, and per chunk one (c, n) block of
unit increments z, one of uniforms and one of z'Qz, held once per stream,
not once per row.  Row r moves by d = sigma_r * z: when every row owns its
stream the block is scaled in place once per chunk, and otherwise each
round scales the increments it reads for each row, so a tau grid holds S
blocks for its S distinct ids.  Such rows are common random numbers across
their proposal scales, and each still equals the solo chain of its id.

dH is evaluated in gradient form.  With H(x) = x'Qx/2 - b'x + remainder
(models.quadratic_operator), a move to y = x + d, d = sigma * z, changes H
by

    dH = d.g + sigma**2 z'Qz/2 + sum_k [self(y_k) - self(x_k)],  g = Qx - b,

where the last sum is there only for non-quadratic models.  z'Qz depends on
the stream's draw alone, so it is computed once per chunk per stream, and
every row of that stream scales it by its own sigma**2; g is kept per row
and recomputed exactly from x whenever the row moves.

Within a chunk the kernel runs in rounds.  A rejected proposal leaves the
state unchanged, so the proposals up to the next acceptance all start from
the current state: a round evaluates the dH of the next K of them at once
(gradient_dh) and commits the steps up to and including the first that some
row accepts.  The chain, its records and its draw order are those of the
one-step kernel, bit for bit; K (see _lookahead) only sets how much work
each round does.  Every product and sum in dH treats a row on its own, so a
row's dH does not depend on the other rows, on K or on the chunk length.
A round writes its dH and accept flags in place into the chunk's record
buffers, and the next round, which starts after the committed step,
overwrites the slots past it.  Its scratch arrays are allocated once per
chunk, and it commits without fancy indexing where it can: a single row
tests its accept flag, and a batch on a window without pair couplings
moves with masked ufuncs.

The accept test is taken in log space: a move is accepted iff dH < -log u
and dH is finite.  -log u is computed once per chunk from each stream's
uniforms, so a round does only the work that depends on its state: one
comparison, one finiteness test and their and.  For u > 0 this is the
event u < min(1, exp(-dH)); the two floating-point forms can differ only
when u lies within rounding of exp(-dH).  A uniform of 0 (probability
2**-53 per draw) gives -log u = +inf, which accepts every finite dH, where
exp(-dH) would have underflowed to 0 and rejected a dH above about 745.
The records keep u itself.

Each ufunc of a round gets contiguous operands of one shape, so numpy runs
its plain loop.  The chunk's dH and accept buffers, the thresholds and q/2
gathered once per chunk, and a round's finite flags are step-major,
(steps, R): a round's steps are one contiguous block, which gradient_dh
reads and writes through transposed (R, k) views.  The records and the
summary stream still take row-major (R, c) arrays, one copy per chunk,
because a row sum over a transposed view adds in another order and would
move dh_sum and jump_sq_sum in their last bits.  Rows that share a stream
scale their gathered increments by an (R, k, n) sigma operand.  A single
row commits through 1-D views of its state and g, with one sparse matvec
(the batch product's row, bit for bit); a batch on a window without pair
couplings takes g from an operator whose Q diagonal and b have the batch's
(R, n) shape (_commit_operator).

Each chain's ChainSummary is streamed chunk by chunk (_SummaryStream), so a
run keeps arrays of all its steps only when it records them ("full").  In
"summary" mode and burn-in, a row holds one chunk plus the accept flags and
jumps of at most one batch (steps // N_BATCHES steps), not of every step.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .lattice import Window
from .models import (Configuration, InteractionModel, QuadraticOperator,
                     gradient_dh, quadratic_operator)
from .oracle import build_precision, gaussian_exact_samples

CHUNK = 256  # most steps per chunk
# Byte budget of one chunk's increments for R rows: c = CHUNK_BYTES //
# (8 R n), at least 1 and at most CHUNK.  Rows that share a stream share its
# (c, n) block, so the block held is (S, c, n) for S <= R distinct streams.
CHUNK_BYTES = 16 * 2**20
# Fixed cost of one Metropolis round (Python and numpy call overhead) in
# site evaluations; see _lookahead.  On one 2-vCPU x86 Xeon core, whose
# speed drifts by a third over hours, a single-site round costs 16-20 us
# (one row) to 15-20 us (four rows), a phi4 round (n = 99) 46-55 us, and
# dH 1.3 ns per site (6 ns with phi4's quartic self term): a single-site
# round's overhead is 11 000-15 000 site evaluations.  1 500 is kept: a
# round commits at most 1/a steps on average whatever its size, and in five
# alternating repetitions no value of 500, 1 500 and 3 000 was fastest on
# every chain (one row: 0.62, 0.60, 0.59 s; four rows: 0.60, 0.55, 0.58 s;
# a 30 000-step phi4 chain: 0.48, 0.44, 0.43 s, medians).
ROUND_SITES = 1500
BURN_TAU = 2.38  # proposal scale of the burn-in that init "burn_in" runs
_MASK64 = (1 << 64) - 1

INCREMENT_FAMILIES = ("standard_normal", "uniform")
RECORDING_MODES = ("full", "thinned", "summary")
N_BATCHES = 50


def chain_rng(seed: int, chain_id: int = 0) -> np.random.Generator:
    """Philox stream keyed by (seed, chain id): disjoint across chains.  A
    chain draws its exact-Gaussian start and its increments from it."""
    key = np.array([seed & _MASK64, chain_id & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniform_rng(seed: int, chain_id: int = 0) -> np.random.Generator:
    """The chain's accept uniforms: chain_rng's stream jumped by 2**128 draws
    (Salmon et al., SC'11), so the two streams never meet."""
    return np.random.Generator(chain_rng(seed, chain_id).bit_generator.jumped())


@dataclass(frozen=True)
class ProposalSpec:
    """Symmetric unit-variance increments scaled by tau / sqrt(n)."""

    tau: float
    n: int
    increment_family: str = "standard_normal"

    def __post_init__(self):
        if not math.isfinite(self.tau):
            raise ValueError("tau must be finite")
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.increment_family not in INCREMENT_FAMILIES:
            raise ValueError(f"unknown increment family {self.increment_family!r}")

    @property
    def sigma(self) -> float:
        return self.tau / math.sqrt(self.n)

    def draw_increments(self, rng: np.random.Generator, shape,
                        out: np.ndarray | None = None) -> np.ndarray:
        """Unit-variance increments of `shape`, written into `out` if given
        (a C-contiguous float array of that shape)."""
        if out is None:
            out = np.empty(shape)
        if self.increment_family == "standard_normal":
            return rng.standard_normal(shape, out=out)
        # Unit variance on [-sqrt(3), sqrt(3)], as low + (high - low) * u:
        # the formula and draws of Generator.uniform, bit for bit.
        low, high = -math.sqrt(3.0), math.sqrt(3.0)
        rng.random(shape, out=out)
        out *= high - low
        out += low
        return out


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


def _batch_layout(count: int) -> tuple[int, int]:
    """(batches, batch size) of the one layout every error bar uses: one
    batch per sample below 2 * N_BATCHES samples, else N_BATCHES equal
    batches with the tail trimmed."""
    if count < 2 * N_BATCHES:
        return count, 1
    return N_BATCHES, count // N_BATCHES


def batch_means(xs) -> np.ndarray:
    """Means of the batches of `_batch_layout`."""
    x = np.asarray(xs, dtype=float).ravel()
    nb, size = _batch_layout(x.size)
    if size == 1:
        return x
    return x[: nb * size].reshape(nb, size).mean(axis=1)


class _SummaryStream:
    """Every row's ChainSummary, built chunk by chunk while _drive runs.

    Counts are integers and the two sums add one chunk at a time, so only
    the sums depend on the chunk length, in their last bits.  Each batch
    mean is taken from that batch's own contiguous slice, which gives
    batch_means bit for bit, so the buffer holds at most one batch plus one
    chunk of at most `chunk` steps per row.
    """

    def __init__(self, rows: int, steps: int, chunk: int):
        self.steps = steps
        self.n_batches, self.size = _batch_layout(steps)
        self.accept = np.zeros(rows, dtype=np.int64)
        self.nonfinite = np.zeros(rows, dtype=np.int64)
        self.jump_sum = np.zeros(rows)
        self.dh_sum = np.zeros(rows)
        # [0] accept flags, [1] jump_sq: batch means, and the samples of the
        # batches not yet complete.
        self.batches = np.empty((2, rows, self.n_batches))
        self.done = 0
        self.pending = np.empty((2, rows, self.size + chunk))
        self.fill = 0

    def add(self, acc: np.ndarray, dh: np.ndarray, jump: np.ndarray):
        """Fold in one chunk of (rows, c) accept flags, dH and jump_sq."""
        self.accept += np.count_nonzero(acc, axis=1)
        self.nonfinite += np.count_nonzero(~np.isfinite(dh), axis=1)
        self.jump_sum += jump.sum(axis=1)
        self.dh_sum += dh.sum(axis=1)
        if self.done == self.n_batches:
            return  # the tail beyond the last batch is trimmed
        buf, fill, size = self.pending, self.fill, self.size
        c = acc.shape[1]
        buf[0, :, fill:fill + c] = acc
        buf[1, :, fill:fill + c] = jump
        fill += c
        k = min(fill // size, self.n_batches - self.done)
        if k:
            used = k * size
            whole = buf[:, :, :used].reshape(2, buf.shape[1], k, size)
            self.batches[:, :, self.done:self.done + k] = whole.mean(axis=3)
            self.done += k
            buf[:, :, :fill - used] = buf[:, :, used:fill]
            fill -= used
        self.fill = fill

    def summary(self, row: int) -> ChainSummary:
        return ChainSummary(
            steps=self.steps,
            accept_count=int(self.accept[row]),
            jump_sq_sum=float(self.jump_sum[row]),
            dh_sum=float(self.dh_sum[row]),
            nonfinite_dh=int(self.nonfinite[row]),
            batch_acc=self.batches[0, row].copy(),
            batch_jump=self.batches[1, row].copy(),
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

    @property
    def window(self) -> Window:
        return self.final_state.window


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


def _commit_operator(op: QuadraticOperator, rows: int) -> QuadraticOperator:
    """The operator a commit of the whole (rows, n) batch takes g = Qx - b
    from.  Several rows without pair couplings get `op` with Q's diagonal
    and b tiled to the batch's shape, so that each product has operands of
    one shape.  Otherwise it is `op` itself: one row commits through 1-D
    views of its state, and several rows with pair couplings commit only
    their moved rows."""
    if rows == 1 or op.offdiag is not None:
        return op
    return replace(op, diag=np.tile(op.diag, (rows, 1)),
                   shift=np.tile(op.shift, (rows, 1)))


def _drive(model: InteractionModel, window: Window, specs: list[ProposalSpec],
           steps: int, rngs: list[np.random.Generator],
           urngs: list[np.random.Generator], streams: Sequence[int],
           x0: np.ndarray, keep_arrays: bool, thin: int, track_first: int):
    """Batched Metropolis loop: row r runs specs[r] with increments from
    rngs[streams[r]] and uniforms from urngs[streams[r]], every row on one
    window, in lookahead rounds (see the module docstring).  Each chunk
    holds one block of unit increments z, of uniforms and of z'Qz per
    stream; row r's moves are d = sigma_r * z and their quadratic terms
    sigma_r**2 * z'Qz.  When row r reads stream r for every r, the block is
    scaled in place once per chunk; otherwise each round scales the
    increments it reads for each row.

    The rows' state is x0 itself (fresh from run_replicas), moved in place.

    Returns the final states, the _SummaryStream, the (dh, accepted, u,
    jump_sq) record columns when keep_arrays (else None), the thinned states
    and the leading-coordinate paths.
    """
    R, S = len(specs), len(rngs)
    n = window.n
    rows_of = np.asarray(streams)
    own = np.array_equal(rows_of, np.arange(S))  # row r reads stream r
    sigma = np.array([spec.sigma for spec in specs])
    scale = sigma[:, None, None]
    sigma_sq = sigma * sigma
    x = np.asarray(x0, dtype=float)
    op = quadratic_operator(model, window)
    g = op.gradient(x)
    batch_op = _commit_operator(op, R)
    remainder = op.remainder
    rem_x = remainder(x) if remainder is not None else None

    width = min(CHUNK, steps, max(1, CHUNK_BYTES // (8 * R * n)))
    stream = _SummaryStream(R, steps, width)
    records = None
    if keep_arrays:
        records = (np.empty((R, steps)), np.empty((R, steps), dtype=bool),
                   np.empty((R, steps)), np.empty((R, steps)))
    z = np.empty((S, width, n))  # one buffer per stream, refilled every chunk
    us = np.empty((S, width))
    thresholds = np.empty((S, width))
    qz = np.empty((S, width))
    # Step-major: a round's steps [j, j + k) are one contiguous block.
    dh_buf = np.empty((width, R))
    acc_buf = np.empty((width, R), dtype=bool)

    def scratch(k):
        """Contiguous round scratch: (R, k, n) terms, moves and their sigma
        operand (both None when every row owns its stream), and (k, R)
        finite flags."""
        shared = (None, None) if own else (
            np.empty((R, k, n)), np.broadcast_to(scale, (R, k, n)).copy())
        return (np.empty((R, k, n)), *shared, np.empty((k, R), dtype=bool))

    n_snaps = steps // thin if thin else 0
    states = np.empty((R, n_snaps, n)) if n_snaps else None
    path = np.empty((R, steps + 1, track_first)) if track_first else None
    if path is not None:
        path[:, 0] = x[:, :track_first]

    # One row commits through 1-D views of its state and gradient.
    x_row, g_row = (x[0], g[0]) if R == 1 else (None, None)
    t = 0
    while t < steps:
        c = min(width, steps - t)
        for s in range(S):
            specs[0].draw_increments(rngs[s], (c, n), out=z[s, :c])
            urngs[s].random(out=us[s, :c])
            # The accept thresholds -log u, +inf where u = 0.
            with np.errstate(divide="ignore"):
                np.log(us[s, :c], out=thresholds[s, :c])
            np.negative(thresholds[s, :c], out=thresholds[s, :c])
            op.quad_forms(z[s, :c], qz[s, :c])
        z_c = z[:, :c]
        # Each row's thresholds and q/2 = 0.5 * (sigma**2 * z'Qz), products
        # in that order, gathered once as (c, R) arrays.
        limit = np.take(thresholds[:, :c].T, rows_of, axis=1)
        half_q = np.take(qz[:, :c].T, rows_of, axis=1)
        half_q *= sigma_sq
        half_q *= 0.5
        if own:
            z_c *= scale  # the proposal moves d = sigma * z, in place
        # Before any step, assume every proposal is accepted: K = 1.
        accepted = int(stream.accept.sum())
        K = _lookahead(accepted / (R * t) if t else 1.0, R, n, c)
        views = scratch(K)
        j = 0
        while j < c:
            k = min(K, c - j)
            terms_k, moves_k, sigma_k, fin = views if k == K else scratch(k)
            if own:
                d = z_c[:, j:j + k]
            else:
                d = np.take(z_c[:, j:j + k], rows_of, axis=0, mode="clip",
                            out=moves_k)
                d *= sigma_k
            # dH and the accept flags go straight into the chunk's records.
            # The slots past the committed step m are rewritten by the next
            # round, which starts at j + m and spans at least k - m steps.
            dh, acc = dh_buf[j:j + k], acc_buf[j:j + k]
            _, rem_y = gradient_dh(d, g, half_q[j:j + k].T, remainder, x,
                                   rem_x, terms_k, dh.T)
            # acc = (dh < -log u) & isfinite(dh): a non-finite dH (inf - inf
            # in the energies) is rejected.
            np.less(dh, limit[j:j + k], out=acc)
            acc &= np.isfinite(dh, out=fin)
            m = k
            if k > 1:
                hits = acc[:, 0] if R == 1 else np.logical_or.reduce(acc, axis=1)
                first = int(hits.argmax())
                if hits[first]:
                    m = first + 1
            start, end = t + j, t + j + m
            if m > 1:
                # Every committed step but the last was rejected by every
                # row, so the state after each of them is x.
                if path is not None:
                    path[:, start + 1:end] = x[:, None, :track_first]
                if states is not None:
                    states[:, start // thin:(end - 1) // thin] = x[:, None]
            # g is recomputed from x, never updated, so it cannot drift.  A
            # move's remainder is the one its dH was evaluated at.
            last = acc[m - 1]
            if R == 1:
                if last[0]:
                    x_row += d[0, m - 1]
                    if rem_y is not None:
                        rem_x[0] = rem_y[0, m - 1]
                    op.gradient(x_row, out=g_row)
            elif op.offdiag is None:
                # A row that stays keeps its bits, a -0.0 included, and its
                # g recomputed from the same x is the same.
                mask = last[:, None]
                np.add(x, d[:, m - 1], out=x, where=mask)
                if rem_y is not None:
                    np.copyto(rem_x, rem_y[:, m - 1], where=mask)
                batch_op.gradient(x, out=g)
            else:
                # Only the moved rows' sparse product: a full-batch one costs
                # a large window several times more.
                moved = last.nonzero()[0]
                if moved.size:
                    rows = slice(None) if moved.size == R else moved
                    x[rows] += d[rows, m - 1]
                    if rem_y is not None:
                        rem_x[rows] = rem_y[rows, m - 1]
                    g[rows] = op.gradient(x[rows])
            if path is not None:
                path[:, end] = x[:, :track_first]
            if states is not None and end % thin == 0:
                states[:, end // thin - 1] = x
            j += m
        # quad_forms' block temporaries set a large window's peak RSS: free
        # the round scratch before the next chunk's draws, and q/2 before
        # the records' copies.
        del views, terms_k, moves_k, sigma_k, fin, d, half_q
        # Summaries and records take row-major (R, c) copies: a row sum over
        # a transposed view would add its terms in another order.
        dh_c = np.ascontiguousarray(dh_buf[:c].T)
        acc_c = np.ascontiguousarray(acc_buf[:c].T)
        d_first = z_c[:, :, 0] if own else z_c[rows_of, :, 0] * sigma[:, None]
        jump_c = np.where(acc_c, d_first ** 2, 0.0)
        stream.add(acc_c, dh_c, jump_c)
        if records is not None:
            for column, chunk in zip(records, (dh_c, acc_c, us[rows_of, :c], jump_c)):
                column[:, t:t + c] = chunk
        t += c
    return x, stream, records, states, path


def run_replicas(model: InteractionModel, window: Window,
                 spec: ProposalSpec | Sequence[ProposalSpec],
                 steps: int, seed: int, n_replicas: int = 1,
                 chain_ids=None, recording: str = "summary", thin: int = 10,
                 track_first: int = 0, init: str = "exact_gaussian",
                 init_config: Configuration | None = None,
                 burn_steps: int | None = None) -> list[ChainRun]:
    """Run replicas, each on the streams of its chain id; results in the
    order of `chain_ids` (default 0, 1, ..., one distinct id per replica).

    `spec` is one ProposalSpec for every replica or a sequence of one per
    replica; all of them have the window's n and one increment family.
    Replicas with equal chain ids share that id's streams, drawn once (see
    the module docstring): give them different specs, or they run the same
    chain.

    Every replica starts from `init`: "given" (the values of `init_config`),
    "exact_gaussian" (an exact draw from its id's stream, quadratic models
    only) or "burn_in" (`burn_steps`, default 50 per site, at tau = BURN_TAU
    from zeros, one row per distinct id, all of them in one batch).

    "full" and "thinned" recording keep every `thin`-th state; "full" with
    thin = 0 keeps the records without states, and "thinned" needs thin >= 1.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if n_replicas < 1:
        raise ValueError("n_replicas must be >= 1")
    if thin < 0:
        raise ValueError("thin must be >= 0")
    if recording == "thinned" and thin < 1:
        raise ValueError("recording 'thinned' needs thin >= 1")
    if burn_steps is not None and burn_steps < 0:
        raise ValueError("burn_steps must be >= 0")
    if recording not in RECORDING_MODES:
        raise ValueError(f"unknown recording mode {recording!r}")
    specs = [spec] * n_replicas if isinstance(spec, ProposalSpec) else list(spec)
    if len(specs) != n_replicas:
        raise ValueError("need one proposal spec per replica")
    if any(s.n != window.n for s in specs):
        raise ValueError("proposal spec n does not match window size")
    if len({s.increment_family for s in specs}) > 1:
        raise ValueError("replicas must share one increment family")
    if track_first > window.n:
        raise ValueError("track_first exceeds window size")
    ids = list(chain_ids) if chain_ids is not None else list(range(n_replicas))
    if len(ids) != n_replicas:
        raise ValueError("need one chain id per replica")
    # One pair of streams per distinct id; row r reads pair streams[r].
    keys = {}
    streams = [keys.setdefault(cid, len(keys)) for cid in ids]
    rngs = [chain_rng(seed, cid) for cid in keys]
    urngs = [uniform_rng(seed, cid) for cid in keys]
    if init == "given":
        if init_config is None:
            raise ValueError("init 'given' needs a configuration")
        if init_config.window is not window:
            raise ValueError("given configuration lives on a different window")
        x0 = np.tile(init_config.values, (n_replicas, 1))
    elif init == "exact_gaussian":
        if not model.is_quadratic:
            raise ValueError(f"exact stationary sampling unavailable for {model.family}")
        # One factorization serves every id; each id still draws its own z
        # and solves on its own.
        precision = build_precision(model, window)
        x0 = np.stack([gaussian_exact_samples(precision, rng, 1)[0]
                       for rng in rngs])[streams]
        del precision  # Q and its factor are not needed while the chains run
    elif init == "burn_in":
        burn = ProposalSpec(BURN_TAU, window.n, specs[0].increment_family)
        x0, *_ = _drive(model, window, [burn] * len(keys),
                        burn_steps if burn_steps is not None else 50 * window.n,
                        rngs, urngs, range(len(keys)),
                        np.zeros((len(keys), window.n)),
                        keep_arrays=False, thin=0, track_first=0)
        x0 = x0[streams]
    else:
        raise ValueError(f"unknown init mode {init!r}")
    x, stream, records, states, path = _drive(
        model, window, specs, steps, rngs, urngs, streams, x0,
        keep_arrays=recording == "full",
        thin=0 if recording == "summary" else thin,
        track_first=track_first)
    return [ChainRun(
        seed=seed, chain_id=ids[r], steps=steps, tau=specs[r].tau, n=window.n,
        summary=stream.summary(r),
        records=(StepRecords(*(column[r] for column in records))
                 if records is not None else None),
        states=states[r] if states is not None else None,
        first_coord_path=path[r] if path is not None else None,
        final_state=Configuration(window, x[r]),
    ) for r in range(n_replicas)]


def run_chain(model: InteractionModel, window: Window, spec: ProposalSpec,
              steps: int, seed: int, chain_id: int = 0, recording: str = "full",
              thin: int = 10, track_first: int = 0, init: str = "exact_gaussian",
              init_config: Configuration | None = None,
              burn_steps: int | None = None) -> ChainRun:
    """Single chain; its steps are those of the matching replica of a
    batched run, bit for bit (see the module docstring)."""
    return run_replicas(model, window, spec, steps, seed, n_replicas=1,
                        chain_ids=[chain_id], recording=recording, thin=thin,
                        track_first=track_first, init=init,
                        init_config=init_config, burn_steps=burn_steps)[0]
