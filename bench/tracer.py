"""In-memory tracer for one traced repetition of a benchmark workload.

The tracer wraps gibbsrwm's public functions from the outside, by rebinding
the names that caller modules look up (for example ``gibbsrwm.scaling
.run_replicas`` or the ``ProposalSpec.draw_increments`` class attribute).
The package itself carries no instrumentation.

Two kinds of wrapper exist:

* span: records (name, start, end, parent) for each call;
* aggregate: for calls made once per Metropolis step or chunk, adds to a
  call count and a total time instead, and charges that time to the
  enclosing span so self times stay right.

Every wrapper also counts its calls per caller module, so that
``scaling.run_replicas_calls`` counts the calls that scaling makes.

A wrapped function that no longer exists is listed in ``absent`` and the
metrics built from it read 0.  So are counters whose hook no longer fits the
function's arguments or results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import threading
import time
from collections import defaultdict

MIB = float(1 << 20)

# (layer, module, attribute path, kind): the public functions the workloads
# reach.  The attribute path may name a class attribute ("Window.site_tables").
TARGETS = [
    ("sampler", "gibbsrwm.sampler", "run_replicas", "span"),
    ("sampler", "gibbsrwm.sampler", "run_chain", "count"),
    ("sampler", "gibbsrwm.sampler", "init_state", "span"),
    ("sampler", "gibbsrwm.sampler", "summarize_records", "span"),
    ("sampler", "gibbsrwm.sampler", "ProposalSpec.draw_increments", "aggregate"),
    ("models", "gibbsrwm.models", "site_energies", "aggregate"),
    ("models", "gibbsrwm.models", "hamiltonian_gradient", "span"),
    ("oracle", "gibbsrwm.oracle", "build_precision", "span"),
    ("oracle", "gibbsrwm.oracle", "gaussian_exact_sample", "span"),
    ("oracle", "gibbsrwm.oracle", "gaussian_exact_samples", "span"),
    ("oracle", "gibbsrwm.oracle", "gaussian_s2_exact", "span"),
    ("oracle", "gibbsrwm.oracle", "quad_acceptance", "span"),
    ("scaling", "gibbsrwm.scaling", "sweep_tau", "span"),
    ("checks", "gibbsrwm.checks", "mc_vs_quad_acceptance", "span"),
    ("checks", "gibbsrwm.checks", "detailed_balance", "span"),
    ("checks", "gibbsrwm.checks", "c_identity", "span"),
    ("checks", "gibbsrwm.checks", "exact_sampler_moments", "span"),
    ("estimators", "gibbsrwm.estimators", "acceptance_rate", "span"),
    ("estimators", "gibbsrwm.estimators", "acceptance_from_summary", "span"),
    ("estimators", "gibbsrwm.estimators", "esjd_first_coord", "span"),
    ("estimators", "gibbsrwm.estimators", "esjd_from_summary", "span"),
    ("estimators", "gibbsrwm.estimators", "delta_h_stats", "span"),
    ("estimators", "gibbsrwm.estimators", "pool_replicas", "span"),
    ("estimators", "gibbsrwm.estimators", "batch_means_se", "span"),
    ("estimators", "gibbsrwm.estimators", "estimate_s2", "span"),
    ("runio", "gibbsrwm.runio", "write_csv", "span"),
    ("runio", "gibbsrwm.runio", "write_json", "span"),
    ("runio", "gibbsrwm.runio", "write_estimates_csv", "span"),
    ("runio", "gibbsrwm.runio", "ManifestWriter.write", "span"),
    ("cli", "gibbsrwm.cli", "main", "span"),
    ("config", "gibbsrwm.config", "load_config", "span"),
    ("config", "gibbsrwm.config", "parse_config", "span"),
    ("config", "gibbsrwm.config", "build_model", "span"),
    ("config", "gibbsrwm.config", "build_window", "span"),
    ("lattice", "gibbsrwm.lattice", "Window.site_tables", "aggregate"),
]

# Per-layer metrics: name -> unit.  "computed" in the docs marks values
# derived from array sizes rather than measured.
METRIC_UNITS = {
    "sampler.run_s": "s",
    "sampler.self_s": "s",
    "sampler.init_state_s": "s",
    "sampler.draw_increments_s": "s",
    "sampler.normals_drawn": "count",
    "sampler.ns_per_normal": "ns",
    "sampler.summarize_s": "s",
    "sampler.proposals": "count",
    "sampler.accept_ratio": "ratio",
    "sampler.nonfinite_dh": "count",
    "sampler.increment_block_mb": "MB",
    "models.site_energies_calls": "count",
    "models.site_energies_s": "s",
    "models.site_energy_evals": "count",
    "models.hamiltonian_gradient_s": "s",
    "oracle.build_precision_calls": "count",
    "oracle.build_precision_s": "s",
    "oracle.exact_draw_s": "s",
    "oracle.s2_exact_s": "s",
    "oracle.precision_mb": "MB",
    "oracle.quad_acceptance_s": "s",
    "scaling.self_s": "s",
    "scaling.run_replicas_calls": "count",
    "checks.self_s": "s",
    "checks.run_chain_calls": "count",
    "estimators.s": "s",
    "estimators.estimate_s2_s": "s",
    "runio.write_s": "s",
    "runio.bytes_written": "count",
    "runio.write_mb_per_s": "MB/s",
    "cli.self_s": "s",
    "config.build_s": "s",
    "lattice.site_tables_calls": "count",
    "lattice.site_tables_s": "s",
    "trace.overhead_frac": "ratio",
}

# Counts that must repeat exactly between traced runs of one seed.
EXACT_COUNTS = ("sampler.proposals", "sampler.normals_drawn",
                "models.site_energies_calls", "oracle.build_precision_calls",
                "scaling.run_replicas_calls", "runio.bytes_written")


class Span:
    __slots__ = ("name", "start", "end", "parent", "agg_child")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.agg_child = 0.0  # time of aggregated calls made directly inside


class Tracer:
    """Spans and counters of one process, kept in memory until written."""

    def __init__(self):
        self.spans: list[Span] = []
        self.agg_calls = defaultdict(int)
        self.agg_time = defaultdict(float)
        self.counters = defaultdict(float)
        self.absent: list[str] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run_hook(self, name, hook, *args):
        """Counters come from arguments and results; a changed signature
        loses those counters, not the run."""
        try:
            hook(self, *args)
        except Exception as exc:  # noqa: BLE001 - keep tracing, report below
            note = f"{name} counters ({type(exc).__name__}: {exc})"
            if note not in self.absent:
                self.absent.append(note)

    def _span_wrapper(self, name, fn, caller, on_return):
        tracer = self
        calls_key = f"{caller}.{name.split('.', 1)[1]}_calls"

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            tracer.counters[calls_key] += 1
            stack = tracer._stack()
            span = Span(name, time.perf_counter(), stack[-1] if stack else None)
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if on_return is not None:
                tracer._run_hook(name, on_return, fn, args, kwargs, result)
            return result

        return wrapped

    def _aggregate_wrapper(self, name, fn, caller, on_call):
        tracer = self
        calls_key = f"{caller}.{name.split('.', 1)[1]}_calls"

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer.counters[calls_key] += 1
                tracer.agg_calls[name] += 1
                tracer.agg_time[name] += dt
                stack = tracer._stack()
                if stack:
                    tracer.spans[stack[-1]].agg_child += dt
                if on_call is not None:
                    tracer._run_hook(name, on_call, args, kwargs)

        return wrapped

    def _count_wrapper(self, name, fn, caller):
        tracer = self
        calls_key = f"{caller}.{name.split('.', 1)[1]}_calls"

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            tracer.counters[calls_key] += 1
            return fn(*args, **kwargs)

        return wrapped

    # -- installing ---------------------------------------------------------

    def install(self):
        """Rebind every target in each gibbsrwm module that holds a reference
        to it."""
        for modname in {t[1] for t in TARGETS}:
            try:
                importlib.import_module(modname)
            except ImportError:
                pass
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "gibbsrwm" or k.startswith("gibbsrwm."))]
        for layer, modname, path, kind in TARGETS:
            name = f"{layer}.{path.rsplit('.', 1)[-1]}"
            try:
                owner = importlib.import_module(modname)
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, parts[-1])
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            hook = _HOOKS.get(name)
            if isinstance(owner, type):
                self._rebind(owner, parts[-1],
                             self._wrap(name, kind, original, layer, hook))
                continue
            for mod in modules:
                caller = mod.__name__.rsplit(".", 1)[-1]
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr,
                                     self._wrap(name, kind, original, caller, hook))

    def _wrap(self, name, kind, fn, caller, hook):
        if kind == "span":
            return self._span_wrapper(name, fn, caller, hook)
        if kind == "aggregate":
            return self._aggregate_wrapper(name, fn, caller, hook)
        return self._count_wrapper(name, fn, caller)

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- reporting ----------------------------------------------------------

    def dump(self) -> dict:
        """Raw spans and counters, as written at exit."""
        return {
            "spans": [[s.name, s.start, s.end, s.parent, s.agg_child]
                      for s in self.spans],
            "aggregates": {k: [self.agg_calls[k], self.agg_time[k]]
                           for k in self.agg_calls},
            "counters": dict(self.counters),
            "absent": list(self.absent),
        }


# -- per-call hooks that turn arguments and results into counters ----------


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _on_run_replicas(tracer, fn, args, kwargs, runs):
    a = _bound(fn, args, kwargs)
    c = tracer.counters
    c["sampler.proposals"] += a["n_replicas"] * a["steps"]
    for run in runs:
        c["sampler.accepted"] += run.summary.accept_count
        c["sampler.recorded_steps"] += run.summary.steps
        if run.records is not None:
            import numpy as np

            c["sampler.nonfinite_dh"] += int(np.count_nonzero(~np.isfinite(run.records.delta_h)))
        elif not math.isfinite(run.summary.dh_sum):
            c["sampler.nonfinite_dh"] += 1  # at least one in this chain
    chunk = getattr(sys.modules.get("gibbsrwm.sampler"), "CHUNK", None)
    if chunk is not None:
        block = a["n_replicas"] * min(chunk, a["steps"]) * a["window"].n * 8 / MIB
        c["sampler.increment_block_mb"] = max(c["sampler.increment_block_mb"], block)


def _on_init_state(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    if a["mode"] == "burn_in":
        # The sampler's documented default burn-in is 50 steps per site.
        steps = a["burn_steps"] if a["burn_steps"] is not None else 50 * a["window"].n
        tracer.counters["sampler.proposals"] += steps


def _on_draw_increments(tracer, args, kwargs):
    spec = args[0]
    shape = kwargs["shape"] if "shape" in kwargs else args[2]
    if spec.increment_family == "standard_normal":
        tracer.counters["sampler.normals_drawn"] += math.prod(
            (shape,) if isinstance(shape, int) else shape)


def _on_site_energies(tracer, args, kwargs):
    values = kwargs["values"] if "values" in kwargs else args[2]
    tracer.counters["models.site_energy_evals"] += getattr(values, "size", 0)


def _on_build_precision(tracer, fn, args, kwargs, prec):
    mb = prec.matrix.nbytes / MIB
    tracer.counters["oracle.precision_mb"] = max(tracer.counters["oracle.precision_mb"], mb)


def _on_write(tracer, fn, args, kwargs, path):
    # Primary outputs only: the manifest carries timestamps whose length varies.
    if isinstance(path, str) and os.path.basename(path) != "manifest.json":
        tracer.counters["runio.bytes_written"] += os.path.getsize(path)


_HOOKS = {
    "sampler.run_replicas": _on_run_replicas,
    "sampler.init_state": _on_init_state,
    "sampler.draw_increments": _on_draw_increments,
    "models.site_energies": _on_site_energies,
    "oracle.build_precision": _on_build_precision,
    "runio.write_csv": _on_write,
    "runio.write_json": _on_write,
    "runio.write_estimates_csv": _on_write,
}


# -- from raw trace to per-layer metrics ------------------------------------


def _merged_length(intervals) -> float:
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    spans = dump["spans"]
    counters = defaultdict(float, dump["counters"])
    agg = dump["aggregates"]
    n = len(spans)
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def self_time(i):
        covered = _merged_length((spans[j][1], spans[j][2]) for j in children[i])
        return dur(i) - covered - spans[i][4]

    def layer_of(i):
        return spans[i][0].split(".", 1)[0]

    def outermost(pred):
        """Sum of durations of matching spans with no matching ancestor."""
        total = 0.0
        for i in range(n):
            if not pred(i):
                continue
            p = spans[i][3]
            while p is not None and not pred(p):
                p = spans[p][3]
            if p is None:
                total += dur(i)
        return total

    def named(name):
        return lambda i: spans[i][0] == name

    def in_layer(layer):
        return lambda i: layer_of(i) == layer

    def layer_self(layer):
        return sum(self_time(i) for i in range(n) if layer_of(i) == layer)

    def agg_t(name):
        return agg.get(name, [0, 0.0])[1]

    def agg_n(name):
        return agg.get(name, [0, 0.0])[0]

    def count(name):
        return sum(1 for s in spans if s[0] == name)

    normals = counters["sampler.normals_drawn"]
    draw_s = agg_t("sampler.draw_increments")
    write_all = outermost(in_layer("runio"))
    write_primary = write_all - outermost(named("runio.write"))  # manifest excluded
    bytes_written = counters["runio.bytes_written"]
    recorded = counters["sampler.recorded_steps"]
    m = {
        "sampler.run_s": outermost(named("sampler.run_replicas")),
        "sampler.self_s": layer_self("sampler"),
        "sampler.init_state_s": outermost(named("sampler.init_state")),
        "sampler.draw_increments_s": draw_s,
        "sampler.normals_drawn": normals,
        "sampler.ns_per_normal": 1e9 * draw_s / normals if normals else 0.0,
        "sampler.summarize_s": outermost(named("sampler.summarize_records")),
        "sampler.proposals": counters["sampler.proposals"],
        "sampler.accept_ratio": counters["sampler.accepted"] / recorded if recorded else 0.0,
        "sampler.nonfinite_dh": counters["sampler.nonfinite_dh"],
        "sampler.increment_block_mb": counters["sampler.increment_block_mb"],
        "models.site_energies_calls": agg_n("models.site_energies"),
        "models.site_energies_s": agg_t("models.site_energies"),
        "models.site_energy_evals": counters["models.site_energy_evals"],
        "models.hamiltonian_gradient_s": outermost(named("models.hamiltonian_gradient")),
        "oracle.build_precision_calls": count("oracle.build_precision"),
        "oracle.build_precision_s": outermost(named("oracle.build_precision")),
        "oracle.exact_draw_s": outermost(lambda i: spans[i][0] in (
            "oracle.gaussian_exact_sample", "oracle.gaussian_exact_samples")),
        "oracle.s2_exact_s": outermost(named("oracle.gaussian_s2_exact")),
        "oracle.precision_mb": counters["oracle.precision_mb"],
        "oracle.quad_acceptance_s": outermost(named("oracle.quad_acceptance")),
        "scaling.self_s": layer_self("scaling"),
        "scaling.run_replicas_calls": counters["scaling.run_replicas_calls"],
        "checks.self_s": layer_self("checks"),
        "checks.run_chain_calls": counters["checks.run_chain_calls"],
        "estimators.s": outermost(in_layer("estimators")),
        "estimators.estimate_s2_s": outermost(named("estimators.estimate_s2")),
        "runio.write_s": write_all,
        "runio.bytes_written": bytes_written,
        "runio.write_mb_per_s": bytes_written / MIB / write_primary if write_primary else 0.0,
        "cli.self_s": layer_self("cli"),
        "config.build_s": outermost(in_layer("config")),
        "lattice.site_tables_calls": agg_n("lattice.site_tables"),
        "lattice.site_tables_s": agg_t("lattice.site_tables"),
    }
    return {k: float(v) for k, v in m.items()}

