"""One repetition of one benchmark workload, in a process of its own.

Run from the root of a checkout, with ``src`` on PYTHONPATH:

    python3 bench/workloads.py WORKLOAD SEED [--trace]
    python3 bench/workloads.py --warmup

It runs in a scratch directory of its own (the working directory) and writes
``result.json`` there, plus ``trace.json`` when traced.

A workload returns the proposed site updates it made (chains x steps x n,
burn-in included) and a gate that checks its outputs once timing has
stopped.  The result file holds monotonic-clock timestamps, which the parent
compares with its own reading taken just before it started this process,
process CPU-time readings with the speed probes taken between them (see
``bench/speedprobe.py``), plus the peak RSS and the gate's verdict.  When
traced, gibbsrwm's public functions are wrapped before the workload runs and
the raw spans are written at exit.

Workloads use only stable public arguments (no ``threads=``, ``chain_ids=``,
per-step kernel functions or the private ``_drive`` loop), so they keep
running through API consolidation.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time

from speedprobe import SpeedProbe

# Each workload imports what its user would import, inside the workload, so
# that set-up time counts the imports that workload really pays for.

TAU_GRID = [round(1.38 + 0.25 * i, 2) for i in range(9)]  # 1.38 .. 3.38
TAU_SWEEP = dict(n=100, steps=10_000, replicas=8)
GFF = dict(L=24, steps=2_000, replicas=8, thin=10)
PHI4 = dict(L=49, steps=100_000, burn_steps=5_000, tau=1.4)
BATTERY = dict(quad_steps=30_000, quad_taus=4, balance_steps=60_000)

# Three gates are statistical tests that some seeds fail by chance, with no
# defect behind it: the tau_sweep ESJD argmax (2.88 trails the top of the
# curve by only about 2.5 SE of the difference; 0 of seeds 100-124 failed),
# the gff_window pooled s^2 at 3 SE (its SE comes from 8 replicas, so z has
# t_7 tails; 2 of seeds 100-139 failed) and mc_vs_quad_acceptance (four
# z-tests at 3 SE; 2 of seeds 0-59 failed).  Those chains run at one fixed
# seed, so that a failed gate means a defect rather than a false alarm.
# Their cost does not depend on the seed.  Everything else uses the
# workload seed.
GATED_SEED = 12345  # the example seed of the README config


def tau_sweep(seed: int, first_call):
    """sweep_tau on the unit product Gaussian at n=100 over a 9-point grid."""
    from gibbsrwm import lattice, models, oracle, scaling

    p = TAU_SWEEP
    model = models.gaussian_product(1.0, d=1)
    window = lattice.build_line(p["n"], model.neighborhood)
    s_hat = math.sqrt(oracle.gaussian_s2_exact(model, window))
    first_call()
    curve = scaling.sweep_tau(model, window, TAU_GRID, p["steps"], p["replicas"],
                              GATED_SEED, s_hat=s_hat)

    def gate():
        best = max(curve.rows, key=lambda r: r.esjd.value).tau
        target = 2.38 / s_hat
        ok = abs(best - target) <= TAU_GRID[1] - TAU_GRID[0] + 1e-9
        return ok, f"ESJD argmax tau={best} vs 2.38/s={target:.4f}", None

    return len(TAU_GRID) * p["replicas"] * p["steps"] * window.n, gate


def gff_window(seed: int, first_call):
    """s^2 on a 49x49 free-field window against the exact Gaussian value."""
    from gibbsrwm import config, estimators, oracle, sampler

    p = GFF
    cfg = config.parse_config({
        "model": {"family": "gff", "parameters": {"beta": 1.0, "m2": 1.0}},
        "graph": {"d": 2, "L": p["L"]},
        "run": {"steps": p["steps"], "replicas": p["replicas"], "thin": p["thin"]},
        "seed": GATED_SEED,
    })
    model = config.build_model(cfg)
    window = config.build_window(cfg, model)
    s2_exact = oracle.gaussian_s2_exact(model, window)
    spec = sampler.ProposalSpec(2.38 / math.sqrt(s2_exact), window.n)
    first_call()
    runs = sampler.run_replicas(model, window, spec, cfg.run.steps, cfg.seed,
                                n_replicas=cfg.run.replicas, recording="thinned",
                                thin=cfg.run.thin, init="exact_gaussian")
    est = estimators.pool_replicas(estimators.estimate_s2(model, r) for r in runs)

    def gate():
        gap = abs(est.value - s2_exact)
        ok = gap <= 3.0 * est.std_error and gap <= 0.05 * s2_exact
        return ok, (f"s2_hat={est.value:.5f} se={est.std_error:.5f} "
                    f"exact={s2_exact:.5f}"), None

    return cfg.run.replicas * cfg.run.steps * window.n, gate


def phi4_sample(seed: int, first_call):
    """The CLI sample command on a quartic field, in-process, full recording."""
    from gibbsrwm import cli

    p = PHI4
    # Relative paths keep the config document, whose hash is part of the
    # outputs, the same in every repetition.
    out = "phi4_out"
    cfg_path = "phi4.json"
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump({
            "model": {"family": "phi4",
                      "parameters": {"a": 0.25, "b": -0.5, "coupling": 1.0}},
            "graph": {"d": 1, "L": p["L"]},
            "run": {"steps": p["steps"], "tau": p["tau"], "replicas": 1,
                    "init": "burn_in", "burn_steps": p["burn_steps"]},
            "seed": seed,
            "output_dir": out,
        }, fh)
    first_call()
    code = cli.main(["sample", "--config", cfg_path])

    def gate():
        if code != 0:
            return False, f"exit code {code}", None
        with open(os.path.join(out, "trajectory.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        nonfinite = sum(1 for line in lines[1:]
                        if not math.isfinite(float(line.split(",")[1])))
        digest = hashlib.sha256()
        for name in ("trajectory.csv", "summary.json", "estimates.csv"):
            with open(os.path.join(out, name), "rb") as fh:
                digest.update(fh.read())
        ok = (len(lines) == p["steps"] + 1 and nonfinite == 0
              and all(math.isfinite(v) for v in summary.values()))
        return ok, (f"lines={len(lines)} nonfinite_dh={nonfinite} "
                    f"acceptance={summary['acceptance']:.4f}"), digest.hexdigest()

    return (p["burn_steps"] + p["steps"]) * (2 * p["L"] + 1), gate


def oracle_battery(seed: int, first_call):
    """Four oracle checks at reduced chain lengths; every one must pass."""
    from gibbsrwm import checks

    p = BATTERY
    first_call()
    results = [
        checks.mc_vs_quad_acceptance(GATED_SEED, steps=p["quad_steps"]),
        checks.detailed_balance(seed, steps=p["balance_steps"]),
        checks.c_identity(seed),
        checks.exact_sampler_moments(seed),
    ]

    def gate():
        detail = "; ".join(f"{r.name}: {'PASS' if r.passed else 'FAIL ' + r.detail}"
                           for r in results)
        return all(r.passed for r in results), detail, None

    # Single-site chains: mc_vs_quad_acceptance runs one per tau value.
    return p["quad_taus"] * p["quad_steps"] + p["balance_steps"], gate


WORKLOADS = {
    "tau_sweep": tau_sweep,
    "gff_window": gff_window,
    "phi4_sample": phi4_sample,
    "oracle_battery": oracle_battery,
}


def warmup() -> dict:
    """Import everything once (compiles bytecode, fills the file cache) and
    report library versions for the machine fingerprint."""
    import numpy as np
    import scipy

    import gibbsrwm.cli  # noqa: F401 - imports every module of the package

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main(argv) -> int:
    if argv[0] == "--warmup":
        with open("result.json", "w", encoding="utf-8") as fh:
            json.dump(warmup(), fh)
        return 0
    workload, seed = argv[:2]
    probe = SpeedProbe()
    probe.start()
    tracer = None
    if argv[2:] == ["--trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    marks = []
    site_steps, gate = WORKLOADS[workload](
        int(seed), lambda: marks.append((time.monotonic(), time.process_time())))
    t_done, c_done = time.monotonic(), time.process_time()
    probe.stop()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        with open("trace.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    ok, detail, digest = gate()
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump({
            "t_first_call": marks[0][0],
            "t_done": t_done,
            "c_first_call": marks[0][1],
            "c_done": c_done,
            "probes": probe.samples,
            "site_steps": site_steps,
            "peak_rss_mb": peak_kib / 1024.0,
            "gate_ok": bool(ok),
            "detail": detail,
            "digest": digest,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
