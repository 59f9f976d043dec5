"""Command-line entry point.

One subcommand per experiment kind; every command reads a single JSON config
document, writes CSV/JSON artifacts plus a manifest into the output
directory, and is byte-reproducible given (config, seed).  A `run` key that
the command does not read (see RUN_KEYS) is a config error.

Exit codes: 0 success, 2 config error, 3 runtime error, 4 check failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from .checks import BATTERY, run_battery
from .config import (QUADRATIC_FAMILIES, ConfigError, ExperimentConfig,
                     _check_keys, build_model, build_window, load_config,
                     parse_config)
from .estimators import (CYLINDER_FUNCTIONS, acceptance_rate, delta_h_stats,
                         esjd_first_coord, estimate_s2, ks_normal)
from .oracle import gaussian_s2_exact
from .runio import (ManifestWriter, write_csv, write_estimates_csv,
                    write_json)
from .sampler import ProposalSpec, run_chain
from .scaling import mosco_m2_check, sweep_n, sweep_tau

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_CHECK = 4


class CheckFailure(RuntimeError):
    pass


# command -> (run keys it needs, run keys it may take).  Every other run key
# is a config error: a key either does something or is rejected.  `steps` is
# the one exception: every document needs it, and oracle-check ignores it.
RUN_KEYS = {
    "sample": ({"steps", "tau"},
               {"replicas", "init", "burn_steps", "increment_family"}),
    "sweep-tau": ({"steps", "tau_grid"},
                  {"replicas", "init", "burn_steps", "increment_family"}),
    "sweep-n": ({"steps", "tau", "n_list"}, {"replicas", "init", "burn_steps"}),
    "estimate-s": ({"steps", "tau"}, {"replicas", "thin", "init", "burn_steps",
                                      "increment_family"}),
    "dirichlet-check": ({"steps", "tau", "n_list", "cylinder"},
                        {"replicas", "init", "burn_steps"}),
    "clt-check": ({"steps", "tau"}, {"replicas", "thin", "init", "burn_steps",
                                     "increment_family"}),
    "oracle-check": ({"steps"}, {"battery", "corrupt_determinism"}),
}
SINGLE_CHAIN = ("sample", "estimate-s", "clt-check")


def check_run_keys(command: str, cfg: ExperimentConfig):
    """Reject the run keys `command` does not read, a missing one it needs,
    `burn_steps` unless `init` is "burn_in", the exact Gaussian start of a
    non-quadratic model, fewer than two thinned states, and a battery entry
    that names no check."""
    required, optional = RUN_KEYS[command]
    run = cfg.raw["run"]
    _check_keys(run, required | optional, required, f"run (for {command})")
    if command in SINGLE_CHAIN and run.get("replicas", 1) != 1:
        raise ConfigError(f"run (for {command}): replicas must be 1 or omitted "
                          "(it runs one chain)")
    if "burn_steps" in run and cfg.run.init != "burn_in":
        raise ConfigError(f"run (for {command}): 'burn_steps' is read only "
                          "with init 'burn_in'")
    if ("init" in optional and cfg.run.init == "exact_gaussian"
            and cfg.model.family not in QUADRATIC_FAMILIES):
        raise ConfigError(f"run.init (for {command}): 'exact_gaussian', the "
                          f"default, needs a quadratic model, not "
                          f"{cfg.model.family}; set init 'burn_in' (and "
                          "optionally burn_steps)")
    if "thin" in optional and cfg.run.steps < 2 * cfg.run.thin:
        raise ConfigError(f"run (for {command}): steps ({cfg.run.steps}) must be at "
                          f"least 2 * thin ({cfg.run.thin}), for two thinned states")
    for name in cfg.run.battery or ():
        if not isinstance(name, str) or name not in BATTERY:
            raise ConfigError(f"run.battery: unknown check {name!r}; checks: "
                              f"{', '.join(BATTERY)}")


def _make_family(cfg: ExperimentConfig, model):
    def make(n: int):
        return model, build_window(cfg, model, n_override=n)

    return make


def cmd_sample(cfg: ExperimentConfig, writer: ManifestWriter):
    model = build_model(cfg)
    window = build_window(cfg, model)
    spec = ProposalSpec(cfg.run.tau, window.n, cfg.run.increment_family)
    # Per-step records only: sample writes no states, so none are kept.
    run = run_chain(model, window, spec, cfg.run.steps, cfg.seed,
                    recording="full", thin=0, init=cfg.run.init,
                    burn_steps=cfg.run.burn_steps)
    rec = run.records
    writer.register(write_csv(
        writer.path("trajectory.csv"),
        ["t", "delta_h", "accepted", "jump_sq_first_coord"],
        columns=[np.arange(len(rec)), rec.delta_h, rec.accepted,
                 rec.jump_sq_first_coord]))
    acc = acceptance_rate(run.summary)
    esjd = esjd_first_coord(run.summary, window.n)
    dh = delta_h_stats(rec)
    writer.register(write_json(writer.path("summary.json"), {
        "n": window.n, "tau": cfg.run.tau, "steps": cfg.run.steps,
        "acceptance": acc.value, "acceptance_se": acc.std_error,
        "esjd": esjd.value, "esjd_se": esjd.std_error,
        "dh_mean": dh.mean.value, "dh_mean_se": dh.mean.std_error,
        "dh_var": dh.variance.value, "dh_var_se": dh.variance.std_error,
    }))
    writer.register(write_estimates_csv(writer.path("estimates.csv"), cfg.raw, [
        ("acceptance", acc), ("esjd_first_coord", esjd),
        ("dh_mean", dh.mean), ("dh_var", dh.variance)]))


def cmd_sweep_tau(cfg: ExperimentConfig, writer: ManifestWriter):
    model = build_model(cfg)
    window = build_window(cfg, model)
    curve = sweep_tau(model, window, cfg.run.tau_grid, cfg.run.steps,
                      cfg.run.replicas, cfg.seed,
                      increment_family=cfg.run.increment_family,
                      init=cfg.run.init, burn_steps=cfg.run.burn_steps)
    writer.register(write_csv(writer.path("scaling_curve.csv"),
                              *curve.csv_table()))
    writer.register(write_json(writer.path("sweep_info.json"),
                               {"s_hat": curve.s_hat}))


def cmd_sweep_n(cfg: ExperimentConfig, writer: ManifestWriter):
    model = build_model(cfg)
    rows = sweep_n(_make_family(cfg, model), cfg.run.n_list, cfg.run.tau,
                   cfg.run.steps, cfg.seed, replicas=cfg.run.replicas,
                   init=cfg.run.init, burn_steps=cfg.run.burn_steps)
    writer.register(write_csv(
        writer.path("acceptance_vs_n.csv"),
        ["n", "acc", "acc_se", "c_theory", "gap"],
        [[r.n, r.acceptance.value, r.acceptance.std_error, r.c_theory, r.gap]
         for r in rows]))


def cmd_estimate_s(cfg: ExperimentConfig, writer: ManifestWriter):
    model = build_model(cfg)
    window = build_window(cfg, model)
    spec = ProposalSpec(cfg.run.tau, window.n, cfg.run.increment_family)
    run = run_chain(model, window, spec, cfg.run.steps, cfg.seed,
                    recording="thinned", thin=cfg.run.thin, init=cfg.run.init,
                    burn_steps=cfg.run.burn_steps)
    s2 = estimate_s2(model, run)
    out = {"s2_hat": s2.value, "s2_se": s2.std_error, "n_states": s2.n_samples}
    if model.is_quadratic:
        out["s2_exact"] = gaussian_s2_exact(model, window)
    writer.register(write_json(writer.path("s2.json"), out))
    writer.register(write_estimates_csv(writer.path("estimates.csv"), cfg.raw,
                                        [("s2_hat", s2)]))


def cmd_dirichlet_check(cfg: ExperimentConfig, writer: ManifestWriter):
    model = build_model(cfg)
    f = CYLINDER_FUNCTIONS[cfg.run.cylinder]
    table = mosco_m2_check(f, _make_family(cfg, model), cfg.run.n_list,
                           cfg.run.tau, cfg.run.steps, cfg.seed,
                           replicas=cfg.run.replicas, init=cfg.run.init,
                           burn_steps=cfg.run.burn_steps)
    writer.register(write_csv(writer.path("m2_table.csv"), *table.csv_table()))
    writer.register(write_json(writer.path("m2_info.json"),
                               {"cylinder": f.name, "s_hat": table.s_hat}))


def cmd_clt_check(cfg: ExperimentConfig, writer: ManifestWriter):
    model = build_model(cfg)
    window = build_window(cfg, model)
    spec = ProposalSpec(cfg.run.tau, window.n, cfg.run.increment_family)
    run = run_chain(model, window, spec, cfg.run.steps, cfg.seed,
                    recording="full", thin=cfg.run.thin, init=cfg.run.init,
                    burn_steps=cfg.run.burn_steps)
    dh = delta_h_stats(run.records)
    if model.is_quadratic:
        s2 = gaussian_s2_exact(model, window)
    else:
        s2 = estimate_s2(model, run).value
    tau = cfg.run.tau
    # KS on thinned proposals: the spacing keeps the samples near-independent.
    thinned = run.records.delta_h[:: cfg.run.thin]
    std = thinned.std(ddof=1)
    ks = ks_normal((thinned - thinned.mean()) / std) if std > 0 else 0.0
    out = {
        "dh_mean": dh.mean.value, "dh_mean_se": dh.mean.std_error,
        "dh_var": dh.variance.value, "dh_var_se": dh.variance.std_error,
        "target_mean": 0.5 * tau * tau * s2,
        "target_var": tau * tau * s2,
        "ks_stat": ks,
        "ks_critical_1pct": 1.6276 / math.sqrt(len(thinned)),
        "ks_samples": len(thinned),
    }
    writer.register(write_json(writer.path("clt.json"), out))


def cmd_oracle_check(cfg: ExperimentConfig, writer: ManifestWriter):
    names = cfg.run.battery if cfg.run.battery is not None else list(BATTERY)
    results = run_battery(names, cfg.seed,
                          corrupt_determinism=cfg.run.corrupt_determinism)
    writer.register(write_csv(
        writer.path("checks.csv"),
        ["check", "status", "detail"],
        [[r.name, "PASS" if r.passed else "FAIL", r.detail.replace(",", ";")]
         for r in results]))
    failed = [r.name for r in results if not r.passed]
    if failed:
        raise CheckFailure(f"checks failed: {', '.join(failed)}")


COMMANDS = {
    "sample": cmd_sample,
    "sweep-tau": cmd_sweep_tau,
    "sweep-n": cmd_sweep_n,
    "estimate-s": cmd_estimate_s,
    "dirichlet-check": cmd_dirichlet_check,
    "clt-check": cmd_clt_check,
    "oracle-check": cmd_oracle_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbsrwm",
        description="Random-walk Metropolis scaling experiments on lattice "
                    "Gibbs fields")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--seed-override", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed_override is not None or args.out is not None:
            doc = dict(cfg.raw)
            if args.seed_override is not None:
                doc["seed"] = args.seed_override
            if args.out is not None:
                doc["output_dir"] = args.out
            cfg = parse_config(doc)
        check_run_keys(args.command, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    writer = ManifestWriter(cfg.output_dir, cfg.raw, cfg.seed)
    started = time.perf_counter()
    try:
        COMMANDS[args.command](cfg, writer)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CheckFailure as exc:
        writer.write()
        print(f"check failure: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    writer.wall_time = time.perf_counter() - started
    writer.write()
    return EXIT_OK


def entrypoint():  # console_scripts hook
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
