"""gibbsrwm benchmark: one workload, measured for a fixed time.

Run from the root of a checkout:

    python3 bench/run.py --workload tau_sweep --seed 1 --seconds 30 --trace 0

Each repetition runs the workload in a fresh process (``bench/workloads.py``)
with BLAS pinned to one thread, one after another.  A repetition starts while
a typical one still ends within ``--seconds``, and at least MIN_REPS of them
run (at least one untraced and one traced with ``--trace 1``).  Every
repetition uses the same seed, so the outputs must agree between them.

Timings are the workload process's CPU seconds at a reference core speed:
a speed probe runs beside the workload (``bench/speedprobe.py``), because on
a shared host the core's own speed drifts by tens of per cent.  Raw CPU and
wall times are reported beside them.

``--trace 0`` prints the end-to-end metrics, each the median over the
repetitions.  ``--trace 1`` alternates untraced and traced repetitions and
prints the per-layer metrics of the traced ones (see ``bench/tracer.py``),
plus ``trace.overhead_frac``.  The last line of standard output is the JSON
result; the line before it carries the machine fingerprint, the sample
counts and every repetition's raw values.  bench/README.md documents the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from speedprobe import reference_seconds  # noqa: E402
from tracer import EXACT_COUNTS, METRIC_UNITS, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 2          # untraced repetitions per --trace 0 run
DEADLINE_S = 165.0    # no repetition may still run after this
BLAS_THREADS = 1
OUT_DIR = ".bench_out"

END_TO_END_UNITS = {"ref_cpu_s": "s", "setup_s": "s", "site_steps_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def fingerprint(versions: dict) -> dict:
    """Machine and library description, read-only from /proc and /sys."""
    fp = {"nproc": os.cpu_count(),
          "affinity": len(os.sched_getaffinity(0)),
          "blas_threads": BLAS_THREADS}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    fp["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_root = "/sys/devices/system/cpu/cpu0/cache"
    try:
        best = -1
        for entry in sorted(os.listdir(cache_root)):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(cache_root, entry, "level")) as fh:
                level = int(fh.read())
            if level > best:
                with open(os.path.join(cache_root, entry, "size")) as fh:
                    fp["llc"] = f"L{level} {fh.read().strip()}"
                best = level
    except (OSError, ValueError):
        pass
    fp.update(versions)
    return fp


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Repetition:
    """One workload process in a scratch directory of its own."""

    def __init__(self, args, scratch, index, traced, env, deadline):
        self.dir = os.path.join(scratch, f"rep{index}")
        os.makedirs(self.dir)
        self.traced = traced
        self.error = None
        self.digest = None
        cmd = [sys.executable, os.path.join(HERE, "workloads.py"), args.workload,
               str(args.seed)] + (["--trace"] if traced else [])
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=self.dir, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, deadline - t_spawn))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            err = "timed out"
        self.elapsed = time.monotonic() - t_spawn
        if proc.returncode != 0:
            self.error = f"exit {proc.returncode}: {err.strip()[-400:]}"
            return
        with open(os.path.join(self.dir, "result.json"), encoding="utf-8") as fh:
            r = json.load(fh)
        self.detail = r["detail"]
        self.digest = r["digest"]
        if not r["gate_ok"]:
            self.error = f"gate failed: {r['detail']}"
        # Timings are the process's CPU seconds at the reference core speed
        # (bench/speedprobe.py); raw CPU and wall times are reported beside.
        setup = reference_seconds(0.0, r["c_first_call"], r["probes"])
        run = reference_seconds(r["c_first_call"], r["c_done"], r["probes"])
        self.metrics = {
            "ref_cpu_s": setup + run,
            "setup_s": setup,
            "site_steps_per_s": r["site_steps"] / run,
            "peak_rss_mb": r["peak_rss_mb"],
        }
        probe_ms = [1e3 * d for _, d in r["probes"]]
        self.raw = {
            "wall_s": r["t_done"] - t_spawn,
            "wall_setup_s": r["t_first_call"] - t_spawn,
            "cpu_s": r["c_done"],
            "probe_ms": sum(probe_ms) / len(probe_ms),
        }
        if traced:
            with open(os.path.join(self.dir, "trace.json"), encoding="utf-8") as fh:
                self.trace = json.load(fh)
            self.layers = layer_metrics(self.trace)


def mark_disagreements(reps):
    """Repetitions share one seed, so their primary outputs and exact counts
    must equal those of the first good one."""
    good = [r for r in reps if not r.error]
    for r in good[1:]:
        if r.digest != good[0].digest:
            r.error = "outputs differ from the first repetition"
    traced = [r for r in good if r.traced and not r.error]
    for r in traced[1:]:
        if any(r.layers[k] != traced[0].layers[k] for k in EXACT_COUNTS):
            r.error = "exact counts differ from the first traced repetition"


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join("src", "gibbsrwm", "__init__.py")):
        print("bench: run from the root of a gibbsrwm checkout (src/gibbsrwm "
              "not found)", file=sys.stderr)
        return 2

    t0 = time.monotonic()
    deadline = t0 + DEADLINE_S
    env = child_env()
    scratch = os.path.abspath(os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}"))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        return measure(args, scratch, env, t0, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, scratch, env, t0, deadline) -> int:
    warm = subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"),
                           "--warmup"], cwd=scratch, env=env, capture_output=True,
                          text=True, timeout=60)
    if warm.returncode != 0:
        print(f"bench: cannot import gibbsrwm: {warm.stderr.strip()[-400:]}",
              file=sys.stderr)
        return 3
    with open(os.path.join(scratch, "result.json"), encoding="utf-8") as fh:
        fp = fingerprint(json.load(fh))
    fp["seed"] = args.seed
    fp["workload"] = args.workload

    measure_start = time.monotonic()
    reps: list[Repetition] = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        longest = max((r.elapsed for r in reps), default=0.0)
        now = time.monotonic()
        if now + 1.5 * longest > deadline:
            break
        # Once there are enough, start another repetition only if a typical
        # one still ends within --seconds of the start of measuring.
        enough = len(reps) >= (2 if args.trace else MIN_REPS)
        typical = statistics.median(r.elapsed for r in reps) if reps else 0.0
        if enough and now + typical - measure_start > args.seconds:
            break
        rep = Repetition(args, scratch, len(reps), traced, env, deadline)
        reps.append(rep)
        if rep.error and "timed out" in rep.error:
            break

    mark_disagreements(reps)
    failed = [r for r in reps if r.error]
    plain = [r for r in reps if not r.error and not r.traced]
    traced = [r for r in reps if not r.error and r.traced]

    info = {"fingerprint": fp, "samples": len(plain),
            "traced_samples": len(traced),
            "elapsed_s": time.monotonic() - t0,
            "errors": [r.error for r in failed],
            "details": sorted({r.detail for r in plain + traced})}
    metrics = {}
    if plain:
        for name, unit in END_TO_END_UNITS.items():
            values = [r.metrics[name] for r in plain]
            q1, med, q3 = quartiles(values)
            info[name] = {"median": med, "q1": q1, "q3": q3, "values": values}
            if not args.trace:
                metrics[name] = {"value": med, "unit": unit}
        for name in plain[0].raw:
            info[name] = {"median": statistics.median(r.raw[name] for r in plain),
                          "values": [r.raw[name] for r in plain]}
    if args.trace and traced and plain:
        cpu_plain = statistics.median(r.metrics["ref_cpu_s"] for r in plain)
        cpu_traced = statistics.median(r.metrics["ref_cpu_s"] for r in traced)
        layers = {k: statistics.median(r.layers[k] for r in traced)
                  for k in traced[0].layers}
        layers["trace.overhead_frac"] = cpu_traced / cpu_plain - 1.0
        metrics = {k: {"value": layers[k], "unit": u} for k, u in METRIC_UNITS.items()}
        info["absent"] = traced[0].trace["absent"]
        info["traced_ref_cpu_s"] = cpu_traced
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"trace-{args.workload}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(traced[-1].trace, fh)
    print("bench: " + json.dumps(info))
    complete = bool(metrics) and not failed
    print(json.dumps({"correct": complete, "attempted": len(reps),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
