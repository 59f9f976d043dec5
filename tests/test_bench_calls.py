"""Smoke test of the benchmark's calls into gibbsrwm.

Every workload in bench/workloads.py runs at a tiny size, so that an API
change which would break the benchmark fails here.  The statistical gates
may fail at such sizes, so only the calls themselves must succeed.
"""

import importlib
import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")
TINY = {
    "TAU_SWEEP": dict(n=10, steps=50, replicas=2),
    "GFF": dict(L=2, steps=50, replicas=2, thin=10),
    "PHI4": dict(L=3, steps=200, burn_steps=50, tau=1.4),
    "BATTERY": dict(quad_steps=500, quad_taus=4, balance_steps=500),
}


@pytest.fixture
def workloads(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(BENCH)
    module = importlib.import_module("workloads")
    for name, sizes in TINY.items():
        for key, value in sizes.items():
            monkeypatch.setitem(getattr(module, name), key, value)
    monkeypatch.chdir(tmp_path)
    return module


@pytest.mark.parametrize("name", ["tau_sweep", "gff_window", "phi4_sample",
                                  "oracle_battery"])
def test_workload_runs(workloads, name):
    site_steps, gate = workloads.WORKLOADS[name](3, lambda: None)
    assert site_steps > 0
    ok, detail, digest = gate()
    if name == "phi4_sample":
        assert not detail.startswith("exit code"), detail
        assert digest is not None


def test_traced_gff_window(workloads):
    # The traced repetition wraps gibbsrwm's functions and reads their
    # arguments and results (the precision's dense size among them), so an
    # oracle or sampler change that breaks a traced run fails here.
    tracer_module = importlib.import_module("tracer")
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        workloads.WORKLOADS["gff_window"](3, lambda: None)
    finally:
        tracer.uninstall()
    dump = tracer.dump()
    assert not [note for note in dump["absent"] if "counters" in note], dump["absent"]
    metrics = tracer_module.layer_metrics(dump)
    assert set(metrics) <= set(tracer_module.METRIC_UNITS)
    assert metrics["oracle.build_precision_calls"] == 1
    # A renamed Window.site_tables, or one made a property, would read 0 here.
    assert metrics["lattice.site_tables_calls"] >= 1
    assert metrics["oracle.precision_mb"] > 0
    assert metrics["sampler.proposals"] == TINY["GFF"]["replicas"] * TINY["GFF"]["steps"]
    assert metrics["sampler.run_s"] > 0
