"""Smoke runs of the experiment scripts at tiny sizes."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

# Tiny arguments per script, and the CSV files it writes under results/.
RUNS = {
    "gff_gradient_moment": (["--sides", "3", "--steps", "200"], []),
    # Writes only into a scratch directory of its own, removed at exit.
    "output_digests": (["--steps", "40", "--battery", "c_identity"], []),
    "mosco_m2_table": (["--n-list", "2", "4", "--steps", "300",
                        "--replicas", "2"], ["m2_sin_x1.csv"]),
    "optimal_scaling_sweep": (["--n", "4", "--steps", "200", "--replicas", "2",
                               "--tau-min", "1.0", "--tau-max", "2.0",
                               "--tau-step", "0.5"], ["scaling_curve.csv"]),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_script_runs(tmp_path, monkeypatch, capsys, name):
    argv, outputs = RUNS[name]
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.chdir(tmp_path)
    script.main(argv)
    assert capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.rglob("*.csv")) == outputs


def test_sweep_script_loads_no_scipy(tmp_path):
    # The product family and tau_star need neither scipy.optimize nor any
    # other scipy module.
    argv = ["x"] + RUNS["optimal_scaling_sweep"][0]
    code = ("import runpy, sys\n"
            f"sys.argv = {argv!r}\n"
            f"runpy.run_path({str(SCRIPTS / 'optimal_scaling_sweep.py')!r}, "
            "run_name='__main__')\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "closed-form optimum: tau* = " in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[]"
