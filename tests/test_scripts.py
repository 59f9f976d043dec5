"""Smoke runs of the experiment scripts at tiny sizes."""

import importlib.util
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"

# Tiny arguments per script, and the CSV files it writes under results/.
RUNS = {
    "gff_gradient_moment": (["--sides", "3", "--steps", "200"], []),
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
