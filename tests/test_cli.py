import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from gibbsrwm import cli, models, sampler, scaling
from gibbsrwm.checks import BATTERY, CheckResult
from gibbsrwm.cli import COMMANDS, RUN_KEYS, check_run_keys, main
from gibbsrwm.config import (_FAMILY_PARAMS, ConfigError, RunSpec, build_model,
                             build_window, config_hash, load_config,
                             parse_config)
from gibbsrwm.lattice import Neighborhood, Window, nearest_neighbor
from test_runio import read_csv

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def src_env():
    """The environment with the checkout's src first on PYTHONPATH, so a
    child interpreter imports this gibbsrwm whether or not it is installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def base_config(**overrides):
    doc = {
        "model": {"family": "gaussian_product", "parameters": {"variance": 1.0}},
        "graph": {"d": 1, "L": 12},
        "run": {"steps": 800, "tau": 2.38},
        "seed": 321,
        "output_dir": "out",
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigValidation:
    def test_round_trips(self):
        doc = base_config()
        cfg = parse_config(doc)
        assert cfg.raw == doc
        assert cfg.seed == 321 and cfg.run.tau == 2.38

    def test_unknown_top_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(base_config(extra=1))

    def test_unknown_run_key(self):
        doc = base_config()
        doc["run"]["walltime"] = 10
        with pytest.raises(ConfigError, match="run: unknown keys"):
            parse_config(doc)

    def test_unknown_model_param(self):
        doc = base_config()
        doc["model"]["parameters"] = {"variance": 1.0, "skew": 2.0}
        with pytest.raises(ConfigError, match="model.parameters"):
            parse_config(doc)

    def test_negative_tau(self):
        doc = base_config()
        doc["run"]["tau"] = -0.5
        with pytest.raises(ConfigError, match="tau"):
            parse_config(doc)

    def test_zero_steps(self):
        doc = base_config()
        doc["run"]["steps"] = 0
        with pytest.raises(ConfigError, match="steps"):
            parse_config(doc)

    def test_non_increasing_grid(self):
        doc = base_config()
        doc["run"]["tau_grid"] = [1.0, 1.0]
        with pytest.raises(ConfigError, match="tau_grid"):
            parse_config(doc)

    def test_unknown_cylinder(self):
        doc = base_config()
        doc["run"]["cylinder"] = "const"
        with pytest.raises(ConfigError, match="cylinder"):
            parse_config(doc)

    def test_unknown_family(self):
        doc = base_config()
        doc["model"]["family"] = "ising"
        with pytest.raises(ConfigError, match="family"):
            parse_config(doc)

    @pytest.mark.parametrize("key,value,message", [
        ("tau_grid", [1.0, "x"], r"run\.tau_grid\[1\]: expected a number"),
        ("tau_grid", [1.0, -2.0], r"run\.tau_grid\[1\]: must be >= 0"),
        ("tau_grid", [2.0, 1.0], r"run\.tau_grid: must be strictly increasing"),
        ("tau_grid", 1.0, r"run\.tau_grid: expected a nonempty list"),
        ("n_list", [4, 9.5], r"run\.n_list\[1\]: expected an integer"),
        ("n_list", [0, 4], r"run\.n_list\[0\]: must be >= 1"),
        ("n_list", [4, 4], r"run\.n_list: must be strictly increasing"),
        ("n_list", [], r"run\.n_list: expected a nonempty list"),
    ])
    def test_list_keys_name_the_bad_entry(self, key, value, message):
        # An entry was once named by a key that does not exist
        # (run.tau_grid.t, run.n_list.n).
        doc = base_config()
        doc["run"][key] = value
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(doc)

    @pytest.mark.parametrize("key", ["init", "increment_family", "cylinder"])
    def test_choice_keys_reject_any_other_value(self, key):
        # A list cylinder once escaped parse_config as a TypeError (unhashable).
        doc = base_config()
        doc["run"][key] = ["sin_x1"]
        with pytest.raises(ConfigError, match=rf"^run\.{key}: unknown value"):
            parse_config(doc)

    def test_omitted_run_keys_take_runspec_defaults(self):
        assert parse_config(base_config()).run == RunSpec(steps=800, tau=2.38)

    def test_phi4_requires_positive_a(self):
        doc = base_config()
        doc["model"] = {"family": "phi4", "parameters": {"a": -1.0, "b": 0.0}}
        with pytest.raises(ConfigError, match="must be > 0"):
            parse_config(doc)

    @pytest.mark.parametrize("params,message", [
        ({"beta": 0.0, "m2": 0.0}, r"model\.parameters: beta and m2 must not both be 0"),
        ({"beta": -1.0}, r"model\.parameters: beta must be >= 0"),
        ({"m2": -0.5}, r"model\.parameters: m2 must be >= 0"),
    ])
    def test_gff_rejects_what_the_model_rejects(self, tmp_path, capsys, params,
                                                message):
        # These once passed validation, and sample exited 3 with the
        # model's ValueError.
        doc = base_config(output_dir=str(tmp_path / "o"),
                          model={"family": "gff", "parameters": params})
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(doc)
        assert main(["sample", "--config", write_config(tmp_path, doc)]) == 2
        assert re.match(f"config error: {message}", capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("family,params", [
        ("gaussian_product", {"variance": 0.0}),
        ("gff", {"beta": -1.0}),
        ("gff", {"m2": -0.5}),
        ("gff", {"beta": 0.0, "m2": 0.0}),
        ("phi4", {"a": 0.0}),
    ])
    def test_constructor_rules_reject_model_parameters(self, tmp_path, capsys,
                                                        family, params):
        # parse_config holds no parameter rule of its own: it builds the
        # model, and the constructor's ValueError is the config error.
        doc = base_config(output_dir=str(tmp_path / "o"),
                          model={"family": family, "parameters": params})
        with pytest.raises(ValueError) as raised:
            getattr(models, family)(**{**_FAMILY_PARAMS[family], **params})
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert str(exc.value) == f"model.parameters: {raised.value}"
        assert main(["sample", "--config", write_config(tmp_path, doc)]) == 2
        assert "config error: model.parameters: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("family,params", [
        ("gaussian_product", {"variance": 1e-300}),
        ("gff", {"beta": 0.0, "m2": 1.0}),
        ("phi4", {"a": 1e-300}),
    ])
    def test_constructor_rules_accept_model_parameters(self, family, params):
        doc = base_config(model={"family": family, "parameters": params})
        model = build_model(parse_config(doc))
        assert params.items() <= dict(model.params).items()

    @pytest.mark.parametrize("params", [{"beta": 0.0}, {"m2": 0.0}])
    def test_gff_one_zero_parameter_is_valid(self, params):
        model = build_model(parse_config(base_config(
            model={"family": "gff", "parameters": params})))
        assert dict(model.params) == {"beta": 1.0, "m2": 1.0, **params}

    def test_phi4_omitted_a_takes_the_model_default(self, tmp_path):
        # An omitted a once failed the a > 0 check.
        doc = base_config(output_dir=str(tmp_path / "o"),
                          model={"family": "phi4", "parameters": {"b": -0.5}},
                          run={"steps": 200, "tau": 1.0, "init": "burn_in",
                               "burn_steps": 10})
        assert dict(build_model(parse_config(doc)).params)["a"] == 1.0
        assert main(["sample", "--config", write_config(tmp_path, doc)]) == 0

    def test_hash_changes_with_content(self):
        a = base_config()
        b = base_config(seed=322)
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) == config_hash(json.loads(json.dumps(a)))

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="line"):
            load_config(str(path))


# One vertex rule for the config and the library: each coordinate below is
# rejected by parse_config and by the lattice constructors alike.
BAD_COORDINATES = [True, np.False_, 1.5, math.nan, math.inf, -math.inf, "2"]
GOOD_COORDINATES = [(2**70, 2**70), (3.0, 3), (np.int64(5), 5), (-4, -4)]


class TestVertexRule:
    @pytest.mark.parametrize("c", BAD_COORDINATES, ids=repr)
    def test_bad_coordinate_rejected_by_config_and_library(self, c):
        doc = base_config()
        doc["graph"] = {"d": 1, "vertex_list": [[0], [c]]}
        with pytest.raises(ConfigError, match=r"^graph\.vertex_list: .*integer"):
            parse_config(doc)
        doc = base_config(model={"family": "gff", "neighborhood": [[c]]})
        with pytest.raises(ConfigError, match=r"^model\.neighborhood: .*integer"):
            parse_config(doc)
        with pytest.raises(ValueError, match="integer coordinates"):
            Window([(0,), (c,)], nearest_neighbor(1))
        with pytest.raises(ValueError, match="integer coordinates"):
            Neighborhood.from_offsets([(c,)])

    @pytest.mark.parametrize("c,expected", GOOD_COORDINATES,
                             ids=["huge", "integral_float", "np_int64", "negative"])
    def test_good_coordinate_same_vertex_on_both_sides(self, c, expected):
        doc = base_config(model={"family": "gff", "neighborhood": [[c]]})
        doc["graph"] = {"d": 1, "vertex_list": [[c], [c + 1]]}
        cfg = parse_config(doc)
        assert cfg.graph.vertex_list == [[expected], [expected + 1]]
        assert Window([(c,), (c + 1,)], nearest_neighbor(1)).vertices == \
            ((expected,), (expected + 1,))
        assert build_model(cfg).neighborhood == Neighborhood.from_offsets([(c,)])
        assert type(cfg.graph.vertex_list[0][0]) is int


class TestBoundaryConstant:
    """graph.boundary_constant is read only by a constant boundary: under
    any other mode it is a config error, raised before anything is written."""

    @staticmethod
    def doc(tmp_path, **graph):
        return base_config(output_dir=str(tmp_path / "o"),
                           model={"family": "gff"},
                           graph={"d": 1, "L": 2, **graph},
                           run={"steps": 200, "tau": 1.0})

    @pytest.mark.parametrize("mode", [None, "zero", "free"],
                             ids=["default", "zero", "free"])
    def test_rejected_unless_constant(self, tmp_path, capsys, mode):
        # Once accepted and ignored: sample wrote the same trajectory.csv
        # and summary.json with and without the key.
        graph = {"boundary_constant": 7.5}
        if mode is not None:
            graph["boundary_mode"] = mode
        doc = self.doc(tmp_path, **graph)
        message = r"^graph\.boundary_constant: read only under boundary_mode"
        with pytest.raises(ConfigError, match=message):
            parse_config(doc)
        assert main(["sample", "--config", write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: graph.boundary_constant")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("const", [7.5, None], ids=["given", "omitted"])
    def test_constant_mode_reads_it(self, tmp_path, const):
        graph = {"boundary_mode": "constant"}
        if const is not None:
            graph["boundary_constant"] = const
        doc = self.doc(tmp_path, **graph)
        cfg = parse_config(doc)
        window = build_window(cfg, build_model(cfg))
        want = 0.0 if const is None else const
        assert cfg.graph.boundary_constant == window.boundary_constant == want
        assert main(["sample", "--config", write_config(tmp_path, doc)]) == 0
        assert (tmp_path / "o" / "summary.json").exists()

    def test_unknown_mode_rejected(self, tmp_path, capsys):
        # The config reads lattice.BOUNDARY_MODES, which has no "explicit".
        doc = self.doc(tmp_path, boundary_mode="explicit")
        assert main(["sample", "--config", write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: graph.boundary_mode: unknown mode 'explicit'")
        assert not (tmp_path / "o").exists()


class TestCliCommands:
    def run_cli(self, command, cfg_path, *extra):
        return main([command, "--config", cfg_path, *extra])

    def test_sample_outputs_and_tau_zero(self, tmp_path):
        doc = base_config(output_dir=str(tmp_path / "o"))
        doc["run"]["tau"] = 0.0
        code = self.run_cli("sample", write_config(tmp_path, doc))
        assert code == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["acceptance"] == 1.0
        header, rows = read_csv(str(tmp_path / "o" / "trajectory.csv"))
        assert header == ["t", "delta_h", "accepted", "jump_sq_first_coord"]
        assert len(rows) == doc["run"]["steps"]

    @pytest.mark.parametrize("command", ["sample", "estimate-s", "clt-check"])
    def test_single_chain_commands_reject_several_replicas(self, tmp_path, capsys,
                                                           command):
        output = {"sample": "trajectory.csv", "estimate-s": "s2.json",
                  "clt-check": "clt.json"}[command]
        doc = base_config(output_dir=str(tmp_path / "o"))
        doc["run"]["replicas"] = 4
        assert self.run_cli(command, write_config(tmp_path, doc)) == 2
        assert "replicas" in capsys.readouterr().err
        assert not (tmp_path / "o" / output).exists()
        doc["run"]["replicas"] = 1
        assert self.run_cli(command, write_config(tmp_path, doc)) == 0
        assert (tmp_path / "o" / output).exists()

    def test_manifest_contents(self, tmp_path):
        doc = base_config(output_dir=str(tmp_path / "o"))
        self.run_cli("sample", write_config(tmp_path, doc))
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["config"] == doc
        assert man["config_hash"] == config_hash(doc)
        assert man["seed"] == doc["seed"]
        assert "trajectory.csv" in man["outputs"]
        assert man["code_version"]

    def test_byte_identical_rerun(self, tmp_path):
        doc1 = base_config(output_dir=str(tmp_path / "a"))
        doc2 = base_config(output_dir=str(tmp_path / "b"))
        self.run_cli("sample", write_config(tmp_path, doc1, "a.json"))
        self.run_cli("sample", write_config(tmp_path, doc2, "b.json"))
        assert (tmp_path / "a" / "trajectory.csv").read_bytes() == \
            (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert (tmp_path / "a" / "summary.json").read_bytes() == \
            (tmp_path / "b" / "summary.json").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        doc = base_config(output_dir=str(tmp_path / "a"))
        cfg = write_config(tmp_path, doc)
        self.run_cli("sample", cfg)
        self.run_cli("sample", cfg, "--out", str(tmp_path / "b"),
                     "--seed-override", "999")
        assert (tmp_path / "a" / "trajectory.csv").read_bytes() != \
            (tmp_path / "b" / "trajectory.csv").read_bytes()

    def test_sweep_tau_csv_round_trip(self, tmp_path):
        doc = base_config(output_dir=str(tmp_path / "o"))
        doc["run"] = {"steps": 600, "tau_grid": [0.5, 1.0, 2.0], "replicas": 2}
        code = self.run_cli("sweep-tau", write_config(tmp_path, doc))
        assert code == 0
        header, rows = read_csv(str(tmp_path / "o" / "scaling_curve.csv"))
        assert header == ["tau", "acc", "acc_se", "esjd", "esjd_se", "c_theory",
                          "eff_theory"]
        taus = [float(r[0]) for r in rows]
        assert taus == [0.5, 1.0, 2.0]
        for r in rows:
            acc = float(r[1])
            assert 0.0 <= acc <= 1.0
            # shortest round-trip floats reparse exactly
            assert repr(float(r[3])) == r[3]

    def test_sweep_n_and_missing_field_error(self, tmp_path):
        doc = base_config(output_dir=str(tmp_path / "o"))
        doc["run"] = {"steps": 500, "tau": 1.0, "n_list": [4, 9], "replicas": 2}
        assert self.run_cli("sweep-n", write_config(tmp_path, doc)) == 0
        header, rows = read_csv(str(tmp_path / "o" / "acceptance_vs_n.csv"))
        assert [int(r[0]) for r in rows] == [4, 9]
        doc2 = base_config(output_dir=str(tmp_path / "p"))
        assert self.run_cli("sweep-n", write_config(tmp_path, doc2, "c2.json")) == 2

    @pytest.mark.parametrize("command,run,output", [
        ("sweep-n", {"steps": 300, "tau": 1.0, "n_list": [3, 10], "replicas": 2},
         "acceptance_vs_n.csv"),
        ("dirichlet-check", {"steps": 300, "tau": 2.38, "n_list": [3, 10],
                             "replicas": 2, "cylinder": "sin_x1"},
         "m2_table.csv"),
    ])
    def test_product_family_any_n_in_any_dimension(self, tmp_path, command, run,
                                                   output):
        # Once exit 3 at d >= 2 ("vertex dimension does not match
        # neighborhood"): the line window was 1-D.  The product model has
        # no couplings, so the table does not depend on d.
        tables = []
        for d in (1, 2, 3):
            doc = base_config(output_dir=str(tmp_path / f"d{d}"), run=dict(run),
                              graph={"d": d})
            assert self.run_cli(command, write_config(tmp_path, doc, f"{d}.json")) == 0
            tables.append((tmp_path / f"d{d}" / output).read_bytes())
        assert tables[0] == tables[1] == tables[2]

    @pytest.mark.parametrize("command,extra", [
        ("sweep-n", {}), ("dirichlet-check", {"cylinder": "sin_x1"})])
    def test_bad_n_list_entry_exits_before_any_chain(self, tmp_path, capsys,
                                                      monkeypatch, command, extra):
        # 10 is no (2L+1)^2: every window is built before n = 9 runs.
        calls = []
        monkeypatch.setattr(scaling, "run_replicas",
                            lambda *a, **k: calls.append(a) or [])
        doc = {"model": {"family": "gff"}, "graph": {"d": 2},
               "run": {"steps": 100, "tau": 1.0, "n_list": [9, 10, 25],
                       "replicas": 2, **extra},
               "seed": 1, "output_dir": str(tmp_path / "o")}
        assert self.run_cli(command, write_config(tmp_path, doc)) == 2
        assert "run.n_list" in capsys.readouterr().err
        assert calls == []

    def test_estimate_s_gff(self, tmp_path):
        doc = {
            "model": {"family": "gff", "parameters": {"beta": 1.0, "m2": 1.0}},
            "graph": {"d": 2, "L": 2},
            "run": {"steps": 3000, "tau": 1.0, "thin": 10},
            "seed": 4, "output_dir": str(tmp_path / "o"),
        }
        assert self.run_cli("estimate-s", write_config(tmp_path, doc)) == 0
        out = json.loads((tmp_path / "o" / "s2.json").read_text())
        assert set(out) == {"s2_hat", "s2_se", "n_states", "s2_exact"}
        assert out["s2_exact"] == pytest.approx(5.0)

    def test_dirichlet_check(self, tmp_path):
        doc = base_config(output_dir=str(tmp_path / "o"))
        doc["run"] = {"steps": 1500, "tau": 2.38, "n_list": [4, 9],
                      "replicas": 2, "cylinder": "sin_x1"}
        assert self.run_cli("dirichlet-check", write_config(tmp_path, doc)) == 0
        header, rows = read_csv(str(tmp_path / "o" / "m2_table.csv"))
        assert header[:2] == ["n", "empirical_En_f"]
        assert len(rows) == 2

    def test_clt_check(self, tmp_path):
        doc = base_config(output_dir=str(tmp_path / "o"))
        doc["graph"]["L"] = 30
        doc["run"] = {"steps": 4000, "tau": 1.0, "thin": 10}
        assert self.run_cli("clt-check", write_config(tmp_path, doc)) == 0
        out = json.loads((tmp_path / "o" / "clt.json").read_text())
        assert out["target_mean"] == pytest.approx(0.5)
        assert out["target_var"] == pytest.approx(1.0)
        assert out["ks_stat"] >= 0.0

    def test_clt_check_quadratic_chain_keeps_no_states(self, tmp_path,
                                                       monkeypatch):
        # s^2 is exact on a quadratic model, so its chain keeps no states,
        # and clt.json is that of the same chain keeping every thin-th one.
        doc = {"model": {"family": "gff", "parameters": {"beta": 1.0, "m2": 1.0}},
               "graph": {"d": 2, "L": 2},
               "run": {"steps": 2000, "tau": 2.0, "thin": 10}, "seed": 6}
        runs = []

        def spy(*args, **kwargs):
            runs.extend(sampler.run_replicas(*args, **kwargs))
            return runs[-1:]

        monkeypatch.setattr(cli, "run_replicas", spy)
        path = write_config(tmp_path, dict(doc, output_dir=str(tmp_path / "a")))
        assert self.run_cli("clt-check", path) == 0
        monkeypatch.setattr(cli, "run_replicas",
                            lambda *a, **k: spy(*a, **dict(k, thin=10)))
        path = write_config(tmp_path, dict(doc, output_dir=str(tmp_path / "b")))
        assert self.run_cli("clt-check", path) == 0
        assert runs[0].states is None
        assert runs[1].states.shape == (200, 25)
        assert (tmp_path / "a" / "clt.json").read_bytes() == \
            (tmp_path / "b" / "clt.json").read_bytes()

    def test_clt_check_non_quadratic_target_from_states(self, tmp_path):
        # Without an exact s^2, the target comes from the thinned states.
        doc = base_config(output_dir=str(tmp_path / "o"))
        doc["model"] = {"family": "phi4",
                        "parameters": {"a": 0.25, "b": -0.5, "coupling": 1.0}}
        doc["graph"]["L"] = 5
        doc["run"] = {"steps": 600, "tau": 1.0, "thin": 10,
                      "init": "burn_in", "burn_steps": 200}
        assert self.run_cli("clt-check", write_config(tmp_path, doc)) == 0
        out = json.loads((tmp_path / "o" / "clt.json").read_text())
        assert out["target_mean"] > 0.0
        assert out["target_var"] == pytest.approx(2.0 * out["target_mean"])

    def test_oracle_check_pass_and_negative_control(self, tmp_path, monkeypatch):
        doc = base_config(output_dir=str(tmp_path / "o"))
        doc["run"] = {"steps": 100,
                      "battery": ["determinism", "increment_moments"]}
        assert self.run_cli("oracle-check", write_config(tmp_path, doc)) == 0
        header, rows = read_csv(str(tmp_path / "o" / "checks.csv"))
        assert all(r[1] == "PASS" for r in rows)
        # A failing check: exit 4, a FAIL row, and the manifest still written.
        monkeypatch.setitem(BATTERY, "determinism", lambda seed: CheckResult(
            "determinism", False, "reruns differ"))
        doc2 = base_config(output_dir=str(tmp_path / "p"))
        doc2["run"] = {"steps": 100, "battery": ["determinism", "increment_moments"]}
        assert self.run_cli("oracle-check", write_config(tmp_path, doc2, "c2.json")) == 4
        _, rows2 = read_csv(str(tmp_path / "p" / "checks.csv"))
        assert [r[:2] for r in rows2] == [["determinism", "FAIL"],
                                          ["increment_moments", "PASS"]]
        manifest = json.loads((tmp_path / "p" / "manifest.json").read_text())
        assert manifest["outputs"] == ["checks.csv"]

    def test_empty_battery_is_config_error(self, tmp_path):
        doc = base_config(output_dir=str(tmp_path / "o"))
        doc["run"] = {"steps": 100, "battery": []}
        assert self.run_cli("oracle-check", write_config(tmp_path, doc)) == 2

    def test_config_error_exit_code(self, tmp_path):
        doc = base_config()
        doc["model"]["family"] = "bogus"
        assert self.run_cli("sample", write_config(tmp_path, doc)) == 2
        doc["model"]["family"] = "gaussian_product"
        with pytest.raises(SystemExit) as exc:  # no such flag
            self.run_cli("sweep-tau", write_config(tmp_path, doc), "--threads", "2")
        assert exc.value.code == 2

    def test_vertex_list_window(self, tmp_path):
        doc = {
            "model": {"family": "gff", "parameters": {"beta": 1.0, "m2": 1.0}},
            "graph": {"d": 1, "vertex_list": [[0], [1], [2], [3]]},
            "run": {"steps": 400, "tau": 1.0, "thin": 5},
            "seed": 3, "output_dir": str(tmp_path / "o"),
        }
        assert self.run_cli("estimate-s", write_config(tmp_path, doc)) == 0
        out = json.loads((tmp_path / "o" / "s2.json").read_text())
        assert out["s2_hat"] > 0

    @pytest.mark.parametrize("where,value", [
        ("vertex_list", [[0], [1.7], [3.2]]),
        ("vertex_list", [[True], [2]]),
        ("vertex_list", [[0, 1], [2, 3]]),
        ("vertex_list", []),
        ("neighborhood", [[1.6], [-1.6]]),
        ("neighborhood", [[False]]),
        ("neighborhood", [[1, 0]]),
    ], ids=["fractional", "bool", "wrong_d", "empty", "nb_fractional",
            "nb_bool", "nb_wrong_d"])
    def test_bad_coordinates_are_config_errors(self, tmp_path, capsys, where,
                                                value):
        # int() would truncate 1.7 to 1 and read true as 1: every coordinate
        # must be an integer (not a bool) and every point have d of them.
        doc = {
            "model": {"family": "gff", "parameters": {"beta": 1.0, "m2": 1.0}},
            "graph": {"d": 1, "L": 3},
            "run": {"steps": 40, "tau": 1.0, "thin": 5},
            "seed": 3, "output_dir": str(tmp_path / "o"),
        }
        if where == "vertex_list":
            doc["graph"] = {"d": 1, "vertex_list": value}
        else:
            doc["model"]["neighborhood"] = value
        assert self.run_cli("estimate-s", write_config(tmp_path, doc)) == 2
        section = "graph" if where == "vertex_list" else "model"
        assert f"{section}.{where}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_huge_and_integral_float_coordinates_accepted(self):
        doc = base_config()
        doc["model"] = {"family": "gff", "neighborhood": [[1.0], [-2]]}
        doc["graph"] = {"d": 1, "vertex_list": [[2**70], [-2**70], [3.0]]}
        cfg = parse_config(doc)
        assert cfg.graph.vertex_list == [[2**70], [-2**70], [3]]
        assert cfg.model.neighborhood == [[1], [-2]]

    def test_runtime_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise FloatingPointError("overflow")

        monkeypatch.setattr(cli, "run_replicas", fail)
        doc = base_config(output_dir=str(tmp_path / "o"))
        assert self.run_cli("sample", write_config(tmp_path, doc)) == 3
        assert "runtime error: FloatingPointError: overflow" in capsys.readouterr().err

    def test_cylinder_wider_than_smallest_window_is_config_error(self, tmp_path,
                                                                  capsys):
        # Once exit 3 from mosco_m2_check's ValueError.
        doc = base_config(output_dir=str(tmp_path / "o"))
        doc["run"] = {"steps": 100, "tau": 1.0, "n_list": [1, 9],
                      "cylinder": "gauss_bump_x1x2", "replicas": 1}
        assert self.run_cli("dirichlet-check", write_config(tmp_path, doc)) == 2
        assert capsys.readouterr().err.startswith(
            "config error: run.cylinder: gauss_bump_x1x2 needs 2 coordinates")
        assert not (tmp_path / "o").exists()
        doc["run"]["n_list"] = [2, 9]
        assert self.run_cli("dirichlet-check", write_config(tmp_path, doc)) == 0

    @pytest.mark.parametrize("command,family,run", [
        ("estimate-s", "gff", {"tau": 1.0}),
        ("clt-check", "gff", {"tau": 1.0}),
        ("sweep-tau", "gff", {"tau_grid": [1.0]}),
        ("sweep-tau", "phi4", {"tau_grid": [1.0], "init": "burn_in"}),
        ("sweep-n", "gff", {"tau": 1.0, "n_list": [1]}),
        ("dirichlet-check", "gff", {"tau": 1.0, "n_list": [1],
                                    "cylinder": "sin_x1"}),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_window_without_interior_exits_before_any_chain(
            self, tmp_path, capsys, monkeypatch, command, family, run):
        # s^2 is read at interior vertices, and a one-site box has none.
        # These once exited 3, some of them only after the whole chain.
        def no_chain(*args, **kwargs):
            raise AssertionError("a chain ran")

        monkeypatch.setattr(sampler, "_drive", no_chain)
        doc = {"model": {"family": family}, "graph": {"d": 2, "L": 0},
               "run": {"steps": 200, "replicas": 1, **run}, "seed": 1,
               "output_dir": str(tmp_path / "o")}
        assert self.run_cli(command, write_config(tmp_path, doc)) == 2
        assert capsys.readouterr().err.startswith(
            "config error: graph: the window s^2 is read on (n=1) has no "
            "interior vertex")
        assert not (tmp_path / "o").exists()

    def test_s_hat_chain_reads_burn_steps(self, tmp_path):
        # The s-hat reference chain once burnt in for 50 n steps whatever
        # run.burn_steps said, so both runs wrote the same s_hat.
        s_hats = []
        for burn in (100, 5000):
            doc = {"model": {"family": "phi4",
                             "parameters": {"a": 0.25, "b": -0.5}},
                   "graph": {"d": 1, "L": 3},
                   "run": {"steps": 100, "tau_grid": [1.0], "replicas": 1,
                           "init": "burn_in", "burn_steps": burn},
                   "seed": 2, "output_dir": str(tmp_path / str(burn))}
            path = write_config(tmp_path, doc, f"{burn}.json")
            assert self.run_cli("sweep-tau", path) == 0
            info = json.loads((tmp_path / str(burn) / "sweep_info.json").read_text())
            s_hats.append(info["s_hat"])
        assert s_hats[0] != s_hats[1]

    def test_estimates_csv_schema(self, tmp_path):
        doc = base_config(output_dir=str(tmp_path / "o"))
        self.run_cli("sample", write_config(tmp_path, doc))
        header, rows = read_csv(str(tmp_path / "o" / "estimates.csv"))
        assert header == ["estimator", "value", "std_error", "n_samples",
                          "config_hash"]
        assert [r[0] for r in rows] == ["acceptance", "esjd_first_coord",
                                        "dh_mean", "dh_var"]
        assert all(r[4] == config_hash(doc) for r in rows)
        assert all(float(r[2]) >= 0 for r in rows)

    def test_manifest_records_wall_time(self, tmp_path):
        doc = base_config(output_dir=str(tmp_path / "o"))
        self.run_cli("sample", write_config(tmp_path, doc))
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["wall_time_s"] > 0

    def test_missing_config_file(self):
        assert main(["sample", "--config", "/nonexistent/cfg.json"]) == 2

    def test_import_leaves_scipy_stats_and_optimize_unloaded(self):
        # No command needs scipy.stats or scipy.optimize: clt-check's KS
        # statistic and tau_star are computed in numpy and the stdlib.
        code = ("import sys, gibbsrwm.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[:2] in (['scipy', 'stats'], "
                "['scipy', 'optimize'])))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_phi4_sample_leaves_scipy_linalg_and_special_unloaded(self, tmp_path):
        # The banded oracle and erfc/ndtr import scipy.linalg and
        # scipy.special where they are called; a quartic-field sample calls
        # neither, so neither module may load (about 12 MB between them).
        doc = base_config(output_dir=str(tmp_path / "out"), model={
            "family": "phi4", "parameters": {"a": 0.25, "b": -0.5, "coupling": 1.0}})
        doc["run"].update(steps=50, init="burn_in", burn_steps=20)
        cfg = write_config(tmp_path, doc)
        code = ("import sys, gibbsrwm.cli as cli\n"
                f"assert cli.main(['sample', '--config', {cfg!r}]) == 0\n"
                "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
                "(['scipy', 'linalg'], ['scipy', 'special'])))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        assert (tmp_path / "out" / "trajectory.csv").exists()

    def test_product_commands_load_no_scipy(self, tmp_path):
        # A window without pair couplings builds no sparse operator, factors
        # its diagonal Q in numpy and takes erfc from math, and clt-check's KS
        # statistic is numpy's, so the README's product-family commands
        # import no scipy module; a free field still loads scipy.sparse for
        # its operator and runs.
        runs = {
            "sample": {"tau": 2.38},
            "sweep-tau": {"tau_grid": [1.38, 2.38, 3.38]},
            "sweep-n": {"tau": 2.38, "n_list": [10, 40, 99]},
            "estimate-s": {"tau": 2.38},
            "dirichlet-check": {"tau": 2.38, "n_list": [10, 40, 99],
                                "cylinder": "sin_x1"},
            "clt-check": {"tau": 2.38, "thin": 5},
        }
        calls = []
        for command, run in runs.items():
            doc = base_config(graph={"d": 1, "L": 49}, seed=12345,
                              output_dir=str(tmp_path / command),
                              run={"steps": 400, **run})
            calls.append([command, "--config",
                          write_config(tmp_path, doc, f"{command}.json")])
        gff_doc = base_config(output_dir=str(tmp_path / "gff"), model={
            "family": "gff", "parameters": {"beta": 1.0, "m2": 1.0}})
        gff_call = ["sample", "--config", write_config(tmp_path, gff_doc, "gff.json")]
        code = ("import sys, gibbsrwm.cli as cli\n"
                f"assert [cli.main(c) for c in {calls!r}] == [0] * {len(calls)}\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
                f"assert cli.main({gff_call!r}) == 0\n"
                "print('scipy.sparse' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]", "True"]
        for command in runs:
            assert (tmp_path / command / "manifest.json").exists()
        assert (tmp_path / "gff" / "trajectory.csv").exists()

    def test_console_entry_point(self, tmp_path):
        doc = base_config(output_dir=str(tmp_path / "o"))
        doc["run"]["steps"] = 50
        cfg = write_config(tmp_path, doc)
        proc = subprocess.run([sys.executable, "-m", "gibbsrwm.cli", "sample",
                               "--config", cfg], capture_output=True, text=True,
                              env=src_env())
        assert proc.returncode == 0, proc.stderr


# Per command: every run key it reads, with a value it accepts, and the
# primary output it writes.
READ_KEYS = {
    "sample": ({"steps": 200, "tau": 1.0, "replicas": 1, "init": "burn_in",
                "burn_steps": 50, "increment_family": "uniform"},
               "trajectory.csv"),
    "sweep-tau": ({"steps": 200, "tau_grid": [1.0, 2.0], "replicas": 2,
                   "init": "burn_in", "burn_steps": 50,
                   "increment_family": "uniform"}, "scaling_curve.csv"),
    "sweep-n": ({"steps": 200, "tau": 1.0, "n_list": [4, 9], "replicas": 2,
                 "init": "burn_in", "burn_steps": 50}, "acceptance_vs_n.csv"),
    "estimate-s": ({"steps": 200, "tau": 1.0, "replicas": 1, "thin": 5,
                    "init": "burn_in", "burn_steps": 50,
                    "increment_family": "uniform"}, "s2.json"),
    "dirichlet-check": ({"steps": 200, "tau": 1.0, "n_list": [4, 9],
                         "cylinder": "sin_x1", "replicas": 2, "init": "burn_in",
                         "burn_steps": 50}, "m2_table.csv"),
    "clt-check": ({"steps": 200, "tau": 1.0, "replicas": 1, "thin": 5,
                   "init": "burn_in", "burn_steps": 50,
                   "increment_family": "uniform"}, "clt.json"),
    "oracle-check": ({"steps": 100, "battery": ["determinism"]}, "checks.csv"),
}

# Run keys each command once accepted but never read, so they changed no
# output.  sweep-n and dirichlet-check ran Gaussian increments under
# "increment_family": "uniform" and exited 0.
UNREAD_KEYS = [
    *[("sample", k) for k in ("tau_grid", "n_list", "thin", "cylinder",
                              "battery")],
    *[("sweep-tau", k) for k in ("tau", "n_list", "thin", "cylinder",
                                 "battery")],
    *[("sweep-n", k) for k in ("tau_grid", "thin", "increment_family",
                               "cylinder", "battery")],
    *[(c, k) for c in ("estimate-s", "clt-check")
      for k in ("tau_grid", "n_list", "cylinder", "battery")],
    *[("dirichlet-check", k) for k in ("tau_grid", "thin", "increment_family",
                                       "battery")],
    *[("oracle-check", k) for k in ("tau", "tau_grid", "n_list", "replicas",
                                    "thin", "init", "burn_steps",
                                    "increment_family", "cylinder")],
]
VALUES = {"tau": 1.0, "tau_grid": [1.0, 2.0], "n_list": [4, 9], "replicas": 2,
          "thin": 5, "init": "burn_in", "burn_steps": 50,
          "increment_family": "uniform", "cylinder": "sin_x1",
          "battery": ["determinism"]}


class TestRunKeys:
    @pytest.mark.parametrize("command", sorted(READ_KEYS))
    def test_every_read_key_accepted(self, tmp_path, command):
        run, output = READ_KEYS[command]
        doc = base_config(output_dir=str(tmp_path / "o"), run=dict(run))
        assert main([command, "--config", write_config(tmp_path, doc)]) == 0
        assert (tmp_path / "o" / output).exists()

    @pytest.mark.parametrize("command,key", UNREAD_KEYS,
                             ids=[f"{c}-{k}" for c, k in UNREAD_KEYS])
    def test_unread_key_rejected(self, tmp_path, capsys, command, key):
        run, _ = READ_KEYS[command]
        doc = base_config(output_dir=str(tmp_path / "o"),
                          run={**run, key: VALUES[key]})
        assert main([command, "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert command in err and repr(key) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,init", [("sample", None),
                                              ("sweep-tau", "exact_gaussian")])
    def test_burn_steps_needs_burn_in(self, tmp_path, capsys, command, init):
        # burn_steps is read only under init "burn_in"; with the exact init it
        # once changed no output.
        run = {k: v for k, v in READ_KEYS[command][0].items() if k != "init"}
        if init is not None:
            run["init"] = init
        doc = base_config(output_dir=str(tmp_path / "o"), run=run)
        assert main([command, "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert command in err and "'burn_steps'" in err
        assert not (tmp_path / "o").exists()
        doc["run"]["init"] = "burn_in"
        assert main([command, "--config", write_config(tmp_path, doc)]) == 0
        assert (tmp_path / "o" / READ_KEYS[command][1]).exists()

    @pytest.mark.parametrize("command", ["estimate-s", "clt-check"])
    @pytest.mark.parametrize("steps,thin", [(5, None), (10, None), (19, 10), (9, 5)])
    def test_fewer_than_two_thinned_states_rejected(self, tmp_path, capsys, command,
                                                    steps, thin):
        # estimate-s once exited 3 or reported one state with SE 0, and
        # clt-check wrote NaN into clt.json.
        run = {"steps": steps, "tau": 1.0, **({} if thin is None else {"thin": thin})}
        doc = base_config(output_dir=str(tmp_path / "o"), run=run)
        assert main([command, "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert command in err and "2 * thin" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,output", [("estimate-s", "s2.json"),
                                                ("clt-check", "clt.json")])
    def test_two_thinned_states_accepted(self, tmp_path, command, output):
        doc = base_config(output_dir=str(tmp_path / "o"),
                          run={"steps": 20, "tau": 1.0, "thin": 10})
        doc["model"] = {"family": "phi4",
                        "parameters": {"a": 0.25, "b": -0.5, "coupling": 1.0}}
        doc["run"].update(init="burn_in", burn_steps=10)
        assert main([command, "--config", write_config(tmp_path, doc)]) == 0
        out = json.loads((tmp_path / "o" / output).read_text())
        assert all(math.isfinite(v) for v in out.values())
        if command == "estimate-s":
            assert out["n_states"] == 2

    @pytest.mark.parametrize("command", [c for c in sorted(READ_KEYS)
                                         if "init" in RUN_KEYS[c][1]])
    @pytest.mark.parametrize("init", [None, "exact_gaussian"])
    def test_exact_start_needs_a_quadratic_model(self, tmp_path, capsys, command,
                                                 init):
        # A phi4 run under the default init once exited 3 ("exact stationary
        # sampling unavailable for phi4").
        run = {k: v for k, v in READ_KEYS[command][0].items()
               if k not in ("init", "burn_steps")}
        if init is not None:
            run["init"] = init
        doc = base_config(output_dir=str(tmp_path / "o"), run=run, model={
            "family": "phi4", "parameters": {"a": 0.25, "b": -0.5}})
        assert main([command, "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert "run.init" in err and "'burn_in'" in err and "phi4" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad", ["nope", 3, ["determinism"]])
    def test_unknown_battery_entry_rejected(self, tmp_path, capsys, bad):
        # Once exit 3: a ValueError for an unknown name, a TypeError for a
        # number.
        doc = base_config(output_dir=str(tmp_path / "o"),
                          run={"steps": 100, "battery": ["determinism", bad]})
        assert main(["oracle-check", "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: run.battery") and repr(bad) in err
        assert all(name in err for name in BATTERY)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", sorted(READ_KEYS))
    def test_key_outside_run_keys_rejected(self, tmp_path, capsys, command):
        # corrupt_determinism, once an oracle-check key, now reads as unknown.
        run, _ = READ_KEYS[command]
        doc = base_config(output_dir=str(tmp_path / "o"),
                          run={**run, "corrupt_determinism": False})
        assert main([command, "--config", write_config(tmp_path, doc)]) == 2
        assert "'corrupt_determinism'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_runspec_fields_are_run_keys(self):
        assert {f.name for f in dataclasses.fields(RunSpec)} == \
            set().union(*(needs | may_take for needs, may_take in RUN_KEYS.values()))

    def test_readme_table_is_run_keys(self):
        readme = (pathlib.Path(__file__).resolve().parent.parent
                  / "README.md").read_text()
        table = re.search(r"\| command \| needs \| may take \|\n\|[-|]+\|\n"
                          r"((?:\|.*\|\n)+)", readme).group(1)
        rows = {}
        for line in table.splitlines():
            command, needs, may_take = (re.findall(r"`([a-z_-]+)`", cell)
                                        for cell in line.strip("|").split("|"))
            rows[command[0]] = (set(needs), set(may_take))
        assert rows == RUN_KEYS

    def test_readme_example_config_is_valid(self):
        readme = (pathlib.Path(__file__).resolve().parent.parent
                  / "README.md").read_text()
        before, block = re.search(r"(.*?)```json\n(.*?)```", readme, re.S).groups()
        intro = before.strip().split("\n\n")[-1]
        named = {c for c in re.findall(r"`([a-z-]+)`", intro) if c in COMMANDS}
        assert len(named) == 1, intro
        check_run_keys(named.pop(), parse_config(json.loads(block)))
