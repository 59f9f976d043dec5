"""Experiment configuration document: schema, validation, construction.

One JSON document describes a run completely; the CLI loads it, validates it
strictly (unknown keys are errors), and builds the model/window/run objects.
The canonical serialization of the document is hashed into every manifest.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from .estimators import CYLINDER_FUNCTIONS
from .lattice import (BOUNDARY_MODES, Neighborhood, Window, _vertex_array,
                      build_box, build_line, nearest_neighbor)
from .models import InteractionModel, gaussian_product, gff, phi4
from .sampler import INCREMENT_FAMILIES


class ConfigError(ValueError):
    pass


INIT_MODES = ("exact_gaussian", "burn_in")
# The model families, each with its parameters and the values omitted ones take.
_FAMILY_PARAMS = {
    "gaussian_product": {"variance": 1.0},
    "gff": {"beta": 1.0, "m2": 1.0},
    "phi4": {"a": 1.0, "b": 0.0, "coupling": 1.0},
}
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
    "oracle-check": ({"steps"}, {"battery"}),
}


def _check_keys(obj: dict, allowed: set[str], required: set[str], where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _number(obj, key, where, lo=None, hi=None, integer=False):
    """obj[key] as a float (an int if `integer`), named where.key, or
    where[key] when obj is a list."""
    v = obj[key]
    name = f"{where}[{key}]" if isinstance(obj, list) else f"{where}.{key}"
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{name}: expected a number")
    if not math.isfinite(v):
        raise ConfigError(f"{name}: must be finite")
    if integer and int(v) != v:
        raise ConfigError(f"{name}: expected an integer")
    if lo is not None and v < lo:
        raise ConfigError(f"{name}: must be >= {lo}")
    if hi is not None and v > hi:
        raise ConfigError(f"{name}: must be <= {hi}")
    return int(v) if integer else float(v)


def _increasing(obj, key, where, **rule):
    """obj[key] as a nonempty, strictly increasing list of numbers, each by
    the _number `rule` and named by its index (run.tau_grid[1])."""
    v = obj[key]
    name = f"{where}.{key}"
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{name}: expected a nonempty list")
    xs = [_number(v, i, name, **rule) for i in range(len(v))]
    if any(a >= b for a, b in zip(xs, xs[1:])):
        raise ConfigError(f"{name}: must be strictly increasing")
    return xs


def _coordinate_rows(rows, d: int, where: str) -> list[list[int]]:
    """A nonempty list of points of d coordinates each, every point a vertex
    by the library's rule (`lattice._vertex_array`), as lists of ints."""
    if not (isinstance(rows, list) and rows and all(
            isinstance(row, list) and len(row) == d for row in rows)):
        raise ConfigError(f"{where}: expected a nonempty list of {d}-coordinate lists")
    try:
        return _vertex_array(rows, d).tolist()
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class ModelSpec:
    family: str
    params: dict  # every parameter of the family, omitted ones at their defaults
    neighborhood: str | list = "default"


@dataclass(frozen=True)
class GraphSpec:
    d: int
    L: int | None = None
    vertex_list: list | None = None
    boundary_mode: str = "zero"
    boundary_constant: float = 0.0


@dataclass(frozen=True)
class RunSpec:
    steps: int
    tau: float | None = None
    tau_grid: list[float] | None = None
    n_list: list[int] | None = None
    replicas: int = 8
    thin: int = 10
    init: str = "exact_gaussian"
    burn_steps: int | None = None
    increment_family: str = "standard_normal"
    cylinder: str | None = None
    battery: list[str] | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    graph: GraphSpec
    run: RunSpec
    seed: int
    output_dir: str
    raw: dict = field(repr=False)


def parse_config(doc: dict) -> ExperimentConfig:
    _check_keys(doc, {"model", "graph", "run", "seed", "output_dir"},
                {"model", "graph", "run", "seed"}, "config")

    m = doc["model"]
    _check_keys(m, {"family", "parameters", "neighborhood"}, {"family"}, "model")
    family = m["family"]
    if family not in _FAMILY_PARAMS:
        raise ConfigError(f"model.family: unknown family {family!r}")
    parameters = m.get("parameters", {})
    _check_keys(parameters, set(_FAMILY_PARAMS[family]), set(), "model.parameters")
    p = {**_FAMILY_PARAMS[family],
         **{key: _number(parameters, key, "model.parameters") for key in parameters}}
    if family == "gaussian_product" and p["variance"] <= 0:
        raise ConfigError("model.parameters.variance: must be > 0")
    if family == "gff":
        for key in ("beta", "m2"):
            if p[key] < 0:
                raise ConfigError(f"model.parameters.{key}: must be >= 0")
        if p["beta"] == p["m2"] == 0:
            raise ConfigError("model.parameters: beta and m2 must not both be 0")
    if family == "phi4" and p["a"] <= 0:
        raise ConfigError("model.parameters.a: must be > 0 (normalizable density)")
    nb = m.get("neighborhood", "default")
    if not (nb == "default" or nb == "nearest_neighbor" or isinstance(nb, list)):
        raise ConfigError("model.neighborhood: 'default', 'nearest_neighbor', "
                          "or a list of offsets")
    if family == "gaussian_product" and nb != "default":
        raise ConfigError("model.neighborhood: the product model is on-site only")

    g = doc["graph"]
    _check_keys(g, {"d", "L", "vertex_list", "boundary_mode", "boundary_constant"},
                {"d"}, "graph")
    d = _number(g, "d", "graph", lo=1, integer=True)
    L = _number(g, "L", "graph", lo=0, integer=True) if "L" in g else None
    vl = g.get("vertex_list")
    if vl is not None and L is not None:
        raise ConfigError("graph: give either L or vertex_list, not both")
    if vl is not None:
        vl = _coordinate_rows(vl, d, "graph.vertex_list")
    if isinstance(nb, list):
        nb = _coordinate_rows(nb, d, "model.neighborhood")
    model = ModelSpec(family, p, nb)
    mode = g.get("boundary_mode", "zero")
    if mode not in BOUNDARY_MODES:
        raise ConfigError(f"graph.boundary_mode: unknown mode {mode!r}")
    if "boundary_constant" in g and mode != "constant":
        raise ConfigError("graph.boundary_constant: read only under "
                          f"boundary_mode 'constant', not {mode!r}")
    const = (_number(g, "boundary_constant", "graph")
             if "boundary_constant" in g else 0.0)
    graph = GraphSpec(d, L, vl, mode, const)

    r = doc["run"]
    _check_keys(r, set().union(*(a | b for a, b in RUN_KEYS.values())),
                {"steps"}, "run")
    # Keys left out keep RunSpec's defaults.
    given = {"steps": _number(r, "steps", "run", lo=1, integer=True)}
    if "tau" in r:
        given["tau"] = _number(r, "tau", "run", lo=0)
    if "tau_grid" in r:
        given["tau_grid"] = _increasing(r, "tau_grid", "run", lo=0)
    if "n_list" in r:
        given["n_list"] = _increasing(r, "n_list", "run", lo=1, integer=True)
    for key in ("replicas", "thin", "burn_steps"):
        if key in r:
            given[key] = _number(r, key, "run", lo=1, integer=True)
    for key, choices in (("init", INIT_MODES),
                         ("increment_family", INCREMENT_FAMILIES),
                         ("cylinder", tuple(sorted(CYLINDER_FUNCTIONS)))):
        if key in r:
            if r[key] not in choices:
                raise ConfigError(f"run.{key}: unknown value {r[key]!r}; "
                                  f"one of {', '.join(choices)}")
            given[key] = r[key]
    if "battery" in r:
        if not isinstance(r["battery"], list) or not r["battery"]:
            raise ConfigError("run.battery: expected a nonempty list of check names")
        given["battery"] = r["battery"]
    run = RunSpec(**given)

    seed = _number(doc, "seed", "config", lo=0, integer=True)
    out = doc.get("output_dir", "out")
    if not isinstance(out, str) or not out:
        raise ConfigError("config.output_dir: expected a nonempty string")
    return ExperimentConfig(model, graph, run, seed, out, raw=doc)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}")
    return parse_config(doc)


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(doc: dict) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def build_model(cfg: ExperimentConfig) -> InteractionModel:
    fam, p, nb = cfg.model.family, cfg.model.params, cfg.model.neighborhood
    if fam == "gaussian_product":
        return gaussian_product(**p, d=cfg.graph.d)
    nb = (Neighborhood.from_offsets(nb) if isinstance(nb, list)
          else nearest_neighbor(cfg.graph.d))
    return (gff if fam == "gff" else phi4)(**p, neighborhood=nb)


def build_window(cfg: ExperimentConfig, model: InteractionModel,
                 n_override: int | None = None) -> Window:
    g = cfg.graph
    if n_override is not None:
        if cfg.model.family == "gaussian_product":
            return build_line(n_override, model.neighborhood, g.boundary_mode,
                              g.boundary_constant)
        side = round(n_override ** (1.0 / g.d))
        if side % 2 != 1 or side**g.d != n_override:
            raise ConfigError(f"run.n_list: n={n_override} is not (2L+1)^{g.d}; "
                              "only the product family supports arbitrary n")
        return build_box(g.d, (side - 1) // 2, model.neighborhood,
                         g.boundary_mode, g.boundary_constant)
    if g.vertex_list is not None:
        return Window(g.vertex_list, model.neighborhood, g.boundary_mode,
                      g.boundary_constant)
    if g.L is None:
        raise ConfigError("graph: need L, vertex_list, or run.n_list")
    return build_box(g.d, g.L, model.neighborhood, g.boundary_mode,
                     g.boundary_constant)
