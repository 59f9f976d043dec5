#!/usr/bin/env python3
"""SHA-256 digests of the primary outputs of every CLI command, so that two
checkouts can be compared byte for byte.

Runs six commands on four configs: the README product config (n = 99), a
9x9 GFF with constant boundary 0.7, a phi4 chain started by burn-in, and a
33x33 GFF (n = 1 089) whose chunks sampler.CHUNK_BYTES cuts below
sampler.CHUNK steps, all at small step counts; oracle-check, whose battery
does not read the model, runs on the product config only.  Each run happens
in a scratch directory that is removed afterwards, and writes to a relative
output directory, so the config echo and its hash are the same in every
checkout.  Prints one line per primary file,
"<sha256>  <config>/<command>/<file>" (manifest.json, which holds
timestamps, is left out), and "exit <code>  ..." for a command that does
not exit 0.

Run it in each checkout and diff the two outputs:

    PYTHONPATH=src python scripts/output_digests.py > digests.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import tempfile

from gibbsrwm import cli

CONFIGS = {
    "product": ({"family": "gaussian_product", "parameters": {"variance": 1.0}},
                {"d": 1, "L": 49}, 2.38, [9, 25, 49], {}),
    "gff_constant": ({"family": "gff", "parameters": {"beta": 1.0, "m2": 1.0}},
                     {"d": 2, "L": 4, "boundary_mode": "constant",
                      "boundary_constant": 0.7}, 1.0, [9, 25, 81], {}),
    "phi4_burn_in": ({"family": "phi4",
                      "parameters": {"a": 0.25, "b": -0.5, "coupling": 1.0}},
                     {"d": 1, "L": 49}, 1.4, [9, 25, 49],
                     {"init": "burn_in", "burn_steps": 500}),
    "gff_chunked": ({"family": "gff", "parameters": {"beta": 1.0, "m2": 1.0}},
                    {"d": 2, "L": 16}, 2.0, [9, 25, 81], {}),
}


def run_keys(command, steps, tau, n_list, init, battery):
    """The run block of `command`: `steps` for one chain, a tenth of it for
    each of two replicas of the sweeps."""
    sweep = {"steps": max(steps // 10, 2), "replicas": 2, **init}
    return {
        "sample": {"steps": steps, "tau": tau, **init},
        "sweep-tau": {**sweep, "tau_grid": [0.5 * tau, tau, 1.5 * tau]},
        "sweep-n": {**sweep, "tau": tau, "n_list": n_list},
        "estimate-s": {"steps": steps, "tau": tau, "thin": 10, **init},
        "dirichlet-check": {**sweep, "tau": tau, "n_list": n_list,
                            "cylinder": "sin_x1"},
        "clt-check": {"steps": steps, "tau": tau, "thin": 10, **init},
        "oracle-check": {"steps": 1,
                         **({"battery": battery} if battery else {})},
    }[command]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--steps", type=int, default=20_000,
                    help="steps of a single chain (default 20000)")
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--battery", nargs="*", default=None,
                    help="oracle-check's checks (default: the whole battery)")
    args = ap.parse_args(argv)

    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for name, (model, graph, tau, n_list, init) in CONFIGS.items():
                for command in cli.COMMANDS:
                    if command == "oracle-check" and name != "product":
                        continue
                    out = f"{name}/{command}"
                    doc = {"model": model, "graph": graph,
                           "run": run_keys(command, args.steps, tau, n_list,
                                           init, args.battery),
                           "seed": args.seed, "output_dir": out}
                    config = pathlib.Path(f"{name}-{command}.json")
                    config.write_text(json.dumps(doc))
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main([command, "--config", str(config)])
                    if code:
                        lines.append(f"exit {code}  {out}")
                    for path in sorted(pathlib.Path(out).glob("*")):
                        if path.name != "manifest.json":
                            digest = hashlib.sha256(path.read_bytes()).hexdigest()
                            lines.append(f"{digest}  {path.as_posix()}")
        finally:
            os.chdir(cwd)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
