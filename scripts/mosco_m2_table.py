#!/usr/bin/env python3
"""One-step Dirichlet forms of a cylinder test function across window sizes,
against the limiting form (tau^2 c(tau)/2) * E|grad f|^2.

The gap column should shrink toward zero as n grows.
"""

import argparse
import os

from gibbsrwm.estimators import CYLINDER_FUNCTIONS
from gibbsrwm.lattice import build_line
from gibbsrwm.models import gaussian_product
from gibbsrwm.runio import write_csv
from gibbsrwm.scaling import mosco_m2_check


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cylinder", default="sin_x1",
                    choices=sorted(CYLINDER_FUNCTIONS))
    ap.add_argument("--n-list", type=int, nargs="+", default=[25, 100, 400])
    ap.add_argument("--tau", type=float, default=2.38)
    ap.add_argument("--steps", type=int, default=200_000)
    ap.add_argument("--replicas", type=int, default=4)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="results")
    args = ap.parse_args(argv)

    f = CYLINDER_FUNCTIONS[args.cylinder]
    model = gaussian_product(1.0)
    windows = [build_line(n, model.neighborhood) for n in args.n_list]
    table = mosco_m2_check(f, model, windows, args.tau, args.steps, args.seed,
                           replicas=args.replicas)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"m2_{args.cylinder}.csv")
    write_csv(path, *table.csv_table())
    print(f"wrote {path}   E(f) = {table.limiting.value:.6f}")
    for r in table.rows:
        print(f"  n={r.n:5d}  En(f) = {r.empirical.value:.5f} "
              f"+/- {r.empirical.std_error:.5f}   gap = {r.gap:.5f}")


if __name__ == "__main__":
    main()
