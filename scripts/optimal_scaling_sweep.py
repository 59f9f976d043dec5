#!/usr/bin/env python3
"""Sweep the proposal scale on a product-Gaussian target and locate the
optimum: acceptance and n*ESJD per tau against the closed-form curve.

Writes results/scaling_curve.csv and prints the located maximizer, which
should sit within one grid step of 2.38 with acceptance near 0.234.
"""

import argparse
import os

from gibbsrwm.lattice import build_line
from gibbsrwm.models import gaussian_product
from gibbsrwm.runio import write_csv
from gibbsrwm.scaling import sweep_tau, tau_star


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--steps", type=int, default=100_000)
    ap.add_argument("--replicas", type=int, default=8)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--tau-min", type=float, default=0.5)
    ap.add_argument("--tau-max", type=float, default=6.0)
    ap.add_argument("--tau-step", type=float, default=0.25)
    ap.add_argument("--out", default="results")
    args = ap.parse_args(argv)

    model = gaussian_product(1.0, d=1)
    window = build_line(args.n, model.neighborhood)
    grid = []
    t = args.tau_min
    while t <= args.tau_max + 1e-9:
        grid.append(round(t, 10))
        t += args.tau_step

    curve = sweep_tau(model, window, grid, args.steps, args.replicas,
                      args.seed)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "scaling_curve.csv")
    write_csv(path, *curve.csv_table())

    best = max(curve.rows, key=lambda r: r.esjd.value)
    print(f"wrote {path}  (s_hat = {curve.s_hat:.4f})")
    print(f"empirical optimum: tau = {best.tau}  "
          f"acceptance = {best.acceptance.value:.4f}  "
          f"n*ESJD = {best.esjd.value:.4f}")
    print(f"closed-form optimum: tau* = {tau_star(curve.s_hat):.4f}")


if __name__ == "__main__":
    main()
