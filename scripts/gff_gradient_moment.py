#!/usr/bin/env python3
"""Chain estimate of the stationary squared energy gradient on 2D free-field
windows of growing size, against the exact Gaussian value.

Also reports the induced optimal proposal scale 2.38/s and the acceptance
measured at it.
"""

import argparse
import itertools
import math

from gibbsrwm.estimators import acceptance_rate, estimate_s2, pool_replicas
from gibbsrwm.lattice import Window
from gibbsrwm.models import gff
from gibbsrwm.oracle import gaussian_s2_exact
from gibbsrwm.sampler import ProposalSpec, run_replicas


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--m2", type=float, default=1.0)
    ap.add_argument("--sides", type=int, nargs="+", default=[8, 12, 16])
    ap.add_argument("--steps", type=int, default=50_000)
    ap.add_argument("--replicas", type=int, default=2)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    model = gff(args.beta, args.m2, d=2)
    for side in args.sides:
        window = Window(sorted(itertools.product(range(side), repeat=2)),
                        model.neighborhood, boundary_mode="zero")
        exact = gaussian_s2_exact(model, window)
        tau = 2.38 / math.sqrt(exact)
        runs = run_replicas(model, window, ProposalSpec(tau, window.n),
                            args.steps, args.seed, args.replicas,
                            recording="thinned", thin=10)
        s2 = pool_replicas(estimate_s2(model, r) for r in runs)
        acc = pool_replicas(acceptance_rate(r.summary) for r in runs)
        print(f"{side:3d}x{side}: s2 = {s2.value:.4f} +/- {s2.std_error:.4f} "
              f"(exact {exact:.4f})   tau = {tau:.4f}  "
              f"acceptance = {acc.value:.4f}")


if __name__ == "__main__":
    main()
