"""Random-walk Metropolis on lattice Gibbs fields.

Samples finite-window Gibbs models with the random-walk Metropolis kernel at
proposal scale tau/sqrt(n) and estimates the quantities that govern its
high-dimensional behavior: the limiting acceptance curve, the stationary
gradient second moment, one-step Dirichlet forms on cylinder functions, and
the 0.234 optimal-acceptance point.
"""

__version__ = "0.1.0"

from .estimators import (CYLINDER_FUNCTIONS, CylinderFunction, DeltaHStats,
                         EstimateWithError, acceptance_rate, delta_h_stats,
                         dirichlet_form_empirical, esjd_first_coord,
                         estimate_s2, limiting_form, pool_replicas)
from .lattice import (Neighborhood, Window, build_box, build_line,
                      h2_diagnostics, nearest_neighbor, self_neighborhood)
from .models import (Configuration, InteractionModel, custom_pairwise,
                     delta_hamiltonian, gaussian_product, gff, hamiltonian,
                     hamiltonian_gradient, log_density_ratio, phi4)
from .oracle import (PrecisionMatrix, build_precision, gaussian_exact_samples,
                     gaussian_s2_exact, quad_acceptance, quad_expectation_1d)
from .sampler import (ChainRun, ProposalSpec, StepRecords, chain_rng,
                      run_replicas, uniform_rng)
from .scaling import (M2Table, ScalingCurve, c_mc_oracle, c_theoretical,
                      mosco_m2_check, sweep_n, sweep_tau, tau_star)
