"""Finite-difference solver and convergence harness for the fractional porous
medium equation u_t + (-Lap)^(sigma/2)(u^m) = 0, computed through its local
extension problem on a truncated half-plane."""

from . import core, errors, extension_op, harness, marcher, oracles, sigma_deriv
from .core import (Grid, InitialData, SolverConfig, cfl_max_dt,
                   effective_order, load_config, mu_sigma, nu_sigma,
                   riesz_constant)
from .extension_op import assemble, solve_interior
from .harness import (OPTIMAL, PRACTICAL, SchemeMode, run_convergence,
                      run_sigma_table, run_validate, select_scheme_params)
from .marcher import Trajectory, boundary_update, march, step
from .oracles import (barenblatt_exponents, barenblatt_profile, frac_laplacian_pv,
                      fractional_heat_solution, lateral_bound,
                      min_domain_half_width)
from .sigma_deriv import (deriv_order_study, discrete_sigma_derivative,
                          normalized_sigma_derivative, poisson_extension,
                          poisson_kernel)

__version__ = "0.1.0"
