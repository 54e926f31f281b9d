"""Numerical laboratory for self-attracting diffusions.

Simulate the path whose drift pulls it toward its own normalized occupation
measure, apply the Gibbs map and its Euler-discretized measure flow, and
measure everything with free energies and transport distances.
"""

__version__ = "0.1.0"

from .energy import (EnergyBreakdown, RateParams, energy_envelope, entropy,
                     free_energy, frozen_energy_difference, mixing_inequality,
                     rate_function, relative_free_energy)
from .errors import InvalidInputError, NumericFailureError
from .flow import (FlowRun, FlowState, Schedule, envelope_compare, euler_step, run_flow,
                   solve_fixed_point)
from .gibbs import gibbs_map
from .measures import (GridDensity, ParticleMeasure, center, convolve_potential, dirac,
                       gaussian_density, recenter, smooth, uniform_density)
from .potentials import (CertificateReport, DominatingPolynomial, PotentialSpec,
                         certify, even_polynomial, external_polynomial,
                         quadratic_shifted, quadratic_symmetric, zero_interaction)
from .sde import (OuDominationResult, PicardResult, SimConfig, TrajectoryRecord,
                  counterexample_system, ou_domination, picard_bootstrap, simulate,
                  simulate_ensemble)
from .transport import tp_distance_1d, w2_distance
