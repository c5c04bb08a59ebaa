"""damflow: penalized solver and uniqueness certifier for the unsteady
dam problem in a heterogeneous rectangular porous medium."""

from .geometry import (BoundaryTags, DamGeometry, Grid, build_grid, classify_boundary,
                       dirichlet_values)
from .permeability import (AssumptionReport, PermeabilityField, constant_anisotropic_field,
                           grid_sampled_field, identity_field, layered_field, load_field_csv,
                           smooth_field, validate_assumptions)
from .penalty import PenaltyConfig
from .problem_data import (ProblemData, SolutionField, hydrostatic_head, hydrostatic_profile,
                           load_solution_csv, make_barrier_data, two_reservoir_head)
from .stationary import StationarySolve, solve_stationary
from .evolution import EvolutionConfig, Trajectory, project_initial, solve_unsteady, step
from .certify import (CertificateReport, DualSolver, EnergySeries, OrderingReport,
                      check_sandwich, extract_free_boundary, gronwall_monitor, sign_check,
                      steklov_average, steklov_derivative)
from .errors import (AssumptionViolation, DamflowError, IncompatibleRuns, InvalidArgument,
                     InvalidData, MalformedCSV, NonConvergence, StepFailure)

__version__ = "0.1.0"
