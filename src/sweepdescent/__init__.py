"""Sublevel-set sweeping flows for quasiconvex functions.

Computes geometric and steepest descent curves by catching-up time stepping
of the moving sublevel sets, regularizes quasiconvex functions through
max-convolution with a ball indicator, and verifies the trajectory and
regularization properties the construction relies on.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DegenerateDirection, DomainError,
                     EmptySample, LevelUnderflow, MissingConstants,
                     NonConvergence, OutOfReach, ReverseRefused,
                     SweepDescentError, ThetaGuard)
from .functions import (GaugeFunction, LevelSet, LocalizedFunction,
                        NormFunction, QuasiconvexFunction, TubeFunction,
                        get_function, limiting_slope, slope_values)
from .geometry import (BoundarySample, DilatedSet, IntersectionSet,
                       TwoBallHullSet, hull_section, outward_normals,
                       sample_boundary)
from .regularization import (ProxRadiusEstimate, RegularizedFunction,
                             complement_projection, prox_radius_estimate,
                             regularize, semigroup_gaps, slope_deficits)
from .sweeping import (SweepingConfig, Trajectory, flow_map,
                       forward_catching_up_batch, invert_flow_check,
                       reverse_catching_up, trajectory_to_csv)
from .verification import (CheckResult, DiagnosticsReport, aze_corvellec_check,
                           hoffmann_localization_check, membership_U_epsilon,
                           probe_steepest_descent, run_verification_suite,
                           verify_H1_H3, verify_moving_map_lipschitz)
