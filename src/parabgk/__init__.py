"""Parallel-in-time multiscale solver for the 1D/3V BGK equation.

A kinetic finite-volume fine propagator and a compressible Euler coarse
propagator are coupled through moment projection and Maxwellian lifting
inside a corrected parallel-in-time iteration over coarse windows.
"""

from .errors import (BlowUpError, ConfigurationError, CorrectionOvershootError,
                     DegenerateStateError, SolverError)
from .grid import (BoundaryKind, Discretization, PhaseGrid, SpatialGrid,
                   TimeGrids, VelocityGrid, build_spatial_grid,
                   build_time_grids, build_velocity_grid)
from .moments import (MomentField, lift, maxwellian_marginals,
                      moments_of_marginals, project)
from .kinetic import (KineticParams, bgk_relax, propagate_kinetic,
                      stable_dt_kinetic, transport_update)
from .fluid import (conserved_to_primitive, euler_flux, primitive_to_conserved,
                    propagate_fluid, rusanov_flux, stable_dt_fluid)
from .parareal import (ConvergenceRecord, ParTrajectory, PararealConfig,
                       compute_jumps, estimate_k_opt, fine_moment_chain,
                       initial_coarse_sweep, parareal_cost, run_parareal,
                       sequential_correction)
from .cases import (beams_components, blast_moments, external_force, force_field,
                    initial_distribution, initial_moments, sod_moments)
from .config import (PRESETS, RunConfig, build_discretization, build_params,
                     parse_config)
from .io import (TimingReport, read_convergence, read_snapshot,
                 write_convergence, write_snapshots, write_timing)
from .runner import run_comparison, run_mode

__version__ = "0.1.0"
