"""porodiff: periodic-homogenization toolkit for coupled reaction-diffusion
systems in perforated media.

The package solves periodic cell problems on a perforated unit cell to build
the constant effective diffusion tensor and the concentration-dependent
dispersion tensor, time-steps the resulting macroscopic system, simulates the
underlying epsilon-periodic microscopic system directly, and orchestrates
sweeps that validate the homogenization limit numerically.
"""

__version__ = "0.1.0"

from .cell import (CellContext, CoupledCellProblem, DispersionTable,
                   EffectiveTensor, TensorForm, coupled_tensor_with_check,
                   scalar_tensor_with_check, solve_coupled_pair, tabulate_b)
from .convergence import (ConvergenceReport, SweepProblem, fit_rate,
                          run_sweep, tensor_suite)
from .fem import (CoefficientField, assemble_boundary_mass, assemble_mass,
                  assemble_stiffness, solve_sparse)
from .geometry import (EdgeMarker, EpsilonDomainSpec, InclusionSpec, Mesh,
                       PeriodicMap, RectUnion, build_epsilon_mesh,
                       build_macro_mesh, build_unit_cell_mesh,
                       pair_periodic_nodes, write_poromesh)
from .kinetics import KineticsSet, cell_average_f, parse_kinetics, validate
from .macro import (MacroConfig, MacroSolver, MacroState, MacroVariantSolver,
                    PositivityPolicy, VariantConfig, VariantState)
from .micro import (MicroConfig, MicroSolver, MicroState, Scaling,
                    restrict_macro_to_micro)
