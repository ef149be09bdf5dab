"""Continuous-Galerkin solver for linear hyperbolic problems, stabilized
exclusively through weakly imposed boundary operators, plus an operator
spectrum analyzer that certifies (or refutes) stability of a discretization.
"""

from .assembly import (GlobalOperators, assemble_boundary_quadratic,
                       assemble_mass, assemble_stiffness, build_operators,
                       check_sbp, default_quad_degree)
from .basis import BasisSpec, QuadratureRule, quad_rule
from .mesh import (DofMap, Mesh, annulus_mesh, build_dofmap, generate_mesh,
                   interval_mesh, load_mesh, save_mesh, unit_disk_mesh,
                   unit_square_mesh)
from .problems import (PROBLEMS, Discretization, ProblemSpec, advection_2d,
                       discretize, error_norms, r13_heat, rotation_2d,
                       sine_advection_2d, solve_problem, wave_1d)
from .sat import (BoundaryOperator, CharacteristicDecomposition,
                  StabilityViolationError, build_pi_r13, build_pi_system,
                  characteristic_decompose, scalar_sat_1d, scalar_sat_2d)
from .spectra import (SpectrumReport, build_spectrum_report, extreme_eigs,
                      spectrum_report, stability_matrix, symmetric_eig)
from .timeint import (MassNotPositiveDefiniteError, Trajectory, factor_mass,
                      run, stable_dt, step)

__version__ = "0.1.0"
