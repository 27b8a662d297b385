"""Symplectic and symmetric Runge-Kutta-Nystrom integrators built from
weighted orthogonal polynomial families.

Diagnostics go to the ``csrkn`` logger, which is silent unless the
application configures logging.
"""

import logging

from .basis import (Family, OrthonormalBasis, family_from_name,
                    inner_product, make_basis)
from .construction import (BUILTIN_METHODS, ConstructionError,
                           ConstructionSpec, ContinuousCoefficients,
                           RKNTableau, assemble, build_b,
                           builtin_coefficients, builtin_tableau, derive,
                           discretize, parse_tableau, serialize_tableau,
                           solve_alpha)
from .integrator import (SolverConfig, StageConvergenceError, Trajectory,
                         integrate, rkn_step, write_trajectory_csv)
from .problems import (PROBLEMS, SecondOrderProblem, harmonic, henon_heiles,
                       invariant_drift, kepler, problem_from_name)
from .quadrature import (EigenConvergenceError, QuadratureRule,
                         exactness_degree, gauss_rule, interpolatory_weights)
from .verification import (ConditionReport, OrderEstimate, adjoint_tableau,
                           check_continuous, check_discrete, check_symmetric,
                           check_symplectic, empirical_order, order_bound,
                           order_bound_with_quadrature, report_csv,
                           report_lines)

__all__ = [
    "BUILTIN_METHODS", "ConditionReport", "ConstructionError",
    "ConstructionSpec", "ContinuousCoefficients", "EigenConvergenceError",
    "Family", "OrderEstimate", "OrthonormalBasis", "PROBLEMS",
    "QuadratureRule", "RKNTableau", "SecondOrderProblem", "SolverConfig",
    "StageConvergenceError", "Trajectory", "adjoint_tableau", "assemble",
    "build_b", "builtin_coefficients", "builtin_tableau", "check_continuous",
    "check_discrete", "check_symmetric", "check_symplectic", "derive",
    "discretize", "empirical_order", "exactness_degree",
    "family_from_name", "gauss_rule", "harmonic", "henon_heiles",
    "inner_product", "integrate", "interpolatory_weights", "invariant_drift",
    "kepler", "make_basis", "order_bound", "order_bound_with_quadrature",
    "parse_tableau", "problem_from_name", "report_csv", "report_lines",
    "rkn_step", "serialize_tableau", "solve_alpha", "write_trajectory_csv",
]

__version__ = "0.1.0"

logging.getLogger("csrkn").addHandler(logging.NullHandler())
