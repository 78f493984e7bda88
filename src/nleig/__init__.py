"""Nonlocal one-dimensional eigenvalue problem toolkit.

Computes the smallest value lambda(alpha, q) of the quotient

    ( int |u'|^2 dx  +  alpha * | int |u|^(q-1) u dx |^(2/q) )  /  int u^2 dx

over functions on (-1, 1) vanishing at both endpoints (``rescale_lambda``
carries the value to any other interval), together with the minimizing
profiles, the critical coupling at which the minimizer switches
from constant sign to an odd sine, and the auxiliary singular integrals that
describe the sign-changing branch.
"""

from .core import (
    GridFunction,
    EigenResult,
    MinimizerProfile,
    ProblemParams,
    analyze,
    q_average,
    rayleigh_quotient,
)
from .period import (
    QuadResult,
    QuadratureNonconvergence,
    first_integral_coeffs,
    half_period,
    integrate_endpoint_singular,
)
from .solver import SolverNonconvergence, SolverOptions, minimize, saturation_reference
from .branches import (
    BranchPoint,
    branch_point,
    q1_coupling_of_eigenvalue,
    q1_eigenvalue_of_coupling,
    q1_flat_family,
    q1_positive_profile,
    reconstruct_profile,
)
from .critical import (
    BracketViolation,
    CriticalResult,
    alpha_critical,
    alpha_zero,
    rescale_lambda,
)

__version__ = "0.1.0"

__all__ = [
    "GridFunction",
    "EigenResult",
    "MinimizerProfile",
    "ProblemParams",
    "analyze",
    "q_average",
    "rayleigh_quotient",
    "QuadResult",
    "QuadratureNonconvergence",
    "integrate_endpoint_singular",
    "first_integral_coeffs",
    "half_period",
    "SolverNonconvergence",
    "SolverOptions",
    "minimize",
    "saturation_reference",
    "BranchPoint",
    "branch_point",
    "q1_coupling_of_eigenvalue",
    "q1_eigenvalue_of_coupling",
    "q1_flat_family",
    "q1_positive_profile",
    "reconstruct_profile",
    "BracketViolation",
    "CriticalResult",
    "alpha_critical",
    "alpha_zero",
    "rescale_lambda",
    "__version__",
]
