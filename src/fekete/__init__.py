"""Weighted Fekete points on the real line and the unit circle.

Closed-form maximizers of the weighted Vandermonde product for the weights
|x - ai|^(-s) on the line (s >= 1) and 1/|z - b| on the unit circle, an
independent numerical optimizer that recovers them from the discrete energy,
and the continuous-limit objects (equilibrium measures, weighted capacities,
Frostman conditions) they converge to.
"""

import logging

__version__ = "0.1.0"

# Library convention: silent unless the application configures logging.
logging.getLogger(__name__).addHandler(logging.NullHandler())

from .circle import CircleSolution, CircleWeight, circle_diameter, circle_points, mobius
from .energy import (
    FeketeResult,
    OptimizerConfig,
    discrete_energy,
    energy_gradient,
    log_weighted_vandermonde,
    numeric_diameter,
    optimize,
    scaled_residual,
    sine_product,
    sine_product_bound,
)
from .equilibrium import (
    EquilibriumReport,
    MeasureSpec,
    capacity_circle,
    capacity_real,
    cdf,
    density,
    frostman_check,
    ks_distance,
    log_potential,
    modified_robin_constant,
    total_mass,
)
from .errors import (
    DegenerateInputError,
    FeketeError,
    InvalidInputError,
    NumericalError,
    SingularParameterError,
)
from .poly import Poly, discriminant_resultant, log_abs_pochhammer, pochhammer, roots
from .real_line import (
    OdeFamily,
    RealWeight,
    S1Solution,
    canonical_gamma,
    g_at_ai,
    jacobi,
    jacobi_discriminant,
    ode_monic_solution,
    ode_residual,
    pseudo_jacobi,
    recurrence_family,
    s1_diameter,
    s1_points,
    s1_polynomial,
    sgt1_diameter,
    sgt1_diameter_routes,
    sgt1_points,
    support_radius,
)

__all__ = [
    "__version__",
    "CircleSolution",
    "CircleWeight",
    "DegenerateInputError",
    "EquilibriumReport",
    "FeketeError",
    "FeketeResult",
    "InvalidInputError",
    "MeasureSpec",
    "NumericalError",
    "OdeFamily",
    "OptimizerConfig",
    "Poly",
    "RealWeight",
    "S1Solution",
    "SingularParameterError",
    "canonical_gamma",
    "capacity_circle",
    "capacity_real",
    "cdf",
    "circle_diameter",
    "circle_points",
    "density",
    "discrete_energy",
    "discriminant_resultant",
    "energy_gradient",
    "frostman_check",
    "g_at_ai",
    "jacobi",
    "jacobi_discriminant",
    "ks_distance",
    "log_abs_pochhammer",
    "log_potential",
    "log_weighted_vandermonde",
    "mobius",
    "modified_robin_constant",
    "numeric_diameter",
    "ode_monic_solution",
    "ode_residual",
    "optimize",
    "pochhammer",
    "pseudo_jacobi",
    "recurrence_family",
    "roots",
    "s1_diameter",
    "s1_points",
    "s1_polynomial",
    "scaled_residual",
    "sgt1_diameter",
    "sgt1_diameter_routes",
    "sgt1_points",
    "sine_product",
    "sine_product_bound",
    "support_radius",
    "total_mass",
]
