"""Weighted Fekete points on the real line and the unit circle.

Closed-form maximizers of the weighted Vandermonde product for the weights
|x - ai|^(-s) on the line (s >= 1) and 1/|z - b| on the unit circle, an
independent numerical optimizer that recovers them from the discrete energy,
and the continuous-limit objects (equilibrium measures, weighted capacities,
Frostman conditions) they converge to.

The package exports the production routes: the ``__all__`` names of
``real_line``, ``circle``, ``energy``, ``equilibrium`` and ``errors``.  The
polynomial oracles (companion roots, exact resultants, the pseudo-Jacobi and
Jacobi polynomials and the discriminant route to the diameter) are imported
from ``fekete.poly``, which importing ``fekete`` does not load.
"""

import logging

__version__ = "0.1.0"

# Library convention: silent unless the application configures logging.
logging.getLogger(__name__).addHandler(logging.NullHandler())

from . import circle, energy, equilibrium, errors, real_line
from .circle import *  # noqa: F403
from .energy import *  # noqa: F403
from .equilibrium import *  # noqa: F403
from .errors import *  # noqa: F403
from .real_line import *  # noqa: F403

__all__ = ["__version__"] + sorted(
    name for module in (circle, energy, equilibrium, errors, real_line) for name in module.__all__
)
