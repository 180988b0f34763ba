"""gaplab: a numerical laboratory for the spectral gap of 1-d Neumann
Schrödinger operators -d^2/dx^2 + v on (-L/2, L/2).

Computes the lowest two eigenpairs by Sturm-sequence bisection with
Richardson extrapolation, certifies them against an independent
transfer-matrix / phase-counting oracle, and verifies the closed-form
ground-state and spectral-gap inequalities (Harnack-type floors, Rayleigh
ceilings, and the exponential gap lower bound) on every solve.

The public names are those of each module's ``__all__``.
"""

from . import bounds, fdsolver, oracle, potentials
from .bounds import *  # noqa: F403
from .fdsolver import *  # noqa: F403
from .oracle import *  # noqa: F403
from .potentials import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *potentials.__all__, *fdsolver.__all__, *oracle.__all__,
           *bounds.__all__]
