"""Gauss-Laguerre evaluation of resolvents of fractional operator powers.

Computes (I + h*L^alpha)^{-1} b for self-adjoint positive L by writing the
resolvent as two exponentially weighted integrals, applying Gauss-Laguerre
rules, and mapping each node to one shifted linear solve.  A-priori error
estimates drive the sizing of the two rules (balancing) and the removal of
negligible tail nodes (truncation).
"""

from . import laguerre, integrands, estimates, planner, operators, oracle
from .estimates import *  # noqa: F403
from .integrands import *  # noqa: F403
from .laguerre import *  # noqa: F403
from .operators import *  # noqa: F403
from .oracle import *  # noqa: F403
from .planner import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *laguerre.__all__,
    *integrands.__all__,
    *estimates.__all__,
    *planner.__all__,
    *operators.__all__,
    *oracle.__all__,
]
