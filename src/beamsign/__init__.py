"""Sign analysis and finite-difference solves for u'''' - p u'' + c(t) u = h.

The operator acts on [a, b] with hinged ends: u(a) = u(b) = 0 and prescribed
nonpositive end moments u''(a) = d1, u''(b) = d2 (zero in the homogeneous
case).  The package computes its spectral thresholds, checks the sufficient
conditions under which solutions are unique and sign-definite, builds Green's
kernels, solves the boundary value problem three ways, and certifies solution
signs numerically.
"""

from . import errors, expressions, fields, greens, principles, solver, spectrum
from .errors import *
from .expressions import *
from .fields import *
from .greens import *
from .principles import *
from .solver import *
from .spectrum import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *expressions.__all__,
    *fields.__all__,
    *greens.__all__,
    *principles.__all__,
    *solver.__all__,
    *spectrum.__all__,
    "__version__",
]
