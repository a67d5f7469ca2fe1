"""Differential equations satisfied by roots of polynomial equations.

For a polynomial R with R(0) = 0, the equation R(x) = q defines a root
branch x(q) through the origin.  This package derives, in exact rational
arithmetic, the differential equations that branch satisfies (a
first-order equation polynomial in x, and a linear equation of order
n-1), together with separated-variables integral identities, and provides
numeric machinery to find, verify and cross-check the branch against
closed-form and series solutions.
"""
from . import algebra, derive, errors, numeric
from .algebra import *
from .derive import *
from .errors import *
from .numeric.closedform import *
from .numeric.quadrature import *
from .numeric.series import *
from .numeric.tracking import *

__version__ = "0.1.0"

# each module's __all__ is its public API; the package re-exports them all
__all__ = ["__version__", *algebra.__all__, *derive.__all__, *errors.__all__,
           *numeric.closedform.__all__, *numeric.quadrature.__all__,
           *numeric.series.__all__, *numeric.tracking.__all__]
