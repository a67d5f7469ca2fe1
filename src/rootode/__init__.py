"""Differential equations satisfied by roots of polynomial equations.

For a polynomial R with R(0) = 0, the equation R(x) = q defines a root
branch x(q) through the origin.  This package derives, in exact rational
arithmetic, the differential equations that branch satisfies (a
first-order equation polynomial in x, and a linear equation of order
n-1), together with separated-variables integral identities, and provides
numeric machinery to find, verify and cross-check the branch against
closed-form and series solutions.
"""
from .algebra import (
    UPoly,
    compose_q,
    discriminant,
)
from .derive import (
    AbelODE,
    Factorization,
    IntegrandSpec,
    LinearODE,
    ProblemSpec,
    abel_ode,
    build_integrands,
    derivative_tower,
    factorize,
    linear_ode,
    trinomial,
)
from .errors import (
    DomainError,
    EmptyKernelError,
    NonExactDivisionError,
    ParseError,
    QuadratureError,
    RootodeError,
    SingularIntegrandError,
    VariableMismatchError,
)
from .numeric.closedform import (
    babylonian_root,
    cardano_root,
    quartic_real_roots,
    quartic_w_root,
    vieta_hyp_root,
    vieta_trig_root,
)
from .numeric.quadrature import check_identity, quad
from .numeric.series import (
    lagrange_series,
    pfq_series,
    quartic_series_2f1_product,
    quartic_series_3f2,
    series_ode_residual,
)
from .numeric.tracking import bisect_branch_root, first_branch_point

__version__ = "0.1.0"

__all__ = [
    "AbelODE",
    "DomainError",
    "EmptyKernelError",
    "Factorization",
    "IntegrandSpec",
    "LinearODE",
    "NonExactDivisionError",
    "ParseError",
    "ProblemSpec",
    "QuadratureError",
    "RootodeError",
    "SingularIntegrandError",
    "UPoly",
    "VariableMismatchError",
    "__version__",
    "abel_ode",
    "babylonian_root",
    "bisect_branch_root",
    "build_integrands",
    "cardano_root",
    "check_identity",
    "compose_q",
    "derivative_tower",
    "discriminant",
    "factorize",
    "first_branch_point",
    "lagrange_series",
    "linear_ode",
    "pfq_series",
    "quad",
    "quartic_real_roots",
    "quartic_series_2f1_product",
    "quartic_series_3f2",
    "quartic_w_root",
    "series_ode_residual",
    "trinomial",
]
