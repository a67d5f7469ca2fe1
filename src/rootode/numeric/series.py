"""Exact power-series oracles for the root branch.

The branch x(q) of R(x) = q through (0, 0) has a rational power series
x(q) = sum_{m>=1} c_m q^m whenever R'(0) != 0.  A truncated series is the
tuple (c_1, ..., c_N) of its coefficients, canonical rationals (ints where
integral), with no constant term.  The coefficients are found
order by order from R(x(q)) = q alone.  A substitution x = rho y,
L q = rho^2 v (L the lcm of R's denominators, rho = L R'(0)) makes the
inversion monic over the integers, so a table of the powers of the
partial sum, growing one column per order, is filled in O(n N^2) integer
operations for N coefficients, and each coefficient is divided once when
it is returned.  Each table entry is one C-level sum of products over two
list slices, strided where the series is a power series in q^g times q;
order 1000 on a dense quintic takes seconds.  The ODE residual is likewise
accumulated in integers on one common denominator, a whole row per
nonzero coefficient of the equation.
The coefficients are deliberately not generated from the derived linear
ODE (whose recurrence would be cheaper), because they serve as
independent evidence when checking the derived differential equations;
hypergeometric closed forms for x^4 + p x = q are expanded here for the
same purpose.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from ..algebra import UPoly, _integer_coeffs, _mul, _rat, _ratio
from ..derive import LinearODE, ProblemSpec
from ..errors import DomainError

__all__ = [
    "lagrange_series",
    "series_ode_residual",
    "pfq_series",
    "quartic_series_3f2",
    "quartic_series_2f1_product",
]


# Largest order lagrange_series accepts.  The work grows as n * order^2
# on ever longer integers, so the order is checked before anything is
# allocated.
MAX_SERIES_ORDER = 1000


def lagrange_series(spec: ProblemSpec, order: int) -> tuple[Fraction, ...]:
    """Series of the branch, solved order by order from R(x(q)) = q.

    Let L be the lcm of the denominators of R, a_k = L r_k the integer
    coefficients of L R, and rho = a_1 = L R'(0).  The substitution
    x = rho y, L q = rho^2 v turns L R(x) = L q into the monic integer
    inversion

        y + sum_{k>=2} s_k y^k = v,    s_k = a_k rho^(k-2),

    whose branch y(v) = sum e_m v^m has e_1 = 1 and integer e_m.  With
    Y = sum e_i v^i, [v^m] (Y + sum s_k Y^k) = e_m + sum_k s_k [v^m] Y^k,
    and for k >= 2 the coefficient [v^m] Y^k only involves e_1..e_{m-1}.
    A table pw[k][m] = [v^m] Y^k, k = 2..min(n, order), is filled one
    column at a time alongside the coefficients,

        pw[k][m] = sum_{i=1}^{m-k+1} e_i pw[k-1][m-i]    (pw[1] = e),

    and then e_m = -sum_k s_k pw[k][m], with no division.  That is
    O(n order^2) integer operations, each sum one ``sum(map(mul, ...))``
    over a slice of e and a reversed slice of pw[k-1].  With g the gcd of
    the k - 1 over the nonzero s_k, y = v f(v^g), so e_i = 0 unless
    i = 1 mod g and both slices step by g: sparse R skip their zero e_i.
    The order cap of 1000 on a dense quintic takes seconds.  Undoing the
    substitution, c_m = e_m L^m / rho^(2m-1), one division per returned
    coefficient.  The series comes from R(S) = q alone, never from the
    derived linear ODE, so checking it against that ODE stays an
    independent test.  Requires 1 <= order <= MAX_SERIES_ORDER (else
    ValueError) and R'(0) != 0 (else DomainError).
    """
    if order < 1:
        raise ValueError("need order >= 1")
    if order > MAX_SERIES_ORDER:
        raise ValueError(f"series order {order} exceeds the limit {MAX_SERIES_ORDER}")
    r = spec.R.coeffs
    if r[1] == 0:
        raise DomainError("series inversion needs R'(0) != 0")
    lcm_den, a = _integer_coeffs(r)
    rho = a[1]
    top = min(spec.n, order)
    s = [0, 0] + [a[k] * rho ** (k - 2) for k in range(2, top + 1)]
    g = gcd(*(k - 1 for k in range(2, top + 1) if s[k])) or 1
    e = [0] * (order + 1)
    pw = [None, e] + [[0] * (order + 1) for _ in range(2, top + 1)]
    e[1] = 1
    for m in range(2, order + 1):
        rest = 0
        for k in range(2, min(top, m) + 1):
            acc = pw[k][m] = sum(map(mul, e[1:m - k + 2:g], pw[k - 1][m - 1:k - 2:-g]))
            if s[k]:
                rest += s[k] * acc
        e[m] = -rest
    coeffs = []
    num, den = lcm_den, rho  # L^m and rho^(2m-1) at m = 1
    rho2 = rho * rho
    for em in e[1:]:
        coeffs.append(_ratio(em * num, den))
        num *= lcm_den
        den *= rho2
    return tuple(coeffs)


def series_ode_residual(ode: LinearODE, series: tuple[Fraction, ...]) -> list[Fraction]:
    """Apply a linear ODE to a truncated branch series, exactly.

    Returns the residual coefficients, as canonical rationals, through the
    provable order M - max deg(b) - order; with a series that truly
    satisfies the equation every returned coefficient is zero.  The series
    is scaled by d, the lcm of its denominators, so with the integer b_k of
    a normal-form equation the residual of d S is accumulated in ints, each
    nonzero coefficient of b_k adding its multiple of the derivative row in
    one slice, and each nonzero coefficient is divided by d once at the end.
    """
    m = len(series)
    degs = [p.degree for p in ode.vector() if p]
    keep = m - max(degs, default=0) - ode.order
    if keep < 0:
        raise ValueError("series too short to test this equation")
    d, ints = _integer_coeffs(series)
    deriv = [0] + ints[: keep + ode.order]
    residual = [0] * (keep + 1)

    def add(poly: UPoly, term: list):
        for i, c in enumerate(poly.coeffs[: keep + 1]):
            if c:
                row = term[: keep + 1 - i]
                residual[i:i + len(row)] = [r + c * t for r, t in zip(residual[i:], row)]

    add(ode.b[0], deriv)
    for k in range(1, ode.order + 1):
        deriv = [i * deriv[i] for i in range(1, len(deriv))]
        add(ode.b[k], deriv)
    add(ode.inhomogeneous, [d])
    return [_ratio(v, d) for v in residual]


def pfq_series(
    upper: list[Fraction],
    lower: list[Fraction],
    arg_coeff: Fraction,
    arg_power: int,
    order: int,
) -> list[Fraction]:
    """Generalized hypergeometric sum at z = arg_coeff * q^arg_power.

    Returns dense q-coefficients through ``order``.  Raises if a lower
    parameter is a nonpositive integer (a parameter pole).
    """
    for b in lower:
        if b <= 0 and Fraction(b).denominator == 1:
            raise ValueError(f"lower parameter {b} hits a pole")
    if arg_power < 1:
        raise ValueError("argument power must be >= 1")
    out = [Fraction(0)] * (order + 1)
    term = Fraction(1)
    k = 0
    while k * arg_power <= order:
        out[k * arg_power] = term
        num = Fraction(1)
        for a in upper:
            num *= a + k
        den = Fraction(k + 1)
        for b in lower:
            den *= b + k
        term = term * num / den * arg_coeff
        k += 1
    return out


def _with_prefactor(coeffs: list[Fraction], p: Fraction, order: int) -> tuple[Fraction, ...]:
    """Multiply a dense series by q/p and return it as a branch series."""
    return tuple(_rat(c / p) for c in coeffs[:order])


def _quartic_argument(p: Fraction) -> Fraction:
    return Fraction(-256, 27) / p**4


def quartic_series_3f2(p, order: int) -> tuple[Fraction, ...]:
    """Branch series of x^4 + p x = q from the single 3F2 closed form."""
    p = Fraction(p)
    f = pfq_series(
        [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)],
        [Fraction(2, 3), Fraction(4, 3)],
        _quartic_argument(p),
        3,
        order,
    )
    return _with_prefactor(f, p, order)


def quartic_series_2f1_product(p, order: int) -> tuple[Fraction, ...]:
    """Branch series of x^4 + p x = q from the product of two 2F1 factors."""
    p = Fraction(p)
    z = _quartic_argument(p)
    f1 = pfq_series([Fraction(-1, 24), Fraction(5, 24)], [Fraction(2, 3)], z, 3, order)
    f2 = pfq_series([Fraction(7, 24), Fraction(13, 24)], [Fraction(4, 3)], z, 3, order)
    return _with_prefactor(_mul(f1, f2), p, order)
