"""Exact power-series oracles for the root branch.

The branch x(q) of R(x) = q through (0, 0) has a rational power series
x(q) = sum_{m>=1} c_m q^m whenever R'(0) != 0.  The coefficients are found
order by order from R(x(q)) = q alone, keeping a table of the powers S^k
of the partial sum that grows one column per order, in O(n N^2) rational
operations for N coefficients.  They are deliberately not generated from
the derived linear ODE (whose recurrence would be cheaper), because they
serve as independent evidence when checking the derived differential
equations; hypergeometric closed forms for x^4 + p x = q are expanded here
for the same purpose.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..algebra import UPoly, _rat
from ..derive import LinearODE, ProblemSpec

__all__ = [
    "SeriesQ",
    "lagrange_series",
    "series_ode_residual",
    "pfq_series",
    "quartic_series_3f2",
    "quartic_series_2f1_product",
]


@dataclass(frozen=True)
class SeriesQ:
    """Truncated series sum c_m q^m, m = 1..order (no constant term), with
    canonical rational coefficients (ints where integral)."""

    coeffs: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def coefficient(self, m: int) -> Fraction:
        if m < 1:
            raise ValueError("coefficients start at m = 1")
        return self.coeffs[m - 1] if m <= len(self.coeffs) else Fraction(0)

    def dense(self) -> list[Fraction]:
        """Coefficient list starting at q^0."""
        return [Fraction(0)] + list(self.coeffs)

    def __call__(self, t: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = (acc + c) * t
        return acc


def _mul_trunc(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            if bj:
                out[i + j] += ai * bj
    return out


# Largest order lagrange_series accepts.  The work grows as n * order^2
# on ever longer rationals, so the order is checked before anything is
# allocated.
MAX_SERIES_ORDER = 1000


def lagrange_series(spec: ProblemSpec, order: int) -> SeriesQ:
    """Series of the branch, solved order by order from R(x(q)) = q.

    With S = sum c_i q^i, [q^m] R(S) = r_1 c_m + sum_{k>=2} r_k [q^m] S^k,
    and for k >= 2 the coefficient [q^m] S^k only involves c_1..c_{m-1}.
    A table pw[k][m] = [q^m] S^k, k = 2..min(n, order), is filled one
    column at a time alongside the coefficients,

        pw[k][m] = sum_{i=1}^{m-k+1} c_i pw[k-1][m-i]    (pw[1] = c),

    and then c_m = ([m = 1] - sum_k r_k pw[k][m]) / R'(0).  That is
    O(n order^2) rational operations, skipping the zero c_i of sparse R.
    The series comes from R(S) = q alone, never from the derived linear
    ODE, so checking it against that ODE stays an independent test.
    Requires R'(0) != 0 and 1 <= order <= MAX_SERIES_ORDER.
    """
    if order < 1:
        raise ValueError("need order >= 1")
    if order > MAX_SERIES_ORDER:
        raise ValueError(f"series order {order} exceeds the limit {MAX_SERIES_ORDER}")
    r = spec.R.coeffs
    rp0 = r[1]
    if rp0 == 0:
        raise ValueError("series inversion needs R'(0) != 0")
    top = min(spec.n, order)
    c = [Fraction(0)] * (order + 1)
    pw = [None, c] + [[Fraction(0)] * (order + 1) for _ in range(2, top + 1)]
    c[1] = Fraction(1, rp0)
    nonzero = [1]  # the indices i with c_i != 0, ascending
    for m in range(2, order + 1):
        rest = Fraction(0)
        for k in range(2, min(top, m) + 1):
            prev = pw[k - 1]
            acc = Fraction(0)
            for i in nonzero:
                if i > m - k + 1:
                    break
                p = prev[m - i]
                if p:
                    acc += c[i] * p
            pw[k][m] = acc
            if r[k] and acc:
                rest += r[k] * acc
        c[m] = -rest / rp0
        if c[m]:
            nonzero.append(m)
    return SeriesQ(tuple(_rat(a) for a in c[1:]))


def series_ode_residual(ode: LinearODE, series: SeriesQ) -> list[Fraction]:
    """Apply a linear ODE to a truncated branch series, exactly.

    Returns the residual coefficients through the provable order
    M - max deg(b) - order; with a series that truly satisfies the
    equation every returned coefficient is zero.
    """
    m = series.order
    degs = [p.degree for p in ode.vector() if p]
    keep = m - max(degs, default=0) - ode.order
    if keep < 0:
        raise ValueError("series too short to test this equation")
    dense = series.dense()
    residual = [Fraction(0)] * (keep + 1)

    def add(poly: UPoly, term: list[Fraction]):
        for i, c in enumerate(poly.coeffs):
            for j, t in enumerate(term):
                if i + j > keep:
                    break
                residual[i + j] += c * t

    deriv = dense
    add(ode.b[0], deriv)
    for k in range(1, ode.order + 1):
        deriv = [i * deriv[i] for i in range(1, len(deriv))]
        add(ode.b[k], deriv)
    add(ode.inhomogeneous, [Fraction(1)])
    return residual


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


def _with_prefactor(coeffs: list[Fraction], p: Fraction, order: int) -> SeriesQ:
    """Multiply a dense series by q/p and return it as a branch series."""
    dense = [Fraction(0)] * (order + 1)
    for i, c in enumerate(coeffs[:order]):
        dense[i + 1] = c / p
    return SeriesQ(tuple(dense[1:]))


def _quartic_argument(p: Fraction) -> Fraction:
    return Fraction(-256, 27) / p**4


def quartic_series_3f2(p, order: int) -> SeriesQ:
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


def quartic_series_2f1_product(p, order: int) -> SeriesQ:
    """Branch series of x^4 + p x = q from the product of two 2F1 factors."""
    p = Fraction(p)
    z = _quartic_argument(p)
    f1 = pfq_series([Fraction(-1, 24), Fraction(5, 24)], [Fraction(2, 3)], z, 3, order)
    f2 = pfq_series([Fraction(7, 24), Fraction(13, 24)], [Fraction(4, 3)], z, 3, order)
    return _with_prefactor(_mul_trunc(f1, f2, order), p, order)
