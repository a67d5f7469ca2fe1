"""Long division in Q[x] on ``UPoly``: the test-side reference for the
package's division and gcd, which run on integer lists only
(``_exact_div``, ``_monic_divmod``, ``_prem``, ``_gcd``)."""
from fractions import Fraction

from rootode.algebra import UPoly


def qdivmod(a: UPoly, b: UPoly) -> tuple[UPoly, UPoly]:
    """divmod(a, b) in Q[x] for a nonzero b, by long division."""
    rem, dv = [Fraction(c) for c in a.coeffs], b.coeffs
    quo = [Fraction(0)] * max(len(rem) - len(dv) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        f = rem[k + len(dv) - 1] / dv[-1]
        quo[k] = f
        for i, y in enumerate(dv):
            rem[k + i] -= f * y
    return UPoly(a.var, quo), UPoly(a.var, rem[:len(dv) - 1])


def qexact_div(a: UPoly, b: UPoly) -> UPoly:
    """a / b, asserting that b divides a in Q[x]."""
    quo, rem = qdivmod(a, b)
    assert not rem, f"{b} does not divide {a}"
    return quo


def qmonic(a: UPoly) -> UPoly:
    return UPoly(a.var, [Fraction(c) / a.lc for c in a.coeffs])


def rational_euclid(a: UPoly, b: UPoly) -> UPoly:
    """Monic gcd of a and b, not both zero, by Euclid's algorithm over Q."""
    while b:
        a, b = b, qdivmod(a, b)[1]
    return qmonic(a)


def r_adic_digits(f: UPoly, r: UPoly) -> list[UPoly]:
    """The digits c_k, deg c_k < deg r, of f = sum_k c_k r^k."""
    digits = []
    while f:
        f, c = qdivmod(f, r)
        digits.append(c)
    return digits
