"""Exact signs at floats, in ``Fraction``s: the test-side references for
the certificates of ``tracking._next_to_root`` and ``tracking._roots``,
which run on integers."""
import math
from fractions import Fraction

from rootode.algebra import UPoly

from q_division import qexact_div, rational_euclid


def exactly_bracketed(r: UPoly, q: float, x: float) -> bool:
    """True when R - q, in rationals, is 0 at the float x or differs in sign
    between x and one of its float neighbours."""
    def sign(t):
        v = r(Fraction(t)) - Fraction(q)
        return (v > 0) - (v < 0)

    s = sign(x)
    return s == 0 or any(sign(math.nextafter(x, u)) == -s for u in (-math.inf, math.inf))


def nearest_to_a_root(p: UPoly, x: float) -> bool:
    """True when the square-free part of p, in rationals, changes sign (or
    is 0) between the two points halfway from x to its float neighbours: a
    root of p lies within half an ulp of x, so x is the float nearest it."""
    sf = qexact_div(p, rational_euclid(p, p.derivative()))
    below, above = (sf((Fraction(x) + Fraction(math.nextafter(x, u))) / 2)
                    for u in (-math.inf, math.inf))
    return below * above <= 0
