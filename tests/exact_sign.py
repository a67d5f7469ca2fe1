"""The exact sign of R - q at floats, in ``Fraction``s: the test-side
reference for the certificate of ``tracking._next_to_root``, which runs on
integers."""
import math
from fractions import Fraction

from rootode.algebra import UPoly


def exactly_bracketed(r: UPoly, q: float, x: float) -> bool:
    """True when R - q, in rationals, is 0 at the float x or differs in sign
    between x and one of its float neighbours."""
    def sign(t):
        v = r(Fraction(t)) - Fraction(q)
        return (v > 0) - (v < 0)

    s = sign(x)
    return s == 0 or any(sign(math.nextafter(x, u)) == -s for u in (-math.inf, math.inf))
