"""Exact polynomial arithmetic over the rationals.

Two immutable value types:

``UPoly``
    dense univariate polynomial with ``fractions.Fraction`` coefficients and
    a variable tag (``"x"`` or ``"q"``).  Operations on mismatched tags raise.
``BiPoly``
    polynomial in x whose coefficients are ``UPoly`` in q; used for objects
    such as ``R(x) - q`` that genuinely live in both variables.

On top of these sit a gcd, a fraction-free (Bareiss) determinant over any
integral domain, the Sylvester resultant, and the discriminant of R(x) - q.
The discriminant is a characteristic polynomial: with n = deg R and M the
matrix of multiplication by R on Q[x]/(R'), whose eigenvalues are the
critical values R(xi) at the roots xi of R',

    D(q) = (-1)^(n(n-1)/2 + n-1) n^n lc(R)^(n-1) det(qI - M).

This is the classical convention D = (-1)^(n(n-1)/2) Res_x(P, P') / lc(P)
for P = R(x) - q, since Res(P, R') = (n lc(R))^n prod_xi (R(xi) - q).
Floats never enter the representation; evaluation accepts floats and
degrades to float arithmetic explicitly.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NonExactDivisionError, VariableMismatchError

VARS = ("x", "q")


def _rat(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("float coefficients are not allowed; use Fraction")
    return Fraction(value)


class UPoly:
    """Dense univariate polynomial, coefficients ascending by degree."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Iterable = ()):
        if var not in VARS:
            raise ValueError(f"unknown variable tag {var!r}, expected one of {VARS}")
        cs = [_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *args):
        raise AttributeError("UPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, var: str) -> "UPoly":
        return cls(var, ())

    @classmethod
    def one(cls, var: str) -> "UPoly":
        return cls(var, (1,))

    @classmethod
    def const(cls, var: str, c) -> "UPoly":
        return cls(var, (c,))

    @classmethod
    def monomial(cls, var: str, k: int, c=1) -> "UPoly":
        if k < 0:
            raise ValueError("negative exponent")
        return cls(var, (0,) * k + (c,))

    # -- basic queries ------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def trailing(self) -> Fraction:
        """Lowest-order nonzero coefficient."""
        for c in self.coeffs:
            if c != 0:
                return c
        raise ValueError("zero polynomial has no trailing coefficient")

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def is_const(self) -> bool:
        return len(self.coeffs) <= 1

    def __eq__(self, other) -> bool:
        if isinstance(other, UPoly):
            return self.var == other.var and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UPoly.const(self.var, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.var, self.coeffs))

    # -- evaluation ---------------------------------------------------

    def __call__(self, t):
        """Horner evaluation; exact for Fraction/int, float for float."""
        acc = Fraction(0) if not isinstance(t, float) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def float_coeffs(self) -> tuple:
        return tuple(float(c) for c in self.coeffs)

    # -- ring operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, UPoly):
            if other.var != self.var:
                raise VariableMismatchError(
                    f"cannot mix polynomials in {self.var!r} and {other.var!r}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return UPoly.const(self.var, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UPoly(self.var, out)

    __radd__ = __add__

    def __neg__(self):
        return UPoly(self.var, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self or not o:
            return UPoly.zero(self.var)
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return UPoly(self.var, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = UPoly.one(self.var)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                raise ZeroDivisionError("division by zero scalar")
            return UPoly(self.var, tuple(a / c for a in self.coeffs))
        return NotImplemented

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dv = o.coeffs
        dn = len(dv) - 1
        lead = dv[-1]
        if len(rem) - 1 < dn:
            return UPoly.zero(self.var), self
        quo = [Fraction(0)] * (len(rem) - dn)
        for k in range(len(rem) - 1, dn - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            f = c / lead
            quo[k - dn] = f
            for i in range(dn + 1):
                rem[k - dn + i] -= f * dv[i]
        return UPoly(self.var, quo), UPoly(self.var, rem[:dn])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other: "UPoly") -> "UPoly":
        """Divide by ``other`` asserting zero remainder."""
        quo, rem = divmod(self, other)
        if rem:
            raise NonExactDivisionError(
                f"{self} is not divisible by {other}"
            )
        return quo

    # -- calculus and structure ---------------------------------------

    def derivative(self) -> "UPoly":
        return UPoly(self.var, tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def monic(self) -> "UPoly":
        if not self:
            raise ValueError("cannot normalize the zero polynomial")
        return self / self.lc

    def compose(self, inner: "UPoly") -> "UPoly":
        """Substitute ``inner`` for the variable; result is in ``inner.var``."""
        acc = UPoly.zero(inner.var)
        for c in reversed(self.coeffs):
            acc = acc * inner + UPoly.const(inner.var, c)
        return acc

    def retag(self, var: str) -> "UPoly":
        """Same coefficients under a different variable tag."""
        return UPoly(var, self.coeffs)

    def __repr__(self):
        return f"UPoly({self.var!r}, {list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                pw = self.var if k == 1 else f"{self.var}^{k}"
                body = mag + pw
            sign = "-" if c < 0 else ("+" if parts else "")
            parts.append(sign + body)
        return "".join(parts)


def compose_q(f: UPoly, r: UPoly) -> UPoly:
    """Evaluate a polynomial in q at q = r(x), yielding a polynomial in x."""
    if f.var != "q":
        raise VariableMismatchError("outer polynomial must be in q")
    if r.var != "x":
        raise VariableMismatchError("inner polynomial must be in x")
    return f.compose(r)


def poly_gcd(a: UPoly, b: UPoly) -> UPoly:
    """Monic greatest common divisor by Euclid's algorithm."""
    if a.var != b.var:
        raise VariableMismatchError("gcd of polynomials in different variables")
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    while b:
        a, b = b, a % b
        if b:
            b = b.monic()
    return a.monic()


class BiPoly:
    """Polynomial in x with UPoly-in-q coefficients, dense in the x power."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[UPoly] = ()):
        cs = []
        for c in coeffs:
            if isinstance(c, (int, Fraction)):
                c = UPoly.const("q", c)
            if not isinstance(c, UPoly) or c.var != "q":
                raise VariableMismatchError("BiPoly coefficients must be UPoly in q")
            cs.append(c)
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *args):
        raise AttributeError("BiPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls(())

    @classmethod
    def one(cls) -> "BiPoly":
        return cls((UPoly.one("q"),))

    @classmethod
    def const(cls, c) -> "BiPoly":
        return cls((UPoly.const("q", c),))

    @classmethod
    def from_x(cls, p: UPoly) -> "BiPoly":
        if p.var != "x":
            raise VariableMismatchError("expected a polynomial in x")
        return cls(tuple(UPoly.const("q", c) for c in p.coeffs))

    @classmethod
    def from_q(cls, p: UPoly) -> "BiPoly":
        if p.var != "q":
            raise VariableMismatchError("expected a polynomial in q")
        return cls((p,))

    # -- queries ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def deg_x(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead_x(self) -> UPoly:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int) -> UPoly:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else UPoly.zero("q")

    def __eq__(self, other) -> bool:
        if isinstance(other, BiPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == BiPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, BiPoly):
            return other
        if isinstance(other, UPoly):
            return BiPoly.from_q(other) if other.var == "q" else BiPoly.from_x(other)
        if isinstance(other, (int, Fraction)):
            return BiPoly.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return BiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self or not o:
            return BiPoly.zero()
        out = [UPoly.zero("q")] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return BiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = BiPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def divmod_x(self, other: "BiPoly"):
        """Division in x; the divisor must be monic in x."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        if not (other.lead_x.is_const() and other.lead_x.coefficient(0) == 1):
            raise ValueError("divisor must be monic in x")
        rem = list(self.coeffs)
        dn = other.deg_x
        quo = [UPoly.zero("q")] * max(len(rem) - dn, 0)
        for k in range(len(rem) - 1, dn - 1, -1):
            c = rem[k]
            if not c:
                continue
            quo[k - dn] = c
            for i, d in enumerate(other.coeffs):
                rem[k - dn + i] = rem[k - dn + i] - c * d
        return BiPoly(quo), BiPoly(rem[:dn])

    # -- calculus and evaluation --------------------------------------

    def derivative_x(self) -> "BiPoly":
        return BiPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def derivative_q(self) -> "BiPoly":
        return BiPoly(tuple(c.derivative() for c in self.coeffs))

    def __repr__(self):
        return f"BiPoly({[str(c) for c in self.coeffs]!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            cs = str(c)
            if k == 0:
                parts.append(f"({cs})")
            else:
                pw = "x" if k == 1 else f"x^{k}"
                parts.append(f"({cs})*{pw}")
        return " + ".join(parts)


# -- resultants and discriminants -------------------------------------


def _exact_quot(a, b):
    if isinstance(a, Fraction):
        return a / b
    return a.exact_div(b)


def sylvester_matrix(a: Sequence, b: Sequence, zero):
    """Sylvester matrix of two coefficient sequences (ascending order)."""
    m, n = len(a) - 1, len(b) - 1
    if m < 0 or n < 0:
        raise ValueError("resultant of the zero polynomial")
    ra, rb = list(reversed(a)), list(reversed(b))
    rows = []
    for i in range(n):
        rows.append([zero] * i + ra + [zero] * (n - 1 - i))
    for i in range(m):
        rows.append([zero] * i + rb + [zero] * (m - 1 - i))
    return rows


def bareiss_determinant(rows, one):
    """Fraction-free determinant; entries may live in any integral domain
    supporting *, -, truth testing and exact division."""
    n = len(rows)
    if n == 0:
        return one
    m = [list(r) for r in rows]
    sign = 1
    prev = None
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                t = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = t if prev is None else _exact_quot(t, prev)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def resultant_elems(a: Sequence, b: Sequence, zero, one):
    """Resultant of two coefficient sequences over any integral domain."""
    if not a or not b or not a[-1] or not b[-1]:
        raise ValueError("resultant requires nonzero leading coefficients")
    return bareiss_determinant(sylvester_matrix(a, b, zero), one)


def resultant(a: UPoly, b: UPoly) -> Fraction:
    """Resultant of two univariate polynomials in the same variable."""
    if a.var != b.var:
        raise VariableMismatchError("resultant of polynomials in different variables")
    if not a or not b:
        raise ValueError("resultant of the zero polynomial")
    out = resultant_elems(list(a.coeffs), list(b.coeffs), Fraction(0), Fraction(1))
    return Fraction(out)


def discriminant(R: UPoly) -> UPoly:
    """Discriminant in x of R(x) - q, as a polynomial in q of degree n-1.

    det(qI - M) is taken by Bareiss elimination over Q[q], with M in the
    basis 1, x, ..., x^(n-2) of Q[x]/(R'): column j holds x^j R mod R'.
    See the module docstring for the identity and its sign.
    """
    if R.var != "x":
        raise VariableMismatchError("expected a polynomial in x")
    n = R.degree
    if n < 2:
        raise ValueError("discriminant needs degree >= 2 in x")
    rp = R.derivative()
    col = R % rp
    cols = []
    for _ in range(n - 1):
        cols.append(col)
        col = (col * UPoly.monomial("x", 1)) % rp
    rows = [[UPoly("q", (-cols[j].coefficient(i), int(i == j))) for j in range(n - 1)]
            for i in range(n - 1)]
    charpoly = bareiss_determinant(rows, UPoly.one("q"))
    sign = -1 if (n * (n - 1) // 2 + n - 1) % 2 else 1
    return charpoly * (sign * Fraction(n) ** n * R.lc ** (n - 1))
