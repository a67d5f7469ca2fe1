"""Exact polynomial arithmetic over the rationals.

One immutable value type, ``UPoly``: a dense univariate polynomial with
canonical rational coefficients and a variable tag (``"x"`` or ``"q"``).
Operations on mismatched tags raise.  A polynomial in x over Q[q], such as
the numerator W(x, q) of the first-order equation, is a tuple of ``UPoly``
in q, entry j the coefficient of x^j.

A canonical rational is an ``int`` when the value is integral and a reduced
``fractions.Fraction`` otherwise, so integral polynomials are computed on
Python ints.  ``int / int`` is a float, which ``UPoly`` refuses: every
division of coefficients goes through ``Fraction`` (or ``//`` when it is
exact).

Beside it sit helpers on ascending lists of ints (product, composition
by Horner's rule, sum, exact and monic division over Z, and ``_gcd``, the
gcd behind
``derive._normalize_vector``: 1 certified by Euclid modulo a small prime,
else primitive pseudo-remainders), on which the exact core runs, and the
discriminant of R(x) - q.  With n = deg R and m = n-1, the discriminant is
the polynomial whose roots are the critical values R(xi) at the roots xi
of R',

    D(q) = c prod_xi (q - R(xi)),    c = (-1)^(n(n-1)/2 + m) n^n lc(R)^m.

This is the classical convention D = (-1)^(n(n-1)/2) Res_x(P, P') / lc(P)
for P = R(x) - q, since Res(P, R') = (n lc(R))^n prod_xi (R(xi) - q).

D, and U and W in ``rootode.derive``, are computed in one integer frame.
With R_Z = d R over Z (d the lcm of R's denominators), r = lc(R_Z) and
L = n r, the substitution y = L x makes R and R' monic over Z:

    H(y) = (L^n / r) R_Z(y/L) = sum_k r_k n^(n-k) r^(n-k-1) y^k,  H(Lx) = sigma R(x),
    G(y) = L^(n-2) R_Z'(y/L) = sum_k k r_k L^(n-k-1) y^(k-1),    G(Lx) = tau R'(x),

with sigma = n^n r^m d and tau = L^(n-2) d.  The roots eta = L xi of G
give chi(t) = prod_eta (t - H(eta)) = prod_xi (t - sigma R(xi)), monic
over Z and computed from power sums of its roots with no matrix, and
D(q) = c sigma^(-m) chi(sigma q).  Every polynomial division in the frame
is by the monic G or G^2, and each coefficient is mapped back as one
reduced rational.
Floats never enter the representation; evaluation accepts floats and
degrades to float arithmetic explicitly.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DomainError, NonExactDivisionError, VariableMismatchError

__all__ = ["UPoly", "compose_q", "discriminant"]

VARS = ("x", "q")

# The largest degree of R that ``discriminant`` and ``ProblemSpec`` accept,
# and of R or a weight that the CLI parses.  derive-linear and series, the
# slowest verbs, take about 1.5 s on a dense integer R of degree 12 and
# 3.3-4.4 s at degree 13 (medians of five CLI runs 4.0 s and 3.6 s) on a
# 2-vCPU x86-64 virtual machine whose speed drifts by a third from minute
# to minute (Python 3.11.7).  At degree 13 what remains is mostly
# ``derive._kernel`` (3.6 of 4.2 s in-process, the tower 0.5 s); the gcd of
# the normal form is settled modulo a prime in milliseconds.
MAX_DEGREE = 13


def _rat(value):
    """The canonical rational of ``value``: an int when it is integral,
    else a reduced Fraction.  Floats are refused."""
    cls = type(value)
    if cls is int:
        return value
    if cls is not Fraction:
        if isinstance(value, float):
            raise TypeError("float coefficients are not allowed; use Fraction")
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _ratio(num: int, den: int):
    """The canonical rational num / den of ints, den != 0, with one gcd at most."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def _horner(coeffs: Sequence[float], t: float) -> float:
    """sum coeffs[k] t^k by Horner's rule: the float evaluator of single
    polynomials in the numeric layer, fed with ``UPoly.float_coeffs()``.
    ``quadrature._integrand`` runs the same recurrence inline, from the
    same 0.0, on its 2-3 polynomials: ``quad`` calls it once per point
    (twice per node, once at t = 0), where a call per polynomial cost more
    than the arithmetic.
    Private, so tracers that wrap every public function
    (perfbench/spans.py) leave it alone."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


class UPoly:
    """Dense univariate polynomial, coefficients ascending by degree.

    Each coefficient is a canonical rational (see ``_rat``): an int when
    integral, a reduced Fraction otherwise, so a result is an int exactly
    where its value is integral.  Divide a coefficient through Fraction,
    never with ``/`` on two ints.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Iterable = ()):
        if var not in VARS:
            raise ValueError(f"unknown variable tag {var!r}, expected one of {VARS}")
        cs = [c if type(c) is int else _rat(c) for c in coeffs]
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
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

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
        """The coefficients as floats; DomainError if one is beyond their range."""
        try:
            return tuple(float(c) for c in self.coeffs)
        except OverflowError:
            raise DomainError("an exact coefficient lies beyond the float range"
                              " (magnitude above about 1.8e308)") from None

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

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return UPoly(self.var, _mul(self.coeffs, o.coeffs))

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

    # -- calculus and structure ---------------------------------------

    def derivative(self) -> "UPoly":
        return UPoly(self.var, tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def compose(self, inner: "UPoly") -> "UPoly":
        """Substitute ``inner`` for the variable; result is in ``inner.var``.
        ``_compose`` on the coefficient lists, canonicalized once."""
        return UPoly(inner.var, _compose(self.coeffs, inner.coeffs))

    def __repr__(self):
        return f"UPoly({self.var!r}, {list(self.coeffs)!r})"

    def __str__(self):
        return _written(self, str, "*", "^{}")


def _written(p: UPoly, number, mark: str, caret: str) -> str:
    """p's nonzero terms in descending powers, "0" if there are none; the
    walk behind ``str`` and ``render.poly_latex``.  Each term is its sign
    ("+" omitted on the first), then a constant's magnitude a as str(a),
    else number(a) + mark (left out when a = 1) before the variable, which
    carries caret.format(k) past the first power."""
    parts = []
    for k in range(p.degree, -1, -1):
        if c := p.coeffs[k]:
            a = abs(c)
            if k == 0:
                term = str(a)
            else:
                power = p.var if k == 1 else p.var + caret.format(k)
                term = power if a == 1 else number(a) + mark + power
            parts.append(("-" if c < 0 else "+" if parts else "") + term)
    return "".join(parts) or "0"


def compose_q(f: UPoly, r: UPoly) -> UPoly:
    """Evaluate a polynomial in q at q = r(x), yielding a polynomial in x."""
    if f.var != "q":
        raise VariableMismatchError("outer polynomial must be in q")
    if r.var != "x":
        raise VariableMismatchError("inner polynomial must be in x")
    return f.compose(r)


def _integer_coeffs(coeffs: Sequence) -> tuple[int, list[int]]:
    """(den, ints): den the lcm of the denominators of the rationals
    ``coeffs``, and ints their multiples by den."""
    den = lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _primitive(cs: list[int]) -> list[int]:
    """A nonzero integer list divided by its content, the gcd of its entries."""
    g = gcd(*cs)
    return [c // g for c in cs] if g != 1 else cs


def _prem(a: list[int], b: list[int]) -> list[int]:
    """A pseudo-remainder over Z: a nonzero integer multiple of a mod b,
    with trailing zeros trimmed; deg a >= deg b >= 1.  Each step cancels
    the top term c x^k of r as (lc(b)/g) r - (c/g) x^(k - deg b) b, with
    g = gcd(c, lc(b)), which keeps the multipliers small."""
    r = list(a)
    dn = len(b) - 1
    lead = b[-1]
    for k in range(len(r) - 1, dn - 1, -1):
        c = r.pop()
        if c:
            g = gcd(c, lead)
            scale, c = lead // g, c // g
            r = [scale * e for e in r]
            for i in range(dn):
                r[k - dn + i] -= c * b[i]
    while r and not r[-1]:
        r.pop()
    return r


# The prime of the coprimality certificate in ``_gcd``: below 2^15, so a
# residue and a product of two fit in one 30-bit CPython digit.
_P = 32749


def _coprime_mod_p(a: list[int], b: list[int]) -> bool:
    """Whether Euclid's remainder sequence modulo _P of integer lists a, b,
    deg a >= deg b >= 1 and both leads nonzero modulo _P, ends at a nonzero
    constant."""
    p = _P
    x, y = [c % p for c in a], [c % p for c in b]
    while len(y) > 1:
        inv, dn = pow(y[-1], -1, p), len(y) - 1
        for k in range(len(x) - 1, dn - 1, -1):
            c = x.pop() * inv % p
            if c:
                x[k - dn:k] = [(u - c * v) % p for u, v in zip(x[k - dn:k], y)]
        while x and not x[-1]:
            x.pop()
        if not x:
            return False
        x, y = y, x
    return True


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Gcd of nonzero integer lists, primitive with a positive lead.

    Of the primitive parts x and y, when _P divides neither lead, the gcd
    over Z keeps its degree modulo _P (its lead divides both), so a
    remainder sequence modulo _P that ends at a nonzero constant proves it
    is 1 (Brown 1971).  Otherwise it is computed by primitive
    pseudo-remainders over Z (Collins): the content is removed at every
    step."""
    x, y = _primitive(a), _primitive(b)
    if len(x) < len(y):
        x, y = y, x
    if len(y) > 1 and x[-1] % _P and y[-1] % _P and _coprime_mod_p(x, y):
        return [1]
    while len(y) > 1:
        r = _prem(x, y)
        if not r:
            return y if y[-1] > 0 else [-c for c in y]
        x, y = y, _primitive(r)
    return [1]


# -- discriminants ----------------------------------------------------


def _mul(a: Sequence, b: Sequence) -> list:
    """The product of two coefficient lists a and b, ascending, by the
    schoolbook double loop over a's nonzero entries."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _compose(f: Sequence, h: Sequence) -> list:
    """f(h) for coefficient lists f and h, ascending, by Horner's rule on
    lists: the composition behind ``UPoly.compose`` and
    ``derive.factorize``."""
    acc = []
    for c in reversed(f):
        acc = _mul(acc, h) or [0]
        acc[0] += c
    return acc


def _add(a: list[int], b: list[int], c: int = 1) -> list[int]:
    """a + c b for integer lists, trailing zeros trimmed."""
    n = min(len(a), len(b))
    out = [x + c * y for x, y in zip(a, b)] + (a[n:] if len(a) > n else [c * y for y in b[n:]])
    while out and not out[-1]:
        out.pop()
    return out


def _exact_div(a: list[int], b: list[int]) -> list[int]:
    """The quotient a / b of integer lists, b nonzero; NonExactDivisionError
    unless it lies in Z[q], which for a primitive b is b dividing a over Q
    (Gauss's lemma)."""
    rem, dn, quo = list(a), len(b) - 1, []
    for k in range(len(rem) - 1, dn - 1, -1):
        c, r = divmod(rem[k], b[-1])
        if r:
            break
        quo.append(c)
        if c:
            rem[k - dn:k] = [x - c * y for x, y in zip(rem[k - dn:k], b)]
    else:
        if not any(rem[:dn]):
            return quo[::-1]
    raise NonExactDivisionError("an integer list does not divide another over Z")


def _monic_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder over Z of a by a monic b of degree dn >= 1;
    the remainder keeps dn entries, or all of a when a is shorter."""
    rem, dn = list(a), len(b) - 1
    quo = [0] * (len(rem) - dn)
    low = [(i - dn, y) for i, y in enumerate(b[:dn]) if y]
    for k in range(len(rem) - 1, dn - 1, -1):
        c = rem[k]
        if c:
            quo[k - dn] = c
            for i, y in low:
                rem[k + i] -= c * y
    return quo, rem[:dn]


def _chi(H: list[int], G: list[int]) -> list[int]:
    """chi(t) = prod (t - H(eta)) over the roots eta of G, for integer lists
    H and monic G of degree m >= 1, by power sums (Bostan, Flajolet, Salvy,
    Schost 2006).  The Newton sums s_j of G's roots come from G's
    coefficients, the power sums of chi's roots are p_k = sum_j
    [H^k mod G]_j s_j, and Newton's identities give chi, ascending.  Each
    identity divides by k, which is exact over Z; NonExactDivisionError
    otherwise."""
    m, g = len(G) - 1, G[::-1]
    s = [m]
    for k in range(1, m):
        s.append(-k * g[k] - sum(g[i] * s[k - i] for i in range(1, k)))
    h1 = h = _monic_divmod(H, G)[1]
    p = [sum(x * y for x, y in zip(h, s))]
    for _ in range(m - 1):
        h = _monic_divmod(_mul(h, h1), G)[1]
        p.append(sum(x * y for x, y in zip(h, s)))
    c = [1]
    for k in range(1, m + 1):
        ck, r = divmod(-sum(c[i] * p[k - 1 - i] for i in range(k)), k)
        if r:
            raise NonExactDivisionError(f"Newton's identity {k} does not divide over Z")
        c.append(ck)
    return c[::-1]


def _frame(R: UPoly) -> tuple:
    """The integer frame of R (module docstring) as the tuple (D, chi, H, G,
    L, sigma, tau, c sigma^-m), chi, H and G ascending lists of ints."""
    if R.var != "x":
        raise VariableMismatchError("expected a polynomial in x")
    n = R.degree
    if n < 2:
        raise ValueError("discriminant needs degree >= 2 in x")
    if n > MAX_DEGREE:
        raise ValueError(f"degree {n} exceeds the limit {MAX_DEGREE}")
    m = n - 1
    d, rz = _integer_coeffs(R.coeffs)
    r, L = rz[n], n * rz[n]
    H = [c * n ** (n - k) * r ** (m - k) for k, c in enumerate(rz[:n])] + [1]
    G = [k * rz[k] * L ** (m - k) for k in range(1, n)] + [1]
    chi = _chi(H, G)
    sigma, tau = n**n * r**m * d, L ** (n - 2) * d
    scale = Fraction((-1) ** (n * (n - 1) // 2 + m) * n**n, sigma**m) * R.lc**m
    num, den = scale.numerator, scale.denominator
    D = UPoly("q", [_ratio(num * c * sigma**k, den) for k, c in enumerate(chi)])
    return D, chi, H, G, L, sigma, tau, scale


def discriminant(R: UPoly) -> UPoly:
    """Discriminant in x of R(x) - q, as a polynomial in q of degree n-1:
    D(q) = c sigma^(-m) chi(sigma q), with chi(t) = prod (t - H(eta)) over
    the roots eta of G taken on ints from power sums (``_chi``), in the
    integer frame y = L x of the module docstring (H(Lx) = sigma R(x))."""
    return _frame(R)[0]
