"""Exact derivation of the differential equations satisfied by a root branch.

Given a polynomial R with R(0) = 0, the equation R(x) = q implicitly defines
a branch x(q) with x(0) = 0.  This module derives, in exact arithmetic:

* the factorization D(R(x)) = R'(x)^2 U(x) of the discriminant of
  P = R(x) - q composed with R, as U~ = chi(H)/G^2 on ints in the frame
  y = L x of ``rootode.algebra`` (U = c tau^2 sigma^(-m) U~(L x)), with
  the sign-normalized variants script_d, script_u, positive near 0;
* separated-variables integrand pairs whose integrals from 0 agree along
  the branch, in radical form (weight / square root of script_u resp.
  script_d) or rational form (weight / R'U resp. weight / D);
* the first-order equation x' = W(x, q)/D(q) with deg_x W <= n-1, the
  remainder of R'U modulo P, which reads W off the R-adic digits of R'U;
  in the frame these are the H-adic digits of G U~ = chi(H)/G, which
  short division by G takes on ints from chi's coefficients, the H-adic
  digits of chi(H), with neither chi(H) nor U built;
* the tower of higher derivatives x^(k) = B_k(x, q)/D(q)^k, deg_x B_k <= n-1,
  obtained by differentiating the first-order equation along W and
  reducing modulo P at every step, returned as the tuple of its rows
  B_1 = W, ..., B_{n-1};
* the linear differential equation of order n-1 with polynomial coefficients
  annihilating the branch (up to an inhomogeneous constant term), found as
  the kernel of the linear system that kills every power of x when the
  tower rows are substituted.

W and each B_k are given as tuples of exactly n ``UPoly`` in q, entry j the
coefficient of x^j (zero where there is none).  The exact core writes each
polynomial in q as a rational scalar times a primitive integer list, D =
s_D D^, W = s_W W^ (kept so by ``AbelODE``) and B_k = s_k B^_k, and runs
the tower, the kernel, the assembly of the linear equation and the normal
forms fraction-free on those lists (Bareiss, Collins); D^ is primitive, so
by Gauss's lemma every exact division by its powers stays in Z[q].  The
variable stays q: in the frame's t = sigma q the low powers of t would
carry powers of sigma and the entries grow.  ``derivative_tower`` and
``linear_ode`` take D and W from the memoized ``abel_ode``.

Everything here is symbolic; floating point enters only in the numeric
subpackage.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd as _int_gcd, lcm as _int_lcm

from ._memo import memoized
from .algebra import (MAX_DEGREE, UPoly, _add, _compose, _exact_div, _frame, _gcd,
                      _integer_coeffs, _monic_divmod, _mul, _ratio, compose_q)
from .errors import DomainError, NonExactDivisionError

__all__ = [
    "ProblemSpec",
    "Factorization",
    "IntegrandSpec",
    "AbelODE",
    "LinearODE",
    "trinomial",
    "factorize",
    "build_integrands",
    "abel_ode",
    "derivative_tower",
    "linear_ode",
]


@dataclass(frozen=True)
class ProblemSpec:
    """The equation R(x) = q near the branch through (0, 0)."""

    R: UPoly

    def __post_init__(self):
        if self.R.var != "x":
            raise ValueError("R must be a polynomial in x")
        if self.R.degree < 2:
            raise ValueError("R must have degree at least 2")
        if self.R.degree > MAX_DEGREE:
            raise ValueError(f"degree {self.R.degree} exceeds the limit {MAX_DEGREE}")
        if self.R.coefficient(0) != 0:
            raise ValueError("R must vanish at 0")

    @property
    def n(self) -> int:
        return self.R.degree

    def rprime(self) -> UPoly:
        return self.R.derivative()


def trinomial(n: int, p) -> ProblemSpec:
    """The equation x^n + p x = q."""
    if n < 2:
        raise ValueError("need n >= 2")
    p = Fraction(p)
    if p == 0:
        raise ValueError("p must be nonzero")
    return ProblemSpec(UPoly.monomial("x", n) + UPoly.monomial("x", 1, p))


@dataclass(frozen=True)
class Factorization:
    """Discriminant data for R(x) = q.

    ``D`` is the discriminant of R(x) - q in x (a polynomial in q of degree
    n-1) and ``U`` the cofactor with D(R(x)) = R'(x)^2 U(x).  The script
    variants carry the sign that makes script_d positive just after 0;
    script_u is the same multiple of U, so script_d(R(x)) = R'(x)^2
    script_u(x) still holds.  The discriminant, ``check`` and ``solve``
    read it; the equations (``abel_ode`` and the tower and linear equation
    built on it) need no U and take their frame from ``_frame`` directly.
    """

    problem: ProblemSpec
    D: UPoly
    U: UPoly
    script_d: UPoly
    script_u: UPoly
    sign_rp0: int
    disc_zero: bool


def _sign(c: Fraction) -> int:
    return (c > 0) - (c < 0)


@memoized
def factorize(spec: ProblemSpec) -> Factorization:
    """Compute and certify the factorization D(R(x)) = R'(x)^2 U(x).

    In the integer frame of ``rootode.algebra``, U~ = chi(H(y)) / G(y)^2
    on ints, chi(H) by ``_compose`` and one exact division by the monic
    G^2, and U(x) = c tau^2 sigma^(-m) U~(L x).  Memoized per process
    (``rootode._memo``)."""
    n = spec.n
    D, chi, H, G, L, sigma, tau, scale = _frame(spec.R)
    if D.degree != n - 1:
        raise RuntimeError("discriminant degree certificate failed")
    ut, rem = _monic_divmod(_compose(chi, H), _mul(G, G))
    if any(rem):
        raise NonExactDivisionError("D(R(x)) is not divisible by R'(x)^2")
    a = scale * tau * tau
    U = UPoly("x", [_ratio(a.numerator * u * L**k, a.denominator) for k, u in enumerate(ut)])
    if U.degree != (n - 1) * (n - 2):
        raise RuntimeError("cofactor degree certificate failed")
    sgn = _sign(D.trailing())
    disc_zero = D.coefficient(0) == 0
    if not disc_zero and U.coefficient(0) == 0:
        raise RuntimeError("cofactor vanished at 0 despite simple roots")
    return Factorization(
        problem=spec,
        D=D,
        U=U,
        script_d=D if sgn > 0 else -D,
        script_u=U if sgn > 0 else -U,
        sign_rp0=_sign(spec.R.coefficient(1)),
        disc_zero=disc_zero,
    )


@dataclass(frozen=True)
class IntegrandSpec:
    """A pair of integrands whose integrals from 0 agree along the branch.

    ``lhs`` (in s) and ``rhs`` (in t) are triples (num, den, sign) of
    ``UPoly``.  With sign None the integrand is num/den; otherwise it is
    sqrt(num/den) with the sign of the sign polynomial (+ where that is 0).

    kind "theorem1" (radical): num/den is the gcd-reduced square of
    weight(R(s)) sqrt(surd) / sqrt(script_u(s)) on the x side and of
    weight(t) sqrt(surd) / sqrt(script_d(t)) on the q side, ``surd`` the
    scale given to ``build_integrands``; the reduction cancels removable
    zero-over-zero points exactly.  The x-side sign is sign(R'(0))
    weight(R(s)), or weight(R(s)) R'(s) under the relaxed rule of
    Remark 2, and the q-side sign is weight(t).  ``remark2`` says that
    rule holds: for a theorem1 pair whose weight or R' vanishes at 0, or
    whose R has a multiple root there (D(0) = 0).

    kind "corollary2" (rational): (weight(R(s)), R'(s) U(s), None) against
    (weight(t), D(t), None), with ``remark2`` false.

    ``D`` is the discriminant of R(x) - q in x: its roots off the real
    line are the poles both sides come near (see ``check_identity``).
    """

    kind: str
    problem: ProblemSpec
    weight: UPoly
    remark2: bool
    lhs: tuple[UPoly, UPoly, UPoly | None]
    rhs: tuple[UPoly, UPoly, UPoly | None]
    D: UPoly


def build_integrands(
    fact: Factorization,
    weight: UPoly,
    kind: str = "theorem1",
    *,
    surd: int = 1,
) -> IntegrandSpec:
    """Build the separated-variables integrand pair for a polynomial weight.

    ``weight`` is a polynomial in q applied to R(s) on the x side and to t
    on the q side; ``surd`` scales it by sqrt(surd) exactly (needed for
    weights such as 5*sqrt(5)*t).  A theorem1 pair takes the relaxed sign
    rule (``remark2``) by itself when w(0) = 0, R'(0) = 0 or D(0) = 0, and
    this is the one place that rule is decided: it fixes the x-side sign
    polynomial of the triples (see ``IntegrandSpec``).  A theorem1 pair
    whose q-side integral diverges at 0, ord_0 D >= 2 + 2 ord_0 w, raises
    DomainError, as does a corollary2 pair with D(0) = 0.

    The q-side square w^2 / script_d is reduced first.  When that keeps
    deg D, gcd(w, D) = 1, and then gcd(w(R), U) = 1 as well: by the
    certified D(R(s)) = R'(s)^2 U(s), a common root s of w(R) and U would
    make R(s) a common root of w and D.  The x-side square is then only
    cleared of its content and sign, with no polynomial gcd; otherwise it
    is reduced in full like the q side.
    """
    if kind not in ("theorem1", "corollary2"):
        raise ValueError(f"unknown integrand kind {kind!r}")
    if weight.var != "q":
        raise ValueError("weight must be a polynomial in q")
    if not weight:
        raise ValueError("weight must be nonzero")
    if not (isinstance(surd, int) and surd >= 1):
        raise ValueError("surd must be a positive integer")
    spec = fact.problem
    if kind == "corollary2" and fact.disc_zero:
        raise DomainError("rational integrands need simple roots of R")
    wr = compose_q(weight, spec.R)
    if kind == "corollary2":
        return IntegrandSpec(kind, spec, weight, False,
                             (wr, UPoly("x", _mul(spec.rprime().coeffs, fact.U.coeffs)), None),
                             (weight, fact.D, None), fact.D)
    # the q-side integrand w/sqrt(D) behaves like t^(ord w - ord D/2) at 0
    ord_w, ord_d = (next(k for k, c in enumerate(p.coeffs) if c) for p in (weight, fact.D))
    if ord_d >= 2 + 2 * ord_w:
        raise DomainError(f"the q-side integrand w/sqrt(D) ~ t^({ord_w} - {ord_d}/2)"
                          " is not integrable at t = 0")
    remark2 = weight.coefficient(0) == 0 or fact.sign_rp0 == 0 or fact.disc_zero
    if remark2:
        sign = UPoly("x", _mul(wr.coeffs, spec.rprime().coeffs))
    else:
        sign = wr if fact.sign_rp0 > 0 else -wr
    rnum, rden = _normalize_vector(
        _primitive_pair(1, [_square(weight, surd), fact.script_d.coeffs])[1], anchor=1)
    num, den = _primitive_pair(1, [_square(wr, surd), fact.script_u.coeffs])[1]
    if len(rden) < len(fact.D.coeffs):
        num, den = _normalize_vector([num, den], anchor=1)
    elif den[-1] < 0:
        # gcd(w^2, D) = 1, so gcd(w(R)^2, U) = 1: only the sign is left
        num, den = [-c for c in num], [-c for c in den]
    return IntegrandSpec(kind, spec, weight, remark2,
                         (UPoly("x", num), UPoly("x", den), sign),
                         (UPoly("q", rnum), UPoly("q", rden), weight), fact.D)


def _square(p: UPoly, surd: int) -> list:
    """The coefficients of surd p^2."""
    return [surd * c for c in _mul(p.coeffs, p.coeffs)]


@dataclass(frozen=True)
class AbelODE:
    """First-order equation x' = W(x, q) / D(q) with deg_x W <= n-1.

    ``W`` is a tuple of exactly n ``UPoly`` in q, W[j] the coefficient of
    x^j (zero where there is none), so a_j = W[j] / D.  W is the remainder
    of R'U modulo P, read off the R-adic digits of R'U = sum_k c_k(x) R(x)^k,
    deg c_k < n: since R(x) = q modulo P, W(x, q) = sum_k c_k(x) q^k, so
    W[j] has the coefficients c_k[j].  In the integer frame the digits are
    c_k(x) = c tau sigma^(k-m) e_k(L x), e_k the H-adic digits of
    chi(H) / G = G U~ (``_short_division``).

    The equation is kept on integers, which the tower and the normal forms
    run on: D = sd dh and W[j] = sw wh[j], with sd and sw positive
    rationals, dh a primitive integer tuple in q and the wh[j] integer
    tuples in q, primitive together.  ``W`` is built on first read.
    """

    D: UPoly
    sd: Fraction
    dh: tuple[int, ...]
    sw: Fraction
    wh: tuple[tuple[int, ...], ...]

    @cached_property
    def W(self) -> tuple[UPoly, ...]:
        """W[j] = sw wh[j] for j = 0..n-1, each a ``UPoly`` in q."""
        a, b = self.sw.numerator, self.sw.denominator
        return tuple(UPoly("q", [_ratio(a * c, b) for c in w]) for w in self.wh)

    @cached_property
    def a(self) -> tuple[tuple[UPoly, UPoly], ...]:
        """a_j = W[j] / D for j = 0..n-1 in lowest terms: coprime integer
        polynomials of joint content 1 with a positive leading denominator
        coefficient, unique for the quotient; a zero a_j gives (0, 1).
        Computed once, on first use: only the renderers read them."""
        num, den = (self.sw / self.sd).as_integer_ratio()
        d = [den * c for c in self.dh]
        pairs = (_normalize_vector([[num * c for c in w], d], anchor=1) for w in self.wh)
        return tuple((UPoly("q", p), UPoly("q", q)) for p, q in pairs)


def _short_division(chi: list[int], H: list[int], G: list[int]) -> list[list[int]]:
    """The digits e_0, ..., e_m of chi(H) / G in base H, for the integer
    list chi of degree m and monic integer lists H, G, deg G = deg H - 1.

    chi(H) = sum_k chi_k H^k has the constant digits chi_k, so dividing by
    the one-digit G from the top digit down (Knuth, TAOCP vol. 2, 4.3.1)
    reads r H + chi_k = G e_k + r' for k = m, ..., 0, with r = 0 at the
    top and deg r, deg r' < deg G.  Each e_k has degree below deg H, so
    the e_k are the H-adic digits of the quotient.  NonExactDivisionError
    if the last remainder is not 0."""
    r, digits = [], []
    for c in reversed(chi):
        f = _mul(r, H) or [0]
        f[0] += c
        e, r = _monic_divmod(f, G)
        digits.append(e)
    if any(r):
        raise NonExactDivisionError("D(R(x)) is not divisible by R'(x)")
    return digits[::-1]


def _primitive_pair(scale, polys) -> tuple[Fraction, list]:
    """(s, ints) with s ints = scale polys and s > 0: the rational or
    integer lists ``polys``, not all zero, over one common denominator as
    integer tuples primitive together; ``scale`` is a nonzero rational."""
    den = _int_lcm(*(c.denominator for p in polys for c in p))
    if den != 1:
        polys = [[c.numerator * (den // c.denominator) for c in p] for p in polys]
    g = _int_gcd(*(c for p in polys for c in p))
    if scale < 0:
        g = -g
    return scale * Fraction(g, den), [tuple(c // g for c in p) for p in polys]


@memoized
def abel_ode(spec: ProblemSpec) -> AbelODE:
    """Derive the degree-(n-1) polynomial ODE for the branch.

    The H-adic digits e_k of chi(H) / G come from ``_frame``'s chi, H and
    G by short division, with no composition and no cofactor U, and W[j]
    has q^k-coefficient c tau sigma^(k-m) L^j e_k[j] (see ``AbelODE``),
    whatever lc(R).  Memoized per process."""
    D, chi, H, G, L, sigma, tau, scale = _frame(spec.R)
    digits = _short_division(chi, H, G)
    wh = []
    for j in range(spec.n):
        w, c = [], L**j
        for e in digits:
            w.append(c * e[j] if j < len(e) else 0)
            c *= sigma
        while w and not w[-1]:
            w.pop()
        wh.append(w)
    sw, wh = _primitive_pair(scale * tau, wh)
    sd, (dh,) = _primitive_pair(scale, [[c * sigma**k for k, c in enumerate(chi)]])
    return AbelODE(D=D, sd=sd, dh=dh, sw=sw, wh=tuple(wh))


def derivative_tower(spec: ProblemSpec) -> tuple[tuple[UPoly, ...], ...]:
    """Numerators B_k with x^(k) = B_k(x, q) / D(q)^k along the branch.

    Row k-1 is B_k for k = 1..n-1, reduced modulo P to x-degree at most
    n-1 and laid out as ``AbelODE.W``, a tuple of exactly n ``UPoly`` in q:
    x^(k) = sum_j B_k[j] x^j / D^k.  The first row is B_1 = W.  The rows
    come from differentiating the first-order equation n-2 times, reducing
    modulo P at every step.

    Differentiating x^(k) = B_k / D^k along x' = W / D gives

        B_{k+1} = dB_k/dx * W + dB_k/dq * D - k B_k D'.

    Since W is R'U modulo P, recursing along W in place of R'U changes each
    product by a multiple of P, so the rows reduced modulo P are the same;
    the products have x-degree at most 2n-3 instead of (n-1)^2 + n-2.
    They are reduced from the top power down by the rule, true modulo P,

        x^n = q / lc(R) - sum_{1 <= i < n} (r_i / lc(R)) x^i,

    with r_i the coefficient of x^i in R.  The rows are computed on
    integers by ``_tower``, which ``linear_ode`` calls directly.
    """
    return tuple(tuple(UPoly("q", [_ratio(sk.numerator * c, sk.denominator) for c in p])
                       for p in row) for sk, row in zip(*_tower(spec)[2:]))


def _tower(spec: ProblemSpec) -> tuple[Fraction, list[int], list[Fraction], list]:
    """(s_D, D^, s, B) with D = s_D D^ and B_k = s[k-1] B[k-1], each row
    B[k-1] n integer lists in q, primitive together.  With W = s_W W^ and
    s_W / s_D = a/b in lowest terms, the recursion of ``derivative_tower``
    reads B_{k+1} = (s_k s_D / b) (a dB^_k/dx W^ + b (dB^_k/dq D^ - k B^_k D^')).
    Before each reduction of x^m, m >= n, the row is multiplied by
    r = lc(R_Z), so that r x^n = d q - sum_{1 <= i < n} r_i x^i, R_Z = d R,
    stays over Z; the row's content and sign are moved into s_k last
    (``_primitive_pair``), so s_k > 0."""
    n = spec.n
    ode = abel_ode(spec)
    sd, dh, sw, wh = ode.sd, ode.dh, ode.sw, ode.wh
    d, rz = _integer_coeffs(spec.R.coeffs)
    a, b = (sw / sd).as_integer_ratio()
    aw, bd = [[a * c for c in w] for w in wh], [b * c for c in dh]
    bdp = [b * i * c for i, c in enumerate(dh) if i]
    s, rows = [sw], [wh]
    for k in range(1, n - 1):
        row = rows[-1]
        c = [_add(_mul([i * e for i, e in enumerate(p) if i], bd), _mul(p, bdp), -k)
             for p in row] + [[] for _ in range(n - 2)]
        for i in range(1, n):
            for j, w in enumerate(aw):
                c[i - 1 + j] = _add(c[i - 1 + j], _mul(row[i], w), i)
        e = 0
        for m in range(2 * n - 3, n - 1, -1):
            if top := c[m]:
                if rz[n] != 1:
                    c[:m], e = [[rz[n] * x for x in p] for p in c[:m]], e + 1
                c[m - n] = _add(c[m - n], [0] + top, d)
                for i in range(1, n):
                    if rz[i]:
                        c[m - n + i] = _add(c[m - n + i], top, -rz[i])
        sk, row = _primitive_pair(s[-1] * sd / (b * rz[n] ** e), c[:n])
        s.append(sk)
        rows.append(row)
    return sd, dh, s, rows


@dataclass(frozen=True)
class LinearODE:
    """Linear equation sum_k b_k(q) x^(k) + inhomogeneous(q) = 0.

    ``b[k]`` multiplies the k-th derivative (b[0] multiplies x itself).
    ``linear_ode`` builds it in normal form: integer coefficients of
    overall content 1, polynomial gcd of all entries equal to 1, and a
    positive leading coefficient on the highest-derivative term, b[order],
    which is nonzero.  Its order is at most n-1, with equality unless
    ``ambiguous``: that flags a kernel of dimension greater than one, in
    which case a minimal-total-degree representative was chosen.
    """

    order: int
    b: tuple[UPoly, ...]
    inhomogeneous: UPoly
    ambiguous: bool = False

    def __post_init__(self):
        if len(self.b) != self.order + 1:
            raise ValueError("coefficient count must be order + 1")

    def vector(self) -> list[UPoly]:
        return list(self.b) + [self.inhomogeneous]


def _normalize_vector(polys: list[list[int]], anchor: int) -> list[list[int]]:
    """Primitive part of a vector of integer lists in q: divided by the gcd
    of its entries and by its integer content, and signed so the anchor
    entry (or, if it is zero, the first nonzero one) has a positive
    leading coefficient.  For a pair [num, den] with anchor 1 this is
    num/den in lowest terms."""
    nonzero = [p for p in polys if p]
    if not nonzero:
        raise ValueError("cannot normalize the zero vector")
    g = reduce(_gcd, nonzero)
    if len(g) > 1:
        # g is primitive, or the one nonzero entry: every quotient is in Z[q]
        polys = [_exact_div(p, g) for p in polys]
    content = _int_gcd(*(c for p in polys for c in p))
    ref = polys[anchor] or next(p for p in polys if p)
    if ref[-1] < 0:
        content = -content
    if content != 1:
        polys = [[c // content for c in p] for p in polys]
    return polys


def _kernel(rows: list[list[list[int]]], ncols: int,
            divisor: Sequence[int] = (1,)) -> tuple[list[list[list[int]]], bool]:
    """Kernel basis of a matrix over Z[q], entries integer lists in q, by
    fraction-free Gauss-Jordan; every entry stays in Z[q].

    Each update (piv * e - f * g) / (previous pivot * divisor) divides
    exactly and leaves in every pivot column 0 off its row; on its own row,
    pivot row rr holds d / divisor^(last - rr), d the last pivot and last
    the last pivot row.  Those columns are known and never computed; the
    vector for free column f is then v_f = d and
    v_c = -m[rr][f] divisor^(last - rr) on the pivot column c of row rr.

    With divisor 1 this is Bareiss's elimination.  A divisor is for
    matrices whose minors carry known powers of it, as the tower's
    constraints carry powers of D (the pivot of step s a multiple of
    D^(s(s+1)/2)): each step divides one more power out, so the entries
    stay that much smaller.  ``linear_ode`` passes the primitive D^, whose
    powers divide over Z wherever they divide over Q (Gauss's lemma); where
    a division is not exact, ``_exact_div`` raises rather than a wrong
    vector being returned.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots: dict[int, int] = {}
    prev = [1]
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        prow = next((i for i in range(r, nrows) if m[i][c]), None)
        if prow is None:
            continue
        m[r], m[prow] = m[prow], m[r]
        top = m[r]
        piv = top[c]
        den = _mul(prev, divisor)
        live = [j for j in range(ncols) if j != c and j not in pivots]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                for j in live:
                    row[j] = _exact_div(_add(_mul(piv, row[j]), _mul(f, top[j]), -1), den)
        prev = piv
        pivots[c] = r
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v, power = [[]] * ncols, [1]
        v[f] = prev
        for c, rr in reversed(pivots.items()):  # rows last, ..., 0
            v[c] = [-x for x in _mul(m[rr][f], power)]
            power = _mul(power, divisor)
        basis.append(v)
    return basis, len(free) > 1


@memoized
def linear_ode(spec: ProblemSpec) -> LinearODE:
    """Derive the linear equation of order at most n-1 satisfied by the branch.

    Substituting x^(k) = B_k / D^k into sum_k b_k x^(k) + b_0 x + b_n and
    collecting powers of x gives n linear constraints on the n+1 unknowns
    (b_0, ..., b_{n-1}, b_n).  Writing b_k = g_k D^k for 1 <= k <= n-1,
    the constraints from x^j with j >= 2 read sum_k g_k B_k[j] = 0.  With
    the tower on integers (``_tower``: D = s_D D^, B_k = s_k B^_k) and
    g_k = h_k / s_k, they read sum_k h_k B^_k[j] = 0, a system over Z[q]
    whose kernel is computed fraction-free with the divisor D^.  Then
    b_0 = -sum_k h_k B^_k[1], b_n = -sum_k h_k B^_k[0] and
    b_k = h_k D^^k s_D^k / s_k; one integer lcm clears the s_D^k / s_k,
    the vector is divided by D^^(n-2), which every entry carries unless
    the kernel is ambiguous, and normalized.  The order is that of the
    highest nonzero b_k: n-1 unless the kernel is ambiguous, where the
    chosen representative may be of lower order.
    """
    n = spec.n
    sd, dh, s, B = _tower(spec)
    basis, ambiguous = _kernel([[bk[j] for bk in B] for j in range(2, n)], n - 1, dh)
    powers = [[1]]
    for _ in range(n - 1):
        powers.append(_mul(powers[-1], dh))
    candidates = []
    for h in basis:
        order = max(k for k, g in enumerate(h, 1) if g)
        t = [sd**k / s[k - 1] for k in range(1, order + 1)]
        den = _int_lcm(*(x.denominator for x in t))
        b0 = bn = []
        for hk, bk in zip(h, B):
            b0, bn = _add(b0, _mul(hk, bk[1]), -den), _add(bn, _mul(hk, bk[0]), -den)
        beta = [_mul(_mul(hk, [int(tk * den)]), powers[k])
                for k, (hk, tk) in enumerate(zip(h, t), 1)]
        vec = [b0] + beta + [bn]
        try:
            vec = [_exact_div(p, powers[n - 2]) for p in vec]
        except NonExactDivisionError:
            pass  # some vectors of an ambiguous kernel lack a factor D
        candidates.append((order, _normalize_vector(vec, anchor=order)))
    order, best = min(candidates, key=lambda c: sum(len(p) - 1 for p in c[1] if p))
    b = [UPoly("q", p) for p in best]
    return LinearODE(order=order, b=tuple(b[: order + 1]), inhomogeneous=b[order + 1],
                     ambiguous=ambiguous)
