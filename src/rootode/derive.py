"""Exact derivation of the differential equations satisfied by a root branch.

Given a polynomial R with R(0) = 0, the equation R(x) = q implicitly defines
a branch x(q) with x(0) = 0.  This module derives, in exact arithmetic:

* the factorization D(R(x)) = R'(x)^2 U(x) of the discriminant of
  P = R(x) - q composed with R, together with the sign-normalized variants
  (written script_d, script_u) that are positive near the origin;
* separated-variables integrand pairs whose integrals from 0 agree along
  the branch, in radical form (weight / square root of script_u resp.
  script_d) or rational form (weight / R'U resp. weight / D);
* the first-order equation x' = W(x, q)/D(q) with deg_x W <= n-1, obtained
  by reducing R'U modulo P;
* the tower of higher derivatives x^(k) = B_k(x, q)/D(q)^k, deg_x B_k <= n-1;
* the linear differential equation of order n-1 with polynomial coefficients
  annihilating the branch (up to an inhomogeneous constant term), found as
  the kernel of the linear system that kills every power of x when the
  tower rows are substituted.

Everything here is symbolic; floating point enters only in the numeric
subpackage.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd as _int_gcd, lcm as _int_lcm

from .algebra import BiPoly, UPoly, compose_q, discriminant, poly_gcd
from .errors import DomainError, EmptyKernelError

__all__ = [
    "ProblemSpec",
    "Factorization",
    "IntegrandSpec",
    "AbelODE",
    "DerivativeTower",
    "LinearODE",
    "TableReport",
    "trinomial",
    "factorize",
    "needs_remark2",
    "build_integrands",
    "abel_ode",
    "derivative_tower",
    "linear_ode",
    "verify_trinomial_table",
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
        if self.R.coefficient(0) != 0:
            raise ValueError("R must vanish at 0")

    @property
    def n(self) -> int:
        return self.R.degree

    def rprime(self) -> UPoly:
        return self.R.derivative()

    def p_bipoly(self) -> BiPoly:
        """R(x) - q as a bivariate polynomial."""
        return BiPoly.from_x(self.R) - BiPoly.from_q(UPoly.monomial("q", 1))

    def is_monic(self) -> bool:
        return self.R.lc == 1


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
    script_u(x) still holds.
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


def factorize(spec: ProblemSpec) -> Factorization:
    """Compute and certify the factorization D(R(x)) = R'(x)^2 U(x)."""
    n = spec.n
    D = discriminant(spec.R)
    if D.degree != n - 1:
        raise RuntimeError("discriminant degree certificate failed")
    rp = spec.rprime()
    comp = compose_q(D, spec.R)
    U = comp.exact_div(rp * rp)
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
        script_d=D * sgn,
        script_u=U * sgn,
        sign_rp0=_sign(rp.coefficient(0)),
        disc_zero=disc_zero,
    )


@dataclass(frozen=True)
class IntegrandSpec:
    """A pair of integrands whose integrals from 0 agree along the branch.

    kind "theorem1" (radical): the x-side integrand is

        sign * weight(R(s)) * sqrt(surd) / sqrt(script_u(s))

    and the q-side is weight(t) * sqrt(surd) / sqrt(script_d(t)), where
    sign is sign(R'(0)), or the pointwise sign of R'(s) when the relaxed
    rule is enabled (``remark2``) for branches with R'(0) = 0.

    kind "corollary2" (rational): weight(R(s)) / (R'(s) U(s)) against
    weight(t) / D(t), with no sign factor.

    ``lhs_sq`` and ``rhs_sq`` hold the gcd-reduced squares of the radical
    integrands, so removable zero-over-zero endpoints can be evaluated.
    """

    kind: str
    problem: ProblemSpec
    weight: UPoly
    surd: int
    remark2: bool
    sign_rp0: int
    lhs_num: UPoly
    lhs_den: UPoly
    rhs_num: UPoly
    rhs_den: UPoly
    radical: bool
    lhs_sq: tuple[UPoly, UPoly] | None
    rhs_sq: tuple[UPoly, UPoly] | None


def needs_remark2(fact: Factorization, weight: UPoly) -> bool:
    """True when the weight or R' vanishes at 0, or R has a multiple root
    there: the radical pair is then only defined under the relaxed sign
    rule (remark2)."""
    return weight.coefficient(0) == 0 or fact.sign_rp0 == 0 or fact.disc_zero


def build_integrands(
    fact: Factorization,
    weight: UPoly,
    kind: str = "theorem1",
    *,
    surd: int = 1,
    remark2: bool = False,
) -> IntegrandSpec:
    """Build the separated-variables integrand pair for a polynomial weight.

    ``weight`` is a polynomial in q applied to R(s) on the x side and to t
    on the q side; ``surd`` scales it by sqrt(surd) exactly (needed for
    weights such as 5*sqrt(5)*t).  A weight vanishing at 0, or a problem
    with a multiple root at 0 of R, is only accepted under ``remark2``.
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
    if needs_remark2(fact, weight) and not remark2:
        raise DomainError(
            "weight or R' vanishes at 0; enable the relaxed sign rule (remark2)"
        )
    lhs_num = compose_q(weight, spec.R)
    if kind == "theorem1":
        lhs_den = fact.script_u
        rhs_den = fact.script_d
        lhs_sq = tuple(_normalize_vector([lhs_num * lhs_num * surd, lhs_den], anchor=1))
        rhs_sq = tuple(_normalize_vector([weight * weight * surd, rhs_den], anchor=1))
        radical = True
    else:
        lhs_den = spec.rprime() * fact.U
        rhs_den = fact.D
        lhs_sq = rhs_sq = None
        radical = False
    return IntegrandSpec(
        kind=kind,
        problem=spec,
        weight=weight,
        surd=surd,
        remark2=remark2,
        sign_rp0=fact.sign_rp0,
        lhs_num=lhs_num,
        lhs_den=lhs_den,
        rhs_num=weight,
        rhs_den=rhs_den,
        radical=radical,
        lhs_sq=lhs_sq,
        rhs_sq=rhs_sq,
    )


@dataclass(frozen=True)
class AbelODE:
    """First-order equation x' = W(x, q) / D(q) with deg_x W <= n-1.

    The coefficient of x^j is a_j = W_j / D, with W_j the q-polynomial
    coefficient of x^j in W = R'U - Q P, the certified remainder of R'U
    modulo P.
    """

    problem: ProblemSpec
    n: int
    D: UPoly
    W: BiPoly
    Q: BiPoly

    def coefficient(self, j: int) -> tuple[UPoly, UPoly]:
        """a_j = W_j / D as a reduced (numerator, denominator) pair with
        integer coefficients and a positive leading denominator
        coefficient; a zero a_j gives (0, 1)."""
        return tuple(_normalize_vector([self.W.coefficient(j), self.D], anchor=1))


def _require_monic(spec: ProblemSpec):
    if not spec.is_monic():
        raise ValueError("R must be monic for division by R(x) - q")


def abel_ode(spec: ProblemSpec) -> AbelODE:
    """Derive the degree-(n-1) polynomial ODE for the branch."""
    _require_monic(spec)
    fact = factorize(spec)
    ru = BiPoly.from_x(spec.rprime() * fact.U)
    p = spec.p_bipoly()
    quo, rem = ru.divmod_x(p)
    return AbelODE(problem=spec, n=spec.n, D=fact.D, W=rem, Q=quo)


@dataclass(frozen=True)
class DerivativeTower:
    """Numerators B_k with x^(k) = B_k(x, q) / D(q)^k along the branch.

    ``raw[k-1]`` is B_k, already reduced modulo P to x-degree at most n-1,
    so x^(k) = sum_j a_{k,j}(q) x^j with a_{k,j} = B_k[j] / D^k.  The first
    row is the first-order equation: B_1 = W and a_{1,j} = W_j / D.
    """

    problem: ProblemSpec
    D: UPoly
    raw: tuple[BiPoly, ...]

    @property
    def k_max(self) -> int:
        return len(self.raw)


def derivative_tower(spec: ProblemSpec, k_max: int | None = None) -> DerivativeTower:
    """Iterate the derivative recursion, reducing modulo P at every step.

    Differentiating x^(k) = C_k / D^k along x' = R'U / D gives

        C_{k+1} = dC_k/dx * R'U + dC_k/dq * D - k C_k D'.

    Reduction modulo P commutes with this recursion because the discarded
    terms are multiples of P (using D(R(x)) - D(q) = 0 mod P), so working
    with the reduced numerators keeps every degree bounded.
    """
    _require_monic(spec)
    n = spec.n
    if k_max is None:
        k_max = n - 1
    if k_max < 1:
        raise ValueError("need k_max >= 1")
    fact = factorize(spec)
    D, Dp = fact.D, fact.D.derivative()
    ru = BiPoly.from_x(spec.rprime() * fact.U)
    p = spec.p_bipoly()
    b = ru.divmod_x(p)[1]
    raw = [b]
    for k in range(1, k_max):
        c = b.derivative_x() * ru + b.derivative_q() * D - (k * b) * Dp
        b = c.divmod_x(p)[1]
        raw.append(b)
    return DerivativeTower(problem=spec, D=D, raw=tuple(raw))


@dataclass(frozen=True)
class LinearODE:
    """Linear equation sum_k b_k(q) x^(k) + inhomogeneous(q) = 0.

    ``b[k]`` multiplies the k-th derivative (b[0] multiplies x itself).
    Normal form: integer coefficients of overall content 1, polynomial gcd
    of all entries equal to 1, and a positive leading coefficient on the
    highest-derivative term.  ``ambiguous`` flags a kernel of dimension
    greater than one, in which case a minimal-total-degree representative
    was chosen.
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

    def normalized(self) -> "LinearODE":
        vec = _normalize_vector(self.vector(), anchor=self.order)
        return LinearODE(self.order, tuple(vec[:-1]), vec[-1], self.ambiguous)


def _normalize_vector(polys: list[UPoly], anchor: int) -> list[UPoly]:
    """Primitive part of a polynomial vector: divided by the gcd of its
    entries, scaled to integer coefficients of content 1, and signed so the
    anchor entry (or, if it is zero, the first nonzero one) has a positive
    leading coefficient.  For a pair [num, den] with anchor 1 this is
    num/den in lowest terms."""
    nonzero = [p for p in polys if p]
    if not nonzero:
        raise ValueError("cannot normalize the zero vector")
    g = reduce(poly_gcd, nonzero)
    if g.degree > 0:
        polys = [p.exact_div(g) if p else p for p in polys]
    denom = reduce(_int_lcm, (c.denominator for p in polys for c in p.coeffs), 1)
    numer = reduce(_int_gcd, (abs(c.numerator * denom // c.denominator) for p in polys for c in p.coeffs if c), 0)
    scale = Fraction(denom, numer if numer else 1)
    polys = [p * scale for p in polys]
    ref = polys[anchor] if polys[anchor] else next(p for p in polys if p)
    if ref.lc < 0:
        polys = [-p for p in polys]
    return polys


def _kernel(rows: list[list[UPoly]], ncols: int) -> tuple[list[list[UPoly]], bool]:
    """Kernel basis of a matrix over Q[q] by fraction-free Gauss-Jordan.

    Each update (piv * e - f * g) / previous pivot divides exactly, and
    every pivot entry ends equal to the last pivot d; the vector for free
    column f is then v_f = d, v_c = -m[row(c)][f] on the pivot columns.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots: dict[int, int] = {}
    prev = UPoly.one("q")
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        prow = next((i for i in range(r, nrows) if m[i][c]), None)
        if prow is None:
            continue
        m[r], m[prow] = m[prow], m[r]
        piv = m[r][c]
        for i in range(nrows):
            if i != r:
                f = m[i][c]
                m[i] = [(piv * e - f * g).exact_div(prev) for e, g in zip(m[i], m[r])]
        prev = piv
        pivots[c] = r
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [UPoly.zero("q")] * ncols
        v[f] = prev
        for c, rr in pivots.items():
            v[c] = -m[rr][f]
        basis.append(v)
    return basis, len(free) > 1


def linear_ode(spec: ProblemSpec) -> LinearODE:
    """Derive the order-(n-1) linear equation satisfied by the branch.

    Substituting x^(k) = B_k / D^k into sum_k b_k x^(k) + b_0 x + b_n and
    collecting powers of x gives n linear constraints on the n+1 unknowns
    (b_0, ..., b_{n-1}, b_n).  Writing b_k = g_k D^k for 1 <= k <= n-1,
    the constraints from x^j with j >= 2 read sum_k g_k B_k[j] = 0, a
    system over Q[q] whose kernel is computed fraction-free; b_0 and b_n
    then follow from the x^1 and x^0 constraints, and the vector is
    normalized.
    """
    n = spec.n
    tower = derivative_tower(spec, n - 1)
    B = tower.raw
    core = [[B[k - 1].coefficient(j) for k in range(1, n)] for j in range(2, n)]
    basis, ambiguous = _kernel(core, n - 1)
    if not basis:
        raise EmptyKernelError("the derivative constraints admit no annihilator")
    candidates = []
    for gamma in basis:
        b0 = -sum((g * bk.coefficient(1) for g, bk in zip(gamma, B)), UPoly.zero("q"))
        bn = -sum((g * bk.coefficient(0) for g, bk in zip(gamma, B)), UPoly.zero("q"))
        beta = [g * tower.D ** k for k, g in enumerate(gamma, 1)]
        candidates.append(_normalize_vector([b0] + beta + [bn], anchor=n - 1))
    best = min(candidates, key=lambda vs: sum(p.degree for p in vs if p))
    return LinearODE(
        order=n - 1,
        b=tuple(best[:n]),
        inhomogeneous=best[n],
        ambiguous=ambiguous,
    )


@dataclass(frozen=True)
class TableReport:
    """Comparison of a derived linear ODE against the classical table."""

    n: int
    p: Fraction
    ok: bool
    derived: LinearODE
    expected: LinearODE


def _table_entry(n: int, p: Fraction) -> LinearODE:
    q = lambda *cs: UPoly("q", cs)
    if n == 3:
        b = [q(-3), q(0, 27), q(4 * p**3, 0, 27)]
    elif n == 4:
        b = [q(-40), q(0, 688), q(0, 0, 1152), q(27 * p**4, 0, 0, 256)]
    elif n == 5:
        b = [
            q(-1155),
            q(0, 31875),
            q(0, 0, 73125),
            q(0, 0, 0, 31250),
            q(256 * p**5, 0, 0, 0, 3125),
        ]
    elif n == 6:
        b = [
            q(-57456),
            q(0, 2307456),
            q(0, 0, 6658200),
            q(0, 0, 0, 4153680),
            q(0, 0, 0, 0, 816480),
            q(3125 * p**6, 0, 0, 0, 0, 46656),
        ]
    else:
        raise ValueError("table covers n = 3..6 only")
    return LinearODE(order=n - 1, b=tuple(b), inhomogeneous=UPoly.zero("q")).normalized()


def verify_trinomial_table(n: int, p=1) -> TableReport:
    """Re-derive the linear ODE of x^n + p x = q and diff it against the
    classical closed-form table for n = 3..6."""
    p = Fraction(p)
    expected = _table_entry(n, p)
    derived = linear_ode(trinomial(n, p))
    ok = (
        derived.order == expected.order
        and derived.b == expected.b
        and derived.inhomogeneous == expected.inhomogeneous
    )
    return TableReport(n=n, p=p, ok=ok, derived=derived, expected=expected)
