"""Closed-form root oracles.

Radical and trigonometric solution formulas for quadratics, cubics and
quartics; the w-form of x^4 + p x = q takes its auxiliary sextic's root
from the cubic formula.  These provide values independent of the
differential equations, so agreement between the two routes is
meaningful evidence of correctness.  Each runs on an exact power-of-two
rescaling of its variable (``_rescaled``) and takes a small root as a
quotient by the large one (c / t of ``_quadratic``, the cubic's -p / (3c)),
so nothing overflows or cancels (Kahan 1986; Flocke, ACM TOMS 41, 2015);
what the floats cannot resolve raises DomainError.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction

from ..algebra import UPoly, _horner
from ..errors import DomainError

__all__ = [
    "babylonian_root",
    "cardano_root",
    "vieta_trig_root",
    "vieta_hyp_root",
    "quartic_real_roots",
    "quartic_w_root",
    "depress_quartic",
    "depressed_cubic_real_roots",
]


def _cbrt(t: float) -> float:
    """Real cube root."""
    return math.copysign(abs(t) ** (1.0 / 3.0), t)


def _polish(coeffs: list[float], x: float, iters: int = 3) -> float:
    """A few Newton steps on the polynomial with float coefficients coeffs
    to scrub float noise off a closed-form root; they stop early where the
    value is 0 or not finite, or the derivative is 0."""
    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]
    for _ in range(iters):
        f = _horner(coeffs, x)
        if f == 0.0 or not math.isfinite(f) or (fp := _horner(dcoeffs, x)) == 0.0:
            break
        x -= f / fp
    return x


def _rescaled(*coeffs: float, floor: bool = True) -> tuple[int, list[float]]:
    """The exact rescaling y = 2^k z of a monic polynomial in y whose other
    coefficients are coeffs, from the next-to-leading one down: the one of
    weight w (on y^(n-w)) becomes a / 2^(w k).  k is the largest
    frexp(a)[1] // w over the nonzero a, so every scaled coefficient lies
    below 2^(w-1) in size and one at 1/2 or above, and every root z below
    4.  Coefficients that are not finite raise DomainError, and with floor
    so does a nonzero one that scales below the normal range and loses digits."""
    if not all(map(math.isfinite, coeffs)):
        raise DomainError("needs finite coefficients")
    k = max((math.frexp(a)[1] // w for w, a in enumerate(coeffs, 1) if a), default=0)
    scaled = [math.ldexp(a, -w * k) for w, a in enumerate(coeffs, 1)]
    if floor and any(a and abs(b) < sys.float_info.min for a, b in zip(coeffs, scaled)):
        raise DomainError("the coefficients span more than the float range")
    return k, scaled


def _quadratic(b: float, c: float) -> list[float]:
    """The real roots of t^2 + b t + c, [] where b^2 < 4c: first
    t = -(b + sign(b) sqrt(b^2 - 4c)) / 2, the larger in size, then c / t,
    so that neither cancels."""
    disc = b * b - 4.0 * c
    if disc < 0:
        return []
    t = -(b + math.copysign(math.sqrt(disc), b)) / 2.0
    return [t, c / t] if t else [0.0, 0.0]


def babylonian_root(p: float, q: float) -> float:
    """Branch root of x^2 + p x = q: 2q / (p + sign(p) sqrt(p^2 + 4q)), the
    root c / t of ``_quadratic`` on the rescaling x = 2^k y."""
    if p == 0:
        raise DomainError("needs p != 0")
    k, (b, c) = _rescaled(p, -q, floor=False)
    roots = _quadratic(b, c)
    if not roots:
        raise DomainError("no real root: p^2 + 4q < 0")
    # -q / t, with -q scaled by 2^-k, underflows only where the root does; t
    # is exact to a rounding even where c below the normal range loses digits
    return math.ldexp(-q, -k) / roots[0]


def cardano_root(p: float, q: float) -> float:
    """Branch root of x^3 + p x = q by the radical formula, the one real
    root of ``depressed_cubic_real_roots``.

    Real only while q^2/4 + p^3/27 > 0; otherwise (p < 0, all three
    roots real) use the trigonometric form instead.
    """
    roots = depressed_cubic_real_roots(p, -q)
    if len(roots) > 1:
        raise DomainError("three real roots; use vieta_trig")
    return roots[0]


def vieta_trig_root(p: float, q: float) -> float:
    """Branch root of x^3 + p x = q, p < 0, by the sine triplication identity.

    Valid for |q| < sqrt(-4 p^3 / 27), the window between the two branch
    points where all three roots are real.
    """
    if p >= 0:
        raise DomainError("needs p < 0")
    k, (_, p, q) = _rescaled(0.0, p, q)
    s = math.sqrt(-p)
    num, den = 1.5 * math.sqrt(3.0) * q, p * s
    if abs(num) > -den:
        raise DomainError("outside the all-real-roots window")
    x = 2.0 * s / math.sqrt(3.0) * math.sin(math.asin(num / den) / 3.0)
    return math.ldexp(_polish([-q, p, 0.0, 1.0], x), k)


def vieta_hyp_root(p: float, q: float) -> float:
    """Branch root of x^3 + p x = q, p > 0, by the sinh triplication identity."""
    if p <= 0:
        raise DomainError("needs p > 0")
    k, (_, p, q) = _rescaled(0.0, p, q)
    s = math.sqrt(p)
    num, den = 1.5 * math.sqrt(3.0) * q, p * s
    if not abs(num) < den * 2.0**1020:  # so num / den is finite
        raise DomainError("p^(3/2) underflows against q")
    x = 2.0 * s / math.sqrt(3.0) * math.sinh(math.asinh(num / den) / 3.0)
    return math.ldexp(_polish([-q, p, 0.0, 1.0], x), k)


def depressed_cubic_real_roots(p: float, q: float) -> list[float]:
    """All real roots of t^3 + p t + q = 0, ascending, on the rescaling
    t = 2^k s: the one real root is c - p / (3c), c = cbrt(-q/2 - sign(q)
    sqrt(q^2/4 + p^3/27)); three come from the trigonometric formula."""
    k, (_, p, q) = _rescaled(0.0, p, q)
    rad = q * q / 4.0 + p**3 / 27.0
    if rad > 0:
        c = _cbrt(-q / 2.0 - math.copysign(math.sqrt(rad), q))
        roots = [c - p / (3.0 * c)]
    elif p == 0:  # and so q == 0
        roots = [0.0]
    else:
        m = 2.0 * math.sqrt(-p / 3.0)
        theta = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * m)))) / 3.0
        roots = sorted(m * math.cos(theta - 2.0 * math.pi * j / 3.0) for j in range(3))
    return [math.ldexp(_polish([q, p, 0.0, 1.0], r), k) for r in roots]


def quartic_real_roots(c: float, d: float, e: float) -> list[float]:
    """The distinct real roots of y^4 + c y^2 + d y + e = 0, ascending, on
    the rescaling y = 2^k z, each polished on the quartic.

    For d = 0 they are +-sqrt(z) at the roots z >= 0 of z^2 + c z + e.
    Otherwise the largest root v of Ferrari's resolvent v^3 + 2c v^2 +
    (c^2 - 4e) v - d^2, positive as the resolvent is -d^2 at 0, is polished
    on those coefficients and splits the quartic, with u = sqrt(v), into
    y^2 + u y + a and y^2 - u y + b, a, b = (c + v -+ d/u) / 2; the one
    smaller in size is taken as e over the other (a b = e), not cancelled.
    """
    k, (_, c, d, e) = _rescaled(0.0, c, d, e)
    if d == 0:
        roots = [s * math.sqrt(z) for z in _quadratic(c, e) if z >= 0 for s in (-1.0, 1.0)]
    else:
        b2, b1 = 2.0 * c, c * c - 4.0 * e
        ts = depressed_cubic_real_roots(b1 - b2 * b2 / 3.0,
                                        -d * d - b1 * b2 / 3.0 + 2.0 * b2**3 / 27.0)
        v = _polish([-d * d, b1, b2, 1.0], max(ts) - b2 / 3.0)
        if not v > 0:
            raise DomainError("the resolvent's positive root is lost to rounding")
        u = math.sqrt(v)
        a, b = (c + v - d / u) / 2.0, (c + v + d / u) / 2.0
        a, b = (e / b, b) if abs(a) < abs(b) else (a, e / a)
        roots = _quadratic(u, a) + _quadratic(-u, b)
    return sorted({math.ldexp(_polish([e, d, c, 0.0, 1.0], y), k) for y in roots})


def depress_quartic(r: UPoly) -> tuple[float, float, float, float]:
    """Shift a monic quartic R so the cubic term vanishes.

    Returns (s, c, d, e0) with R(y + s) = y^4 + c y^2 + d y + e0; the
    branch equation R(x) = q becomes y^4 + c y^2 + d y + (e0 - q) = 0.
    """
    if r.var != "x" or r.degree != 4 or r.lc != 1:
        raise ValueError("expected a monic quartic in x")
    s = Fraction(-r.coefficient(3), 4)
    shifted = r.compose(UPoly("x", (s, 1)))
    assert shifted.coefficient(3) == 0
    return (
        float(s),
        float(shifted.coefficient(2)),
        float(shifted.coefficient(1)),
        float(shifted.coefficient(0)),
    )


def quartic_w_root(p: float, q: float) -> float:
    """Branch root of x^4 + p x = q via the auxiliary sextic in w.

    u = 1/w^2 on the real branch of -p^2 w^6 + 4 q w^4 + 1 = 0 is the one
    positive root of u^3 + 4 q u - p^2 = 0, from the cubic formula; then
    x = (sqrt(2 p w^3 - 1) - 1) / (2 w).  All of it runs on the exact
    rescaling x = 2^k y, y^4 + pk y = qk, with 1/2 <= |pk| < 4.
    """
    if p == 0 or not math.isfinite(p):
        raise DomainError("needs a finite p != 0")
    k = math.frexp(p)[1] // 3
    if q and not -1021 <= math.frexp(q)[1] - 4 * k <= 338:  # qk normal, (4 qk)^3 finite
        raise DomainError("q lies beyond the float range of the w-form")
    pk, qk = math.ldexp(p, -3 * k), math.ldexp(q, -4 * k)
    u = max(depressed_cubic_real_roots(4.0 * qk, -pk * pk))
    if not u > 0:
        raise DomainError("w-branch left the real domain")
    w = math.copysign(1.0 / math.sqrt(u), p)
    rad = 2.0 * pk * w**3 - 1.0
    if rad < 0:
        raise DomainError("x-formula radicand went negative")
    y = (math.sqrt(rad) - 1.0) / (2.0 * w)
    return math.ldexp(_polish([-qk, pk, 0.0, 0.0, 1.0], y), k)
