"""Closed-form root oracles.

Radical and trigonometric solution formulas for quadratics, cubics and
quartics; the w-form of x^4 + p x = q takes its auxiliary sextic's root
from the cubic formula.  These provide values independent of the
differential equations, so agreement between the two routes is
meaningful evidence of correctness.
"""
from __future__ import annotations

import math
from fractions import Fraction

from ..algebra import UPoly, _horner
from ..errors import DomainError

__all__ = [
    "babylonian_root",
    "cardano_root",
    "vieta_trig_root",
    "vieta_hyp_root",
    "ferrari_real_roots",
    "biquadratic_real_roots",
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


def babylonian_root(p: float, q: float) -> float:
    """Branch root of x^2 + p x = q: (-p + sign(p) sqrt(p^2 + 4q)) / 2."""
    if p == 0:
        raise DomainError("needs p != 0")
    rad = p * p + 4.0 * q
    if rad < 0:
        raise DomainError("no real root: p^2 + 4q < 0")
    return (-p + math.copysign(1.0, p) * math.sqrt(rad)) / 2.0


def cardano_root(p: float, q: float) -> float:
    """Branch root of x^3 + p x = q by the radical formula.

    Real only while q^2/4 + p^3/27 >= 0; otherwise (p < 0, all three
    roots real) use the trigonometric form instead.
    """
    rad = q * q / 4.0 + p**3 / 27.0
    if rad < 0:
        raise DomainError("negative radicand; use vieta_trig")
    c = _cbrt(q / 2.0 + math.sqrt(rad))
    if c == 0.0:
        return 0.0
    x = c - p / (3.0 * c)
    return _polish([-q, p, 0.0, 1.0], x)


def vieta_trig_root(p: float, q: float) -> float:
    """Branch root of x^3 + p x = q, p < 0, by the sine triplication identity.

    Valid for |q| < sqrt(-4 p^3 / 27), the window between the two branch
    points where all three roots are real.
    """
    if p >= 0:
        raise DomainError("needs p < 0")
    s = math.sqrt(-p)
    arg = 1.5 * math.sqrt(3.0) * q / (p * s)
    if abs(arg) > 1.0:
        raise DomainError("outside the all-real-roots window")
    x = 2.0 * s / math.sqrt(3.0) * math.sin(math.asin(arg) / 3.0)
    return _polish([-q, p, 0.0, 1.0], x)


def vieta_hyp_root(p: float, q: float) -> float:
    """Branch root of x^3 + p x = q, p > 0, by the sinh triplication identity."""
    if p <= 0:
        raise DomainError("needs p > 0")
    s = math.sqrt(p)
    arg = 1.5 * math.sqrt(3.0) * q / (p * s)
    x = 2.0 * s / math.sqrt(3.0) * math.sinh(math.asinh(arg) / 3.0)
    return _polish([-q, p, 0.0, 1.0], x)


def depressed_cubic_real_roots(p: float, q: float) -> list[float]:
    """All real roots of t^3 + p t + q = 0, ascending.

    A radicand q^2/4 + p^3/27 that is not finite (an input that is not, or
    an overflow) raises DomainError, and so does one left at 0 by underflow
    where the three-root formula would need p < 0 (or divide by p).
    """
    try:
        rad = q * q / 4.0 + p**3 / 27.0
    except OverflowError:
        rad = math.inf
    if not math.isfinite(rad):
        raise DomainError("the radicand q^2/4 + p^3/27 is not a finite float")
    if rad > 0:
        c = _cbrt(-q / 2.0 + math.sqrt(rad))
        d = _cbrt(-q / 2.0 - math.sqrt(rad))
        roots = [c + d]
    elif p == 0 and q == 0:
        roots = [0.0]
    else:
        m = 2.0 * math.sqrt(-p / 3.0) if p < 0 else 0.0
        if not p * m:
            raise DomainError("the radicand q^2/4 + p^3/27 underflows")
        theta = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * m)))) / 3.0
        roots = sorted(m * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3))
    return [_polish([q, p, 0.0, 1.0], r) for r in roots]


def biquadratic_real_roots(c: float, e: float) -> list[float]:
    """Real roots of y^4 + c y^2 + e = 0, ascending."""
    disc = c * c - 4.0 * e
    if disc < 0:
        return []
    roots = []
    for z in ((-c - math.sqrt(disc)) / 2.0, (-c + math.sqrt(disc)) / 2.0):
        if z >= 0:
            r = math.sqrt(z)
            roots += [-r, r] if r else [0.0]
    return sorted(set(roots))


def ferrari_real_roots(c: float, d: float, e: float) -> list[float]:
    """Real roots of the depressed quartic y^4 + c y^2 + d y + e = 0, d != 0.

    Solves the resolvent u^6 + 2c u^4 + (c^2 - 4e) u^2 - d^2 = 0 for a real
    u (always possible: the cubic in u^2 is negative at 0), then splits the
    quartic into two quadratics whose roots are

        (u/2) (1 +- sqrt(-2d/u^3 - 2c/u^2 - 1)),
       -(u/2) (1 +- sqrt( 2d/u^3 - 2c/u^2 - 1)).
    """
    if d == 0:
        raise DomainError("d = 0 is the biquadratic case; use biquadratic_real_roots")
    # cubic in v = u^2: v^3 + 2c v^2 + (c^2 - 4e) v - d^2 = 0, take v > 0
    b2, b1, b0 = 2.0 * c, c * c - 4.0 * e, -d * d
    pp = b1 - b2 * b2 / 3.0
    qq = b0 - b1 * b2 / 3.0 + 2.0 * b2**3 / 27.0
    vs = [t - b2 / 3.0 for t in depressed_cubic_real_roots(pp, qq)]
    v = max(vs)
    if v <= 0:
        raise DomainError("resolvent produced no positive root")
    u = math.sqrt(v)
    roots = []
    for sign_u in (1.0, -1.0):
        uu = sign_u * u
        rad = -2.0 * d / uu**3 - 2.0 * c / uu**2 - 1.0
        if rad >= 0:
            for pm in (1.0, -1.0):
                roots.append(uu / 2.0 * (1.0 + pm * math.sqrt(rad)))
    out = sorted({_polish([e, d, c, 0.0, 1.0], r, 6) for r in roots})
    dedup: list[float] = []
    for r in out:
        if not dedup or abs(r - dedup[-1]) > 1e-9 * (1.0 + abs(r)):
            dedup.append(r)
    return dedup


def quartic_real_roots(c: float, d: float, e: float) -> list[float]:
    """Real roots of a depressed quartic, via Ferrari or the biquadratic split."""
    if abs(d) < 1e-14 * (1.0 + abs(c) + abs(e)):
        return biquadratic_real_roots(c, e)
    return ferrari_real_roots(c, d, e)


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
